//! POSIX-like virtual-file-system abstraction for the MCFS reproduction.
//!
//! This crate is the substrate every simulated file system implements and the
//! surface MCFS drives:
//!
//! * [`FileSystem`] — the POSIX operation set (open/read/write/…,
//!   mount/unmount, statfs, optional rename/link/symlink/xattr/access);
//! * [`FsCheckpoint`] — the paper's proposed state checkpoint/restore API
//!   (VeriFS's `ioctl_CHECKPOINT` / `ioctl_RESTORE`);
//! * [`InvalidationSink`] — the `fuse_lowlevel_notify_inval_*` analogue that
//!   lets a file system invalidate kernel caches after restoring state;
//! * [`Errno`] — the shared error vocabulary MCFS's integrity checks compare;
//! * no cache layer: each mounted file system keeps its own caches, and
//!   those are what make the paper's cache-incoherency challenge (§3.2)
//!   mechanically real — ext's inode cache and buffer map (`fs-ext`) and
//!   fusesim's kernel-side entry and attr caches;
//! * [`path`] — path validation and manipulation;
//! * [`FdTable`] — a generic descriptor table;
//! * [`WordSum`] — the word-wise integrity checksum of on-media records, and
//!   [`WordMap`]/[`WordSet`], maps hashed the same way.
//!
//! # Examples
//!
//! Implementations live in the `verifs`, `fs-ext`, `fs-xfs`, and `fs-jffs2`
//! crates; a typical interaction looks like:
//!
//! ```no_run
//! use vfs::{FileSystem, FileMode};
//!
//! # fn demo(fs: &mut dyn FileSystem) -> vfs::VfsResult<()> {
//! fs.mount()?;
//! let fd = fs.create("/hello", FileMode::REG_DEFAULT)?;
//! fs.write(fd, b"world")?;
//! fs.close(fd)?;
//! assert_eq!(fs.stat("/hello")?.size, 5);
//! fs.unmount()?;
//! # Ok(())
//! # }
//! ```

mod errno;
mod fdtable;
mod fs;
pub mod path;
mod types;
mod wordhash;

pub use errno::{Errno, VfsResult};
pub use fdtable::{FdTable, DEFAULT_MAX_FDS};
pub use fs::{
    DeviceBacked, FileSystem, FsCapabilities, FsCheckpoint, InvalidationSink, RepairReport,
};
pub use types::{
    AccessMode, DirEntry, Fd, FileMode, FileStat, FileType, Ino, OpenFlags, StatFs, XattrFlags,
};
pub use wordhash::{WordHasher, WordMap, WordSet, WordSum};

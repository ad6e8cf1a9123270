//! JFFS2-style log-structured flash file system for the MCFS reproduction.
//!
//! JFFS2 cannot use a regular block device: it needs an MTD character device
//! with erase-block semantics (paper §4 — MCFS loads `mtdram` and `mtdblock`
//! to host it). This crate implements the log-structured design on
//! [`blockdev::MtdDevice`]:
//!
//! * everything is a versioned **node** appended to the log (inode nodes,
//!   dirent nodes with deletion markers, xattr nodes);
//! * **mount scans the whole flash**, folding nodes in version order to
//!   rebuild the in-memory index — JFFS2's famously slow mount; a file's
//!   bytes are assembled from its nodes when first needed, not by the scan;
//! * **garbage collection** copies live nodes out of the dirtiest erase
//!   block and erases it, tracking per-block wear;
//! * flash timing (program/erase/read) is charged to an optional virtual
//!   clock.
//!
//! Inode nodes carry content fragments: a write appends nodes for the
//! changed range only, and a truncate is a metadata-only node carrying the
//! new size (recorded in DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use blockdev::MtdDevice;
//! use fs_jffs2::{Jffs2Config, Jffs2Fs};
//! use vfs::{FileSystem, FileMode};
//!
//! # fn main() -> vfs::VfsResult<()> {
//! let mtd = MtdDevice::new(16 * 1024, 16).map_err(|_| vfs::Errno::EIO)?;
//! let mut fs = Jffs2Fs::format(mtd, Jffs2Config::default())?;
//! fs.mount()?; // full-flash scan
//! let fd = fs.create("/log", FileMode::REG_DEFAULT)?;
//! fs.write(fd, b"appended as a node")?;
//! fs.close(fd)?;
//! fs.unmount()?;
//! fs.mount()?; // rescan rebuilds the index
//! assert_eq!(fs.stat("/log")?.size, 18);
//! # Ok(())
//! # }
//! ```

mod fs;
pub mod log;

pub use fs::{FlashTiming, Jffs2Config, Jffs2Fs};

use blockdev::MtdDevice;
use vfs::VfsResult;

/// Convenience: format a fresh JFFS2 on an in-RAM MTD (mtdram analogue) with
/// `num_erase_blocks` blocks of `erase_block_size` bytes.
///
/// # Errors
///
/// `EINVAL` for unusable geometry.
pub fn jffs2_on_mtdram(erase_block_size: usize, num_erase_blocks: usize) -> VfsResult<Jffs2Fs> {
    let mtd = MtdDevice::new(erase_block_size, num_erase_blocks).map_err(|_| vfs::Errno::EINVAL)?;
    Jffs2Fs::format(mtd, Jffs2Config::default())
}

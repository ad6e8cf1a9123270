//! The `FileSystem` trait — the POSIX surface MCFS drives — and the
//! checkpoint/restore API the paper proposes file systems should expose.

use crate::errno::{Errno, VfsResult};
use crate::types::{AccessMode, DirEntry, Fd, FileMode, FileStat, OpenFlags, StatFs, XattrFlags};

/// Capability flags describing which optional operations a file system
/// supports. MCFS consults these so it only issues operations every checked
/// file system implements (VeriFS1, for instance, lacks `rename`, links, and
/// xattrs — paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsCapabilities {
    /// Supports `rename`.
    pub rename: bool,
    /// Supports hard links.
    pub hardlink: bool,
    /// Supports symbolic links.
    pub symlink: bool,
    /// Supports extended attributes.
    pub xattr: bool,
    /// Supports `access`.
    pub access: bool,
    /// Implements the in-file-system checkpoint/restore API.
    pub checkpoint: bool,
}

impl FsCapabilities {
    /// Everything on.
    pub fn full() -> Self {
        FsCapabilities {
            rename: true,
            hardlink: true,
            symlink: true,
            xattr: true,
            access: true,
            checkpoint: true,
        }
    }

    /// The intersection of two capability sets — what MCFS may exercise when
    /// comparing two file systems.
    pub fn intersect(self, other: Self) -> Self {
        FsCapabilities {
            rename: self.rename && other.rename,
            hardlink: self.hardlink && other.hardlink,
            symlink: self.symlink && other.symlink,
            xattr: self.xattr && other.xattr,
            access: self.access && other.access,
            checkpoint: self.checkpoint && other.checkpoint,
        }
    }
}

/// What one fsck run found and fixed — the report a scan-and-repair pass
/// returns through [`FileSystem::fsck`].
///
/// The checker's repair oracles consume this: a *clean* second run
/// (`repairs_made == 0`) is how idempotence (fsck∘fsck ≡ fsck) is
/// established, and the `fixes` log names each repair for minimized traces
/// and lint reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Metadata objects examined (inodes, dirents, journal blocks, log
    /// nodes — whatever the layout's unit of checking is).
    pub items_scanned: u64,
    /// Repairs applied to the on-disk state. Zero means the image was
    /// already consistent.
    pub repairs_made: u64,
    /// Human-readable description of each repair, in the order applied.
    pub fixes: Vec<String>,
}

impl RepairReport {
    /// Whether the pass found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.repairs_made == 0
    }

    /// Records one repair.
    pub fn fixed(&mut self, what: impl Into<String>) {
        self.repairs_made += 1;
        self.fixes.push(what.into());
    }

    /// Folds another pass's report into this one.
    pub fn merge(&mut self, other: RepairReport) {
        self.items_scanned += other.items_scanned;
        self.repairs_made += other.repairs_made;
        self.fixes.extend(other.fixes);
    }
}

/// A POSIX-like file system under test.
///
/// Semantics follow POSIX with these workspace-wide conventions:
///
/// * Paths are absolute and pre-validated with [`crate::path::validate`]
///   semantics; file systems re-validate and return `EINVAL`/`ENAMETOOLONG`.
/// * All operations except `mount` require the file system to be mounted and
///   return [`Errno::ENODEV`] otherwise.
/// * `read`/`write` operate at the descriptor's current offset; `lseek` is
///   absolute (`SEEK_SET` only — MCFS's parameter pools pick absolute
///   offsets).
/// * Symlinks are **not** followed by path resolution (MCFS compares them
///   structurally, and following them would make bounded pools unbounded).
///
/// Object safety is deliberate: MCFS stores checked file systems as
/// `Box<dyn FileSystem>`.
pub trait FileSystem: Send {
    /// A short identifier, e.g. `"ext4"` or `"verifs1"`.
    fn fs_name(&self) -> &str;

    /// What this implementation supports.
    fn capabilities(&self) -> FsCapabilities;

    /// Mounts the file system, reading persistent state from its backing
    /// device (if any) and initializing in-memory caches.
    ///
    /// # Errors
    ///
    /// `EBUSY` if already mounted; `EIO` if the on-device state is
    /// unrecognizable.
    fn mount(&mut self) -> VfsResult<()>;

    /// Unmounts: flushes dirty state to the backing device and drops all
    /// in-memory caches. The *only* way to guarantee no state remains in
    /// memory (paper §3.2).
    ///
    /// # Errors
    ///
    /// `ENODEV` if not mounted.
    fn unmount(&mut self) -> VfsResult<()>;

    /// Whether the file system is currently mounted.
    fn is_mounted(&self) -> bool;

    /// Flushes dirty in-memory state to the backing device without dropping
    /// caches (`sync(2)`).
    fn sync(&mut self) -> VfsResult<()>;

    /// Capacity and inode accounting.
    fn statfs(&self) -> VfsResult<StatFs>;

    /// Creates a regular file and opens it read-write
    /// (`open(path, O_CREAT|O_EXCL|O_RDWR, mode)`).
    ///
    /// # Errors
    ///
    /// `EEXIST` if the path exists, `ENOENT`/`ENOTDIR` for bad parents,
    /// `ENOSPC` when out of inodes or space.
    fn create(&mut self, path: &str, mode: FileMode) -> VfsResult<Fd>;

    /// Opens an existing file (or creates one, with `flags.create`).
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EEXIST` (with `create+excl`), `EISDIR` when opening a
    /// directory for writing, `ELOOP` when the path names a symlink.
    fn open(&mut self, path: &str, flags: OpenFlags, mode: FileMode) -> VfsResult<Fd>;

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    fn close(&mut self, fd: Fd) -> VfsResult<()>;

    /// Reads up to `buf.len()` bytes at the descriptor's offset, returning
    /// the count read (0 at EOF) and advancing the offset.
    ///
    /// # Errors
    ///
    /// `EBADF` if `fd` is unknown or not opened for reading.
    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> VfsResult<usize>;

    /// Writes `data` at the descriptor's offset (or the end, with
    /// `O_APPEND`), returning the count written and advancing the offset.
    ///
    /// # Errors
    ///
    /// `EBADF` if not opened for writing; `ENOSPC`/`EDQUOT` when full;
    /// `EFBIG` past the implementation's maximum file size.
    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize>;

    /// Sets the descriptor's offset to `offset` (`lseek(fd, offset,
    /// SEEK_SET)`), returning the new offset. Seeking past EOF is allowed.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64>;

    /// Truncates or extends the file at `path` to exactly `size` bytes;
    /// extension zero-fills.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `ENOSPC` when extension cannot be satisfied.
    fn truncate(&mut self, path: &str, size: u64) -> VfsResult<()>;

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOENT`/`ENOTDIR` for bad parents, `ENOSPC`.
    fn mkdir(&mut self, path: &str, mode: FileMode) -> VfsResult<()>;

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// `ENOTEMPTY` if non-empty, `ENOTDIR` if not a directory, `EINVAL` /
    /// `EBUSY` for the root.
    fn rmdir(&mut self, path: &str) -> VfsResult<()>;

    /// Removes a file or symlink (`unlink(2)`).
    ///
    /// # Errors
    ///
    /// `EISDIR` for directories, `ENOENT` if missing.
    fn unlink(&mut self, path: &str) -> VfsResult<()>;

    /// Stats a path (without following a final symlink, i.e. `lstat`).
    fn stat(&mut self, path: &str) -> VfsResult<FileStat>;

    /// Lists a directory. Order is implementation defined — MCFS sorts
    /// before comparing (paper §3.4). Does not include `.`/`..`.
    fn getdents(&mut self, path: &str) -> VfsResult<Vec<DirEntry>>;

    /// Changes permission bits.
    fn chmod(&mut self, path: &str, mode: FileMode) -> VfsResult<()>;

    /// Changes ownership.
    fn chown(&mut self, path: &str, uid: u32, gid: u32) -> VfsResult<()>;

    /// Sets access and modification times (virtual-clock nanoseconds).
    fn utimens(&mut self, path: &str, atime: u64, mtime: u64) -> VfsResult<()>;

    /// Flushes one file's dirty state (`fsync(2)`). The default flushes
    /// everything, which is correct but coarse.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    fn fsync(&mut self, fd: Fd) -> VfsResult<()> {
        let _ = fd;
        self.sync()
    }

    /// Renames `src` to `dst` (POSIX `rename(2)`, including atomic
    /// replacement of an existing `dst`).
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported (VeriFS1); otherwise POSIX rename errors
    /// (`EINVAL` for directory cycles, `ENOTEMPTY`/`EEXIST`, `EISDIR`,
    /// `ENOTDIR`).
    fn rename(&mut self, src: &str, dst: &str) -> VfsResult<()> {
        let _ = (src, dst);
        Err(Errno::ENOSYS)
    }

    /// Creates a hard link `new` to the file `existing`.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `EPERM` for directories; `EEXIST`;
    /// `EMLINK` at the link cap.
    fn link(&mut self, existing: &str, new: &str) -> VfsResult<()> {
        let _ = (existing, new);
        Err(Errno::ENOSYS)
    }

    /// Creates a symlink at `linkpath` containing `target`.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `EEXIST`; `ENOSPC`.
    fn symlink(&mut self, target: &str, linkpath: &str) -> VfsResult<()> {
        let _ = (target, linkpath);
        Err(Errno::ENOSYS)
    }

    /// Reads a symlink's target.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `EINVAL` if `path` is not a symlink.
    fn readlink(&mut self, path: &str) -> VfsResult<String> {
        let _ = path;
        Err(Errno::ENOSYS)
    }

    /// Checks accessibility (`access(2)`) for uid/gid 0 semantics: the owner
    /// permission bits are consulted.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `EACCES` when denied; `ENOENT`.
    fn access(&mut self, path: &str, mode: AccessMode) -> VfsResult<()> {
        let _ = (path, mode);
        Err(Errno::ENOSYS)
    }

    /// Sets an extended attribute.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `EEXIST`/`ENODATA` per [`XattrFlags`];
    /// `ENOSPC`.
    fn setxattr(
        &mut self,
        path: &str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> VfsResult<()> {
        let _ = (path, name, value, flags);
        Err(Errno::ENOSYS)
    }

    /// Reads an extended attribute.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `ENODATA` if absent.
    fn getxattr(&mut self, path: &str, name: &str) -> VfsResult<Vec<u8>> {
        let _ = (path, name);
        Err(Errno::ENOSYS)
    }

    /// Lists extended attribute names (sorted).
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported.
    fn listxattr(&mut self, path: &str) -> VfsResult<Vec<String>> {
        let _ = path;
        Err(Errno::ENOSYS)
    }

    /// Removes an extended attribute.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; `ENODATA` if absent.
    fn removexattr(&mut self, path: &str, name: &str) -> VfsResult<()> {
        let _ = (path, name);
        Err(Errno::ENOSYS)
    }

    /// A digest of concrete state the abstraction function cannot observe
    /// through the POSIX interface *now* but that can become observable
    /// later (e.g. stale bytes beyond EOF in a buffer that is never shrunk,
    /// exposed by a buggy hole write). Explorers fold this into the
    /// visited-set identity so two states that alias under the abstraction
    /// but differ in hidden residue are not deduplicated — aliasing there
    /// would silently prune the only path that surfaces a bug.
    ///
    /// `None` (the default) means the implementation tracks no such hidden
    /// state, or its residue is indistinguishable from none (all-zero). The
    /// digest must be a pure function of the file-system state: equal after
    /// checkpoint/restore, independent of wall-clock or allocation order.
    fn opaque_state_digest(&self) -> Option<u128> {
        None
    }

    /// Whether this implementation ships a scan-and-repair checker
    /// ([`fsck`](Self::fsck)). Targets advertise this so the model checker
    /// only schedules `FsOp::Fsck` against backends that implement it.
    fn supports_fsck(&self) -> bool {
        false
    }

    /// Runs the file system's offline scan-and-repair checker (fsck) over
    /// the backing device and returns what it found and fixed.
    ///
    /// Contract (what the repair oracles check):
    ///
    /// * **Works on the persistent image.** If mounted, the implementation
    ///   syncs, unmounts, repairs the device, and remounts — on return the
    ///   mount state is what it was before the call.
    /// * **Idempotent**: running fsck on an image fsck just repaired finds
    ///   nothing (`is_clean()`), and the abstract state is unchanged.
    /// * **Crash-safe**: a power cut anywhere inside the repair, followed
    ///   by another fsck run, converges to the same repaired state.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported (the default); `EIO` when the device fails
    /// or the image is damaged beyond what the checker can repair.
    fn fsck(&mut self) -> VfsResult<RepairReport> {
        Err(Errno::ENOSYS)
    }

    /// Whether this implementation keeps kernel-side metadata caches
    /// (dentry/attribute caches a FUSE mount fills on lookup) that
    /// nominally read-only operations mutate. The effect-signature analysis
    /// marks cache-filling reads as kernel-state writes when any checked
    /// target reports `true`, so partial-order reduction never sleeps a
    /// read whose cache fill changes later observable behavior.
    fn caches_metadata(&self) -> bool {
        false
    }

    /// Declares which logical thread issues the operations that follow.
    ///
    /// Interleaving exploration drives one file system from N logical
    /// threads, one op at a time; before each op the harness announces the
    /// issuing thread here. Implementations with per-thread visibility
    /// state (e.g. the FUSE mount's per-thread kernel cache views) switch
    /// their active view; everything else ignores the call (the default).
    /// Sequential harnesses never call this, so single-thread behaviour is
    /// unchanged.
    fn set_active_thread(&mut self, tid: u16) {
        let _ = tid;
    }

    /// Connects the kernel-cache invalidation callbacks
    /// (`fuse_lowlevel_notify_inval_*`). A FUSE mount calls this on the file
    /// system it mounts, handing over its own connection; implementations
    /// whose restores must invalidate kernel caches keep the sink, and
    /// everything else ignores the call (the default).
    fn set_invalidation_sink(&mut self, sink: std::sync::Arc<dyn InvalidationSink>) {
        let _ = sink;
    }
}

/// The paper's proposed state checkpoint/restore API (§5), exposed by VeriFS
/// via `ioctl_CHECKPOINT` / `ioctl_RESTORE`.
///
/// Keys are caller-chosen 64-bit identifiers into the file system's snapshot
/// pool.
pub trait FsCheckpoint {
    /// Saves the complete file-system state (in-memory and, if any, on-disk)
    /// under `key`, replacing any snapshot already stored there.
    ///
    /// # Errors
    ///
    /// `ENODEV` if not mounted; `ENOSPC` if the snapshot pool is full.
    fn checkpoint(&mut self, key: u64) -> VfsResult<()>;

    /// Restores the state saved under `key` and **discards** the snapshot —
    /// the paper's `ioctl_RESTORE` semantics. Kernel-visible caches are
    /// invalidated as part of the restore.
    ///
    /// # Errors
    ///
    /// `ENOENT` if no snapshot exists under `key`.
    fn restore(&mut self, key: u64) -> VfsResult<()>;

    /// Restores the state saved under `key`, keeping the snapshot so it can
    /// be restored again. Model checkers re-enter a parent state once per
    /// branch, so this variant avoids a redundant checkpoint per branch.
    ///
    /// # Errors
    ///
    /// `ENOENT` if no snapshot exists under `key`.
    fn restore_keep(&mut self, key: u64) -> VfsResult<()>;

    /// Drops the snapshot stored under `key`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if no snapshot exists under `key`.
    fn discard(&mut self, key: u64) -> VfsResult<()>;

    /// Number of snapshots currently in the pool.
    fn snapshot_count(&self) -> usize;

    /// Approximate *logical* bytes held by the snapshot pool — the model
    /// checker's memory model charges these (SPIN really holds a full copy
    /// per tracked state, so the virtual-memory accounting must too).
    fn snapshot_bytes(&self) -> usize;

    /// Approximate *host* bytes uniquely attributable to the snapshot pool.
    /// Copy-on-write implementations override this to exclude storage shared
    /// with the live state or between snapshots; the default assumes deep
    /// copies, where logical and resident sizes coincide.
    fn snapshot_resident_bytes(&self) -> usize {
        self.snapshot_bytes()
    }
}

/// Callback interface a file system uses to tell the kernel to invalidate its
/// caches — the analogue of `fuse_lowlevel_notify_inval_entry` and
/// `fuse_lowlevel_notify_inval_inode`, which fixed VeriFS bug #2 (paper §6).
pub trait InvalidationSink: Send + Sync {
    /// Invalidate the dentry `name` under the directory inode `parent`.
    fn invalidate_entry(&self, parent: u64, name: &str);

    /// Invalidate cached attributes/pages for inode `ino`.
    fn invalidate_inode(&self, ino: u64);

    /// Invalidate everything (cheap hammer used on full-state restore).
    fn invalidate_all(&self);
}

/// Access to a file system's backing device image — the analogue of MCFS
/// mmapping each file system's backend storage into SPIN's address space
/// (paper §4) to track persistent state.
///
/// Restoring a device image while the file system is mounted is *allowed*
/// and *dangerous*: the file system's caches are not told, which is exactly
/// the cache-incoherency failure of §3.2. MCFS's remount strategy pairs every
/// restore with an unmount/mount cycle.
pub trait DeviceBacked {
    /// Captures the full backing-device image.
    ///
    /// # Errors
    ///
    /// `EIO` if the device fails.
    fn snapshot_device(&mut self) -> VfsResult<blockdev::DeviceSnapshot>;

    /// Restores a backing-device image captured by
    /// [`snapshot_device`](Self::snapshot_device), without telling the
    /// mounted file system.
    ///
    /// # Errors
    ///
    /// `EIO` on geometry mismatch or device failure.
    fn restore_device(&mut self, snapshot: &blockdev::DeviceSnapshot) -> VfsResult<()>;

    /// Size of the backing device in bytes (drives the checker's
    /// concrete-state memory accounting).
    fn device_size_bytes(&self) -> u64;

    /// Emulates a whole-system crash and reboot: all in-memory file-system
    /// state is dropped *without* a sync, the device loses its volatile
    /// write cache ([`blockdev::BlockDevice::power_cut`]), and the file
    /// system is mounted again so its recovery (journal replay, log scan,
    /// …) runs. On return the file system is mounted.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when the implementation cannot crash-remount (the default);
    /// otherwise whatever mount/recovery fails with — which the checker
    /// treats as a violation, since a crashed file system must stay
    /// remountable.
    fn crash_reboot(&mut self) -> VfsResult<()> {
        Err(crate::Errno::ENOSYS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capabilities_intersect() {
        let a = FsCapabilities {
            rename: true,
            hardlink: true,
            symlink: false,
            xattr: true,
            access: false,
            checkpoint: true,
        };
        let b = FsCapabilities::full();
        let i = a.intersect(b);
        assert_eq!(i, a);
        let none = a.intersect(FsCapabilities::default());
        assert_eq!(none, FsCapabilities::default());
    }

    /// A minimal impl exercising the defaulted optional operations.
    struct Stub;
    impl FileSystem for Stub {
        fn fs_name(&self) -> &str {
            "stub"
        }
        fn capabilities(&self) -> FsCapabilities {
            FsCapabilities::default()
        }
        fn mount(&mut self) -> VfsResult<()> {
            Ok(())
        }
        fn unmount(&mut self) -> VfsResult<()> {
            Ok(())
        }
        fn is_mounted(&self) -> bool {
            true
        }
        fn sync(&mut self) -> VfsResult<()> {
            Ok(())
        }
        fn statfs(&self) -> VfsResult<StatFs> {
            Err(Errno::ENOSYS)
        }
        fn create(&mut self, _: &str, _: FileMode) -> VfsResult<Fd> {
            Err(Errno::ENOSYS)
        }
        fn open(&mut self, _: &str, _: OpenFlags, _: FileMode) -> VfsResult<Fd> {
            Err(Errno::ENOSYS)
        }
        fn close(&mut self, _: Fd) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn read(&mut self, _: Fd, _: &mut [u8]) -> VfsResult<usize> {
            Err(Errno::ENOSYS)
        }
        fn write(&mut self, _: Fd, _: &[u8]) -> VfsResult<usize> {
            Err(Errno::ENOSYS)
        }
        fn lseek(&mut self, _: Fd, _: u64) -> VfsResult<u64> {
            Err(Errno::ENOSYS)
        }
        fn truncate(&mut self, _: &str, _: u64) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn mkdir(&mut self, _: &str, _: FileMode) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn rmdir(&mut self, _: &str) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn unlink(&mut self, _: &str) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn stat(&mut self, _: &str) -> VfsResult<FileStat> {
            Err(Errno::ENOSYS)
        }
        fn getdents(&mut self, _: &str) -> VfsResult<Vec<DirEntry>> {
            Err(Errno::ENOSYS)
        }
        fn chmod(&mut self, _: &str, _: FileMode) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn chown(&mut self, _: &str, _: u32, _: u32) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
        fn utimens(&mut self, _: &str, _: u64, _: u64) -> VfsResult<()> {
            Err(Errno::ENOSYS)
        }
    }

    #[test]
    fn optional_ops_default_to_enosys() {
        let mut s = Stub;
        assert_eq!(s.rename("/a", "/b"), Err(Errno::ENOSYS));
        assert_eq!(s.link("/a", "/b"), Err(Errno::ENOSYS));
        assert_eq!(s.symlink("/a", "/b"), Err(Errno::ENOSYS));
        assert_eq!(s.readlink("/a"), Err(Errno::ENOSYS));
        assert_eq!(s.access("/a", AccessMode::read()), Err(Errno::ENOSYS));
        assert_eq!(
            s.setxattr("/a", "user.x", b"v", XattrFlags::Any),
            Err(Errno::ENOSYS)
        );
        assert_eq!(s.getxattr("/a", "user.x"), Err(Errno::ENOSYS));
        assert_eq!(s.listxattr("/a"), Err(Errno::ENOSYS));
        assert_eq!(s.removexattr("/a", "user.x"), Err(Errno::ENOSYS));
        assert!(!s.supports_fsck());
        assert_eq!(s.fsck(), Err(Errno::ENOSYS));
    }

    #[test]
    fn repair_report_accumulates() {
        let mut r = RepairReport::default();
        assert!(r.is_clean());
        r.items_scanned = 3;
        r.fixed("cleared orphan inode 7");
        let mut other = RepairReport {
            items_scanned: 2,
            ..RepairReport::default()
        };
        other.fixed("rebuilt block bitmap");
        r.merge(other);
        assert_eq!(r.items_scanned, 5);
        assert_eq!(r.repairs_made, 2);
        assert_eq!(r.fixes.len(), 2);
        assert!(!r.is_clean());
    }

    #[test]
    fn stub_is_object_safe() {
        let boxed: Box<dyn FileSystem> = Box::new(Stub);
        assert_eq!(boxed.fs_name(), "stub");
    }
}

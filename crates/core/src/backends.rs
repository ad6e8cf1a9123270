//! The one place backends are built: device geometry, typed constructors,
//! the named table the lint runs against, and [`target`], which turns a
//! backend name into a fresh [`CheckedTarget`].
//!
//! Everything that checks a file system in its default configuration —
//! benches, lint, examples, tests — builds it here. Sites that need an
//! untimed device, a bespoke size or a historical bug call a typed
//! constructor ([`ext_on`], [`verifs_fuse`], …) or the file-system crate's
//! own (`fs_ext::ext2_on_ram`, `fs_jffs2::jffs2_on_mtdram`, …).
//!
//! FUSE mounts need no wiring here: `FuseMount` hands its invalidation
//! connection to the file system it mounts, so a VeriFS behind FUSE
//! invalidates the kernel caches on restore unless its `BugConfig` says
//! otherwise.

use blockdev::{Clock, LatencyModel, MtdDevice, RamDisk, TimedDevice};
use fs_ext::{ExtConfig, ExtFs};
use fs_jffs2::{Jffs2Config, Jffs2Fs};
use fs_xfs::{XfsConfig, XfsFs};
use fusesim::{FuseConfig, FuseMount};
use verifs::{BugConfig, VeriFs, VeriFsConfig};
use vfs::{DeviceBacked, Errno, FileSystem, FsCheckpoint, VfsResult};

use crate::{CheckedTarget, CheckpointTarget, RemountMode, RemountTarget};

/// Device size for the ext2/ext4 backends (the paper's 256 KiB RAM disks).
pub const EXT_DEVICE_BYTES: u64 = 256 * 1024;
/// Device size for XFS (its 16 MiB minimum).
pub const XFS_DEVICE_BYTES: u64 = 16 * 1024 * 1024;
/// JFFS2 flash geometry: erase-block size.
pub const JFFS2_ERASE_BLOCK: usize = 16 * 1024;
/// JFFS2 erase-block count (1 MiB total).
pub const JFFS2_BLOCKS: usize = 64;

/// Mounts `fs` and hands it back.
///
/// # Errors
///
/// Propagated mount errors.
pub fn mounted<F: FileSystem>(mut fs: F) -> VfsResult<F> {
    fs.mount()?;
    Ok(fs)
}

/// Builds an ext2 or ext4 on a timed RAM/SSD/HDD device.
///
/// # Errors
///
/// Propagated format errors.
pub fn ext_on(
    cfg: ExtConfig,
    model: LatencyModel,
    clock: Clock,
) -> VfsResult<ExtFs<TimedDevice<RamDisk>>> {
    let disk = RamDisk::new(cfg.block_size, EXT_DEVICE_BYTES).map_err(|_| Errno::EINVAL)?;
    ExtFs::format(TimedDevice::new(disk, model, clock), cfg)
}

/// Builds an XFS on a timed RAM device (16 MiB, the paper's size).
///
/// # Errors
///
/// Propagated format errors.
pub fn xfs_on(model: LatencyModel, clock: Clock) -> VfsResult<XfsFs<TimedDevice<RamDisk>>> {
    let cfg = XfsConfig::default();
    let disk = RamDisk::new(cfg.block_size, XFS_DEVICE_BYTES).map_err(|_| Errno::EINVAL)?;
    XfsFs::format(TimedDevice::new(disk, model, clock), cfg)
}

/// Builds a JFFS2 on an in-RAM MTD with flash timing charged to `clock`.
///
/// # Errors
///
/// Propagated format errors.
pub fn jffs2_on(clock: Clock) -> VfsResult<Jffs2Fs> {
    let mtd = MtdDevice::new(JFFS2_ERASE_BLOCK, JFFS2_BLOCKS).map_err(|_| Errno::EINVAL)?;
    let cfg = Jffs2Config {
        clock: Some(clock),
        ..Jffs2Config::default()
    };
    Jffs2Fs::format(mtd, cfg)
}

/// Builds a VeriFS (v1 or v2) mounted through the FUSE layer — the paper's
/// deployment. The mount is not yet mounted.
pub fn verifs_fuse(version: u8, bugs: BugConfig, clock: Clock) -> FuseMount<VeriFs> {
    let fs = match version {
        1 => VeriFs::v1_with_bugs(bugs),
        _ => VeriFs::v2_with_bugs(bugs),
    };
    FuseMount::with_config(fs, FuseConfig::default(), Some(clock))
}

type MakeTarget = fn(RemountMode, Clock) -> VfsResult<Box<dyn CheckedTarget>>;

fn checkpoint<F: FileSystem + FsCheckpoint + Send + 'static>(
    fs: F,
) -> VfsResult<Box<dyn CheckedTarget>> {
    Ok(Box::new(CheckpointTarget::new(fs)))
}

fn remount<F: FileSystem + DeviceBacked + Send + 'static>(
    fs: F,
    mode: RemountMode,
    clock: Clock,
) -> VfsResult<Box<dyn CheckedTarget>> {
    Ok(Box::new(RemountTarget::new(fs, mode).with_clock(clock)))
}

/// Every name [`target`] accepts, with its builder. VeriFS backends use the
/// checkpoint API and ignore the remount mode; the rest sit on timed devices
/// and remount as `mode` says.
const TARGETS: [(&str, MakeTarget); 8] = [
    ("verifs-v1", |_, _| checkpoint(mounted(VeriFs::v1())?)),
    ("verifs-v2", |_, _| checkpoint(mounted(VeriFs::v2())?)),
    ("fuse-verifs-v1", |_, clock| {
        checkpoint(verifs_fuse(1, BugConfig::none(), clock))
    }),
    ("fuse-verifs-v2", |_, clock| {
        checkpoint(verifs_fuse(2, BugConfig::none(), clock))
    }),
    ("ext2", |mode, clock| {
        let fs = ext_on(ExtConfig::ext2(), LatencyModel::ram(), clock.clone())?;
        remount(fs, mode, clock)
    }),
    ("ext4", |mode, clock| {
        let fs = ext_on(ExtConfig::ext4(), LatencyModel::ram(), clock.clone())?;
        remount(fs, mode, clock)
    }),
    ("xfs", |mode, clock| {
        remount(xfs_on(LatencyModel::ram(), clock.clone())?, mode, clock)
    }),
    ("jffs2", |mode, clock| {
        remount(jffs2_on(clock.clone())?, mode, clock)
    }),
];

/// A fresh checked target for the backend `name` in its default
/// configuration, charging `clock`. Device-backed backends sit on timed RAM
/// devices and remount as `mode` says; VeriFS backends (`verifs-v1`,
/// `verifs-v2`, and the FUSE-mounted `fuse-verifs-v1`, `fuse-verifs-v2`)
/// track state through the checkpoint API and ignore `mode`.
///
/// # Errors
///
/// `EINVAL` for an unknown name; propagated format/mount errors.
pub fn target(name: &str, mode: RemountMode, clock: Clock) -> VfsResult<Box<dyn CheckedTarget>> {
    let (_, make) = TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or(Errno::EINVAL)?;
    make(mode, clock)
}

/// One checkable backend of the lint table: a name and a constructor
/// yielding a fresh, mounted, empty file system.
#[derive(Clone, Copy)]
pub struct Backend {
    /// Table/report name; [`target`] accepts it too.
    pub name: &'static str,
    /// Construction or per-op cost is high: sanitizers sample fewer pairs.
    pub heavy: bool,
    make: fn() -> VfsResult<Box<dyn FileSystem>>,
}

impl Backend {
    /// A fresh, mounted, empty instance.
    ///
    /// # Errors
    ///
    /// Propagated format/mount errors.
    pub fn fresh(&self) -> VfsResult<Box<dyn FileSystem>> {
        (self.make)()
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend").field("name", &self.name).finish()
    }
}

fn boxed<F: FileSystem + 'static>(fs: VfsResult<F>) -> VfsResult<Box<dyn FileSystem>> {
    Ok(Box::new(mounted(fs?)?))
}

/// The quick set: the RAM backends plus one device-backed representative —
/// what `mcfs-lint --quick` (the CI smoke gate) runs.
pub fn quick() -> Vec<Backend> {
    vec![
        Backend {
            name: "verifs-v1",
            heavy: false,
            make: || boxed(Ok(VeriFs::v1())),
        },
        Backend {
            name: "verifs-v2",
            heavy: false,
            make: || boxed(Ok(VeriFs::v2())),
        },
        Backend {
            name: "fuse-verifs-v2",
            heavy: false,
            make: || boxed(Ok(FuseMount::new(VeriFs::v2()))),
        },
        Backend {
            name: "ext2",
            heavy: true,
            make: || boxed(ext_on(ExtConfig::ext2(), LatencyModel::ram(), Clock::new())),
        },
    ]
}

/// Every backend in the workspace.
pub fn all() -> Vec<Backend> {
    let mut v = quick();
    v.extend([
        Backend {
            name: "ext4",
            heavy: true,
            make: || boxed(ext_on(ExtConfig::ext4(), LatencyModel::ram(), Clock::new())),
        },
        Backend {
            name: "xfs",
            heavy: true,
            make: || boxed(xfs_on(LatencyModel::ram(), Clock::new())),
        },
        Backend {
            name: "jffs2",
            heavy: true,
            make: || boxed(jffs2_on(Clock::new())),
        },
    ]);
    v
}

/// The historical buggy VeriFS2: hole writes skip zeroing (paper bug #1)
/// *and* the beyond-EOF residue digest is disabled, reproducing the
/// CHUNK-rounding abstraction aliasing that hid the hole bug from
/// state-matched DFS. The lint's `MC002` must fire on this backend and stay
/// clean on the fixed [`VeriFs::v2`].
///
/// # Errors
///
/// Propagated mount errors.
pub fn historical_verifs() -> VfsResult<Box<dyn FileSystem>> {
    let mut cfg = VeriFsConfig::v2();
    cfg.bugs.v2_hole_no_zero = true;
    cfg.opaque_residue_digest = false;
    boxed(Ok(VeriFs::with_config(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mcfs, McfsConfig};

    #[test]
    fn every_backend_constructs_mounted_and_empty() {
        for b in all() {
            let mut fs = b.fresh().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let entries = fs
                .getdents("/")
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            // Freshly formatted: nothing but special entries.
            assert!(
                entries.iter().all(|e| e.name.starts_with("lost+found")),
                "{}: {entries:?}",
                b.name
            );
            assert!(
                TARGETS.iter().any(|(n, _)| *n == b.name),
                "{}: table name unknown to target()",
                b.name
            );
        }
        assert!(historical_verifs().is_ok());
    }

    #[test]
    fn every_target_name_builds_a_harness() {
        for (name, _) in TARGETS {
            for mode in [RemountMode::PerOp, RemountMode::OnRestore] {
                let clock = Clock::new();
                let pair = vec![
                    target(name, mode, clock.clone()).unwrap_or_else(|e| panic!("{name}: {e}")),
                    target(name, mode, clock.clone()).unwrap_or_else(|e| panic!("{name}: {e}")),
                ];
                Mcfs::with_clock(pair, McfsConfig::default(), clock)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn an_unknown_name_is_an_error() {
        for name in ["", "ext3", "fuse-verifs", "EXT2"] {
            assert_eq!(
                target(name, RemountMode::PerOp, Clock::new()).err(),
                Some(Errno::EINVAL),
                "{name:?}"
            );
        }
    }
}

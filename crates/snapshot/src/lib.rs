//! Process- and VM-level snapshotting — the state-tracking alternatives the
//! paper evaluated before designing the checkpoint/restore API (§5).
//!
//! * CRIU process snapshotting **refuses to checkpoint processes holding
//!   open character or block devices** ([`criu_check_handles`]), which is
//!   exactly why it could not snapshot FUSE file systems (they hold
//!   `/dev/fuse`) but *could* snapshot the NFS-Ganesha user-space server.
//!   Dumps and restores cost [`CRIU_NS_PER_KIB`] of virtual time per KiB of
//!   image.
//! * LightVM-style whole-VM snapshotting always works, but costs
//!   [`LIGHTVM_CHECKPOINT_MS`] per checkpoint and [`LIGHTVM_RESTORE_MS`] per
//!   restore — limiting model checking to the paper's observed 20–30
//!   operations/second.
//!
//! These are the §5 cost model's only home: `mcfs::ImageTarget` charges
//! the same constants when it runs a file system under either mechanism.

/// A handle a simulated process holds on a device node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProcessHandle {
    /// Regular file (snapshot-safe).
    File(String),
    /// Character device (CRIU refuses these, e.g. `/dev/fuse`).
    CharDevice(String),
    /// Block device (CRIU refuses these too).
    BlockDevice(String),
}

/// CRIU's dump/restore cost per KiB of image (it streams memory to files).
pub const CRIU_NS_PER_KIB: u64 = 2_000;

/// LightVM checkpoint latency (a trivial unikernel).
pub const LIGHTVM_CHECKPOINT_MS: u64 = 30;

/// LightVM restore latency.
pub const LIGHTVM_RESTORE_MS: u64 = 20;

/// Virtual time CRIU takes to dump or restore an image of `bytes`.
pub fn criu_copy_ns(bytes: usize) -> u64 {
    CRIU_NS_PER_KIB * (bytes as u64).div_ceil(1024)
}

/// CRIU's applicability check: a process holding any character or block
/// device cannot be checkpointed.
///
/// # Errors
///
/// [`CriuError::UnsupportedDevice`] naming the first such device — the
/// limitation that ruled CRIU out for FUSE file systems in the paper.
pub fn criu_check_handles(handles: &[ProcessHandle]) -> Result<(), CriuError> {
    for h in handles {
        match h {
            ProcessHandle::CharDevice(p) | ProcessHandle::BlockDevice(p) => {
                return Err(CriuError::UnsupportedDevice(p.clone()));
            }
            ProcessHandle::File(_) => {}
        }
    }
    Ok(())
}

/// Why CRIU refused a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriuError {
    /// The process has an open character or block device. CRIU's real
    /// refusal — fatal for FUSE daemons.
    UnsupportedDevice(String),
}

impl std::fmt::Display for CriuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriuError::UnsupportedDevice(path) => {
                write!(f, "criu: cannot checkpoint process with open device {path}")
            }
        }
    }
}

impl std::error::Error for CriuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criu_refuses_device_handles_only() {
        // A FUSE daemon holds /dev/fuse: CRIU must refuse (paper §5); a
        // Ganesha-like server holding regular files is fine.
        let fuse = [
            ProcessHandle::File("/var/log/fuse.log".into()),
            ProcessHandle::CharDevice("/dev/fuse".into()),
        ];
        let err = criu_check_handles(&fuse).unwrap_err();
        assert_eq!(err, CriuError::UnsupportedDevice("/dev/fuse".into()));
        assert_eq!(
            err.to_string(),
            "criu: cannot checkpoint process with open device /dev/fuse"
        );
        assert!(criu_check_handles(&[ProcessHandle::BlockDevice("/dev/ram0".into())]).is_err());
        assert!(criu_check_handles(&[ProcessHandle::File("/var/log/ganesha.log".into())]).is_ok());
    }

    #[test]
    fn criu_copy_charges_per_started_kib() {
        assert_eq!(criu_copy_ns(10 * 1024), 10 * CRIU_NS_PER_KIB);
        assert_eq!(criu_copy_ns(10 * 1024 + 1), 11 * CRIU_NS_PER_KIB);
    }
}

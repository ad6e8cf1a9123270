//! Process- and VM-level snapshotting — the state-tracking alternatives the
//! paper evaluated before designing the checkpoint/restore API (§5).
//!
//! * [`CriuEngine`] models CRIU process snapshotting. CRIU **refuses to
//!   checkpoint processes holding open character or block devices**
//!   ([`criu_check_handles`]), which is exactly why it could not snapshot
//!   FUSE file systems (they hold `/dev/fuse`) but *could* snapshot the
//!   NFS-Ganesha user-space server. Dumps and restores cost
//!   [`CRIU_NS_PER_KIB`] of virtual time per KiB of image.
//! * LightVM-style whole-VM snapshotting always works, but costs
//!   [`LIGHTVM_CHECKPOINT_MS`] per checkpoint and [`LIGHTVM_RESTORE_MS`] per
//!   restore — limiting model checking to the paper's observed 20–30
//!   operations/second.
//!
//! These are the §5 cost model's only home: `mcfs::ImageTarget` charges
//! the same constants when it runs a file system under either mechanism.

use std::collections::HashMap;
use std::sync::Arc;

use blockdev::Clock;

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

/// A snapshot-able view of a user-space process: its memory image and the
/// handles it holds. The `fusesim` daemon and a Ganesha-like NFS server both
/// reduce to this.
pub trait Snapshotable {
    /// Serializes the process's full memory state.
    fn memory_image(&self) -> Vec<u8>;

    /// Restores a previously captured memory state.
    ///
    /// # Errors
    ///
    /// A message when the image is incompatible.
    fn restore_image(&mut self, image: &[u8]) -> Result<(), String>;

    /// The device/file handles the process currently holds.
    fn handles(&self) -> Vec<ProcessHandle>;
}

/// Why CRIU refused a checkpoint or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriuError {
    /// The process has an open character or block device. CRIU's real
    /// refusal — fatal for FUSE daemons.
    UnsupportedDevice(String),
    /// Restore was asked for an unknown snapshot key.
    NoSuchSnapshot(u64),
    /// The process rejected the image.
    RestoreFailed(String),
}

impl std::fmt::Display for CriuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriuError::UnsupportedDevice(path) => {
                write!(f, "criu: cannot checkpoint process with open device {path}")
            }
            CriuError::NoSuchSnapshot(key) => write!(f, "criu: no snapshot under key {key}"),
            CriuError::RestoreFailed(msg) => write!(f, "criu: restore failed: {msg}"),
        }
    }
}

impl std::error::Error for CriuError {}

/// A captured process image. The bytes are `Arc`-shared: cloning an image
/// is a refcount bump, not a copy, matching the copy-on-write checkpoint
/// model used elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessImage {
    bytes: Arc<Vec<u8>>,
}

impl ProcessImage {
    /// Image size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The captured bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// CRIU-style checkpoint/restore of user-space processes.
///
/// # Examples
///
/// ```
/// use snapshot::{CriuEngine, CriuError, ProcessHandle, Snapshotable};
///
/// struct Plain(Vec<u8>);
/// impl Snapshotable for Plain {
///     fn memory_image(&self) -> Vec<u8> { self.0.clone() }
///     fn restore_image(&mut self, image: &[u8]) -> Result<(), String> {
///         self.0 = image.to_vec();
///         Ok(())
///     }
///     fn handles(&self) -> Vec<ProcessHandle> { vec![] }
/// }
///
/// # fn main() -> Result<(), CriuError> {
/// let mut engine = CriuEngine::new(None);
/// let mut proc = Plain(vec![1, 2, 3]);
/// engine.checkpoint(1, &proc)?;
/// proc.0.clear();
/// engine.restore(1, &mut proc)?;
/// assert_eq!(proc.0, vec![1, 2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CriuEngine {
    images: HashMap<u64, ProcessImage>,
    clock: Option<Clock>,
}

impl CriuEngine {
    /// Creates an engine; with a clock, dump/restore charge virtual time.
    pub fn new(clock: Option<Clock>) -> Self {
        CriuEngine {
            images: HashMap::new(),
            clock,
        }
    }

    fn charge(&self, bytes: usize) {
        if let Some(c) = &self.clock {
            c.advance_ns(criu_copy_ns(bytes));
        }
    }

    /// Checkpoints `proc` under `key`.
    ///
    /// # Errors
    ///
    /// See [`criu_check_handles`].
    pub fn checkpoint(&mut self, key: u64, proc: &dyn Snapshotable) -> Result<(), CriuError> {
        criu_check_handles(&proc.handles())?;
        let bytes = proc.memory_image();
        self.charge(bytes.len());
        self.images.insert(
            key,
            ProcessImage {
                bytes: Arc::new(bytes),
            },
        );
        Ok(())
    }

    /// Restores the image stored under `key` into `proc` (keeping the image).
    ///
    /// # Errors
    ///
    /// [`CriuError::NoSuchSnapshot`] / [`CriuError::RestoreFailed`].
    pub fn restore(&mut self, key: u64, proc: &mut dyn Snapshotable) -> Result<(), CriuError> {
        let image = self
            .images
            .get(&key)
            .ok_or(CriuError::NoSuchSnapshot(key))?;
        self.charge(image.bytes.len());
        proc.restore_image(&image.bytes)
            .map_err(CriuError::RestoreFailed)
    }

    /// Drops the image under `key`, reporting whether one existed.
    pub fn discard(&mut self, key: u64) -> bool {
        self.images.remove(&key).is_some()
    }

    /// Number of stored images.
    pub fn image_count(&self) -> usize {
        self.images.len()
    }

    /// Total bytes held by stored images.
    pub fn image_bytes(&self) -> usize {
        self.images.values().map(ProcessImage::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeProc {
        memory: Vec<u8>,
        handles: Vec<ProcessHandle>,
    }

    impl Snapshotable for FakeProc {
        fn memory_image(&self) -> Vec<u8> {
            self.memory.clone()
        }
        fn restore_image(&mut self, image: &[u8]) -> Result<(), String> {
            self.memory = image.to_vec();
            Ok(())
        }
        fn handles(&self) -> Vec<ProcessHandle> {
            self.handles.clone()
        }
    }

    #[test]
    fn criu_refuses_fuse_like_processes() {
        // A FUSE daemon holds /dev/fuse: CRIU must refuse (paper §5).
        let proc = FakeProc {
            memory: vec![0; 128],
            handles: vec![ProcessHandle::CharDevice("/dev/fuse".into())],
        };
        let mut engine = CriuEngine::new(None);
        let err = engine.checkpoint(1, &proc).unwrap_err();
        assert_eq!(err, CriuError::UnsupportedDevice("/dev/fuse".into()));
        assert!(err.to_string().contains("/dev/fuse"));
    }

    #[test]
    fn criu_refuses_block_devices_too() {
        let proc = FakeProc {
            memory: vec![],
            handles: vec![ProcessHandle::BlockDevice("/dev/ram0".into())],
        };
        let mut engine = CriuEngine::new(None);
        assert!(matches!(
            engine.checkpoint(1, &proc),
            Err(CriuError::UnsupportedDevice(_))
        ));
    }

    #[test]
    fn criu_snapshots_ganesha_like_process() {
        // NFS-Ganesha holds only regular files: CRIU works (paper §5).
        let mut proc = FakeProc {
            memory: b"nfs server state".to_vec(),
            handles: vec![ProcessHandle::File("/var/log/ganesha.log".into())],
        };
        let mut engine = CriuEngine::new(None);
        engine.checkpoint(7, &proc).unwrap();
        assert_eq!(engine.image_count(), 1);
        assert_eq!(engine.image_bytes(), 16);
        proc.memory.clear();
        engine.restore(7, &mut proc).unwrap();
        assert_eq!(proc.memory, b"nfs server state");
        assert!(engine.discard(7));
        assert!(!engine.discard(7));
        assert_eq!(
            engine.restore(7, &mut proc),
            Err(CriuError::NoSuchSnapshot(7))
        );
    }

    #[test]
    fn criu_charges_dump_time() {
        let clock = Clock::new();
        let proc = FakeProc {
            memory: vec![0; 10 * 1024],
            handles: vec![],
        };
        let mut engine = CriuEngine::new(Some(clock.clone()));
        engine.checkpoint(1, &proc).unwrap();
        assert_eq!(clock.now_ns(), 10 * 2_000);
    }
}

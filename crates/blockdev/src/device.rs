//! The block device abstraction and whole-device snapshots.

use std::error::Error;
use std::fmt;

use crate::cow::CowImage;
use crate::faulty::FaultPhase;

/// Errors returned by block-device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A block index beyond the end of the device was addressed.
    OutOfRange {
        /// The offending block index.
        block: u64,
        /// Number of blocks on the device.
        num_blocks: u64,
    },
    /// A buffer whose length does not match the device block size was passed.
    BadBufferLength {
        /// Length of the buffer supplied by the caller.
        got: usize,
        /// The device block size.
        expected: usize,
    },
    /// The requested geometry is invalid (zero-sized blocks, size not a
    /// multiple of the block size, or a zero-length device).
    BadGeometry(String),
    /// A snapshot from a device with different geometry was restored.
    SnapshotMismatch,
    /// Flash-specific failure (wrapped by [`crate::MtdBlock`]).
    Mtd(String),
    /// An I/O failure — what an injected fault surfaces as (see
    /// [`crate::FaultyDevice`]). File systems map this to `EIO`.
    Io(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfRange { block, num_blocks } => {
                write!(
                    f,
                    "block {block} out of range (device has {num_blocks} blocks)"
                )
            }
            DeviceError::BadBufferLength { got, expected } => {
                write!(
                    f,
                    "buffer length {got} does not match block size {expected}"
                )
            }
            DeviceError::BadGeometry(msg) => write!(f, "bad device geometry: {msg}"),
            DeviceError::SnapshotMismatch => {
                write!(f, "snapshot geometry does not match this device")
            }
            DeviceError::Mtd(msg) => write!(f, "mtd error: {msg}"),
            DeviceError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl Error for DeviceError {}

/// Result alias for device operations.
pub type DeviceResult<T> = Result<T, DeviceError>;

/// A whole-device snapshot: the persistent state SPIN tracks by mmapping the
/// backing store of each file system (paper §4).
///
/// A snapshot is a [`CowImage`] plus geometry: capturing, restoring or
/// dropping one bumps a single reference count, whatever the device size,
/// and it shares every chunk the live device has not rewritten since. [`size_bytes`](DeviceSnapshot::size_bytes) still reports
/// the full *logical* device size — that is what the model checker's memory
/// model charges (SPIN really holds a full copy per tracked state); the
/// structural-sharing saving is a host-memory win reported separately via
/// [`shared_bytes`](DeviceSnapshot::shared_bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSnapshot {
    pub(crate) block_size: usize,
    pub(crate) image: CowImage,
}

impl DeviceSnapshot {
    /// Logical size of the snapshot in bytes (equals the device size).
    pub fn size_bytes(&self) -> usize {
        self.image.len()
    }

    /// The block size of the device the snapshot was taken from.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Iterates the image's chunks as byte slices, in order (for hashing or
    /// serialization without materializing the whole image).
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.image.chunks()
    }

    /// The chunk granularity of the underlying COW image.
    pub fn chunk_size(&self) -> usize {
        self.image.chunk_size()
    }

    /// Reassembles a snapshot from chunks previously produced by
    /// [`DeviceSnapshot::chunks`] (the checkpoint pool's disk-promotion
    /// path). Returns `None` on geometry mismatch.
    pub fn from_chunks(block_size: usize, chunk_size: usize, chunks: Vec<Vec<u8>>) -> Option<Self> {
        if block_size == 0 {
            return None;
        }
        Some(DeviceSnapshot {
            block_size,
            image: CowImage::from_chunks(chunk_size, chunks)?,
        })
    }

    /// Materializes the full image as one contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.image.to_vec()
    }

    /// Bytes shared with the live device or other snapshots of it.
    pub fn shared_bytes(&self) -> usize {
        self.image.shared_bytes()
    }
}

/// A fixed-geometry block device.
///
/// All file systems in this reproduction sit on a `BlockDevice` (JFFS2 via the
/// [`crate::MtdBlock`] adapter). The trait also exposes snapshot/restore of the
/// full device image — the mechanism MCFS uses to track persistent state.
pub trait BlockDevice: Send {
    /// Block size in bytes.
    fn block_size(&self) -> usize;

    /// Number of blocks on the device.
    fn num_blocks(&self) -> u64;

    /// Total capacity in bytes.
    fn size_bytes(&self) -> u64 {
        self.num_blocks() * self.block_size() as u64
    }

    /// Reads block `block` into `buf`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfRange`] if `block >= num_blocks()`;
    /// [`DeviceError::BadBufferLength`] if `buf.len() != block_size()`.
    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> DeviceResult<()>;

    /// Writes `buf` to block `block`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`read_block`](Self::read_block).
    fn write_block(&mut self, block: u64, buf: &[u8]) -> DeviceResult<()>;

    /// Flushes any device-level write buffer. RAM-backed devices are
    /// write-through, so the default is a no-op.
    fn flush(&mut self) -> DeviceResult<()> {
        Ok(())
    }

    /// Emulates a power cut: every write accepted since the last
    /// [`flush`](Self::flush) that still sits in a volatile cache is lost,
    /// then the device comes back up. Write-through devices have nothing to
    /// lose, so the default is a no-op.
    fn power_cut(&mut self) -> DeviceResult<()> {
        Ok(())
    }

    /// Captures the full device image.
    fn snapshot(&mut self) -> DeviceResult<DeviceSnapshot>;

    /// Restores a previously captured image.
    ///
    /// This is exactly the operation that makes mounted file systems' caches
    /// incoherent (paper §3.2): the device content changes underneath them.
    ///
    /// # Errors
    ///
    /// [`DeviceError::SnapshotMismatch`] if the snapshot geometry differs.
    fn restore(&mut self, snapshot: &DeviceSnapshot) -> DeviceResult<()>;

    /// Declares which life-cycle [`FaultPhase`] subsequent operations belong
    /// to, so phase-filtered fault plans can target (say) only repair
    /// traffic. Plain devices have no fault machinery, so the default is a
    /// no-op; [`crate::FaultyDevice`] records it, and wrappers forward it.
    fn set_fault_phase(&mut self, _phase: FaultPhase) {}
}

pub(crate) fn check_io(
    block: u64,
    buf_len: usize,
    block_size: usize,
    num_blocks: u64,
) -> DeviceResult<()> {
    if block >= num_blocks {
        return Err(DeviceError::OutOfRange { block, num_blocks });
    }
    if buf_len != block_size {
        return Err(DeviceError::BadBufferLength {
            got: buf_len,
            expected: block_size,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = DeviceError::OutOfRange {
            block: 9,
            num_blocks: 4,
        };
        assert!(e.to_string().contains("block 9"));
        assert!(DeviceError::SnapshotMismatch
            .to_string()
            .contains("snapshot"));
        assert!(DeviceError::BadGeometry("x".into())
            .to_string()
            .contains('x'));
    }

    #[test]
    fn check_io_rejects_bad_inputs() {
        assert!(check_io(0, 512, 512, 4).is_ok());
        assert!(matches!(
            check_io(4, 512, 512, 4),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            check_io(0, 100, 512, 4),
            Err(DeviceError::BadBufferLength { .. })
        ));
    }
}

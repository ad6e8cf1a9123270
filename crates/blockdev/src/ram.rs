//! RAM block device — the "brd2" analogue from the paper.

use crate::cow::CowImage;
use crate::device::{check_io, BlockDevice, DeviceError, DeviceResult, DeviceSnapshot};

/// A RAM-backed block device.
///
/// The paper patched Linux's `brd` RAM-disk driver into `brd2` so different
/// file systems could use different-sized RAM disks (Ext4 needs 256 KiB, XFS a
/// 16 MiB minimum). `RamDisk` has per-instance geometry, so this falls out
/// naturally.
///
/// # Examples
///
/// ```
/// use blockdev::{BlockDevice, RamDisk};
///
/// # fn main() -> Result<(), blockdev::DeviceError> {
/// let mut disk = RamDisk::new(512, 256 * 1024)?;
/// assert_eq!(disk.num_blocks(), 512);
/// let snap = disk.snapshot()?;
/// disk.write_block(0, &vec![1u8; 512])?;
/// disk.restore(&snap)?;
/// let mut buf = vec![0u8; 512];
/// disk.read_block(0, &mut buf)?;
/// assert_eq!(buf, vec![0u8; 512]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RamDisk {
    block_size: usize,
    data: CowImage,
    reads: u64,
    writes: u64,
}

impl RamDisk {
    /// Creates a zero-filled RAM disk of `size_bytes` bytes with the given
    /// block size.
    ///
    /// # Errors
    ///
    /// [`DeviceError::BadGeometry`] if `block_size` is zero, `size_bytes` is
    /// zero, or `size_bytes` is not a multiple of `block_size`.
    pub fn new(block_size: usize, size_bytes: u64) -> DeviceResult<Self> {
        if block_size == 0 {
            return Err(DeviceError::BadGeometry(
                "block size must be nonzero".into(),
            ));
        }
        if size_bytes == 0 {
            return Err(DeviceError::BadGeometry(
                "device size must be nonzero".into(),
            ));
        }
        if !size_bytes.is_multiple_of(block_size as u64) {
            return Err(DeviceError::BadGeometry(format!(
                "size {size_bytes} is not a multiple of block size {block_size}"
            )));
        }
        // COW chunks group small blocks to ~4 KiB so snapshot sharing is
        // tracked at a sensible granularity without per-block Arc overhead.
        let chunk_size = block_size * (4096 / block_size).max(1);
        Ok(RamDisk {
            block_size,
            data: CowImage::new(size_bytes as usize, chunk_size, 0),
            reads: 0,
            writes: 0,
        })
    }

    /// Number of block reads served since creation.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of block writes served since creation.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl BlockDevice for RamDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        (self.data.len() / self.block_size) as u64
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> DeviceResult<()> {
        check_io(block, buf.len(), self.block_size, self.num_blocks())?;
        self.data.read(block as usize * self.block_size, buf);
        self.reads += 1;
        Ok(())
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> DeviceResult<()> {
        check_io(block, buf.len(), self.block_size, self.num_blocks())?;
        self.data.write(block as usize * self.block_size, buf);
        self.writes += 1;
        Ok(())
    }

    fn snapshot(&mut self) -> DeviceResult<DeviceSnapshot> {
        // O(1): the snapshot shares the live disk's whole chunk table.
        Ok(DeviceSnapshot {
            block_size: self.block_size,
            image: self.data.clone(),
        })
    }

    fn restore(&mut self, snapshot: &DeviceSnapshot) -> DeviceResult<()> {
        if snapshot.block_size != self.block_size || snapshot.image.len() != self.data.len() {
            return Err(DeviceError::SnapshotMismatch);
        }
        self.data.copy_from(&snapshot.image);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation() {
        assert!(RamDisk::new(0, 1024).is_err());
        assert!(RamDisk::new(512, 0).is_err());
        assert!(RamDisk::new(512, 1000).is_err());
        assert!(RamDisk::new(512, 1024).is_ok());
    }

    #[test]
    fn read_write_roundtrip() {
        let mut d = RamDisk::new(4, 16).unwrap();
        d.write_block(2, &[9, 8, 7, 6]).unwrap();
        let mut buf = [0u8; 4];
        d.read_block(2, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7, 6]);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn out_of_range_and_bad_len() {
        let mut d = RamDisk::new(4, 16).unwrap();
        assert!(d.write_block(4, &[0; 4]).is_err());
        let mut small = [0u8; 2];
        assert!(d.read_block(0, &mut small).is_err());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut d = RamDisk::new(4, 16).unwrap();
        d.write_block(1, &[1, 2, 3, 4]).unwrap();
        let snap = d.snapshot().unwrap();
        assert_eq!(snap.size_bytes(), 16);
        d.write_block(1, &[0xff; 4]).unwrap();
        d.restore(&snap).unwrap();
        let mut buf = [0u8; 4];
        d.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let mut a = RamDisk::new(4, 16).unwrap();
        let mut b = RamDisk::new(8, 16).unwrap();
        let snap = b.snapshot().unwrap();
        assert_eq!(a.restore(&snap), Err(DeviceError::SnapshotMismatch));
    }
}

//! MTD flash device simulation (mtdram) and its block-interface adapter
//! (mtdblock).
//!
//! JFFS2 requires an MTD character device rather than a regular block device
//! (paper §4). MTD flash has *erase blocks*: bytes can be written only after
//! the containing erase block has been erased (set to `0xFF`), and programming
//! can only clear bits (1 → 0). The paper loads `mtdram` to create a virtual
//! MTD in RAM and `mtdblock` to give SPIN a block interface for mmapping.
//! [`MtdDevice`] and [`MtdBlock`] are those two modules.

use std::cell::Cell;
use std::sync::Arc;

use crate::cow::CowImage;
use crate::device::{BlockDevice, DeviceError, DeviceResult, DeviceSnapshot};
use crate::faulty::{Fault, FaultKind, FaultPhase, FaultPlan};

/// Errors specific to raw MTD access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtdError {
    /// Read or write beyond the end of the device.
    OutOfRange,
    /// A program operation tried to set a 0 bit back to 1 without an erase.
    ProgramWithoutErase {
        /// Byte offset of the violation.
        offset: u64,
    },
    /// Erase offset/length not aligned to the erase-block size.
    UnalignedErase,
    /// Invalid construction geometry.
    BadGeometry(String),
    /// An injected I/O failure (see [`MtdDevice::set_fault_plan`]).
    Io(String),
}

impl std::fmt::Display for MtdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtdError::OutOfRange => write!(f, "mtd access out of range"),
            MtdError::ProgramWithoutErase { offset } => {
                write!(f, "programming non-erased flash at offset {offset}")
            }
            MtdError::UnalignedErase => write!(f, "erase not aligned to erase-block boundary"),
            MtdError::BadGeometry(msg) => write!(f, "bad mtd geometry: {msg}"),
            MtdError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for MtdError {}

/// A simulated MTD (flash) character device with erase-block semantics.
///
/// # Examples
///
/// ```
/// use blockdev::MtdDevice;
///
/// # fn main() -> Result<(), blockdev::MtdError> {
/// let mut mtd = MtdDevice::new(4096, 16)?; // 16 erase blocks of 4 KiB
/// mtd.erase(0, 4096)?;
/// mtd.program(0, b"jffs2 node")?;
/// let mut buf = [0u8; 10];
/// mtd.read(0, &mut buf)?;
/// assert_eq!(&buf, b"jffs2 node");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MtdDevice {
    erase_block_size: usize,
    data: CowImage,
    erase_counts: Vec<u64>,
    /// Scripted fault plan, if any. Counters are `Cell`s because `read` takes
    /// `&self` (JFFS2 reads through a shared reference).
    plan: Option<FaultPlan>,
    /// Every in-range read issued, faulted or not; never reset.
    reads: Cell<u64>,
    reads_seen: Cell<u64>,
    programs_seen: Cell<u64>,
    erases_seen: Cell<u64>,
    injected: Cell<u64>,
    /// The phase the mounted file system is currently in (set by fsck); a
    /// `Cell` because `read` takes `&self`.
    phase: Cell<FaultPhase>,
}

impl MtdDevice {
    /// Creates an MTD device with `num_erase_blocks` erase blocks of
    /// `erase_block_size` bytes each, initially erased (all `0xFF`).
    ///
    /// # Errors
    ///
    /// [`MtdError::BadGeometry`] if either dimension is zero.
    pub fn new(erase_block_size: usize, num_erase_blocks: usize) -> Result<Self, MtdError> {
        if erase_block_size == 0 || num_erase_blocks == 0 {
            return Err(MtdError::BadGeometry(
                "erase block size and count must be nonzero".into(),
            ));
        }
        Ok(MtdDevice {
            erase_block_size,
            // One COW chunk per erase block: erases and mtdblock's
            // read-modify-erase writes each touch exactly one chunk.
            data: CowImage::new(erase_block_size * num_erase_blocks, erase_block_size, 0xFF),
            erase_counts: vec![0; num_erase_blocks],
            plan: None,
            reads: Cell::new(0),
            reads_seen: Cell::new(0),
            programs_seen: Cell::new(0),
            erases_seen: Cell::new(0),
            injected: Cell::new(0),
            phase: Cell::new(FaultPhase::Normal),
        })
    }

    /// Installs (or clears) a scripted [`FaultPlan`]: `EIO` on the Nth
    /// read/program/erase, or torn programs when the plan carries
    /// `torn_bytes`. The `volatile_cache` flag is ignored — MTD programming
    /// is synchronous. Counters restart from zero.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
        self.reads_seen.set(0);
        self.programs_seen.set(0);
        self.erases_seen.set(0);
        self.injected.set(0);
    }

    /// Number of in-range reads issued since creation, including reads an
    /// injected fault failed.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.get()
    }

    /// Declares which phase subsequent operations belong to (see
    /// [`FaultPhase`]). Repair code brackets its flash I/O with
    /// `Repair`/`Normal` so phase-filtered plans count only repair traffic.
    /// Takes `&self` (interior mutability) because reads do too.
    pub fn set_phase(&self, phase: FaultPhase) {
        self.phase.set(phase);
    }

    /// The phase subsequent operations are attributed to.
    pub fn phase(&self) -> FaultPhase {
        self.phase.get()
    }

    fn next_fault(&self, op: FaultKind, seen: &Cell<u64>, addr: u64) -> Option<Fault> {
        let plan = self.plan?;
        if !plan.covers(addr) || !plan.phase_matches(self.phase.get()) {
            return None;
        }
        let n = seen.get();
        seen.set(n + 1);
        let fault = plan.decide(op, n, self.injected.get());
        if fault.is_some() {
            self.injected.set(self.injected.get() + 1);
        }
        fault
    }

    /// Size of one erase block in bytes.
    pub fn erase_block_size(&self) -> usize {
        self.erase_block_size
    }

    /// Number of erase blocks.
    pub fn num_erase_blocks(&self) -> usize {
        self.erase_counts.len()
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// How many times erase block `index` has been erased (wear tracking).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn erase_count(&self, index: usize) -> u64 {
        self.erase_counts[index]
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// [`MtdError::OutOfRange`] if the range extends past the device.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), MtdError> {
        let end = offset
            .checked_add(buf.len() as u64)
            .ok_or(MtdError::OutOfRange)?;
        if end > self.size_bytes() {
            return Err(MtdError::OutOfRange);
        }
        self.reads.set(self.reads.get() + 1);
        if self
            .next_fault(FaultKind::Read, &self.reads_seen, offset)
            .is_some()
        {
            return Err(MtdError::Io(format!(
                "injected read fault at offset {offset}"
            )));
        }
        self.data.read(offset as usize, buf);
        Ok(())
    }

    /// Reads erase block `index` whole, without copying it: the same range
    /// check, read count and fault decision as [`read`](Self::read) of that
    /// block, but the result shares the device's copy-on-write chunk. Holding
    /// it pins those bytes: a later program or erase of the block copies the
    /// chunk first, so two results are [`Arc::ptr_eq`] only if the block was
    /// not rewritten in between.
    ///
    /// # Errors
    ///
    /// [`MtdError::OutOfRange`] if `index` is not an erase block of this
    /// device; [`MtdError::Io`] for an injected read fault.
    pub fn read_erase_block(&self, index: usize) -> Result<Arc<Vec<u8>>, MtdError> {
        if index >= self.num_erase_blocks() {
            return Err(MtdError::OutOfRange);
        }
        let offset = (index * self.erase_block_size) as u64;
        self.reads.set(self.reads.get() + 1);
        if self
            .next_fault(FaultKind::Read, &self.reads_seen, offset)
            .is_some()
        {
            return Err(MtdError::Io(format!(
                "injected read fault at offset {offset}"
            )));
        }
        Ok(Arc::clone(self.data.chunk(index)))
    }

    /// Programs (writes) `data` at `offset`.
    ///
    /// # Errors
    ///
    /// [`MtdError::OutOfRange`] for accesses past the device end, and
    /// [`MtdError::ProgramWithoutErase`] if a bit would need to flip from 0
    /// to 1 (flash can only clear bits).
    pub fn program(&mut self, offset: u64, data: &[u8]) -> Result<(), MtdError> {
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(MtdError::OutOfRange)?;
        if end > self.size_bytes() {
            return Err(MtdError::OutOfRange);
        }
        let mut old = vec![0u8; data.len()];
        self.data.read(offset as usize, &mut old);
        for (i, (old, new)) in old.iter().zip(data).enumerate() {
            // Programming can only clear bits: new must not have a 1
            // where old has a 0.
            if *new & !*old != 0 {
                return Err(MtdError::ProgramWithoutErase {
                    offset: offset + i as u64,
                });
            }
        }
        match self.next_fault(FaultKind::Write, &self.programs_seen, offset) {
            Some(Fault::Eio) => {
                return Err(MtdError::Io(format!(
                    "injected program fault at offset {offset}"
                )));
            }
            Some(Fault::Torn(k)) => {
                // The program op is acked but power is lost mid-way: only the
                // first `k` bytes actually reach the flash.
                let k = k.min(data.len());
                self.data.write(offset as usize, &data[..k]);
                return Ok(());
            }
            None => {}
        }
        self.data.write(offset as usize, data);
        Ok(())
    }

    /// Erases the erase blocks covering `[offset, offset + len)` back to
    /// `0xFF`, incrementing their wear counters.
    ///
    /// # Errors
    ///
    /// [`MtdError::UnalignedErase`] if the range is not erase-block aligned;
    /// [`MtdError::OutOfRange`] if it extends past the device.
    pub fn erase(&mut self, offset: u64, len: u64) -> Result<(), MtdError> {
        let ebs = self.erase_block_size as u64;
        if !offset.is_multiple_of(ebs) || !len.is_multiple_of(ebs) || len == 0 {
            return Err(MtdError::UnalignedErase);
        }
        let end = offset.checked_add(len).ok_or(MtdError::OutOfRange)?;
        if end > self.size_bytes() {
            return Err(MtdError::OutOfRange);
        }
        if self
            .next_fault(FaultKind::Erase, &self.erases_seen, offset)
            .is_some()
        {
            return Err(MtdError::Io(format!(
                "injected erase fault at offset {offset}"
            )));
        }
        self.data.fill_range(offset as usize, len as usize, 0xFF);
        for eb in (offset / ebs)..(end / ebs) {
            self.erase_counts[eb as usize] += 1;
        }
        Ok(())
    }

    /// Captures the full flash image (including wear counters). The image is
    /// copy-on-write: the snapshot shares every erase block with the live
    /// device until one side rewrites it.
    pub fn snapshot(&self) -> MtdSnapshot {
        MtdSnapshot {
            data: self.data.clone(),
            erase_counts: self.erase_counts.clone(),
        }
    }

    /// Restores a previously captured flash image.
    ///
    /// # Errors
    ///
    /// [`MtdError::BadGeometry`] if the snapshot has a different size.
    pub fn restore(&mut self, snap: &MtdSnapshot) -> Result<(), MtdError> {
        if snap.data.len() != self.data.len() {
            return Err(MtdError::BadGeometry("snapshot size mismatch".into()));
        }
        self.data.copy_from(&snap.data);
        self.erase_counts.copy_from_slice(&snap.erase_counts);
        Ok(())
    }
}

/// A captured MTD image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtdSnapshot {
    data: CowImage,
    erase_counts: Vec<u64>,
}

impl MtdSnapshot {
    /// Size of the image in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }
}

/// Maps an [`MtdError`] into the block-layer error space, keeping injected
/// I/O faults recognizable as such.
fn map_mtd(e: MtdError) -> DeviceError {
    match e {
        MtdError::Io(msg) => DeviceError::Io(msg),
        other => DeviceError::Mtd(other.to_string()),
    }
}

/// Block-interface adapter over an [`MtdDevice`] — the `mtdblock` analogue.
///
/// The paper loads `mtdblock` so SPIN can mmap JFFS2's MTD storage through a
/// block device. Writes go through read-modify-erase of the containing erase
/// block, exactly like the real driver (which is why mtdblock is slow and
/// wears flash).
#[derive(Debug, Clone)]
pub struct MtdBlock {
    mtd: MtdDevice,
    block_size: usize,
}

impl MtdBlock {
    /// Wraps `mtd`, exposing `block_size`-byte logical blocks.
    ///
    /// # Errors
    ///
    /// [`DeviceError::BadGeometry`] if the erase-block size is not a multiple
    /// of `block_size`.
    pub fn new(mtd: MtdDevice, block_size: usize) -> DeviceResult<Self> {
        if block_size == 0 || !mtd.erase_block_size().is_multiple_of(block_size) {
            return Err(DeviceError::BadGeometry(format!(
                "erase block size {} not a multiple of logical block size {block_size}",
                mtd.erase_block_size()
            )));
        }
        Ok(MtdBlock { mtd, block_size })
    }

    /// Shared access to the underlying MTD device.
    pub fn mtd(&self) -> &MtdDevice {
        &self.mtd
    }

    /// Mutable access to the underlying MTD device (e.g. for raw JFFS2 I/O).
    pub fn mtd_mut(&mut self) -> &mut MtdDevice {
        &mut self.mtd
    }
}

impl BlockDevice for MtdBlock {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.mtd.size_bytes() / self.block_size as u64
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> DeviceResult<()> {
        crate::device::check_io(block, buf.len(), self.block_size, self.num_blocks())?;
        self.mtd
            .read(block * self.block_size as u64, buf)
            .map_err(map_mtd)
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> DeviceResult<()> {
        crate::device::check_io(block, buf.len(), self.block_size, self.num_blocks())?;
        // Read-modify-erase the containing erase block, as mtdblock does.
        let ebs = self.mtd.erase_block_size();
        let byte_off = block * self.block_size as u64;
        let eb_start = byte_off - (byte_off % ebs as u64);
        let mut whole = vec![0u8; ebs];
        self.mtd.read(eb_start, &mut whole).map_err(map_mtd)?;
        let within = (byte_off - eb_start) as usize;
        whole[within..within + self.block_size].copy_from_slice(buf);
        self.mtd.erase(eb_start, ebs as u64).map_err(map_mtd)?;
        self.mtd.program(eb_start, &whole).map_err(map_mtd)
    }

    fn snapshot(&mut self) -> DeviceResult<DeviceSnapshot> {
        Ok(DeviceSnapshot {
            block_size: self.block_size,
            image: self.mtd.data.clone(),
        })
    }

    fn restore(&mut self, snapshot: &DeviceSnapshot) -> DeviceResult<()> {
        if snapshot.block_size != self.block_size || snapshot.image.len() != self.mtd.data.len() {
            return Err(DeviceError::SnapshotMismatch);
        }
        // Block-layer restore adopts the image only; wear counters belong to
        // the physical flash, not the block view.
        self.mtd.data.copy_from(&snapshot.image);
        Ok(())
    }

    fn set_fault_phase(&mut self, phase: FaultPhase) {
        self.mtd.set_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_device_is_erased() {
        let mtd = MtdDevice::new(64, 4).unwrap();
        let mut buf = [0u8; 8];
        mtd.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 8]);
    }

    #[test]
    fn program_clears_bits_only() {
        let mut mtd = MtdDevice::new(64, 4).unwrap();
        mtd.program(0, &[0x0F]).unwrap();
        // Clearing more bits is fine.
        mtd.program(0, &[0x0E]).unwrap();
        // Setting a cleared bit requires erase.
        let err = mtd.program(0, &[0x1F]).unwrap_err();
        assert!(matches!(err, MtdError::ProgramWithoutErase { offset: 0 }));
        mtd.erase(0, 64).unwrap();
        mtd.program(0, &[0x1F]).unwrap();
    }

    #[test]
    fn erase_block_reads_share_until_rewritten() {
        let mut mtd = MtdDevice::new(64, 4).unwrap();
        mtd.program(70, b"abc").unwrap();
        let held = mtd.read_erase_block(1).unwrap();
        let mut copy = vec![0u8; 64];
        mtd.read(64, &mut copy).unwrap();
        assert_eq!(*held, copy);
        assert!(Arc::ptr_eq(&held, &mtd.read_erase_block(1).unwrap()));
        assert_eq!(mtd.reads(), 3);
        // Rewriting the block copies the held chunk instead of mutating it.
        mtd.program(80, b"d").unwrap();
        assert_eq!(*held, copy, "held bytes never change");
        assert!(!Arc::ptr_eq(&held, &mtd.read_erase_block(1).unwrap()));
        mtd.erase(64, 64).unwrap();
        assert_eq!(*mtd.read_erase_block(1).unwrap(), vec![0xFF; 64]);
        assert_eq!(mtd.read_erase_block(4), Err(MtdError::OutOfRange));
        assert_eq!(mtd.reads(), 5, "out-of-range reads are not counted");
        // The same fault decision as `read` of the block.
        mtd.set_fault_plan(Some(FaultPlan::eio(FaultKind::Read, 1, 1)));
        mtd.read_erase_block(0).unwrap();
        assert!(matches!(mtd.read_erase_block(0), Err(MtdError::Io(_))));
        assert_eq!(mtd.faults_injected(), 1);
    }

    #[test]
    fn erase_alignment_enforced() {
        let mut mtd = MtdDevice::new(64, 4).unwrap();
        assert_eq!(mtd.erase(1, 64), Err(MtdError::UnalignedErase));
        assert_eq!(mtd.erase(0, 65), Err(MtdError::UnalignedErase));
        assert_eq!(mtd.erase(0, 0), Err(MtdError::UnalignedErase));
        assert_eq!(mtd.erase(256, 64), Err(MtdError::OutOfRange));
    }

    #[test]
    fn erase_counts_track_wear() {
        let mut mtd = MtdDevice::new(64, 4).unwrap();
        mtd.erase(0, 128).unwrap();
        mtd.erase(0, 64).unwrap();
        assert_eq!(mtd.erase_count(0), 2);
        assert_eq!(mtd.erase_count(1), 1);
        assert_eq!(mtd.erase_count(2), 0);
    }

    #[test]
    fn out_of_range_read_and_program() {
        let mut mtd = MtdDevice::new(64, 2).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(mtd.read(126, &mut buf), Err(MtdError::OutOfRange));
        assert_eq!(mtd.program(126, &buf), Err(MtdError::OutOfRange));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut mtd = MtdDevice::new(64, 2).unwrap();
        mtd.program(5, b"abc").unwrap();
        let snap = mtd.snapshot();
        mtd.erase(0, 64).unwrap();
        mtd.restore(&snap).unwrap();
        let mut buf = [0u8; 3];
        mtd.read(5, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(mtd.erase_count(0), 0, "wear counters restored too");
    }

    #[test]
    fn mtdblock_overwrites_via_erase_cycle() {
        let mtd = MtdDevice::new(256, 4).unwrap();
        let mut blk = MtdBlock::new(mtd, 64).unwrap();
        assert_eq!(blk.num_blocks(), 16);
        blk.write_block(0, &[1u8; 64]).unwrap();
        blk.write_block(0, &[2u8; 64]).unwrap(); // overwrite works
        let mut buf = [0u8; 64];
        blk.read_block(0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        // Two writes to the same erase block: two erase cycles.
        assert_eq!(blk.mtd().erase_count(0), 2);
    }

    #[test]
    fn mtdblock_preserves_neighbors_within_erase_block() {
        let mtd = MtdDevice::new(256, 4).unwrap();
        let mut blk = MtdBlock::new(mtd, 64).unwrap();
        blk.write_block(1, &[7u8; 64]).unwrap();
        blk.write_block(2, &[9u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        blk.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64], "write to block 2 must not clobber block 1");
    }

    #[test]
    fn mtdblock_snapshot_roundtrip() {
        let mtd = MtdDevice::new(256, 4).unwrap();
        let mut blk = MtdBlock::new(mtd, 64).unwrap();
        blk.write_block(3, &[5u8; 64]).unwrap();
        let snap = blk.snapshot().unwrap();
        blk.write_block(3, &[6u8; 64]).unwrap();
        blk.restore(&snap).unwrap();
        let mut buf = [0u8; 64];
        blk.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn fault_plan_scripts_eio_and_torn_programs() {
        let mut mtd = MtdDevice::new(64, 4).unwrap();
        mtd.set_fault_plan(Some(FaultPlan::eio(FaultKind::Both, 0, 2)));
        let mut buf = [0u8; 4];
        assert!(matches!(mtd.read(0, &mut buf), Err(MtdError::Io(_))));
        assert!(matches!(mtd.erase(0, 64), Err(MtdError::Io(_))));
        assert_eq!(mtd.faults_injected(), 2);
        mtd.read(0, &mut buf).unwrap(); // healed

        // Torn program: acked, but only the first 2 bytes reach the flash.
        mtd.set_fault_plan(Some(
            FaultPlan::eio(FaultKind::Write, 0, 1).with_torn_bytes(2),
        ));
        mtd.program(0, &[0x11, 0x22, 0x33, 0x44]).unwrap();
        mtd.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0x11, 0x22, 0xFF, 0xFF]);
        mtd.set_fault_plan(None);
        mtd.program(0, &[0x11, 0x22, 0x33, 0x44]).unwrap();
    }

    #[test]
    fn repair_phase_plan_skips_normal_programs() {
        let mut mtd = MtdDevice::new(64, 4).unwrap();
        mtd.set_fault_plan(Some(FaultPlan::eio(FaultKind::Write, 1, 1).during_repair()));
        // Normal-phase programs never count.
        mtd.program(0, &[0x0F]).unwrap();
        mtd.program(1, &[0x0F]).unwrap();
        mtd.set_phase(FaultPhase::Repair);
        mtd.program(2, &[0x0F]).unwrap(); // repair program #0: skipped
        assert!(matches!(mtd.program(3, &[0x0F]), Err(MtdError::Io(_))));
        assert_eq!(mtd.faults_injected(), 1);
        mtd.set_phase(FaultPhase::Normal);
        mtd.program(3, &[0x0F]).unwrap();
    }

    #[test]
    fn mtdblock_geometry_validation() {
        let mtd = MtdDevice::new(100, 2).unwrap();
        assert!(MtdBlock::new(mtd, 64).is_err());
    }
}

//! The ext4-style write-ahead journal.
//!
//! Metadata updates are first written to the journal area (a header listing
//! home locations, the block images, then a commit record), flushed, then
//! checkpointed to their home locations, after which the header is cleared.
//! Mount replays any committed-but-not-checkpointed transaction, giving the
//! ext4 variant crash consistency — and the extra per-sync I/O that makes it
//! measurably slower than ext2 in the benchmarks.

use blockdev::BlockDevice;
use vfs::{Errno, VfsResult, WordSum};

use crate::layout::SuperBlock;

const JRN_MAGIC: u32 = 0x4A52_4E31; // "JRN1"
const COMMIT_MAGIC: u32 = 0x434D_5431; // "CMT1"

/// Word-wise checksum ([`WordSum`]) over each journaled block's home
/// location and image, stored in the commit record. A commit is only valid
/// if the images it covers landed intact: without this, a torn image write
/// followed by the (separately written, intact) commit block replays
/// garbage into the home location. A change confined to one 8-byte word of
/// one image, or to one home, always changes the checksum.
fn txn_checksum<B: AsRef<[u8]>>(blocks: &[(u32, B)]) -> u64 {
    blocks
        .iter()
        .fold(WordSum::new(), |sum, (home, image)| {
            sum.word(u64::from(*home)).bytes(image.as_ref())
        })
        .finish()
}

fn io<T>(r: Result<T, blockdev::DeviceError>) -> VfsResult<T> {
    r.map_err(|_| Errno::EIO)
}

fn read_block<D: BlockDevice>(dev: &mut D, blk: u32) -> VfsResult<Vec<u8>> {
    let mut buf = vec![0u8; dev.block_size()];
    io(dev.read_block(blk as u64, &mut buf))?;
    Ok(buf)
}

fn write_block<D: BlockDevice>(dev: &mut D, blk: u32, data: &[u8]) -> VfsResult<()> {
    io(dev.write_block(blk as u64, data))
}

/// Home-location slots one segment header can list.
fn header_slots(sb: &SuperBlock) -> usize {
    (sb.block_size as usize).saturating_sub(12) / 4
}

/// Maximum blocks one transaction can carry.
///
/// A transaction is a chain of segments (one header block listing up to
/// `header_slots` home locations, followed by that many images) ending in
/// a single commit block, all of which must fit in the journal area.
pub fn txn_capacity(sb: &SuperBlock) -> usize {
    let slots = header_slots(sb);
    if slots == 0 {
        return 0;
    }
    // One block is reserved for the commit record; the rest packs full
    // segments of (1 header + `slots` images), plus one partial segment.
    let area = (sb.journal_blocks as usize).saturating_sub(1);
    let full = area / (slots + 1);
    full * slots + (area % (slots + 1)).saturating_sub(1)
}

/// Journal blocks a transaction of `n` images occupies (headers + images +
/// the commit block).
fn txn_extent(sb: &SuperBlock, n: usize) -> usize {
    n + n.div_ceil(header_slots(sb).max(1)) + 1
}

/// Writes the journal records and the commit block for one transaction
/// (everything needed to survive a crash), without checkpointing.
///
/// Transactions larger than one header can describe are laid out as a chain
/// of consecutive segments; the single commit block at the end of the chain
/// covers the whole transaction, so a crash anywhere before it leaves the
/// transaction unreplayable as a unit — never partially.
///
/// Each image is a home location's full block, owned or borrowed: a
/// mounted file system passes slices of its buffer cache.
///
/// # Errors
///
/// `EINVAL` if the transaction exceeds [`txn_capacity`]; `EIO` on device
/// failure.
pub fn write_txn<D: BlockDevice, B: AsRef<[u8]>>(
    dev: &mut D,
    sb: &SuperBlock,
    txn_id: u32,
    blocks: &[(u32, B)],
) -> VfsResult<()> {
    let bs = sb.block_size as usize;
    let slots = header_slots(sb);
    if slots == 0 || txn_extent(sb, blocks.len()) > sb.journal_blocks as usize {
        return Err(Errno::EINVAL);
    }
    let mut pos = sb.journal_start();
    for chunk in blocks.chunks(slots) {
        // Segment header: magic, txn, count, home list.
        let mut header = vec![0u8; bs];
        header[0..4].copy_from_slice(&JRN_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&txn_id.to_le_bytes());
        header[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        for (i, (home, _)) in chunk.iter().enumerate() {
            header[12 + i * 4..16 + i * 4].copy_from_slice(&home.to_le_bytes());
        }
        write_block(dev, pos, &header)?;
        for (i, (_, image)) in chunk.iter().enumerate() {
            write_block(dev, pos + 1 + i as u32, image.as_ref())?;
        }
        pos += 1 + chunk.len() as u32;
    }
    let mut commit = vec![0u8; bs];
    commit[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    commit[4..8].copy_from_slice(&txn_id.to_le_bytes());
    commit[8..16].copy_from_slice(&txn_checksum(blocks).to_le_bytes());
    write_block(dev, pos, &commit)?;
    io(dev.flush())
}

/// Checkpoints a transaction's blocks to their home locations.
///
/// # Errors
///
/// `EIO` on device failure.
pub fn apply_home<D: BlockDevice, B: AsRef<[u8]>>(
    dev: &mut D,
    blocks: &[(u32, B)],
) -> VfsResult<()> {
    for (home, image) in blocks {
        write_block(dev, *home, image.as_ref())?;
    }
    io(dev.flush())
}

/// Clears the journal header so the transaction will not be replayed.
///
/// # Errors
///
/// `EIO` on device failure.
pub fn clear_header<D: BlockDevice>(dev: &mut D, sb: &SuperBlock) -> VfsResult<()> {
    let zero = vec![0u8; sb.block_size as usize];
    write_block(dev, sb.journal_start(), &zero)?;
    io(dev.flush())
}

/// Full commit: journal, checkpoint, clear — one atomic transaction.
///
/// The entire block set is journaled (as a segment chain, if it exceeds one
/// header) and flushed *before* any home location is touched, so a crash at
/// any point leaves the transaction either fully replayable or fully absent.
/// The earlier per-chunk variant applied each journal round to the home
/// locations before journaling the next, which a crash between rounds could
/// tear into a half-applied sync.
///
/// # Errors
///
/// `EINVAL` if the transaction exceeds [`txn_capacity`] (the caller must
/// split it along a consistency boundary itself — silently chunking here
/// would forfeit atomicity); `EIO` on device failure.
pub fn commit<D: BlockDevice, B: AsRef<[u8]>>(
    dev: &mut D,
    sb: &SuperBlock,
    txn_id: u32,
    blocks: &[(u32, B)],
) -> VfsResult<()> {
    write_txn(dev, sb, txn_id, blocks)?;
    apply_home(dev, blocks)?;
    clear_header(dev, sb)
}

/// Replays a committed-but-unchecked transaction at mount time.
///
/// Returns the number of blocks replayed (0 if the journal is clean or the
/// transaction never committed).
///
/// # Errors
///
/// `EIO` on device failure.
pub fn replay<D: BlockDevice>(dev: &mut D, sb: &SuperBlock) -> VfsResult<u32> {
    if sb.journal_blocks < 3 {
        return Ok(0);
    }
    let slots = header_slots(sb);
    let jstart = sb.journal_start();
    let jend = jstart + sb.journal_blocks;
    let word = |b: &[u8], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    let first = read_block(dev, jstart)?;
    if word(&first, 0) != JRN_MAGIC {
        return Ok(0);
    }
    let txn = word(&first, 4);
    // Walk the segment chain, collecting (home, image) pairs, until the
    // commit block. Any structural damage — a stale or zeroed header where
    // a continuation was expected, a count that overruns the journal area —
    // means the chain never fully committed: discard it whole (the pre-txn
    // home blocks are intact, since nothing is checkpointed before commit).
    let mut blocks: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut pos = jstart;
    let commit = loop {
        let seg = if pos == jstart {
            first.clone()
        } else {
            read_block(dev, pos)?
        };
        if word(&seg, 0) == COMMIT_MAGIC {
            break seg;
        }
        let count = word(&seg, 8) as usize;
        if word(&seg, 0) != JRN_MAGIC
            || word(&seg, 4) != txn
            || count == 0
            || count > slots
            || pos + 1 + count as u32 >= jend
        {
            clear_header(dev, sb)?;
            return Ok(0);
        }
        for i in 0..count {
            let home = word(&seg, 12 + i * 4);
            let image = read_block(dev, pos + 1 + i as u32)?;
            blocks.push((home, image));
        }
        pos += 1 + count as u32;
    };
    // Verify the commit record covers this exact chain BEFORE touching any
    // home block: a torn journal image with an intact commit record must be
    // discarded whole, never half-applied.
    let stored = u64::from_le_bytes(commit[8..16].try_into().expect("8 bytes"));
    if word(&commit, 4) != txn || stored != txn_checksum(&blocks) {
        clear_header(dev, sb)?;
        return Ok(0);
    }
    apply_home(dev, &blocks)?;
    clear_header(dev, sb)?;
    Ok(blocks.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EXT_MAGIC;
    use blockdev::RamDisk;

    fn setup() -> (RamDisk, SuperBlock) {
        let dev = RamDisk::new(256, 64 * 256).unwrap();
        let sb = SuperBlock {
            magic: EXT_MAGIC,
            block_size: 256,
            blocks_count: 64,
            inodes_count: 16,
            free_blocks: 10,
            free_inodes: 10,
            journal_blocks: 8,
            flags: 0,
            mount_count: 0,
        };
        (dev, sb)
    }

    #[test]
    fn commit_writes_home_blocks() {
        let (mut dev, sb) = setup();
        let target = sb.data_start();
        let image = vec![0xABu8; 256];
        commit(&mut dev, &sb, 1, &[(target, image.clone())]).unwrap();
        assert_eq!(read_block(&mut dev, target).unwrap(), image);
        // Journal header cleared afterwards.
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
    }

    #[test]
    fn replay_recovers_committed_txn() {
        let (mut dev, sb) = setup();
        let target = sb.data_start() + 1;
        let image = vec![0x77u8; 256];
        // Crash after commit record but before checkpoint:
        write_txn(&mut dev, &sb, 9, &[(target, image.clone())]).unwrap();
        assert_ne!(read_block(&mut dev, target).unwrap(), image);
        assert_eq!(replay(&mut dev, &sb).unwrap(), 1);
        assert_eq!(read_block(&mut dev, target).unwrap(), image);
        // Second replay is a no-op.
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
    }

    #[test]
    fn uncommitted_txn_is_discarded() {
        let (mut dev, sb) = setup();
        let target = sb.data_start() + 2;
        // Write header + images but no commit record (crash mid-journal):
        // emulate by writing a txn then stomping the commit block.
        write_txn(&mut dev, &sb, 5, &[(target, vec![1u8; 256])]).unwrap();
        let zero = vec![0u8; 256];
        dev.write_block((sb.journal_start() + 2) as u64, &zero)
            .unwrap();
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
        assert_eq!(read_block(&mut dev, target).unwrap(), zero);
    }

    #[test]
    fn torn_journal_image_with_intact_commit_is_discarded() {
        let (mut dev, sb) = setup();
        let target = sb.data_start() + 3;
        let before = read_block(&mut dev, target).unwrap();
        let image = vec![0x55u8; 256];
        write_txn(&mut dev, &sb, 7, &[(target, image)]).unwrap();
        // Tear the journaled image (the commit record stays intact): only
        // the first 16 bytes of the image block survived the power cut.
        let mut torn = read_block(&mut dev, sb.journal_start() + 1).unwrap();
        for b in torn.iter_mut().skip(16) {
            *b = 0xEE;
        }
        dev.write_block((sb.journal_start() + 1) as u64, &torn)
            .unwrap();
        // The checksum must reject the transaction whole; the home block
        // keeps its pre-txn content.
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
        assert_eq!(read_block(&mut dev, target).unwrap(), before);
        // And the journal is clean afterwards (no replay loop).
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
    }

    #[test]
    fn oversized_txn_is_refused_not_torn() {
        let (mut dev, sb) = setup();
        let cap = txn_capacity(&sb);
        assert_eq!(cap, 6);
        // 10 blocks cannot fit even as a chain (10 images + 1 header + 1
        // commit > 8 journal blocks). Refuse up front: chunking into
        // separately-applied rounds would let a crash tear the transaction.
        let blocks: Vec<(u32, Vec<u8>)> = (0..10)
            .map(|i| (sb.data_start() + i, vec![i as u8 + 1; 256]))
            .collect();
        let before: Vec<Vec<u8>> = blocks
            .iter()
            .map(|(home, _)| read_block(&mut dev, *home).unwrap())
            .collect();
        assert_eq!(commit(&mut dev, &sb, 1, &blocks), Err(Errno::EINVAL));
        assert_eq!(write_txn(&mut dev, &sb, 2, &blocks), Err(Errno::EINVAL));
        // Nothing reached the home locations and the journal stayed clean.
        for ((home, _), old) in blocks.iter().zip(&before) {
            assert_eq!(&read_block(&mut dev, *home).unwrap(), old);
        }
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
    }

    /// A superblock whose journal needs multiple segments for ~20 blocks:
    /// 64-byte blocks give 13 header slots, so 20 images chain into two
    /// segments (20 + 2 headers + 1 commit = 23 of 40 journal blocks).
    fn chained_setup() -> (RamDisk, SuperBlock) {
        let dev = RamDisk::new(64, 128 * 64).unwrap();
        let sb = SuperBlock {
            magic: EXT_MAGIC,
            block_size: 64,
            blocks_count: 128,
            inodes_count: 16,
            free_blocks: 10,
            free_inodes: 10,
            journal_blocks: 40,
            flags: 0,
            mount_count: 0,
        };
        (dev, sb)
    }

    fn chained_blocks(sb: &SuperBlock) -> Vec<(u32, Vec<u8>)> {
        (0..20)
            .map(|i| (sb.data_start() + i, vec![i as u8 + 1; 64]))
            .collect()
    }

    #[test]
    fn chained_txn_commits_and_replays_whole() {
        let (mut dev, sb) = chained_setup();
        let blocks = chained_blocks(&sb);
        assert!(blocks.len() > header_slots(&sb));
        assert!(blocks.len() <= txn_capacity(&sb));

        commit(&mut dev, &sb, 3, &blocks).unwrap();
        for (home, image) in &blocks {
            assert_eq!(&read_block(&mut dev, *home).unwrap(), image);
        }
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);

        // Crash after the commit record but before any checkpoint: replay
        // must recover every block of the multi-segment chain.
        let (mut dev, sb) = chained_setup();
        write_txn(&mut dev, &sb, 4, &blocks).unwrap();
        assert_eq!(replay(&mut dev, &sb).unwrap(), blocks.len() as u32);
        for (home, image) in &blocks {
            assert_eq!(&read_block(&mut dev, *home).unwrap(), image);
        }
    }

    /// The regression for the torn multi-round commit: fail the device at
    /// every possible write boundary inside `commit`, then replay, and
    /// demand the home blocks are all-old or all-new. The old `commit`
    /// checkpointed each journal round before writing the next, so a fault
    /// between rounds left the first round applied and the rest lost.
    #[test]
    fn interrupted_commit_is_all_or_nothing() {
        use blockdev::{FaultKind, FaultPlan, FaultyDevice};

        for boundary in 0u64.. {
            let (mut ram, sb) = chained_setup();
            let blocks = chained_blocks(&sb);
            let old: Vec<Vec<u8>> = blocks
                .iter()
                .map(|(home, _)| read_block(&mut ram, *home).unwrap())
                .collect();
            let mut dev =
                FaultyDevice::new(ram, FaultPlan::eio(FaultKind::Write, boundary, u64::MAX));
            let result = commit(&mut dev, &sb, 7, &blocks);
            let faulted = dev.injected() > 0;
            assert_eq!(result.is_err(), faulted, "boundary {boundary}");

            // Power back on: the device works again and the fs replays.
            dev.set_plan(FaultPlan::none());
            replay(&mut dev, &sb).unwrap();

            let new_count = blocks
                .iter()
                .zip(&old)
                .filter(|((home, image), old_img)| {
                    let now = read_block(&mut dev, *home).unwrap();
                    assert!(
                        now == **image || now == **old_img,
                        "boundary {boundary}: home {home} is neither old nor new"
                    );
                    now == **image && now != **old_img
                })
                .count();
            assert!(
                new_count == 0 || new_count == blocks.len(),
                "boundary {boundary}: commit torn — {new_count} of {} homes updated",
                blocks.len()
            );
            if !faulted {
                // The fault never fired: every boundary has been scanned.
                assert!(new_count == blocks.len());
                break;
            }
        }
    }

    #[test]
    fn no_journal_area_means_no_replay() {
        let (mut dev, mut sb) = setup();
        sb.journal_blocks = 0;
        assert_eq!(replay(&mut dev, &sb).unwrap(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Changing any one byte of any journaled image, or of any home
        /// location, always changes the commit record's checksum.
        #[test]
        fn any_byte_change_changes_the_checksum(
            homes in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..5),
            fill in proptest::prelude::any::<u64>(),
            pick in proptest::prelude::any::<usize>(),
            in_home in proptest::prelude::any::<bool>(),
            at in proptest::prelude::any::<usize>(),
            flip in 1u8..=255,
        ) {
            let blocks: Vec<(u32, Vec<u8>)> = homes
                .iter()
                .enumerate()
                .map(|(i, &home)| {
                    let image = (0..1024u64)
                        .map(|j| (fill.wrapping_mul(j + i as u64 + 1) >> 29) as u8)
                        .collect();
                    (home, image)
                })
                .collect();
            let mut changed = blocks.clone();
            let (home, image) = &mut changed[pick % blocks.len()];
            if in_home {
                *home ^= u32::from(flip) << (8 * (at % 4));
            } else {
                image[at % 1024] ^= flip;
            }
            proptest::prop_assert_ne!(txn_checksum(&blocks), txn_checksum(&changed));
        }
    }
}

//! On-disk layout: superblock, disk inodes, bitmaps.
//!
//! The disk is laid out ext2-style:
//!
//! ```text
//! block 0              superblock
//! block 1              inode bitmap
//! block 2              block bitmap
//! blocks 3..3+T        inode table   (T = ceil(inodes * 128 / block_size))
//! blocks ..+J          journal area  (J = 0 for ext2)
//! remaining            data blocks
//! ```
//!
//! All integers are little-endian.

use vfs::{Errno, VfsResult};

/// Superblock magic ("EXT-sim 2021").
pub const EXT_MAGIC: u32 = 0xEF53_2021;

/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 128;

/// Direct block pointers per inode.
pub const NDIRECT: usize = 12;

/// On-disk file-type tags.
pub const FT_FREE: u8 = 0;
/// Regular file tag.
pub const FT_REG: u8 = 1;
/// Directory tag.
pub const FT_DIR: u8 = 2;
/// Symlink tag.
pub const FT_SYMLINK: u8 = 3;

/// Superblock flag: file system was not cleanly unmounted.
pub const SB_FLAG_DIRTY: u32 = 1;
/// Superblock flag: a `lost+found` directory exists (ext4 variant).
pub const SB_FLAG_LOST_FOUND: u32 = 2;

/// The superblock, stored in block 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    /// Magic number ([`EXT_MAGIC`]).
    pub magic: u32,
    /// Block size in bytes.
    pub block_size: u32,
    /// Total blocks on the device.
    pub blocks_count: u32,
    /// Total inodes (slot 0 reserved; root is inode 1).
    pub inodes_count: u32,
    /// Free data blocks.
    pub free_blocks: u32,
    /// Free inodes.
    pub free_inodes: u32,
    /// Journal area length in blocks (0 = no journal, i.e. ext2).
    pub journal_blocks: u32,
    /// [`SB_FLAG_DIRTY`] / [`SB_FLAG_LOST_FOUND`].
    pub flags: u32,
    /// Times this file system has been mounted.
    pub mount_count: u32,
}

impl SuperBlock {
    /// Blocks occupied by the inode table.
    pub fn inode_table_blocks(&self) -> u32 {
        ((self.inodes_count as usize * INODE_SIZE).div_ceil(self.block_size as usize)) as u32
    }

    /// First block of the inode table.
    pub fn inode_table_start(&self) -> u32 {
        3
    }

    /// First block of the journal area.
    pub fn journal_start(&self) -> u32 {
        self.inode_table_start() + self.inode_table_blocks()
    }

    /// First data block.
    pub fn data_start(&self) -> u32 {
        self.journal_start() + self.journal_blocks
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> u32 {
        self.blocks_count.saturating_sub(self.data_start())
    }

    /// Serializes into the first bytes of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 36 bytes.
    pub fn encode(&self, buf: &mut [u8]) {
        let fields = [
            self.magic,
            self.block_size,
            self.blocks_count,
            self.inodes_count,
            self.free_blocks,
            self.free_inodes,
            self.journal_blocks,
            self.flags,
            self.mount_count,
        ];
        for (i, f) in fields.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&f.to_le_bytes());
        }
    }

    /// Deserializes from the first bytes of `buf`.
    ///
    /// # Errors
    ///
    /// `EIO` if the magic number or geometry is invalid — an unformatted or
    /// corrupted device.
    pub fn decode(buf: &[u8]) -> VfsResult<Self> {
        if buf.len() < 36 {
            return Err(Errno::EIO);
        }
        let word = |i: usize| {
            u32::from_le_bytes([buf[i * 4], buf[i * 4 + 1], buf[i * 4 + 2], buf[i * 4 + 3]])
        };
        let sb = SuperBlock {
            magic: word(0),
            block_size: word(1),
            blocks_count: word(2),
            inodes_count: word(3),
            free_blocks: word(4),
            free_inodes: word(5),
            journal_blocks: word(6),
            flags: word(7),
            mount_count: word(8),
        };
        if sb.magic != EXT_MAGIC || sb.block_size == 0 || sb.blocks_count == 0 {
            return Err(Errno::EIO);
        }
        if sb.data_start() >= sb.blocks_count {
            return Err(Errno::EIO);
        }
        Ok(sb)
    }
}

/// An on-disk inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskInode {
    /// [`FT_REG`] / [`FT_DIR`] / [`FT_SYMLINK`] ([`FT_FREE`] = unallocated).
    pub ftype: u8,
    /// Permission bits.
    pub mode: u16,
    /// Hard-link count.
    pub nlink: u16,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Logical size in bytes (directories: content bytes, reported rounded
    /// up to a block multiple, as ext does).
    pub size: u64,
    /// Access time.
    pub atime: u64,
    /// Modification time.
    pub mtime: u64,
    /// Change time.
    pub ctime: u64,
    /// Allocated data blocks (excluding metadata blocks).
    pub blocks: u32,
    /// Direct block pointers (0 = hole).
    pub direct: [u32; NDIRECT],
    /// Single-indirect block pointer.
    pub indirect: u32,
    /// Double-indirect block pointer.
    pub dindirect: u32,
    /// Extended-attribute block pointer (0 = none).
    pub xattr_block: u32,
}

impl DiskInode {
    /// A zeroed (free) inode.
    pub fn free() -> Self {
        DiskInode {
            ftype: FT_FREE,
            mode: 0,
            nlink: 0,
            uid: 0,
            gid: 0,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            blocks: 0,
            direct: [0; NDIRECT],
            indirect: 0,
            dindirect: 0,
            xattr_block: 0,
        }
    }

    /// Whether the slot is allocated.
    pub fn in_use(&self) -> bool {
        self.ftype != FT_FREE
    }

    /// Serializes into exactly [`INODE_SIZE`] bytes of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`INODE_SIZE`].
    pub fn encode(&self, buf: &mut [u8]) {
        assert!(buf.len() >= INODE_SIZE);
        buf[..INODE_SIZE].fill(0);
        buf[0] = self.ftype;
        buf[2..4].copy_from_slice(&self.mode.to_le_bytes());
        buf[4..6].copy_from_slice(&self.nlink.to_le_bytes());
        buf[8..12].copy_from_slice(&self.uid.to_le_bytes());
        buf[12..16].copy_from_slice(&self.gid.to_le_bytes());
        buf[16..24].copy_from_slice(&self.size.to_le_bytes());
        buf[24..32].copy_from_slice(&self.atime.to_le_bytes());
        buf[32..40].copy_from_slice(&self.mtime.to_le_bytes());
        buf[40..48].copy_from_slice(&self.ctime.to_le_bytes());
        buf[48..52].copy_from_slice(&self.blocks.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            buf[52 + i * 4..56 + i * 4].copy_from_slice(&d.to_le_bytes());
        }
        buf[100..104].copy_from_slice(&self.indirect.to_le_bytes());
        buf[104..108].copy_from_slice(&self.dindirect.to_le_bytes());
        buf[108..112].copy_from_slice(&self.xattr_block.to_le_bytes());
    }

    /// Deserializes from [`INODE_SIZE`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`INODE_SIZE`].
    pub fn decode(buf: &[u8]) -> Self {
        assert!(buf.len() >= INODE_SIZE);
        let u16_at = |i: usize| u16::from_le_bytes([buf[i], buf[i + 1]]);
        let u32_at = |i: usize| u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        let u64_at = |i: usize| {
            u64::from_le_bytes([
                buf[i],
                buf[i + 1],
                buf[i + 2],
                buf[i + 3],
                buf[i + 4],
                buf[i + 5],
                buf[i + 6],
                buf[i + 7],
            ])
        };
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32_at(52 + i * 4);
        }
        DiskInode {
            ftype: buf[0],
            mode: u16_at(2),
            nlink: u16_at(4),
            uid: u32_at(8),
            gid: u32_at(12),
            size: u64_at(16),
            atime: u64_at(24),
            mtime: u64_at(32),
            ctime: u64_at(40),
            blocks: u32_at(48),
            direct,
            indirect: u32_at(100),
            dindirect: u32_at(104),
            xattr_block: u32_at(108),
        }
    }
}

/// Bitmap helpers over a raw byte slice.
pub mod bitmap {
    /// Reads bit `i`.
    pub fn get(bits: &[u8], i: u32) -> bool {
        bits[i as usize / 8] & (1 << (i % 8)) != 0
    }

    /// Sets bit `i`.
    pub fn set(bits: &mut [u8], i: u32) {
        bits[i as usize / 8] |= 1 << (i % 8);
    }

    /// Clears bit `i`.
    pub fn clear(bits: &mut [u8], i: u32) {
        bits[i as usize / 8] &= !(1 << (i % 8));
    }

    /// The bytes holding bits `[from, to)`, each with the mask of its bits
    /// inside the range (partial only at an unaligned `from` or `to`).
    fn spans(from: u32, to: u32) -> impl Iterator<Item = (usize, u8)> {
        let (from, to) = (u64::from(from), u64::from(to));
        let bytes = if from < to {
            from / 8..to.div_ceil(8)
        } else {
            0..0
        };
        bytes.map(move |byte| {
            let lo = from.saturating_sub(byte * 8);
            let hi = (to - byte * 8).min(8);
            (byte as usize, (0xFFu8 << lo) & (0xFFu8 >> (8 - hi)))
        })
    }

    /// Finds the first zero bit in `[from, to)`, a byte at a time: full
    /// bytes are skipped whole.
    pub fn find_zero(bits: &[u8], from: u32, to: u32) -> Option<u32> {
        spans(from, to).find_map(|(byte, mask)| {
            let free = !bits[byte] & mask;
            (free != 0).then(|| byte as u32 * 8 + free.trailing_zeros())
        })
    }

    /// Counts set bits in `[from, to)`, a byte at a time.
    pub fn count_ones(bits: &[u8], from: u32, to: u32) -> u32 {
        spans(from, to)
            .map(|(byte, mask)| (bits[byte] & mask).count_ones())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The byte-wise bitmap scans agree with their bit-at-a-time
        /// definitions over random bitmaps (full bytes included) and
        /// unaligned, empty and inverted ranges.
        #[test]
        fn bitmap_scans_match_bitwise_definitions(
            bytes in prop::collection::vec((any::<u8>(), any::<bool>()), 0..24),
            a in 0u32..200,
            b in 0u32..200,
        ) {
            let bits: Vec<u8> = bytes.iter().map(|&(v, full)| if full { 0xFF } else { v }).collect();
            let len = bits.len() as u32 * 8;
            let (from, to) = (a.min(len), b.min(len));
            prop_assert_eq!(
                bitmap::count_ones(&bits, from, to),
                (from..to).filter(|&i| bitmap::get(&bits, i)).count() as u32
            );
            prop_assert_eq!(
                bitmap::find_zero(&bits, from, to),
                (from..to).find(|&i| !bitmap::get(&bits, i))
            );
        }
    }

    fn sample_sb() -> SuperBlock {
        SuperBlock {
            magic: EXT_MAGIC,
            block_size: 1024,
            blocks_count: 256,
            inodes_count: 64,
            free_blocks: 200,
            free_inodes: 62,
            journal_blocks: 16,
            flags: SB_FLAG_LOST_FOUND,
            mount_count: 3,
        }
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = sample_sb();
        let mut buf = vec![0u8; 1024];
        sb.encode(&mut buf);
        assert_eq!(SuperBlock::decode(&buf).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_garbage() {
        let buf = vec![0u8; 1024];
        assert_eq!(SuperBlock::decode(&buf), Err(Errno::EIO));
        let mut buf = vec![0u8; 1024];
        let mut sb = sample_sb();
        sb.blocks_count = 4; // metadata alone exceeds the device
        sb.encode(&mut buf);
        assert_eq!(SuperBlock::decode(&buf), Err(Errno::EIO));
        assert_eq!(SuperBlock::decode(&[0u8; 8]), Err(Errno::EIO));
    }

    #[test]
    fn superblock_geometry() {
        let sb = sample_sb();
        // 64 inodes * 128 B = 8 KiB = 8 blocks at 1 KiB.
        assert_eq!(sb.inode_table_blocks(), 8);
        assert_eq!(sb.inode_table_start(), 3);
        assert_eq!(sb.journal_start(), 11);
        assert_eq!(sb.data_start(), 27);
        assert_eq!(sb.data_blocks(), 229);
    }

    #[test]
    fn disk_inode_roundtrip() {
        let mut ino = DiskInode::free();
        ino.ftype = FT_REG;
        ino.mode = 0o644;
        ino.nlink = 2;
        ino.uid = 5;
        ino.gid = 6;
        ino.size = 123_456;
        ino.atime = 1;
        ino.mtime = 2;
        ino.ctime = 3;
        ino.blocks = 13;
        ino.direct = [9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 11, 12];
        ino.indirect = 99;
        ino.dindirect = 100;
        ino.xattr_block = 101;
        let mut buf = [0u8; INODE_SIZE];
        ino.encode(&mut buf);
        assert_eq!(DiskInode::decode(&buf), ino);
        assert!(ino.in_use());
        assert!(!DiskInode::free().in_use());
    }

    #[test]
    fn bitmap_ops() {
        let mut bits = vec![0u8; 4];
        assert_eq!(bitmap::find_zero(&bits, 0, 32), Some(0));
        bitmap::set(&mut bits, 0);
        bitmap::set(&mut bits, 1);
        bitmap::set(&mut bits, 9);
        assert!(bitmap::get(&bits, 9));
        assert_eq!(bitmap::find_zero(&bits, 0, 32), Some(2));
        assert_eq!(bitmap::find_zero(&bits, 9, 10), None);
        assert_eq!(bitmap::count_ones(&bits, 0, 32), 3);
        bitmap::clear(&mut bits, 9);
        assert!(!bitmap::get(&bits, 9));
        assert_eq!(bitmap::count_ones(&bits, 0, 32), 2);
    }
}

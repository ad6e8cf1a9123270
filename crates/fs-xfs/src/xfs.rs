//! The XFS-style engine: allocation groups, extent-mapped files, and
//! hash-ordered directories.
//!
//! Differences from the ext engine that matter to MCFS (paper §3.4, §6):
//!
//! * **16 MiB minimum device size** — why the paper gives XFS a much larger
//!   RAM disk than ext2/ext4, which in turn blows up the checker's
//!   concrete-state footprint and drives the swap-bound slowdown of Fig. 2;
//! * **entry-based directory sizes** (ext reports block multiples);
//! * **no `lost+found`**;
//! * **different usable capacity** for the same device size (per-AG headers
//!   and inode tables).

use std::collections::{BTreeMap, HashMap, HashSet};

use blockdev::BlockDevice;
use vfs::{
    path, AccessMode, DeviceBacked, DirEntry, Errno, Fd, FdTable, FileMode, FileStat, FileSystem,
    FileType, FsCapabilities, Ino, OpenFlags, StatFs, VfsResult, XattrFlags,
};

const XFS_MAGIC: u32 = 0x5846_5331; // "XFS1"
const INODE_SIZE: usize = 128;
const INLINE_EXTENTS: usize = 5;
const SB_FLAG_DIRTY: u32 = 1;
const MAX_NLINK: u16 = 32_000;

/// Minimum device size, as in the paper's setup (§6).
pub const MIN_DEVICE_BYTES: u64 = 16 * 1024 * 1024;

const FT_FREE: u8 = 0;
const FT_REG: u8 = 1;
const FT_DIR: u8 = 2;
const FT_SYMLINK: u8 = 3;

/// Construction-time configuration.
#[derive(Debug, Clone)]
pub struct XfsConfig {
    /// Block size (must equal the device's).
    pub block_size: usize,
    /// Number of allocation groups.
    pub ag_count: u32,
    /// Inodes per allocation group (slot 0 of AG 0 is reserved; root is
    /// inode 1).
    pub inodes_per_ag: u32,
}

impl Default for XfsConfig {
    fn default() -> Self {
        XfsConfig {
            block_size: 4096,
            ag_count: 4,
            inodes_per_ag: 32,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SuperBlock {
    magic: u32,
    block_size: u32,
    blocks_count: u32,
    ag_count: u32,
    ag_blocks: u32,
    inodes_per_ag: u32,
    flags: u32,
    mount_count: u32,
}

impl SuperBlock {
    fn encode(&self, buf: &mut [u8]) {
        let fields = [
            self.magic,
            self.block_size,
            self.blocks_count,
            self.ag_count,
            self.ag_blocks,
            self.inodes_per_ag,
            self.flags,
            self.mount_count,
        ];
        for (i, f) in fields.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&f.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> VfsResult<Self> {
        let word = |i: usize| {
            u32::from_le_bytes([buf[i * 4], buf[i * 4 + 1], buf[i * 4 + 2], buf[i * 4 + 3]])
        };
        let sb = SuperBlock {
            magic: word(0),
            block_size: word(1),
            blocks_count: word(2),
            ag_count: word(3),
            ag_blocks: word(4),
            inodes_per_ag: word(5),
            flags: word(6),
            mount_count: word(7),
        };
        if sb.magic != XFS_MAGIC || sb.block_size == 0 || sb.ag_count == 0 || sb.ag_blocks == 0 {
            return Err(Errno::EIO);
        }
        Ok(sb)
    }

    fn inode_table_blocks(&self) -> u32 {
        ((self.inodes_per_ag as usize * INODE_SIZE).div_ceil(self.block_size as usize)) as u32
    }

    /// First data block of AG `ag` (after header + inode table).
    fn ag_data_start(&self, ag: u32) -> u32 {
        ag * self.ag_blocks + 1 + self.inode_table_blocks()
    }

    fn ag_end(&self, ag: u32) -> u32 {
        ((ag + 1) * self.ag_blocks).min(self.blocks_count)
    }

    fn total_inodes(&self) -> u32 {
        self.ag_count * self.inodes_per_ag
    }

    fn total_data_blocks(&self) -> u32 {
        (0..self.ag_count)
            .map(|ag| self.ag_end(ag).saturating_sub(self.ag_data_start(ag)))
            .sum()
    }
}

/// One contiguous run of device blocks backing consecutive file blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    /// First device block.
    start: u32,
    /// Length in blocks.
    len: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct XInode {
    ftype: u8,
    mode: u16,
    nlink: u16,
    uid: u32,
    gid: u32,
    size: u64,
    atime: u64,
    mtime: u64,
    ctime: u64,
    /// Data extents, in file order (dense: consecutive file blocks).
    extents: Vec<Extent>,
    /// Overflow block holding extents past [`INLINE_EXTENTS`] (0 = none).
    overflow: u32,
    /// Extended-attribute block (0 = none).
    xattr_block: u32,
}

impl XInode {
    fn free() -> Self {
        XInode {
            ftype: FT_FREE,
            mode: 0,
            nlink: 0,
            uid: 0,
            gid: 0,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            extents: Vec::new(),
            overflow: 0,
            xattr_block: 0,
        }
    }

    fn nblocks(&self) -> u32 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Encodes the fixed part + inline extents. Overflow extents are written
    /// separately by the engine.
    fn encode(&self, buf: &mut [u8]) {
        buf[..INODE_SIZE].fill(0);
        buf[0] = self.ftype;
        buf[1] = self.extents.len().min(255) as u8;
        buf[2..4].copy_from_slice(&self.mode.to_le_bytes());
        buf[4..6].copy_from_slice(&self.nlink.to_le_bytes());
        buf[8..12].copy_from_slice(&self.uid.to_le_bytes());
        buf[12..16].copy_from_slice(&self.gid.to_le_bytes());
        buf[16..24].copy_from_slice(&self.size.to_le_bytes());
        buf[24..32].copy_from_slice(&self.atime.to_le_bytes());
        buf[32..40].copy_from_slice(&self.mtime.to_le_bytes());
        buf[40..48].copy_from_slice(&self.ctime.to_le_bytes());
        buf[48..52].copy_from_slice(&self.overflow.to_le_bytes());
        buf[52..56].copy_from_slice(&self.xattr_block.to_le_bytes());
        for (i, e) in self.extents.iter().take(INLINE_EXTENTS).enumerate() {
            let off = 56 + i * 8;
            buf[off..off + 4].copy_from_slice(&e.start.to_le_bytes());
            buf[off + 4..off + 8].copy_from_slice(&e.len.to_le_bytes());
        }
    }

    /// Decodes the fixed part; `extents` holds only the inline ones and the
    /// engine appends the overflow extents afterwards.
    fn decode(buf: &[u8]) -> (Self, u8) {
        let u16_at = |i: usize| u16::from_le_bytes([buf[i], buf[i + 1]]);
        let u32_at = |i: usize| u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i..i + 8]);
            u64::from_le_bytes(b)
        };
        let total_extents = buf[1];
        let mut inode = XInode {
            ftype: buf[0],
            mode: u16_at(2),
            nlink: u16_at(4),
            uid: u32_at(8),
            gid: u32_at(12),
            size: u64_at(16),
            atime: u64_at(24),
            mtime: u64_at(32),
            ctime: u64_at(40),
            extents: Vec::new(),
            overflow: u32_at(48),
            xattr_block: u32_at(52),
        };
        for i in 0..(total_extents as usize).min(INLINE_EXTENTS) {
            let off = 56 + i * 8;
            inode.extents.push(Extent {
                start: u32_at(off),
                len: u32_at(off + 4),
            });
        }
        (inode, total_extents)
    }
}

#[derive(Debug, Clone)]
struct BufBlock {
    data: Vec<u8>,
    dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    ino: u32,
    offset: u64,
    read: bool,
    write: bool,
    append: bool,
}

#[derive(Debug, Clone)]
struct Mounted {
    sb: SuperBlock,
    /// Per-AG sorted free-extent lists.
    free: Vec<Vec<Extent>>,
    /// Per-AG inode bitmaps (bit set = in use).
    ibitmaps: Vec<Vec<u8>>,
    meta_dirty: bool,
    icache: HashMap<u32, XInode>,
    idirty: HashSet<u32>,
    bufs: HashMap<u32, BufBlock>,
    fds: FdTable<OpenFile>,
    time: u64,
}

/// An XFS-style file system on a block device.
#[derive(Debug, Clone)]
pub struct XfsFs<D> {
    dev: D,
    config: XfsConfig,
    m: Option<Mounted>,
}

fn io<T>(r: Result<T, blockdev::DeviceError>) -> VfsResult<T> {
    r.map_err(|_| Errno::EIO)
}

/// FNV-1a hash of a directory-entry name: XFS returns readdir entries in
/// hash order, not insertion or name order.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl<D: BlockDevice> XfsFs<D> {
    /// Formats `dev` (mkfs.xfs) and returns the unmounted file system.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the device is smaller than [`MIN_DEVICE_BYTES`], has a
    /// mismatched block size, or cannot hold the AG layout.
    pub fn format(mut dev: D, config: XfsConfig) -> VfsResult<Self> {
        let bs = config.block_size;
        if dev.block_size() != bs || dev.size_bytes() < MIN_DEVICE_BYTES {
            return Err(Errno::EINVAL);
        }
        let blocks_count = dev.num_blocks() as u32;
        let ag_blocks = blocks_count.div_ceil(config.ag_count);
        let sb = SuperBlock {
            magic: XFS_MAGIC,
            block_size: bs as u32,
            blocks_count,
            ag_count: config.ag_count,
            ag_blocks,
            inodes_per_ag: config.inodes_per_ag,
            flags: 0,
            mount_count: 0,
        };
        if config.inodes_per_ag as usize > bs * 4 {
            return Err(Errno::EINVAL);
        }
        for ag in 0..sb.ag_count {
            if sb.ag_data_start(ag) >= sb.ag_end(ag) {
                return Err(Errno::EINVAL);
            }
        }
        // AG headers: inode bitmap + free list (one whole-AG free extent).
        for ag in 0..sb.ag_count {
            let mut header = vec![0u8; bs];
            let mut ibitmap = vec![0u8; config.inodes_per_ag.div_ceil(8) as usize];
            if ag == 0 {
                ibitmap[0] |= 0b11; // reserved slot 0 + root inode 1
            }
            let free = vec![Extent {
                start: sb.ag_data_start(ag),
                len: sb.ag_end(ag) - sb.ag_data_start(ag),
            }];
            encode_ag_header(&mut header, &ibitmap, &free);
            io(dev.write_block((ag * ag_blocks) as u64, &header))?;
            // Zeroed inode table.
            let zero = vec![0u8; bs];
            for b in 0..sb.inode_table_blocks() {
                io(dev.write_block((ag * ag_blocks + 1 + b) as u64, &zero))?;
            }
        }
        // Root inode.
        let mut root = XInode::free();
        root.ftype = FT_DIR;
        root.mode = FileMode::DIR_DEFAULT.bits();
        root.nlink = 2;
        let mut table_block = vec![0u8; bs];
        io(dev.read_block(1, &mut table_block))?;
        root.encode(&mut table_block[INODE_SIZE..2 * INODE_SIZE]);
        io(dev.write_block(1, &table_block))?;
        // Superblock lives in the first bytes of AG 0's header block — no:
        // keep it simple and overwrite block 0 with header+sb combined.
        // Instead, reserve the tail of the header block for the superblock.
        let mut header = vec![0u8; bs];
        io(dev.read_block(0, &mut header))?;
        sb.encode(&mut header[bs - 32..]);
        io(dev.write_block(0, &header))?;
        io(dev.flush())?;
        Ok(XfsFs {
            dev,
            config,
            m: None,
        })
    }

    /// Attaches to an already formatted device.
    pub fn open_device(dev: D, config: XfsConfig) -> Self {
        XfsFs {
            dev,
            config,
            m: None,
        }
    }

    /// Direct access to the backing device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    fn core(&mut self) -> VfsResult<Xcore<'_, D>> {
        match &mut self.m {
            Some(m) => Ok(Xcore {
                dev: &mut self.dev,
                m,
                bs: self.config.block_size,
            }),
            None => Err(Errno::ENODEV),
        }
    }
}

fn encode_ag_header(buf: &mut [u8], ibitmap: &[u8], free: &[Extent]) {
    buf.fill(0);
    buf[0..2].copy_from_slice(&(ibitmap.len() as u16).to_le_bytes());
    buf[2..2 + ibitmap.len()].copy_from_slice(ibitmap);
    let fstart = 2 + ibitmap.len();
    buf[fstart..fstart + 2].copy_from_slice(&(free.len() as u16).to_le_bytes());
    for (i, e) in free.iter().enumerate() {
        let off = fstart + 2 + i * 8;
        buf[off..off + 4].copy_from_slice(&e.start.to_le_bytes());
        buf[off + 4..off + 8].copy_from_slice(&e.len.to_le_bytes());
    }
}

fn decode_ag_header(buf: &[u8]) -> (Vec<u8>, Vec<Extent>) {
    let blen = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let ibitmap = buf[2..2 + blen].to_vec();
    let fstart = 2 + blen;
    let count = u16::from_le_bytes([buf[fstart], buf[fstart + 1]]) as usize;
    let mut free = Vec::with_capacity(count);
    for i in 0..count {
        let off = fstart + 2 + i * 8;
        let u32_at = |o: usize| u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]);
        free.push(Extent {
            start: u32_at(off),
            len: u32_at(off + 4),
        });
    }
    (ibitmap, free)
}

struct Xcore<'a, D> {
    dev: &'a mut D,
    m: &'a mut Mounted,
    bs: usize,
}

impl<D: BlockDevice> Xcore<'_, D> {
    fn now(&mut self) -> u64 {
        self.m.time += 1;
        self.m.time
    }

    fn load_buf(&mut self, blk: u32) -> VfsResult<()> {
        if !self.m.bufs.contains_key(&blk) {
            let mut data = vec![0u8; self.bs];
            io(self.dev.read_block(blk as u64, &mut data))?;
            self.m.bufs.insert(blk, BufBlock { data, dirty: false });
        }
        Ok(())
    }

    fn read_buf(&mut self, blk: u32) -> VfsResult<Vec<u8>> {
        self.load_buf(blk)?;
        Ok(self.m.bufs[&blk].data.clone())
    }

    fn with_buf<R>(&mut self, blk: u32, f: impl FnOnce(&mut Vec<u8>) -> R) -> VfsResult<R> {
        self.load_buf(blk)?;
        let buf = self.m.bufs.get_mut(&blk).expect("just loaded");
        let r = f(&mut buf.data);
        buf.dirty = true;
        Ok(r)
    }

    // ---- extent allocation ------------------------------------------------

    fn free_blocks_total(&self) -> u64 {
        self.m
            .free
            .iter()
            .flat_map(|l| l.iter())
            .map(|e| e.len as u64)
            .sum()
    }

    /// Allocates up to `want` contiguous blocks, preferring `pref_ag`.
    /// Returns the allocated extent (possibly shorter than `want`).
    fn alloc_extent(&mut self, pref_ag: u32, want: u32) -> VfsResult<Extent> {
        let ag_order: Vec<u32> = (0..self.m.sb.ag_count)
            .map(|i| (pref_ag + i) % self.m.sb.ag_count)
            .collect();
        // First pass: an extent that covers the whole request (best fit).
        for &ag in &ag_order {
            let list = &mut self.m.free[ag as usize];
            if let Some(idx) = list
                .iter()
                .enumerate()
                .filter(|(_, e)| e.len >= want)
                .min_by_key(|(_, e)| e.len)
                .map(|(i, _)| i)
            {
                let e = &mut list[idx];
                let alloc = Extent {
                    start: e.start,
                    len: want,
                };
                e.start += want;
                e.len -= want;
                if e.len == 0 {
                    list.remove(idx);
                }
                self.m.meta_dirty = true;
                self.zero_extent(alloc)?;
                return Ok(alloc);
            }
        }
        // Second pass: largest available run anywhere.
        let mut best: Option<(u32, usize)> = None;
        for &ag in &ag_order {
            for (i, e) in self.m.free[ag as usize].iter().enumerate() {
                if best
                    .map(|(bag, bi)| self.m.free[bag as usize][bi].len < e.len)
                    .unwrap_or(true)
                {
                    best = Some((ag, i));
                }
            }
        }
        let (ag, idx) = best.ok_or(Errno::ENOSPC)?;
        let alloc = self.m.free[ag as usize].remove(idx);
        self.m.meta_dirty = true;
        self.zero_extent(alloc)?;
        Ok(alloc)
    }

    fn zero_extent(&mut self, e: Extent) -> VfsResult<()> {
        for blk in e.start..e.start + e.len {
            self.m.bufs.insert(
                blk,
                BufBlock {
                    data: vec![0u8; self.bs],
                    dirty: true,
                },
            );
        }
        Ok(())
    }

    fn free_extent(&mut self, e: Extent) {
        if e.len == 0 {
            return;
        }
        let ag = (e.start / self.m.sb.ag_blocks).min(self.m.sb.ag_count - 1) as usize;
        let list = &mut self.m.free[ag];
        let pos = list.partition_point(|x| x.start < e.start);
        list.insert(pos, e);
        // Coalesce neighbours.
        let mut i = pos.saturating_sub(1);
        while i + 1 < list.len() {
            if list[i].start + list[i].len == list[i + 1].start {
                list[i].len += list[i + 1].len;
                list.remove(i + 1);
            } else {
                i += 1;
            }
        }
        for blk in e.start..e.start + e.len {
            self.m.bufs.remove(&blk);
        }
        self.m.meta_dirty = true;
    }

    fn alloc_one_block(&mut self, pref_ag: u32) -> VfsResult<u32> {
        Ok(self.alloc_extent(pref_ag, 1)?.start)
    }

    // ---- inodes -----------------------------------------------------------

    fn ag_of_ino(&self, ino: u32) -> u32 {
        ino / self.m.sb.inodes_per_ag
    }

    fn inode_table_pos(&self, ino: u32) -> (u32, usize) {
        let ag = self.ag_of_ino(ino);
        let idx = ino % self.m.sb.inodes_per_ag;
        let per_block = self.bs / INODE_SIZE;
        let blk = ag * self.m.sb.ag_blocks + 1 + idx / per_block as u32;
        let off = (idx as usize % per_block) * INODE_SIZE;
        (blk, off)
    }

    fn inode(&mut self, ino: u32) -> VfsResult<XInode> {
        if let Some(i) = self.m.icache.get(&ino) {
            return Ok(i.clone());
        }
        if ino == 0 || ino >= self.m.sb.total_inodes() {
            return Err(Errno::EIO);
        }
        let (blk, off) = self.inode_table_pos(ino);
        let data = self.read_buf(blk)?;
        let (mut inode, total) = XInode::decode(&data[off..off + INODE_SIZE]);
        if total as usize > INLINE_EXTENTS && inode.overflow != 0 {
            let ov = self.read_buf(inode.overflow)?;
            let extra = total as usize - INLINE_EXTENTS;
            for i in 0..extra {
                let o = 2 + i * 8;
                let u32_at =
                    |x: usize| u32::from_le_bytes([ov[x], ov[x + 1], ov[x + 2], ov[x + 3]]);
                inode.extents.push(Extent {
                    start: u32_at(o),
                    len: u32_at(o + 4),
                });
            }
        }
        self.m.icache.insert(ino, inode.clone());
        Ok(inode)
    }

    fn put_inode(&mut self, ino: u32, inode: XInode) {
        self.m.icache.insert(ino, inode);
        self.m.idirty.insert(ino);
    }

    fn max_extents(&self) -> usize {
        INLINE_EXTENTS + (self.bs - 2) / 8
    }

    fn alloc_inode(&mut self, inode: XInode, pref_ag: u32) -> VfsResult<u32> {
        for offset in 0..self.m.sb.ag_count {
            let ag = (pref_ag + offset) % self.m.sb.ag_count;
            let bitmap = &mut self.m.ibitmaps[ag as usize];
            for idx in 0..self.m.sb.inodes_per_ag {
                let byte = (idx / 8) as usize;
                let bit = 1u8 << (idx % 8);
                if bitmap[byte] & bit == 0 {
                    bitmap[byte] |= bit;
                    self.m.meta_dirty = true;
                    let ino = ag * self.m.sb.inodes_per_ag + idx;
                    self.m.icache.insert(ino, inode);
                    self.m.idirty.insert(ino);
                    return Ok(ino);
                }
            }
        }
        Err(Errno::ENOSPC)
    }

    fn free_inode(&mut self, ino: u32) {
        let ag = self.ag_of_ino(ino) as usize;
        let idx = ino % self.m.sb.inodes_per_ag;
        self.m.ibitmaps[ag][(idx / 8) as usize] &= !(1u8 << (idx % 8));
        self.m.meta_dirty = true;
        self.m.icache.insert(ino, XInode::free());
        self.m.idirty.insert(ino);
    }

    // ---- file content (dense extent mapping) -------------------------------

    /// Device block backing file block `fblk`, if allocated.
    fn map_block(inode: &XInode, fblk: u64) -> Option<u32> {
        let mut pos = 0u64;
        for e in &inode.extents {
            if fblk < pos + e.len as u64 {
                return Some(e.start + (fblk - pos) as u32);
            }
            pos += e.len as u64;
        }
        None
    }

    /// Grows `ino`'s extent list so it backs at least `blocks` file blocks.
    fn ensure_blocks(&mut self, ino: u32, blocks: u64) -> VfsResult<()> {
        let mut inode = self.inode(ino)?;
        let mut have = inode.nblocks() as u64;
        if have >= blocks {
            return Ok(());
        }
        if blocks - have > self.free_blocks_total() {
            return Err(Errno::ENOSPC);
        }
        let pref_ag = self.ag_of_ino(ino);
        while have < blocks {
            let want = (blocks - have).min(u32::MAX as u64) as u32;
            let e = self.alloc_extent(pref_ag, want)?;
            // Merge with the previous extent when contiguous.
            if let Some(last) = inode.extents.last_mut() {
                if last.start + last.len == e.start {
                    last.len += e.len;
                    have += e.len as u64;
                    continue;
                }
            }
            if inode.extents.len() >= self.max_extents() {
                self.free_extent(e);
                self.put_inode(ino, inode);
                return Err(Errno::EFBIG);
            }
            inode.extents.push(e);
            have += e.len as u64;
        }
        // Allocate the overflow block lazily.
        if inode.extents.len() > INLINE_EXTENTS && inode.overflow == 0 {
            inode.overflow = self.alloc_one_block(pref_ag)?;
        }
        self.put_inode(ino, inode);
        Ok(())
    }

    fn read_file(&mut self, ino: u32, offset: u64, out: &mut [u8]) -> VfsResult<usize> {
        let inode = self.inode(ino)?;
        if offset >= inode.size {
            return Ok(0);
        }
        // `lseek` accepts any u64 offset, so the end position can overflow.
        let end = offset
            .checked_add(out.len() as u64)
            .ok_or(Errno::EFBIG)?
            .min(inode.size);
        let mut pos = offset;
        while pos < end {
            let fblk = pos / self.bs as u64;
            let within = (pos % self.bs as u64) as usize;
            let chunk = ((self.bs - within) as u64).min(end - pos) as usize;
            let dst = (pos - offset) as usize;
            match Self::map_block(&inode, fblk) {
                Some(blk) => {
                    let data = self.read_buf(blk)?;
                    out[dst..dst + chunk].copy_from_slice(&data[within..within + chunk]);
                }
                None => out[dst..dst + chunk].fill(0),
            }
            pos += chunk as u64;
        }
        Ok((end - offset) as usize)
    }

    fn write_file(&mut self, ino: u32, offset: u64, data: &[u8]) -> VfsResult<()> {
        let end = offset.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
        // Dense allocation: everything up to the new end is backed.
        self.ensure_blocks(ino, end.div_ceil(self.bs as u64))?;
        let inode = self.inode(ino)?;
        let mut pos = offset;
        while pos < end {
            let fblk = pos / self.bs as u64;
            let within = (pos % self.bs as u64) as usize;
            let chunk = ((self.bs - within) as u64).min(end - pos) as usize;
            let src = (pos - offset) as usize;
            let blk = Self::map_block(&inode, fblk).ok_or(Errno::EIO)?;
            self.with_buf(blk, |b| {
                b[within..within + chunk].copy_from_slice(&data[src..src + chunk]);
            })?;
            pos += chunk as u64;
        }
        let mut inode = self.inode(ino)?;
        if end > inode.size {
            inode.size = end;
        }
        let now = self.now();
        inode.mtime = now;
        inode.ctime = now;
        self.put_inode(ino, inode);
        Ok(())
    }

    fn file_truncate(&mut self, ino: u32, new_size: u64) -> VfsResult<()> {
        let mut inode = self.inode(ino)?;
        let keep_blocks = new_size.div_ceil(self.bs as u64);
        if new_size < inode.size {
            // Free tail extents.
            let mut have = inode.nblocks() as u64;
            while have > keep_blocks {
                let last = inode.extents.last_mut().expect("blocks imply extents");
                let surplus = (have - keep_blocks).min(last.len as u64) as u32;
                let freed = Extent {
                    start: last.start + last.len - surplus,
                    len: surplus,
                };
                last.len -= surplus;
                have -= surplus as u64;
                if last.len == 0 {
                    inode.extents.pop();
                }
                self.free_extent(freed);
            }
            if inode.extents.len() <= INLINE_EXTENTS && inode.overflow != 0 {
                let ov = inode.overflow;
                inode.overflow = 0;
                self.free_extent(Extent { start: ov, len: 1 });
            }
            // Zero the kept tail so later extension shows zeros.
            if !new_size.is_multiple_of(self.bs as u64) {
                if let Some(blk) = Self::map_block(&inode, new_size / self.bs as u64) {
                    let from = (new_size % self.bs as u64) as usize;
                    self.with_buf(blk, |b| b[from..].fill(0))?;
                }
            }
        } else if new_size > inode.size {
            // Dense: back the extension with zeroed blocks now.
            self.put_inode(ino, inode.clone());
            self.ensure_blocks(ino, keep_blocks)?;
            inode = self.inode(ino)?;
        }
        inode.size = new_size;
        let now = self.now();
        inode.mtime = now;
        inode.ctime = now;
        self.put_inode(ino, inode);
        Ok(())
    }

    fn release_inode(&mut self, ino: u32) -> VfsResult<()> {
        self.file_truncate(ino, 0)?;
        let inode = self.inode(ino)?;
        if inode.xattr_block != 0 {
            self.free_extent(Extent {
                start: inode.xattr_block,
                len: 1,
            });
        }
        self.free_inode(ino);
        Ok(())
    }

    // ---- directories -------------------------------------------------------

    fn read_dir(&mut self, ino: u32) -> VfsResult<Vec<(u32, u8, String)>> {
        let inode = self.inode(ino)?;
        let mut content = vec![0u8; inode.size as usize];
        self.read_file(ino, 0, &mut content)?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < content.len() {
            if pos + 6 > content.len() {
                return Err(Errno::EIO);
            }
            let e_ino = u32::from_le_bytes([
                content[pos],
                content[pos + 1],
                content[pos + 2],
                content[pos + 3],
            ]);
            let ftype = content[pos + 4];
            let nlen = content[pos + 5] as usize;
            pos += 6;
            if pos + nlen > content.len() {
                return Err(Errno::EIO);
            }
            let name = std::str::from_utf8(&content[pos..pos + nlen])
                .map_err(|_| Errno::EIO)?
                .to_string();
            pos += nlen;
            out.push((e_ino, ftype, name));
        }
        Ok(out)
    }

    fn write_dir(&mut self, ino: u32, entries: &[(u32, u8, String)]) -> VfsResult<()> {
        let mut content = Vec::new();
        for (e_ino, ftype, name) in entries {
            content.extend_from_slice(&e_ino.to_le_bytes());
            content.push(*ftype);
            content.push(name.len() as u8);
            content.extend_from_slice(name.as_bytes());
        }
        self.file_truncate(ino, 0)?;
        if !content.is_empty() {
            self.write_file(ino, 0, &content)?;
        }
        let mut inode = self.inode(ino)?;
        inode.size = content.len() as u64;
        self.put_inode(ino, inode);
        Ok(())
    }

    fn lookup(&mut self, dir_ino: u32, name: &str) -> VfsResult<Option<u32>> {
        if self.inode(dir_ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        Ok(self
            .read_dir(dir_ino)?
            .into_iter()
            .find(|(_, _, n)| n == name)
            .map(|(i, _, _)| i))
    }

    fn resolve(&mut self, p: &str) -> VfsResult<u32> {
        path::validate(p)?;
        let mut cur = Ino::ROOT.0 as u32;
        for comp in path::components(p) {
            match self.inode(cur)?.ftype {
                FT_DIR => {}
                FT_SYMLINK => return Err(Errno::ELOOP),
                _ => return Err(Errno::ENOTDIR),
            }
            cur = self.lookup(cur, comp)?.ok_or(Errno::ENOENT)?;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&mut self, p: &'p str) -> VfsResult<(u32, &'p str)> {
        path::validate(p)?;
        let (parent, name) = path::split_parent(p)?;
        let parent_ino = self.resolve(&parent)?;
        if self.inode(parent_ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent_ino, name))
    }

    fn insert_entry(&mut self, dir: u32, name: &str, ino: u32, ftype: u8) -> VfsResult<()> {
        let mut entries = self.read_dir(dir)?;
        entries.push((ino, ftype, name.to_string()));
        self.write_dir(dir, &entries)?;
        let now = self.now();
        let mut d = self.inode(dir)?;
        d.mtime = now;
        d.ctime = now;
        self.put_inode(dir, d);
        Ok(())
    }

    fn remove_entry(&mut self, dir: u32, name: &str) -> VfsResult<u32> {
        let mut entries = self.read_dir(dir)?;
        let idx = entries
            .iter()
            .position(|(_, _, n)| n == name)
            .ok_or(Errno::ENOENT)?;
        let (ino, _, _) = entries.remove(idx);
        self.write_dir(dir, &entries)?;
        let now = self.now();
        let mut d = self.inode(dir)?;
        d.mtime = now;
        d.ctime = now;
        self.put_inode(dir, d);
        Ok(ino)
    }

    fn fd_refs(&self, ino: u32) -> usize {
        self.m.fds.iter().filter(|(_, of)| of.ino == ino).count()
    }

    fn maybe_release(&mut self, ino: u32) -> VfsResult<()> {
        if self.inode(ino)?.nlink == 0 && self.fd_refs(ino) == 0 {
            self.release_inode(ino)?;
        }
        Ok(())
    }

    fn new_inode(&mut self, ftype: u8, mode: FileMode) -> XInode {
        let now = self.now();
        let mut i = XInode::free();
        i.ftype = ftype;
        i.mode = mode.bits();
        i.nlink = 1;
        i.atime = now;
        i.mtime = now;
        i.ctime = now;
        i
    }

    // ---- xattrs -------------------------------------------------------------

    fn read_xattrs(&mut self, ino: u32) -> VfsResult<BTreeMap<String, Vec<u8>>> {
        let inode = self.inode(ino)?;
        if inode.xattr_block == 0 {
            return Ok(BTreeMap::new());
        }
        let data = self.read_buf(inode.xattr_block)?;
        let mut out = BTreeMap::new();
        let count = u16::from_le_bytes([data[0], data[1]]) as usize;
        let mut pos = 2;
        for _ in 0..count {
            let klen = data[pos] as usize;
            let vlen = u16::from_le_bytes([data[pos + 1], data[pos + 2]]) as usize;
            pos += 3;
            let key = std::str::from_utf8(&data[pos..pos + klen])
                .map_err(|_| Errno::EIO)?
                .to_string();
            pos += klen;
            out.insert(key, data[pos..pos + vlen].to_vec());
            pos += vlen;
        }
        Ok(out)
    }

    fn write_xattrs(&mut self, ino: u32, xattrs: &BTreeMap<String, Vec<u8>>) -> VfsResult<()> {
        let mut inode = self.inode(ino)?;
        if xattrs.is_empty() {
            if inode.xattr_block != 0 {
                self.free_extent(Extent {
                    start: inode.xattr_block,
                    len: 1,
                });
                inode.xattr_block = 0;
                self.put_inode(ino, inode);
            }
            return Ok(());
        }
        let mut blob = Vec::new();
        blob.extend_from_slice(&(xattrs.len() as u16).to_le_bytes());
        for (k, v) in xattrs {
            blob.push(k.len() as u8);
            blob.extend_from_slice(&(v.len() as u16).to_le_bytes());
            blob.extend_from_slice(k.as_bytes());
            blob.extend_from_slice(v);
        }
        if blob.len() > self.bs {
            return Err(Errno::ENOSPC);
        }
        if inode.xattr_block == 0 {
            inode.xattr_block = self.alloc_one_block(self.ag_of_ino(ino))?;
            self.put_inode(ino, inode.clone());
        }
        let blk = inode.xattr_block;
        self.with_buf(blk, |b| {
            b.fill(0);
            b[..blob.len()].copy_from_slice(&blob);
        })
    }
}

impl<D: BlockDevice> FileSystem for XfsFs<D> {
    fn fs_name(&self) -> &str {
        "xfs"
    }

    fn capabilities(&self) -> FsCapabilities {
        FsCapabilities {
            rename: true,
            hardlink: true,
            symlink: true,
            xattr: true,
            access: true,
            checkpoint: false,
        }
    }

    fn mount(&mut self) -> VfsResult<()> {
        if self.m.is_some() {
            return Err(Errno::EBUSY);
        }
        let bs = self.config.block_size;
        let mut header = vec![0u8; bs];
        io(self.dev.read_block(0, &mut header))?;
        let mut sb = SuperBlock::decode(&header[bs - 32..])?;
        if sb.block_size as usize != bs {
            return Err(Errno::EIO);
        }
        let mut ibitmaps = Vec::new();
        let mut free = Vec::new();
        for ag in 0..sb.ag_count {
            let mut h = vec![0u8; bs];
            io(self.dev.read_block((ag * sb.ag_blocks) as u64, &mut h))?;
            let (bm, fl) = decode_ag_header(&h);
            ibitmaps.push(bm);
            free.push(fl);
        }
        // Unclean mount: "log recovery" — a full scan rebuilding free lists
        // from the inode tables (simulating XFS log recovery cost).
        if sb.flags & SB_FLAG_DIRTY != 0 {
            // Trust the inode tables; rebuild free space from scratch.
            let mut used: Vec<Extent> = Vec::new();
            for ino in 1..sb.total_inodes() {
                let per_block = bs / INODE_SIZE;
                let ag = ino / sb.inodes_per_ag;
                let idx = ino % sb.inodes_per_ag;
                let blk = ag * sb.ag_blocks + 1 + idx / per_block as u32;
                let off = (idx as usize % per_block) * INODE_SIZE;
                let mut b = vec![0u8; bs];
                io(self.dev.read_block(blk as u64, &mut b))?;
                let (inode, total) = XInode::decode(&b[off..off + INODE_SIZE]);
                if !inode.in_use() {
                    continue;
                }
                used.extend(inode.extents.iter().copied());
                if inode.overflow != 0 {
                    used.push(Extent {
                        start: inode.overflow,
                        len: 1,
                    });
                    if total as usize > INLINE_EXTENTS {
                        let mut ov = vec![0u8; bs];
                        io(self.dev.read_block(inode.overflow as u64, &mut ov))?;
                        for i in 0..(total as usize - INLINE_EXTENTS) {
                            let o = 2 + i * 8;
                            let u32_at = |x: usize| {
                                u32::from_le_bytes([ov[x], ov[x + 1], ov[x + 2], ov[x + 3]])
                            };
                            used.push(Extent {
                                start: u32_at(o),
                                len: u32_at(o + 4),
                            });
                        }
                    }
                }
                if inode.xattr_block != 0 {
                    used.push(Extent {
                        start: inode.xattr_block,
                        len: 1,
                    });
                }
            }
            used.sort_by_key(|e| e.start);
            free.clear();
            for ag in 0..sb.ag_count {
                let mut list = Vec::new();
                let ag_start = sb.ag_data_start(ag);
                let mut cursor = ag_start;
                let end = sb.ag_end(ag);
                for e in used.iter().filter(|e| e.start >= ag_start && e.start < end) {
                    if e.start > cursor {
                        list.push(Extent {
                            start: cursor,
                            len: e.start - cursor,
                        });
                    }
                    cursor = cursor.max(e.start + e.len);
                }
                if cursor < end {
                    list.push(Extent {
                        start: cursor,
                        len: end - cursor,
                    });
                }
                free.push(list);
            }
        }
        sb.mount_count += 1;
        sb.flags |= SB_FLAG_DIRTY;
        sb.encode(&mut header[bs - 32..]);
        io(self.dev.write_block(0, &header))?;
        let time = (sb.mount_count as u64) << 32;
        self.m = Some(Mounted {
            sb,
            free,
            ibitmaps,
            meta_dirty: false,
            icache: HashMap::new(),
            idirty: HashSet::new(),
            bufs: HashMap::new(),
            fds: FdTable::default(),
            time,
        });
        Ok(())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.sync()?;
        let bs = self.config.block_size;
        let mut m = self.m.take().ok_or(Errno::ENODEV)?;
        m.sb.flags &= !SB_FLAG_DIRTY;
        let mut header = vec![0u8; bs];
        io(self.dev.read_block(0, &mut header))?;
        m.sb.encode(&mut header[bs - 32..]);
        io(self.dev.write_block(0, &header))?;
        io(self.dev.flush())?;
        Ok(())
    }

    fn is_mounted(&self) -> bool {
        self.m.is_some()
    }

    fn sync(&mut self) -> VfsResult<()> {
        let bs = self.config.block_size;
        let mut c = self.core()?;
        // Encode dirty inodes (and their overflow extent blocks). Inodes
        // leave the dirty set one by one as they are encoded, so an EIO
        // mid-loop keeps the rest queued for the next sync.
        let dirty: Vec<u32> = c.m.idirty.iter().copied().collect();
        for ino in dirty {
            let inode = c.inode(ino)?;
            let (blk, off) = c.inode_table_pos(ino);
            c.with_buf(blk, |b| inode.encode(&mut b[off..off + INODE_SIZE]))?;
            if inode.extents.len() > INLINE_EXTENTS {
                let extra: Vec<Extent> = inode.extents[INLINE_EXTENTS..].to_vec();
                let ov = inode.overflow;
                c.with_buf(ov, |b| {
                    b.fill(0);
                    b[0..2].copy_from_slice(&(extra.len() as u16).to_le_bytes());
                    for (i, e) in extra.iter().enumerate() {
                        let o = 2 + i * 8;
                        b[o..o + 4].copy_from_slice(&e.start.to_le_bytes());
                        b[o + 4..o + 8].copy_from_slice(&e.len.to_le_bytes());
                    }
                })?;
            }
            c.m.idirty.remove(&ino);
        }
        // Encode AG headers (keeping the superblock in block 0's tail).
        if c.m.meta_dirty {
            for ag in 0..c.m.sb.ag_count {
                let bm = c.m.ibitmaps[ag as usize].clone();
                let fl = c.m.free[ag as usize].clone();
                let sb = c.m.sb;
                let hblk = ag * c.m.sb.ag_blocks;
                c.with_buf(hblk, |b| {
                    encode_ag_header(b, &bm, &fl);
                    if ag == 0 {
                        sb.encode(&mut b[bs - 32..]);
                    }
                })?;
            }
            c.m.meta_dirty = false;
        }
        let mut blocks: Vec<u32> =
            c.m.bufs
                .iter()
                .filter(|(_, b)| b.dirty)
                .map(|(blk, _)| *blk)
                .collect();
        blocks.sort_unstable();
        for blk in blocks {
            let data = c.m.bufs[&blk].data.clone();
            io(c.dev.write_block(blk as u64, &data))?;
            c.m.bufs.get_mut(&blk).expect("present").dirty = false;
        }
        io(c.dev.flush())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let m = self.m.as_ref().ok_or(Errno::ENODEV)?;
        let free: u64 = m
            .free
            .iter()
            .flat_map(|l| l.iter())
            .map(|e| e.len as u64)
            .sum();
        let mut used_inodes = 0u64;
        for bm in &m.ibitmaps {
            for b in bm {
                used_inodes += b.count_ones() as u64;
            }
        }
        Ok(StatFs {
            block_size: m.sb.block_size,
            blocks: m.sb.total_data_blocks() as u64,
            blocks_free: free,
            blocks_avail: free,
            files: (m.sb.total_inodes() - 1) as u64,
            files_free: m.sb.total_inodes() as u64 - used_inodes,
            name_max: 255,
        })
    }

    fn create(&mut self, p: &str, mode: FileMode) -> VfsResult<Fd> {
        let mut c = self.core()?;
        let (parent, name) = c.resolve_parent(p)?;
        if c.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let inode = c.new_inode(FT_REG, mode);
        let ino = c.alloc_inode(inode, c.ag_of_ino(parent))?;
        if let Err(e) = c.insert_entry(parent, name, ino, FT_REG) {
            c.free_inode(ino);
            return Err(e);
        }
        c.m.fds.insert(OpenFile {
            ino,
            offset: 0,
            read: true,
            write: true,
            append: false,
        })
    }

    fn open(&mut self, p: &str, flags: OpenFlags, mode: FileMode) -> VfsResult<Fd> {
        let mut c = self.core()?;
        path::validate(p)?;
        let ino = match c.resolve(p) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(Errno::EEXIST);
                }
                ino
            }
            Err(Errno::ENOENT) if flags.create => {
                let (parent, name) = c.resolve_parent(p)?;
                let inode = c.new_inode(FT_REG, mode);
                let ino = c.alloc_inode(inode, c.ag_of_ino(parent))?;
                if let Err(e) = c.insert_entry(parent, name, ino, FT_REG) {
                    c.free_inode(ino);
                    return Err(e);
                }
                ino
            }
            Err(e) => return Err(e),
        };
        match c.inode(ino)?.ftype {
            FT_SYMLINK => return Err(Errno::ELOOP),
            FT_DIR if flags.write => return Err(Errno::EISDIR),
            _ => {}
        }
        if flags.trunc && flags.write {
            c.file_truncate(ino, 0)?;
        }
        c.m.fds.insert(OpenFile {
            ino,
            offset: 0,
            read: flags.read || !flags.write,
            write: flags.write,
            append: flags.append,
        })
    }

    fn close(&mut self, fd: Fd) -> VfsResult<()> {
        let mut c = self.core()?;
        let of = c.m.fds.remove(fd)?;
        if c.inode(of.ino)?.nlink == 0 {
            c.maybe_release(of.ino)?;
        }
        Ok(())
    }

    fn read(&mut self, fd: Fd, out: &mut [u8]) -> VfsResult<usize> {
        let mut c = self.core()?;
        let of = *c.m.fds.get(fd)?;
        if !of.read {
            return Err(Errno::EBADF);
        }
        if c.inode(of.ino)?.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        let n = c.read_file(of.ino, of.offset, out)?;
        let now = c.now();
        let mut inode = c.inode(of.ino)?;
        inode.atime = now;
        c.put_inode(of.ino, inode);
        c.m.fds.get_mut(fd)?.offset += n as u64;
        Ok(n)
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        let mut c = self.core()?;
        let of = *c.m.fds.get(fd)?;
        if !of.write {
            return Err(Errno::EBADF);
        }
        let inode = c.inode(of.ino)?;
        if inode.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        let offset = if of.append { inode.size } else { of.offset };
        c.write_file(of.ino, offset, data)?;
        c.m.fds.get_mut(fd)?.offset = offset + data.len() as u64;
        Ok(data.len())
    }

    fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64> {
        let c = self.core()?;
        c.m.fds.get_mut(fd)?.offset = offset;
        Ok(offset)
    }

    fn truncate(&mut self, p: &str, size: u64) -> VfsResult<()> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        match c.inode(ino)?.ftype {
            FT_DIR => return Err(Errno::EISDIR),
            FT_SYMLINK => return Err(Errno::EINVAL),
            _ => {}
        }
        c.file_truncate(ino, size)
    }

    fn mkdir(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let mut c = self.core()?;
        let (parent, name) = c.resolve_parent(p)?;
        if c.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let mut inode = c.new_inode(FT_DIR, mode);
        inode.nlink = 2;
        let ino = c.alloc_inode(inode, c.ag_of_ino(parent))?;
        if let Err(e) = c.insert_entry(parent, name, ino, FT_DIR) {
            c.free_inode(ino);
            return Err(e);
        }
        let mut pd = c.inode(parent)?;
        pd.nlink += 1;
        c.put_inode(parent, pd);
        Ok(())
    }

    fn rmdir(&mut self, p: &str) -> VfsResult<()> {
        let mut c = self.core()?;
        if path::is_root(p) {
            return Err(Errno::EBUSY);
        }
        let (parent, name) = c.resolve_parent(p)?;
        let ino = c.lookup(parent, name)?.ok_or(Errno::ENOENT)?;
        if c.inode(ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        if !c.read_dir(ino)?.is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        c.remove_entry(parent, name)?;
        let mut inode = c.inode(ino)?;
        inode.nlink = 0;
        c.put_inode(ino, inode);
        let mut pd = c.inode(parent)?;
        pd.nlink -= 1;
        c.put_inode(parent, pd);
        c.maybe_release(ino)
    }

    fn unlink(&mut self, p: &str) -> VfsResult<()> {
        let mut c = self.core()?;
        let (parent, name) = c.resolve_parent(p)?;
        let ino = c.lookup(parent, name)?.ok_or(Errno::ENOENT)?;
        if c.inode(ino)?.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        c.remove_entry(parent, name)?;
        let now = c.now();
        let mut inode = c.inode(ino)?;
        inode.nlink -= 1;
        inode.ctime = now;
        c.put_inode(ino, inode);
        c.maybe_release(ino)
    }

    fn stat(&mut self, p: &str) -> VfsResult<FileStat> {
        let bs = self.config.block_size as u64;
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let inode = c.inode(ino)?;
        let ftype = match inode.ftype {
            FT_REG => FileType::Regular,
            FT_DIR => FileType::Directory,
            FT_SYMLINK => FileType::Symlink,
            _ => return Err(Errno::EIO),
        };
        Ok(FileStat {
            ino: Ino(ino as u64),
            ftype,
            mode: FileMode::new(inode.mode),
            nlink: inode.nlink as u32,
            uid: inode.uid,
            gid: inode.gid,
            // XFS-style: directories report their actual content size
            // (entry based), not a block multiple.
            size: inode.size,
            blocks: inode.nblocks() as u64 * (bs / 512),
            atime: inode.atime,
            mtime: inode.mtime,
            ctime: inode.ctime,
        })
    }

    fn getdents(&mut self, p: &str) -> VfsResult<Vec<DirEntry>> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        if c.inode(ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        let mut entries = c.read_dir(ino)?;
        let now = c.now();
        let mut d = c.inode(ino)?;
        d.atime = now;
        c.put_inode(ino, d);
        // Hash order, as XFS's readdir does.
        entries.sort_by_key(|(_, _, name)| name_hash(name));
        entries
            .into_iter()
            .map(|(e_ino, ftype, name)| {
                let ftype = match ftype {
                    FT_REG => FileType::Regular,
                    FT_DIR => FileType::Directory,
                    FT_SYMLINK => FileType::Symlink,
                    _ => return Err(Errno::EIO),
                };
                Ok(DirEntry {
                    name,
                    ino: Ino(e_ino as u64),
                    ftype,
                })
            })
            .collect()
    }

    fn chmod(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let now = c.now();
        let mut inode = c.inode(ino)?;
        inode.mode = mode.bits();
        inode.ctime = now;
        c.put_inode(ino, inode);
        Ok(())
    }

    fn chown(&mut self, p: &str, uid: u32, gid: u32) -> VfsResult<()> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let now = c.now();
        let mut inode = c.inode(ino)?;
        inode.uid = uid;
        inode.gid = gid;
        inode.ctime = now;
        c.put_inode(ino, inode);
        Ok(())
    }

    fn utimens(&mut self, p: &str, atime: u64, mtime: u64) -> VfsResult<()> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let now = c.now();
        let mut inode = c.inode(ino)?;
        inode.atime = atime;
        inode.mtime = mtime;
        inode.ctime = now;
        c.put_inode(ino, inode);
        Ok(())
    }

    fn rename(&mut self, src: &str, dst: &str) -> VfsResult<()> {
        let mut c = self.core()?;
        path::validate(src)?;
        path::validate(dst)?;
        if src == dst {
            c.resolve(src)?;
            return Ok(());
        }
        if path::is_same_or_descendant(src, dst) {
            return Err(Errno::EINVAL);
        }
        let (sparent, sname) = c.resolve_parent(src)?;
        let src_ino = c.lookup(sparent, sname)?.ok_or(Errno::ENOENT)?;
        let (dparent, dname) = c.resolve_parent(dst)?;
        let src_inode = c.inode(src_ino)?;
        let src_is_dir = src_inode.ftype == FT_DIR;
        if let Some(dst_ino) = c.lookup(dparent, dname)? {
            if dst_ino == src_ino {
                return Ok(());
            }
            let dst_is_dir = c.inode(dst_ino)?.ftype == FT_DIR;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(Errno::ENOTDIR),
                (false, true) => return Err(Errno::EISDIR),
                (true, true) => {
                    if !c.read_dir(dst_ino)?.is_empty() {
                        return Err(Errno::ENOTEMPTY);
                    }
                    c.remove_entry(dparent, dname)?;
                    let mut di = c.inode(dst_ino)?;
                    di.nlink = 0;
                    c.put_inode(dst_ino, di);
                    let mut pd = c.inode(dparent)?;
                    pd.nlink -= 1;
                    c.put_inode(dparent, pd);
                    c.maybe_release(dst_ino)?;
                }
                (false, false) => {
                    c.remove_entry(dparent, dname)?;
                    let mut di = c.inode(dst_ino)?;
                    di.nlink -= 1;
                    c.put_inode(dst_ino, di);
                    c.maybe_release(dst_ino)?;
                }
            }
        }
        c.remove_entry(sparent, sname)?;
        c.insert_entry(dparent, dname, src_ino, src_inode.ftype)?;
        if src_is_dir && sparent != dparent {
            let mut sp = c.inode(sparent)?;
            sp.nlink -= 1;
            c.put_inode(sparent, sp);
            let mut dp = c.inode(dparent)?;
            dp.nlink += 1;
            c.put_inode(dparent, dp);
        }
        let now = c.now();
        let mut si = c.inode(src_ino)?;
        si.ctime = now;
        c.put_inode(src_ino, si);
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> VfsResult<()> {
        let mut c = self.core()?;
        let src_ino = c.resolve(existing)?;
        let src_inode = c.inode(src_ino)?;
        if src_inode.ftype == FT_DIR {
            return Err(Errno::EPERM);
        }
        if src_inode.nlink >= MAX_NLINK {
            return Err(Errno::EMLINK);
        }
        let (parent, name) = c.resolve_parent(new)?;
        if c.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        c.insert_entry(parent, name, src_ino, src_inode.ftype)?;
        let now = c.now();
        let mut si = c.inode(src_ino)?;
        si.nlink += 1;
        si.ctime = now;
        c.put_inode(src_ino, si);
        Ok(())
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> VfsResult<()> {
        let mut c = self.core()?;
        if target.is_empty() || target.len() > path::PATH_MAX {
            return Err(Errno::EINVAL);
        }
        let (parent, name) = c.resolve_parent(linkpath)?;
        if c.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let inode = c.new_inode(FT_SYMLINK, FileMode::new(0o777));
        let ino = c.alloc_inode(inode, c.ag_of_ino(parent))?;
        if let Err(e) = c
            .write_file(ino, 0, target.as_bytes())
            .and_then(|()| c.insert_entry(parent, name, ino, FT_SYMLINK))
        {
            c.file_truncate(ino, 0)?;
            c.free_inode(ino);
            return Err(e);
        }
        Ok(())
    }

    fn readlink(&mut self, p: &str) -> VfsResult<String> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let inode = c.inode(ino)?;
        if inode.ftype != FT_SYMLINK {
            return Err(Errno::EINVAL);
        }
        let mut buf = vec![0u8; inode.size as usize];
        c.read_file(ino, 0, &mut buf)?;
        String::from_utf8(buf).map_err(|_| Errno::EIO)
    }

    fn access(&mut self, p: &str, mode: AccessMode) -> VfsResult<()> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let bits = FileMode::new(c.inode(ino)?.mode);
        if (mode.read && !bits.owner_read())
            || (mode.write && !bits.owner_write())
            || (mode.exec && !bits.owner_exec())
        {
            return Err(Errno::EACCES);
        }
        Ok(())
    }

    fn setxattr(&mut self, p: &str, name: &str, value: &[u8], flags: XattrFlags) -> VfsResult<()> {
        if name.is_empty() || name.len() > 255 || name.contains('\0') {
            return Err(Errno::EINVAL);
        }
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let mut xattrs = c.read_xattrs(ino)?;
        let exists = xattrs.contains_key(name);
        match flags {
            XattrFlags::Create if exists => return Err(Errno::EEXIST),
            XattrFlags::Replace if !exists => return Err(Errno::ENODATA),
            _ => {}
        }
        xattrs.insert(name.to_string(), value.to_vec());
        c.write_xattrs(ino, &xattrs)
    }

    fn getxattr(&mut self, p: &str, name: &str) -> VfsResult<Vec<u8>> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        c.read_xattrs(ino)?.remove(name).ok_or(Errno::ENODATA)
    }

    fn listxattr(&mut self, p: &str) -> VfsResult<Vec<String>> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        Ok(c.read_xattrs(ino)?.into_keys().collect())
    }

    fn removexattr(&mut self, p: &str, name: &str) -> VfsResult<()> {
        let mut c = self.core()?;
        let ino = c.resolve(p)?;
        let mut xattrs = c.read_xattrs(ino)?;
        if xattrs.remove(name).is_none() {
            return Err(Errno::ENODATA);
        }
        c.write_xattrs(ino, &xattrs)
    }
}

impl XInode {
    fn in_use(&self) -> bool {
        self.ftype != FT_FREE
    }
}

impl<D: BlockDevice> DeviceBacked for XfsFs<D> {
    fn snapshot_device(&mut self) -> VfsResult<blockdev::DeviceSnapshot> {
        self.dev.snapshot().map_err(|_| Errno::EIO)
    }

    fn restore_device(&mut self, snapshot: &blockdev::DeviceSnapshot) -> VfsResult<()> {
        self.dev.restore(snapshot).map_err(|_| Errno::EIO)
    }

    fn device_size_bytes(&self) -> u64 {
        self.dev.size_bytes()
    }

    fn crash_reboot(&mut self) -> VfsResult<()> {
        // Power fails: unsynced in-memory state is lost, the device drops
        // its volatile cache, and mount's log-recovery scan runs.
        self.m = None;
        self.dev.power_cut().map_err(|_| Errno::EIO)?;
        self.mount()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::RamDisk;

    fn xfs() -> XfsFs<RamDisk> {
        let mut fs = crate::xfs_on_ram(MIN_DEVICE_BYTES).unwrap();
        fs.mount().unwrap();
        fs
    }

    fn write_file<D: BlockDevice>(fs: &mut XfsFs<D>, p: &str, data: &[u8]) {
        let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn read_file<D: BlockDevice>(fs: &mut XfsFs<D>, p: &str) -> Vec<u8> {
        let fd = fs
            .open(p, OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let size = fs.stat(p).unwrap().size as usize;
        let mut buf = vec![0; size + 8];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn enforces_minimum_device_size() {
        let small = RamDisk::new(4096, 4 * 1024 * 1024).unwrap();
        assert_eq!(
            XfsFs::format(small, XfsConfig::default()).err(),
            Some(Errno::EINVAL)
        );
        assert!(crate::xfs_on_ram(MIN_DEVICE_BYTES).is_ok());
    }

    #[test]
    fn roundtrip_and_remount() {
        let mut fs = xfs();
        write_file(&mut fs, "/f", b"xfs data");
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/g", &[3u8; 9000]);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/f"), b"xfs data");
        assert_eq!(read_file(&mut fs, "/d/g"), vec![3u8; 9000]);
    }

    #[test]
    fn directory_sizes_are_entry_based() {
        let mut fs = xfs();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(fs.stat("/d").unwrap().size, 0, "empty dir reports 0");
        write_file(&mut fs, "/d/file", b"");
        let sz = fs.stat("/d").unwrap().size;
        assert!(
            sz > 0 && sz < 4096,
            "entry-based, not a block multiple: {sz}"
        );
    }

    #[test]
    fn no_lost_and_found() {
        let mut fs = xfs();
        assert!(fs.getdents("/").unwrap().is_empty());
    }

    #[test]
    fn getdents_returns_hash_order() {
        let mut fs = xfs();
        for n in ["aaa", "bbb", "ccc", "ddd"] {
            write_file(&mut fs, &format!("/{n}"), b"");
        }
        let names: Vec<_> = fs
            .getdents("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        let mut by_hash = vec!["aaa", "bbb", "ccc", "ddd"];
        by_hash.sort_by_key(|n| name_hash(n));
        assert_eq!(names, by_hash);
        assert_ne!(names, vec!["aaa", "bbb", "ccc", "ddd"], "not name order");
    }

    #[test]
    fn extents_merge_and_overflow() {
        let mut fs = xfs();
        // A large sequential file should use few (merged) extents.
        let data = vec![9u8; 200 * 1024];
        write_file(&mut fs, "/big", &data);
        assert_eq!(read_file(&mut fs, "/big"), data);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/big"), data);
        // Shrink frees the space back.
        let free_before = fs.statfs().unwrap().blocks_free;
        fs.truncate("/big", 10).unwrap();
        assert!(fs.statfs().unwrap().blocks_free > free_before + 40);
    }

    #[test]
    fn fragmented_allocation_spans_extents() {
        let mut fs = xfs();
        // Fragment free space: create files, delete every other one.
        for i in 0..20 {
            write_file(&mut fs, &format!("/frag{i}"), &vec![i as u8; 8192]);
        }
        for i in (0..20).step_by(2) {
            fs.unlink(&format!("/frag{i}")).unwrap();
        }
        // A file bigger than any single freed hole must span extents.
        let data: Vec<u8> = (0..60_000u32).map(|i| (i % 7) as u8).collect();
        write_file(&mut fs, "/spanning", &data);
        assert_eq!(read_file(&mut fs, "/spanning"), data);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/spanning"), data);
    }

    #[test]
    fn truncate_shrink_extend_zeroes() {
        let mut fs = xfs();
        write_file(&mut fs, "/f", &[0xCC; 5000]);
        fs.truncate("/f", 3).unwrap();
        fs.truncate("/f", 5000).unwrap();
        let content = read_file(&mut fs, "/f");
        assert_eq!(&content[..3], &[0xCC; 3][..]);
        assert!(content[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn enospc_and_recovery() {
        let mut fs = xfs();
        let free = fs.statfs().unwrap().blocks_free;
        let fd = fs.create("/hog", FileMode::REG_DEFAULT).unwrap();
        let too_big = vec![1u8; (free as usize + 4) * 4096];
        assert_eq!(fs.write(fd, &too_big), Err(Errno::ENOSPC));
        assert_eq!(fs.stat("/hog").unwrap().size, 0);
        fs.close(fd).unwrap();
        fs.unlink("/hog").unwrap();
        write_file(&mut fs, "/fits", &vec![1u8; 4096 * 4]);
    }

    #[test]
    fn unclean_mount_recovers_free_space() {
        let mut fs = xfs();
        write_file(&mut fs, "/a", &[1u8; 40_000]);
        fs.sync().unwrap();
        let free_synced = fs.statfs().unwrap().blocks_free;
        let snap = fs.snapshot_device().unwrap();
        fs.unmount().unwrap();
        // Crash back to the dirty image (superblock still marked dirty).
        fs.restore_device(&snap).unwrap();
        fs.mount().unwrap(); // triggers the scan-based recovery
        assert_eq!(read_file(&mut fs, "/a"), vec![1u8; 40_000]);
        assert_eq!(fs.statfs().unwrap().blocks_free, free_synced);
    }

    #[test]
    fn rename_link_symlink_xattr_suite() {
        let mut fs = xfs();
        write_file(&mut fs, "/a", b"A");
        fs.rename("/a", "/b").unwrap();
        fs.link("/b", "/h").unwrap();
        assert_eq!(fs.stat("/h").unwrap().nlink, 2);
        fs.symlink("/b", "/s").unwrap();
        assert_eq!(fs.readlink("/s").unwrap(), "/b");
        fs.setxattr("/b", "user.k", b"v", XattrFlags::Any).unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.getxattr("/b", "user.k").unwrap(), b"v");
        assert_eq!(fs.stat("/h").unwrap().nlink, 2);
        assert_eq!(fs.readlink("/s").unwrap(), "/b");
    }

    #[test]
    fn usable_capacity_differs_from_ext_shape() {
        let fs = xfs();
        let s = fs.statfs().unwrap();
        // Per-AG headers + tables are excluded from data blocks.
        assert!(s.blocks < 4096);
        assert!(s.blocks_free <= s.blocks);
        assert_eq!(s.block_size, 4096);
    }

    #[test]
    fn inode_exhaustion() {
        let mut fs = xfs();
        let files = fs.statfs().unwrap().files_free;
        for i in 0..files {
            let fd = fs.create(&format!("/i{i}"), FileMode::REG_DEFAULT).unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(
            fs.create("/overflow", FileMode::REG_DEFAULT),
            Err(Errno::ENOSPC)
        );
    }
}

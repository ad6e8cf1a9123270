//! The ext file-system engine: mount state, buffer cache, block mapping, and
//! the POSIX operation set.
//!
//! While mounted, the file system keeps a buffer cache of device blocks, the
//! decoded superblock and bitmaps, and an inode cache. Dirty state reaches
//! the device only on `sync`/`unmount` (write-back). That in-memory state is
//! what goes stale when MCFS restores the device image underneath a mounted
//! file system — the §3.2 cache-incoherency problem, reproduced mechanically.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashSet};

use blockdev::{BlockDevice, FaultPhase};
use vfs::{
    path, AccessMode, DeviceBacked, DirEntry, Errno, Fd, FdTable, FileMode, FileStat, FileSystem,
    FileType, FsCapabilities, Ino, OpenFlags, RepairReport, StatFs, VfsResult, WordMap, WordSet,
    XattrFlags,
};

use crate::dir::{self, DirRecord};
use crate::fsck::{self, FsckOptions};
use crate::journal;
use crate::layout::{
    bitmap, DiskInode, SuperBlock, EXT_MAGIC, FT_DIR, FT_REG, FT_SYMLINK, INODE_SIZE, NDIRECT,
    SB_FLAG_DIRTY, SB_FLAG_LOST_FOUND,
};

/// Maximum hard links per file.
const MAX_NLINK: u16 = 32_000;

/// Construction-time configuration for the ext engine.
#[derive(Debug, Clone)]
pub struct ExtConfig {
    /// Reported file-system name (`"ext2"` / `"ext4"`).
    pub variant: &'static str,
    /// Block size in bytes (must equal the device block size).
    pub block_size: usize,
    /// Inode-table length (slot 0 is reserved; root is inode 1).
    pub inodes_count: u32,
    /// Journal area in blocks (0 disables journaling — the ext2 variant).
    pub journal_blocks: u32,
    /// Whether mkfs creates a `lost+found` directory (ext4 behaviour that
    /// causes namespace discrepancies MCFS must except — paper §3.4).
    pub lost_found: bool,
    /// Blocks reserved for the superuser (affects `blocks_avail`).
    pub reserved_blocks: u32,
}

impl ExtConfig {
    /// The ext2 variant: no journal, no `lost+found`.
    pub fn ext2() -> Self {
        ExtConfig {
            variant: "ext2",
            block_size: 1024,
            inodes_count: 64,
            journal_blocks: 0,
            lost_found: false,
            reserved_blocks: 4,
        }
    }

    /// The ext4 variant: journaled, with `lost+found`.
    pub fn ext4() -> Self {
        ExtConfig {
            variant: "ext4",
            block_size: 1024,
            inodes_count: 64,
            journal_blocks: 16,
            lost_found: true,
            reserved_blocks: 4,
        }
    }
}

#[derive(Debug, Clone)]
struct BufBlock {
    data: Vec<u8>,
    dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    ibitmap: Vec<u8>,
    bbitmap: Vec<u8>,
    meta_dirty: bool,
    icache: WordMap<u32, DiskInode>,
    idirty: WordSet<u32>,
    bufs: WordMap<u32, BufBlock>,
    fds: FdTable<OpenFile>,
    time: u64,
    txn: u32,
}

/// An ext2/ext4-style file system on a block device.
///
/// Construct with [`ExtFs::format`] (mkfs) or [`ExtFs::open_device`] (attach
/// to an already formatted device), then [`mount`](FileSystem::mount).
#[derive(Debug, Clone)]
pub struct ExtFs<D> {
    dev: D,
    config: ExtConfig,
    m: Option<Mounted>,
}

impl<D: BlockDevice> ExtFs<D> {
    /// Formats `dev` (mkfs) and returns the unmounted file system.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the device geometry cannot hold the requested layout
    /// (mismatched block size or too few blocks).
    pub fn format(mut dev: D, config: ExtConfig) -> VfsResult<Self> {
        let bs = config.block_size;
        if dev.block_size() != bs {
            return Err(Errno::EINVAL);
        }
        let blocks_count = dev.num_blocks() as u32;
        if blocks_count as usize > bs * 8 || config.inodes_count as usize > bs * 8 {
            return Err(Errno::EINVAL); // bitmaps must fit one block each
        }
        let mut sb = SuperBlock {
            magic: EXT_MAGIC,
            block_size: bs as u32,
            blocks_count,
            inodes_count: config.inodes_count,
            free_blocks: 0,
            free_inodes: 0,
            journal_blocks: config.journal_blocks,
            flags: if config.lost_found {
                SB_FLAG_LOST_FOUND
            } else {
                0
            },
            mount_count: 0,
        };
        if sb.data_start() + 8 > blocks_count {
            return Err(Errno::EINVAL); // need at least a few data blocks
        }
        let mut ibitmap = vec![0u8; bs];
        let mut bbitmap = vec![0u8; bs];
        // Metadata blocks are permanently "in use".
        for blk in 0..sb.data_start() {
            bitmap::set(&mut bbitmap, blk);
        }
        // Inode 0 is reserved, inode 1 is the root.
        bitmap::set(&mut ibitmap, 0);
        bitmap::set(&mut ibitmap, 1);
        let mut root = DiskInode::free();
        root.ftype = FT_DIR;
        root.mode = FileMode::DIR_DEFAULT.bits();
        root.nlink = 2;
        let mut table = vec![0u8; sb.inode_table_blocks() as usize * bs];
        let mut root_content = Vec::new();
        if config.lost_found {
            bitmap::set(&mut ibitmap, 2);
            let mut lf = DiskInode::free();
            lf.ftype = FT_DIR;
            lf.mode = 0o700;
            lf.nlink = 2;
            lf.encode(&mut table[2 * INODE_SIZE..3 * INODE_SIZE]);
            root.nlink += 1;
            root_content = dir::serialize(&[DirRecord {
                ino: 2,
                ftype: FT_DIR,
                name: "lost+found".to_string(),
            }]);
            root.size = root_content.len() as u64;
        }
        if !root_content.is_empty() {
            // Root directory content lives in the first data block.
            let root_blk = sb.data_start();
            bitmap::set(&mut bbitmap, root_blk);
            root.direct[0] = root_blk;
            root.blocks = 1;
            let mut block = vec![0u8; bs];
            block[..root_content.len()].copy_from_slice(&root_content);
            dev.write_block(root_blk as u64, &block)
                .map_err(|_| Errno::EIO)?;
        }
        root.encode(&mut table[INODE_SIZE..2 * INODE_SIZE]);
        sb.free_blocks = sb.data_blocks() - if root_content.is_empty() { 0 } else { 1 };
        sb.free_inodes = sb.inodes_count - if config.lost_found { 3 } else { 2 };
        // Write everything out.
        let mut sb_block = vec![0u8; bs];
        sb.encode(&mut sb_block);
        dev.write_block(0, &sb_block).map_err(|_| Errno::EIO)?;
        dev.write_block(1, &ibitmap).map_err(|_| Errno::EIO)?;
        dev.write_block(2, &bbitmap).map_err(|_| Errno::EIO)?;
        for (i, chunk) in table.chunks(bs).enumerate() {
            dev.write_block((sb.inode_table_start() + i as u32) as u64, chunk)
                .map_err(|_| Errno::EIO)?;
        }
        // Zero the journal header so stale data never replays.
        if sb.journal_blocks > 0 {
            let zero = vec![0u8; bs];
            dev.write_block(sb.journal_start() as u64, &zero)
                .map_err(|_| Errno::EIO)?;
        }
        dev.flush().map_err(|_| Errno::EIO)?;
        Ok(ExtFs {
            dev,
            config,
            m: None,
        })
    }

    /// Attaches to an already formatted device without reformatting.
    pub fn open_device(dev: D, config: ExtConfig) -> Self {
        ExtFs {
            dev,
            config,
            m: None,
        }
    }

    /// Direct access to the backing device (MCFS's "mmap" of the backend).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Scan-and-repair with explicit options (worker count, clock). The
    /// [`FileSystem::fsck`] entry point delegates here with the defaults.
    ///
    /// If mounted, the file system syncs and unmounts first (best effort —
    /// a corrupted image may refuse; its in-memory state is discarded
    /// then), runs the device-level passes with the device in
    /// [`FaultPhase::Repair`], and remounts afterwards.
    ///
    /// # Errors
    ///
    /// `EIO` if the superblock is unrepairable or the device fails
    /// mid-repair (the file system is left unmounted then — rerun fsck).
    pub fn fsck_with(&mut self, opts: &FsckOptions) -> VfsResult<RepairReport> {
        let was_mounted = self.m.is_some();
        if was_mounted {
            let _ = self.sync();
            if self.unmount().is_err() {
                self.m = None;
            }
        }
        self.dev.set_fault_phase(FaultPhase::Repair);
        let result = fsck::repair_device(&mut self.dev, opts);
        self.dev.set_fault_phase(FaultPhase::Normal);
        let report = result?;
        if was_mounted {
            self.mount()?;
        }
        Ok(report)
    }

    fn core(&mut self) -> VfsResult<Core<'_, D>> {
        match &mut self.m {
            Some(m) => Ok(Core {
                dev: &mut self.dev,
                m,
                bs: self.config.block_size,
            }),
            None => Err(Errno::ENODEV),
        }
    }
}

/// Per-operation view combining the device and the mounted state (avoids
/// borrow conflicts between the two fields).
struct Core<'a, D> {
    dev: &'a mut D,
    m: &'a mut Mounted,
    bs: usize,
}

impl<D: BlockDevice> Core<'_, D> {
    fn now(&mut self) -> u64 {
        self.m.time += 1;
        self.m.time
    }

    fn ptrs_per_block(&self) -> u32 {
        (self.bs / 4) as u32
    }

    fn max_file_blocks(&self) -> u64 {
        let p = self.ptrs_per_block() as u64;
        NDIRECT as u64 + p + p * p
    }

    // ---- buffer cache ----------------------------------------------------

    /// Block `blk`'s cache entry, read from the device on a miss.
    fn load_buf(&mut self, blk: u32) -> VfsResult<&mut BufBlock> {
        match self.m.bufs.entry(blk) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let mut data = vec![0u8; self.bs];
                self.dev
                    .read_block(blk as u64, &mut data)
                    .map_err(|_| Errno::EIO)?;
                Ok(e.insert(BufBlock { data, dirty: false }))
            }
        }
    }

    /// Block `blk`'s cached bytes, borrowed rather than copied.
    fn buf(&mut self, blk: u32) -> VfsResult<&[u8]> {
        Ok(&self.load_buf(blk)?.data)
    }

    fn with_buf<R>(&mut self, blk: u32, f: impl FnOnce(&mut Vec<u8>) -> R) -> VfsResult<R> {
        let buf = self.load_buf(blk)?;
        let r = f(&mut buf.data);
        buf.dirty = true;
        Ok(r)
    }

    fn u32_in_buf(&mut self, blk: u32, index: u32) -> VfsResult<u32> {
        let data = self.buf(blk)?;
        let i = index as usize * 4;
        Ok(u32::from_le_bytes([
            data[i],
            data[i + 1],
            data[i + 2],
            data[i + 3],
        ]))
    }

    fn set_u32_in_buf(&mut self, blk: u32, index: u32, value: u32) -> VfsResult<()> {
        self.with_buf(blk, |data| {
            let i = index as usize * 4;
            data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        })
    }

    // ---- allocation ------------------------------------------------------

    fn alloc_block(&mut self) -> VfsResult<u32> {
        let start = self.m.sb.data_start();
        let end = self.m.sb.blocks_count;
        let blk = bitmap::find_zero(&self.m.bbitmap, start, end).ok_or(Errno::ENOSPC)?;
        bitmap::set(&mut self.m.bbitmap, blk);
        self.m.sb.free_blocks -= 1;
        self.m.meta_dirty = true;
        // Fresh blocks are zeroed — this is why holes read back as zeros.
        self.m.bufs.insert(
            blk,
            BufBlock {
                data: vec![0u8; self.bs],
                dirty: true,
            },
        );
        Ok(blk)
    }

    fn free_block(&mut self, blk: u32) {
        bitmap::clear(&mut self.m.bbitmap, blk);
        self.m.sb.free_blocks += 1;
        self.m.meta_dirty = true;
        self.m.bufs.remove(&blk);
    }

    fn alloc_inode(&mut self, inode: DiskInode) -> VfsResult<u32> {
        let ino =
            bitmap::find_zero(&self.m.ibitmap, 1, self.m.sb.inodes_count).ok_or(Errno::ENOSPC)?;
        bitmap::set(&mut self.m.ibitmap, ino);
        self.m.sb.free_inodes -= 1;
        self.m.meta_dirty = true;
        self.m.icache.insert(ino, inode);
        self.m.idirty.insert(ino);
        Ok(ino)
    }

    fn free_inode(&mut self, ino: u32) {
        bitmap::clear(&mut self.m.ibitmap, ino);
        self.m.sb.free_inodes += 1;
        self.m.meta_dirty = true;
        self.m.icache.insert(ino, DiskInode::free());
        self.m.idirty.insert(ino);
    }

    // ---- inode table -----------------------------------------------------

    fn inode(&mut self, ino: u32) -> VfsResult<DiskInode> {
        if let Some(i) = self.m.icache.get(&ino) {
            return Ok(*i);
        }
        if ino == 0 || ino >= self.m.sb.inodes_count {
            return Err(Errno::EIO);
        }
        let per_block = self.bs / INODE_SIZE;
        let blk = self.m.sb.inode_table_start() + ino / per_block as u32;
        let off = (ino as usize % per_block) * INODE_SIZE;
        let inode = DiskInode::decode(&self.buf(blk)?[off..off + INODE_SIZE]);
        self.m.icache.insert(ino, inode);
        Ok(inode)
    }

    fn put_inode(&mut self, ino: u32, inode: DiskInode) {
        self.m.icache.insert(ino, inode);
        self.m.idirty.insert(ino);
    }

    // ---- block mapping ---------------------------------------------------

    /// Maps file block `fblk` to a device block (`None` = hole).
    fn bmap(&mut self, inode: &DiskInode, fblk: u64) -> VfsResult<Option<u32>> {
        let p = self.ptrs_per_block() as u64;
        if fblk < NDIRECT as u64 {
            let b = inode.direct[fblk as usize];
            return Ok(if b == 0 { None } else { Some(b) });
        }
        let fblk = fblk - NDIRECT as u64;
        if fblk < p {
            if inode.indirect == 0 {
                return Ok(None);
            }
            let b = self.u32_in_buf(inode.indirect, fblk as u32)?;
            return Ok(if b == 0 { None } else { Some(b) });
        }
        let fblk = fblk - p;
        if fblk < p * p {
            if inode.dindirect == 0 {
                return Ok(None);
            }
            let l2 = self.u32_in_buf(inode.dindirect, (fblk / p) as u32)?;
            if l2 == 0 {
                return Ok(None);
            }
            let b = self.u32_in_buf(l2, (fblk % p) as u32)?;
            return Ok(if b == 0 { None } else { Some(b) });
        }
        Err(Errno::EFBIG)
    }

    /// Number of *new* blocks (data + indirect) required to populate file
    /// blocks `[from, to)` of `inode`. Used for the ENOSPC pre-check so
    /// operations are all-or-nothing.
    fn blocks_needed(&mut self, inode: &DiskInode, from: u64, to: u64) -> VfsResult<u64> {
        let p = self.ptrs_per_block() as u64;
        if to > self.max_file_blocks() {
            return Err(Errno::EFBIG);
        }
        let mut needed = 0u64;
        let mut indirect_needed = inode.indirect == 0;
        let mut dindirect_needed = inode.dindirect == 0;
        let mut l2_needed: HashSet<u64> = HashSet::new();
        for fblk in from..to {
            if self.bmap(inode, fblk)?.is_some() {
                continue;
            }
            needed += 1;
            if fblk >= NDIRECT as u64 {
                let rel = fblk - NDIRECT as u64;
                if rel < p {
                    if indirect_needed {
                        needed += 1;
                        indirect_needed = false;
                    }
                } else {
                    let rel = rel - p;
                    if dindirect_needed {
                        needed += 1;
                        dindirect_needed = false;
                    }
                    let l2_idx = rel / p;
                    let exists = if inode.dindirect == 0 {
                        false
                    } else {
                        self.u32_in_buf(inode.dindirect, l2_idx as u32)? != 0
                    };
                    if !exists && l2_needed.insert(l2_idx) {
                        needed += 1;
                    }
                }
            }
        }
        Ok(needed)
    }

    /// Maps file block `fblk`, allocating it (and any intermediate blocks) if
    /// absent. Callers must have pre-checked capacity with
    /// [`blocks_needed`](Self::blocks_needed).
    fn bmap_alloc(&mut self, ino: u32, fblk: u64) -> VfsResult<u32> {
        let p = self.ptrs_per_block() as u64;
        let mut inode = self.inode(ino)?;
        let result;
        if fblk < NDIRECT as u64 {
            let cur = inode.direct[fblk as usize];
            if cur != 0 {
                return Ok(cur);
            }
            let b = self.alloc_block()?;
            inode.direct[fblk as usize] = b;
            inode.blocks += 1;
            result = b;
        } else {
            let rel = fblk - NDIRECT as u64;
            if rel < p {
                if inode.indirect == 0 {
                    inode.indirect = self.alloc_block()?;
                }
                let cur = self.u32_in_buf(inode.indirect, rel as u32)?;
                if cur != 0 {
                    self.put_inode(ino, inode);
                    return Ok(cur);
                }
                let b = self.alloc_block()?;
                self.set_u32_in_buf(inode.indirect, rel as u32, b)?;
                inode.blocks += 1;
                result = b;
            } else {
                let rel = rel - p;
                if rel >= p * p {
                    return Err(Errno::EFBIG);
                }
                if inode.dindirect == 0 {
                    inode.dindirect = self.alloc_block()?;
                }
                let l2_idx = (rel / p) as u32;
                let mut l2 = self.u32_in_buf(inode.dindirect, l2_idx)?;
                if l2 == 0 {
                    l2 = self.alloc_block()?;
                    self.set_u32_in_buf(inode.dindirect, l2_idx, l2)?;
                }
                let cur = self.u32_in_buf(l2, (rel % p) as u32)?;
                if cur != 0 {
                    self.put_inode(ino, inode);
                    return Ok(cur);
                }
                let b = self.alloc_block()?;
                self.set_u32_in_buf(l2, (rel % p) as u32, b)?;
                inode.blocks += 1;
                result = b;
            }
        }
        self.put_inode(ino, inode);
        Ok(result)
    }

    // ---- file content ----------------------------------------------------

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
            match self.bmap(&inode, fblk)? {
                Some(blk) => {
                    let data = self.buf(blk)?;
                    out[dst..dst + chunk].copy_from_slice(&data[within..within + chunk]);
                }
                None => {
                    // Hole: zeros.
                    out[dst..dst + chunk].fill(0);
                }
            }
            pos += chunk as u64;
        }
        Ok((end - offset) as usize)
    }

    fn write_file(&mut self, ino: u32, offset: u64, data: &[u8]) -> VfsResult<()> {
        let inode = self.inode(ino)?;
        let end = offset.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
        let from = offset / self.bs as u64;
        let to = end.div_ceil(self.bs as u64);
        let needed = self.blocks_needed(&inode, from, to)?;
        if needed > self.m.sb.free_blocks as u64 {
            return Err(Errno::ENOSPC);
        }
        let mut pos = offset;
        while pos < end {
            let fblk = pos / self.bs as u64;
            let within = (pos % self.bs as u64) as usize;
            let chunk = ((self.bs - within) as u64).min(end - pos) as usize;
            let src = (pos - offset) as usize;
            let blk = self.bmap_alloc(ino, fblk)?;
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
        let p = self.ptrs_per_block() as u64;
        let old_blocks = inode.size.div_ceil(self.bs as u64);
        let keep_blocks = new_size.div_ceil(self.bs as u64);
        if new_size > self.max_file_blocks() * self.bs as u64 {
            return Err(Errno::EFBIG);
        }
        if new_size < inode.size {
            // Free whole blocks past the new end.
            for fblk in keep_blocks..old_blocks {
                if let Some(blk) = self.bmap(&inode, fblk)? {
                    self.free_block(blk);
                    inode.blocks -= 1;
                    // Clear the mapping.
                    if fblk < NDIRECT as u64 {
                        inode.direct[fblk as usize] = 0;
                    } else {
                        let rel = fblk - NDIRECT as u64;
                        if rel < p {
                            self.set_u32_in_buf(inode.indirect, rel as u32, 0)?;
                        } else {
                            let rel = rel - p;
                            let l2 = self.u32_in_buf(inode.dindirect, (rel / p) as u32)?;
                            self.set_u32_in_buf(l2, (rel % p) as u32, 0)?;
                        }
                    }
                }
            }
            // Release indirect blocks that became empty.
            if inode.indirect != 0 && self.buf(inode.indirect)?.iter().all(|&b| b == 0) {
                self.free_block(inode.indirect);
                inode.indirect = 0;
            }
            if inode.dindirect != 0 {
                // A copy: the loop clears entries of this block as it goes.
                let l2_list = self.buf(inode.dindirect)?.to_vec();
                let mut all_empty = true;
                for i in 0..self.ptrs_per_block() {
                    let i4 = i as usize * 4;
                    let l2 = u32::from_le_bytes([
                        l2_list[i4],
                        l2_list[i4 + 1],
                        l2_list[i4 + 2],
                        l2_list[i4 + 3],
                    ]);
                    if l2 != 0 {
                        if self.buf(l2)?.iter().all(|&b| b == 0) {
                            self.free_block(l2);
                            self.set_u32_in_buf(inode.dindirect, i, 0)?;
                        } else {
                            all_empty = false;
                        }
                    }
                }
                if all_empty {
                    self.free_block(inode.dindirect);
                    inode.dindirect = 0;
                }
            }
            // Zero the tail of the (kept) final partial block so a later
            // extension cannot expose stale bytes.
            if !new_size.is_multiple_of(self.bs as u64) {
                if let Some(blk) = self.bmap(&inode, new_size / self.bs as u64)? {
                    let from = (new_size % self.bs as u64) as usize;
                    self.with_buf(blk, |b| b[from..].fill(0))?;
                }
            }
        }
        // Extension is sparse: unmapped blocks read as zeros.
        inode.size = new_size;
        let now = self.now();
        inode.mtime = now;
        inode.ctime = now;
        self.put_inode(ino, inode);
        Ok(())
    }

    /// Frees every data/indirect/xattr block of `ino` and the inode itself.
    fn release_inode(&mut self, ino: u32) -> VfsResult<()> {
        self.file_truncate(ino, 0)?;
        let inode = self.inode(ino)?;
        if inode.xattr_block != 0 {
            self.free_block(inode.xattr_block);
        }
        self.free_inode(ino);
        Ok(())
    }

    // ---- directories -----------------------------------------------------

    /// Runs `f` over directory `ino`'s content: borrowed from the buffer
    /// cache when it lies in one mapped block, read into a buffer
    /// otherwise. Both ways read the same device blocks.
    fn with_dir<R>(&mut self, ino: u32, f: impl FnOnce(&[u8]) -> R) -> VfsResult<R> {
        let inode = self.inode(ino)?;
        let size = inode.size as usize;
        if size > 0 && size <= self.bs {
            if let Some(blk) = self.bmap(&inode, 0)? {
                return Ok(f(&self.buf(blk)?[..size]));
            }
        }
        let mut content = vec![0u8; size];
        self.read_file(ino, 0, &mut content)?;
        Ok(f(&content))
    }

    fn read_dir(&mut self, ino: u32) -> VfsResult<Vec<DirRecord>> {
        self.with_dir(ino, dir::parse)?
    }

    fn write_dir(&mut self, ino: u32, records: &[DirRecord]) -> VfsResult<()> {
        let content = dir::serialize(records);
        let inode = self.inode(ino)?;
        // Pre-check capacity: the rewrite frees the old blocks first, so the
        // budget is current free + currently held.
        let needed = (content.len() as u64).div_ceil(self.bs as u64);
        let held = inode.size.div_ceil(self.bs as u64);
        if needed > self.m.sb.free_blocks as u64 + held {
            return Err(Errno::ENOSPC);
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
        let inode = self.inode(dir_ino)?;
        if inode.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        self.with_dir(dir_ino, |content| dir::lookup(content, name))?
    }

    fn resolve(&mut self, p: &str) -> VfsResult<u32> {
        path::validate(p)?;
        let mut cur = Ino::ROOT.0 as u32;
        for comp in path::components(p) {
            let inode = self.inode(cur)?;
            match inode.ftype {
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

    fn insert_entry(&mut self, dir_ino: u32, name: &str, ino: u32, ftype: u8) -> VfsResult<()> {
        let mut records = self.read_dir(dir_ino)?;
        records.push(DirRecord {
            ino,
            ftype,
            name: name.to_string(),
        });
        self.write_dir(dir_ino, &records)?;
        let now = self.now();
        let mut d = self.inode(dir_ino)?;
        d.mtime = now;
        d.ctime = now;
        self.put_inode(dir_ino, d);
        Ok(())
    }

    fn remove_entry(&mut self, dir_ino: u32, name: &str) -> VfsResult<u32> {
        let mut records = self.read_dir(dir_ino)?;
        let idx = records
            .iter()
            .position(|r| r.name == name)
            .ok_or(Errno::ENOENT)?;
        let removed = records.remove(idx);
        self.write_dir(dir_ino, &records)?;
        let now = self.now();
        let mut d = self.inode(dir_ino)?;
        d.mtime = now;
        d.ctime = now;
        self.put_inode(dir_ino, d);
        Ok(removed.ino)
    }

    fn fd_refs(&self, ino: u32) -> usize {
        self.m.fds.iter().filter(|(_, of)| of.ino == ino).count()
    }

    fn maybe_release(&mut self, ino: u32) -> VfsResult<()> {
        let inode = self.inode(ino)?;
        if inode.nlink == 0 && self.fd_refs(ino) == 0 {
            self.release_inode(ino)?;
        }
        Ok(())
    }

    fn new_inode(&mut self, ftype: u8, mode: FileMode) -> DiskInode {
        let now = self.now();
        let mut i = DiskInode::free();
        i.ftype = ftype;
        i.mode = mode.bits();
        i.nlink = 1;
        i.atime = now;
        i.mtime = now;
        i.ctime = now;
        i
    }

    // ---- xattrs ----------------------------------------------------------

    fn read_xattrs(&mut self, ino: u32) -> VfsResult<BTreeMap<String, Vec<u8>>> {
        let inode = self.inode(ino)?;
        if inode.xattr_block == 0 {
            return Ok(BTreeMap::new());
        }
        let data = self.buf(inode.xattr_block)?;
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
            let val = data[pos..pos + vlen].to_vec();
            pos += vlen;
            out.insert(key, val);
        }
        Ok(out)
    }

    fn write_xattrs(&mut self, ino: u32, xattrs: &BTreeMap<String, Vec<u8>>) -> VfsResult<()> {
        let mut inode = self.inode(ino)?;
        if xattrs.is_empty() {
            if inode.xattr_block != 0 {
                self.free_block(inode.xattr_block);
                inode.xattr_block = 0;
                self.put_inode(ino, inode);
            }
            return Ok(());
        }
        let mut blob = Vec::with_capacity(self.bs);
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
            inode.xattr_block = self.alloc_block()?;
            self.put_inode(ino, inode);
        }
        let blk = inode.xattr_block;
        self.with_buf(blk, |b| {
            b.fill(0);
            b[..blob.len()].copy_from_slice(&blob);
        })
    }
}

impl<D: BlockDevice> FileSystem for ExtFs<D> {
    fn fs_name(&self) -> &str {
        self.config.variant
    }

    fn capabilities(&self) -> FsCapabilities {
        FsCapabilities {
            rename: true,
            hardlink: true,
            symlink: true,
            xattr: true,
            access: true,
            checkpoint: false, // kernel file systems lack the paper's API
        }
    }

    fn mount(&mut self) -> VfsResult<()> {
        if self.m.is_some() {
            return Err(Errno::EBUSY);
        }
        let bs = self.config.block_size;
        let mut sb_block = vec![0u8; bs];
        self.dev
            .read_block(0, &mut sb_block)
            .map_err(|_| Errno::EIO)?;
        let mut sb = SuperBlock::decode(&sb_block)?;
        if sb.block_size as usize != bs {
            return Err(Errno::EIO);
        }
        // Dirty + journaled: replay committed transactions (crash recovery).
        if sb.flags & SB_FLAG_DIRTY != 0 && sb.journal_blocks > 0 {
            journal::replay(&mut self.dev, &sb)?;
            // The superblock itself may have been journaled; reread.
            self.dev
                .read_block(0, &mut sb_block)
                .map_err(|_| Errno::EIO)?;
            sb = SuperBlock::decode(&sb_block)?;
        }
        let mut ibitmap = vec![0u8; bs];
        let mut bbitmap = vec![0u8; bs];
        self.dev
            .read_block(1, &mut ibitmap)
            .map_err(|_| Errno::EIO)?;
        self.dev
            .read_block(2, &mut bbitmap)
            .map_err(|_| Errno::EIO)?;
        // Recompute free counts from the bitmaps (cheap fsck; also heals an
        // unclean ext2 mount).
        sb.free_blocks =
            sb.data_blocks() - bitmap::count_ones(&bbitmap, sb.data_start(), sb.blocks_count);
        sb.free_inodes = sb.inodes_count - bitmap::count_ones(&ibitmap, 1, sb.inodes_count);
        sb.mount_count += 1;
        sb.flags |= SB_FLAG_DIRTY;
        // Mark dirty on disk immediately, as real mounts do.
        sb.encode(&mut sb_block);
        self.dev.write_block(0, &sb_block).map_err(|_| Errno::EIO)?;
        let time = (sb.mount_count as u64) << 32;
        self.m = Some(Mounted {
            sb,
            ibitmap,
            bbitmap,
            meta_dirty: false,
            icache: WordMap::default(),
            idirty: WordSet::default(),
            bufs: WordMap::default(),
            fds: FdTable::default(),
            time,
            txn: 1,
        });
        Ok(())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.sync()?;
        let bs = self.config.block_size;
        let mut m = self.m.take().ok_or(Errno::ENODEV)?;
        m.sb.flags &= !SB_FLAG_DIRTY;
        let mut sb_block = vec![0u8; bs];
        m.sb.encode(&mut sb_block);
        self.dev.write_block(0, &sb_block).map_err(|_| Errno::EIO)?;
        self.dev.flush().map_err(|_| Errno::EIO)?;
        Ok(())
    }

    fn is_mounted(&self) -> bool {
        self.m.is_some()
    }

    fn sync(&mut self) -> VfsResult<()> {
        let bs = self.config.block_size;
        let has_journal = self.config.journal_blocks > 0;
        let mut c = self.core()?;
        // Encode dirty inodes into their table blocks. Each inode leaves the
        // dirty set only once its table block is encoded: an EIO mid-loop
        // must not silently drop the remaining updates (the next sync
        // retries them).
        let dirty_inodes: Vec<u32> = c.m.idirty.iter().copied().collect();
        for ino in dirty_inodes {
            let inode = c.inode(ino)?;
            let per_block = bs / INODE_SIZE;
            let blk = c.m.sb.inode_table_start() + ino / per_block as u32;
            let off = (ino as usize % per_block) * INODE_SIZE;
            c.with_buf(blk, |b| inode.encode(&mut b[off..off + INODE_SIZE]))?;
            c.m.idirty.remove(&ino);
        }
        // Encode superblock and bitmaps.
        if c.m.meta_dirty {
            let sb = c.m.sb;
            c.with_buf(0, |b| sb.encode(b))?;
            let ibm = c.m.ibitmap.clone();
            c.with_buf(1, |b| b.copy_from_slice(&ibm))?;
            let bbm = c.m.bbitmap.clone();
            c.with_buf(2, |b| b.copy_from_slice(&bbm))?;
            c.m.meta_dirty = false;
        }
        // Dirty blocks in block order: metadata (below the data area)
        // first. Images go to the device straight from the cache. The dirty
        // flags clear per block as its device write succeeds — never
        // before: on EIO the cache keeps the only good copy, and the next
        // sync must write it again or the device stays silently stale.
        let mut dirty: Vec<u32> =
            c.m.bufs
                .iter()
                .filter(|(_, buf)| buf.dirty)
                .map(|(&blk, _)| blk)
                .collect();
        dirty.sort_unstable();
        let (meta, data) = dirty.split_at(dirty.partition_point(|&b| b < c.m.sb.data_start()));
        let write_back = |c: &mut Core<'_, D>, blocks: &[u32]| -> VfsResult<()> {
            for blk in blocks {
                let buf = c.m.bufs.get_mut(blk).expect("collected above");
                c.dev
                    .write_block(*blk as u64, &buf.data)
                    .map_err(|_| Errno::EIO)?;
                buf.dirty = false;
            }
            Ok(())
        };
        if has_journal {
            // Ordered mode: data first, then journal the metadata.
            write_back(&mut c, data)?;
            if !meta.is_empty() {
                let txn = c.m.txn;
                c.m.txn = c.m.txn.wrapping_add(meta.len() as u32).wrapping_add(1);
                let images: Vec<(u32, &[u8])> = meta
                    .iter()
                    .map(|blk| (*blk, c.m.bufs[blk].data.as_slice()))
                    .collect();
                journal::commit(c.dev, &c.m.sb, txn, &images)?;
                for blk in meta {
                    c.m.bufs.get_mut(blk).expect("collected above").dirty = false;
                }
            } else {
                // Nothing to journal: still barrier the data writes so a
                // power cut cannot take back what sync promised.
                c.dev.flush().map_err(|_| Errno::EIO)?;
            }
        } else {
            write_back(&mut c, meta)?;
            write_back(&mut c, data)?;
            c.dev.flush().map_err(|_| Errno::EIO)?;
        }
        Ok(())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let m = self.m.as_ref().ok_or(Errno::ENODEV)?;
        Ok(StatFs {
            block_size: m.sb.block_size,
            blocks: m.sb.data_blocks() as u64,
            blocks_free: m.sb.free_blocks as u64,
            blocks_avail: m.sb.free_blocks.saturating_sub(self.config.reserved_blocks) as u64,
            files: (m.sb.inodes_count - 1) as u64,
            files_free: m.sb.free_inodes as u64,
            name_max: 255,
        })
    }

    fn create(&mut self, p: &str, mode: FileMode) -> VfsResult<Fd> {
        let mut c = self.core()?;
        let (parent, name) = c.resolve_parent(p)?;
        if c.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        if c.m.sb.free_inodes == 0 {
            return Err(Errno::ENOSPC);
        }
        let inode = c.new_inode(FT_REG, mode);
        let ino = c.alloc_inode(inode)?;
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
                let ino = c.alloc_inode(inode)?;
                if let Err(e) = c.insert_entry(parent, name, ino, FT_REG) {
                    c.free_inode(ino);
                    return Err(e);
                }
                ino
            }
            Err(e) => return Err(e),
        };
        let inode = c.inode(ino)?;
        match inode.ftype {
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
        let inode = c.inode(of.ino)?;
        if inode.ftype == FT_DIR {
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
        let inode = c.inode(ino)?;
        match inode.ftype {
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
        let ino = c.alloc_inode(inode)?;
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
        let inode = c.inode(ino)?;
        if inode.ftype != FT_DIR {
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
        let (ftype, size) = match inode.ftype {
            FT_REG => (FileType::Regular, inode.size),
            // ext reports directory sizes as a multiple of the block size —
            // at least one block (paper §3.4).
            FT_DIR => (FileType::Directory, inode.size.div_ceil(bs).max(1) * bs),
            FT_SYMLINK => (FileType::Symlink, inode.size),
            _ => return Err(Errno::EIO),
        };
        Ok(FileStat {
            ino: Ino(ino as u64),
            ftype,
            mode: FileMode::new(inode.mode),
            nlink: inode.nlink as u32,
            uid: inode.uid,
            gid: inode.gid,
            size,
            blocks: inode.blocks as u64 * (bs / 512),
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
        let records = c.read_dir(ino)?;
        let now = c.now();
        let mut d = c.inode(ino)?;
        d.atime = now;
        c.put_inode(ino, d);
        records
            .into_iter()
            .map(|r| {
                let ftype = match r.ftype {
                    FT_REG => FileType::Regular,
                    FT_DIR => FileType::Directory,
                    FT_SYMLINK => FileType::Symlink,
                    _ => return Err(Errno::EIO),
                };
                Ok(DirEntry {
                    name: r.name,
                    ino: Ino(r.ino as u64),
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
        let ino = c.alloc_inode(inode)?;
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
        c.write_xattrs(ino, &xattrs)?;
        let now = c.now();
        let mut inode = c.inode(ino)?;
        inode.ctime = now;
        c.put_inode(ino, inode);
        Ok(())
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

    fn supports_fsck(&self) -> bool {
        true
    }

    fn fsck(&mut self) -> VfsResult<RepairReport> {
        self.fsck_with(&FsckOptions::serial())
    }
}

impl<D: BlockDevice> DeviceBacked for ExtFs<D> {
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
        // Power fails: in-memory state (dirty inodes, buffers, fd table) is
        // gone without a sync, the device drops its volatile cache, and the
        // journal (if any) replays on the next mount.
        self.m = None;
        self.dev.power_cut().map_err(|_| Errno::EIO)?;
        self.mount()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::RamDisk;

    fn ext2() -> ExtFs<RamDisk> {
        let mut fs = crate::ext2_on_ram(256 * 1024).unwrap();
        fs.mount().unwrap();
        fs
    }

    fn ext4() -> ExtFs<RamDisk> {
        let mut fs = crate::ext4_on_ram(256 * 1024).unwrap();
        fs.mount().unwrap();
        fs
    }

    fn write_file<D: BlockDevice>(fs: &mut ExtFs<D>, p: &str, data: &[u8]) {
        let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn read_file<D: BlockDevice>(fs: &mut ExtFs<D>, p: &str) -> Vec<u8> {
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
    fn format_and_mount_both_variants() {
        let mut e2 = ext2();
        let mut e4 = ext4();
        assert_eq!(e2.fs_name(), "ext2");
        assert_eq!(e4.fs_name(), "ext4");
        // ext4 has lost+found, ext2 does not (paper §3.4 special folders).
        let names4: Vec<_> = e4
            .getdents("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names4, vec!["lost+found"]);
        assert!(e2.getdents("/").unwrap().is_empty());
    }

    #[test]
    fn data_persists_across_remount() {
        let mut fs = ext4();
        write_file(&mut fs, "/f", b"durable data");
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/nested", &[7u8; 3000]);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/f"), b"durable data");
        assert_eq!(read_file(&mut fs, "/d/nested"), vec![7u8; 3000]);
        let st = fs.stat("/d/nested").unwrap();
        assert_eq!(st.nlink, 1);
    }

    #[test]
    fn directory_sizes_are_block_multiples() {
        let mut fs = ext2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        let st = fs.stat("/d").unwrap();
        assert_eq!(st.size % 1024, 0);
        assert!(st.size >= 1024);
        write_file(&mut fs, "/d/x", b"");
        assert_eq!(fs.stat("/d").unwrap().size % 1024, 0);
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        // 1 KiB blocks, 12 direct => anything past 12 KiB exercises the
        // indirect path.
        let mut fs = ext2();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        write_file(&mut fs, "/big", &data);
        assert_eq!(read_file(&mut fs, "/big"), data);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/big"), data);
        let st = fs.stat("/big").unwrap();
        assert_eq!(st.size, 40_000);
        assert!(st.blocks >= 40_000 / 512);
        // Shrink and verify indirect blocks are reclaimed.
        let free_before = fs.statfs().unwrap().blocks_free;
        fs.truncate("/big", 100).unwrap();
        assert!(fs.statfs().unwrap().blocks_free > free_before + 30);
        assert_eq!(read_file(&mut fs, "/big"), data[..100].to_vec());
    }

    #[test]
    fn sparse_files_read_zeros() {
        let mut fs = ext2();
        let fd = fs.create("/sparse", FileMode::REG_DEFAULT).unwrap();
        fs.lseek(fd, 20_000).unwrap();
        fs.write(fd, b"tail").unwrap();
        fs.close(fd).unwrap();
        let content = read_file(&mut fs, "/sparse");
        assert_eq!(content.len(), 20_004);
        assert!(content[..20_000].iter().all(|&b| b == 0));
        assert_eq!(&content[20_000..], b"tail");
        // Sparse file allocates far fewer blocks than its size.
        let st = fs.stat("/sparse").unwrap();
        assert!(st.blocks < 20);
    }

    #[test]
    fn truncate_shrink_then_extend_zeroes() {
        let mut fs = ext2();
        write_file(&mut fs, "/f", &[0xEE; 2048]);
        fs.truncate("/f", 100).unwrap();
        fs.truncate("/f", 2048).unwrap();
        let content = read_file(&mut fs, "/f");
        assert_eq!(&content[..100], &[0xEE; 100][..]);
        assert!(content[100..].iter().all(|&b| b == 0), "no stale bytes");
    }

    #[test]
    fn enospc_on_data_exhaustion_is_atomic() {
        let mut fs = ext2();
        let free = fs.statfs().unwrap().blocks_free;
        let fd = fs.create("/hog", FileMode::REG_DEFAULT).unwrap();
        // Try to write more than the device holds.
        let huge = vec![1u8; (free as usize + 10) * 1024];
        assert_eq!(fs.write(fd, &huge), Err(Errno::ENOSPC));
        // Nothing was written (all-or-nothing).
        assert_eq!(fs.stat("/hog").unwrap().size, 0);
        // A fitting write still succeeds.
        assert_eq!(fs.write(fd, &vec![1u8; 1024]).unwrap(), 1024);
        fs.close(fd).unwrap();
    }

    #[test]
    fn enospc_on_inode_exhaustion() {
        let mut fs = ext2();
        let mut made = 0;
        loop {
            match fs.create(&format!("/f{made}"), FileMode::REG_DEFAULT) {
                Ok(fd) => {
                    fs.close(fd).unwrap();
                    made += 1;
                }
                Err(Errno::ENOSPC) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(made < 200, "should run out of inodes");
        }
        assert!(made >= 32);
        fs.unlink("/f0").unwrap();
        let fd = fs.create("/again", FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
    }

    #[test]
    fn journal_replays_after_crash() {
        // Commit a transaction to the journal, "crash" before checkpoint,
        // then mount and verify the metadata arrived.
        let mut fs = ext4();
        write_file(&mut fs, "/precrash", b"x");
        // Simulate the crash path below the FS: sync (which journals), then
        // scribble the dirty flag back and verify a remount replays cleanly.
        fs.sync().unwrap();
        let snap = fs.snapshot_device().unwrap();
        fs.unmount().unwrap();
        // Restore the mid-life image: superblock still marked dirty.
        fs.restore_device(&snap).unwrap();
        fs.mount().unwrap(); // must replay / fsck without error
        assert_eq!(read_file(&mut fs, "/precrash"), b"x");
    }

    #[test]
    fn journal_write_txn_then_mount_replays() {
        let mut fs = ext4();
        write_file(&mut fs, "/f", b"committed");
        fs.sync().unwrap();
        fs.unmount().unwrap();
        // Hand-craft a committed-but-unchecked journal txn that rewrites the
        // file's first data block.
        let cfg = ExtConfig::ext4();
        let dev = fs.device_mut();
        let mut sb_block = vec![0u8; cfg.block_size];
        dev.read_block(0, &mut sb_block).unwrap();
        let mut sb = SuperBlock::decode(&sb_block).unwrap();
        sb.flags |= SB_FLAG_DIRTY;
        sb.encode(&mut sb_block);
        dev.write_block(0, &sb_block).unwrap();
        let target = sb.data_start() + 3;
        journal::write_txn(dev, &sb, 42, &[(target, vec![0x5A; cfg.block_size])]).unwrap();
        fs.mount().unwrap();
        let mut c = fs.core().unwrap();
        assert_eq!(c.buf(target).unwrap(), vec![0x5A; 1024]);
    }

    #[test]
    fn cache_incoherency_after_external_restore() {
        // The §3.2 experiment: restore the device image under a mounted file
        // system and watch the stale caches corrupt observations; a remount
        // fixes it.
        let mut fs = ext2();
        fs.sync().unwrap();
        let snap = fs.snapshot_device().unwrap(); // state S0: empty
        write_file(&mut fs, "/after", b"created after snapshot");
        fs.sync().unwrap();
        // External rollback to S0 without telling the FS:
        fs.restore_device(&snap).unwrap();
        // The stale caches still show the file that no longer exists on disk.
        assert!(
            fs.stat("/after").is_ok(),
            "stale cache serves the discarded future"
        );
        // Remount (the paper's workaround) resolves the incoherency.
        // unmount() writes back stale dirty state; that is precisely the
        // corruption the paper saw, so drop caches by remount-without-sync:
        fs.m = None; // simulate the checker discarding in-memory state
        fs.mount().unwrap();
        assert_eq!(fs.stat("/after"), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_link_symlink_xattr_suite() {
        let mut fs = ext4();
        write_file(&mut fs, "/a", b"A");
        fs.rename("/a", "/b").unwrap();
        assert_eq!(read_file(&mut fs, "/b"), b"A");
        fs.link("/b", "/hard").unwrap();
        assert_eq!(fs.stat("/hard").unwrap().nlink, 2);
        assert_eq!(fs.stat("/hard").unwrap().ino, fs.stat("/b").unwrap().ino);
        fs.symlink("/b", "/sym").unwrap();
        assert_eq!(fs.readlink("/sym").unwrap(), "/b");
        assert_eq!(fs.stat("/sym").unwrap().ftype, FileType::Symlink);
        fs.setxattr("/b", "user.k", b"v", XattrFlags::Any).unwrap();
        assert_eq!(fs.getxattr("/b", "user.k").unwrap(), b"v");
        assert_eq!(fs.listxattr("/b").unwrap(), vec!["user.k"]);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        // All of it persists.
        assert_eq!(fs.getxattr("/b", "user.k").unwrap(), b"v");
        assert_eq!(fs.readlink("/sym").unwrap(), "/b");
        assert_eq!(fs.stat("/hard").unwrap().nlink, 2);
        fs.removexattr("/b", "user.k").unwrap();
        assert_eq!(fs.getxattr("/b", "user.k"), Err(Errno::ENODATA));
    }

    #[test]
    fn unlink_frees_space() {
        let mut fs = ext2();
        let before = fs.statfs().unwrap().blocks_free;
        write_file(&mut fs, "/f", &[1u8; 8192]);
        assert!(fs.statfs().unwrap().blocks_free < before);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.statfs().unwrap().blocks_free, before);
    }

    #[test]
    fn getdents_keeps_insertion_order() {
        let mut fs = ext2();
        for name in ["zz", "aa", "mm"] {
            write_file(&mut fs, &format!("/{name}"), b"");
        }
        let names: Vec<_> = fs
            .getdents("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["zz", "aa", "mm"], "creation order, not sorted");
    }

    #[test]
    fn mkfs_rejects_bad_geometry() {
        let disk = RamDisk::new(512, 256 * 1024).unwrap();
        assert!(ExtFs::format(disk, ExtConfig::ext2()).is_err()); // bs mismatch
        let tiny = RamDisk::new(1024, 8 * 1024).unwrap();
        assert!(ExtFs::format(tiny, ExtConfig::ext2()).is_err()); // too small
    }

    #[test]
    fn mount_rejects_unformatted_device() {
        let disk = RamDisk::new(1024, 256 * 1024).unwrap();
        let mut fs = ExtFs::open_device(disk, ExtConfig::ext2());
        assert_eq!(fs.mount(), Err(Errno::EIO));
    }

    #[test]
    fn mount_count_increments() {
        let mut fs = ext2();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        let m = fs.m.as_ref().unwrap();
        assert_eq!(m.sb.mount_count, 3);
    }

    #[test]
    fn usable_capacity_differs_between_variants() {
        // Same device size, but the journal steals data blocks from ext4 —
        // the "differing data capacity" false-positive source (paper §3.4).
        let e2 = {
            let mut fs = ext2();
            let s = fs.statfs().unwrap();
            fs.unmount().unwrap();
            s
        };
        let e4 = {
            let mut fs = ext4();
            let s = fs.statfs().unwrap();
            fs.unmount().unwrap();
            s
        };
        assert!(e2.blocks > e4.blocks);
        assert!(e2.blocks_free > e4.blocks_free);
    }
}

#[cfg(test)]
mod deep_tests {
    use super::*;
    use blockdev::RamDisk;

    fn big_ext2() -> ExtFs<RamDisk> {
        // 2 MiB device: room for double-indirect files (> 12 KiB + 256 KiB).
        let cfg = ExtConfig::ext2();
        let disk = RamDisk::new(cfg.block_size, 2 * 1024 * 1024).unwrap();
        let mut fs = ExtFs::format(disk, cfg).unwrap();
        fs.mount().unwrap();
        fs
    }

    #[test]
    fn double_indirect_blocks_roundtrip() {
        let mut fs = big_ext2();
        // 12 direct (12 KiB) + 256 indirect (256 KiB) exhausted at 268 KiB;
        // 400 KiB forces the double-indirect path.
        let data: Vec<u8> = (0..400_000u32).map(|i| (i % 239) as u8).collect();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &data).unwrap();
        fs.close(fd).unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        let fd = fs
            .open("/big", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = vec![0u8; data.len()];
        let mut read = 0;
        while read < buf.len() {
            let n = fs.read(fd, &mut buf[read..]).unwrap();
            assert!(n > 0);
            read += n;
        }
        fs.close(fd).unwrap();
        assert_eq!(buf, data);
        // Shrinking reclaims the double-indirect tree.
        let free_before = fs.statfs().unwrap().blocks_free;
        fs.truncate("/big", 0).unwrap();
        assert!(fs.statfs().unwrap().blocks_free > free_before + 390);
    }

    #[test]
    fn random_offset_writes_match_reference_model() {
        let mut fs = big_ext2();
        let fd = fs.create("/rnd", FileMode::REG_DEFAULT).unwrap();
        let mut model = vec![0u8; 0];
        // Deterministic pseudo-random offsets spanning indirect boundaries.
        let mut x = 12345u64;
        for i in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let offset = x % 300_000;
            let len = 1 + (x >> 32) % 3000;
            let byte = (i as u8).wrapping_mul(37).wrapping_add(1);
            fs.lseek(fd, offset).unwrap();
            fs.write(fd, &vec![byte; len as usize]).unwrap();
            let end = (offset + len) as usize;
            if end > model.len() {
                model.resize(end, 0);
            }
            model[offset as usize..end].fill(byte);
        }
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/rnd").unwrap().size, model.len() as u64);
        let fd = fs
            .open("/rnd", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut got = vec![0u8; model.len()];
        let mut read = 0;
        while read < got.len() {
            let n = fs.read(fd, &mut got[read..]).unwrap();
            assert!(n > 0);
            read += n;
        }
        fs.close(fd).unwrap();
        assert_eq!(got, model, "sparse random writes must match the model");
    }

    #[test]
    fn many_files_in_nested_directories() {
        let mut fs = big_ext2();
        for d in 0..5 {
            fs.mkdir(&format!("/d{d}"), FileMode::DIR_DEFAULT).unwrap();
            for f in 0..8 {
                let path = format!("/d{d}/f{f}");
                let fd = fs.create(&path, FileMode::REG_DEFAULT).unwrap();
                fs.write(fd, path.as_bytes()).unwrap();
                fs.close(fd).unwrap();
            }
        }
        fs.unmount().unwrap();
        fs.mount().unwrap();
        for d in 0..5 {
            assert_eq!(fs.getdents(&format!("/d{d}")).unwrap().len(), 8);
            for f in 0..8 {
                let path = format!("/d{d}/f{f}");
                assert_eq!(fs.stat(&path).unwrap().size, path.len() as u64);
            }
        }
        // Tear it all down; space returns.
        let free_mid = fs.statfs().unwrap().blocks_free;
        for d in 0..5 {
            for f in 0..8 {
                fs.unlink(&format!("/d{d}/f{f}")).unwrap();
            }
            fs.rmdir(&format!("/d{d}")).unwrap();
        }
        assert!(fs.statfs().unwrap().blocks_free > free_mid);
        assert!(fs.getdents("/").unwrap().is_empty());
    }

    #[test]
    fn rename_replace_reclaims_target_blocks() {
        let mut fs = big_ext2();
        let fd = fs.create("/small", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"tiny").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.create("/bulky", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &vec![9u8; 50_000]).unwrap();
        fs.close(fd).unwrap();
        let free_before = fs.statfs().unwrap().blocks_free;
        fs.rename("/small", "/bulky").unwrap();
        assert!(
            fs.statfs().unwrap().blocks_free > free_before + 40,
            "replaced file's blocks must be freed"
        );
        let fd = fs
            .open("/bulky", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = [0u8; 8];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(&buf[..n], b"tiny");
    }
}

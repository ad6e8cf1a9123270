//! Scan-and-repair fsck for the ext layout.
//!
//! Operates on the raw (unmounted) device image in five passes, e2fsck
//! style:
//!
//! 1. **Superblock & journal** — validate the superblock, replay (or
//!    discard) the write-ahead journal using the commit checksum.
//! 2. **Inode scan** — validate every inode: file type, pointer ranges,
//!    size bounds. This pass is CPU-bound and runs on a worker pool over
//!    inode ranges (pFSCK-style data parallelism); each worker charges its
//!    own virtual time and the pass costs the *maximum* over workers.
//!    A serial sub-pass then walks indirect trees, clearing invalid and
//!    doubly-claimed block pointers (cross-inode state, so serial).
//! 3. **Directory connectivity** — breadth-first walk from the root,
//!    salvaging corrupt directory content and dropping entries that point
//!    at free or mistyped inodes. Unreachable inodes are reconnected into
//!    `lost+found` when the volume has one, otherwise reclaimed.
//! 4. **Link counts** — recompute `nlink` from the surviving directory
//!    entries (worker pool over inode ranges).
//! 5. **Bitmaps & superblock** — rebuild both allocation bitmaps and the
//!    free counters from the surviving inodes, clear the dirty flag, and
//!    write everything back (block writes are deferred to this commit
//!    phase and flushed once, so a mid-repair power cut leaves a state
//!    from which a re-run converges to the same image).
//!
//! Repair never touches reachable user data: fixes are limited to
//! derivable metadata (pointers, link counts, bitmaps, counters) and to
//! data that is already unreachable.

use std::collections::{BTreeSet, HashMap, HashSet};

use blockdev::{BlockDevice, Clock};
use vfs::{Errno, FileMode, RepairReport, VfsResult};

use crate::dir::{self, DirRecord};
use crate::journal;
use crate::layout::{
    bitmap, DiskInode, SuperBlock, FT_DIR, FT_REG, FT_SYMLINK, INODE_SIZE, NDIRECT, SB_FLAG_DIRTY,
};

/// Virtual CPU cost of fully validating one inode (pass 2 worker pool).
const INODE_CHECK_NS: u64 = 6_000;
/// Virtual CPU cost of one link-count comparison (pass 4 worker pool).
const NLINK_CHECK_NS: u64 = 800;
/// Virtual CPU cost of validating one directory entry (pass 3, serial).
const DIRENT_CHECK_NS: u64 = 1_200;

/// Tuning knobs for a repair run.
#[derive(Debug, Clone, Default)]
pub struct FsckOptions {
    /// Worker threads for the parallelizable passes (0 or 1 = serial).
    pub workers: usize,
    /// Virtual clock the CPU cost of the passes accrues on. Device I/O is
    /// charged by the device wrapper itself (if any), not here.
    pub clock: Option<Clock>,
}

impl FsckOptions {
    /// Serial repair with no clock: the [`vfs::FileSystem::fsck`] default.
    pub fn serial() -> Self {
        FsckOptions::default()
    }

    /// Repair with `workers` threads charging `clock`.
    pub fn parallel(workers: usize, clock: Clock) -> Self {
        FsckOptions {
            workers,
            clock: Some(clock),
        }
    }
}

/// Charges `ns` of virtual CPU time, if a clock is attached.
fn charge(opts: &FsckOptions, ns: u64) {
    if let Some(clock) = &opts.clock {
        clock.advance_ns(ns);
    }
}

/// Splits `count` items into per-worker spans and returns the virtual
/// elapsed time of running them on the pool: the maximum per-worker cost.
fn pool_elapsed_ns(count: u64, per_item_ns: u64, workers: usize) -> u64 {
    let workers = workers.max(1) as u64;
    count.div_ceil(workers).saturating_mul(per_item_ns)
}

/// Buffered view of the device: every read is cached, every write is
/// deferred until [`Disk::commit`], which writes dirty blocks in ascending
/// order and flushes once.
struct Disk<'a, D: BlockDevice> {
    dev: &'a mut D,
    bs: usize,
    cache: HashMap<u32, Vec<u8>>,
    dirty: BTreeSet<u32>,
}

impl<'a, D: BlockDevice> Disk<'a, D> {
    fn new(dev: &'a mut D, bs: usize) -> Self {
        Disk {
            dev,
            bs,
            cache: HashMap::new(),
            dirty: BTreeSet::new(),
        }
    }

    fn get(&mut self, blk: u32) -> VfsResult<&Vec<u8>> {
        if !self.cache.contains_key(&blk) {
            let mut buf = vec![0u8; self.bs];
            self.dev
                .read_block(blk as u64, &mut buf)
                .map_err(|_| Errno::EIO)?;
            self.cache.insert(blk, buf);
        }
        Ok(&self.cache[&blk])
    }

    fn put(&mut self, blk: u32, data: Vec<u8>) {
        debug_assert_eq!(data.len(), self.bs);
        self.cache.insert(blk, data);
        self.dirty.insert(blk);
    }

    fn commit(&mut self) -> VfsResult<u64> {
        let mut written = 0;
        for blk in std::mem::take(&mut self.dirty) {
            let data = &self.cache[&blk];
            self.dev
                .write_block(blk as u64, data)
                .map_err(|_| Errno::EIO)?;
            written += 1;
        }
        self.dev.flush().map_err(|_| Errno::EIO)?;
        Ok(written)
    }
}

/// Validates one inode's local fields (CPU only — runs on the pass-2
/// worker pool). Returns human-readable fixes.
fn check_inode(ino: u32, inode: &mut DiskInode, sb: &SuperBlock) -> Vec<String> {
    let mut fixes = Vec::new();
    if !inode.in_use() {
        return fixes;
    }
    if !matches!(inode.ftype, FT_REG | FT_DIR | FT_SYMLINK) {
        *inode = DiskInode::free();
        fixes.push(format!("inode {ino}: invalid file type, cleared"));
        return fixes;
    }
    let lo = sb.data_start();
    let hi = sb.blocks_count;
    let ok = |b: u32| b == 0 || (lo..hi).contains(&b);
    for (i, d) in inode.direct.iter_mut().enumerate() {
        if !ok(*d) {
            *d = 0;
            fixes.push(format!("inode {ino}: direct[{i}] out of range, cleared"));
        }
    }
    if !ok(inode.indirect) {
        inode.indirect = 0;
        fixes.push(format!(
            "inode {ino}: indirect pointer out of range, cleared"
        ));
    }
    if !ok(inode.dindirect) {
        inode.dindirect = 0;
        fixes.push(format!(
            "inode {ino}: double-indirect pointer out of range, cleared"
        ));
    }
    if !ok(inode.xattr_block) {
        inode.xattr_block = 0;
        fixes.push(format!("inode {ino}: xattr pointer out of range, cleared"));
    }
    let p = (sb.block_size / 4) as u64;
    let max_bytes = (NDIRECT as u64 + p + p * p) * sb.block_size as u64;
    if inode.size > max_bytes {
        inode.size = max_bytes;
        fixes.push(format!("inode {ino}: size beyond maximum, clamped"));
    }
    fixes
}

/// The in-memory repair state threaded through the passes.
struct Repair {
    sb: SuperBlock,
    table: Vec<DiskInode>,
    /// Data blocks claimed per inode (file blocks, indirect blocks, xattr
    /// blocks) after pointer validation.
    claims: HashMap<u32, Vec<u32>>,
    /// Final directory contents for every reachable directory, plus a flag
    /// for "must be rewritten".
    dirs: HashMap<u32, (Vec<DirRecord>, bool)>,
    reachable: HashSet<u32>,
    report: RepairReport,
}

impl Repair {
    /// The data blocks holding logical block `i` of `ino`, post-validation
    /// (0 = hole).
    fn bmap<D: BlockDevice>(&self, disk: &mut Disk<'_, D>, ino: u32, i: u64) -> VfsResult<u32> {
        let inode = &self.table[ino as usize];
        let p = (self.sb.block_size / 4) as u64;
        if i < NDIRECT as u64 {
            return Ok(inode.direct[i as usize]);
        }
        let entry_at = |blk: &[u8], idx: u64| {
            let o = idx as usize * 4;
            u32::from_le_bytes([blk[o], blk[o + 1], blk[o + 2], blk[o + 3]])
        };
        let i = i - NDIRECT as u64;
        if i < p {
            if inode.indirect == 0 {
                return Ok(0);
            }
            let blk = disk.get(inode.indirect)?;
            return Ok(entry_at(blk, i));
        }
        let i = i - p;
        if inode.dindirect == 0 {
            return Ok(0);
        }
        let l1 = entry_at(disk.get(inode.dindirect)?, i / p);
        if l1 == 0 {
            return Ok(0);
        }
        let blk = disk.get(l1)?;
        Ok(entry_at(blk, i % p))
    }

    /// Reads the full content of `ino` (holes as zeros).
    fn read_content<D: BlockDevice>(&self, disk: &mut Disk<'_, D>, ino: u32) -> VfsResult<Vec<u8>> {
        let size = self.table[ino as usize].size as usize;
        let bs = self.sb.block_size as usize;
        let mut out = vec![0u8; size];
        for i in 0..size.div_ceil(bs) as u64 {
            let blk = self.bmap(disk, ino, i)?;
            if blk == 0 {
                continue;
            }
            let data = disk.get(blk)?.clone();
            let start = i as usize * bs;
            let end = (start + bs).min(size);
            out[start..end].copy_from_slice(&data[..end - start]);
        }
        Ok(out)
    }
}

/// Records `blk` as owned by `ino`, or reports a double claim and returns
/// false (the caller clears the pointer).
fn claim(
    blk: u32,
    ino: u32,
    what: &str,
    owner: &mut HashMap<u32, u32>,
    claims: &mut Vec<u32>,
    report: &mut RepairReport,
) -> bool {
    if let Some(prev) = owner.get(&blk) {
        report.fixed(format!(
            "inode {ino}: {what} block {blk} already claimed by inode {prev}, cleared"
        ));
        false
    } else {
        owner.insert(blk, ino);
        claims.push(blk);
        true
    }
}

/// Validates the entries of one indirect block, clearing out-of-range or
/// doubly-claimed pointers in place; returns the surviving entries.
fn scrub_indirect<D: BlockDevice>(
    disk: &mut Disk<'_, D>,
    blk: u32,
    ino: u32,
    sb: &SuperBlock,
    owner: &mut HashMap<u32, u32>,
    claims: &mut Vec<u32>,
    report: &mut RepairReport,
) -> VfsResult<Vec<u32>> {
    let (lo, hi) = (sb.data_start(), sb.blocks_count);
    let mut data = disk.get(blk)?.clone();
    let mut changed = false;
    let mut kept = Vec::new();
    for o in (0..data.len()).step_by(4) {
        let e = u32::from_le_bytes([data[o], data[o + 1], data[o + 2], data[o + 3]]);
        if e == 0 {
            continue;
        }
        let invalid = !(lo..hi).contains(&e);
        let duplicate = !invalid && owner.contains_key(&e);
        if invalid || duplicate {
            data[o..o + 4].fill(0);
            changed = true;
            report.fixed(format!(
                "inode {ino}: indirect entry {e} {}, cleared",
                if invalid {
                    "out of range"
                } else {
                    "doubly claimed"
                }
            ));
        } else {
            owner.insert(e, ino);
            claims.push(e);
            kept.push(e);
        }
    }
    if changed {
        disk.put(blk, data);
    }
    Ok(kept)
}

/// Pass 2b (serial): walk indirect trees, clear invalid or doubly-claimed
/// pointers, and record every block each inode claims.
fn claim_blocks<D: BlockDevice>(r: &mut Repair, disk: &mut Disk<'_, D>) -> VfsResult<()> {
    let sb = r.sb;
    let mut owner: HashMap<u32, u32> = HashMap::new();
    for ino in 1..sb.inodes_count {
        if !r.table[ino as usize].in_use() {
            continue;
        }
        let mut claims = Vec::new();
        let mut inode = r.table[ino as usize];
        for d in inode.direct.iter_mut() {
            if *d != 0 && !claim(*d, ino, "data", &mut owner, &mut claims, &mut r.report) {
                *d = 0;
            }
        }
        if inode.indirect != 0 {
            if claim(
                inode.indirect,
                ino,
                "indirect",
                &mut owner,
                &mut claims,
                &mut r.report,
            ) {
                scrub_indirect(
                    disk,
                    inode.indirect,
                    ino,
                    &sb,
                    &mut owner,
                    &mut claims,
                    &mut r.report,
                )?;
            } else {
                inode.indirect = 0;
            }
        }
        if inode.dindirect != 0 {
            if claim(
                inode.dindirect,
                ino,
                "double-indirect",
                &mut owner,
                &mut claims,
                &mut r.report,
            ) {
                let l1s = scrub_indirect(
                    disk,
                    inode.dindirect,
                    ino,
                    &sb,
                    &mut owner,
                    &mut claims,
                    &mut r.report,
                )?;
                for l1 in l1s {
                    scrub_indirect(disk, l1, ino, &sb, &mut owner, &mut claims, &mut r.report)?;
                }
            } else {
                inode.dindirect = 0;
            }
        }
        if inode.xattr_block != 0
            && !claim(
                inode.xattr_block,
                ino,
                "xattr",
                &mut owner,
                &mut claims,
                &mut r.report,
            )
        {
            inode.xattr_block = 0;
        }
        r.table[ino as usize] = inode;
        r.claims.insert(ino, claims);
    }
    Ok(())
}

/// Validates the content of one directory; returns the surviving entries
/// and whether the directory must be rewritten. `claimed_dirs` prevents a
/// directory from acquiring two parents.
fn check_dir_entries(
    ino: u32,
    content: &[u8],
    table: &[DiskInode],
    claimed_dirs: &mut HashSet<u32>,
    report: &mut RepairReport,
) -> (Vec<DirRecord>, bool) {
    let (records, truncated) = dir::salvage(content);
    if truncated {
        report.fixed(format!("directory {ino}: corrupt content, salvaged prefix"));
    }
    let mut seen = HashSet::new();
    let mut kept = Vec::new();
    let mut changed = truncated;
    for rec in records {
        report.items_scanned += 1;
        let target_ok = rec.ino != 0
            && (rec.ino as usize) < table.len()
            && table[rec.ino as usize].in_use()
            && table[rec.ino as usize].ftype == rec.ftype;
        let name_ok = !rec.name.is_empty()
            && rec.name.len() <= u8::MAX as usize
            && !rec.name.contains('/')
            && rec.name != "."
            && rec.name != "..";
        let fresh = name_ok && seen.insert(rec.name.clone());
        let single_parent = rec.ftype != FT_DIR || claimed_dirs.insert(rec.ino);
        if target_ok && fresh && single_parent {
            kept.push(rec);
        } else {
            report.fixed(format!(
                "directory {ino}: dropped entry {:?} -> inode {}",
                rec.name, rec.ino
            ));
            changed = true;
        }
    }
    (kept, changed)
}

/// Pass 3 worklist walk: validates directories reachable from `start` and
/// records their final contents.
fn walk_from<D: BlockDevice>(
    r: &mut Repair,
    disk: &mut Disk<'_, D>,
    claimed_dirs: &mut HashSet<u32>,
    start: u32,
    opts: &FsckOptions,
) -> VfsResult<()> {
    let mut queue = vec![start];
    r.reachable.insert(start);
    while let Some(ino) = queue.pop() {
        if r.table[ino as usize].ftype != FT_DIR || r.dirs.contains_key(&ino) {
            continue;
        }
        let content = r.read_content(disk, ino)?;
        let (kept, changed) =
            check_dir_entries(ino, &content, &r.table, claimed_dirs, &mut r.report);
        charge(opts, kept.len() as u64 * DIRENT_CHECK_NS);
        for rec in &kept {
            r.reachable.insert(rec.ino);
            if rec.ftype == FT_DIR {
                queue.push(rec.ino);
            }
        }
        r.dirs.insert(ino, (kept, changed));
    }
    Ok(())
}

/// Rewrites the content of directory `ino` from its final records, using
/// (and updating) the rebuilt block bitmap for allocation.
fn write_dir<D: BlockDevice>(
    r: &mut Repair,
    disk: &mut Disk<'_, D>,
    bbitmap: &mut [u8],
    ino: u32,
) -> VfsResult<()> {
    let bs = r.sb.block_size as usize;
    let records = r.dirs[&ino].0.clone();
    let content = dir::serialize(&records);
    let needed = content.len().div_ceil(bs);
    let mut inode = r.table[ino as usize];
    let mut blocks: Vec<u32> = inode.direct.iter().copied().filter(|&b| b != 0).collect();
    // Directory contents beyond the direct area are not rebuilt; with the
    // small namespaces this layout supports, `needed` never exceeds NDIRECT.
    let needed = needed.min(NDIRECT);
    while blocks.len() > needed {
        let b = blocks.pop().expect("nonempty");
        bitmap::clear(bbitmap, b);
    }
    while blocks.len() < needed {
        let Some(b) = bitmap::find_zero(bbitmap, r.sb.data_start(), r.sb.blocks_count) else {
            return Err(Errno::ENOSPC);
        };
        bitmap::set(bbitmap, b);
        blocks.push(b);
    }
    for (i, blk) in blocks.iter().enumerate() {
        let mut data = vec![0u8; bs];
        let start = i * bs;
        let end = ((i + 1) * bs).min(content.len());
        if start < content.len() {
            data[..end - start].copy_from_slice(&content[start..end]);
        }
        disk.put(*blk, data);
    }
    inode.direct = [0; NDIRECT];
    for (i, blk) in blocks.iter().enumerate() {
        inode.direct[i] = *blk;
    }
    inode.indirect = 0;
    inode.dindirect = 0;
    inode.size = content.len() as u64;
    inode.blocks = blocks.len() as u32;
    r.table[ino as usize] = inode;
    r.claims.insert(
        ino,
        blocks
            .iter()
            .copied()
            .chain(
                (r.table[ino as usize].xattr_block != 0)
                    .then_some(r.table[ino as usize].xattr_block),
            )
            .collect(),
    );
    Ok(())
}

/// Runs the full scan-and-repair pipeline on an unmounted device.
///
/// # Errors
///
/// `EIO` if the superblock is unreadable/invalid (nothing to anchor a
/// repair on) or the device fails mid-repair.
pub fn repair_device<D: BlockDevice>(dev: &mut D, opts: &FsckOptions) -> VfsResult<RepairReport> {
    let bs = dev.block_size();
    let mut report = RepairReport::default();

    // ---- pass 1: superblock & journal -----------------------------------
    let mut buf = vec![0u8; bs];
    dev.read_block(0, &mut buf).map_err(|_| Errno::EIO)?;
    let sb0 = SuperBlock::decode(&buf)?;
    if sb0.block_size as usize != bs {
        return Err(Errno::EIO);
    }
    if sb0.journal_blocks > 0 {
        let mut jh = vec![0u8; bs];
        dev.read_block(sb0.journal_start() as u64, &mut jh)
            .map_err(|_| Errno::EIO)?;
        let pending = jh[..4] == 0x4A52_4E31u32.to_le_bytes(); // JRN1
        let replayed = journal::replay(dev, &sb0)?;
        if replayed > 0 {
            report.fixed(format!("journal: replayed {replayed} committed blocks"));
        } else if pending {
            report.fixed("journal: discarded uncommitted or corrupt transaction");
        }
    }
    // Replay may have rewritten the superblock; re-read it (geometry fields
    // never change, so the pre-replay copy was safe to steer the replay).
    dev.read_block(0, &mut buf).map_err(|_| Errno::EIO)?;
    let sb = SuperBlock::decode(&buf)?;

    let mut disk = Disk::new(dev, bs);
    let ibitmap_disk = disk.get(1)?.clone();
    let bbitmap_disk = disk.get(2)?.clone();
    let mut table_raw = Vec::with_capacity(sb.inode_table_blocks() as usize * bs);
    for i in 0..sb.inode_table_blocks() {
        table_raw.extend_from_slice(disk.get(sb.inode_table_start() + i)?);
    }
    let mut table: Vec<DiskInode> = (0..sb.inodes_count as usize)
        .map(|i| DiskInode::decode(&table_raw[i * INODE_SIZE..(i + 1) * INODE_SIZE]))
        .collect();

    // ---- pass 2: inode scan (worker pool) -------------------------------
    report.items_scanned += sb.inodes_count as u64 - 1;
    let workers = opts.workers.max(1);
    let chunk = (table.len() - 1).div_ceil(workers);
    // mcfs-lint: allow(MC007, workers own disjoint table chunks and results merge in chunk order)
    let fixes: Vec<Vec<String>> = std::thread::scope(|s| {
        let sb_ref = &sb;
        let handles: Vec<_> = table[1..]
            .chunks_mut(chunk.max(1))
            .enumerate()
            .map(|(w, slice)| {
                s.spawn(move || {
                    let base = 1 + w * chunk.max(1);
                    slice
                        .iter_mut()
                        .enumerate()
                        .flat_map(|(i, inode)| check_inode((base + i) as u32, inode, sb_ref))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fsck worker"))
            .collect()
    });
    charge(
        opts,
        pool_elapsed_ns(sb.inodes_count as u64 - 1, INODE_CHECK_NS, workers),
    );
    for fix in fixes.into_iter().flatten() {
        report.fixed(fix);
    }

    let mut r = Repair {
        sb,
        table,
        claims: HashMap::new(),
        dirs: HashMap::new(),
        reachable: HashSet::new(),
        report,
    };
    claim_blocks(&mut r, &mut disk)?;

    // ---- pass 3: directory connectivity ---------------------------------
    if !r.table[1].in_use() || r.table[1].ftype != FT_DIR {
        r.table[1] = DiskInode::free();
        r.table[1].ftype = FT_DIR;
        r.table[1].mode = FileMode::DIR_DEFAULT.bits();
        r.table[1].nlink = 2;
        r.claims.insert(1, Vec::new());
        r.report.fixed("root inode invalid, recreated empty");
    }
    let mut claimed_dirs = HashSet::new();
    claimed_dirs.insert(1);
    walk_from(&mut r, &mut disk, &mut claimed_dirs, 1, opts)?;

    // Orphans: reconnect into lost+found when the volume has one (and it
    // survived the walk), otherwise reclaim. Reconnected directories make
    // their own subtrees reachable, so walk from each.
    let lost_found = r.dirs.get(&1).and_then(|(recs, _)| {
        dir::find(recs, "lost+found")
            .map(|rec| rec.ino)
            .filter(|&lf| r.table[lf as usize].ftype == FT_DIR && r.reachable.contains(&lf))
    });
    for ino in 2..r.sb.inodes_count {
        if !r.table[ino as usize].in_use() || r.reachable.contains(&ino) {
            continue;
        }
        match lost_found {
            Some(lf) if lf != ino => {
                let ftype = r.table[ino as usize].ftype;
                let entry = r.dirs.get_mut(&lf).expect("lost+found walked");
                entry.0.push(DirRecord {
                    ino,
                    ftype,
                    name: format!("#{ino}"),
                });
                entry.1 = true;
                r.report
                    .fixed(format!("orphan inode {ino} reconnected to lost+found"));
                if ftype == FT_DIR && claimed_dirs.insert(ino) {
                    walk_from(&mut r, &mut disk, &mut claimed_dirs, ino, opts)?;
                } else {
                    r.reachable.insert(ino);
                }
            }
            _ => {
                r.table[ino as usize] = DiskInode::free();
                r.claims.remove(&ino);
                r.report.fixed(format!("orphan inode {ino} reclaimed"));
            }
        }
    }
    // A second sweep: subtrees of dropped directories (or reclaim-mode
    // orphan dirs) may still hold now-unreachable inodes.
    loop {
        let mut changed = false;
        for ino in 2..r.sb.inodes_count {
            if r.table[ino as usize].in_use() && !r.reachable.contains(&ino) {
                r.table[ino as usize] = DiskInode::free();
                r.claims.remove(&ino);
                r.report.fixed(format!("unreachable inode {ino} reclaimed"));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 4: link counts (worker pool) ------------------------------
    let mut expected: Vec<u16> = vec![0; r.sb.inodes_count as usize];
    expected[1] = 2;
    for (dir_ino, (records, _)) in &r.dirs {
        for rec in records {
            expected[rec.ino as usize] = expected[rec.ino as usize].saturating_add(1);
            if rec.ftype == FT_DIR {
                // A subdirectory's ".." backlink counts toward the parent;
                // its own "." gives it a second link.
                expected[rec.ino as usize] = expected[rec.ino as usize].saturating_add(1);
                expected[*dir_ino as usize] = expected[*dir_ino as usize].saturating_add(1);
            }
        }
    }
    // mcfs-lint: allow(MC007, workers own disjoint table chunks and results merge in chunk order)
    let nlink_fixes: Vec<Vec<String>> = std::thread::scope(|s| {
        let expected = &expected;
        let reachable = &r.reachable;
        r.table[1..]
            .chunks_mut(chunk.max(1))
            .enumerate()
            .map(|(w, slice)| {
                s.spawn(move || {
                    let base = 1 + w * chunk.max(1);
                    let mut fixes = Vec::new();
                    for (i, inode) in slice.iter_mut().enumerate() {
                        let ino = (base + i) as u32;
                        if !inode.in_use() || !reachable.contains(&ino) {
                            continue;
                        }
                        let want = expected[ino as usize];
                        if inode.nlink != want {
                            fixes.push(format!(
                                "inode {ino}: link count {} should be {want}, fixed",
                                inode.nlink
                            ));
                            inode.nlink = want;
                        }
                    }
                    fixes
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("fsck worker"))
            .collect()
    });
    charge(
        opts,
        pool_elapsed_ns(r.sb.inodes_count as u64 - 1, NLINK_CHECK_NS, workers),
    );
    for fix in nlink_fixes.into_iter().flatten() {
        r.report.fixed(fix);
    }

    // ---- pass 5: bitmaps, counters, write-back --------------------------
    let mut ibitmap = vec![0u8; bs];
    let mut bbitmap = vec![0u8; bs];
    bitmap::set(&mut ibitmap, 0);
    for blk in 0..r.sb.data_start() {
        bitmap::set(&mut bbitmap, blk);
    }
    for ino in 1..r.sb.inodes_count {
        if !r.table[ino as usize].in_use() {
            continue;
        }
        bitmap::set(&mut ibitmap, ino);
        for blk in r.claims.get(&ino).into_iter().flatten() {
            bitmap::set(&mut bbitmap, *blk);
        }
    }
    // Rewrite changed directories (allocating from the rebuilt bitmap).
    let rewrite: Vec<u32> = r
        .dirs
        .iter()
        .filter(|(_, (_, changed))| *changed)
        .map(|(ino, _)| *ino)
        .collect();
    for ino in rewrite {
        write_dir(&mut r, &mut disk, &mut bbitmap, ino)?;
    }
    // Recompute per-inode block counts from the final claims.
    for ino in 1..r.sb.inodes_count {
        let inode = &mut r.table[ino as usize];
        if !inode.in_use() {
            continue;
        }
        let meta = [inode.indirect, inode.dindirect, inode.xattr_block];
        let data_blocks = r
            .claims
            .get(&ino)
            .map(|c| c.iter().filter(|b| !meta.contains(b)).count() as u32)
            .unwrap_or(0);
        if inode.blocks != data_blocks {
            inode.blocks = data_blocks;
            r.report.fixed(format!(
                "inode {ino}: block count corrected to {data_blocks}"
            ));
        }
    }
    if ibitmap != ibitmap_disk {
        r.report.fixed("inode bitmap rebuilt");
        disk.put(1, ibitmap.clone());
    }
    if bbitmap != bbitmap_disk {
        r.report.fixed("block bitmap rebuilt");
        disk.put(2, bbitmap.clone());
    }
    let mut sb = r.sb;
    sb.free_blocks =
        sb.data_blocks() - bitmap::count_ones(&bbitmap, sb.data_start(), sb.blocks_count);
    // Bit 0 is the reserved "no inode" sentinel and never counts as used
    // (mount's own recount starts at bit 1 for the same reason).
    sb.free_inodes = sb.inodes_count - bitmap::count_ones(&ibitmap, 1, sb.inodes_count);
    sb.flags &= !SB_FLAG_DIRTY;
    if sb != r.sb {
        // Free-count drift and the dirty flag are normal post-crash state;
        // count one fix only when the counters were actually wrong.
        if sb.free_blocks != r.sb.free_blocks || sb.free_inodes != r.sb.free_inodes {
            r.report.fixed("superblock free counters corrected");
        }
        let mut sb_block = vec![0u8; bs];
        sb.encode(&mut sb_block);
        disk.put(0, sb_block);
    }
    // Inode table write-back: only blocks whose bytes changed.
    let mut new_raw = vec![0u8; table_raw.len()];
    for (i, inode) in r.table.iter().enumerate() {
        inode.encode(&mut new_raw[i * INODE_SIZE..(i + 1) * INODE_SIZE]);
    }
    // Preserve raw bytes of slots past inodes_count (padding) as-is.
    let used = r.sb.inodes_count as usize * INODE_SIZE;
    new_raw[used..].copy_from_slice(&table_raw[used..]);
    for blk in 0..r.sb.inode_table_blocks() {
        let lo = blk as usize * bs;
        let hi = lo + bs;
        if new_raw[lo..hi] != table_raw[lo..hi] {
            disk.put(r.sb.inode_table_start() + blk, new_raw[lo..hi].to_vec());
        }
    }
    disk.commit()?;
    Ok(r.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtConfig, ExtFs};
    use blockdev::RamDisk;
    use vfs::{DeviceBacked, FileSystem, OpenFlags};

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

    fn put(fs: &mut ExtFs<RamDisk>, p: &str, data: &[u8]) {
        let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn get(fs: &mut ExtFs<RamDisk>, p: &str) -> Vec<u8> {
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

    /// Reads the superblock straight off the device.
    fn sb_of(fs: &mut ExtFs<RamDisk>) -> SuperBlock {
        let mut buf = vec![0u8; 1024];
        fs.device_mut().read_block(0, &mut buf).unwrap();
        SuperBlock::decode(&buf).unwrap()
    }

    /// Removes the named entry from the (unmounted) root directory on
    /// disk, orphaning its inode. Returns the orphaned inode number.
    fn drop_root_entry(fs: &mut ExtFs<RamDisk>, name: &str) -> u32 {
        let sb = sb_of(fs);
        let mut tbuf = vec![0u8; 1024];
        fs.device_mut()
            .read_block(sb.inode_table_start() as u64, &mut tbuf)
            .unwrap();
        let root = DiskInode::decode(&tbuf[INODE_SIZE..2 * INODE_SIZE]);
        let root_blk = root.direct[0] as u64;
        let mut buf = vec![0u8; 1024];
        fs.device_mut().read_block(root_blk, &mut buf).unwrap();
        let records = dir::parse(&buf[..root.size as usize]).unwrap();
        let target = dir::find(&records, name).unwrap().ino;
        let kept: Vec<_> = records.into_iter().filter(|r| r.name != name).collect();
        let content = dir::serialize(&kept);
        let mut block = vec![0u8; 1024];
        block[..content.len()].copy_from_slice(&content);
        fs.device_mut().write_block(root_blk, &block).unwrap();
        patch_inode(fs, 1, |inode| inode.size = content.len() as u64);
        target
    }

    /// Patch one inode in the on-disk table with `f`.
    fn patch_inode(fs: &mut ExtFs<RamDisk>, ino: u32, f: impl FnOnce(&mut DiskInode)) {
        let sb = sb_of(fs);
        let per_block = 1024 / INODE_SIZE;
        let blk = (sb.inode_table_start() + ino / per_block as u32) as u64;
        let off = (ino as usize % per_block) * INODE_SIZE;
        let mut buf = vec![0u8; 1024];
        fs.device_mut().read_block(blk, &mut buf).unwrap();
        let mut inode = DiskInode::decode(&buf[off..off + INODE_SIZE]);
        f(&mut inode);
        inode.encode(&mut buf[off..off + INODE_SIZE]);
        fs.device_mut().write_block(blk, &buf).unwrap();
    }

    #[test]
    fn clean_volume_needs_no_repairs() {
        let mut fs = ext4();
        put(&mut fs, "/a", b"data");
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        fs.unmount().unwrap();
        let report = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(report.is_clean(), "unexpected fixes: {:?}", report.fixes);
        // And again: fsck is a fixed point on a clean image.
        let again = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(again.is_clean());
        fs.mount().unwrap();
        assert_eq!(get(&mut fs, "/a"), b"data");
    }

    #[test]
    fn out_of_range_pointer_is_cleared() {
        let mut fs = ext2();
        put(&mut fs, "/f", &[7u8; 3000]);
        fs.unmount().unwrap();
        patch_inode(&mut fs, 2, |inode| inode.direct[1] = 0xFFFF);
        let report = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(report.repairs_made >= 1);
        assert!(report.fixes.iter().any(|f| f.contains("out of range")));
        // Idempotent: a second run finds nothing.
        let again = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(again.is_clean(), "second run: {:?}", again.fixes);
        // The file survives with a hole where the bad pointer was.
        fs.mount().unwrap();
        let data = get(&mut fs, "/f");
        assert_eq!(data.len(), 3000);
        assert_eq!(&data[..1024], &[7u8; 1024][..]);
        assert_eq!(&data[2048..], &[7u8; 952][..]);
    }

    #[test]
    fn orphan_inode_reclaimed_on_ext2() {
        let mut fs = ext2();
        put(&mut fs, "/keep", b"keep");
        put(&mut fs, "/doomed", b"doomed");
        fs.unmount().unwrap();
        // Remove the dirent by hand but leave the inode allocated: the
        // classic orphan. Root's content lives in its first direct block.
        drop_root_entry(&mut fs, "doomed");
        let report = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(report
            .fixes
            .iter()
            .any(|f| f.contains("orphan") && f.contains("reclaimed")));
        let again = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(again.is_clean(), "second run: {:?}", again.fixes);
        fs.mount().unwrap();
        assert_eq!(get(&mut fs, "/keep"), b"keep");
        assert_eq!(fs.stat("/doomed"), Err(Errno::ENOENT));
        // The orphan's inode and blocks are free again.
        let free = fs.statfs().unwrap();
        assert!(free.files_free > 0);
    }

    #[test]
    fn orphan_reconnected_to_lost_found_on_ext4() {
        let mut fs = ext4();
        put(&mut fs, "/keep", b"keep");
        put(&mut fs, "/stray", b"stray data");
        fs.unmount().unwrap();
        // Drop the "/stray" dirent from root, leaving the inode orphaned.
        let stray_ino = drop_root_entry(&mut fs, "stray");

        let report = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(report
            .fixes
            .iter()
            .any(|f| f.contains("reconnected to lost+found")));
        let again = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(again.is_clean(), "second run: {:?}", again.fixes);
        fs.mount().unwrap();
        // The data is reachable again under lost+found.
        let path = format!("/lost+found/#{stray_ino}");
        assert_eq!(get(&mut fs, &path), b"stray data");
    }

    #[test]
    fn dirent_to_free_inode_is_dropped() {
        let mut fs = ext2();
        put(&mut fs, "/real", b"x");
        fs.unmount().unwrap();
        let sb = sb_of(&mut fs);
        let mut tbuf = vec![0u8; 1024];
        fs.device_mut()
            .read_block(sb.inode_table_start() as u64, &mut tbuf)
            .unwrap();
        let root = DiskInode::decode(&tbuf[INODE_SIZE..2 * INODE_SIZE]);
        let root_blk = root.direct[0] as u64;
        let mut buf = vec![0u8; 1024];
        fs.device_mut().read_block(root_blk, &mut buf).unwrap();
        let mut records = dir::parse(&buf[..root.size as usize]).unwrap();
        records.push(DirRecord {
            ino: 40, // allocated? no — free slot
            ftype: FT_REG,
            name: "ghost".into(),
        });
        let content = dir::serialize(&records);
        let mut block = vec![0u8; 1024];
        block[..content.len()].copy_from_slice(&content);
        fs.device_mut().write_block(root_blk, &block).unwrap();
        patch_inode(&mut fs, 1, |inode| inode.size = content.len() as u64);

        let report = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(report.fixes.iter().any(|f| f.contains("dropped entry")));
        let again = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(again.is_clean(), "second run: {:?}", again.fixes);
        fs.mount().unwrap();
        assert_eq!(fs.stat("/ghost"), Err(Errno::ENOENT));
        assert_eq!(get(&mut fs, "/real"), b"x");
    }

    #[test]
    fn wrong_nlink_and_bitmaps_are_rebuilt() {
        let mut fs = ext2();
        put(&mut fs, "/f", b"y");
        fs.unmount().unwrap();
        patch_inode(&mut fs, 2, |inode| inode.nlink = 9);
        // Corrupt the block bitmap: mark a used block free.
        let mut bmap = vec![0u8; 1024];
        fs.device_mut().read_block(2, &mut bmap).unwrap();
        let sb = sb_of(&mut fs);
        bitmap::clear(&mut bmap, sb.data_start());
        fs.device_mut().write_block(2, &bmap).unwrap();

        let report = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(report.fixes.iter().any(|f| f.contains("link count")));
        assert!(report.fixes.iter().any(|f| f.contains("block bitmap")));
        let again = repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert!(again.is_clean(), "second run: {:?}", again.fixes);
        fs.mount().unwrap();
        assert_eq!(fs.stat("/f").unwrap().nlink, 1);
    }

    #[test]
    fn parallel_workers_match_serial_and_run_faster() {
        let make = || {
            let cfg = ExtConfig {
                inodes_count: 512,
                ..ExtConfig::ext2()
            };
            let disk = RamDisk::new(cfg.block_size, 1024 * 1024).unwrap();
            let mut fs = ExtFs::format(disk, cfg).unwrap();
            fs.mount().unwrap();
            for i in 0..40 {
                put(&mut fs, &format!("/f{i}"), &[i as u8; 600]);
            }
            fs.unmount().unwrap();
            patch_inode(&mut fs, 5, |inode| inode.nlink = 4);
            patch_inode(&mut fs, 9, |inode| inode.direct[0] = 0xBEEF);
            fs
        };
        let (mut a, mut b) = (make(), make());
        let (c1, c4) = (Clock::new(), Clock::new());
        let r1 = repair_device(a.device_mut(), &FsckOptions::parallel(1, c1.clone())).unwrap();
        let r4 = repair_device(b.device_mut(), &FsckOptions::parallel(4, c4.clone())).unwrap();
        assert_eq!(r1, r4, "worker count must not change the outcome");
        assert!(
            c4.now_ns() * 2 < c1.now_ns(),
            "4 workers should be at least 2x faster ({} vs {})",
            c4.now_ns(),
            c1.now_ns()
        );
        // Both images converge to the same bytes.
        let sa = a.device_mut().snapshot().unwrap();
        let sb_ = b.device_mut().snapshot().unwrap();
        assert_eq!(sa.to_vec(), sb_.to_vec());
    }

    #[test]
    fn fsck_clears_the_dirty_flag() {
        let mut fs = ext2();
        put(&mut fs, "/f", b"z");
        fs.sync().unwrap();
        // Crash: capture the mid-life (dirty-flagged) image, cleanly
        // unmount, then restore it — the disk looks like a power loss.
        let snap = fs.snapshot_device().unwrap();
        fs.unmount().unwrap();
        fs.restore_device(&snap).unwrap();
        assert_ne!(sb_of(&mut fs).flags & SB_FLAG_DIRTY, 0);
        repair_device(fs.device_mut(), &FsckOptions::serial()).unwrap();
        assert_eq!(sb_of(&mut fs).flags & SB_FLAG_DIRTY, 0);
        fs.mount().unwrap();
        assert_eq!(get(&mut fs, "/f"), b"z");
    }

    #[test]
    fn unformatted_device_is_not_repairable() {
        let mut dev = RamDisk::new(1024, 64 * 1024).unwrap();
        assert_eq!(
            repair_device(&mut dev, &FsckOptions::serial()),
            Err(Errno::EIO)
        );
    }
}

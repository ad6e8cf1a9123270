//! The JFFS2-style log-structured engine: scan, append, garbage-collect.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use blockdev::{BlockDevice, Clock, FaultPhase, MtdBlock, MtdDevice};
use vfs::{
    path, AccessMode, DeviceBacked, DirEntry, Errno, Fd, FdTable, FileMode, FileStat, FileSystem,
    FileType, FsCapabilities, Ino, OpenFlags, RepairReport, StatFs, VfsResult, XattrFlags,
};

use crate::log::{Node, FT_DIR, FT_REG, FT_SYMLINK};

const MAX_NLINK: u32 = 32_000;

/// Flash timing model charged to an optional virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct FlashTiming {
    /// Program cost per 256-byte page.
    pub program_ns_per_page: u64,
    /// Erase cost per erase block (the expensive part of flash).
    pub erase_ns: u64,
    /// Read cost per 4 KiB.
    pub read_ns_per_4k: u64,
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming {
            program_ns_per_page: 1_000,
            erase_ns: 2_000_000,
            read_ns_per_4k: 400,
        }
    }
}

/// Construction-time configuration.
#[derive(Debug, Clone)]
pub struct Jffs2Config {
    /// Erase blocks kept free as garbage-collection reserve.
    pub gc_reserve: usize,
    /// Flash timing model.
    pub timing: FlashTiming,
    /// Virtual clock for timing charges (`None` = untimed).
    pub clock: Option<Clock>,
}

impl Default for Jffs2Config {
    fn default() -> Self {
        Jffs2Config {
            gc_reserve: 2,
            timing: FlashTiming::default(),
            clock: None,
        }
    }
}

/// Location of a live node on flash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Loc {
    block: u32,
    offset: u32,
    len: u32,
}

/// A decoded node and where it lies, shared by the scan memo and every
/// index folded from it.
type ScannedNode = Arc<(Node, Loc)>;

/// An inode's whole content (files: data; symlinks: target bytes). A mount
/// leaves it unpainted, as the inode's nodes in version order, and the
/// bytes are painted from them when something first needs them, as real
/// JFFS2 builds an inode's fragment list on first read
/// (`jffs2_do_read_inode`), not during the scan.
#[derive(Debug, Clone)]
enum Content {
    Painted(Vec<u8>),
    Unpainted(Vec<ScannedNode>),
}

impl Default for Content {
    fn default() -> Self {
        Content::Painted(Vec::new())
    }
}

impl Content {
    /// The content's length; never paints.
    fn len(&self) -> usize {
        match self {
            Content::Painted(bytes) => bytes.len(),
            Content::Unpainted(nodes) => {
                nodes.last().map_or(0, |n| Extent::of(&n.0).isize as usize)
            }
        }
    }

    /// The bytes, painted on first use.
    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        if let Content::Unpainted(nodes) = self {
            *self = Content::Painted(paint_nodes(nodes));
        }
        let Content::Painted(bytes) = self else {
            unreachable!("painted above")
        };
        bytes
    }
}

/// Contents are equal when their bytes are, painted or not.
impl PartialEq for Content {
    fn eq(&self, other: &Self) -> bool {
        fn painted(c: &Content) -> Cow<'_, [u8]> {
            match c {
                Content::Painted(bytes) => Cow::Borrowed(bytes),
                Content::Unpainted(nodes) => Cow::Owned(paint_nodes(nodes)),
            }
        }
        painted(self) == painted(other)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct InodeInfo {
    ftype: u8,
    mode: u16,
    uid: u32,
    gid: u32,
    atime: u64,
    mtime: u64,
    ctime: u64,
    content: Content,
    /// Latest inode node (metadata winner).
    meta_loc: Loc,
    /// The data fragments of the latest content rewrite, in offset order.
    /// The last one may equal `meta_loc`; all must stay live or a rescan
    /// would lose content.
    data_locs: Vec<Loc>,
}

impl InodeInfo {
    /// Every flash location that must survive garbage collection.
    fn live_locs(&self) -> Vec<Loc> {
        let mut live = self.data_locs.clone();
        if !live.contains(&self.meta_loc) {
            live.push(self.meta_loc);
        }
        live
    }

    /// An inode node for `ino` carrying this index state and `data` at
    /// `offset`.
    fn node(
        &self,
        ino: u32,
        version: u64,
        offset: u64,
        rewrite: bool,
        data: Option<Vec<u8>>,
    ) -> Node {
        Node::Inode {
            ino,
            version,
            ftype: self.ftype,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
            isize: self.content.len() as u64,
            offset,
            rewrite,
            data,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct DirentInfo {
    /// Target inode; 0 is a live deletion marker (must survive GC so older
    /// positive dirents can never resurrect the name on rescan).
    ino: u32,
    ftype: u8,
    loc: Loc,
}

#[derive(Debug, Clone, PartialEq)]
struct XattrInfo {
    value: Vec<u8>,
    delete: bool,
    loc: Loc,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenFile {
    ino: u32,
    offset: u64,
    read: bool,
    write: bool,
    append: bool,
}

/// What a full-flash scan found: the rebuilt index plus everything the
/// scanner had to tolerate (used by [`FileSystem::fsck`] to report and
/// persist repairs; `mount` keeps only the index).
#[derive(Debug)]
struct ScanOutcome {
    m: Mounted,
    /// Nodes successfully decoded.
    nodes_seen: u64,
    /// `(erase block, bytes lost)` for every block whose node stream broke
    /// (CRC failure, torn program, garbage): the valid prefix is kept, the
    /// rest of the block is quarantined as dead space.
    quarantined: Vec<(u32, u32)>,
    /// Dirents dropped because their target inode has no inode node:
    /// `(parent, name, target, flash block holding the node)`.
    orphan_dirents: Vec<(u32, String, u32, u32)>,
}

/// What [`Node::decode`] made of one erase block: a pure function of the
/// block's bytes, so [`Jffs2Fs::scan`] reuses it while those bytes are
/// unchanged.
#[derive(Debug, Clone)]
struct BlockScan {
    /// The exact bytes decoded (the memo key): the device's own erase-block
    /// chunk. Holding it keeps it immutable, since the device copies a
    /// shared chunk before programming or erasing it, so an unchanged block
    /// is recognized by pointer.
    bytes: Arc<Vec<u8>>,
    /// The valid node stream, in flash order.
    nodes: Vec<ScannedNode>,
    /// Offset just past the valid node stream.
    end: u32,
    /// Bytes quarantined after an undecodable node, if the stream broke.
    quarantined: Option<u32>,
}

impl BlockScan {
    /// Decodes erase block `blk`. An inode node recording a file larger
    /// than the device (`max_size`, the cap `write` and `truncate` enforce)
    /// is as corrupt as one failing its CRC.
    fn decode(blk: u32, bytes: Arc<Vec<u8>>, max_size: u64) -> Self {
        let ebs = bytes.len();
        let mut nodes = Vec::new();
        let mut quarantined = None;
        let mut off = 0usize;
        while off < ebs {
            match Node::decode(&bytes[off..]) {
                Ok(Some((node, len))) if !matches!(node, Node::Inode { isize, .. } if isize > max_size) =>
                {
                    nodes.push(Arc::new((
                        node,
                        Loc {
                            block: blk,
                            offset: off as u32,
                            len: len as u32,
                        },
                    )));
                    off += len;
                }
                Ok(None) => break,
                Ok(Some(_)) | Err(_) => {
                    // The node stream is broken: without a trustworthy
                    // length field, every later offset in this block is
                    // suspect. Seal the block (so appends never program
                    // over the garbage) and quarantine the remainder;
                    // the valid prefix stays live.
                    quarantined = Some((ebs - off) as u32);
                    off = ebs;
                }
            }
        }
        BlockScan {
            bytes,
            nodes,
            end: off as u32,
            quarantined,
        }
    }
}

/// Rebuilds every inode from the inode nodes among `nodes` (all nodes, in
/// version order), adding the flash they waste to `dead`.
type InodeFold = fn(&[&ScannedNode], &mut [u32]) -> HashMap<u32, InodeInfo>;

impl ScanOutcome {
    /// Folds every block's decoded nodes into an index, applying them in
    /// version order so later nodes win (`fold_inodes` rebuilds the inodes;
    /// dirents and xattrs are folded here).
    fn fold(memo: &[Option<BlockScan>], fold_inodes: InodeFold) -> Self {
        let blocks: Vec<&BlockScan> = memo
            .iter()
            .map(|b| b.as_ref().expect("every block was scanned"))
            .collect();
        let num = blocks.len() as u32;
        let used: Vec<u32> = blocks.iter().map(|b| b.end).collect();
        let quarantined: Vec<(u32, u32)> = (0..num)
            .zip(&blocks)
            .filter_map(|(blk, b)| b.quarantined.map(|lost| (blk, lost)))
            .collect();
        let mut nodes: Vec<&ScannedNode> = blocks.iter().flat_map(|b| &b.nodes).collect();
        let nodes_seen = nodes.len();
        // Stable: equal versions (a GC copy whose source survived) keep
        // flash order.
        nodes.sort_by_key(|n| n.0.version());
        let mut dead = vec![0u32; num as usize];
        for &(blk, lost) in &quarantined {
            dead[blk as usize] += lost;
        }
        let inodes = fold_inodes(&nodes, &mut dead);
        let mut dirents: HashMap<(u32, String), DirentInfo> = HashMap::new();
        let mut xattrs: HashMap<(u32, String), XattrInfo> = HashMap::new();
        let mut max_version = 0u64;
        let mut max_ino = 1u32;
        for shared in nodes {
            let (ref node, loc) = **shared;
            max_version = max_version.max(node.version());
            match *node {
                Node::Inode { ino, .. } => max_ino = max_ino.max(ino),
                Node::Dirent {
                    parent,
                    ino,
                    ftype,
                    ref name,
                    ..
                } => {
                    max_ino = max_ino.max(ino);
                    if let Some(old) =
                        dirents.insert((parent, name.clone()), DirentInfo { ino, ftype, loc })
                    {
                        dead[old.loc.block as usize] += old.loc.len;
                    }
                }
                Node::Xattr {
                    ino,
                    delete,
                    ref name,
                    ref value,
                    ..
                } => {
                    let x = XattrInfo {
                        value: value.clone(),
                        delete,
                        loc,
                    };
                    if let Some(old) = xattrs.insert((ino, name.clone()), x) {
                        dead[old.loc.block as usize] += old.loc.len;
                    }
                }
            }
        }
        // Drop dirents whose target inode has no inode node on flash: a
        // crash between the dirent append and the inode append leaves a name
        // that resolves to nothing. The dead-marking makes GC reclaim the
        // node; fsck erases it eagerly so the repair is durable.
        let orphan_keys: Vec<(u32, String)> = dirents
            .iter()
            .filter(|(_, d)| d.ino != 0 && !inodes.contains_key(&d.ino))
            .map(|(k, _)| k.clone())
            .collect();
        let mut orphan_dirents = Vec::new();
        for key in orphan_keys {
            let d = dirents.remove(&key).expect("orphan key just collected");
            dead[d.loc.block as usize] += d.loc.len;
            orphan_dirents.push((key.0, key.1, d.ino, d.loc.block));
        }
        let clean: VecDeque<u32> = (0..num).filter(|&b| used[b as usize] == 0).collect();
        // Head: the non-clean block with the most tail space.
        let head = (0..num)
            .filter(|&b| used[b as usize] > 0)
            .min_by_key(|&b| used[b as usize])
            .unwrap_or(0);
        ScanOutcome {
            m: Mounted {
                inodes,
                dirents,
                xattrs,
                used,
                dead,
                clean,
                head,
                next_version: max_version + 1,
                next_ino: max_ino + 1,
                fds: FdTable::default(),
                time: max_version << 16,
            },
            nodes_seen: nodes_seen as u64,
            quarantined,
            orphan_dirents,
        }
    }
}

/// What an inode's content needs of one of its nodes.
struct Extent<'a> {
    /// File size after the node.
    isize: u64,
    offset: u64,
    data: Option<&'a [u8]>,
}

impl<'a> Extent<'a> {
    /// `node`'s extent; only inode nodes make up an inode's content.
    fn of(node: &'a Node) -> Self {
        match *node {
            Node::Inode {
                isize,
                offset,
                ref data,
                ..
            } => Extent {
                isize,
                offset,
                data: data.as_deref(),
            },
            Node::Dirent { .. } | Node::Xattr { .. } => unreachable!("not an inode node"),
        }
    }
}

/// The [`InodeFold`] of every mount. One pass in version order takes each
/// inode's metadata and `meta_loc` from its newest node and its
/// `data_locs` from the fragments since its last rewrite, and leaves its
/// content unpainted: the inode's nodes, for [`paint`] to turn into bytes
/// on first use. Every inode node was live when it was written, so its
/// space is dead unless it is still live at the end.
fn fold_inodes(nodes: &[&ScannedNode], dead: &mut [u32]) -> HashMap<u32, InodeInfo> {
    let mut rebuilt: HashMap<u32, (InodeInfo, Vec<ScannedNode>)> = HashMap::new();
    for &shared in nodes {
        let (ref node, loc) = **shared;
        let Node::Inode {
            ino,
            ftype,
            mode,
            uid,
            gid,
            atime,
            mtime,
            ctime,
            rewrite,
            ref data,
            ..
        } = *node
        else {
            continue;
        };
        dead[loc.block as usize] += loc.len;
        let (info, inode_nodes) = rebuilt.entry(ino).or_default();
        info.ftype = ftype;
        info.mode = mode;
        info.uid = uid;
        info.gid = gid;
        info.atime = atime;
        info.mtime = mtime;
        info.ctime = ctime;
        info.meta_loc = loc;
        if data.is_some() {
            if rewrite {
                // A rewrite starts: previous fragments die.
                info.data_locs.clear();
            }
            info.data_locs.push(loc);
        }
        inode_nodes.push(Arc::clone(shared));
    }
    rebuilt
        .into_iter()
        .map(|(ino, (mut info, inode_nodes))| {
            info.content = Content::Unpainted(inode_nodes);
            for loc in info.live_locs() {
                dead[loc.block as usize] -= loc.len;
            }
            (ino, info)
        })
        .collect()
}

/// An inode's content from its nodes' extents (oldest first), as replaying
/// every node's resize and fragment copy in version order would leave it.
/// A byte comes from the newest fragment covering it, provided it lies
/// below the size every later node recorded (a truncation zeroes what lies
/// past it); otherwise it is zero. Painting newest-first, with the painted
/// ranges kept as a sorted list of disjoint intervals, copies each live
/// byte once and stops as soon as no older fragment can show through.
fn paint(extents: &[Extent]) -> Vec<u8> {
    // Every size is within the device (`BlockScan::decode`) and every
    // fragment within its own node's size (`Node::decode`).
    let size = extents.last().map_or(0, |e| e.isize as usize);
    let mut content = vec![0u8; size];
    let mut bound = size;
    let mut painted: Vec<(usize, usize)> = Vec::new();
    for extent in extents.iter().rev() {
        bound = bound.min(extent.isize as usize);
        if matches!(painted.first(), Some(&(0, end)) if end >= bound) {
            break;
        }
        let Some(data) = extent.data else { continue };
        let lo = extent.offset as usize;
        let hi = (lo + data.len()).min(bound);
        if lo >= hi {
            continue;
        }
        // The painted intervals overlapping or touching [lo, hi).
        let first = painted.partition_point(|&(_, end)| end < lo);
        let last = first + painted[first..].partition_point(|&(start, _)| start <= hi);
        let mut at = lo;
        for &(start, end) in &painted[first..last] {
            if start > at {
                content[at..start].copy_from_slice(&data[at - lo..start - lo]);
            }
            at = at.max(end);
        }
        if at < hi {
            content[at..hi].copy_from_slice(&data[at - lo..hi - lo]);
        }
        let merged = if first < last {
            (lo.min(painted[first].0), hi.max(painted[last - 1].1))
        } else {
            (lo, hi)
        };
        painted.splice(first..last, [merged]);
    }
    content
}

/// [`paint`] over an inode's nodes (oldest first).
fn paint_nodes(nodes: &[ScannedNode]) -> Vec<u8> {
    let extents: Vec<Extent> = nodes.iter().map(|n| Extent::of(&n.0)).collect();
    paint(&extents)
}

#[derive(Debug, Clone, PartialEq)]
struct Mounted {
    inodes: HashMap<u32, InodeInfo>,
    dirents: HashMap<(u32, String), DirentInfo>,
    xattrs: HashMap<(u32, String), XattrInfo>,
    used: Vec<u32>,
    dead: Vec<u32>,
    clean: VecDeque<u32>,
    head: u32,
    next_version: u64,
    next_ino: u32,
    fds: FdTable<OpenFile>,
    time: u64,
}

/// A JFFS2-style file system on a simulated MTD device.
///
/// Construct with [`Jffs2Fs::format`], then [`mount`](FileSystem::mount)
/// (which scans the whole flash, as JFFS2 famously does).
#[derive(Debug, Clone)]
pub struct Jffs2Fs {
    dev: MtdBlock,
    config: Jffs2Config,
    m: Option<Mounted>,
    /// One entry per erase block: the last decode [`Self::scan`] made of
    /// it. Never a substitute for reading flash, only for re-decoding
    /// bytes identical to the ones already decoded.
    scan_memo: Vec<Option<BlockScan>>,
}

impl Jffs2Fs {
    /// Erases the MTD device and writes a fresh (empty) file system:
    /// a single root-inode node in erase block 0.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the device has fewer erase blocks than the GC reserve
    /// needs; `EIO` on flash failures.
    pub fn format(mut mtd: MtdDevice, config: Jffs2Config) -> VfsResult<Self> {
        if mtd.num_erase_blocks() < config.gc_reserve + 2 {
            return Err(Errno::EINVAL);
        }
        let ebs = mtd.erase_block_size() as u64;
        mtd.erase(0, ebs * mtd.num_erase_blocks() as u64)
            .map_err(|_| Errno::EIO)?;
        let root = Node::Inode {
            ino: 1,
            version: 1,
            ftype: FT_DIR,
            mode: FileMode::DIR_DEFAULT.bits(),
            uid: 0,
            gid: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            isize: 0,
            offset: 0,
            rewrite: false,
            data: None,
        };
        mtd.program(0, &root.encode()).map_err(|_| Errno::EIO)?;
        Self::open_device(mtd, config)
    }

    /// Attaches to already formatted flash.
    pub fn open_device(mtd: MtdDevice, config: Jffs2Config) -> VfsResult<Self> {
        let num_eb = mtd.num_erase_blocks();
        // 512-byte logical blocks for the snapshot interface.
        let dev = MtdBlock::new(mtd, 512).map_err(|_| Errno::EINVAL)?;
        Ok(Jffs2Fs {
            dev,
            config,
            m: None,
            scan_memo: vec![None; num_eb],
        })
    }

    /// Direct access to the flash translation layer (fault injection and
    /// assertions in tests).
    pub fn device_mut(&mut self) -> &mut MtdBlock {
        &mut self.dev
    }

    /// Wear level (erase counts) of the underlying flash, for reports.
    pub fn erase_counts(&self) -> Vec<u64> {
        (0..self.dev.mtd().num_erase_blocks())
            .map(|i| self.dev.mtd().erase_count(i))
            .collect()
    }

    fn ebs(&self) -> u32 {
        self.dev.mtd().erase_block_size() as u32
    }

    fn num_eb(&self) -> u32 {
        self.dev.mtd().num_erase_blocks() as u32
    }

    fn charge_read(&self, bytes: u64) {
        if let Some(c) = &self.config.clock {
            c.advance_ns(self.config.timing.read_ns_per_4k * bytes.div_ceil(4096));
        }
    }

    fn charge_program(&self, bytes: u64) {
        if let Some(c) = &self.config.clock {
            c.advance_ns(self.config.timing.program_ns_per_page * bytes.div_ceil(256));
        }
    }

    fn charge_erase(&self) {
        if let Some(c) = &self.config.clock {
            c.advance_ns(self.config.timing.erase_ns);
        }
    }

    fn read_raw(&self, loc: Loc) -> VfsResult<Vec<u8>> {
        let mut buf = vec![0u8; loc.len as usize];
        self.dev
            .mtd()
            .read(
                loc.block as u64 * self.ebs() as u64 + loc.offset as u64,
                &mut buf,
            )
            .map_err(|_| Errno::EIO)?;
        self.charge_read(loc.len as u64);
        Ok(buf)
    }

    fn m(&mut self) -> VfsResult<&mut Mounted> {
        self.m.as_mut().ok_or(Errno::ENODEV)
    }

    fn now(&mut self) -> VfsResult<u64> {
        let m = self.m()?;
        m.time += 1;
        Ok(m.time)
    }

    // ---- log append & GC ----------------------------------------------------

    /// Appends raw node bytes at the log head, switching to a clean erase
    /// block when the head is full. `during_gc` forbids recursive GC (the
    /// reserve guarantees GC itself always fits).
    fn append_raw(&mut self, bytes: &[u8], during_gc: bool) -> VfsResult<Loc> {
        let ebs = self.ebs();
        if bytes.len() as u32 > ebs {
            return Err(Errno::EFBIG);
        }
        loop {
            let (head, used) = {
                let m = self.m()?;
                (m.head, m.used[m.head as usize])
            };
            if used + bytes.len() as u32 <= ebs {
                let addr = head as u64 * ebs as u64 + used as u64;
                self.dev
                    .mtd_mut()
                    .program(addr, bytes)
                    .map_err(|_| Errno::EIO)?;
                self.charge_program(bytes.len() as u64);
                let m = self.m()?;
                m.used[head as usize] += bytes.len() as u32;
                return Ok(Loc {
                    block: head,
                    offset: used,
                    len: bytes.len() as u32,
                });
            }
            // Seal the head: the unusable tail is dead space.
            {
                let m = self.m()?;
                let tail = ebs - m.used[m.head as usize];
                m.dead[m.head as usize] += tail;
                m.used[m.head as usize] = ebs;
            }
            // Pick a clean block; keep the GC reserve unless we *are* GC.
            let reserve = if during_gc { 0 } else { self.config.gc_reserve };
            let popped = {
                let m = self.m()?;
                if m.clean.len() > reserve {
                    m.clean.pop_front()
                } else {
                    None
                }
            };
            match popped {
                Some(blk) => {
                    let m = self.m()?;
                    m.head = blk;
                    m.used[blk as usize] = 0;
                    m.dead[blk as usize] = 0;
                }
                None if during_gc => return Err(Errno::ENOSPC),
                None => {
                    self.gc()?;
                    // Re-check: if GC freed nothing, we are genuinely full.
                    let gc_reserve = self.config.gc_reserve;
                    let m = self.m()?;
                    if m.clean.len() <= gc_reserve
                        && m.used[m.head as usize] + bytes.len() as u32 > ebs
                    {
                        return Err(Errno::ENOSPC);
                    }
                }
            }
        }
    }

    /// Garbage-collects the dirtiest non-head erase block: copies its live
    /// nodes to the head, then erases it.
    fn gc(&mut self) -> VfsResult<()> {
        let victim = {
            let m = self.m()?;
            let head = m.head;
            (0..m.used.len() as u32)
                .filter(|&b| b != head && !m.clean.contains(&b) && m.used[b as usize] > 0)
                .max_by_key(|&b| m.dead[b as usize])
                .ok_or(Errno::ENOSPC)?
        };
        self.gc_block(victim)
    }

    /// Garbage-collects a specific erase block: copies its live nodes to the
    /// head, then erases it. Used by [`Self::gc`] for the dirtiest block and
    /// by `fsck` to scrub blocks holding quarantined or orphaned nodes.
    fn gc_block(&mut self, victim: u32) -> VfsResult<()> {
        {
            // If the victim is the current log head, seal it first so the
            // copies below land in a different block (copying into the block
            // about to be erased would destroy them).
            let ebs = self.ebs();
            let m = self.m()?;
            if m.head == victim {
                let tail = ebs - m.used[victim as usize];
                m.dead[victim as usize] += tail;
                m.used[victim as usize] = ebs;
            }
        }
        // Gather live locs in the victim.
        enum Entry {
            InodeMeta(u32),
            InodeData(u32, usize),
            Dirent(u32, String),
            Xattr(u32, String),
        }
        let mut moves: Vec<(Entry, Loc)> = Vec::new();
        {
            let m = self.m()?;
            for (&ino, info) in &m.inodes {
                if info.meta_loc.block == victim && !info.data_locs.contains(&info.meta_loc) {
                    moves.push((Entry::InodeMeta(ino), info.meta_loc));
                }
                for (i, loc) in info.data_locs.iter().enumerate() {
                    if loc.block == victim {
                        moves.push((Entry::InodeData(ino, i), *loc));
                    }
                }
            }
            for ((parent, name), d) in &m.dirents {
                if d.loc.block == victim {
                    moves.push((Entry::Dirent(*parent, name.clone()), d.loc));
                }
            }
            for ((ino, name), x) in &m.xattrs {
                if x.loc.block == victim {
                    moves.push((Entry::Xattr(*ino, name.clone()), x.loc));
                }
            }
        }
        for (entry, loc) in moves {
            let bytes = self.read_raw(loc)?;
            let new_loc = self.append_raw(&bytes, true)?;
            // Flash acks torn programs (power loss mid-write, lying
            // firmware). The erase below destroys the only other copy of
            // this node, so read the copy back before trusting it: on
            // mismatch, abort with the victim intact — the torn copy is
            // already-accounted dead space the next scan quarantines.
            if self.read_raw(new_loc)? != bytes {
                return Err(Errno::EIO);
            }
            let m = self.m()?;
            match entry {
                Entry::InodeMeta(ino) => {
                    m.inodes.get_mut(&ino).expect("live inode").meta_loc = new_loc;
                }
                Entry::InodeData(ino, i) => {
                    let info = m.inodes.get_mut(&ino).expect("live inode");
                    // A single node can be both a fragment and the meta
                    // winner.
                    if info.data_locs[i] == info.meta_loc {
                        info.meta_loc = new_loc;
                    }
                    info.data_locs[i] = new_loc;
                }
                Entry::Dirent(parent, name) => {
                    m.dirents.get_mut(&(parent, name)).expect("live dirent").loc = new_loc;
                }
                Entry::Xattr(ino, name) => {
                    m.xattrs.get_mut(&(ino, name)).expect("live xattr").loc = new_loc;
                }
            }
        }
        // Erase the victim.
        let ebs = self.ebs() as u64;
        self.dev
            .mtd_mut()
            .erase(victim as u64 * ebs, ebs)
            .map_err(|_| Errno::EIO)?;
        self.charge_erase();
        let m = self.m()?;
        m.used[victim as usize] = 0;
        m.dead[victim as usize] = 0;
        m.clean.push_back(victim);
        Ok(())
    }

    fn append_node(&mut self, node: &Node) -> VfsResult<Loc> {
        self.append_raw(&node.encode(), false)
    }

    fn kill(&mut self, loc: Loc) -> VfsResult<()> {
        let m = self.m()?;
        m.dead[loc.block as usize] += loc.len;
        Ok(())
    }

    fn alloc_version(&mut self) -> VfsResult<u64> {
        let m = self.m()?;
        m.next_version += 1;
        Ok(m.next_version)
    }

    fn alloc_ino(&mut self) -> VfsResult<u32> {
        let m = self.m()?;
        m.next_ino += 1;
        Ok(m.next_ino - 1)
    }

    // ---- index helpers --------------------------------------------------------

    fn info(&self, ino: u32) -> VfsResult<&InodeInfo> {
        self.m
            .as_ref()
            .ok_or(Errno::ENODEV)?
            .inodes
            .get(&ino)
            .ok_or(Errno::EIO)
    }

    fn info_mut(&mut self, ino: u32) -> VfsResult<&mut InodeInfo> {
        self.m()?.inodes.get_mut(&ino).ok_or(Errno::EIO)
    }

    fn lookup(&self, parent: u32, name: &str) -> VfsResult<Option<(u32, u8)>> {
        let m = self.m.as_ref().ok_or(Errno::ENODEV)?;
        if self.info(parent)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        match m.dirents.get(&(parent, name.to_string())) {
            Some(d) if d.ino != 0 => Ok(Some((d.ino, d.ftype))),
            _ => Ok(None),
        }
    }

    fn resolve(&self, p: &str) -> VfsResult<u32> {
        path::validate(p)?;
        let mut cur = Ino::ROOT.0 as u32;
        for comp in path::components(p) {
            match self.info(cur)?.ftype {
                FT_DIR => {}
                FT_SYMLINK => return Err(Errno::ELOOP),
                _ => return Err(Errno::ENOTDIR),
            }
            cur = self.lookup(cur, comp)?.ok_or(Errno::ENOENT)?.0;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, p: &'p str) -> VfsResult<(u32, &'p str)> {
        path::validate(p)?;
        let (parent, name) = path::split_parent(p)?;
        let parent_ino = self.resolve(&parent)?;
        if self.info(parent_ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent_ino, name))
    }

    fn children(&self, dir: u32) -> Vec<(String, u32, u8)> {
        let m = self.m.as_ref().expect("mounted");
        let mut out: Vec<(String, u32, u8)> = m
            .dirents
            .iter()
            .filter(|((p, _), d)| *p == dir && d.ino != 0)
            .map(|((_, n), d)| (n.clone(), d.ino, d.ftype))
            .collect();
        // JFFS2 readdir order follows the scan/hash table; model it as
        // version-insertion order via inode number then name.
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    fn nlink_of(&self, ino: u32) -> u32 {
        let m = self.m.as_ref().expect("mounted");
        let info = &m.inodes[&ino];
        if info.ftype == FT_DIR {
            let my_children = self
                .children(ino)
                .iter()
                .filter(|(_, c, _)| m.inodes.get(c).map(|i| i.ftype == FT_DIR).unwrap_or(false))
                .count();
            2 + my_children as u32
        } else {
            m.dirents.values().filter(|d| d.ino == ino).count() as u32
        }
    }

    /// Maximum content bytes per fragment node.
    fn frag_max(&self) -> usize {
        (self.ebs() as usize / 2).saturating_sub(256).max(256)
    }

    /// Writes fresh inode node(s) for `ino` with its current index state.
    /// With `with_data`, the whole content is rewritten as a sequence of
    /// fragment nodes (offset order, ascending versions).
    fn flush_inode(&mut self, ino: u32, with_data: bool) -> VfsResult<()> {
        let mut info = self.info(ino)?.clone();
        let old_live = info.live_locs();
        let (new_meta, new_data_locs) = if with_data {
            let frag_max = self.frag_max();
            let mut locs = Vec::new();
            let mut off = 0usize;
            loop {
                let content = info.content.bytes_mut();
                let end = (off + frag_max).min(content.len());
                let chunk = content[off..end].to_vec();
                let version = self.alloc_version()?;
                let node = info.node(ino, version, off as u64, off == 0, Some(chunk));
                locs.push(self.append_node(&node)?);
                off = end;
                if off >= info.content.len() {
                    break;
                }
            }
            (*locs.last().expect("at least one fragment"), Some(locs))
        } else {
            let version = self.alloc_version()?;
            let node = info.node(ino, version, 0, false, None);
            (self.append_node(&node)?, None)
        };
        let m = self.m()?;
        let entry = m.inodes.get_mut(&ino).expect("live inode");
        entry.meta_loc = new_meta;
        if let Some(locs) = new_data_locs {
            entry.data_locs = locs;
        }
        let new_live = entry.live_locs();
        for l in old_live {
            if !new_live.contains(&l) {
                self.kill(l)?;
            }
        }
        Ok(())
    }

    /// Appends incremental fragment nodes covering `[offset, offset+len)`
    /// of `ino`'s current content — the real-JFFS2 write path: only the
    /// changed range reaches flash. Compacts with a whole rewrite when the
    /// fragment list has grown long (bounding scan and GC work).
    fn flush_range(&mut self, ino: u32, offset: u64, len: u64) -> VfsResult<()> {
        // Compact long fragment chains with a whole rewrite — but only when
        // the log has room for the copy; otherwise keep appending fragments
        // (GC will reclaim the dead ones).
        if self.info(ino)?.data_locs.len() > 64 {
            let content_len = self.info(ino)?.content.len() as u64;
            if content_len + 1024 < self.free_bytes() {
                return self.flush_inode(ino, true);
            }
        }
        let mut info = self.info(ino)?.clone();
        let old_meta = info.meta_loc;
        let old_meta_live = info.data_locs.contains(&old_meta);
        let frag_max = self.frag_max();
        let end = (offset + len).min(info.content.len() as u64) as usize;
        let mut off = (offset as usize).min(end);
        let mut locs = Vec::new();
        loop {
            let stop = (off + frag_max).min(end);
            let chunk = info.content.bytes_mut()[off..stop].to_vec();
            let version = self.alloc_version()?;
            let node = info.node(ino, version, off as u64, false, Some(chunk));
            locs.push(self.append_node(&node)?);
            off = stop;
            if off >= end {
                break;
            }
        }
        let m = self.m()?;
        let entry = m.inodes.get_mut(&ino).expect("live inode");
        entry.meta_loc = *locs.last().expect("at least one fragment");
        entry.data_locs.extend(locs);
        if !old_meta_live {
            self.kill(old_meta)?;
        }
        Ok(())
    }

    fn write_dirent(&mut self, parent: u32, name: &str, ino: u32, ftype: u8) -> VfsResult<()> {
        let version = self.alloc_version()?;
        let node = Node::Dirent {
            parent,
            version,
            ino,
            ftype,
            name: name.to_string(),
        };
        let loc = self.append_node(&node)?;
        let m = self.m()?;
        let old = m
            .dirents
            .insert((parent, name.to_string()), DirentInfo { ino, ftype, loc });
        if let Some(old) = old {
            self.kill(old.loc)?;
        }
        Ok(())
    }

    fn maybe_drop_inode(&mut self, ino: u32) -> VfsResult<()> {
        let m = self.m()?;
        let referenced = m.dirents.values().any(|d| d.ino == ino);
        let open = m.fds.iter().any(|(_, of)| of.ino == ino);
        if referenced || open || ino == 1 {
            return Ok(());
        }
        if let Some(info) = m.inodes.remove(&ino) {
            // Drop its xattrs too.
            let stale: Vec<(u32, String)> = m
                .xattrs
                .keys()
                .filter(|(i, _)| *i == ino)
                .cloned()
                .collect();
            let mut dead_locs = info.live_locs();
            for key in stale {
                if let Some(x) = m.xattrs.remove(&key) {
                    dead_locs.push(x.loc);
                }
            }
            for loc in dead_locs {
                self.kill(loc)?;
            }
        }
        Ok(())
    }

    fn free_bytes(&self) -> u64 {
        let m = self.m.as_ref().expect("mounted");
        let ebs = self.dev.mtd().erase_block_size() as u64;
        let reserve = self.config.gc_reserve as u64 * ebs;
        let head_free = (self.ebs() - m.used[m.head as usize]) as u64;
        let clean = m.clean.len() as u64 * ebs;
        let reclaimable: u64 = m.dead.iter().map(|&d| d as u64).sum();
        (head_free + clean + reclaimable).saturating_sub(reserve)
    }
    /// Scans the whole flash and rebuilds the index, tolerating corruption:
    /// a block whose node stream breaks (bad CRC, torn program, garbage,
    /// an inconsistent node) keeps its valid prefix and quarantines the rest
    /// as dead space, and dirents whose target inode never made it to flash
    /// are dropped. Both conditions are recorded in the [`ScanOutcome`] so
    /// `fsck` can report and persist the repairs; `mount` applies them
    /// silently, as real JFFS2's scanner does.
    fn scan(&mut self) -> VfsResult<ScanOutcome> {
        let max_size = self.dev.mtd().size_bytes();
        // Full-device scan: every block is read and charged, but a block
        // whose bytes equal its memoized ones is not decoded again.
        for blk in 0..self.num_eb() {
            let bytes = self
                .dev
                .mtd()
                .read_erase_block(blk as usize)
                .map_err(|_| Errno::EIO)?;
            self.charge_read(bytes.len() as u64);
            match &mut self.scan_memo[blk as usize] {
                // The memo holds the chunk, so the device copied it before
                // any program or erase: the same chunk means the same bytes.
                Some(hit) if Arc::ptr_eq(&hit.bytes, &bytes) => {}
                // Equal bytes in another chunk (say, after a restore):
                // adopt it, so the next scan hits by pointer.
                Some(hit) if hit.bytes == bytes => hit.bytes = bytes,
                memo => *memo = Some(BlockScan::decode(blk, bytes, max_size)),
            }
        }
        Ok(ScanOutcome::fold(&self.scan_memo, fold_inodes))
    }

    /// The repair pipeline behind [`FileSystem::fsck`] (fault-phase
    /// bracketing and mount-state handling live in the trait method).
    ///
    /// Loops scan → scrub until a scan comes back clean: scrubbing a block
    /// can resurrect an older superseded node (the newer winner lived in the
    /// scrubbed block), so the log is rescanned until the index reaches a
    /// fixed point. Each pass erases whole blocks of garbage, so the loop
    /// strictly shrinks the log and terminates.
    fn repair(&mut self) -> VfsResult<RepairReport> {
        let mut report = RepairReport::default();
        let mut first = true;
        loop {
            self.m = None;
            let outcome = self.scan()?;
            if first {
                report.items_scanned = outcome.nodes_seen;
                if outcome.nodes_seen == 0 && outcome.quarantined.is_empty() {
                    return Err(Errno::EIO); // erased flash: nothing to repair
                }
                first = false;
            }
            for &(blk, lost) in &outcome.quarantined {
                report.fixed(format!(
                    "erase block {blk}: undecodable node stream, {lost} bytes quarantined"
                ));
            }
            for (parent, name, ino, _) in &outcome.orphan_dirents {
                report.fixed(format!(
                    "dirent {parent}:\"{name}\": target inode {ino} never written, dropped"
                ));
            }
            let mut scrub: BTreeSet<u32> =
                outcome.quarantined.iter().map(|&(blk, _)| blk).collect();
            scrub.extend(outcome.orphan_dirents.iter().map(|o| o.3));
            let missing_root = !outcome.m.inodes.contains_key(&1);
            self.m = Some(outcome.m);
            if !missing_root && scrub.is_empty() {
                return Ok(report);
            }
            if missing_root {
                // Root's inode node was lost (say, quarantined with its
                // block): recreate an empty root directory. Entries under it
                // survive — dirents carry the parent ino.
                let version = self.alloc_version()?;
                let node = Node::Inode {
                    ino: 1,
                    version,
                    ftype: FT_DIR,
                    mode: FileMode::DIR_DEFAULT.bits(),
                    uid: 0,
                    gid: 0,
                    atime: 0,
                    mtime: 0,
                    ctime: 0,
                    isize: 0,
                    offset: 0,
                    rewrite: false,
                    data: None,
                };
                let loc = self.append_node(&node)?;
                let m = self.m()?;
                m.inodes.insert(
                    1,
                    InodeInfo {
                        ftype: FT_DIR,
                        mode: FileMode::DIR_DEFAULT.bits(),
                        uid: 0,
                        gid: 0,
                        atime: 0,
                        mtime: 0,
                        ctime: 0,
                        content: Content::default(),
                        meta_loc: loc,
                        data_locs: Vec::new(),
                    },
                );
                report.fixed("root inode recreated");
            }
            // Physically scrub every block holding corrupt or orphaned
            // nodes so the repair is durable: live nodes are copied out,
            // the block is erased. A crash mid-scrub just leaves some
            // blocks for the re-run (convergence).
            for blk in scrub {
                self.gc_block(blk)?;
            }
        }
    }
}

impl FileSystem for Jffs2Fs {
    fn fs_name(&self) -> &str {
        "jffs2"
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
        let outcome = self.scan()?;
        if !outcome.m.inodes.contains_key(&1) {
            return Err(Errno::EIO); // no root: unformatted flash
        }
        self.m = Some(outcome.m);
        Ok(())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        // Log writes are synchronous; nothing to flush.
        self.m.take().map(|_| ()).ok_or(Errno::ENODEV)
    }

    fn is_mounted(&self) -> bool {
        self.m.is_some()
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.m().map(|_| ())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let m = self.m.as_ref().ok_or(Errno::ENODEV)?;
        let ebs = self.dev.mtd().erase_block_size() as u64;
        let total = ebs * self.num_eb() as u64;
        let free = self.free_bytes();
        Ok(StatFs {
            block_size: 4096,
            blocks: total / 4096,
            blocks_free: free / 4096,
            blocks_avail: free / 4096,
            files: u32::MAX as u64,
            files_free: u32::MAX as u64 - m.inodes.len() as u64,
            name_max: 254,
        })
    }

    fn create(&mut self, p: &str, mode: FileMode) -> VfsResult<Fd> {
        let (parent, name) = self.resolve_parent(p)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let node_overhead = 80 + name.len();
        if self.free_bytes() < node_overhead as u64 * 2 {
            return Err(Errno::ENOSPC);
        }
        let now = self.now()?;
        let ino = self.alloc_ino()?;
        let version = self.alloc_version()?;
        let node = Node::Inode {
            ino,
            version,
            ftype: FT_REG,
            mode: mode.bits(),
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            isize: 0,
            offset: 0,
            rewrite: true,
            data: Some(Vec::new()),
        };
        let loc = self.append_node(&node)?;
        self.m()?.inodes.insert(
            ino,
            InodeInfo {
                ftype: FT_REG,
                mode: mode.bits(),
                uid: 0,
                gid: 0,
                atime: now,
                mtime: now,
                ctime: now,
                content: Content::default(),
                meta_loc: loc,
                data_locs: vec![loc],
            },
        );
        self.write_dirent(parent, name, ino, FT_REG)?;
        self.m()?.fds.insert(OpenFile {
            ino,
            offset: 0,
            read: true,
            write: true,
            append: false,
        })
    }

    fn open(&mut self, p: &str, flags: OpenFlags, mode: FileMode) -> VfsResult<Fd> {
        path::validate(p)?;
        let ino = match self.resolve(p) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(Errno::EEXIST);
                }
                ino
            }
            Err(Errno::ENOENT) if flags.create => {
                let fd = self.create(p, mode)?;
                self.close(fd)?;
                self.resolve(p)?
            }
            Err(e) => return Err(e),
        };
        match self.info(ino)?.ftype {
            FT_SYMLINK => return Err(Errno::ELOOP),
            FT_DIR if flags.write => return Err(Errno::EISDIR),
            _ => {}
        }
        if flags.trunc && flags.write {
            self.info_mut(ino)?.content = Content::default();
            self.flush_inode(ino, true)?;
        }
        self.m()?.fds.insert(OpenFile {
            ino,
            offset: 0,
            read: flags.read || !flags.write,
            write: flags.write,
            append: flags.append,
        })
    }

    fn close(&mut self, fd: Fd) -> VfsResult<()> {
        let of = self.m()?.fds.remove(fd)?;
        self.maybe_drop_inode(of.ino)
    }

    fn read(&mut self, fd: Fd, out: &mut [u8]) -> VfsResult<usize> {
        let of = *self.m()?.fds.get(fd)?;
        if !of.read {
            return Err(Errno::EBADF);
        }
        if self.info(of.ino)?.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        let now = self.now()?;
        let m = self.m()?;
        let info = m.inodes.get_mut(&of.ino).expect("open file");
        let content = info.content.bytes_mut();
        let size = content.len() as u64;
        let start = of.offset.min(size) as usize;
        // `lseek` accepts any u64 offset: saturate the end position so a
        // read far past EOF is an empty read (POSIX), never a wrapped range.
        let end = of.offset.saturating_add(out.len() as u64).min(size) as usize;
        out[..end - start].copy_from_slice(&content[start..end]);
        info.atime = now;
        // atime updates stay in memory until the next node write, as JFFS2
        // (lazytime-style) does — flash writes per read would wear flash out.
        m.fds.get_mut(fd)?.offset += (end - start) as u64;
        self.charge_read((end - start) as u64);
        Ok(end - start)
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        let of = *self.m()?.fds.get(fd)?;
        if !of.write {
            return Err(Errno::EBADF);
        }
        if self.info(of.ino)?.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        let now = self.now()?;
        let (offset, new_len) = {
            let m = self.m()?;
            let info = m.inodes.get_mut(&of.ino).expect("open file");
            let offset = if of.append {
                info.content.len() as u64
            } else {
                of.offset
            };
            let end = offset.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
            (offset, end.max(info.content.len() as u64))
        };
        // The in-core content model is dense: a file cannot outgrow the
        // flash it must eventually be written to.
        if new_len > self.dev.mtd().size_bytes() {
            return Err(Errno::EFBIG);
        }
        // Incremental writes append fragment nodes: pre-check that the
        // written range (plus per-fragment headers) fits.
        let frags = (data.len() / self.frag_max() + 2) as u64;
        if data.len() as u64 + 96 * frags > self.free_bytes() {
            return Err(Errno::ENOSPC);
        }
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&of.ino).expect("open file");
            let content = info.content.bytes_mut();
            if new_len as usize > content.len() {
                content.resize(new_len as usize, 0);
            }
            content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
            info.mtime = now;
            info.ctime = now;
        }
        self.flush_range(of.ino, offset, data.len() as u64)?;
        self.m()?.fds.get_mut(fd)?.offset = offset + data.len() as u64;
        Ok(data.len())
    }

    fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64> {
        self.m()?.fds.get_mut(fd)?.offset = offset;
        Ok(offset)
    }

    fn truncate(&mut self, p: &str, size: u64) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        match self.info(ino)?.ftype {
            FT_DIR => return Err(Errno::EISDIR),
            FT_SYMLINK => return Err(Errno::EINVAL),
            _ => {}
        }
        if 128 > self.free_bytes() {
            return Err(Errno::ENOSPC);
        }
        if size > self.dev.mtd().size_bytes() {
            return Err(Errno::EFBIG);
        }
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.content.bytes_mut().resize(size as usize, 0);
            info.mtime = now;
            info.ctime = now;
        }
        // A metadata-only node carries the new size; scan replays the
        // resize in version order (extensions read back as zeros).
        self.flush_inode(ino, false)
    }

    fn mkdir(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        if self.free_bytes() < (160 + name.len()) as u64 {
            return Err(Errno::ENOSPC);
        }
        let now = self.now()?;
        let ino = self.alloc_ino()?;
        let version = self.alloc_version()?;
        let node = Node::Inode {
            ino,
            version,
            ftype: FT_DIR,
            mode: mode.bits(),
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            isize: 0,
            offset: 0,
            rewrite: false,
            data: None,
        };
        let loc = self.append_node(&node)?;
        self.m()?.inodes.insert(
            ino,
            InodeInfo {
                ftype: FT_DIR,
                mode: mode.bits(),
                uid: 0,
                gid: 0,
                atime: now,
                mtime: now,
                ctime: now,
                content: Content::default(),
                meta_loc: loc,
                data_locs: Vec::new(),
            },
        );
        self.write_dirent(parent, name, ino, FT_DIR)
    }

    fn rmdir(&mut self, p: &str) -> VfsResult<()> {
        if path::is_root(p) {
            return Err(Errno::EBUSY);
        }
        let (parent, name) = self.resolve_parent(p)?;
        let (ino, _) = self.lookup(parent, name)?.ok_or(Errno::ENOENT)?;
        if self.info(ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        if !self.children(ino).is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        // Deletion dirent.
        self.write_dirent(parent, name, 0, FT_DIR)?;
        self.maybe_drop_inode(ino)
    }

    fn unlink(&mut self, p: &str) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        let (ino, ftype) = self.lookup(parent, name)?.ok_or(Errno::ENOENT)?;
        if ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        self.write_dirent(parent, name, 0, ftype)?;
        self.maybe_drop_inode(ino)
    }

    fn stat(&mut self, p: &str) -> VfsResult<FileStat> {
        let ino = self.resolve(p)?;
        let nlink = self.nlink_of(ino);
        let info = self.info(ino)?;
        let (ftype, size) = match info.ftype {
            FT_REG => (FileType::Regular, info.content.len() as u64),
            // JFFS2 directories report size 0 — a third sizing convention
            // next to ext (block multiple) and VeriFS (entry based).
            FT_DIR => (FileType::Directory, 0),
            FT_SYMLINK => (FileType::Symlink, info.content.len() as u64),
            _ => return Err(Errno::EIO),
        };
        Ok(FileStat {
            ino: Ino(ino as u64),
            ftype,
            mode: FileMode::new(info.mode),
            nlink,
            uid: info.uid,
            gid: info.gid,
            size,
            blocks: (info.content.len() as u64).div_ceil(512),
            atime: info.atime,
            mtime: info.mtime,
            ctime: info.ctime,
        })
    }

    fn getdents(&mut self, p: &str) -> VfsResult<Vec<DirEntry>> {
        let ino = self.resolve(p)?;
        if self.info(ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        let now = self.now()?;
        let entries = self.children(ino);
        let m = self.m()?;
        m.inodes.get_mut(&ino).expect("resolved").atime = now;
        entries
            .into_iter()
            .map(|(name, e_ino, ftype)| {
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
        let ino = self.resolve(p)?;
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.mode = mode.bits();
            info.ctime = now;
        }
        self.flush_inode(ino, false)
    }

    fn chown(&mut self, p: &str, uid: u32, gid: u32) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.uid = uid;
            info.gid = gid;
            info.ctime = now;
        }
        self.flush_inode(ino, false)
    }

    fn utimens(&mut self, p: &str, atime: u64, mtime: u64) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.atime = atime;
            info.mtime = mtime;
            info.ctime = now;
        }
        self.flush_inode(ino, false)
    }

    fn rename(&mut self, src: &str, dst: &str) -> VfsResult<()> {
        path::validate(src)?;
        path::validate(dst)?;
        if src == dst {
            self.resolve(src)?;
            return Ok(());
        }
        if path::is_same_or_descendant(src, dst) {
            return Err(Errno::EINVAL);
        }
        let (sparent, sname) = self.resolve_parent(src)?;
        let (src_ino, src_ftype) = self.lookup(sparent, sname)?.ok_or(Errno::ENOENT)?;
        let (dparent, dname) = self.resolve_parent(dst)?;
        let src_is_dir = src_ftype == FT_DIR;
        if let Some((dst_ino, dst_ftype)) = self.lookup(dparent, dname)? {
            if dst_ino == src_ino {
                return Ok(());
            }
            let dst_is_dir = dst_ftype == FT_DIR;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(Errno::ENOTDIR),
                (false, true) => return Err(Errno::EISDIR),
                (true, true) if !self.children(dst_ino).is_empty() => return Err(Errno::ENOTEMPTY),
                _ => {}
            }
            // Target replacement happens implicitly: the new dirent wins.
            self.write_dirent(dparent, dname, src_ino, src_ftype)?;
            self.write_dirent(sparent, sname, 0, src_ftype)?;
            self.maybe_drop_inode(dst_ino)?;
        } else {
            self.write_dirent(dparent, dname, src_ino, src_ftype)?;
            self.write_dirent(sparent, sname, 0, src_ftype)?;
        }
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> VfsResult<()> {
        let src_ino = self.resolve(existing)?;
        let ftype = self.info(src_ino)?.ftype;
        if ftype == FT_DIR {
            return Err(Errno::EPERM);
        }
        if self.nlink_of(src_ino) >= MAX_NLINK {
            return Err(Errno::EMLINK);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        self.write_dirent(parent, name, src_ino, ftype)
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> VfsResult<()> {
        if target.is_empty() || target.len() > path::PATH_MAX {
            return Err(Errno::EINVAL);
        }
        let (parent, name) = self.resolve_parent(linkpath)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let now = self.now()?;
        let ino = self.alloc_ino()?;
        let version = self.alloc_version()?;
        let node = Node::Inode {
            ino,
            version,
            ftype: FT_SYMLINK,
            mode: 0o777,
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            isize: target.len() as u64,
            offset: 0,
            rewrite: true,
            data: Some(target.as_bytes().to_vec()),
        };
        let loc = self.append_node(&node)?;
        self.m()?.inodes.insert(
            ino,
            InodeInfo {
                ftype: FT_SYMLINK,
                mode: 0o777,
                uid: 0,
                gid: 0,
                atime: now,
                mtime: now,
                ctime: now,
                content: Content::Painted(target.as_bytes().to_vec()),
                meta_loc: loc,
                data_locs: vec![loc],
            },
        );
        self.write_dirent(parent, name, ino, FT_SYMLINK)
    }

    fn readlink(&mut self, p: &str) -> VfsResult<String> {
        let ino = self.resolve(p)?;
        let info = self.info_mut(ino)?;
        if info.ftype != FT_SYMLINK {
            return Err(Errno::EINVAL);
        }
        String::from_utf8(info.content.bytes_mut().clone()).map_err(|_| Errno::EIO)
    }

    fn access(&mut self, p: &str, mode: AccessMode) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let bits = FileMode::new(self.info(ino)?.mode);
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
        let ino = self.resolve(p)?;
        let exists = {
            let m = self.m()?;
            m.xattrs
                .get(&(ino, name.to_string()))
                .map(|x| !x.delete)
                .unwrap_or(false)
        };
        match flags {
            XattrFlags::Create if exists => return Err(Errno::EEXIST),
            XattrFlags::Replace if !exists => return Err(Errno::ENODATA),
            _ => {}
        }
        let version = self.alloc_version()?;
        let node = Node::Xattr {
            ino,
            version,
            delete: false,
            name: name.to_string(),
            value: value.to_vec(),
        };
        let loc = self.append_node(&node)?;
        let m = self.m()?;
        if let Some(old) = m.xattrs.insert(
            (ino, name.to_string()),
            XattrInfo {
                value: value.to_vec(),
                delete: false,
                loc,
            },
        ) {
            self.kill(old.loc)?;
        }
        Ok(())
    }

    fn getxattr(&mut self, p: &str, name: &str) -> VfsResult<Vec<u8>> {
        let ino = self.resolve(p)?;
        let m = self.m()?;
        match m.xattrs.get(&(ino, name.to_string())) {
            Some(x) if !x.delete => Ok(x.value.clone()),
            _ => Err(Errno::ENODATA),
        }
    }

    fn listxattr(&mut self, p: &str) -> VfsResult<Vec<String>> {
        let ino = self.resolve(p)?;
        let m = self.m()?;
        let mut names: Vec<String> = m
            .xattrs
            .iter()
            .filter(|((i, _), x)| *i == ino && !x.delete)
            .map(|((_, n), _)| n.clone())
            .collect();
        names.sort();
        Ok(names)
    }

    fn removexattr(&mut self, p: &str, name: &str) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let exists = {
            let m = self.m()?;
            m.xattrs
                .get(&(ino, name.to_string()))
                .map(|x| !x.delete)
                .unwrap_or(false)
        };
        if !exists {
            return Err(Errno::ENODATA);
        }
        let version = self.alloc_version()?;
        let node = Node::Xattr {
            ino,
            version,
            delete: true,
            name: name.to_string(),
            value: Vec::new(),
        };
        let loc = self.append_node(&node)?;
        let m = self.m()?;
        if let Some(old) = m.xattrs.insert(
            (ino, name.to_string()),
            XattrInfo {
                value: Vec::new(),
                delete: true,
                loc,
            },
        ) {
            self.kill(old.loc)?;
        }
        Ok(())
    }

    fn supports_fsck(&self) -> bool {
        true
    }

    fn fsck(&mut self) -> VfsResult<RepairReport> {
        let was_mounted = self.m.is_some();
        self.m = None;
        self.dev.set_fault_phase(FaultPhase::Repair);
        let result = self.repair();
        self.dev.set_fault_phase(FaultPhase::Normal);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                // A failed repair may abort with a partially scanned index
                // installed; keeping it would make the volume look mounted
                // and wedge every later mount with EBUSY.
                self.m = None;
                return Err(e);
            }
        };
        // `repair` leaves the freshly scanned index installed; keep it only
        // if the caller had the volume mounted.
        if !was_mounted {
            self.m = None;
        }
        Ok(report)
    }
}

impl DeviceBacked for Jffs2Fs {
    fn snapshot_device(&mut self) -> VfsResult<blockdev::DeviceSnapshot> {
        self.dev.snapshot().map_err(|_| Errno::EIO)
    }

    fn restore_device(&mut self, snapshot: &blockdev::DeviceSnapshot) -> VfsResult<()> {
        self.dev.restore(snapshot).map_err(|_| Errno::EIO)
    }

    fn device_size_bytes(&self) -> u64 {
        self.dev.mtd().size_bytes()
    }

    fn crash_reboot(&mut self) -> VfsResult<()> {
        // Power fails: the in-core image is lost, the flash keeps whatever
        // nodes were programmed (log writes are synchronous), and the next
        // mount's full-device scan rebuilds the file system from them.
        self.m = None;
        self.dev.power_cut().map_err(|_| Errno::EIO)?;
        self.mount()
    }
}

/// The forward replay mounts used before [`fold_inodes`]: every inode node's
/// resize and fragment copy applied in version order, with the dead space
/// of whatever each node supersedes counted as it goes. Kept as the
/// reference the fold is tested against.
#[cfg(test)]
fn replay_inodes(nodes: &[&ScannedNode], dead: &mut [u32]) -> HashMap<u32, InodeInfo> {
    let mut inodes: HashMap<u32, InodeInfo> = HashMap::new();
    for &shared in nodes {
        let (ref node, loc) = **shared;
        let Node::Inode {
            ino,
            ftype,
            mode,
            uid,
            gid,
            atime,
            mtime,
            ctime,
            isize,
            offset,
            rewrite,
            ref data,
            ..
        } = *node
        else {
            continue;
        };
        match inodes.get_mut(&ino) {
            Some(info) => {
                let old_live = info.live_locs();
                info.ftype = ftype;
                info.mode = mode;
                info.uid = uid;
                info.gid = gid;
                info.atime = atime;
                info.mtime = mtime;
                info.ctime = ctime;
                // Every node carries the file size at its time:
                // metadata-only nodes implement truncate.
                let content = info.content.bytes_mut();
                content.resize(isize as usize, 0);
                if let Some(d) = data {
                    let end = (offset as usize + d.len()).min(content.len());
                    let n = end.saturating_sub(offset as usize);
                    content[offset as usize..end].copy_from_slice(&d[..n]);
                    if rewrite {
                        // A rewrite starts: previous fragments die.
                        info.data_locs = vec![loc];
                    } else {
                        info.data_locs.push(loc);
                    }
                }
                info.meta_loc = loc;
                let new_live = info.live_locs();
                for l in old_live {
                    if !new_live.contains(&l) {
                        dead[l.block as usize] += l.len;
                    }
                }
            }
            None => {
                let mut content = vec![0u8; isize as usize];
                let has_data = data.is_some();
                if let Some(d) = data {
                    let end = (offset as usize + d.len()).min(content.len());
                    let n = end.saturating_sub(offset as usize);
                    content[offset as usize..end].copy_from_slice(&d[..n]);
                }
                inodes.insert(
                    ino,
                    InodeInfo {
                        ftype,
                        mode,
                        uid,
                        gid,
                        atime,
                        mtime,
                        ctime,
                        content: Content::Painted(content),
                        meta_loc: loc,
                        data_locs: if has_data { vec![loc] } else { Vec::new() },
                    },
                );
            }
        }
    }
    inodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jffs2() -> Jffs2Fs {
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 16).unwrap();
        fs.mount().unwrap();
        fs
    }

    fn write_file(fs: &mut Jffs2Fs, p: &str, data: &[u8]) {
        let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn read_file(fs: &mut Jffs2Fs, p: &str) -> Vec<u8> {
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
    fn roundtrip_and_rescan() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"flash data");
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/g", &[5u8; 2000]);
        fs.unmount().unwrap();
        fs.mount().unwrap(); // full rescan
        assert_eq!(read_file(&mut fs, "/f"), b"flash data");
        assert_eq!(read_file(&mut fs, "/d/g"), vec![5u8; 2000]);
        assert_eq!(fs.stat("/d").unwrap().ftype, FileType::Directory);
    }

    #[test]
    fn deletion_markers_survive_rescan() {
        let mut fs = jffs2();
        write_file(&mut fs, "/gone", b"data");
        fs.unlink("/gone").unwrap();
        assert_eq!(fs.stat("/gone"), Err(Errno::ENOENT));
        fs.unmount().unwrap();
        fs.mount().unwrap();
        // The deletion dirent must win over the older positive dirent.
        assert_eq!(fs.stat("/gone"), Err(Errno::ENOENT));
        // And the name is reusable.
        write_file(&mut fs, "/gone", b"new");
        assert_eq!(read_file(&mut fs, "/gone"), b"new");
    }

    #[test]
    fn versions_pick_latest_content() {
        let mut fs = jffs2();
        write_file(&mut fs, "/v", b"one");
        let fd = fs
            .open("/v", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, b"two").unwrap();
        fs.close(fd).unwrap();
        fs.chmod("/v", FileMode::new(0o600)).unwrap(); // metadata-only node
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/v"), b"two");
        assert_eq!(fs.stat("/v").unwrap().mode, FileMode::new(0o600));
    }

    #[test]
    fn gc_reclaims_and_wears_flash() {
        let mut fs = jffs2();
        // Overwrite one file many times: forces GC across erase blocks.
        for round in 0..200 {
            let fd = fs
                .open(
                    "/churn",
                    OpenFlags::write_only().with_create().with_trunc(),
                    FileMode::REG_DEFAULT,
                )
                .unwrap();
            fs.write(fd, &vec![round as u8; 1500]).unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(read_file(&mut fs, "/churn"), vec![199u8; 1500]);
        let wear: u64 = fs.erase_counts().iter().sum();
        assert!(wear > 10, "GC must have erased blocks (wear {wear})");
        // The index survives a rescan after all that churn.
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/churn"), vec![199u8; 1500]);
    }

    #[test]
    fn enospc_when_log_is_full() {
        let mut fs = jffs2();
        let mut made = 0;
        loop {
            let fd = match fs.create(&format!("/f{made}"), FileMode::REG_DEFAULT) {
                Ok(fd) => fd,
                Err(Errno::ENOSPC) => break,
                Err(e) => panic!("unexpected {e}"),
            };
            match fs.write(fd, &[9u8; 4000]) {
                Ok(_) => {}
                Err(Errno::ENOSPC) => {
                    fs.close(fd).unwrap();
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
            fs.close(fd).unwrap();
            made += 1;
            assert!(made < 200, "flash must fill up eventually");
        }
        assert!(made > 5, "should fit a reasonable amount first");
        // Deleting releases space (after GC) and new writes succeed.
        for i in 0..made {
            fs.unlink(&format!("/f{i}")).unwrap();
        }
        write_file(&mut fs, "/fresh", &[1u8; 4000]);
        assert_eq!(read_file(&mut fs, "/fresh"), vec![1u8; 4000]);
    }

    #[test]
    fn rename_and_links() {
        let mut fs = jffs2();
        write_file(&mut fs, "/a", b"A");
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.stat("/a"), Err(Errno::ENOENT));
        fs.link("/b", "/h").unwrap();
        assert_eq!(fs.stat("/h").unwrap().nlink, 2);
        fs.unlink("/b").unwrap();
        assert_eq!(read_file(&mut fs, "/h"), b"A");
        assert_eq!(fs.stat("/h").unwrap().nlink, 1);
        fs.symlink("/h", "/s").unwrap();
        assert_eq!(fs.readlink("/s").unwrap(), "/h");
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/h"), b"A");
        assert_eq!(fs.readlink("/s").unwrap(), "/h");
    }

    #[test]
    fn xattrs_roundtrip_flash() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"");
        fs.setxattr("/f", "user.k", b"v1", XattrFlags::Any).unwrap();
        fs.setxattr("/f", "user.k", b"v2", XattrFlags::Any).unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.getxattr("/f", "user.k").unwrap(), b"v2");
        fs.removexattr("/f", "user.k").unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.getxattr("/f", "user.k"), Err(Errno::ENODATA));
    }

    #[test]
    fn dir_sizes_report_zero() {
        let mut fs = jffs2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/child", b"x");
        assert_eq!(fs.stat("/d").unwrap().size, 0);
    }

    #[test]
    fn stale_index_after_external_restore() {
        // §3.2 for the MTD case: restoring flash under a mounted JFFS2
        // leaves the scan-built index describing a discarded world.
        let mut fs = jffs2();
        let snap = fs.snapshot_device().unwrap();
        write_file(&mut fs, "/after", b"x");
        fs.restore_device(&snap).unwrap();
        assert!(fs.stat("/after").is_ok(), "stale index still sees the file");
        fs.unmount().unwrap();
        fs.mount().unwrap(); // rescan of the restored flash
        assert_eq!(fs.stat("/after"), Err(Errno::ENOENT));
    }

    #[test]
    fn timing_charges_clock() {
        let clock = Clock::new();
        let mtd = MtdDevice::new(16 * 1024, 16).unwrap();
        let cfg = Jffs2Config {
            clock: Some(clock.clone()),
            ..Jffs2Config::default()
        };
        let mut fs = Jffs2Fs::format(mtd, cfg).unwrap();
        fs.mount().unwrap();
        let after_mount = clock.now_ns();
        assert!(after_mount > 0, "mount scan reads the whole flash");
        write_file(&mut fs, "/f", &[0u8; 2048]);
        assert!(clock.now_ns() > after_mount, "programs charge time");
    }

    #[test]
    fn truncate_both_directions() {
        let mut fs = jffs2();
        write_file(&mut fs, "/t", &[7u8; 100]);
        fs.truncate("/t", 10).unwrap();
        assert_eq!(read_file(&mut fs, "/t"), vec![7u8; 10]);
        fs.truncate("/t", 50).unwrap();
        let c = read_file(&mut fs, "/t");
        assert_eq!(&c[..10], &[7u8; 10][..]);
        assert!(c[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn open_trunc_create_flags() {
        let mut fs = jffs2();
        let fd = fs
            .open(
                "/n",
                OpenFlags::read_write().with_create(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, b"hello").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(
            fs.open(
                "/n",
                OpenFlags::read_only().with_create().with_excl(),
                FileMode::REG_DEFAULT
            ),
            Err(Errno::EEXIST)
        );
        let fd = fs
            .open(
                "/n",
                OpenFlags::write_only().with_trunc(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/n").unwrap().size, 0);
    }

    #[test]
    fn rmdir_semantics() {
        let mut fs = jffs2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/f", b"");
        assert_eq!(fs.rmdir("/d"), Err(Errno::ENOTEMPTY));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.stat("/d"), Err(Errno::ENOENT));
        assert_eq!(fs.rmdir("/"), Err(Errno::EBUSY));
    }

    /// First flash address in `blk` past the last decodable node.
    fn log_end(fs: &Jffs2Fs, blk: u32) -> u64 {
        let ebs = fs.dev.mtd().erase_block_size() as u64;
        let mut buf = vec![0u8; ebs as usize];
        fs.dev.mtd().read(blk as u64 * ebs, &mut buf).unwrap();
        let mut off = 0usize;
        while let Ok(Some((_, len))) = Node::decode(&buf[off..]) {
            off += len;
        }
        blk as u64 * ebs + off as u64
    }

    /// A structurally plausible node header whose CRC cannot match.
    fn corrupt_node_bytes() -> Vec<u8> {
        let mut bytes = vec![0x85u8, 0x19, crate::log::NT_DIRENT, 16, 0, 0, 0];
        bytes.resize(16, 0); // CRC field zero: mismatches the FNV of the body
        bytes
    }

    #[test]
    fn failed_fsck_leaves_the_volume_mountable() {
        // Regression: a repair that aborted mid-way (here: every erase
        // block quarantined, so the scrub pass has no free space and dies
        // with ENOSPC) used to leave the partially scanned index installed,
        // wedging every later mount with EBUSY.
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 4).unwrap();
        fs.mount().unwrap();
        write_file(&mut fs, "/f", b"keep me");
        fs.unmount().unwrap();
        for blk in 0..4 {
            let end = log_end(&fs, blk);
            fs.dev
                .mtd_mut()
                .program(end, &corrupt_node_bytes())
                .unwrap();
        }
        assert_eq!(fs.fsck(), Err(Errno::ENOSPC), "no room to scrub");
        fs.mount()
            .expect("a failed repair must not wedge the volume");
        assert_eq!(read_file(&mut fs, "/f"), b"keep me");
    }

    #[test]
    fn mount_survives_a_corrupt_node() {
        // Regression: the scanner used to abort the whole mount with EIO on
        // the first undecodable node, bricking the volume. It must instead
        // quarantine the broken region and keep everything before it.
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"keep me");
        fs.unmount().unwrap();
        let end = log_end(&fs, 0);
        fs.dev
            .mtd_mut()
            .program(end, &corrupt_node_bytes())
            .unwrap();
        fs.mount().expect("mount must tolerate a corrupt node");
        assert_eq!(read_file(&mut fs, "/f"), b"keep me");
    }

    #[test]
    fn torn_gc_copy_never_destroys_the_source() {
        use blockdev::{FaultKind, FaultPlan};
        // Regression: flash acks torn programs, so GC used to erase the
        // victim block after a copy that never fully reached the new
        // location — silently losing the only good copy of a live node.
        // The copy must be read back and verified before the erase.
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"survives torn gc");
        fs.unmount().unwrap();
        // A corrupt tail in block 0 forces the repair scrub to GC the
        // block holding /f's live nodes.
        let end = log_end(&fs, 0);
        fs.dev
            .mtd_mut()
            .program(end, &corrupt_node_bytes())
            .unwrap();
        // Tear the very first repair program: the copy of a live node.
        fs.dev.mtd_mut().set_fault_plan(Some(
            FaultPlan::eio(FaultKind::Write, 0, 1)
                .with_torn_bytes(3)
                .during_repair(),
        ));
        assert_eq!(
            fs.fsck(),
            Err(Errno::EIO),
            "the torn copy must be detected, not silently trusted"
        );
        fs.dev.mtd_mut().set_fault_plan(None);
        // The victim was left intact: a clean re-run converges and the
        // file is still readable.
        fs.fsck().expect("clean re-run repairs the volume");
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/f"), b"survives torn gc");
    }

    #[test]
    fn orphan_dirent_is_invisible_after_mount() {
        // Regression: a dirent whose target inode node never reached flash
        // (crash between the two appends) used to surface as a directory
        // entry whose stat failed with EIO. The scanner must drop it.
        let mut fs = jffs2();
        write_file(&mut fs, "/real", b"x");
        fs.unmount().unwrap();
        let ghost = Node::Dirent {
            parent: 1,
            version: 1_000,
            ino: 99, // no inode node with this number exists
            ftype: FT_REG,
            name: "ghost".into(),
        };
        let end = log_end(&fs, 0);
        fs.dev.mtd_mut().program(end, &ghost.encode()).unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.stat("/ghost"), Err(Errno::ENOENT));
        let names: Vec<String> = fs
            .getdents("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(!names.contains(&"ghost".to_string()), "{names:?}");
        assert_eq!(read_file(&mut fs, "/real"), b"x");
    }

    #[test]
    fn fsck_scrubs_corruption_and_is_idempotent() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"payload");
        fs.unmount().unwrap();
        let end = log_end(&fs, 0);
        fs.dev
            .mtd_mut()
            .program(end, &corrupt_node_bytes())
            .unwrap();
        let ghost = Node::Dirent {
            parent: 1,
            version: 1_000,
            ino: 77,
            ftype: FT_REG,
            name: "ghost".into(),
        };
        // The ghost goes in a different erase block so both scrub paths run.
        fs.dev
            .mtd_mut()
            .program(16 * 1024, &ghost.encode())
            .unwrap();
        let report = fs.fsck().unwrap();
        assert!(report.repairs_made >= 2, "{:?}", report.fixes);
        assert!(!fs.is_mounted(), "fsck on an unmounted fs leaves it so");
        // Idempotence: a second run finds a clean log.
        let again = fs.fsck().unwrap();
        assert!(again.is_clean(), "{:?}", again.fixes);
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/f"), b"payload");
        assert_eq!(fs.stat("/ghost"), Err(Errno::ENOENT));
    }

    #[test]
    fn fsck_recreates_a_lost_root() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"doomed");
        fs.unmount().unwrap();
        // Zero the low byte of the root inode node's version (body offset 4,
        // flash address 15): its CRC fails and the scanner quarantines erase
        // block 0 from offset zero — taking the root (and in this small
        // volume, everything else) with it.
        fs.dev.mtd_mut().program(15, &[0x00]).unwrap();
        assert_eq!(fs.mount(), Err(Errno::EIO), "no root, mount refuses");
        let report = fs.fsck().unwrap();
        assert!(
            report.fixes.iter().any(|f| f.contains("root inode")),
            "{:?}",
            report.fixes
        );
        fs.mount().unwrap();
        assert!(fs.getdents("/").unwrap().is_empty());
        assert!(fs.fsck().unwrap().is_clean());
    }

    #[test]
    fn fsck_rejects_erased_flash() {
        let mtd = MtdDevice::new(16 * 1024, 16).unwrap();
        let mut fs = Jffs2Fs::open_device(mtd, Jffs2Config::default()).unwrap();
        assert_eq!(fs.fsck(), Err(Errno::EIO));
    }

    /// A formatted, unmounted volume charging its own virtual clock.
    fn timed_jffs2(num_eb: usize) -> Jffs2Fs {
        let config = Jffs2Config {
            clock: Some(Clock::new()),
            ..Jffs2Config::default()
        };
        Jffs2Fs::format(MtdDevice::new(16 * 1024, num_eb).unwrap(), config).unwrap()
    }

    /// A memo-cold instance on a copy of `fs`'s flash (fault plan included),
    /// charging a clock of its own.
    fn cold_twin(fs: &Jffs2Fs) -> Jffs2Fs {
        let config = Jffs2Config {
            clock: Some(Clock::new()),
            ..fs.config.clone()
        };
        Jffs2Fs::open_device(fs.dev.mtd().clone(), config).unwrap()
    }

    /// Runs `f` on `fs`; returns its result, the virtual time it charged and
    /// the flash reads it issued.
    fn metered<T>(fs: &mut Jffs2Fs, f: impl FnOnce(&mut Jffs2Fs) -> T) -> (T, u64, u64) {
        let clock = fs.config.clock.clone().expect("timed volume");
        let (ns, reads) = (clock.now_ns(), fs.dev.mtd().reads());
        let out = f(fs);
        (out, clock.now_ns() - ns, fs.dev.mtd().reads() - reads)
    }

    /// Mounts the unmounted `warm` (its memo filled by earlier scans) and a
    /// cold twin on the same flash: both must produce the same result, the
    /// same index, the same virtual time and the same flash reads.
    fn assert_warm_mount_matches_cold(warm: &mut Jffs2Fs) {
        let mut cold = cold_twin(warm);
        let (w, w_ns, w_reads) = metered(warm, |fs| fs.mount());
        let (c, c_ns, c_reads) = metered(&mut cold, |fs| fs.mount());
        assert_eq!(w, c);
        assert_eq!(warm.m, cold.m);
        assert_eq!((w_ns, w_reads), (c_ns, c_reads));
    }

    /// Sorted fixes, so reports whose orphan order follows hash-map
    /// iteration compare equal.
    fn canonical(report: VfsResult<RepairReport>) -> VfsResult<(u64, u64, Vec<String>)> {
        report.map(|mut r| {
            r.fixes.sort();
            (r.items_scanned, r.repairs_made, r.fixes)
        })
    }

    /// Minimal xorshift64 so the op sequences need no RNG dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Mounts `fs` memo-warm next to a cold twin after every few steps of
    /// a random history. With `snapshots`, device snapshots are taken and
    /// restored, so most erase blocks have several owners. Without them,
    /// no chunk has an owner besides the device and the memo, and the
    /// history also programs and erases blocks behind the file system's
    /// back: a memo that keyed on a chunk's address without holding it
    /// would see the device rewrite that chunk in place and serve stale
    /// nodes.
    fn warm_matches_cold_over_history(seed: u64, snapshots: bool) {
        use blockdev::{FaultKind, FaultPlan};
        let names = ["/a", "/b", "/d/c", "/d/e"];
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut fs = timed_jffs2(16);
        assert_warm_mount_matches_cold(&mut fs);
        let _ = fs.mkdir("/d", FileMode::DIR_DEFAULT);
        let mut snaps = Vec::new();
        for _ in 0..160 {
            let name = names[rng.below(names.len() as u64) as usize];
            let other = names[rng.below(names.len() as u64) as usize];
            match rng.below(14) {
                0..=2 => {
                    let flags = OpenFlags::write_only().with_create().with_trunc();
                    if let Ok(fd) = fs.open(name, flags, FileMode::REG_DEFAULT) {
                        let len = rng.below(12_000) as usize;
                        let _ = fs.write(fd, &vec![rng.below(256) as u8; len]);
                        let _ = fs.close(fd);
                    }
                }
                3 => {
                    let _ = fs.unlink(name);
                }
                4 => {
                    let _ = fs.rename(name, other);
                }
                5 => {
                    let _ = fs.truncate(name, rng.below(9_000));
                }
                6 => {
                    let value = vec![b'v'; rng.below(64) as usize];
                    let _ = fs.setxattr(name, "user.k", &value, XattrFlags::Any);
                }
                7 => {
                    let _ = fs.link(name, other);
                }
                8 => {
                    let _ = fs.unmount();
                    assert_warm_mount_matches_cold(&mut fs);
                }
                9 if snapshots => snaps.push(fs.snapshot_device().unwrap()),
                10 if !snaps.is_empty() => {
                    let snap = &snaps[rng.below(snaps.len() as u64) as usize];
                    fs.restore_device(snap).unwrap();
                    let _ = fs.unmount();
                    assert_warm_mount_matches_cold(&mut fs);
                }
                9 => {
                    // Append a node (a deletion marker) to a random
                    // block's log by hand.
                    let _ = fs.unmount();
                    let ghost = Node::Dirent {
                        parent: 1,
                        version: 1_000_000 + rng.below(1_000),
                        ino: 0,
                        ftype: FT_REG,
                        name: "ghost".into(),
                    };
                    let end = log_end(&fs, rng.below(16) as u32);
                    let _ = fs.dev.mtd_mut().program(end, &ghost.encode());
                    assert_warm_mount_matches_cold(&mut fs);
                }
                10 if !snapshots => {
                    // Erase a random block by hand; fsck recreates a lost root.
                    let _ = fs.unmount();
                    let ebs = fs.ebs() as u64;
                    fs.dev.mtd_mut().erase(rng.below(16) * ebs, ebs).unwrap();
                    assert_warm_mount_matches_cold(&mut fs);
                }
                11 => {
                    // Tear one of the next programs, then rescan.
                    let plan = FaultPlan::eio(FaultKind::Write, rng.below(3), 1)
                        .with_torn_bytes(rng.below(40) as usize);
                    fs.dev.mtd_mut().set_fault_plan(Some(plan));
                    let flags = OpenFlags::write_only().with_create().with_append();
                    if let Ok(fd) = fs.open(name, flags, FileMode::REG_DEFAULT) {
                        let _ = fs.write(fd, &[7u8; 300]);
                        let _ = fs.close(fd);
                    }
                    fs.dev.mtd_mut().set_fault_plan(None);
                    let _ = fs.unmount();
                    assert_warm_mount_matches_cold(&mut fs);
                }
                12 => {
                    let (w, w_ns, w_reads) = metered(&mut fs, |fs| fs.crash_reboot());
                    let mut cold = cold_twin(&fs);
                    let (c, c_ns, c_reads) = metered(&mut cold, |fs| fs.mount());
                    assert_eq!(w, c);
                    assert_eq!(fs.m, cold.m);
                    assert_eq!((w_ns, w_reads), (c_ns, c_reads));
                }
                _ => {
                    let _ = fs.unmount();
                    let mut cold = cold_twin(&fs);
                    let (w, w_ns, w_reads) = metered(&mut fs, |fs| fs.fsck());
                    let (c, c_ns, c_reads) = metered(&mut cold, |fs| fs.fsck());
                    assert_eq!(canonical(w), canonical(c));
                    assert_eq!((w_ns, w_reads), (c_ns, c_reads));
                    // Repairs relocate nodes in hash-map order, so the
                    // two flash images may now differ: compare on the
                    // repaired one, with the memo fsck's rescans left.
                    assert_warm_mount_matches_cold(&mut fs);
                }
            }
        }
        assert!(fs.scan_memo.iter().all(Option::is_some));
    }

    #[test]
    fn warm_scan_matches_cold_scan_over_random_histories() {
        for seed in 1..=6 {
            warm_matches_cold_over_history(seed, true);
        }
    }

    #[test]
    fn memo_is_never_stale_when_blocks_are_rewritten_in_place() {
        for seed in 1..=6 {
            warm_matches_cold_over_history(seed, false);
        }
    }

    #[test]
    fn read_eio_fails_a_warm_mount_on_the_same_read_as_a_cold_one() {
        use blockdev::{FaultKind, FaultPlan};
        let mut fs = timed_jffs2(8);
        fs.mount().unwrap();
        write_file(&mut fs, "/f", &[3u8; 20_000]);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        fs.unmount().unwrap();
        for skip in 0..8 {
            let plan = FaultPlan::eio(FaultKind::Read, skip, 1);
            fs.dev.mtd_mut().set_fault_plan(Some(plan));
            let mut cold = cold_twin(&fs);
            let (w, w_ns, w_reads) = metered(&mut fs, |fs| fs.mount());
            let (c, c_ns, c_reads) = metered(&mut cold, |fs| fs.mount());
            assert_eq!(w, Err(Errno::EIO));
            assert_eq!(c, w);
            assert_eq!(w_reads, skip + 1, "the mount stops at the failed read");
            assert_eq!((w_ns, w_reads), (c_ns, c_reads));
            assert_eq!(fs.dev.mtd().faults_injected(), 1);
            assert!(fs.m.is_none());
        }
        fs.dev.mtd_mut().set_fault_plan(None);
        assert_warm_mount_matches_cold(&mut fs);
        assert_eq!(read_file(&mut fs, "/f"), vec![3u8; 20_000]);
    }

    #[test]
    fn bit_flip_in_a_memoized_block_is_quarantined() {
        let mut fs = timed_jffs2(16);
        fs.mount().unwrap();
        write_file(&mut fs, "/f", b"kept");
        write_file(&mut fs, "/g", b"flipped");
        fs.unmount().unwrap();
        fs.mount().unwrap();
        fs.unmount().unwrap();
        // Clear one set bit (all flash programming can do) in the body of
        // block 0's last node, a block whose decode is memoized.
        let loc = fs.scan_memo[0].as_ref().unwrap().nodes.last().unwrap().1;
        let body = loc.offset as usize + crate::log::HEADER_LEN;
        let mut bytes = vec![0u8; loc.len as usize - crate::log::HEADER_LEN];
        fs.dev.mtd().read(body as u64, &mut bytes).unwrap();
        let at = bytes.iter().position(|&b| b != 0).unwrap();
        let flipped = bytes[at] & (bytes[at] - 1);
        fs.dev
            .mtd_mut()
            .program((body + at) as u64, &[flipped])
            .unwrap();
        let warm = fs.scan().unwrap();
        let cold = cold_twin(&fs).scan().unwrap();
        assert_eq!(warm.quarantined, vec![(0, fs.ebs() - loc.offset)]);
        assert_eq!(warm.quarantined, cold.quarantined);
        assert_eq!(warm.m, cold.m);
        assert_warm_mount_matches_cold(&mut fs);
        assert_eq!(read_file(&mut fs, "/f"), b"kept");
    }

    /// Scans `fs`'s flash and checks the mount fold against the forward
    /// replay of the same decoded blocks: the whole index (every inode's
    /// content, locations, dead space, block state and counters) and what
    /// the scan reports to fsck.
    fn assert_fold_matches_replay(fs: &mut Jffs2Fs) {
        let fold = fs.scan().unwrap();
        let replay = ScanOutcome::fold(&fs.scan_memo, replay_inodes);
        assert_eq!(fold.m, replay.m);
        assert_eq!(fold.nodes_seen, replay.nodes_seen);
        assert_eq!(fold.quarantined, replay.quarantined);
        let sorted = |mut o: Vec<(u32, String, u32, u32)>| {
            o.sort();
            o
        };
        assert_eq!(sorted(fold.orphan_dirents), sorted(replay.orphan_dirents));
    }

    /// Writes `len` bytes of `byte` at `offset` of `p`, creating it.
    fn write_at(fs: &mut Jffs2Fs, p: &str, offset: u64, len: usize, byte: u8) {
        let flags = OpenFlags::write_only().with_create();
        if let Ok(fd) = fs.open(p, flags, FileMode::REG_DEFAULT) {
            let _ = fs.lseek(fd, offset);
            let _ = fs.write(fd, &vec![byte; len]);
            let _ = fs.close(fd);
        }
    }

    /// How many live data fragments `p` has (0 if it cannot be resolved).
    fn fragments(fs: &Jffs2Fs, p: &str) -> usize {
        fs.resolve(p)
            .and_then(|ino| fs.info(ino))
            .map_or(0, |info| info.data_locs.len())
    }

    #[test]
    fn fold_matches_forward_replay_over_random_histories() {
        use blockdev::{FaultKind, FaultPlan};
        let names = ["/a", "/b", "/d/c"];
        let (mut torn, mut compactions) = (0, 0);
        for seed in 1..=8u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut fs = crate::jffs2_on_mtdram(16 * 1024, 12).unwrap();
            fs.mount().unwrap();
            let _ = fs.mkdir("/d", FileMode::DIR_DEFAULT);
            for _ in 0..100 {
                let name = names[rng.below(names.len() as u64) as usize];
                let byte = 1 + rng.below(255) as u8;
                match rng.below(10) {
                    0 | 1 => {
                        // Anywhere, often past EOF: a sparse hole.
                        let len = rng.below(9_000) as usize;
                        write_at(&mut fs, name, rng.below(24_000), len, byte);
                    }
                    2 => {
                        // Shrink, then extend: the old tail must not return.
                        let _ = fs.truncate(name, rng.below(3_000));
                        let _ = fs.truncate(name, rng.below(20_000));
                    }
                    3 => {
                        // Enough fragments that the next write compacts the
                        // file with a multi-fragment rewrite, one of whose
                        // programs is torn.
                        for _ in 0..80 {
                            if fragments(&fs, name) > 64 {
                                break;
                            }
                            write_at(&mut fs, name, rng.below(16_000), 64, byte);
                        }
                        let before = fragments(&fs, name);
                        let plan = FaultPlan::eio(FaultKind::Write, rng.below(3), 1)
                            .with_torn_bytes(rng.below(300) as usize);
                        fs.dev.mtd_mut().set_fault_plan(Some(plan));
                        write_at(&mut fs, name, rng.below(8_000), 500, byte);
                        torn += fs.dev.mtd().faults_injected();
                        fs.dev.mtd_mut().set_fault_plan(None);
                        if before > 64 && fragments(&fs, name) < before {
                            compactions += 1;
                        }
                    }
                    4 => {
                        let _ = fs.unlink(name);
                    }
                    5 => {
                        let value = vec![byte; rng.below(64) as usize];
                        let _ = fs.setxattr(name, "user.k", &value, XattrFlags::Any);
                        let _ = fs.chmod(name, FileMode::new(0o600));
                    }
                    6 => {
                        let _ = fs.crash_reboot();
                    }
                    7 => {
                        let _ = fs.fsck();
                    }
                    _ => {
                        let _ = fs.unmount();
                    }
                }
                if !fs.is_mounted() {
                    let _ = fs.mount();
                }
                assert_fold_matches_replay(&mut fs);
            }
            let erases: u64 = fs.erase_counts().iter().sum();
            assert!(erases > 12, "seed {seed}: GC never ran");
        }
        assert!(
            torn > 8 && compactions > 8,
            "{torn} tears, {compactions} compactions"
        );
    }

    /// Mounts a volume holding `/f` whose block 0 log ends in `forged`.
    fn mount_with_forged_node(forged: &[u8]) -> Jffs2Fs {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"keep me");
        fs.unmount().unwrap();
        let end = log_end(&fs, 0);
        fs.dev.mtd_mut().program(end, forged).unwrap();
        let quarantined = fs.scan().unwrap().quarantined;
        assert_eq!(quarantined, vec![(0, (16 * 1024 - end) as u32)]);
        fs.mount().expect("an inconsistent node is quarantined");
        assert_eq!(read_file(&mut fs, "/f"), b"keep me");
        fs
    }

    /// A CRC-valid inode node for a fresh inode.
    fn forged_inode(isize: u64, offset: u64, data: &[u8]) -> Vec<u8> {
        Node::Inode {
            ino: 40,
            version: 1_000,
            ftype: FT_REG,
            mode: 0o644,
            uid: 0,
            gid: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            isize,
            offset,
            rewrite: false,
            data: Some(data.to_vec()),
        }
        .encode()
    }

    #[test]
    fn crc_valid_short_node_body_is_quarantined() {
        // Regression: the decoder read fixed offsets before checking the
        // body's length and panicked the mount.
        mount_with_forged_node(&crate::log::frame(crate::log::NT_INODE, &[1]));
        mount_with_forged_node(&crate::log::frame(crate::log::NT_DIRENT, &[1, 2, 3]));
    }

    #[test]
    fn fragment_past_its_own_isize_is_quarantined() {
        // Regression: the node decoded, then the mount panicked slicing
        // the content at an offset past the file's end.
        for forged in [
            forged_inode(4, 100, b"boom"),
            forged_inode(0, u64::MAX, b"x"),
        ] {
            let fs = mount_with_forged_node(&forged);
            assert!(!fs.m.unwrap().inodes.contains_key(&40));
        }
    }

    #[test]
    fn isize_beyond_the_device_is_quarantined() {
        // Regression: the mount allocated whatever size a node claimed.
        let device = 16 * 16 * 1024;
        for isize in [device + 1, 1 << 42] {
            let fs = mount_with_forged_node(&forged_inode(isize, 0, b"big"));
            assert!(!fs.m.unwrap().inodes.contains_key(&40));
        }
    }

    #[test]
    fn fsck_while_mounted_keeps_the_volume_usable() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"live");
        let report = fs.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.fixes);
        assert!(fs.is_mounted());
        assert_eq!(read_file(&mut fs, "/f"), b"live");
    }

    /// The index entry of `p`'s content.
    fn content<'a>(fs: &'a Jffs2Fs, p: &str) -> &'a Content {
        &fs.info(fs.resolve(p).unwrap()).unwrap().content
    }

    #[test]
    fn untouched_content_is_never_painted() {
        let mut fs = timed_jffs2(32);
        fs.mount().unwrap();
        // The free-space equalization dummy's shape: a big file written in
        // many fragments that nothing reads again.
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        for chunk in big.chunks(4_000) {
            fs.write(fd, chunk).unwrap();
        }
        fs.close(fd).unwrap();
        write_file(&mut fs, "/small", &[0u8; 100]);
        let wear: u64 = fs.erase_counts().iter().sum();
        for round in 0..50u8 {
            fs.unmount().unwrap();
            fs.mount().unwrap();
            assert_eq!(fs.stat("/big").unwrap().size, big.len() as u64);
            assert_eq!(fs.getdents("/").unwrap().len(), 2 + (round > 0) as usize);
            write_at(&mut fs, "/small", 0, 100, round);
            let flags = OpenFlags::write_only().with_create().with_trunc();
            let fd = fs.open("/churn", flags, FileMode::REG_DEFAULT).unwrap();
            fs.write(fd, &vec![round; 6_000]).unwrap();
            fs.close(fd).unwrap();
            assert!(matches!(content(&fs, "/big"), Content::Unpainted(_)));
            assert!(matches!(content(&fs, "/small"), Content::Painted(_)));
        }
        assert!(fs.erase_counts().iter().sum::<u64>() > wear, "GC never ran");
        let mut cold = cold_twin(&fs);
        cold.mount().unwrap();
        for (p, want) in [("/big", big), ("/small", vec![49u8; 100])] {
            let warm = metered(&mut fs, |fs| read_file(fs, p));
            assert_eq!(warm, metered(&mut cold, |fs| read_file(fs, p)));
            assert_eq!(warm.0, want);
        }
        assert!(matches!(content(&fs, "/big"), Content::Painted(_)));
    }

    #[test]
    fn content_equality_is_by_bytes() {
        let mut fs = jffs2();
        for p in ["/x", "/y"] {
            write_at(&mut fs, p, 0, 9_000, 1);
            write_at(&mut fs, p, 3_000, 500, 2);
            fs.truncate(p, 5_000).unwrap();
            fs.truncate(p, 12_000).unwrap();
            write_at(&mut fs, p, 10_000, 100, 3);
        }
        write_at(&mut fs, "/y", 4_321, 1, 9);
        fs.unmount().unwrap();
        fs.mount().unwrap();
        let (x, y) = (content(&fs, "/x").clone(), content(&fs, "/y").clone());
        assert!(matches!(x, Content::Unpainted(_)) && matches!(y, Content::Unpainted(_)));
        let mut painted = x.clone();
        let bytes = painted.bytes_mut().clone();
        assert!(matches!(painted, Content::Painted(_)));
        assert_eq!(x, painted);
        assert_eq!(painted, x);
        assert_eq!(x, Content::Painted(bytes.clone()));
        assert_ne!(x, y);
        assert_ne!(painted, y);
        let mut flipped = bytes;
        flipped[4_321] ^= 1;
        assert_ne!(x, Content::Painted(flipped.clone()));
        assert_ne!(painted, Content::Painted(flipped));
    }
}

#[cfg(test)]
mod frag_tests {
    use super::*;

    #[test]
    fn large_files_span_fragment_nodes() {
        // 16 KiB erase blocks → frag_max ≈ 8 KiB: a 100 KiB file needs many
        // fragment nodes across several erase blocks.
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 32).unwrap();
        fs.mount().unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &data).unwrap();
        fs.close(fd).unwrap();
        // Rescan reassembles the fragments.
        fs.unmount().unwrap();
        fs.mount().unwrap();
        let fd = fs
            .open("/big", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = vec![0u8; data.len() + 8];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        buf.truncate(n);
        assert_eq!(buf, data);
    }

    #[test]
    fn fragmented_file_survives_gc_churn() {
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 16).unwrap();
        fs.mount().unwrap();
        // A stable fragmented file...
        let keep: Vec<u8> = (0..30_000u32).map(|i| (i % 127) as u8).collect();
        let fd = fs.create("/keep", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &keep).unwrap();
        fs.close(fd).unwrap();
        // ...while churn forces GC to move its fragments around.
        for round in 0..60 {
            let fd = fs
                .open(
                    "/churn",
                    OpenFlags::write_only().with_create().with_trunc(),
                    FileMode::REG_DEFAULT,
                )
                .unwrap();
            fs.write(fd, &vec![round as u8; 2000]).unwrap();
            fs.close(fd).unwrap();
        }
        let fd = fs
            .open("/keep", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = vec![0u8; keep.len()];
        fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(buf, keep, "GC must relocate fragments losslessly");
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.stat("/keep").unwrap().size, keep.len() as u64);
    }
}

//! The VeriFS in-memory file system engine.
//!
//! VeriFS1 used "a fixed-length inode array with a contiguous memory buffer
//! attached to each inode as the file data" (paper §5); this engine keeps that
//! structure. VeriFS2 is the same engine with the extended feature set turned
//! on, exactly as VeriFS2 grew out of VeriFS1.
//!
//! A deliberate property of the buffer management: physical buffers are never
//! shrunk, only grown (zero-filling the *newly allocated* region). Stale bytes
//! therefore persist between a file's logical size and its physical capacity —
//! which is precisely the garbage that paper bugs 1 and 3 exposed when the
//! zeroing steps were missing.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use vfs::{
    path, AccessMode, DirEntry, Errno, Fd, FdTable, FileMode, FileStat, FileSystem, FileType,
    FsCapabilities, FsCheckpoint, Ino, InvalidationSink, OpenFlags, StatFs, VfsResult, XattrFlags,
};

use crate::bugs::BugConfig;

/// Default inode-array length.
pub const DEFAULT_MAX_INODES: usize = 128;

/// Default VeriFS2 data budget in bytes (VeriFS1 is unbounded, as in the
/// paper).
pub const DEFAULT_DATA_BUDGET: u64 = 1 << 20;

/// Buffer-growth granularity: capacities are rounded up to this chunk size.
/// Bug 4 only manifests because growth is chunked — appends that fit in the
/// current capacity skip the (buggy) size update.
const CHUNK: usize = 64;

/// Maximum hard-link count.
const MAX_NLINK: u32 = 65_000;

/// Statfs block size reported by VeriFS.
const STATFS_BSIZE: u32 = 4096;

/// Construction-time configuration.
#[derive(Debug, Clone)]
pub struct VeriFsConfig {
    /// 1 or 2; selects the feature set and the reported name.
    pub version: u8,
    /// Length of the fixed inode array.
    pub max_inodes: usize,
    /// Total bytes of file data allowed (`None` = unbounded, VeriFS1).
    pub data_budget: Option<u64>,
    /// Reintroduced historical bugs.
    pub bugs: BugConfig,
    /// Maximum simultaneously open descriptors.
    pub max_fds: usize,
    /// Expose stale bytes beyond EOF through
    /// [`FileSystem::opaque_state_digest`]. Buffers are only ever grown in
    /// `CHUNK`-sized steps and never shrunk, so a truncate-down leaves the
    /// old bytes in place; the abstraction function cannot see them, but a
    /// buggy hole write can surface them later. With this on (the default)
    /// the digest folds that residue into the exploration fingerprint so
    /// state-matched search keeps the two states apart. `false` reproduces
    /// the historical aliasing behavior (lint `MC002`'s regression target).
    pub opaque_residue_digest: bool,
}

impl VeriFsConfig {
    /// The VeriFS1 configuration (paper §5): limited ops, unbounded data.
    pub fn v1() -> Self {
        VeriFsConfig {
            version: 1,
            max_inodes: DEFAULT_MAX_INODES,
            data_budget: None,
            bugs: BugConfig::none(),
            max_fds: vfs::DEFAULT_MAX_FDS,
            opaque_residue_digest: true,
        }
    }

    /// The VeriFS2 configuration: full feature set, bounded data.
    pub fn v2() -> Self {
        VeriFsConfig {
            version: 2,
            max_inodes: DEFAULT_MAX_INODES,
            data_budget: Some(DEFAULT_DATA_BUDGET),
            bugs: BugConfig::none(),
            max_fds: vfs::DEFAULT_MAX_FDS,
            opaque_residue_digest: true,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeKind {
    Regular {
        /// Physical buffer; `buf.len()` is the capacity, never shrunk.
        /// `Arc`-backed: checkpoints share the buffer with the live state
        /// until either side writes (`Arc::make_mut` copies on demand).
        buf: Arc<Vec<u8>>,
        /// Logical file size (`<= buf.len()` unless bug 4 lied about it —
        /// the invariant the paper's bug 4 violated is `size` tracking
        /// appends, not capacity).
        size: u64,
    },
    Directory {
        /// `Arc`-backed for the same copy-on-write sharing as file buffers.
        entries: Arc<BTreeMap<String, u64>>,
    },
    Symlink {
        target: String,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Inode {
    kind: NodeKind,
    mode: FileMode,
    nlink: u32,
    uid: u32,
    gid: u32,
    atime: u64,
    mtime: u64,
    ctime: u64,
    xattrs: BTreeMap<String, Vec<u8>>,
}

impl Inode {
    fn is_dir(&self) -> bool {
        matches!(self.kind, NodeKind::Directory { .. })
    }

    fn ftype(&self) -> FileType {
        match self.kind {
            NodeKind::Regular { .. } => FileType::Regular,
            NodeKind::Directory { .. } => FileType::Directory,
            NodeKind::Symlink { .. } => FileType::Symlink,
        }
    }

    fn heap_bytes(&self) -> usize {
        let kind_bytes = match &self.kind {
            NodeKind::Regular { buf, .. } => buf.len(),
            NodeKind::Directory { entries } => entries.keys().map(|k| k.len() + 16).sum::<usize>(),
            NodeKind::Symlink { target } => target.len(),
        };
        let xattr_bytes: usize = self.xattrs.iter().map(|(k, v)| k.len() + v.len()).sum();
        kind_bytes + xattr_bytes + std::mem::size_of::<Inode>()
    }

    /// The bytes between a regular file's logical size and its physical
    /// capacity (see [`VeriFsConfig::opaque_residue_digest`]); empty for
    /// other kinds.
    fn residue(&self) -> &[u8] {
        match &self.kind {
            NodeKind::Regular { buf, size } => &buf[(*size as usize).min(buf.len())..],
            _ => &[],
        }
    }

    fn has_residue(&self) -> bool {
        self.residue().iter().any(|&b| b != 0)
    }
}

/// Inode slots per page of the [`InodeTable`].
const PAGE_SLOTS: usize = 16;

/// What [`FsState`]'s accounting and digest need to know about one page,
/// cached until the page is next taken mutably.
#[derive(Debug, Clone, Copy)]
struct PageSummary {
    /// The page's share of [`FsState::heap_bytes`].
    heap_bytes: usize,
    /// Whether any regular inode in the page holds nonzero bytes past its
    /// size.
    residue: bool,
}

#[derive(Debug, Clone)]
struct Page {
    slots: Vec<Option<Inode>>,
    summary: OnceLock<PageSummary>,
}

impl Page {
    fn summary(&self) -> PageSummary {
        *self.summary.get_or_init(|| PageSummary {
            heap_bytes: self
                .slots
                .iter()
                .flatten()
                .map(Inode::heap_bytes)
                .sum::<usize>()
                + self.slots.len() * std::mem::size_of::<Option<Inode>>(),
            residue: self.slots.iter().flatten().any(Inode::has_residue),
        })
    }
}

/// The fixed-length inode array, in pages of [`PAGE_SLOTS`] slots. Both the
/// page index and each page are `Arc`-backed, so a clone shares everything
/// and the first write to a slot afterwards copies the index and that one
/// page, not the whole array.
#[derive(Debug, Clone)]
struct InodeTable {
    pages: Arc<Vec<Arc<Page>>>,
}

impl InodeTable {
    fn new(len: usize) -> Self {
        let pages = (0..len)
            .step_by(PAGE_SLOTS)
            .map(|start| {
                Arc::new(Page {
                    slots: vec![None; PAGE_SLOTS.min(len - start)],
                    summary: OnceLock::new(),
                })
            })
            .collect();
        InodeTable {
            pages: Arc::new(pages),
        }
    }

    fn len(&self) -> usize {
        self.pages.iter().map(|page| page.slots.len()).sum()
    }

    fn slots(&self) -> impl Iterator<Item = &Option<Inode>> {
        self.pages.iter().flat_map(|page| page.slots.iter())
    }

    fn get(&self, ino: u64) -> Option<&Inode> {
        let ino = usize::try_from(ino).ok()?;
        self.pages
            .get(ino / PAGE_SLOTS)?
            .slots
            .get(ino % PAGE_SLOTS)?
            .as_ref()
    }

    /// The slot for `ino`, unshared from every snapshot. Every mutation of
    /// the table goes through here, which is what keeps the page summaries
    /// exact: taking a page mutably forgets its summary.
    fn slot_mut(&mut self, ino: u64) -> Option<&mut Option<Inode>> {
        let ino = usize::try_from(ino).ok()?;
        let (page, slot) = (ino / PAGE_SLOTS, ino % PAGE_SLOTS);
        if slot >= self.pages.get(page)?.slots.len() {
            return None;
        }
        let page = Arc::make_mut(&mut Arc::make_mut(&mut self.pages)[page]);
        page.summary.take();
        Some(&mut page.slots[slot])
    }

    fn summaries(&self) -> impl Iterator<Item = PageSummary> + '_ {
        self.pages.iter().map(|page| page.summary())
    }
}

/// The complete in-memory state — what `ioctl_CHECKPOINT` captures into the
/// snapshot pool. The inode table (and, transitively, every file buffer and
/// directory map) is `Arc`-backed, so cloning the state for a checkpoint is
/// O(1) reference bumps: snapshots and the live state share structure until
/// one of them mutates (`Arc::make_mut`), and a mutation copies only the
/// page of [`PAGE_SLOTS`] slots it touches. Each page caches its share of
/// the heap accounting and whether it holds residue, so checkpoint, discard
/// and the opaque digest read only the pages written since they last asked.
#[derive(Debug, Clone)]
struct FsState {
    inodes: InodeTable,
    /// Logical bytes charged against the data budget.
    data_used: u64,
    /// Monotonic logical timestamp, bumped on every state-changing call.
    /// atime updates make this the "noisy attribute" MCFS's abstraction
    /// function must ignore (paper §3.3).
    time: u64,
    open_files: FdTable<OpenFile>,
}

impl FsState {
    fn new(max_inodes: usize, max_fds: usize) -> Self {
        let mut inodes = InodeTable::new(max_inodes);
        // Inode 0 is reserved (never allocated); inode 1 is the root.
        *inodes.slot_mut(Ino::ROOT.0).expect("root slot") = Some(Inode {
            kind: NodeKind::Directory {
                entries: Arc::new(BTreeMap::new()),
            },
            mode: FileMode::DIR_DEFAULT,
            nlink: 2,
            uid: 0,
            gid: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            xattrs: BTreeMap::new(),
        });
        FsState {
            inodes,
            data_used: 0,
            time: 1,
            open_files: FdTable::new(max_fds),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.inodes.summaries().map(|s| s.heap_bytes).sum()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct OpenFile {
    ino: u64,
    offset: u64,
    read: bool,
    write: bool,
    append: bool,
}

/// The VeriFS file system (versions 1 and 2).
///
/// See the [crate-level documentation](crate) for an overview and examples.
#[derive(Clone)]
pub struct VeriFs {
    config: VeriFsConfig,
    state: FsState,
    mounted: bool,
    pool: HashMap<u64, FsState>,
    /// Running total of snapshot-pool heap bytes (kept incrementally so
    /// `snapshot_bytes` is O(1) even with thousands of snapshots).
    pool_bytes: usize,
    sink: Option<Arc<dyn InvalidationSink>>,
    name: String,
}

impl std::fmt::Debug for VeriFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VeriFs")
            .field("name", &self.name)
            .field("mounted", &self.mounted)
            .field("data_used", &self.state.data_used)
            .field("snapshots", &self.pool.len())
            .finish()
    }
}

impl VeriFs {
    /// Creates a VeriFS1 instance.
    pub fn v1() -> Self {
        VeriFs::with_config(VeriFsConfig::v1())
    }

    /// Creates a VeriFS1 instance with historical bugs enabled.
    pub fn v1_with_bugs(bugs: BugConfig) -> Self {
        let mut cfg = VeriFsConfig::v1();
        cfg.bugs = bugs;
        VeriFs::with_config(cfg)
    }

    /// Creates a VeriFS2 instance.
    pub fn v2() -> Self {
        VeriFs::with_config(VeriFsConfig::v2())
    }

    /// Creates a VeriFS2 instance with historical bugs enabled.
    pub fn v2_with_bugs(bugs: BugConfig) -> Self {
        let mut cfg = VeriFsConfig::v2();
        cfg.bugs = bugs;
        VeriFs::with_config(cfg)
    }

    /// Creates an instance from an explicit configuration.
    pub fn with_config(config: VeriFsConfig) -> Self {
        let state = FsState::new(config.max_inodes.max(2), config.max_fds);
        let name = format!("verifs{}", config.version);
        VeriFs {
            state,
            mounted: false,
            pool: HashMap::new(),
            pool_bytes: 0,
            sink: None,
            name,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &VeriFsConfig {
        &self.config
    }

    /// Approximate heap bytes held by live state (excluding snapshots).
    pub fn state_bytes(&self) -> usize {
        self.state.heap_bytes()
    }

    fn v2_features(&self) -> bool {
        self.config.version >= 2
    }

    fn check_mounted(&self) -> VfsResult<()> {
        if self.mounted {
            Ok(())
        } else {
            Err(Errno::ENODEV)
        }
    }

    fn tick(&mut self) -> u64 {
        self.state.time += 1;
        self.state.time
    }

    fn inode(&self, ino: u64) -> VfsResult<&Inode> {
        self.state.inodes.get(ino).ok_or(Errno::EIO)
    }

    fn inode_mut(&mut self, ino: u64) -> VfsResult<&mut Inode> {
        // Every mutation funnels through here: unshare the inode's page from
        // any snapshots before handing out a mutable reference.
        self.state
            .inodes
            .slot_mut(ino)
            .and_then(Option::as_mut)
            .ok_or(Errno::EIO)
    }

    fn alloc_inode(&mut self, inode: Inode) -> VfsResult<u64> {
        let free = self.state.inodes.slots().skip(2).position(Option::is_none);
        let ino = free.ok_or(Errno::ENOSPC)? as u64 + 2;
        *self.state.inodes.slot_mut(ino).ok_or(Errno::EIO)? = Some(inode);
        Ok(ino)
    }

    /// Resolves a validated path to an inode number. Intermediate components
    /// must be directories; symlinks are not followed.
    fn resolve(&self, p: &str) -> VfsResult<u64> {
        path::validate(p)?;
        let mut cur = Ino::ROOT.0;
        for comp in path::components(p) {
            let node = self.inode(cur)?;
            let entries = match &node.kind {
                NodeKind::Directory { entries } => entries,
                NodeKind::Symlink { .. } => return Err(Errno::ELOOP),
                NodeKind::Regular { .. } => return Err(Errno::ENOTDIR),
            };
            cur = *entries.get(comp).ok_or(Errno::ENOENT)?;
        }
        Ok(cur)
    }

    /// Resolves the parent directory of `p`, returning `(parent_ino, name)`.
    fn resolve_parent<'p>(&self, p: &'p str) -> VfsResult<(u64, &'p str)> {
        path::validate(p)?;
        let (parent, name) = path::split_parent(p)?;
        let parent_ino = self.resolve(&parent)?;
        if !self.inode(parent_ino)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent_ino, name))
    }

    fn lookup_child(&self, parent: u64, name: &str) -> VfsResult<Option<u64>> {
        match &self.inode(parent)?.kind {
            NodeKind::Directory { entries } => Ok(entries.get(name).copied()),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn insert_entry(&mut self, parent: u64, name: &str, child: u64) -> VfsResult<()> {
        let now = self.tick();
        match &mut self.inode_mut(parent)?.kind {
            NodeKind::Directory { entries } => {
                Arc::make_mut(entries).insert(name.to_string(), child);
            }
            _ => return Err(Errno::ENOTDIR),
        }
        let parent_inode = self.inode_mut(parent)?;
        parent_inode.mtime = now;
        parent_inode.ctime = now;
        Ok(())
    }

    fn remove_entry(&mut self, parent: u64, name: &str) -> VfsResult<u64> {
        let now = self.tick();
        let child = match &mut self.inode_mut(parent)?.kind {
            NodeKind::Directory { entries } => {
                Arc::make_mut(entries).remove(name).ok_or(Errno::ENOENT)?
            }
            _ => return Err(Errno::ENOTDIR),
        };
        let parent_inode = self.inode_mut(parent)?;
        parent_inode.mtime = now;
        parent_inode.ctime = now;
        Ok(child)
    }

    fn fd_refs(&self, ino: u64) -> usize {
        self.state
            .open_files
            .iter()
            .filter(|(_, of)| of.ino == ino)
            .count()
    }

    /// Frees `ino` if it has no remaining links and no open descriptors.
    fn maybe_free(&mut self, ino: u64) -> VfsResult<()> {
        let node = self.inode(ino)?;
        if node.nlink > 0 || self.fd_refs(ino) > 0 {
            return Ok(());
        }
        if let NodeKind::Regular { size, .. } = node.kind {
            self.state.data_used = self.state.data_used.saturating_sub(size);
        }
        *self.state.inodes.slot_mut(ino).ok_or(Errno::EIO)? = None;
        Ok(())
    }

    /// Charges `new_size - old_size` against the data budget.
    fn charge(&mut self, old_size: u64, new_size: u64) -> VfsResult<()> {
        if new_size > old_size {
            let delta = new_size - old_size;
            if let Some(budget) = self.config.data_budget {
                if self.state.data_used + delta > budget {
                    return Err(Errno::ENOSPC);
                }
            }
            self.state.data_used += delta;
        } else {
            self.state.data_used = self.state.data_used.saturating_sub(old_size - new_size);
        }
        Ok(())
    }

    fn new_inode(&self, kind: NodeKind, mode: FileMode, now: u64) -> Inode {
        Inode {
            kind,
            mode,
            nlink: 1,
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            xattrs: BTreeMap::new(),
        }
    }

    fn do_truncate(&mut self, ino: u64, new_size: u64) -> VfsResult<()> {
        let bug_no_zero = self.config.bugs.v1_truncate_no_zero;
        let now = self.tick();
        let old_size = match &self.inode(ino)?.kind {
            NodeKind::Regular { size, .. } => *size,
            NodeKind::Directory { .. } => return Err(Errno::EISDIR),
            NodeKind::Symlink { .. } => return Err(Errno::EINVAL),
        };
        self.charge(old_size, new_size)?;
        let node = self.inode_mut(ino)?;
        if let NodeKind::Regular { buf, size } = &mut node.kind {
            let buf = Arc::make_mut(buf);
            if new_size as usize > buf.len() {
                let cap = round_up(new_size as usize);
                buf.resize(cap, 0);
            }
            if new_size > *size && !bug_no_zero {
                // Clear the newly exposed region. Omitting this is paper
                // bug 1: stale bytes from a previous, longer incarnation of
                // the file become visible.
                for b in &mut buf[*size as usize..new_size as usize] {
                    *b = 0;
                }
            }
            *size = new_size;
        }
        node.mtime = now;
        node.ctime = now;
        Ok(())
    }

    fn check_xattr_name(name: &str) -> VfsResult<()> {
        if name.is_empty() || name.len() > 255 || name.contains('\0') {
            return Err(Errno::EINVAL);
        }
        Ok(())
    }
}

fn round_up(n: usize) -> usize {
    n.div_ceil(CHUNK) * CHUNK
}

impl FileSystem for VeriFs {
    fn fs_name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> FsCapabilities {
        if self.v2_features() {
            FsCapabilities::full()
        } else {
            FsCapabilities {
                checkpoint: true,
                ..FsCapabilities::default()
            }
        }
    }

    fn mount(&mut self) -> VfsResult<()> {
        if self.mounted {
            return Err(Errno::EBUSY);
        }
        self.mounted = true;
        Ok(())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.check_mounted()?;
        // The user-space daemon stays alive across unmounts (state is kept),
        // but kernel-visible descriptors are gone.
        self.state.open_files.clear();
        self.mounted = false;
        Ok(())
    }

    fn is_mounted(&self) -> bool {
        self.mounted
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.check_mounted()
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        self.check_mounted()?;
        let files = self.config.max_inodes as u64;
        let files_free = self
            .state
            .inodes
            .slots()
            .skip(2)
            .filter(|s| s.is_none())
            .count() as u64;
        let (blocks, blocks_free) = match self.config.data_budget {
            Some(budget) => {
                let total = budget / STATFS_BSIZE as u64;
                let used = self.state.data_used.div_ceil(STATFS_BSIZE as u64);
                (total, total.saturating_sub(used))
            }
            // VeriFS1 does not limit stored data; report a large capacity.
            None => (u32::MAX as u64, u32::MAX as u64),
        };
        Ok(StatFs {
            block_size: STATFS_BSIZE,
            blocks,
            blocks_free,
            blocks_avail: blocks_free,
            files,
            files_free,
            name_max: path::NAME_MAX as u32,
        })
    }

    fn create(&mut self, p: &str, mode: FileMode) -> VfsResult<Fd> {
        self.check_mounted()?;
        let (parent, name) = self.resolve_parent(p)?;
        if self.lookup_child(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let inode = self.new_inode(
            NodeKind::Regular {
                buf: Arc::new(Vec::new()),
                size: 0,
            },
            mode,
            now,
        );
        let ino = self.alloc_inode(inode)?;
        self.insert_entry(parent, name, ino)?;
        self.state.open_files.insert(OpenFile {
            ino,
            offset: 0,
            read: true,
            write: true,
            append: false,
        })
    }

    fn open(&mut self, p: &str, flags: OpenFlags, mode: FileMode) -> VfsResult<Fd> {
        self.check_mounted()?;
        path::validate(p)?;
        let ino = match self.resolve(p) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(Errno::EEXIST);
                }
                ino
            }
            Err(Errno::ENOENT) if flags.create => {
                let (parent, name) = self.resolve_parent(p)?;
                let now = self.tick();
                let inode = self.new_inode(
                    NodeKind::Regular {
                        buf: Arc::new(Vec::new()),
                        size: 0,
                    },
                    mode,
                    now,
                );
                let ino = self.alloc_inode(inode)?;
                self.insert_entry(parent, name, ino)?;
                ino
            }
            Err(e) => return Err(e),
        };
        match self.inode(ino)?.ftype() {
            FileType::Symlink => return Err(Errno::ELOOP),
            FileType::Directory if flags.write => return Err(Errno::EISDIR),
            _ => {}
        }
        if flags.trunc && flags.write {
            self.do_truncate(ino, 0)?;
        }
        self.state.open_files.insert(OpenFile {
            ino,
            offset: 0,
            read: flags.read || !flags.write,
            write: flags.write,
            append: flags.append,
        })
    }

    fn close(&mut self, fd: Fd) -> VfsResult<()> {
        self.check_mounted()?;
        let of = self.state.open_files.remove(fd)?;
        // Last close of an unlinked file frees it.
        if self.inode(of.ino).map(|n| n.nlink == 0).unwrap_or(false) {
            self.maybe_free(of.ino)?;
        }
        Ok(())
    }

    fn read(&mut self, fd: Fd, out: &mut [u8]) -> VfsResult<usize> {
        self.check_mounted()?;
        let now = self.tick();
        let of = self.state.open_files.get(fd)?.clone();
        if !of.read {
            return Err(Errno::EBADF);
        }
        let node = self.inode_mut(of.ino)?;
        let n = match &node.kind {
            NodeKind::Regular { buf, size } => {
                let start = of.offset.min(*size) as usize;
                // `lseek` accepts any u64 offset: saturate the end position
                // so a read far past EOF is an empty read (POSIX), never a
                // wrapped range.
                let end = of.offset.saturating_add(out.len() as u64).min(*size) as usize;
                let n = end - start;
                out[..n].copy_from_slice(&buf[start..end]);
                n
            }
            NodeKind::Directory { .. } => return Err(Errno::EISDIR),
            NodeKind::Symlink { .. } => return Err(Errno::EINVAL),
        };
        node.atime = now;
        self.state.open_files.get_mut(fd)?.offset += n as u64;
        Ok(n)
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        self.check_mounted()?;
        let bug_hole = self.config.bugs.v2_hole_no_zero && self.v2_features();
        let bug_size = self.config.bugs.v2_size_only_on_capacity_growth && self.v2_features();
        let now = self.tick();
        let of = self.state.open_files.get(fd)?.clone();
        if !of.write {
            return Err(Errno::EBADF);
        }
        let (old_size, old_cap) = match &self.inode(of.ino)?.kind {
            NodeKind::Regular { buf, size } => (*size, buf.len()),
            NodeKind::Directory { .. } => return Err(Errno::EISDIR),
            NodeKind::Symlink { .. } => return Err(Errno::EINVAL),
        };
        let offset = if of.append { old_size } else { of.offset };
        let end = offset.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
        let new_size = end.max(old_size);
        self.charge(old_size, new_size)?;
        let node = self.inode_mut(of.ino)?;
        if let NodeKind::Regular { buf, size } = &mut node.kind {
            let buf = Arc::make_mut(buf);
            let needed = end as usize;
            let grew = needed > old_cap;
            if grew {
                buf.resize(round_up(needed), 0);
            }
            if offset > *size && !bug_hole {
                // Zero the hole between old EOF and the write start. Omitting
                // this is paper bug 3.
                for b in &mut buf[*size as usize..offset as usize] {
                    *b = 0;
                }
            }
            buf[offset as usize..end as usize].copy_from_slice(data);
            if bug_size {
                // Paper bug 4: the size field tracked capacity growth, not
                // appends; in-capacity appends left it stale.
                if grew {
                    *size = new_size;
                }
            } else {
                *size = new_size;
            }
        }
        node.mtime = now;
        node.ctime = now;
        let of_mut = self.state.open_files.get_mut(fd)?;
        of_mut.offset = end;
        Ok(data.len())
    }

    fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64> {
        self.check_mounted()?;
        let of = self.state.open_files.get_mut(fd)?;
        of.offset = offset;
        Ok(offset)
    }

    fn truncate(&mut self, p: &str, size: u64) -> VfsResult<()> {
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        self.do_truncate(ino, size)
    }

    fn mkdir(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        self.check_mounted()?;
        let (parent, name) = self.resolve_parent(p)?;
        if self.lookup_child(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let mut inode = self.new_inode(
            NodeKind::Directory {
                entries: Arc::new(BTreeMap::new()),
            },
            mode,
            now,
        );
        inode.nlink = 2;
        let ino = self.alloc_inode(inode)?;
        self.insert_entry(parent, name, ino)?;
        self.inode_mut(parent)?.nlink += 1;
        Ok(())
    }

    fn rmdir(&mut self, p: &str) -> VfsResult<()> {
        self.check_mounted()?;
        if path::is_root(p) {
            return Err(Errno::EBUSY);
        }
        let (parent, name) = self.resolve_parent(p)?;
        let ino = self.lookup_child(parent, name)?.ok_or(Errno::ENOENT)?;
        match &self.inode(ino)?.kind {
            NodeKind::Directory { entries } => {
                if !entries.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
            }
            _ => return Err(Errno::ENOTDIR),
        }
        self.remove_entry(parent, name)?;
        self.inode_mut(ino)?.nlink = 0;
        self.inode_mut(parent)?.nlink -= 1;
        self.maybe_free(ino)?;
        Ok(())
    }

    fn unlink(&mut self, p: &str) -> VfsResult<()> {
        self.check_mounted()?;
        let (parent, name) = self.resolve_parent(p)?;
        let ino = self.lookup_child(parent, name)?.ok_or(Errno::ENOENT)?;
        if self.inode(ino)?.is_dir() {
            return Err(Errno::EISDIR);
        }
        self.remove_entry(parent, name)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.nlink -= 1;
        node.ctime = now;
        self.maybe_free(ino)?;
        Ok(())
    }

    fn stat(&mut self, p: &str) -> VfsResult<FileStat> {
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        let node = self.inode(ino)?;
        let size = match &node.kind {
            NodeKind::Regular { size, .. } => *size,
            // VeriFS reports entry-based directory sizes (unlike ext's
            // block-multiple sizes) — one of the benign differences MCFS's
            // abstraction function must ignore (paper §3.4).
            NodeKind::Directory { entries } => entries.keys().map(|k| k.len() as u64 + 8).sum(),
            NodeKind::Symlink { target } => target.len() as u64,
        };
        Ok(FileStat {
            ino: Ino(ino),
            ftype: node.ftype(),
            mode: node.mode,
            nlink: node.nlink,
            uid: node.uid,
            gid: node.gid,
            size,
            blocks: size.div_ceil(512),
            atime: node.atime,
            mtime: node.mtime,
            ctime: node.ctime,
        })
    }

    fn getdents(&mut self, p: &str) -> VfsResult<Vec<DirEntry>> {
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        let now = self.tick();
        let node = self.inode(ino)?;
        let entries = match &node.kind {
            // O(1): bump the Arc rather than deep-copying the map.
            NodeKind::Directory { entries } => Arc::clone(entries),
            _ => return Err(Errno::ENOTDIR),
        };
        let mut out = Vec::with_capacity(entries.len());
        for (name, child) in entries.iter() {
            let ftype = self.inode(*child)?.ftype();
            out.push(DirEntry {
                name: name.clone(),
                ino: Ino(*child),
                ftype,
            });
        }
        self.inode_mut(ino)?.atime = now;
        Ok(out)
    }

    fn chmod(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.mode = mode;
        node.ctime = now;
        Ok(())
    }

    fn chown(&mut self, p: &str, uid: u32, gid: u32) -> VfsResult<()> {
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.uid = uid;
        node.gid = gid;
        node.ctime = now;
        Ok(())
    }

    fn utimens(&mut self, p: &str, atime: u64, mtime: u64) -> VfsResult<()> {
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.atime = atime;
        node.mtime = mtime;
        node.ctime = now;
        Ok(())
    }

    fn rename(&mut self, src: &str, dst: &str) -> VfsResult<()> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        path::validate(src)?;
        path::validate(dst)?;
        if src == dst {
            // POSIX: rename to self is a no-op.
            self.resolve(src)?;
            return Ok(());
        }
        if path::is_same_or_descendant(src, dst) {
            return Err(Errno::EINVAL);
        }
        let (sparent, sname) = self.resolve_parent(src)?;
        let src_ino = self.lookup_child(sparent, sname)?.ok_or(Errno::ENOENT)?;
        let (dparent, dname) = self.resolve_parent(dst)?;
        let src_is_dir = self.inode(src_ino)?.is_dir();
        if let Some(dst_ino) = self.lookup_child(dparent, dname)? {
            if dst_ino == src_ino {
                return Ok(()); // hard links to the same file
            }
            let dst_is_dir = self.inode(dst_ino)?.is_dir();
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(Errno::ENOTDIR),
                (false, true) => return Err(Errno::EISDIR),
                (true, true) => {
                    if let NodeKind::Directory { entries } = &self.inode(dst_ino)?.kind {
                        if !entries.is_empty() {
                            return Err(Errno::ENOTEMPTY);
                        }
                    }
                    self.remove_entry(dparent, dname)?;
                    self.inode_mut(dst_ino)?.nlink = 0;
                    self.inode_mut(dparent)?.nlink -= 1;
                    self.maybe_free(dst_ino)?;
                }
                (false, false) => {
                    self.remove_entry(dparent, dname)?;
                    let node = self.inode_mut(dst_ino)?;
                    node.nlink -= 1;
                    self.maybe_free(dst_ino)?;
                }
            }
        }
        self.remove_entry(sparent, sname)?;
        self.insert_entry(dparent, dname, src_ino)?;
        if src_is_dir && sparent != dparent {
            self.inode_mut(sparent)?.nlink -= 1;
            self.inode_mut(dparent)?.nlink += 1;
        }
        let now = self.tick();
        self.inode_mut(src_ino)?.ctime = now;
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> VfsResult<()> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        let src_ino = self.resolve(existing)?;
        if self.inode(src_ino)?.is_dir() {
            return Err(Errno::EPERM);
        }
        if self.inode(src_ino)?.nlink >= MAX_NLINK {
            return Err(Errno::EMLINK);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.lookup_child(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        self.insert_entry(parent, name, src_ino)?;
        let now = self.tick();
        let node = self.inode_mut(src_ino)?;
        node.nlink += 1;
        node.ctime = now;
        Ok(())
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> VfsResult<()> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        if target.is_empty() || target.len() > path::PATH_MAX {
            return Err(Errno::EINVAL);
        }
        let (parent, name) = self.resolve_parent(linkpath)?;
        if self.lookup_child(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let inode = self.new_inode(
            NodeKind::Symlink {
                target: target.to_string(),
            },
            FileMode::new(0o777),
            now,
        );
        let ino = self.alloc_inode(inode)?;
        self.insert_entry(parent, name, ino)
    }

    fn readlink(&mut self, p: &str) -> VfsResult<String> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        match &self.inode(ino)?.kind {
            NodeKind::Symlink { target } => Ok(target.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    fn access(&mut self, p: &str, mode: AccessMode) -> VfsResult<()> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        let bits = self.inode(ino)?.mode;
        if (mode.read && !bits.owner_read())
            || (mode.write && !bits.owner_write())
            || (mode.exec && !bits.owner_exec())
        {
            return Err(Errno::EACCES);
        }
        Ok(())
    }

    fn setxattr(&mut self, p: &str, name: &str, value: &[u8], flags: XattrFlags) -> VfsResult<()> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        Self::check_xattr_name(name)?;
        let ino = self.resolve(p)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        let exists = node.xattrs.contains_key(name);
        match flags {
            XattrFlags::Create if exists => return Err(Errno::EEXIST),
            XattrFlags::Replace if !exists => return Err(Errno::ENODATA),
            _ => {}
        }
        node.xattrs.insert(name.to_string(), value.to_vec());
        node.ctime = now;
        Ok(())
    }

    fn getxattr(&mut self, p: &str, name: &str) -> VfsResult<Vec<u8>> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        Self::check_xattr_name(name)?;
        let ino = self.resolve(p)?;
        self.inode(ino)?
            .xattrs
            .get(name)
            .cloned()
            .ok_or(Errno::ENODATA)
    }

    fn listxattr(&mut self, p: &str) -> VfsResult<Vec<String>> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        let ino = self.resolve(p)?;
        Ok(self.inode(ino)?.xattrs.keys().cloned().collect())
    }

    fn removexattr(&mut self, p: &str, name: &str) -> VfsResult<()> {
        if !self.v2_features() {
            return Err(Errno::ENOSYS);
        }
        self.check_mounted()?;
        Self::check_xattr_name(name)?;
        let ino = self.resolve(p)?;
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        if node.xattrs.remove(name).is_none() {
            return Err(Errno::ENODATA);
        }
        node.ctime = now;
        Ok(())
    }

    fn opaque_state_digest(&self) -> Option<u128> {
        if !self.config.opaque_residue_digest {
            return None;
        }
        // The page summaries answer "no residue anywhere", the common case,
        // without reading a slot.
        if !self.state.inodes.summaries().any(|s| s.residue) {
            return None;
        }
        self.residue_digest()
    }

    /// Without a sink, restores silently skip invalidation — which is fine
    /// when no kernel cache sits in front.
    fn set_invalidation_sink(&mut self, sink: Arc<dyn InvalidationSink>) {
        self.sink = Some(sink);
    }
}

impl VeriFs {
    /// The digest of every nonzero residue in the table, walking each slot;
    /// `None` when there is none.
    fn residue_digest(&self) -> Option<u128> {
        // Buffers are never shrunk, so bytes between a file's logical size
        // and its physical capacity are stale residue the POSIX interface
        // (and hence the abstraction function) cannot read — until a buggy
        // hole write exposes them. Fold every *nonzero* residue into an
        // order-independent digest: an all-zero tail behaves exactly like no
        // tail (growth zero-fills), so it must fingerprint identically.
        let mut acc: u128 = 0;
        let mut any = false;
        let mut canon: Option<Vec<Option<String>>> = None;
        // mcfs-lint: allow(MC007, keyed by canonical path; the slot fallback only covers orphans with no POSIX-reachable residue)
        for (ino, slot) in self.state.inodes.slots().enumerate() {
            let Some(inode) = slot else { continue };
            if let NodeKind::Regular { size, .. } = &inode.kind {
                let residue = inode.residue();
                if residue.iter().all(|&b| b == 0) {
                    continue;
                }
                // XOR-fold per-inode digests keyed by the inode's canonical
                // path so two files with identical residues don't cancel
                // out. The key must NOT be the inode number: slot assignment
                // depends on creation order, and two op interleavings that
                // reach the same observable state would then fingerprint
                // differently, making state-matched exploration counts
                // depend on visit order. Orphans (no path) have no residue
                // the POSIX interface could ever surface again, but key
                // them by slot as a conservative fallback.
                let paths = canon.get_or_insert_with(|| self.canonical_paths());
                let mut bytes = Vec::with_capacity(24 + residue.len());
                match &paths[ino] {
                    Some(path) => bytes.extend_from_slice(path.as_bytes()),
                    None => bytes.extend_from_slice(&(ino as u64).to_le_bytes()),
                }
                bytes.push(0);
                bytes.extend_from_slice(&size.to_le_bytes());
                bytes.extend_from_slice(residue);
                acc ^= mdigest::md5(&bytes).as_u128();
                any = true;
            }
        }
        any.then_some(acc)
    }

    /// Lexicographically-smallest path reaching each inode, indexed by
    /// inode number. Directories have exactly one parent, so the walk is a
    /// tree traversal; hardlinked files keep the smallest of their names.
    /// Orphans (unlinked-but-open inodes) get `None`.
    fn canonical_paths(&self) -> Vec<Option<String>> {
        let mut canon: Vec<Option<String>> = vec![None; self.state.inodes.len()];
        let root = Ino::ROOT.0 as usize;
        if root < canon.len() {
            canon[root] = Some(String::from("/"));
        }
        let mut stack: Vec<(u64, String)> = vec![(Ino::ROOT.0, String::new())];
        while let Some((dir, prefix)) = stack.pop() {
            let Some(inode) = self.state.inodes.get(dir) else {
                continue;
            };
            let NodeKind::Directory { entries } = &inode.kind else {
                continue;
            };
            for (name, &child) in entries.iter() {
                let path = format!("{prefix}/{name}");
                let is_dir = self.state.inodes.get(child).is_some_and(Inode::is_dir);
                match &mut canon[child as usize] {
                    slot @ None => {
                        *slot = Some(path.clone());
                        if is_dir {
                            stack.push((child, path));
                        }
                    }
                    Some(existing) if path < *existing => *existing = path,
                    _ => {}
                }
            }
        }
        canon
    }
}

impl FsCheckpoint for VeriFs {
    fn checkpoint(&mut self, key: u64) -> VfsResult<()> {
        self.check_mounted()?;
        // ioctl_CHECKPOINT: lock, capture inode and file data into the
        // snapshot pool under `key`, unlock. The &mut receiver is the lock.
        // Cloning the state is O(1) reference bumps (copy-on-write);
        // heap_bytes keeps the *logical* accounting the memory model charges
        // by summing the page summaries, re-reading only pages written since
        // the last checkpoint.
        let snap = self.state.clone();
        self.pool_bytes += snap.heap_bytes();
        if let Some(old) = self.pool.insert(key, snap) {
            self.pool_bytes -= old.heap_bytes();
        }
        Ok(())
    }

    fn restore(&mut self, key: u64) -> VfsResult<()> {
        self.restore_impl(key, false)
    }

    fn restore_keep(&mut self, key: u64) -> VfsResult<()> {
        self.restore_impl(key, true)
    }

    fn discard(&mut self, key: u64) -> VfsResult<()> {
        let old = self.pool.remove(&key).ok_or(Errno::ENOENT)?;
        self.pool_bytes -= old.heap_bytes();
        Ok(())
    }

    fn snapshot_count(&self) -> usize {
        self.pool.len()
    }

    fn snapshot_bytes(&self) -> usize {
        self.pool_bytes
    }

    fn snapshot_resident_bytes(&self) -> usize {
        // Host bytes uniquely held by the pool: walk each snapshot, counting
        // an allocation only if it is neither reachable from the live state
        // nor already counted for an earlier snapshot (pointer identity).
        let mut seen = HashSet::new();
        mark_state_allocations(&self.state, &mut seen);
        self.pool
            .values()
            .map(|s| unique_heap_bytes(s, &mut seen))
            .sum()
    }
}

/// Records the live state's shared allocations so snapshots don't get
/// charged for structure they share with it.
fn mark_state_allocations(state: &FsState, seen: &mut HashSet<*const ()>) {
    if !seen.insert(Arc::as_ptr(&state.inodes.pages).cast()) {
        return; // same page index ⇒ same pages and interior allocations
    }
    for page in state.inodes.pages.iter() {
        if !seen.insert(Arc::as_ptr(page).cast()) {
            continue;
        }
        for inode in page.slots.iter().flatten() {
            match &inode.kind {
                NodeKind::Regular { buf, .. } => {
                    seen.insert(Arc::as_ptr(buf).cast());
                }
                NodeKind::Directory { entries } => {
                    seen.insert(Arc::as_ptr(entries).cast());
                }
                NodeKind::Symlink { .. } => {}
            }
        }
    }
}

/// Heap bytes of `state` not yet counted in `seen` (same size formulas as
/// [`FsState::heap_bytes`], so resident and logical figures are comparable).
/// Sharing is counted per page: a page the live state or an earlier
/// snapshot also holds costs nothing.
fn unique_heap_bytes(state: &FsState, seen: &mut HashSet<*const ()>) -> usize {
    if !seen.insert(Arc::as_ptr(&state.inodes.pages).cast()) {
        return 0;
    }
    let mut total = 0;
    for page in state.inodes.pages.iter() {
        if !seen.insert(Arc::as_ptr(page).cast()) {
            continue;
        }
        total += page.slots.len() * std::mem::size_of::<Option<Inode>>();
        for inode in page.slots.iter().flatten() {
            // The inode struct and its (non-Arc) xattrs live inside this copy
            // of the page; the Arc-backed payloads are counted once per
            // allocation.
            total += std::mem::size_of::<Inode>();
            total += inode
                .xattrs
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>();
            match &inode.kind {
                NodeKind::Regular { buf, .. } => {
                    if seen.insert(Arc::as_ptr(buf).cast()) {
                        total += buf.len();
                    }
                }
                NodeKind::Directory { entries } => {
                    if seen.insert(Arc::as_ptr(entries).cast()) {
                        total += entries.keys().map(|k| k.len() + 16).sum::<usize>();
                    }
                }
                NodeKind::Symlink { target } => total += target.len(),
            }
        }
    }
    total
}

impl VeriFs {
    fn restore_impl(&mut self, key: u64, keep: bool) -> VfsResult<()> {
        self.check_mounted()?;
        // One helper for both restore flavors: the keep path clones (an O(1)
        // reference bump), the discard path moves the snapshot out and
        // refunds its logical bytes (the paper's ioctl_RESTORE semantics).
        let state = if keep {
            self.pool.get(&key).ok_or(Errno::ENOENT)?.clone()
        } else {
            let state = self.pool.remove(&key).ok_or(Errno::ENOENT)?;
            self.pool_bytes -= state.heap_bytes();
            state
        };
        self.apply_restore(state);
        Ok(())
    }

    fn apply_restore(&mut self, state: FsState) {
        self.state = state;
        // Notify the kernel to invalidate its caches — the fix for paper
        // bug 2. With the historical bug enabled, the notification is
        // skipped and any cache in front of us keeps serving the discarded
        // future.
        if !self.config.bugs.v1_skip_invalidation {
            if let Some(sink) = &self.sink {
                sink.invalidate_all();
            }
        }
    }

    /// Forces every copy-on-write allocation in the *live* state to be
    /// uniquely owned, paying the full deep copy a non-COW checkpoint would
    /// have paid. Benchmarks and equivalence tests call this right after
    /// [`FsCheckpoint::checkpoint`] to reconstruct the deep-clone baseline.
    pub fn materialize_cow(&mut self) {
        // Unsharing copies without changing a byte, so the page summaries
        // stay valid.
        for page in Arc::make_mut(&mut self.state.inodes.pages) {
            for inode in Arc::make_mut(page).slots.iter_mut().flatten() {
                match &mut inode.kind {
                    NodeKind::Regular { buf, .. } => {
                        Arc::make_mut(buf);
                    }
                    NodeKind::Directory { entries } => {
                        Arc::make_mut(entries);
                    }
                    NodeKind::Symlink { .. } => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mounted_v2() -> VeriFs {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        fs
    }

    fn mounted_v1() -> VeriFs {
        let mut fs = VeriFs::v1();
        fs.mount().unwrap();
        fs
    }

    fn write_file(fs: &mut VeriFs, p: &str, data: &[u8]) {
        let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn read_file(fs: &mut VeriFs, p: &str) -> Vec<u8> {
        let fd = fs
            .open(p, OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let size = fs.stat(p).unwrap().size as usize;
        let mut buf = vec![0; size + 16];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/a", b"hello world");
        assert_eq!(read_file(&mut fs, "/a"), b"hello world");
        let st = fs.stat("/a").unwrap();
        assert_eq!(st.size, 11);
        assert_eq!(st.ftype, FileType::Regular);
        assert_eq!(st.nlink, 1);
    }

    #[test]
    fn unmounted_operations_fail() {
        let mut fs = VeriFs::v2();
        assert_eq!(fs.stat("/"), Err(Errno::ENODEV));
        assert_eq!(fs.mkdir("/d", FileMode::DIR_DEFAULT), Err(Errno::ENODEV));
        fs.mount().unwrap();
        assert_eq!(fs.mount(), Err(Errno::EBUSY));
        fs.unmount().unwrap();
        assert_eq!(fs.unmount(), Err(Errno::ENODEV));
    }

    #[test]
    fn state_survives_unmount_but_fds_do_not() {
        let mut fs = mounted_v2();
        let fd = fs.create("/a", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"x").unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.stat("/a").unwrap().size, 1);
        assert_eq!(fs.read(fd, &mut [0; 4]), Err(Errno::EBADF));
    }

    #[test]
    fn create_errors() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/a", b"");
        assert_eq!(
            fs.create("/a", FileMode::REG_DEFAULT).unwrap_err(),
            Errno::EEXIST
        );
        assert_eq!(
            fs.create("/no/f", FileMode::REG_DEFAULT).unwrap_err(),
            Errno::ENOENT
        );
        assert_eq!(
            fs.create("/a/f", FileMode::REG_DEFAULT).unwrap_err(),
            Errno::ENOTDIR
        );
        assert_eq!(
            fs.create("bad", FileMode::REG_DEFAULT).unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn open_flag_semantics() {
        let mut fs = mounted_v2();
        assert_eq!(
            fs.open("/missing", OpenFlags::read_only(), FileMode::REG_DEFAULT),
            Err(Errno::ENOENT)
        );
        let fd = fs
            .open(
                "/new",
                OpenFlags::read_write().with_create(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, b"abc").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(
            fs.open(
                "/new",
                OpenFlags::read_write().with_create().with_excl(),
                FileMode::REG_DEFAULT
            ),
            Err(Errno::EEXIST)
        );
        // O_TRUNC clears content.
        let fd = fs
            .open(
                "/new",
                OpenFlags::write_only().with_trunc(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/new").unwrap().size, 0);
        // Writing through a read-only descriptor fails.
        let fd = fs
            .open("/new", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        assert_eq!(fs.write(fd, b"x"), Err(Errno::EBADF));
        fs.close(fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/log", b"one");
        let fd = fs
            .open(
                "/log",
                OpenFlags::write_only().with_append(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, b"two").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(read_file(&mut fs, "/log"), b"onetwo");
    }

    #[test]
    fn lseek_and_sparse_read() {
        let mut fs = mounted_v2();
        let fd = fs.create("/s", FileMode::REG_DEFAULT).unwrap();
        fs.lseek(fd, 10).unwrap();
        fs.write(fd, b"end").unwrap();
        fs.close(fd).unwrap();
        let content = read_file(&mut fs, "/s");
        assert_eq!(content.len(), 13);
        assert_eq!(&content[..10], &[0u8; 10], "hole must read as zeros");
        assert_eq!(&content[10..], b"end");
    }

    #[test]
    fn hole_bug_exposes_stale_bytes() {
        // Fill a file with garbage, shrink it, then write past EOF: the hole
        // region must be zeroed — unless bug 3 is enabled.
        let run = |bugs: BugConfig| -> Vec<u8> {
            let mut fs = VeriFs::v2_with_bugs(bugs);
            fs.mount().unwrap();
            write_file(&mut fs, "/f", &[0xAA; 40]);
            fs.truncate("/f", 4).unwrap();
            let fd = fs
                .open("/f", OpenFlags::write_only(), FileMode::REG_DEFAULT)
                .unwrap();
            fs.lseek(fd, 20).unwrap();
            fs.write(fd, b"zz").unwrap();
            fs.close(fd).unwrap();
            read_file(&mut fs, "/f")
        };
        let good = run(BugConfig::none());
        assert_eq!(&good[4..20], &[0u8; 16]);
        let bad = run(BugConfig {
            v2_hole_no_zero: true,
            ..BugConfig::default()
        });
        assert_eq!(&bad[4..20], &[0xAA; 16], "bug 3 leaks stale bytes");
    }

    #[test]
    fn truncate_bug_exposes_stale_bytes() {
        let run = |bugs: BugConfig| -> Vec<u8> {
            let mut fs = VeriFs::v1_with_bugs(bugs);
            fs.mount().unwrap();
            write_file(&mut fs, "/f", &[0x55; 32]);
            fs.truncate("/f", 2).unwrap();
            fs.truncate("/f", 32).unwrap();
            read_file(&mut fs, "/f")
        };
        let good = run(BugConfig::none());
        assert_eq!(&good[2..], &[0u8; 30]);
        let bad = run(BugConfig {
            v1_truncate_no_zero: true,
            ..BugConfig::default()
        });
        assert_eq!(&bad[2..], &[0x55; 30], "bug 1 leaks stale bytes");
    }

    #[test]
    fn size_update_bug_loses_appends() {
        let run = |bugs: BugConfig| -> u64 {
            let mut fs = VeriFs::v2_with_bugs(bugs);
            fs.mount().unwrap();
            // First write grows capacity to one chunk; the second append fits
            // inside that capacity.
            write_file(&mut fs, "/f", &[1; 10]);
            let fd = fs
                .open(
                    "/f",
                    OpenFlags::write_only().with_append(),
                    FileMode::REG_DEFAULT,
                )
                .unwrap();
            fs.write(fd, &[2; 10]).unwrap();
            fs.close(fd).unwrap();
            fs.stat("/f").unwrap().size
        };
        assert_eq!(run(BugConfig::none()), 20);
        assert_eq!(
            run(BugConfig {
                v2_size_only_on_capacity_growth: true,
                ..BugConfig::default()
            }),
            10,
            "bug 4: file appears shorter"
        );
    }

    #[test]
    fn mkdir_rmdir_semantics() {
        let mut fs = mounted_v2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(fs.mkdir("/d", FileMode::DIR_DEFAULT), Err(Errno::EEXIST));
        fs.mkdir("/d/e", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(fs.rmdir("/d"), Err(Errno::ENOTEMPTY));
        write_file(&mut fs, "/d/e/f", b"x");
        assert_eq!(fs.rmdir("/d/e/f"), Err(Errno::ENOTDIR));
        fs.unlink("/d/e/f").unwrap();
        fs.rmdir("/d/e").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.stat("/d"), Err(Errno::ENOENT));
        assert_eq!(fs.rmdir("/"), Err(Errno::EBUSY));
    }

    #[test]
    fn directory_nlink_accounting() {
        let mut fs = mounted_v2();
        assert_eq!(fs.stat("/").unwrap().nlink, 2);
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(fs.stat("/").unwrap().nlink, 3);
        assert_eq!(fs.stat("/d").unwrap().nlink, 2);
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.stat("/").unwrap().nlink, 2);
    }

    #[test]
    fn unlink_with_open_fd_defers_free() {
        let mut fs = mounted_v2();
        let fd = fs.create("/f", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"data").unwrap();
        fs.unlink("/f").unwrap();
        assert_eq!(fs.stat("/f"), Err(Errno::ENOENT));
        // Data still readable through the open descriptor.
        fs.lseek(fd, 0).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"data");
        fs.close(fd).unwrap();
        // Inode slot is reusable afterwards.
        let before = fs.statfs().unwrap().files_free;
        assert!(before > 0);
    }

    #[test]
    fn inode_exhaustion_returns_enospc() {
        let mut cfg = VeriFsConfig::v1();
        cfg.max_inodes = 4; // root + 2 allocatable (slot 0 reserved)
        let mut fs = VeriFs::with_config(cfg);
        fs.mount().unwrap();
        let fd = fs.create("/a", FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.create("/b", FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.create("/c", FileMode::REG_DEFAULT), Err(Errno::ENOSPC));
        fs.unlink("/a").unwrap();
        let fd = fs.create("/c", FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
    }

    #[test]
    fn data_budget_enforced_in_v2() {
        let mut cfg = VeriFsConfig::v2();
        cfg.data_budget = Some(100);
        let mut fs = VeriFs::with_config(cfg);
        fs.mount().unwrap();
        let fd = fs.create("/f", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &[0; 90]).unwrap();
        assert_eq!(fs.write(fd, &[0; 20]), Err(Errno::ENOSPC));
        // Overwrites within the size don't charge.
        fs.lseek(fd, 0).unwrap();
        fs.write(fd, &[1; 90]).unwrap();
        fs.close(fd).unwrap();
        // Truncate releases budget.
        fs.truncate("/f", 0).unwrap();
        write_file(&mut fs, "/g", &[0; 100]);
    }

    #[test]
    fn v1_is_unbounded() {
        let mut fs = mounted_v1();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &vec![7u8; 3 * DEFAULT_DATA_BUDGET as usize / 2])
            .unwrap();
        fs.close(fd).unwrap();
    }

    #[test]
    fn v1_lacks_v2_operations() {
        let mut fs = mounted_v1();
        write_file(&mut fs, "/a", b"x");
        assert_eq!(fs.rename("/a", "/b"), Err(Errno::ENOSYS));
        assert_eq!(fs.link("/a", "/b"), Err(Errno::ENOSYS));
        assert_eq!(fs.symlink("/a", "/b"), Err(Errno::ENOSYS));
        assert_eq!(fs.readlink("/a"), Err(Errno::ENOSYS));
        assert_eq!(fs.access("/a", AccessMode::read()), Err(Errno::ENOSYS));
        assert_eq!(fs.getxattr("/a", "user.x"), Err(Errno::ENOSYS));
        assert!(!fs.capabilities().rename);
        assert!(fs.capabilities().checkpoint);
    }

    #[test]
    fn rename_file_and_replacement() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/a", b"A");
        write_file(&mut fs, "/b", b"B");
        fs.rename("/a", "/c").unwrap();
        assert_eq!(fs.stat("/a"), Err(Errno::ENOENT));
        assert_eq!(read_file(&mut fs, "/c"), b"A");
        // Replacing an existing file.
        fs.rename("/c", "/b").unwrap();
        assert_eq!(read_file(&mut fs, "/b"), b"A");
        assert_eq!(fs.stat("/c"), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_directory_rules() {
        let mut fs = mounted_v2();
        fs.mkdir("/d1", FileMode::DIR_DEFAULT).unwrap();
        fs.mkdir("/d2", FileMode::DIR_DEFAULT).unwrap();
        fs.mkdir("/d2/sub", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/f", b"x");
        // dir -> non-empty dir
        assert_eq!(fs.rename("/d1", "/d2"), Err(Errno::ENOTEMPTY));
        // dir -> file
        assert_eq!(fs.rename("/d1", "/f"), Err(Errno::ENOTDIR));
        // file -> dir
        assert_eq!(fs.rename("/f", "/d1"), Err(Errno::EISDIR));
        // dir into own subtree
        assert_eq!(fs.rename("/d2", "/d2/sub/x"), Err(Errno::EINVAL));
        // dir -> empty dir works
        fs.rmdir("/d2/sub").unwrap();
        fs.rename("/d1", "/d2").unwrap();
        assert_eq!(fs.stat("/d1"), Err(Errno::ENOENT));
        assert!(fs.stat("/d2").unwrap().ftype == FileType::Directory);
        // rename to self is a no-op
        fs.rename("/d2", "/d2").unwrap();
    }

    #[test]
    fn rename_moves_subtree() {
        let mut fs = mounted_v2();
        fs.mkdir("/src", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/src/f", b"deep");
        fs.mkdir("/dst", FileMode::DIR_DEFAULT).unwrap();
        fs.rename("/src", "/dst/moved").unwrap();
        assert_eq!(read_file(&mut fs, "/dst/moved/f"), b"deep");
        assert_eq!(fs.stat("/").unwrap().nlink, 3, "root lost subdir link");
        assert_eq!(fs.stat("/dst").unwrap().nlink, 3, "dst gained subdir link");
    }

    #[test]
    fn hard_links_share_content() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/a", b"shared");
        fs.link("/a", "/b").unwrap();
        assert_eq!(fs.stat("/a").unwrap().nlink, 2);
        assert_eq!(fs.stat("/a").unwrap().ino, fs.stat("/b").unwrap().ino);
        fs.unlink("/a").unwrap();
        assert_eq!(read_file(&mut fs, "/b"), b"shared");
        assert_eq!(fs.stat("/b").unwrap().nlink, 1);
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(fs.link("/d", "/d2"), Err(Errno::EPERM));
        assert_eq!(fs.link("/b", "/b"), Err(Errno::EEXIST));
    }

    #[test]
    fn symlinks_are_not_followed() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/target", b"t");
        fs.symlink("/target", "/ln").unwrap();
        assert_eq!(fs.readlink("/ln").unwrap(), "/target");
        assert_eq!(fs.stat("/ln").unwrap().ftype, FileType::Symlink);
        assert_eq!(
            fs.open("/ln", OpenFlags::read_only(), FileMode::REG_DEFAULT),
            Err(Errno::ELOOP)
        );
        assert_eq!(fs.readlink("/target"), Err(Errno::EINVAL));
        fs.unlink("/ln").unwrap();
        assert_eq!(fs.stat("/ln"), Err(Errno::ENOENT));
    }

    #[test]
    fn xattr_roundtrip_and_flags() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/f", b"");
        fs.setxattr("/f", "user.one", b"1", XattrFlags::Any)
            .unwrap();
        assert_eq!(
            fs.setxattr("/f", "user.one", b"x", XattrFlags::Create),
            Err(Errno::EEXIST)
        );
        assert_eq!(
            fs.setxattr("/f", "user.two", b"x", XattrFlags::Replace),
            Err(Errno::ENODATA)
        );
        fs.setxattr("/f", "user.two", b"2", XattrFlags::Any)
            .unwrap();
        assert_eq!(fs.getxattr("/f", "user.one").unwrap(), b"1");
        assert_eq!(fs.listxattr("/f").unwrap(), vec!["user.one", "user.two"]);
        fs.removexattr("/f", "user.one").unwrap();
        assert_eq!(fs.removexattr("/f", "user.one"), Err(Errno::ENODATA));
        assert_eq!(fs.getxattr("/f", "user.one"), Err(Errno::ENODATA));
        assert_eq!(
            fs.setxattr("/f", "", b"", XattrFlags::Any),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn access_checks_owner_bits() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/f", b"");
        fs.chmod("/f", FileMode::new(0o400)).unwrap();
        assert_eq!(fs.access("/f", AccessMode::read()), Ok(()));
        assert_eq!(fs.access("/f", AccessMode::write()), Err(Errno::EACCES));
        assert_eq!(fs.access("/f", AccessMode::exec()), Err(Errno::EACCES));
        assert_eq!(fs.access("/f", AccessMode::exists()), Ok(()));
        assert_eq!(fs.access("/nope", AccessMode::exists()), Err(Errno::ENOENT));
    }

    #[test]
    fn getdents_lists_entries() {
        let mut fs = mounted_v2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/b", b"");
        write_file(&mut fs, "/d/a", b"");
        fs.symlink("/x", "/d/l").unwrap();
        let names: Vec<_> = fs
            .getdents("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "l"]);
        assert_eq!(fs.getdents("/d/a"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn chmod_chown_utimens() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/f", b"");
        fs.chmod("/f", FileMode::new(0o111)).unwrap();
        assert_eq!(fs.stat("/f").unwrap().mode, FileMode::new(0o111));
        fs.chown("/f", 42, 43).unwrap();
        let st = fs.stat("/f").unwrap();
        assert_eq!((st.uid, st.gid), (42, 43));
        fs.utimens("/f", 111, 222).unwrap();
        let st = fs.stat("/f").unwrap();
        assert_eq!((st.atime, st.mtime), (111, 222));
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/a", b"before");
        fs.checkpoint(7).unwrap();
        assert_eq!(fs.snapshot_count(), 1);
        assert!(fs.snapshot_bytes() > 0);
        fs.unlink("/a").unwrap();
        write_file(&mut fs, "/b", b"after");
        fs.restore(7).unwrap();
        assert_eq!(read_file(&mut fs, "/a"), b"before");
        assert_eq!(fs.stat("/b"), Err(Errno::ENOENT));
        // restore discards the snapshot (paper semantics).
        assert_eq!(fs.snapshot_count(), 0);
        assert_eq!(fs.restore(7), Err(Errno::ENOENT));
    }

    #[test]
    fn restore_keep_allows_multiple_restores() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/a", b"v0");
        fs.checkpoint(1).unwrap();
        for _ in 0..3 {
            fs.truncate("/a", 0).unwrap();
            fs.restore_keep(1).unwrap();
            assert_eq!(fs.stat("/a").unwrap().size, 2);
        }
        fs.discard(1).unwrap();
        assert_eq!(fs.discard(1), Err(Errno::ENOENT));
    }

    #[test]
    fn restore_fires_invalidation_unless_bug() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counter(AtomicUsize);
        impl InvalidationSink for Counter {
            fn invalidate_entry(&self, _: u64, _: &str) {}
            fn invalidate_inode(&self, _: u64) {}
            fn invalidate_all(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let run = |bugs: BugConfig| {
            let sink = Arc::new(Counter::default());
            let mut fs = VeriFs::v1_with_bugs(bugs);
            fs.set_invalidation_sink(sink.clone());
            fs.mount().unwrap();
            fs.checkpoint(1).unwrap();
            fs.restore(1).unwrap();
            sink.0.load(Ordering::SeqCst)
        };
        assert_eq!(run(BugConfig::none()), 1);
        assert_eq!(
            run(BugConfig {
                v1_skip_invalidation: true,
                ..BugConfig::default()
            }),
            0,
            "bug 2 skips kernel-cache invalidation"
        );
    }

    #[test]
    fn statfs_reflects_budget() {
        let mut cfg = VeriFsConfig::v2();
        cfg.data_budget = Some(8192);
        let mut fs = VeriFs::with_config(cfg);
        fs.mount().unwrap();
        let before = fs.statfs().unwrap();
        assert_eq!(before.blocks, 2);
        write_file(&mut fs, "/f", &[0; 4096]);
        let after = fs.statfs().unwrap();
        assert_eq!(after.blocks_free, 1);
        assert!(fs.statfs().unwrap().files_free < before.files + 1);
    }

    #[test]
    fn reads_never_see_beyond_eof() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/f", b"0123456789");
        let fd = fs
            .open("/f", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.lseek(fd, 8).unwrap();
        let mut buf = [0xFFu8; 8];
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"89");
        // At EOF, read returns 0.
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 0);
        fs.close(fd).unwrap();
    }

    #[test]
    fn times_progress_monotonically() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/f", b"x");
        let t1 = fs.stat("/f").unwrap().mtime;
        let fd = fs
            .open("/f", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, b"y").unwrap();
        fs.close(fd).unwrap();
        let t2 = fs.stat("/f").unwrap().mtime;
        assert!(t2 > t1);
    }

    #[test]
    fn read_updates_atime_only() {
        let mut fs = mounted_v2();
        write_file(&mut fs, "/f", b"x");
        let before = fs.stat("/f").unwrap();
        let fd = fs
            .open("/f", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.read(fd, &mut [0u8; 1]).unwrap();
        fs.close(fd).unwrap();
        let after = fs.stat("/f").unwrap();
        assert!(after.atime > before.atime);
        assert_eq!(after.mtime, before.mtime);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn snapshot_pool_is_isolated_from_live_mutations() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let fd = fs.create("/f", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"v1").unwrap();
        fs.close(fd).unwrap();
        fs.checkpoint(1).unwrap();
        // Mutating the live state must not bleed into the stored snapshot.
        let fd = fs
            .open("/f", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, b"XX").unwrap();
        fs.close(fd).unwrap();
        fs.restore_keep(1).unwrap();
        let fd = fs
            .open("/f", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = [0u8; 4];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(&buf[..n], b"v1");
    }

    #[test]
    fn multiple_checkpoints_under_same_key_replace() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        fs.checkpoint(1).unwrap();
        let fd = fs.create("/later", FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
        fs.checkpoint(1).unwrap(); // replaces the earlier snapshot
        assert_eq!(fs.snapshot_count(), 1);
        fs.unlink("/later").unwrap();
        fs.restore(1).unwrap();
        assert!(fs.stat("/later").is_ok(), "the replacement snapshot wins");
    }

    #[test]
    fn deep_paths_resolve_and_report_depth_errors() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let mut path = String::new();
        for i in 0..8 {
            path.push_str(&format!("/n{i}"));
            fs.mkdir(&path, FileMode::DIR_DEFAULT).unwrap();
        }
        let file = format!("{path}/leaf");
        let fd = fs.create(&file, FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat(&file).unwrap().ftype, FileType::Regular);
        // Removing an ancestor makes the whole subtree unreachable.
        // (rmdir refuses while non-empty.)
        assert_eq!(fs.rmdir("/n0"), Err(Errno::ENOTEMPTY));
    }

    #[test]
    fn rename_onto_hardlink_of_self_is_noop() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let fd = fs.create("/a", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"x").unwrap();
        fs.close(fd).unwrap();
        fs.link("/a", "/b").unwrap();
        // POSIX: rename between two links of the same file does nothing.
        fs.rename("/a", "/b").unwrap();
        assert!(fs.stat("/a").is_ok());
        assert!(fs.stat("/b").is_ok());
        assert_eq!(fs.stat("/a").unwrap().nlink, 2);
    }

    #[test]
    fn symlink_name_collision_is_eexist() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        fs.symlink("/t", "/ln").unwrap();
        assert_eq!(fs.symlink("/other", "/ln"), Err(Errno::EEXIST));
        let fd = fs.create("/file", FileMode::REG_DEFAULT).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.symlink("/t", "/file"), Err(Errno::EEXIST));
    }

    #[test]
    fn state_bytes_grows_with_content() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let before = fs.state_bytes();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &[0u8; 10_000]).unwrap();
        fs.close(fd).unwrap();
        assert!(fs.state_bytes() > before + 9_000);
    }

    #[test]
    fn checkpoint_shares_structure_until_mutation() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &[7u8; 10_000]).unwrap();
        fs.close(fd).unwrap();
        fs.checkpoint(1).unwrap();
        // Logical accounting charges the full state; host-resident bytes are
        // near zero because everything is still shared with the live state.
        assert!(fs.snapshot_bytes() > 10_000);
        assert!(
            fs.snapshot_resident_bytes() < fs.snapshot_bytes() / 10,
            "fresh snapshot should share (resident {} vs logical {})",
            fs.snapshot_resident_bytes(),
            fs.snapshot_bytes()
        );
        // Rewriting the file unshares its buffer: the snapshot now uniquely
        // owns the old contents.
        let fd = fs
            .open("/big", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, &[9u8; 10_000]).unwrap();
        fs.close(fd).unwrap();
        assert!(fs.snapshot_resident_bytes() > 10_000);
        // The snapshot still restores the original contents.
        fs.restore(1).unwrap();
        let fd = fs
            .open("/big", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = [0u8; 4];
        fs.read(fd, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 4]);
        fs.close(fd).unwrap();
        // After a checkpoint and a restore the live state shares everything
        // with the snapshot again. One small write then unshares the page
        // holding the file's inode and the file's buffer, not the table.
        fs.checkpoint(2).unwrap();
        fs.restore_keep(2).unwrap();
        let before = fs.snapshot_resident_bytes();
        let fd = fs
            .open("/big", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, b"x").unwrap();
        fs.close(fd).unwrap();
        let grown = fs.snapshot_resident_bytes() - before;
        // A page of slots, each charged for the inode it may hold.
        let page =
            PAGE_SLOTS * (std::mem::size_of::<Option<Inode>>() + std::mem::size_of::<Inode>());
        assert!(
            grown <= page + round_up(10_000),
            "one write grew the snapshot's resident bytes by {grown}"
        );
        assert!(
            grown >= round_up(10_000),
            "the old buffer is pool-owned: {grown}"
        );
    }

    #[test]
    fn materialize_cow_reconstructs_deep_clone_cost() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let fd = fs.create("/f", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &[1u8; 5_000]).unwrap();
        fs.close(fd).unwrap();
        fs.checkpoint(1).unwrap();
        fs.materialize_cow();
        // After materializing, the snapshot shares nothing with the live
        // state: resident equals logical accounting.
        assert_eq!(fs.snapshot_resident_bytes(), fs.snapshot_bytes());
        // And the state is still observably intact.
        assert_eq!(fs.stat("/f").unwrap().size, 5_000);
        fs.restore_keep(1).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 5_000);
    }

    #[test]
    fn snapshots_under_distinct_keys_share_with_each_other() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let fd = fs.create("/f", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &[3u8; 8_000]).unwrap();
        fs.close(fd).unwrap();
        fs.checkpoint(1).unwrap();
        fs.checkpoint(2).unwrap();
        // Overwrite live so both snapshots detach from the live state; they
        // still share the old buffer with each other, so the pool's unique
        // footprint is ~one copy, not two.
        let fd = fs
            .open("/f", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, &[4u8; 8_000]).unwrap();
        fs.close(fd).unwrap();
        let resident = fs.snapshot_resident_bytes();
        assert!(resident > 8_000, "old buffer is pool-owned: {resident}");
        assert!(
            resident < fs.snapshot_bytes() * 3 / 4,
            "two snapshots must share one copy (resident {resident}, logical {})",
            fs.snapshot_bytes()
        );
    }

    /// [`FsState::heap_bytes`] by walking every slot, without the page
    /// summaries.
    fn heap_bytes_walk(state: &FsState) -> usize {
        state
            .inodes
            .slots()
            .flatten()
            .map(Inode::heap_bytes)
            .sum::<usize>()
            + state.inodes.len() * std::mem::size_of::<Option<Inode>>()
    }

    /// Checks the summary-backed accounting and digest against full walks.
    fn assert_summaries_exact(fs: &VeriFs, step: usize) {
        assert_eq!(fs.state_bytes(), heap_bytes_walk(&fs.state), "step {step}");
        let pool: usize = fs.pool.values().map(heap_bytes_walk).sum();
        assert_eq!(fs.snapshot_bytes(), pool, "step {step}");
        assert_eq!(fs.opaque_state_digest(), fs.residue_digest(), "step {step}");
    }

    /// Forty names: four directories, then files at the root and inside
    /// them, enough to spread the inodes over more than one page.
    fn trace_path(i: u8) -> String {
        match i {
            0..=3 => format!("/d{i}"),
            _ if i.is_multiple_of(2) => format!("/f{i}"),
            _ => format!("/d{}/f{i}", i % 4),
        }
    }

    const SIZES: [u64; 4] = [0, 1, 65, 200];

    /// Runs one encoded step; errors are part of the trace, not failures.
    fn run_step(fs: &mut VeriFs, held: &mut Vec<Fd>, (kind, a, b, c): (u8, u8, u8, u8)) {
        let p = trace_path(a);
        let q = trace_path((a + 7 * b + 1) % 40);
        let key = u64::from(b);
        match kind {
            0..=7 => {
                let flags = OpenFlags {
                    create: true,
                    ..OpenFlags::write_only()
                };
                if let Ok(fd) = fs.open(&p, flags, FileMode::REG_DEFAULT) {
                    let _ = fs.lseek(fd, [0, 10, 100, 300][b as usize]);
                    let _ = fs.write(fd, &vec![c + 1; SIZES[c as usize] as usize]);
                    let _ = fs.close(fd);
                }
            }
            8 => drop(fs.truncate(&p, SIZES[b as usize])),
            9 => drop(fs.mkdir(&trace_path(a % 4), FileMode::DIR_DEFAULT)),
            10 => drop(fs.rmdir(&trace_path(a % 4))),
            11 => drop(fs.unlink(&p)),
            12 => drop(fs.rename(&p, &q)),
            13 => drop(fs.link(&p, &q)),
            14 => drop(fs.setxattr(&p, "user.x", &vec![7; c as usize], XattrFlags::Any)),
            15 => drop(fs.checkpoint(key)),
            16 => drop(fs.restore_keep(key)),
            17 => drop(fs.restore(key)),
            18 => drop(fs.discard(key)),
            19 => {
                if let Ok(fd) = fs.open(&p, OpenFlags::read_only(), FileMode::REG_DEFAULT) {
                    held.push(fd);
                }
            }
            _ => {
                if !held.is_empty() {
                    let _ = fs.close(held.remove(0));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The page summaries stay exact through any mix of mutations,
        /// checkpoints, restores and discards, with and without the bugs
        /// that leave residue past EOF.
        #[test]
        fn page_summaries_match_full_walks(
            steps in proptest::collection::vec((0u8..21, 0u8..40, 0u8..4, 0u8..4), 1..160)
        ) {
            for bugs in [BugConfig::none(), BugConfig::v1_truncate(), BugConfig::v2_hole()] {
                let mut fs = VeriFs::v2_with_bugs(bugs);
                fs.mount().unwrap();
                let mut held = Vec::new();
                assert_summaries_exact(&fs, 0);
                for (i, &step) in steps.iter().enumerate() {
                    run_step(&mut fs, &mut held, step);
                    assert_summaries_exact(&fs, i + 1);
                }
            }
        }
    }
}

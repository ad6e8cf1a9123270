//! The kernel side of the FUSE connection: dentry/attribute caches and the
//! request dispatcher.
//!
//! [`FuseMount`] implements [`vfs::FileSystem`] the way the kernel's FUSE
//! client does: path components are resolved through a dentry cache (with
//! negative entries), attributes are served from an attribute cache while
//! their TTL lasts, and everything else becomes messages to the user-space
//! daemon. These caches are exactly the state that went stale in paper §6
//! bug 2: after VeriFS rolled back, the kernel kept answering from entries
//! describing the discarded future until VeriFS learned to call the
//! `fuse_lowlevel_notify_inval_*` APIs — here, [`vfs::InvalidationSink`]
//! implemented by [`FuseConn`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use blockdev::Clock;
use vfs::{
    path, AccessMode, DirEntry, Errno, Fd, FileMode, FileStat, FileSystem, FsCapabilities,
    FsCheckpoint, Ino, InvalidationSink, OpenFlags, StatFs, VfsResult, XattrFlags,
};

use crate::daemon::FuseDaemon;
use crate::proto::FuseOpKind;

/// Never-expiring TTL sentinel.
const NO_EXPIRY: u64 = u64::MAX;

/// Tuning for the kernel-side caches and the message channel.
#[derive(Debug, Clone, Copy)]
pub struct FuseConfig {
    /// Dentry (entry) cache TTL in virtual nanoseconds (`u64::MAX` = none).
    pub entry_ttl_ns: u64,
    /// Attribute cache TTL in virtual nanoseconds.
    pub attr_ttl_ns: u64,
    /// Virtual-time cost of one kernel↔daemon round trip.
    pub message_cost_ns: u64,
    /// Propagate *kernel-local* cache maintenance (the dentry/attr drops a
    /// thread performs as part of its own rename/unlink/write) to every
    /// thread's cache view, not just the acting thread's. **On** is correct
    /// kernel behavior. Off reproduces a real FUSE multi-queue bug class:
    /// another thread keeps serving a renamed-away dentry and its stale
    /// attributes from its own view until the TTL expires.
    pub broadcast_local_invalidation: bool,
}

impl Default for FuseConfig {
    fn default() -> Self {
        // libfuse defaults: 1 second entry/attr timeouts. A FUSE round trip
        // (two context switches plus request/reply copies) is charged
        // 34 µs of virtual time.
        FuseConfig {
            entry_ttl_ns: 1_000_000_000,
            attr_ttl_ns: 1_000_000_000,
            message_cost_ns: 34_000,
            broadcast_local_invalidation: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Timed<T> {
    value: T,
    expires_ns: u64,
}

/// Kernel cache state shared between the mount and the invalidation
/// connection.
#[derive(Debug, Default)]
struct KernelCaches {
    /// `(parent ino, name) -> Some(child ino)` or `None` (negative dentry).
    dentries: HashMap<(u64, String), Timed<Option<u64>>>,
    attrs: HashMap<u64, Timed<FileStat>>,
    invalidations: u64,
}

impl KernelCaches {
    fn clear(&mut self) {
        self.invalidations += (self.dentries.len() + self.attrs.len()) as u64;
        self.dentries.clear();
        self.attrs.clear();
    }
}

/// Per-thread views of the kernel caches. A single-threaded mount has one
/// view and behaves exactly as before; interleaved workloads
/// ([`FileSystem::set_active_thread`]) get one view per logical thread,
/// modelling per-queue cached state in a multi-queue FUSE connection.
/// Daemon-initiated invalidations (the [`InvalidationSink`]) always reach
/// every view; thread-local maintenance broadcasts only when
/// [`FuseConfig::broadcast_local_invalidation`] is on.
#[derive(Debug)]
struct CacheTable {
    views: Vec<KernelCaches>,
    active: usize,
}

impl Default for CacheTable {
    fn default() -> Self {
        CacheTable {
            views: vec![KernelCaches::default()],
            active: 0,
        }
    }
}

impl CacheTable {
    fn active(&self) -> &KernelCaches {
        &self.views[self.active]
    }

    fn clear_all(&mut self) {
        for v in &mut self.views {
            v.clear();
        }
    }
}

/// The invalidation side of a FUSE connection. Every [`FuseMount`] hands its
/// own to the file system it mounts, as that file system's
/// [`InvalidationSink`], so restores can invalidate the kernel caches (the
/// fix for paper bug 2).
#[derive(Debug, Clone)]
pub struct FuseConn {
    caches: Arc<Mutex<CacheTable>>,
}

impl InvalidationSink for FuseConn {
    fn invalidate_entry(&self, parent: u64, name: &str) {
        let mut c = self.caches.lock().expect("cache lock poisoned");
        for v in &mut c.views {
            if v.dentries.remove(&(parent, name.to_string())).is_some() {
                v.invalidations += 1;
            }
        }
    }

    fn invalidate_inode(&self, ino: u64) {
        let mut c = self.caches.lock().expect("cache lock poisoned");
        for v in &mut c.views {
            if v.attrs.remove(&ino).is_some() {
                v.invalidations += 1;
            }
            let before = v.dentries.len();
            v.dentries
                .retain(|(parent, _), child| *parent != ino && child.value != Some(ino));
            let removed = before - v.dentries.len();
            v.invalidations += removed as u64;
        }
    }

    fn invalidate_all(&self) {
        self.caches.lock().expect("cache lock poisoned").clear_all();
    }
}

/// A FUSE mount of the user-space file system `F`.
///
/// Implements [`FileSystem`] with kernel-side caching in front of the daemon.
///
/// # Examples
///
/// ```
/// use fusesim::FuseMount;
/// use verifs::VeriFs;
/// use vfs::{FileMode, FileSystem, FsCheckpoint};
///
/// # fn main() -> vfs::VfsResult<()> {
/// let mut mount = FuseMount::new(VeriFs::v1());
/// mount.mount()?;
/// let fd = mount.create("/f", FileMode::REG_DEFAULT)?;
/// mount.write(fd, b"via fuse")?;
/// mount.close(fd)?;
/// assert_eq!(mount.stat("/f")?.size, 8);
/// // The mount handed VeriFS its invalidation connection, so a restore
/// // drops the kernel's now-stale dentry for /d.
/// mount.checkpoint(1)?;
/// mount.mkdir("/d", FileMode::DIR_DEFAULT)?;
/// mount.restore(1)?;
/// mount.mkdir("/d", FileMode::DIR_DEFAULT)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FuseMount<F> {
    daemon: FuseDaemon<F>,
    caches: Arc<Mutex<CacheTable>>,
    clock: Option<Clock>,
    config: FuseConfig,
    /// Kernel-side map from open descriptor to inode (the kernel always
    /// knows the inode behind an open file).
    fd_inos: HashMap<Fd, u64>,
    name: String,
    mounted: bool,
}

impl<F: FileSystem> FuseMount<F> {
    /// Mounts `fs` through a simulated FUSE connection with default tuning.
    pub fn new(fs: F) -> Self {
        FuseMount::with_config(fs, FuseConfig::default(), None)
    }

    /// Mounts `fs` with explicit tuning and an optional virtual clock for
    /// message-cost accounting and TTL expiry.
    ///
    /// `fs` gets this mount's invalidation connection
    /// ([`FileSystem::set_invalidation_sink`]): every FUSE mount is wired,
    /// so stale kernel caches after a restore come only from the file
    /// system skipping its notify calls.
    pub fn with_config(fs: F, config: FuseConfig, clock: Option<Clock>) -> Self {
        let name = format!("fuse-{}", fs.fs_name());
        let mut mount = FuseMount {
            daemon: FuseDaemon::new(fs),
            caches: Arc::new(Mutex::new(CacheTable::default())),
            clock,
            config,
            fd_inos: HashMap::new(),
            name,
            mounted: false,
        };
        let conn = Arc::new(mount.connection());
        mount.daemon.fs_mut().set_invalidation_sink(conn);
        mount
    }

    /// The invalidation connection for this mount — the one
    /// [`with_config`](Self::with_config) handed to the file system.
    pub(crate) fn connection(&self) -> FuseConn {
        FuseConn {
            caches: Arc::clone(&self.caches),
        }
    }

    /// The daemon process behind this mount.
    pub fn daemon(&self) -> &FuseDaemon<F> {
        &self.daemon
    }

    /// Number of cache entries invalidated so far (for tests and reports).
    pub fn invalidation_count(&self) -> u64 {
        let c = self.caches.lock().expect("cache lock poisoned");
        c.views.iter().map(|v| v.invalidations).sum()
    }

    /// Number of live dentry-cache entries in the active thread's view.
    pub fn dentry_cache_len(&self) -> usize {
        self.caches
            .lock()
            .expect("cache lock poisoned")
            .active()
            .dentries
            .len()
    }

    fn now(&self) -> u64 {
        self.clock.as_ref().map(Clock::now_ns).unwrap_or(0)
    }

    fn expiry(&self, ttl: u64) -> u64 {
        if ttl == NO_EXPIRY || self.clock.is_none() {
            NO_EXPIRY
        } else {
            self.now().saturating_add(ttl)
        }
    }

    /// Sends one message to the daemon, charging the round-trip cost.
    fn send<R>(&mut self, kind: FuseOpKind, op: impl FnOnce(&mut F) -> R) -> R {
        if let Some(clock) = &self.clock {
            clock.advance_ns(self.config.message_cost_ns);
        }
        self.daemon.handle(kind, op)
    }

    fn cache_dentry(&mut self, parent: u64, name: &str, child: Option<u64>) {
        let expires_ns = self.expiry(self.config.entry_ttl_ns);
        let broadcast = self.config.broadcast_local_invalidation;
        let mut c = self.caches.lock().expect("cache lock poisoned");
        let active = c.active;
        if broadcast {
            // Other threads' views must not keep a now-superseded entry;
            // they refetch on their next lookup.
            for (i, v) in c.views.iter_mut().enumerate() {
                if i != active {
                    v.dentries.remove(&(parent, name.to_string()));
                }
            }
        }
        c.views[active].dentries.insert(
            (parent, name.to_string()),
            Timed {
                value: child,
                expires_ns,
            },
        );
    }

    fn cache_attr(&mut self, stat: FileStat) {
        let expires_ns = self.expiry(self.config.attr_ttl_ns);
        let broadcast = self.config.broadcast_local_invalidation;
        let mut c = self.caches.lock().expect("cache lock poisoned");
        let active = c.active;
        if broadcast {
            for (i, v) in c.views.iter_mut().enumerate() {
                if i != active {
                    v.attrs.remove(&stat.ino.0);
                }
            }
        }
        c.views[active].attrs.insert(
            stat.ino.0,
            Timed {
                value: stat,
                expires_ns,
            },
        );
    }

    fn cached_dentry(&self, parent: u64, name: &str) -> Option<Option<u64>> {
        let now = self.now();
        let c = self.caches.lock().expect("cache lock poisoned");
        c.active()
            .dentries
            .get(&(parent, name.to_string()))
            .filter(|t| t.expires_ns > now)
            .map(|t| t.value)
    }

    fn cached_attr(&self, ino: u64) -> Option<FileStat> {
        let now = self.now();
        let c = self.caches.lock().expect("cache lock poisoned");
        c.active()
            .attrs
            .get(&ino)
            .filter(|t| t.expires_ns > now)
            .map(|t| t.value)
    }

    fn drop_attr(&mut self, ino: u64) {
        let broadcast = self.config.broadcast_local_invalidation;
        let mut c = self.caches.lock().expect("cache lock poisoned");
        if broadcast {
            for v in &mut c.views {
                v.attrs.remove(&ino);
            }
        } else {
            let active = c.active;
            c.views[active].attrs.remove(&ino);
        }
    }

    fn drop_dentry(&mut self, parent: u64, name: &str) {
        let broadcast = self.config.broadcast_local_invalidation;
        let mut c = self.caches.lock().expect("cache lock poisoned");
        if broadcast {
            for v in &mut c.views {
                v.dentries.remove(&(parent, name.to_string()));
            }
        } else {
            let active = c.active;
            c.views[active].dentries.remove(&(parent, name.to_string()));
        }
    }

    /// Resolves a validated path to an inode through the dentry cache,
    /// issuing `Lookup` messages on misses.
    fn resolve(&mut self, p: &str) -> VfsResult<u64> {
        path::validate(p)?;
        let mut cur = Ino::ROOT.0;
        let mut prefix = String::from("");
        for comp in path::components(p) {
            prefix.push('/');
            prefix.push_str(comp);
            match self.cached_dentry(cur, comp) {
                Some(Some(child)) => cur = child,
                Some(None) => return Err(Errno::ENOENT),
                None => {
                    let lookup_path = prefix.clone();
                    let res = self.send(FuseOpKind::Lookup, |fs| fs.stat(&lookup_path));
                    match res {
                        Ok(st) => {
                            self.cache_dentry(cur, comp, Some(st.ino.0));
                            self.cache_attr(st);
                            cur = st.ino.0;
                        }
                        Err(Errno::ENOENT) => {
                            self.cache_dentry(cur, comp, None);
                            return Err(Errno::ENOENT);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(cur)
    }

    /// Resolves the parent of `p`, returning `(parent ino, name)`.
    fn resolve_parent<'p>(&mut self, p: &'p str) -> VfsResult<(u64, &'p str)> {
        path::validate(p)?;
        let (parent, name) = path::split_parent(p)?;
        let parent_ino = self.resolve(&parent)?;
        Ok((parent_ino, name))
    }
}

impl<F: FileSystem> FileSystem for FuseMount<F> {
    fn fs_name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> FsCapabilities {
        self.daemon.fs().capabilities()
    }

    fn mount(&mut self) -> VfsResult<()> {
        if self.mounted {
            return Err(Errno::EBUSY);
        }
        self.daemon.fs_mut().mount()?;
        self.caches.lock().expect("cache lock poisoned").clear_all();
        self.mounted = true;
        Ok(())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        if !self.mounted {
            return Err(Errno::ENODEV);
        }
        self.daemon.fs_mut().unmount()?;
        // Unmount drops every kernel cache — the paper's only reliable way
        // to clear kernel state (§3.2).
        self.caches.lock().expect("cache lock poisoned").clear_all();
        self.fd_inos.clear();
        self.mounted = false;
        Ok(())
    }

    fn is_mounted(&self) -> bool {
        self.mounted
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.send(FuseOpKind::Fsync, |fs| fs.sync())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        // statfs is read-only; route without the mutable send helper.
        self.daemon.fs().statfs()
    }

    fn opaque_state_digest(&self) -> Option<u128> {
        // Hidden residue lives in the wrapped daemon's state; the FUSE
        // layer adds caches on top (reported via `caches_metadata`).
        let inner = self.daemon.fs().opaque_state_digest();
        let c = self.caches.lock().expect("cache lock poisoned");
        if c.views.len() <= 1 {
            // Single-view (sequential) mounts keep their historical
            // fingerprints; the cache contents are observable via the ops
            // themselves there.
            return inner;
        }
        // Interleaved mounts: two states whose views cache different
        // (possibly stale) values behave differently on future lookups and
        // must not be matched away. Values only — expiry timestamps depend
        // on accumulated message costs, which the lanes already keep
        // schedule-independent.
        let mut acc = inner.unwrap_or(0);
        for (i, v) in c.views.iter().enumerate() {
            let mut entries: Vec<String> = v
                .dentries
                .iter()
                .map(|((parent, name), t)| format!("d{parent}/{name}={:?}", t.value))
                .collect();
            entries.extend(
                v.attrs
                    // mcfs-lint: allow(MC007, extended into `entries`, which is sorted before hashing)
                    .iter()
                    .map(|(ino, t)| format!("a{ino}={:?}", t.value)),
            );
            entries.sort();
            let blob = format!("fuse-view{i}:{}", entries.join(";"));
            acc ^= mdigest::md5(blob.as_bytes()).as_u128();
        }
        Some(acc)
    }

    fn set_active_thread(&mut self, tid: u16) {
        let mut c = self.caches.lock().expect("cache lock poisoned");
        let idx = tid as usize;
        while c.views.len() <= idx {
            c.views.push(KernelCaches::default());
        }
        c.active = idx;
    }

    fn caches_metadata(&self) -> bool {
        // Lookups and stats fill the kernel dentry/attr caches: nominally
        // read-only operations mutate kernel state behind this mount.
        true
    }

    fn create(&mut self, p: &str, mode: FileMode) -> VfsResult<Fd> {
        let (parent, name) = self.resolve_parent(p)?;
        // A live positive dentry answers EEXIST from the kernel alone —
        // this is the path that goes wrong when the cache is stale.
        if let Some(Some(_)) = self.cached_dentry(parent, name) {
            return Err(Errno::EEXIST);
        }
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Create, |fs| {
            let fd = fs.create(&path_owned, mode)?;
            let st = fs.stat(&path_owned)?;
            Ok((fd, st))
        });
        let (fd, st) = res?;
        self.cache_dentry(parent, name, Some(st.ino.0));
        self.cache_attr(st);
        self.fd_inos.insert(fd, st.ino.0);
        Ok(fd)
    }

    fn open(&mut self, p: &str, flags: OpenFlags, mode: FileMode) -> VfsResult<Fd> {
        path::validate(p)?;
        if !path::is_root(p) {
            let (parent, name) = self.resolve_parent(p)?;
            match self.cached_dentry(parent, name) {
                Some(Some(_)) if flags.create && flags.excl => return Err(Errno::EEXIST),
                Some(None) if !flags.create => return Err(Errno::ENOENT),
                _ => {}
            }
        }
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Open, |fs| {
            let fd = fs.open(&path_owned, flags, mode)?;
            let st = fs.stat(&path_owned)?;
            Ok((fd, st))
        });
        let (fd, st) = res?;
        if !path::is_root(p) {
            let (parent, name) = path::split_parent(p)?;
            let parent_ino = self.resolve(&parent)?;
            self.cache_dentry(parent_ino, name, Some(st.ino.0));
        }
        self.cache_attr(st);
        self.fd_inos.insert(fd, st.ino.0);
        Ok(fd)
    }

    fn close(&mut self, fd: Fd) -> VfsResult<()> {
        let res = self.send(FuseOpKind::Release, |fs| fs.close(fd));
        self.fd_inos.remove(&fd);
        res
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> VfsResult<usize> {
        self.send(FuseOpKind::Read, |fs| fs.read(fd, buf))
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        let res = self.send(FuseOpKind::Write, |fs| fs.write(fd, data));
        if res.is_ok() {
            if let Some(&ino) = self.fd_inos.get(&fd) {
                self.drop_attr(ino); // size/mtime changed
            }
        }
        res
    }

    fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64> {
        self.send(FuseOpKind::Lseek, |fs| fs.lseek(fd, offset))
    }

    fn truncate(&mut self, p: &str, size: u64) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Setattr, |fs| fs.truncate(&path_owned, size));
        if res.is_ok() {
            self.drop_attr(ino);
        }
        res
    }

    fn mkdir(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if let Some(Some(_)) = self.cached_dentry(parent, name) {
            // Stale positive dentry ⇒ the kernel claims the directory exists
            // even when the daemon's state says otherwise (paper bug 2's
            // observable symptom).
            return Err(Errno::EEXIST);
        }
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Mkdir, |fs| {
            fs.mkdir(&path_owned, mode)?;
            fs.stat(&path_owned)
        });
        let st = res?;
        self.cache_dentry(parent, name, Some(st.ino.0));
        self.cache_attr(st);
        self.drop_attr(parent); // its nlink and mtime changed
        Ok(())
    }

    fn rmdir(&mut self, p: &str) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if let Some(None) = self.cached_dentry(parent, name) {
            return Err(Errno::ENOENT);
        }
        let removed_ino = self.cached_dentry(parent, name).flatten();
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Rmdir, |fs| fs.rmdir(&path_owned));
        if res.is_ok() {
            self.cache_dentry(parent, name, None);
            self.drop_attr(parent); // its nlink and mtime changed
            if let Some(ino) = removed_ino {
                self.drop_attr(ino);
            }
        }
        res
    }

    fn unlink(&mut self, p: &str) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if let Some(None) = self.cached_dentry(parent, name) {
            return Err(Errno::ENOENT);
        }
        let removed_ino = self.cached_dentry(parent, name).flatten();
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Unlink, |fs| fs.unlink(&path_owned));
        if res.is_ok() {
            self.cache_dentry(parent, name, None);
            if let Some(ino) = removed_ino {
                self.drop_attr(ino);
            }
        }
        res
    }

    fn stat(&mut self, p: &str) -> VfsResult<FileStat> {
        let ino = self.resolve(p)?;
        if let Some(st) = self.cached_attr(ino) {
            return Ok(st);
        }
        let path_owned = p.to_string();
        let st = self.send(FuseOpKind::Getattr, |fs| fs.stat(&path_owned))?;
        self.cache_attr(st);
        Ok(st)
    }

    fn getdents(&mut self, p: &str) -> VfsResult<Vec<DirEntry>> {
        let dir_ino = self.resolve(p)?;
        let path_owned = p.to_string();
        let entries = self.send(FuseOpKind::Readdir, |fs| fs.getdents(&path_owned))?;
        // readdirplus: listing a directory primes the dentry cache.
        for e in &entries {
            self.cache_dentry(dir_ino, &e.name, Some(e.ino.0));
        }
        Ok(entries)
    }

    fn chmod(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Setattr, |fs| fs.chmod(&path_owned, mode));
        if res.is_ok() {
            self.drop_attr(ino);
        }
        res
    }

    fn chown(&mut self, p: &str, uid: u32, gid: u32) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Setattr, |fs| fs.chown(&path_owned, uid, gid));
        if res.is_ok() {
            self.drop_attr(ino);
        }
        res
    }

    fn utimens(&mut self, p: &str, atime: u64, mtime: u64) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let path_owned = p.to_string();
        let res = self.send(FuseOpKind::Setattr, |fs| {
            fs.utimens(&path_owned, atime, mtime)
        });
        if res.is_ok() {
            self.drop_attr(ino);
        }
        res
    }

    fn fsync(&mut self, fd: Fd) -> VfsResult<()> {
        self.send(FuseOpKind::Fsync, |fs| fs.fsync(fd))
    }

    fn rename(&mut self, src: &str, dst: &str) -> VfsResult<()> {
        path::validate(src)?;
        path::validate(dst)?;
        // A destination strictly under the source is EINVAL before any
        // lookup, the order every bare backend checks in: resolving the
        // destination's parent first would answer ENOENT for a missing one.
        if src != dst && path::is_same_or_descendant(src, dst) {
            return Err(Errno::EINVAL);
        }
        let (sparent, sname) = self.resolve_parent(src)?;
        // The daemon checks the source before the destination: a missing
        // destination parent is its answer to give, not the kernel's.
        let dst_at = self.resolve_parent(dst).ok();
        // A rename over an existing destination unlinks that inode: its
        // cached attributes must go too, or a later stat through another
        // link serves the pre-unlink nlink. Snapshot the target before the
        // daemon replaces it.
        let replaced = dst_at.and_then(|(dparent, dname)| {
            self.cached_dentry(dparent, dname)
                .unwrap_or_else(|| self.resolve(dst).ok())
        });
        let src_owned = src.to_string();
        let dst_owned = dst.to_string();
        let res = self.send(FuseOpKind::Rename, |fs| fs.rename(&src_owned, &dst_owned));
        // A rename the daemon accepted had a destination parent to resolve.
        if let (Ok(()), Some((dparent, dname))) = (&res, dst_at) {
            // The kernel drops both dentries; the next lookup refetches.
            self.drop_dentry(sparent, sname);
            self.drop_dentry(dparent, dname);
            // Both parents' mtime changed, and their nlink if a directory moved.
            self.drop_attr(sparent);
            self.drop_attr(dparent);
            if let Some(ino) = replaced {
                self.drop_attr(ino);
            }
        }
        res
    }

    fn link(&mut self, existing: &str, new: &str) -> VfsResult<()> {
        let src_ino = self.resolve(existing)?;
        let (nparent, nname) = self.resolve_parent(new)?;
        let ex_owned = existing.to_string();
        let new_owned = new.to_string();
        let res = self.send(FuseOpKind::Link, |fs| fs.link(&ex_owned, &new_owned));
        if res.is_ok() {
            self.cache_dentry(nparent, nname, Some(src_ino));
            self.drop_attr(src_ino); // nlink changed
        }
        res
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(linkpath)?;
        let t_owned = target.to_string();
        let l_owned = linkpath.to_string();
        let res = self.send(FuseOpKind::Symlink, |fs| {
            fs.symlink(&t_owned, &l_owned)?;
            fs.stat(&l_owned)
        });
        let st = res?;
        self.cache_dentry(parent, name, Some(st.ino.0));
        self.cache_attr(st);
        Ok(())
    }

    fn readlink(&mut self, p: &str) -> VfsResult<String> {
        let path_owned = p.to_string();
        self.send(FuseOpKind::Readlink, |fs| fs.readlink(&path_owned))
    }

    fn access(&mut self, p: &str, mode: AccessMode) -> VfsResult<()> {
        let path_owned = p.to_string();
        self.send(FuseOpKind::Access, |fs| fs.access(&path_owned, mode))
    }

    fn setxattr(&mut self, p: &str, name: &str, value: &[u8], flags: XattrFlags) -> VfsResult<()> {
        let (p, n, v) = (p.to_string(), name.to_string(), value.to_vec());
        self.send(FuseOpKind::Xattr, |fs| fs.setxattr(&p, &n, &v, flags))
    }

    fn getxattr(&mut self, p: &str, name: &str) -> VfsResult<Vec<u8>> {
        let (p, n) = (p.to_string(), name.to_string());
        self.send(FuseOpKind::Xattr, |fs| fs.getxattr(&p, &n))
    }

    fn listxattr(&mut self, p: &str) -> VfsResult<Vec<String>> {
        let p = p.to_string();
        self.send(FuseOpKind::Xattr, |fs| fs.listxattr(&p))
    }

    fn removexattr(&mut self, p: &str, name: &str) -> VfsResult<()> {
        let (p, n) = (p.to_string(), name.to_string());
        self.send(FuseOpKind::Xattr, |fs| fs.removexattr(&p, &n))
    }
}

impl<F: FileSystem + FsCheckpoint> FsCheckpoint for FuseMount<F> {
    fn checkpoint(&mut self, key: u64) -> VfsResult<()> {
        self.send(FuseOpKind::Ioctl, |fs| fs.checkpoint(key))
    }

    fn restore(&mut self, key: u64) -> VfsResult<()> {
        // The daemon restores and (if wired and not buggy) fires the
        // invalidation connection, which clears our shared caches.
        self.send(FuseOpKind::Ioctl, |fs| fs.restore(key))
    }

    fn restore_keep(&mut self, key: u64) -> VfsResult<()> {
        self.send(FuseOpKind::Ioctl, |fs| fs.restore_keep(key))
    }

    fn discard(&mut self, key: u64) -> VfsResult<()> {
        self.send(FuseOpKind::Ioctl, |fs| fs.discard(key))
    }

    fn snapshot_count(&self) -> usize {
        self.daemon.fs().snapshot_count()
    }

    fn snapshot_bytes(&self) -> usize {
        self.daemon.fs().snapshot_bytes()
    }

    fn snapshot_resident_bytes(&self) -> usize {
        self.daemon.fs().snapshot_resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifs::{BugConfig, VeriFs};

    fn mount_verifs(fs: VeriFs) -> FuseMount<VeriFs> {
        let mut m = FuseMount::new(fs);
        m.mount().unwrap();
        m
    }

    #[test]
    fn basic_ops_through_fuse() {
        let mut m = mount_verifs(VeriFs::v2());
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.write(fd, b"abc").unwrap();
        m.close(fd).unwrap();
        assert_eq!(m.stat("/f").unwrap().size, 3);
        m.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        let names: Vec<_> = m
            .getdents("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["d", "f"]);
        assert!(m.daemon().traffic().total() > 0);
    }

    #[test]
    fn dentry_cache_answers_eexist_without_daemon() {
        let mut m = mount_verifs(VeriFs::v2());
        m.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        let mkdir_msgs_before = m.daemon().traffic().count(FuseOpKind::Mkdir);
        assert_eq!(m.mkdir("/d", FileMode::DIR_DEFAULT), Err(Errno::EEXIST));
        assert_eq!(
            m.daemon().traffic().count(FuseOpKind::Mkdir),
            mkdir_msgs_before,
            "EEXIST must be answered from the kernel dentry cache"
        );
    }

    #[test]
    fn negative_dentry_short_circuits_enoent() {
        let mut m = mount_verifs(VeriFs::v2());
        assert_eq!(m.stat("/missing"), Err(Errno::ENOENT));
        let lookups_before = m.daemon().traffic().count(FuseOpKind::Lookup);
        assert_eq!(m.unlink("/missing"), Err(Errno::ENOENT));
        assert_eq!(
            m.daemon().traffic().count(FuseOpKind::Lookup),
            lookups_before,
            "negative dentry must answer without a lookup message"
        );
    }

    #[test]
    fn attr_cache_serves_stat_without_daemon() {
        let mut m = mount_verifs(VeriFs::v2());
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        m.stat("/f").unwrap();
        let getattrs = m.daemon().traffic().count(FuseOpKind::Getattr);
        m.stat("/f").unwrap();
        m.stat("/f").unwrap();
        assert_eq!(m.daemon().traffic().count(FuseOpKind::Getattr), getattrs);
    }

    #[test]
    fn bug2_stale_attrs_after_restore() {
        let run = |bugs: BugConfig| -> u64 {
            let mut m = mount_verifs(VeriFs::v1_with_bugs(bugs));
            let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
            m.close(fd).unwrap();
            m.checkpoint(1).unwrap();
            m.stat("/f").unwrap(); // prime attr cache (size 0)
            m.truncate("/f", 0).unwrap(); // drop attrs so next stat re-primes
            let fd = m
                .open("/f", OpenFlags::write_only(), FileMode::REG_DEFAULT)
                .unwrap();
            m.write(fd, b"grown").unwrap();
            m.close(fd).unwrap();
            m.stat("/f").unwrap(); // prime attr cache with size 5
            m.restore(1).unwrap(); // roll back: file is empty again
            m.stat("/f").unwrap().size
        };
        assert_eq!(run(BugConfig::none()), 0);
        assert_eq!(
            run(BugConfig {
                v1_skip_invalidation: true,
                ..BugConfig::default()
            }),
            5,
            "stale attribute cache reports the discarded size"
        );
    }

    /// The end-to-end reproduction of paper bug 2. A plain mount needs no
    /// hand wiring: `FuseMount::new` hands VeriFS its invalidation
    /// connection, so only the historical bug flag makes restore skip
    /// kernel-cache invalidation. Then a directory created *after* the
    /// checkpoint keeps a positive dentry after rollback, and mkdir wrongly
    /// reports EEXIST.
    #[test]
    fn plain_mount_invalidates_on_restore_unless_the_bug_flag_is_set() {
        let run = |fs: VeriFs| {
            let mut m = FuseMount::new(fs);
            m.mount().unwrap();
            m.checkpoint(1).unwrap();
            m.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
            m.restore(1).unwrap(); // roll back to before the mkdir
            m.mkdir("/d", FileMode::DIR_DEFAULT)
        };
        assert_eq!(run(VeriFs::v1()), Ok(()));
        assert_eq!(
            run(VeriFs::v1_with_bugs(BugConfig::v1_invalidation())),
            Err(Errno::EEXIST),
            "stale positive dentry claims the directory exists"
        );
    }

    #[test]
    fn unmount_clears_kernel_caches() {
        let mut m = mount_verifs(VeriFs::v2());
        m.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        assert!(m.dentry_cache_len() > 0);
        m.unmount().unwrap();
        assert_eq!(m.dentry_cache_len(), 0);
        assert!(!m.is_mounted());
        m.mount().unwrap();
        assert!(m.stat("/d").is_ok());
    }

    #[test]
    fn message_costs_charge_the_clock() {
        let clock = Clock::new();
        let mut m =
            FuseMount::with_config(VeriFs::v2(), FuseConfig::default(), Some(clock.clone()));
        m.mount().unwrap();
        let before = clock.now_ns();
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        assert!(clock.now_ns() > before);
    }

    #[test]
    fn entry_ttl_expires_on_virtual_clock() {
        let clock = Clock::new();
        let cfg = FuseConfig {
            entry_ttl_ns: 10_000,
            attr_ttl_ns: 10_000,
            message_cost_ns: 0,
            ..FuseConfig::default()
        };
        let mut m = FuseMount::with_config(VeriFs::v2(), cfg, Some(clock.clone()));
        m.mount().unwrap();
        m.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        // Within TTL: EEXIST comes from the cache (no Mkdir message).
        let mk = m.daemon().traffic().count(FuseOpKind::Mkdir);
        assert_eq!(m.mkdir("/d", FileMode::DIR_DEFAULT), Err(Errno::EEXIST));
        assert_eq!(m.daemon().traffic().count(FuseOpKind::Mkdir), mk);
        // Past TTL: the dentry has expired, so the kernel re-asks the daemon
        // (a fresh Mkdir message that the daemon answers with EEXIST).
        clock.advance_ns(20_000);
        assert_eq!(m.mkdir("/d", FileMode::DIR_DEFAULT), Err(Errno::EEXIST));
        assert_eq!(m.daemon().traffic().count(FuseOpKind::Mkdir), mk + 1);
    }

    #[test]
    fn rename_through_fuse_moves_entries() {
        let mut m = mount_verifs(VeriFs::v2());
        let fd = m.create("/a", FileMode::REG_DEFAULT).unwrap();
        m.write(fd, b"x").unwrap();
        m.close(fd).unwrap();
        m.rename("/a", "/b").unwrap();
        assert_eq!(m.stat("/a"), Err(Errno::ENOENT));
        assert_eq!(m.stat("/b").unwrap().size, 1);
    }

    #[test]
    fn rename_over_existing_invalidates_replaced_attrs() {
        // Regression: rename over an existing destination unlinks the old
        // destination inode, but only the two dentries were dropped — the
        // replaced inode's attr-cache entry survived. Reachable through a
        // hardlink alias, it served the pre-rename link count.
        let mut m = mount_verifs(VeriFs::v2());
        let fd = m.create("/a", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        let fd = m.create("/b", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        m.link("/b", "/c").unwrap();
        // Warm the attr cache for /b's inode (shared with /c): nlink 2.
        assert_eq!(m.stat("/b").unwrap().nlink, 2);
        m.rename("/a", "/b").unwrap(); // unlinks the old /b inode
        assert_eq!(
            m.stat("/c").unwrap().nlink,
            1,
            "attr cache must not serve the replaced inode's stale nlink"
        );
        // And /b itself resolves to the renamed inode, not the old one.
        assert_eq!(m.stat("/b").unwrap().nlink, 1);
    }

    #[test]
    fn checkpoint_restore_passthrough() {
        let mut m = mount_verifs(VeriFs::v2());
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        m.checkpoint(9).unwrap();
        assert_eq!(m.snapshot_count(), 1);
        m.unlink("/f").unwrap();
        m.restore_keep(9).unwrap();
        assert!(m.stat("/f").is_ok());
        m.discard(9).unwrap();
        assert_eq!(m.snapshot_count(), 0);
        assert!(m.daemon().traffic().count(FuseOpKind::Ioctl) >= 3);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use verifs::VeriFs;

    fn mounted() -> FuseMount<VeriFs> {
        let mut m = FuseMount::new(VeriFs::v2());
        m.mount().unwrap();
        m
    }

    #[test]
    fn statfs_passes_through() {
        let m = mounted();
        let s = m.statfs().unwrap();
        assert!(s.blocks > 0);
        assert!(s.files > 0);
    }

    #[test]
    fn granular_entry_invalidation() {
        let mut m = mounted();
        m.mkdir("/a", FileMode::DIR_DEFAULT).unwrap();
        m.mkdir("/b", FileMode::DIR_DEFAULT).unwrap();
        assert!(m.dentry_cache_len() >= 2);
        let conn = m.connection();
        conn.invalidate_entry(vfs::Ino::ROOT.0, "a");
        // /b stays cached: its EEXIST still answers from the kernel.
        let mk = m.daemon().traffic().count(FuseOpKind::Mkdir);
        assert_eq!(m.mkdir("/b", FileMode::DIR_DEFAULT), Err(Errno::EEXIST));
        assert_eq!(m.daemon().traffic().count(FuseOpKind::Mkdir), mk);
        // /a's entry is gone: the next mkdir asks the daemon (EEXIST from it).
        assert_eq!(m.mkdir("/a", FileMode::DIR_DEFAULT), Err(Errno::EEXIST));
        assert_eq!(m.daemon().traffic().count(FuseOpKind::Mkdir), mk + 1);
    }

    #[test]
    fn granular_inode_invalidation_drops_attrs() {
        let mut m = mounted();
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        let ino = m.stat("/f").unwrap().ino.0;
        let fetches = m.daemon().traffic().count(FuseOpKind::Getattr)
            + m.daemon().traffic().count(FuseOpKind::Lookup);
        m.stat("/f").unwrap(); // cache hit: no daemon traffic
        assert_eq!(
            m.daemon().traffic().count(FuseOpKind::Getattr)
                + m.daemon().traffic().count(FuseOpKind::Lookup),
            fetches
        );
        m.connection().invalidate_inode(ino);
        m.stat("/f").unwrap(); // must refetch (lookup and/or getattr)
        assert!(
            m.daemon().traffic().count(FuseOpKind::Getattr)
                + m.daemon().traffic().count(FuseOpKind::Lookup)
                > fetches
        );
    }

    #[test]
    fn symlink_and_xattr_pass_through_with_caching() {
        let mut m = mounted();
        let fd = m.create("/target", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        m.symlink("/target", "/ln").unwrap();
        assert_eq!(m.readlink("/ln").unwrap(), "/target");
        assert_eq!(m.stat("/ln").unwrap().ftype, vfs::FileType::Symlink);
        m.setxattr("/target", "user.k", b"v", XattrFlags::Any)
            .unwrap();
        assert_eq!(m.getxattr("/target", "user.k").unwrap(), b"v");
        assert_eq!(m.listxattr("/target").unwrap(), vec!["user.k"]);
        m.removexattr("/target", "user.k").unwrap();
        assert_eq!(m.getxattr("/target", "user.k"), Err(Errno::ENODATA));
    }

    #[test]
    fn hardlink_updates_both_names() {
        let mut m = mounted();
        let fd = m.create("/orig", FileMode::REG_DEFAULT).unwrap();
        m.write(fd, b"shared").unwrap();
        m.close(fd).unwrap();
        m.link("/orig", "/alias").unwrap();
        assert_eq!(m.stat("/alias").unwrap().ino, m.stat("/orig").unwrap().ino);
        assert_eq!(m.stat("/alias").unwrap().nlink, 2);
        m.unlink("/orig").unwrap();
        assert_eq!(m.stat("/orig"), Err(Errno::ENOENT));
        assert_eq!(m.stat("/alias").unwrap().nlink, 1);
    }

    #[test]
    fn access_and_utimens_route_to_daemon() {
        let mut m = mounted();
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        m.chmod("/f", FileMode::new(0o400)).unwrap();
        assert_eq!(m.access("/f", AccessMode::read()), Ok(()));
        assert_eq!(m.access("/f", AccessMode::write()), Err(Errno::EACCES));
        m.utimens("/f", 7, 8).unwrap();
        let st = m.stat("/f").unwrap();
        assert_eq!((st.atime, st.mtime), (7, 8));
    }

    /// The interleaved-workload cache-view semantics: a rename on one
    /// thread must evict the other thread's dentry and attr copies
    /// (broadcast on, the fix); with broadcast off the other view keeps
    /// serving the renamed-away name — the bug the interleaving checker's
    /// linearizability oracle catches.
    #[test]
    fn rename_on_one_thread_invalidates_other_views_when_broadcast_on() {
        for (broadcast, expect_stale) in [(true, false), (false, true)] {
            let cfg = FuseConfig {
                entry_ttl_ns: NO_EXPIRY,
                attr_ttl_ns: NO_EXPIRY,
                message_cost_ns: 0,
                broadcast_local_invalidation: broadcast,
            };
            let mut m = FuseMount::with_config(VeriFs::v2(), cfg, None);
            m.mount().unwrap();
            let fd = m.create("/a", FileMode::REG_DEFAULT).unwrap();
            m.close(fd).unwrap();
            // Thread 1 observes /a (fills its own view).
            m.set_active_thread(1);
            assert!(m.stat("/a").is_ok());
            // Thread 0 renames it away.
            m.set_active_thread(0);
            m.rename("/a", "/b").unwrap();
            // Thread 1 stats again.
            m.set_active_thread(1);
            let res = m.stat("/a");
            if expect_stale {
                assert!(res.is_ok(), "bug mode must serve the stale dentry");
            } else {
                assert_eq!(res, Err(Errno::ENOENT), "fixed mode must refetch");
            }
        }
    }

    /// Multi-view mounts fold their cache contents into the opaque digest
    /// so interleaved exploration distinguishes states by cached values.
    #[test]
    fn opaque_digest_tracks_per_thread_views() {
        let mut m = mounted();
        let base = m.opaque_state_digest();
        let fd = m.create("/f", FileMode::REG_DEFAULT).unwrap();
        m.close(fd).unwrap();
        m.set_active_thread(1);
        let single_equivalent = m.opaque_state_digest();
        assert!(m.stat("/f").is_ok());
        let after_fill = m.opaque_state_digest();
        assert_ne!(
            single_equivalent, after_fill,
            "filling a second view must change the digest"
        );
        let _ = base;
    }
}

//! Abstraction functions — Algorithm 1 of the paper.
//!
//! An abstract state is the MD5 hash of every file's pathname, content, and
//! *important* metadata (mode, size, nlink, uid, gid), collected by a sorted
//! recursive traversal from the mount point. Noisy attributes — atime, block
//! placement, directory sizes — are deliberately excluded: hashing them
//! would make every state unique and explode the state space (§3.3).
//! Special files like ext4's `lost+found` and MCFS's own capacity-
//! equalization dummy are excluded via the exception list (§3.4).
//!
//! The hash is structured in two Merkle-style levels: a per-path *leaf
//! digest* over one object's content + important attributes + pathname, and
//! the *state hash* folding the leaf digests in sorted-path order. The
//! levels make the hash incrementally maintainable: [`FingerprintCache`]
//! keeps leaf digests across operations and invalidates only the paths an
//! operation touched (plus descendants and ancestors), so the per-op cost
//! drops from O(total tree bytes) to O(touched bytes) + O(tree entries).
//!
//! A leaf digest is `MD5(content ‖ attributes ‖ path)`, so the MD5 context
//! after the content — the *midstate* — depends on the content bytes alone.
//! Each [`FingerprintStore`] keeps a content memo from those bytes to their
//! midstate: a file content the target has held before, under any path
//! and with any attributes, is read as always but not hashed again. The
//! memo is keyed on what was read, not on which paths an operation claims
//! to touch, so it is sound wherever the store hashes: with the path cache
//! disabled and with `include_atime` too. [`abstract_state`] keeps no memo
//! and stays the independent from-scratch oracle.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;

use mdigest::{Digest128, Md5};
use vfs::{FileSystem, FileType, OpenFlags, VfsResult};

/// Configuration of the abstraction function.
#[derive(Debug, Clone)]
pub struct AbstractionConfig {
    /// Names excluded everywhere they appear (e.g. `lost+found`, the
    /// free-space-equalization dummy file).
    pub exceptions: Vec<String>,
    /// Include directory sizes in the hash. **Off** by default (§3.4:
    /// ext reports block multiples, others entry counts). Turning it on is
    /// how the false-positive benchmark demonstrates the problem.
    pub include_dir_sizes: bool,
    /// Include atime in the hash. **Off** by default (§3.3: atime updates
    /// make every state unique). The ablation benchmark turns it on to show
    /// the explosion.
    pub include_atime: bool,
    /// Sort directory entries before hashing. **On** by default; turning it
    /// off reintroduces the entry-order false positive.
    pub sort_entries: bool,
}

impl Default for AbstractionConfig {
    fn default() -> Self {
        AbstractionConfig {
            exceptions: vec!["lost+found".to_string(), crate::EQUALIZE_DUMMY.to_string()],
            include_dir_sizes: false,
            include_atime: false,
            sort_entries: true,
        }
    }
}

/// Computes the abstract state of a mounted file system (Algorithm 1).
///
/// Traverses from the root, sorts paths, reads every regular file's content
/// and each object's important attributes, and hashes it all with MD5.
///
/// # Errors
///
/// Propagates file-system errors — an error during traversal means the file
/// system is corrupted, which the harness reports as a violation.
pub fn abstract_state(fs: &mut dyn FileSystem, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
    hash_state(fs, cfg, None, None)
}

/// Computes the abstract state reusing cached per-path digests.
///
/// Equivalent to [`abstract_state`] (the two share one implementation), but
/// leaf digests found in `cache` are folded in without re-reading file
/// bytes or re-statting; misses are computed and inserted. The caller is
/// responsible for invalidating the cache after every mutation (see
/// [`FingerprintCache::invalidate_op`]) — a stale entry silently yields a
/// stale state hash.
///
/// With `include_atime` the cache is bypassed entirely: atime changes on
/// every read, so cached digests could never be reused anyway.
///
/// # Errors
///
/// See [`abstract_state`].
pub fn abstract_state_cached(
    fs: &mut dyn FileSystem,
    cfg: &AbstractionConfig,
    cache: &mut FingerprintCache,
) -> VfsResult<Digest128> {
    hash_state(fs, cfg, (!cfg.include_atime).then_some(cache), None)
}

fn hash_state(
    fs: &mut dyn FileSystem,
    cfg: &AbstractionConfig,
    mut cache: Option<&mut FingerprintCache>,
    mut memo: Option<&mut ContentMemo>,
) -> VfsResult<Digest128> {
    // Phase 1: collect all paths by recursive traversal. This stays a full
    // walk even with a cache — enumeration is O(tree entries), the expensive
    // part being avoided is the O(tree bytes) content hashing below.
    let mut files: Vec<(String, FileType)> = Vec::new();
    let mut pending: Vec<String> = vec!["/".to_string()];
    while let Some(dir) = pending.pop() {
        let mut entries = fs.getdents(&dir)?;
        if cfg.sort_entries {
            entries.sort_by(|a, b| a.name.cmp(&b.name));
        }
        for e in entries {
            if cfg.exceptions.contains(&e.name) {
                continue;
            }
            let path = vfs::path::join(&dir, &e.name);
            if e.ftype == FileType::Directory {
                pending.push(path.clone());
            }
            files.push((path, e.ftype));
        }
    }
    // Phase 2: sort by pathname for a canonical order.
    files.sort();

    // Phase 3: fold per-path leaf digests (content + important attributes +
    // path), cached where possible. The root's own attributes participate
    // too.
    let mut ctx = Md5::new();
    let root = leaf_digest(
        fs,
        "/",
        FileType::Directory,
        cfg,
        cache.as_deref_mut(),
        memo.as_deref_mut(),
    )?;
    ctx.update(root.as_bytes());
    for (path, ftype) in files {
        let leaf = leaf_digest(
            fs,
            &path,
            ftype,
            cfg,
            cache.as_deref_mut(),
            memo.as_deref_mut(),
        )?;
        ctx.update(leaf.as_bytes());
    }
    Ok(ctx.finalize())
}

/// Computes (or fetches) one path's leaf digest.
fn leaf_digest(
    fs: &mut dyn FileSystem,
    path: &str,
    ftype: FileType,
    cfg: &AbstractionConfig,
    cache: Option<&mut FingerprintCache>,
    memo: Option<&mut ContentMemo>,
) -> VfsResult<Digest128> {
    if let Some(cache) = &cache {
        if let Some(d) = cache.get(path) {
            return Ok(d);
        }
    }
    let mut ctx = match (ftype, memo) {
        (FileType::Regular, Some(memo)) => memo.content_context(fs, path)?,
        (FileType::Regular, None) => {
            let mut content = Vec::new();
            read_content(fs, path, &mut content)?;
            let mut ctx = Md5::new();
            ctx.update(&content);
            ctx
        }
        (FileType::Symlink, _) => {
            // A symlink's "content" is its target.
            let mut ctx = Md5::new();
            ctx.update_str(&fs.readlink(path)?);
            ctx
        }
        _ => Md5::new(),
    };
    hash_attrs(fs, &mut ctx, path, ftype, cfg)?;
    ctx.update_str(path);
    let digest = ctx.finalize();
    if let Some(cache) = cache {
        cache.put(path, digest);
    }
    Ok(digest)
}

/// Bytes per `read` call when a leaf digest reads a regular file.
const READ_CHUNK: usize = 4096;

/// Reads `path`'s whole content into `buf` (cleared first) with
/// [`READ_CHUNK`]-byte reads. The descriptor is closed on every path, a
/// failed read included.
fn read_content(fs: &mut dyn FileSystem, path: &str, buf: &mut Vec<u8>) -> VfsResult<()> {
    buf.clear();
    let fd = fs.open(path, OpenFlags::read_only(), vfs::FileMode::REG_DEFAULT)?;
    let read = loop {
        let len = buf.len();
        buf.resize(len + READ_CHUNK, 0);
        match fs.read(fd, &mut buf[len..]) {
            Ok(n) => {
                buf.truncate(len + n);
                if n == 0 {
                    break Ok(());
                }
            }
            Err(e) => {
                buf.truncate(len);
                break Err(e);
            }
        }
    };
    let closed = fs.close(fd);
    read.and(closed)
}

/// Contents shorter than one MD5 block are hashed directly: a memo lookup
/// would cost about as much as the single compression it saves.
const MEMO_MIN_BYTES: usize = 64;

/// Entries a [`ContentMemo`] holds before it is cleared (each ~130 bytes).
const MEMO_CAPACITY: usize = 1024;

/// Memo from a file content to the MD5 context after absorbing it.
///
/// The key is the content's length and 128 bits from two SipHash-1-3
/// passes ([`DefaultHasher::new`], fixed keys) with distinct one-byte
/// prefixes. A wrong midstate needs two equal-length contents to collide in
/// all 128 bits: the same order of risk as two states colliding in the MD5
/// state hash, which the visited set already accepts. Keeping the contents
/// themselves as keys would cost as many bytes as the distinct contents.
#[derive(Debug, Clone, Default)]
struct ContentMemo {
    map: HashMap<(usize, u128), Md5>,
    /// Read buffer reused across leaves.
    buf: Vec<u8>,
}

impl ContentMemo {
    /// Reads `path`'s content and returns the MD5 context after it,
    /// hashing the bytes only when this content has not been seen.
    fn content_context(&mut self, fs: &mut dyn FileSystem, path: &str) -> VfsResult<Md5> {
        read_content(fs, path, &mut self.buf)?;
        let mut ctx = Md5::new();
        if self.buf.len() < MEMO_MIN_BYTES {
            ctx.update(&self.buf);
            return Ok(ctx);
        }
        let key = (self.buf.len(), content_key(&self.buf));
        if let Some(hit) = self.map.get(&key) {
            return Ok(hit.clone());
        }
        ctx.update(&self.buf);
        if self.map.len() >= MEMO_CAPACITY {
            self.map.clear();
        }
        self.map.insert(key, ctx.clone());
        Ok(ctx)
    }
}

/// 128-bit memo key: two [`DefaultHasher`] passes over `bytes`, told apart
/// by a one-byte prefix.
fn content_key(bytes: &[u8]) -> u128 {
    let half = |prefix: u8| {
        let mut h = DefaultHasher::new();
        h.write_u8(prefix);
        h.write(bytes);
        h.finish()
    };
    (u128::from(half(0)) << 64) | u128::from(half(1))
}

/// Cache of per-path leaf digests for incremental abstract-state hashing.
///
/// One cache belongs to exactly one file-system instance: digests encode
/// that instance's observed content and attributes, and sharing a cache
/// across the harness's targets would mask exactly the divergences MCFS
/// exists to find.
///
/// # Invalidation rules
///
/// [`FingerprintCache::invalidate_op`] must be called with the operation's
/// touched paths *before* the operation executes (so the hardlink check
/// below observes pre-operation link counts). For each touched path it
/// drops:
///
/// * the path itself — its content/attributes may change;
/// * every cached **descendant** — a directory rename or rmdir moves or
///   removes the whole subtree under it;
/// * every **ancestor** up to `/` — creates, deletes, and renames alter the
///   parent directory, and attribute options like `include_dir_sizes` fold
///   those changes into ancestor digests.
///
/// If any touched path currently names a non-directory with `nlink > 1`,
/// the whole cache is flushed: some *other* pathname aliases the same inode
/// and its digest changes too, but the alias's name is unknown without an
/// inverse inode→paths index.
#[derive(Debug, Clone, Default)]
pub struct FingerprintCache {
    map: HashMap<String, Digest128>,
}

impl FingerprintCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FingerprintCache::default()
    }

    /// Number of cached leaf digests.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no digests.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every cached digest.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    fn get(&self, path: &str) -> Option<Digest128> {
        self.map.get(path).copied()
    }

    fn put(&mut self, path: &str, digest: Digest128) {
        self.map.insert(path.to_string(), digest);
    }

    /// Invalidates the cache for an operation touching `touched` paths.
    ///
    /// Must run **before** the operation executes — see the type-level
    /// documentation for the rules, including the pre-op hardlink check
    /// that needs `fs`.
    pub fn invalidate_op(&mut self, fs: &mut dyn FileSystem, touched: &[&str]) {
        for path in touched {
            if let Ok(st) = fs.stat(path) {
                if st.ftype != FileType::Directory && st.nlink > 1 {
                    self.map.clear();
                    return;
                }
            }
        }
        for path in touched {
            self.invalidate_path(path);
        }
    }

    /// Invalidates one path, its cached descendants, and its ancestors.
    pub fn invalidate_path(&mut self, path: &str) {
        self.map
            .retain(|cached, _| !vfs::path::is_same_or_descendant(path, cached));
        for anc in vfs::path::ancestors(path) {
            self.map.remove(anc);
        }
    }
}

/// One target's fingerprint state: the live [`FingerprintCache`], snapshots
/// saved alongside the target's state checkpoints, and the target's content
/// memo.
///
/// Each checked target owns its own store — caches are never shared across
/// targets, since a shared cache would paper over exactly the
/// cross-file-system divergences MCFS exists to detect. The store can be
/// constructed disabled (e.g. for the deliberately-unsound no-remount mode,
/// where even the file system's own view is stale), in which case every
/// method degrades to the uncached behavior.
///
/// The content memo maps a regular file's bytes, as read, to the MD5
/// midstate after them, so each distinct content is hashed once per target
/// (see the module documentation). It is keyed on the bytes, not on a
/// path or a checkpoint, so it stays valid across restores: it is never
/// saved, loaded or cleared with checkpoints, and it serves the disabled
/// store and `include_atime` hashing as well. It holds at most 1,024
/// entries (`MEMO_CAPACITY`, ~130 KB) and is emptied when full.
#[derive(Debug, Clone)]
pub struct FingerprintStore {
    /// Arc-backed so saving is a refcount bump, not a map copy: the saved
    /// snapshot shares the live cache's storage until the next invalidation
    /// diverges them (clone-on-write via [`Arc::make_mut`]).
    live: Arc<FingerprintCache>,
    saved: HashMap<u64, Arc<FingerprintCache>>,
    memo: ContentMemo,
    enabled: bool,
}

impl Default for FingerprintStore {
    fn default() -> Self {
        FingerprintStore::new(true)
    }
}

impl FingerprintStore {
    /// Creates a store; `enabled: false` makes every method a no-op /
    /// full-recompute fallback.
    pub fn new(enabled: bool) -> Self {
        FingerprintStore {
            live: Arc::new(FingerprintCache::new()),
            saved: HashMap::new(),
            memo: ContentMemo::default(),
            enabled,
        }
    }

    /// Whether incremental hashing is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Invalidates the live cache for an operation touching `touched`.
    pub fn invalidate(&mut self, fs: &mut dyn FileSystem, touched: &[&str]) {
        if self.enabled {
            Arc::make_mut(&mut self.live).invalidate_op(fs, touched);
        }
    }

    /// Abstract state via the live cache (full recompute when disabled or
    /// with `include_atime`), hashing file contents through the memo.
    ///
    /// # Errors
    ///
    /// See [`abstract_state`].
    pub fn hash(
        &mut self,
        fs: &mut dyn FileSystem,
        cfg: &AbstractionConfig,
    ) -> VfsResult<Digest128> {
        let cache = (self.enabled && !cfg.include_atime).then(|| Arc::make_mut(&mut self.live));
        hash_state(fs, cfg, cache, Some(&mut self.memo))
    }

    /// Snapshots the live cache under `key` (alongside a state checkpoint).
    /// O(1): the snapshot shares the live cache until either side mutates.
    pub fn save(&mut self, key: u64) {
        if self.enabled {
            self.saved.insert(key, Arc::clone(&self.live));
        }
    }

    /// Restores the cache saved under `key`; unknown keys clear the live
    /// cache (always safe — the next hash recomputes from scratch).
    pub fn load(&mut self, key: u64) {
        if self.enabled {
            self.live = self.saved.get(&key).cloned().unwrap_or_default();
        }
    }

    /// Drops the cache snapshot saved under `key`.
    pub fn drop_key(&mut self, key: u64) {
        self.saved.remove(&key);
    }

    /// Clears the live cache. Used after a crash-remount: every cached
    /// digest describes pre-crash state and is suspect; the next hash
    /// recomputes from what recovery actually reconstructed.
    pub fn clear_live(&mut self) {
        if self.enabled {
            self.live = Arc::default();
        }
    }
}

fn hash_attrs(
    fs: &mut dyn FileSystem,
    ctx: &mut Md5,
    path: &str,
    ftype: FileType,
    cfg: &AbstractionConfig,
) -> VfsResult<()> {
    let st = fs.stat(path)?;
    // important_attributes (Algorithm 1, line 12): mode, size, nlink, uid,
    // gid. atime/mtime/ctime and physical placement are noise. Directory
    // link counts are excluded too: they leak excepted special folders
    // (ext4's root has nlink 3 because of lost+found) and differ across
    // implementations counting subdirectories.
    ctx.update_u64(st.mode.bits() as u64);
    if ftype != FileType::Directory {
        ctx.update_u64(st.nlink as u64);
    }
    ctx.update_u64(st.uid as u64);
    ctx.update_u64(st.gid as u64);
    let include_size = match ftype {
        FileType::Directory => cfg.include_dir_sizes,
        _ => true,
    };
    if include_size {
        ctx.update_u64(st.size);
    }
    if cfg.include_atime {
        ctx.update_u64(st.atime);
    }
    // Hash xattrs when the file system supports them.
    if let Ok(mut names) = fs.listxattr(path) {
        names.sort();
        for name in names {
            ctx.update_str(&name);
            if let Ok(value) = fs.getxattr(path, &name) {
                ctx.update(&value);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifs::VeriFs;
    use vfs::{FileMode, FileSystem};

    fn fs_with(paths: &[(&str, &[u8])]) -> VeriFs {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        for (p, data) in paths {
            let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
            fs.write(fd, data).unwrap();
            fs.close(fd).unwrap();
        }
        fs
    }

    #[test]
    fn equal_states_hash_equal() {
        let mut a = fs_with(&[("/x", b"one"), ("/y", b"two")]);
        let mut b = fs_with(&[("/y", b"two"), ("/x", b"one")]); // other order
        let cfg = AbstractionConfig::default();
        assert_eq!(
            abstract_state(&mut a, &cfg).unwrap(),
            abstract_state(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn content_difference_changes_hash() {
        let mut a = fs_with(&[("/x", b"one")]);
        let mut b = fs_with(&[("/x", b"two")]);
        let cfg = AbstractionConfig::default();
        assert_ne!(
            abstract_state(&mut a, &cfg).unwrap(),
            abstract_state(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn metadata_difference_changes_hash() {
        let mut a = fs_with(&[("/x", b"s")]);
        let mut b = fs_with(&[("/x", b"s")]);
        b.chmod("/x", FileMode::new(0o400)).unwrap();
        let cfg = AbstractionConfig::default();
        assert_ne!(
            abstract_state(&mut a, &cfg).unwrap(),
            abstract_state(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn atime_is_excluded_by_default() {
        let mut a = fs_with(&[("/x", b"data")]);
        let cfg = AbstractionConfig::default();
        let before = abstract_state(&mut a, &cfg).unwrap();
        // Read the file: bumps atime, nothing else.
        let fd = a
            .open("/x", vfs::OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        a.read(fd, &mut [0u8; 4]).unwrap();
        a.close(fd).unwrap();
        let after = abstract_state(&mut a, &cfg).unwrap();
        assert_eq!(before, after, "atime noise must not create new states");
        // With atime included, the same pair differs (the §3.3 explosion).
        let noisy = AbstractionConfig {
            include_atime: true,
            ..AbstractionConfig::default()
        };
        let h1 = abstract_state(&mut a, &noisy).unwrap();
        let fd = a
            .open("/x", vfs::OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        a.read(fd, &mut [0u8; 4]).unwrap();
        a.close(fd).unwrap();
        let h2 = abstract_state(&mut a, &noisy).unwrap();
        assert_ne!(h1, h2);
    }

    #[test]
    fn exception_list_hides_special_files() {
        let mut plain = fs_with(&[("/x", b"d")]);
        let mut with_lf = fs_with(&[("/x", b"d")]);
        with_lf.mkdir("/lost+found", FileMode::new(0o700)).unwrap();
        let cfg = AbstractionConfig::default();
        assert_eq!(
            abstract_state(&mut plain, &cfg).unwrap(),
            abstract_state(&mut with_lf, &cfg).unwrap(),
            "lost+found must be invisible to the comparison"
        );
    }

    #[test]
    fn nested_directories_are_traversed() {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        a.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        a.mkdir("/d/e", FileMode::DIR_DEFAULT).unwrap();
        let fd = a.create("/d/e/deep", FileMode::REG_DEFAULT).unwrap();
        a.write(fd, b"deep content").unwrap();
        a.close(fd).unwrap();
        let cfg = AbstractionConfig::default();
        let h1 = abstract_state(&mut a, &cfg).unwrap();
        // Changing deep content changes the hash.
        let fd = a
            .open(
                "/d/e/deep",
                vfs::OpenFlags::write_only(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        a.write(fd, b"DEEP").unwrap();
        a.close(fd).unwrap();
        assert_ne!(h1, abstract_state(&mut a, &cfg).unwrap());
    }

    #[test]
    fn symlink_target_participates() {
        let mut a = fs_with(&[("/x", b"")]);
        let mut b = fs_with(&[("/x", b"")]);
        a.symlink("/x", "/ln").unwrap();
        b.symlink("/other", "/ln").unwrap();
        let cfg = AbstractionConfig::default();
        assert_ne!(
            abstract_state(&mut a, &cfg).unwrap(),
            abstract_state(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn xattrs_participate() {
        let mut a = fs_with(&[("/x", b"")]);
        let mut b = fs_with(&[("/x", b"")]);
        a.setxattr("/x", "user.k", b"v", vfs::XattrFlags::Any)
            .unwrap();
        let cfg = AbstractionConfig::default();
        assert_ne!(
            abstract_state(&mut a, &cfg).unwrap(),
            abstract_state(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn cross_fs_equal_content_hashes_equal() {
        // The core MCFS property: two different *implementations* holding
        // the same logical state produce the same abstract hash.
        let mut ram = fs_with(&[("/a", b"same bytes")]);
        let mut ext = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        ext.mount().unwrap();
        let fd = ext.create("/a", FileMode::REG_DEFAULT).unwrap();
        ext.write(fd, b"same bytes").unwrap();
        ext.close(fd).unwrap();
        let cfg = AbstractionConfig::default();
        assert_eq!(
            abstract_state(&mut ram, &cfg).unwrap(),
            abstract_state(&mut ext, &cfg).unwrap(),
            "verifs2 and ext4 with identical logical state must match"
        );
    }
}

#[cfg(test)]
mod more_abstraction_tests {
    use super::*;
    use verifs::VeriFs;
    use vfs::{FileMode, FileSystem};

    #[test]
    fn hash_is_invariant_to_inode_numbering() {
        // Two file systems reach the same logical namespace through
        // different create/delete orders, ending with different inode
        // numbers for the same paths. The abstract state must agree.
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        // a: create x then y.
        for p in ["/x", "/y"] {
            let fd = a.create(p, FileMode::REG_DEFAULT).unwrap();
            a.write(fd, p.as_bytes()).unwrap();
            a.close(fd).unwrap();
        }
        // b: create scratch files first (consuming inode slots), delete
        // them, then create y and x in the opposite order.
        for p in ["/s1", "/s2", "/s3"] {
            let fd = b.create(p, FileMode::REG_DEFAULT).unwrap();
            b.close(fd).unwrap();
        }
        for p in ["/s1", "/s2", "/s3"] {
            b.unlink(p).unwrap();
        }
        for p in ["/y", "/x"] {
            let fd = b.create(p, FileMode::REG_DEFAULT).unwrap();
            b.write(fd, p.as_bytes()).unwrap();
            b.close(fd).unwrap();
        }
        assert_ne!(
            a.stat("/x").unwrap().ino,
            b.stat("/x").unwrap().ino,
            "precondition: the inode numbers actually differ"
        );
        let cfg = AbstractionConfig::default();
        assert_eq!(
            abstract_state(&mut a, &cfg).unwrap(),
            abstract_state(&mut b, &cfg).unwrap(),
            "inode numbering is physical noise and must not be hashed"
        );
    }

    #[test]
    fn empty_filesystems_of_different_kinds_agree() {
        let cfg = AbstractionConfig::default();
        let mut hashes = Vec::new();
        let mut v = VeriFs::v1();
        v.mount().unwrap();
        hashes.push(abstract_state(&mut v, &cfg).unwrap());
        let mut e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        e2.mount().unwrap();
        hashes.push(abstract_state(&mut e2, &cfg).unwrap());
        let mut e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        e4.mount().unwrap();
        hashes.push(abstract_state(&mut e4, &cfg).unwrap());
        let mut x = fs_xfs::xfs_on_ram(fs_xfs::MIN_DEVICE_BYTES).unwrap();
        x.mount().unwrap();
        hashes.push(abstract_state(&mut x, &cfg).unwrap());
        let mut j = fs_jffs2::jffs2_on_mtdram(16 * 1024, 16).unwrap();
        j.mount().unwrap();
        hashes.push(abstract_state(&mut j, &cfg).unwrap());
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "all five empty file systems share one abstract state: {hashes:?}"
        );
    }

    #[test]
    fn dir_size_inclusion_breaks_cross_fs_agreement() {
        // The control for the §3.4 workaround: with include_dir_sizes the
        // same pair of empty file systems disagrees.
        let noisy = AbstractionConfig {
            include_dir_sizes: true,
            ..AbstractionConfig::default()
        };
        let mut e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        e4.mount().unwrap();
        let mut x = fs_xfs::xfs_on_ram(fs_xfs::MIN_DEVICE_BYTES).unwrap();
        x.mount().unwrap();
        assert_ne!(
            abstract_state(&mut e4, &noisy).unwrap(),
            abstract_state(&mut x, &noisy).unwrap()
        );
    }
}

#[cfg(test)]
mod fingerprint_cache_tests {
    use super::*;
    use verifs::VeriFs;
    use vfs::{FileMode, FileSystem};

    fn write_file(fs: &mut VeriFs, path: &str, data: &[u8]) {
        let fd = fs
            .open(path, vfs::OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    /// Each step mutates, invalidates the touched paths, and checks the
    /// cached hash against a from-scratch recompute.
    #[test]
    fn cached_hash_tracks_full_recompute_through_mutations() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let cfg = AbstractionConfig::default();
        let mut cache = FingerprintCache::new();

        let check = |fs: &mut VeriFs, cache: &mut FingerprintCache, what: &str| {
            let cached = abstract_state_cached(fs, &cfg, cache).unwrap();
            let full = abstract_state(fs, &cfg).unwrap();
            assert_eq!(cached, full, "cached hash diverged after {what}");
        };

        check(&mut fs, &mut cache, "initial state");

        cache.invalidate_op(&mut fs, &["/d"]);
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        check(&mut fs, &mut cache, "mkdir /d");

        cache.invalidate_op(&mut fs, &["/d/f"]);
        let fd = fs.create("/d/f", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"hello").unwrap();
        fs.close(fd).unwrap();
        check(&mut fs, &mut cache, "create+write /d/f");

        cache.invalidate_op(&mut fs, &["/d/f"]);
        write_file(&mut fs, "/d/f", b"HELLO again");
        check(&mut fs, &mut cache, "rewrite /d/f");

        cache.invalidate_op(&mut fs, &["/d/f"]);
        fs.chmod("/d/f", FileMode::new(0o400)).unwrap();
        check(&mut fs, &mut cache, "chmod /d/f");

        cache.invalidate_op(&mut fs, &["/d", "/e"]);
        fs.rename("/d", "/e").unwrap();
        check(&mut fs, &mut cache, "rename /d -> /e (dir with contents)");

        cache.invalidate_op(&mut fs, &["/x", "/ln"]);
        fs.symlink("/x", "/ln").unwrap();
        check(&mut fs, &mut cache, "symlink /ln -> /x");

        cache.invalidate_op(&mut fs, &["/e/f"]);
        fs.unlink("/e/f").unwrap();
        check(&mut fs, &mut cache, "unlink /e/f");
    }

    #[test]
    fn hardlink_alias_triggers_full_flush() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let cfg = AbstractionConfig::default();
        let mut cache = FingerprintCache::new();

        let fd = fs.create("/x", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"shared").unwrap();
        fs.close(fd).unwrap();
        fs.link("/x", "/y").unwrap();
        let _ = abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap();
        assert!(!cache.is_empty());

        // A write through /x also changes /y's digest (same inode). The
        // pre-op nlink check must flush everything, so the cached hash
        // still matches the full recompute.
        cache.invalidate_op(&mut fs, &["/x"]);
        assert!(cache.is_empty(), "nlink > 1 must flush the whole cache");
        write_file(&mut fs, "/x", b"SHARED");
        assert_eq!(
            abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap(),
            abstract_state(&mut fs, &cfg).unwrap()
        );
    }

    #[test]
    fn stale_cache_without_invalidation_is_wrong_by_design() {
        // Pins the contract: skipping invalidate_op yields a stale hash.
        // The harness owns the invalidation calls precisely because of this.
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let cfg = AbstractionConfig::default();
        let mut cache = FingerprintCache::new();

        let fd = fs.create("/x", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"one").unwrap();
        fs.close(fd).unwrap();
        let before = abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap();
        write_file(&mut fs, "/x", b"two");
        let stale = abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap();
        assert_eq!(before, stale, "without invalidation the hash is stale");
        cache.invalidate_op(&mut fs, &["/x"]);
        assert_ne!(
            before,
            abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap()
        );
    }

    #[test]
    fn directory_rename_invalidates_the_subtree() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        fs.mkdir("/a", FileMode::DIR_DEFAULT).unwrap();
        fs.mkdir("/a/b", FileMode::DIR_DEFAULT).unwrap();
        let fd = fs.create("/a/b/deep", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"deep").unwrap();
        fs.close(fd).unwrap();
        let cfg = AbstractionConfig::default();
        let mut cache = FingerprintCache::new();
        let _ = abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap();

        cache.invalidate_op(&mut fs, &["/a", "/z"]);
        fs.rename("/a", "/z").unwrap();
        assert_eq!(
            abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap(),
            abstract_state(&mut fs, &cfg).unwrap(),
            "stale /a/b/deep digests must not survive the rename"
        );
    }

    #[test]
    fn atime_mode_bypasses_the_cache() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let fd = fs.create("/x", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, b"data").unwrap();
        fs.close(fd).unwrap();
        let noisy = AbstractionConfig {
            include_atime: true,
            ..AbstractionConfig::default()
        };
        let mut cache = FingerprintCache::new();
        let h1 = abstract_state_cached(&mut fs, &noisy, &mut cache).unwrap();
        assert!(cache.is_empty(), "atime mode must not populate the cache");
        // Hashing reads the file and bumps atime, so a cached hash that
        // froze the digest would wrongly repeat h1. The bypass keeps the
        // §3.3 noise observable.
        let h2 = abstract_state_cached(&mut fs, &noisy, &mut cache).unwrap();
        assert_ne!(h1, h2, "the cache must not mask atime noise");
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_is_populated_and_reused() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        for p in ["/a", "/b", "/c"] {
            let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
            fs.write(fd, p.as_bytes()).unwrap();
            fs.close(fd).unwrap();
        }
        let cfg = AbstractionConfig::default();
        let mut cache = FingerprintCache::new();
        let h1 = abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap();
        // Root + 3 files.
        assert_eq!(cache.len(), 4);
        // Invalidate just /a: /b and /c digests survive, hash still right.
        cache.invalidate_op(&mut fs, &["/a"]);
        assert_eq!(cache.len(), 2);
        let h2 = abstract_state_cached(&mut fs, &cfg, &mut cache).unwrap();
        assert_eq!(h1, h2);
    }
}

#[cfg(test)]
mod content_memo_tests {
    use super::*;
    use verifs::VeriFs;
    use vfs::{
        DirEntry, Errno, Fd, FileMode, FileStat, FileSystem, FsCapabilities, StatFs, XattrFlags,
    };

    fn put(fs: &mut VeriFs, path: &str, data: &[u8]) {
        let fd = fs
            .open(
                path,
                vfs::OpenFlags::write_only().with_create().with_trunc(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn bytes(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    /// Hashes through an enabled and a disabled store and checks both
    /// against the memo-free oracle.
    fn check(fs: &mut VeriFs, stores: &mut [FingerprintStore; 2], what: &str) -> Digest128 {
        let cfg = AbstractionConfig::default();
        let oracle = abstract_state(fs, &cfg).unwrap();
        for store in stores.iter_mut() {
            store.invalidate(fs, &["/"]);
            assert_eq!(store.hash(fs, &cfg).unwrap(), oracle, "{what}");
        }
        oracle
    }

    fn stores() -> [FingerprintStore; 2] {
        [FingerprintStore::new(true), FingerprintStore::new(false)]
    }

    #[test]
    fn store_hash_matches_oracle_around_one_block() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let mut stores = stores();
        for len in [0, 1, 55, 56, 63, 64, 65, 127, 128, 4095, 4096, 4097, 9096] {
            put(&mut fs, "/a", &bytes(len, 1));
            put(&mut fs, "/b", &bytes(len, 1));
            check(&mut fs, &mut stores, &format!("two files of {len} bytes"));
        }
        // Only contents of at least one block were memoized.
        assert_eq!(stores[0].memo.map.len(), 8);
    }

    #[test]
    fn one_content_under_two_paths_and_two_modes() {
        let data = bytes(300, 7);
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        put(&mut fs, "/x", &data);
        put(&mut fs, "/d/y", &data);
        fs.chmod("/d/y", FileMode::new(0o400)).unwrap();
        let mut stores = stores();
        let h1 = check(&mut fs, &mut stores, "0o644 /x, 0o400 /d/y");
        // Swapping the modes must change the state through the memo too.
        fs.chmod("/x", FileMode::new(0o400)).unwrap();
        fs.chmod("/d/y", FileMode::REG_DEFAULT).unwrap();
        let h2 = check(&mut fs, &mut stores, "0o400 /x, 0o644 /d/y");
        assert_ne!(h1, h2);
        for store in &stores {
            assert_eq!(store.memo.map.len(), 1, "one content, one entry");
        }
    }

    #[test]
    fn equal_length_contents_with_different_bytes() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let mut stores = stores();
        let base = bytes(200, 3);
        put(&mut fs, "/f", &base);
        let h0 = check(&mut fs, &mut stores, "base");
        for at in [0, 63, 64, 199] {
            let mut other = base.clone();
            other[at] ^= 1;
            put(&mut fs, "/f", &other);
            let h = check(&mut fs, &mut stores, &format!("byte {at} flipped"));
            assert_ne!(h, h0, "byte {at} flipped");
        }
        put(&mut fs, "/f", &base);
        assert_eq!(check(&mut fs, &mut stores, "base again"), h0);
        assert_eq!(stores[0].memo.map.len(), 5);
    }

    #[test]
    fn memo_is_cleared_when_full() {
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        let cfg = AbstractionConfig::default();
        let mut store = FingerprintStore::new(true);
        let extra = 10;
        for i in 0..MEMO_CAPACITY + extra {
            let mut data = vec![0u8; 64];
            data[..8].copy_from_slice(&(i as u64).to_le_bytes());
            store.invalidate(&mut fs, &["/f"]);
            put(&mut fs, "/f", &data);
            assert_eq!(
                store.hash(&mut fs, &cfg).unwrap(),
                abstract_state(&mut fs, &cfg).unwrap(),
                "content {i}"
            );
            assert!(store.memo.map.len() <= MEMO_CAPACITY);
        }
        assert_eq!(store.memo.map.len(), extra);
    }

    #[test]
    fn memo_hits_skip_the_content_hash() {
        let data = bytes(500, 9);
        let mut fs = VeriFs::v2();
        fs.mount().unwrap();
        for p in ["/a", "/b", "/c"] {
            put(&mut fs, p, &data);
        }
        let cfg = AbstractionConfig::default();
        let mut store = FingerprintStore::new(false);
        let oracle = abstract_state(&mut fs, &cfg).unwrap();
        assert_eq!(store.hash(&mut fs, &cfg).unwrap(), oracle);
        assert_eq!(store.memo.map.len(), 1, "/b and /c hit /a's entry");
        // A hit uses the stored midstate without hashing the bytes: a
        // planted wrong midstate shows up in the state hash.
        let key = (data.len(), content_key(&data));
        store.memo.map.insert(key, Md5::new());
        assert_ne!(store.hash(&mut fs, &cfg).unwrap(), oracle);
    }

    /// VeriFS2 whose `fail_read`-th `read` call fails with `EIO`; counts
    /// descriptors opened and not yet closed.
    struct FailingRead {
        inner: VeriFs,
        fail_read: usize,
        reads: usize,
        open_fds: i64,
    }

    impl FileSystem for FailingRead {
        fn fs_name(&self) -> &str {
            self.inner.fs_name()
        }
        fn capabilities(&self) -> FsCapabilities {
            self.inner.capabilities()
        }
        fn mount(&mut self) -> VfsResult<()> {
            self.inner.mount()
        }
        fn unmount(&mut self) -> VfsResult<()> {
            self.inner.unmount()
        }
        fn is_mounted(&self) -> bool {
            self.inner.is_mounted()
        }
        fn sync(&mut self) -> VfsResult<()> {
            self.inner.sync()
        }
        fn statfs(&self) -> VfsResult<StatFs> {
            self.inner.statfs()
        }
        fn create(&mut self, path: &str, mode: FileMode) -> VfsResult<Fd> {
            let fd = self.inner.create(path, mode)?;
            self.open_fds += 1;
            Ok(fd)
        }
        fn open(&mut self, path: &str, flags: vfs::OpenFlags, mode: FileMode) -> VfsResult<Fd> {
            let fd = self.inner.open(path, flags, mode)?;
            self.open_fds += 1;
            Ok(fd)
        }
        fn close(&mut self, fd: Fd) -> VfsResult<()> {
            self.inner.close(fd)?;
            self.open_fds -= 1;
            Ok(())
        }
        fn read(&mut self, fd: Fd, buf: &mut [u8]) -> VfsResult<usize> {
            self.reads += 1;
            if self.reads == self.fail_read {
                return Err(Errno::EIO);
            }
            self.inner.read(fd, buf)
        }
        fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
            self.inner.write(fd, data)
        }
        fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64> {
            self.inner.lseek(fd, offset)
        }
        fn truncate(&mut self, path: &str, size: u64) -> VfsResult<()> {
            self.inner.truncate(path, size)
        }
        fn mkdir(&mut self, path: &str, mode: FileMode) -> VfsResult<()> {
            self.inner.mkdir(path, mode)
        }
        fn rmdir(&mut self, path: &str) -> VfsResult<()> {
            self.inner.rmdir(path)
        }
        fn unlink(&mut self, path: &str) -> VfsResult<()> {
            self.inner.unlink(path)
        }
        fn stat(&mut self, path: &str) -> VfsResult<FileStat> {
            self.inner.stat(path)
        }
        fn getdents(&mut self, path: &str) -> VfsResult<Vec<DirEntry>> {
            self.inner.getdents(path)
        }
        fn chmod(&mut self, path: &str, mode: FileMode) -> VfsResult<()> {
            self.inner.chmod(path, mode)
        }
        fn chown(&mut self, path: &str, uid: u32, gid: u32) -> VfsResult<()> {
            self.inner.chown(path, uid, gid)
        }
        fn utimens(&mut self, path: &str, atime: u64, mtime: u64) -> VfsResult<()> {
            self.inner.utimens(path, atime, mtime)
        }
        fn setxattr(
            &mut self,
            path: &str,
            name: &str,
            value: &[u8],
            flags: XattrFlags,
        ) -> VfsResult<()> {
            self.inner.setxattr(path, name, value, flags)
        }
        fn getxattr(&mut self, path: &str, name: &str) -> VfsResult<Vec<u8>> {
            self.inner.getxattr(path, name)
        }
        fn listxattr(&mut self, path: &str) -> VfsResult<Vec<String>> {
            self.inner.listxattr(path)
        }
    }

    #[test]
    fn failed_read_closes_the_descriptor() {
        let mut inner = VeriFs::v2();
        inner.mount().unwrap();
        put(&mut inner, "/f", &bytes(10_000, 5));
        let cfg = AbstractionConfig::default();
        // Fail the first, second (mid-file) and last read of /f's three.
        for fail_read in 1..=3 {
            let mut fs = FailingRead {
                inner: inner.clone(),
                fail_read,
                reads: 0,
                open_fds: 0,
            };
            assert_eq!(abstract_state(&mut fs, &cfg), Err(Errno::EIO));
            assert_eq!(fs.open_fds, 0, "oracle leaked a descriptor");
            fs.reads = 0;
            let mut store = FingerprintStore::new(true);
            assert_eq!(store.hash(&mut fs, &cfg), Err(Errno::EIO));
            assert_eq!(fs.open_fds, 0, "store leaked a descriptor");
        }
    }
}

//! Effect signatures for the bounded operation pool and the independence
//! relation derived from them.
//!
//! SPIN derives statement independence for partial-order reduction from a
//! static analysis of each proctype's variable footprint; the original MCFS
//! reproduction instead hard-coded a path-prefix heuristic in the harness
//! (kept here as [`heuristic_independent`] for comparison). This module
//! replaces it with a declarative analysis: every [`FsOp`] maps to an
//! [`EffectSig`] — the set of abstract *places* it reads and writes — and
//! two operations are independent exactly when their footprints cannot
//! conflict.
//!
//! The place vocabulary is finer than whole paths, which is where the POR
//! improvement comes from:
//!
//! * file content is tracked per byte *range*, so two writes to disjoint
//!   ranges of the same file commute;
//! * metadata, size, link count and xattrs are separate places, so `chmod`
//!   commutes with a data write to the same file;
//! * writes carry an optional *value tag*: two exact writes of the same
//!   value to the same place commute (e.g. two `chmod 644` of one file);
//! * some writes are *merges* — commutative accumulations such as the
//!   size high-water mark of extending writes, link-count deltas, and
//!   idempotent kernel-cache fills — and merges never conflict with each
//!   other.
//!
//! It is also *sounder* than the heuristic: content places are keyed by an
//! alias class computed from the `Hardlink` pairs in the pool, so after
//! `link(/f0, /f1)` a truncate of `/f0` correctly conflicts with a write to
//! `/f1` (the old heuristic called them independent — a real unsoundness
//! the `analyze` crate's commutation sanitizer demonstrates). When the
//! harness wraps targets in a caching kernel layer
//! ([`FileSystem::caches_metadata`](vfs::FileSystem::caches_metadata)),
//! profiles add kernel-cache places so that cache-filling reads are no
//! longer blanket-independent of mutations on the same paths.
//!
//! Everything here is conservative by construction: any place pair the
//! overlap rules do not explicitly rule compatible is a conflict, `Crash`
//! (and any future op variant) writes the [`Place::Global`] wildcard, and
//! the relation is validated empirically by the `analyze` crate rather
//! than trusted (`MC001`).

use std::borrow::Cow;
use std::collections::HashMap;

use vfs::path;

use crate::pool::FsOp;

/// An abstract location an operation may read or write.
///
/// Namespace places (`Node`, `Entry`, `Entries`, `Subtree`, `Cache`) are
/// keyed by path: hard links never alias directory entries. Inode-content
/// places (`Meta`, `Size`, `Range`, `Links`, `Xattr`) are keyed by an
/// *alias class* (first field) so that paths joined by `Hardlink` ops in
/// the pool share their content footprint; the anchor path is carried for
/// diagnostics and alias detection only.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Place {
    /// Existence / identity of the object at a path.
    Node(String),
    /// One directory entry: `(parent dir, name)`.
    Entry(String, String),
    /// The whole listing of a directory (`getdents`, `rmdir` emptiness).
    Entries(String),
    /// Non-size inode attributes (mode, timestamps) of an alias class.
    Meta(u64, String),
    /// Logical file size of an alias class.
    Size(u64, String),
    /// Content byte range `[lo, hi)` of an alias class.
    Range(u64, String, u64, u64),
    /// Link count of an alias class.
    Links(u64, String),
    /// One named xattr of an alias class.
    Xattr(u64, String, String),
    /// A whole namespace subtree (rename moves every descendant).
    Subtree(String),
    /// Kernel attr/dentry cache state for one path (fusesim layer).
    Cache(String),
    /// Everything: crashes and unknown future op variants.
    Global,
}

impl std::fmt::Display for Place {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Place::Node(p) => write!(f, "node({p})"),
            Place::Entry(d, n) => write!(f, "entry({d}, {n})"),
            Place::Entries(d) => write!(f, "entries({d})"),
            Place::Meta(_, p) => write!(f, "meta({p})"),
            Place::Size(_, p) => write!(f, "size({p})"),
            Place::Range(_, p, lo, hi) => write!(f, "range({p}, {lo}..{hi})"),
            Place::Links(_, p) => write!(f, "links({p})"),
            Place::Xattr(_, p, n) => write!(f, "xattr({p}, {n})"),
            Place::Subtree(p) => write!(f, "subtree({p})"),
            Place::Cache(p) => write!(f, "cache({p})"),
            Place::Global => write!(f, "global"),
        }
    }
}

/// How a write effect composes with another write to the same place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Last-writer-wins assignment; conflicts with any overlapping access
    /// unless both writes carry the same value tag on the identical cell.
    Exact,
    /// Commutative accumulation (size max, link-count delta, idempotent
    /// cache fill); merges never conflict with each other.
    Merge,
}

/// One write effect: a place, how it is written, and an optional value tag
/// identifying *what* an exact write stores (equal tags on the identical
/// cell commute).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEffect {
    /// Written place.
    pub place: Place,
    /// Assignment or commutative merge.
    pub kind: WriteKind,
    /// Value identity for exact writes (`None` = unknown/stateful).
    pub tag: Option<u64>,
}

/// The declarative footprint of one operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSig {
    /// Places the operation's outcome or behavior depends on.
    pub reads: Vec<Place>,
    /// Places the operation may change.
    pub writes: Vec<WriteEffect>,
}

impl EffectSig {
    /// Whether the op writes the global wildcard (crash-like).
    pub fn writes_global(&self) -> bool {
        self.writes.iter().any(|w| w.place == Place::Global)
    }

    fn read(&mut self, p: Place) {
        self.reads.push(p);
    }

    fn write_exact(&mut self, p: Place, tag: Option<u64>) {
        self.writes.push(WriteEffect {
            place: p,
            kind: WriteKind::Exact,
            tag,
        });
    }

    fn write_merge(&mut self, p: Place) {
        self.writes.push(WriteEffect {
            place: p,
            kind: WriteKind::Merge,
            tag: None,
        });
    }

    /// Path resolution: the op's behavior depends on every proper ancestor
    /// existing (the root always exists and is never unlinked — skipped).
    fn resolve(&mut self, p: &str) {
        for a in path::ancestors(p) {
            if !path::is_root(a) {
                self.reads.push(Place::Node(a.to_string()));
            }
        }
    }

    /// Write of the directory entry naming `p` (falls back to the global
    /// wildcard if the path cannot be split — never the case for pool
    /// paths).
    fn write_entry(&mut self, p: &str, tag: Option<u64>) {
        match path::split_parent(p) {
            Ok((dir, name)) => self.write_exact(Place::Entry(dir, name.to_string()), tag),
            Err(_) => self.write_exact(Place::Global, None),
        }
    }
}

/// Fowler–Noll–Vo 1a, used for alias-class ids and value tags.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Value tag from a discriminating label plus numeric parameters.
fn tag64(label: &str, parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(label.len() + parts.len() * 8);
    bytes.extend_from_slice(label.as_bytes());
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Context the signatures are derived under: which paths may alias through
/// hard links, and which kernel-visible side channels exist.
#[derive(Debug, Clone, Default)]
pub struct EffectProfile {
    /// Targets sit behind a caching kernel layer
    /// ([`caches_metadata`](vfs::FileSystem::caches_metadata)): reads fill
    /// attr/dentry caches and therefore write kernel state.
    pub kernel_caches: bool,
    /// The abstraction hashes atime, so content/listing reads mutate the
    /// compared state.
    pub atime_in_abstraction: bool,
    /// Union-find result over `Hardlink` pairs: path → alias-class id.
    alias: HashMap<String, u64>,
}

impl EffectProfile {
    /// Derives the alias classes from the (capability-filtered) op pool:
    /// two paths share a content footprint iff a chain of `Hardlink` ops in
    /// the pool can join them. A pool whose targets lack hard-link support
    /// contributes no classes, so every path is content-independent.
    pub fn from_pool(ops: &[FsOp]) -> Self {
        let mut parent: HashMap<String, String> = HashMap::new();
        fn find(parent: &HashMap<String, String>, p: &str) -> String {
            let mut cur = p.to_string();
            while let Some(next) = parent.get(&cur) {
                if *next == cur {
                    break;
                }
                cur = next.clone();
            }
            cur
        }
        for op in ops {
            if let FsOp::Hardlink { src, dst } = op {
                parent.entry(src.clone()).or_insert_with(|| src.clone());
                parent.entry(dst.clone()).or_insert_with(|| dst.clone());
                let rs = find(&parent, src);
                let rd = find(&parent, dst);
                if rs != rd {
                    parent.insert(rd, rs);
                }
            }
        }
        let mut alias = HashMap::new();
        for p in parent.keys() {
            let root = find(&parent, p);
            alias.insert(p.clone(), fnv1a64(root.as_bytes()));
        }
        EffectProfile {
            kernel_caches: false,
            atime_in_abstraction: false,
            alias,
        }
    }

    /// Builder: mark the profile as running behind caching kernel layers.
    pub fn with_kernel_caches(mut self, on: bool) -> Self {
        self.kernel_caches = on;
        self
    }

    /// Builder: mark atime as part of the compared abstraction.
    pub fn with_atime(mut self, on: bool) -> Self {
        self.atime_in_abstraction = on;
        self
    }

    /// Content alias class of a path. Paths never mentioned by a pool
    /// `Hardlink` are their own singleton class. (A hash collision between
    /// classes is harmless: equal classes only make the relation *more*
    /// dependent.)
    pub fn alias_class(&self, p: &str) -> u64 {
        self.alias
            .get(p)
            .copied()
            .unwrap_or_else(|| fnv1a64(p.as_bytes()))
    }

    /// Whether two paths are in the same alias class without being equal.
    pub fn aliased(&self, a: &str, b: &str) -> bool {
        a != b && self.alias_class(a) == self.alias_class(b)
    }
}

/// Derives the effect signature of one operation under a profile.
///
/// The derivation is per-variant and total: `Crash` (and, defensively, any
/// future variant) maps to a [`Place::Global`] write, which conflicts with
/// everything.
pub fn signature(op: &FsOp, prof: &EffectProfile) -> EffectSig {
    let mut sig = EffectSig::default();
    match op {
        FsOp::CreateFile { path, mode } => {
            // `creat` is EEXIST-on-existing in every backend: it never
            // truncates, so there is no content footprint.
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            let tag = tag64("creat", &[*mode as u64]);
            sig.write_exact(Place::Node(path.clone()), Some(tag));
            sig.write_entry(path, Some(tag));
        }
        FsOp::WriteFile {
            path,
            offset,
            size,
            seed,
        } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            if *size > 0 {
                let c = prof.alias_class(path);
                // Size is a high-water mark: extending writes merge.
                sig.write_merge(Place::Size(c, path.clone()));
                sig.write_exact(
                    Place::Range(c, path.clone(), *offset, offset.saturating_add(*size)),
                    Some(tag64("write", &[*offset, *size, *seed as u64])),
                );
            }
            // A zero-length write is stateless: open/lseek/close change
            // nothing observable (errno still depends on the Node read).
        }
        FsOp::Truncate { path, size } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            let c = prof.alias_class(path);
            sig.write_exact(Place::Size(c, path.clone()), Some(tag64("trunc", &[*size])));
            // Truncation rewrites all content (zero-extends or discards).
            sig.write_exact(
                Place::Range(c, path.clone(), 0, u64::MAX),
                Some(tag64("trunc", &[*size])),
            );
        }
        FsOp::Mkdir { path, mode } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            // Distinct label from `creat`: create-then-mkdir leaves a file,
            // mkdir-then-create leaves a directory.
            let tag = tag64("mkdir", &[*mode as u64]);
            sig.write_exact(Place::Node(path.clone()), Some(tag));
            sig.write_entry(path, Some(tag));
        }
        FsOp::Rmdir { path } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            // Success depends on emptiness: reads the whole listing.
            sig.read(Place::Entries(path.clone()));
            sig.write_exact(Place::Node(path.clone()), None);
            sig.write_entry(path, None);
        }
        FsOp::Unlink { path } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            sig.write_exact(Place::Node(path.clone()), None);
            sig.write_entry(path, None);
            // The inode's link count drops by one — a commutative delta
            // shared with aliased paths.
            sig.write_merge(Place::Links(prof.alias_class(path), path.clone()));
        }
        FsOp::Rename { src, dst } => {
            sig.resolve(src);
            sig.resolve(dst);
            sig.read(Place::Node(src.clone()));
            sig.read(Place::Node(dst.clone()));
            // rename-over-directory requires the target empty.
            sig.read(Place::Entries(dst.clone()));
            // Whole subtrees move: everything under either path changes
            // identity.
            sig.write_exact(Place::Subtree(src.clone()), None);
            sig.write_exact(Place::Subtree(dst.clone()), None);
            sig.write_entry(src, None);
            sig.write_entry(dst, None);
        }
        FsOp::Hardlink { src, dst } => {
            sig.resolve(src);
            sig.resolve(dst);
            sig.read(Place::Node(src.clone()));
            sig.read(Place::Node(dst.clone()));
            let tag = tag64("link", &[fnv1a64(src.as_bytes())]);
            sig.write_exact(Place::Node(dst.clone()), Some(tag));
            sig.write_entry(dst, Some(tag));
            sig.write_merge(Place::Links(prof.alias_class(src), src.clone()));
        }
        FsOp::Symlink { target, linkpath } => {
            // The target is stored verbatim and never resolved (lstat
            // semantics): only the link path is touched.
            sig.resolve(linkpath);
            sig.read(Place::Node(linkpath.clone()));
            let tag = tag64("symlink", &[fnv1a64(target.as_bytes())]);
            sig.write_exact(Place::Node(linkpath.clone()), Some(tag));
            sig.write_entry(linkpath, Some(tag));
        }
        FsOp::ReadFile { path, offset, size } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            let c = prof.alias_class(path);
            sig.read(Place::Size(c, path.clone()));
            if *size > 0 {
                sig.read(Place::Range(
                    c,
                    path.clone(),
                    *offset,
                    offset.saturating_add(*size),
                ));
            }
            if prof.atime_in_abstraction {
                sig.write_exact(Place::Meta(c, path.clone()), None);
            }
        }
        FsOp::Stat { path } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            let c = prof.alias_class(path);
            sig.read(Place::Meta(c, path.clone()));
            sig.read(Place::Size(c, path.clone()));
            sig.read(Place::Links(c, path.clone()));
        }
        FsOp::Getdents { path } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            sig.read(Place::Entries(path.clone()));
            if prof.atime_in_abstraction {
                sig.write_exact(Place::Meta(prof.alias_class(path), path.clone()), None);
            }
        }
        FsOp::Chmod { path, mode } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            sig.write_exact(
                Place::Meta(prof.alias_class(path), path.clone()),
                Some(tag64("chmod", &[*mode as u64])),
            );
        }
        FsOp::SetXattr { path, name, seed } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            sig.write_exact(
                Place::Xattr(prof.alias_class(path), path.clone(), name.clone()),
                Some(tag64("setx", &[*seed as u64])),
            );
        }
        FsOp::RemoveXattr { path, name } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            // Removal is idempotent: two removals of the same attr commute
            // (tagged with a reserved "absent" value).
            sig.write_exact(
                Place::Xattr(prof.alias_class(path), path.clone(), name.clone()),
                Some(tag64("rmx", &[])),
            );
        }
        FsOp::Access { path } => {
            sig.resolve(path);
            sig.read(Place::Node(path.clone()));
            sig.read(Place::Meta(prof.alias_class(path), path.clone()));
        }
        // A crash rolls back everything unsynced, and fsck may rewrite any
        // metadata on the volume; future op variants are unknown and must
        // be maximally conservative.
        FsOp::Crash | FsOp::Fsck => {
            sig.write_exact(Place::Global, None);
        }
    }
    if prof.kernel_caches && !matches!(op, FsOp::Crash | FsOp::Fsck) {
        add_cache_effects(op, &mut sig);
    }
    sig
}

/// Kernel attr/dentry-cache footprint: resolution fills a cache entry per
/// path component (an idempotent merge), while mutations *change* the
/// cached attributes of the touched object and its parent directory.
fn add_cache_effects(op: &FsOp, sig: &mut EffectSig) {
    // Paths the kernel layer actually resolves; a symlink's stored target
    // is never walked.
    let resolved: Vec<&str> = match op {
        FsOp::Symlink { linkpath, .. } => vec![linkpath],
        other => other.touched_paths(),
    };
    let mutation = op.is_mutation();
    for p in resolved {
        if mutation {
            sig.write_exact(Place::Cache(p.to_string()), None);
            if let Ok((dir, _)) = path::split_parent(p) {
                sig.write_exact(Place::Cache(dir), None);
            }
            for a in path::ancestors(p).iter().skip(1) {
                if !path::is_root(a) {
                    sig.write_merge(Place::Cache(a.to_string()));
                }
            }
        } else {
            sig.write_merge(Place::Cache(p.to_string()));
            for a in path::ancestors(p) {
                if !path::is_root(a) {
                    sig.write_merge(Place::Cache(a.to_string()));
                }
            }
        }
    }
}

/// [`Place`]'s variants without their payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Node,
    Entry,
    Entries,
    Meta,
    Size,
    Range,
    Links,
    Xattr,
    Subtree,
    Cache,
    Global,
}

/// A [`Place`] compiled against a [`Places`] table: every string is an
/// interned id, so [`overlap`] compares integers and never allocates.
#[derive(Debug, Clone, Copy)]
struct Key {
    kind: Kind,
    /// The path a subtree wildcard is compared against (an entry's joined
    /// path). For content places it is also the anchor whose inequality
    /// within one alias class marks aliasing.
    path: u32,
    /// `Entry`: the parent directory. `Xattr`: the attribute name.
    /// `Subtree`: the row of [`Places::below`] for its path.
    aux: u32,
    class: u64,
    lo: u64,
    hi: u64,
    /// A conservative footprint: two keys whose masks are disjoint cannot
    /// overlap, so the scan skips them without consulting the rules.
    mask: u64,
}

/// The interning table one analysis compiles its signatures against:
/// string ids, plus the ancestor/descendant relation below every
/// `Subtree` anchor, precomputed once the table is complete.
#[derive(Debug, Default)]
struct Places<'s> {
    /// Borrowed from the signatures, except entries' joined paths.
    ids: HashMap<Cow<'s, str>, u32>,
    /// The path id of each `Subtree` row.
    subtrees: Vec<u32>,
    /// Row-major `subtrees.len() × ids.len()`: whether id `q` is the row's
    /// path or lies beneath it. Filled by [`Places::finish`].
    below: Vec<bool>,
}

impl<'s> Places<'s> {
    fn id(&mut self, s: Cow<'s, str>) -> u32 {
        if let Some(&id) = self.ids.get(s.as_ref()) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(s, id);
        id
    }

    fn key(&mut self, place: &'s Place) -> Key {
        let mut key = Key {
            kind: Kind::Global,
            path: 0,
            aux: 0,
            class: 0,
            lo: 0,
            hi: 0,
            mask: u64::MAX,
        };
        let (kind, path): (Kind, Cow<str>) = match place {
            Place::Node(p) => (Kind::Node, p.into()),
            Place::Entry(d, n) => {
                key.aux = self.id(d.into());
                (Kind::Entry, path::join(d, n).into())
            }
            Place::Entries(d) => (Kind::Entries, d.into()),
            Place::Meta(c, p) => {
                key.class = *c;
                (Kind::Meta, p.into())
            }
            Place::Size(c, p) => {
                key.class = *c;
                (Kind::Size, p.into())
            }
            Place::Range(c, p, lo, hi) => {
                (key.class, key.lo, key.hi) = (*c, *lo, *hi);
                (Kind::Range, p.into())
            }
            Place::Links(c, p) => {
                key.class = *c;
                (Kind::Links, p.into())
            }
            Place::Xattr(c, p, n) => {
                key.class = *c;
                key.aux = self.id(n.into());
                (Kind::Xattr, p.into())
            }
            Place::Subtree(p) => (Kind::Subtree, p.into()),
            Place::Cache(p) => (Kind::Cache, p.into()),
            Place::Global => return key,
        };
        key.kind = kind;
        key.path = self.id(path);
        if kind == Kind::Subtree {
            key.aux = match self.subtrees.iter().position(|&s| s == key.path) {
                Some(row) => row as u32,
                None => {
                    self.subtrees.push(key.path);
                    self.subtrees.len() as u32 - 1
                }
            };
        }
        // Cells overlap only on an equal path (an entry also meets its
        // directory's listing) or, for content, an equal alias class; low
        // bits fold path ids, high bits alias classes. A subtree meets
        // anything below it: its mask stays full.
        let bit = |token: u64| 1u64 << (token % 32);
        key.mask = match kind {
            Kind::Node | Kind::Entries | Kind::Cache => bit(key.path.into()),
            Kind::Entry => bit(key.path.into()) | bit(key.aux.into()),
            Kind::Meta | Kind::Size | Kind::Range | Kind::Links | Kind::Xattr => {
                bit(key.class) << 32
            }
            Kind::Subtree | Kind::Global => u64::MAX,
        };
        key
    }

    /// Compiles one signature; call [`finish`](Places::finish) once every
    /// signature of the analysis is compiled.
    fn compile(&mut self, sig: &'s EffectSig) -> Compiled<'s> {
        let reads: Vec<Key> = sig.reads.iter().map(|p| self.key(p)).collect();
        let writes: Vec<CompiledWrite> = sig
            .writes
            .iter()
            .map(|w| CompiledWrite {
                key: self.key(&w.place),
                kind: w.kind,
                tag: w.tag,
                place: &w.place,
            })
            .collect();
        Compiled {
            read_mask: reads.iter().fold(0, |m, k| m | k.mask),
            write_mask: writes.iter().fold(0, |m, w| m | w.key.mask),
            reads,
            writes,
            shape: Shape::of(sig),
        }
    }

    fn finish(&mut self) {
        let mut names = vec![""; self.ids.len()];
        for (name, &id) in &self.ids {
            names[id as usize] = name.as_ref();
        }
        let mut below = Vec::with_capacity(self.subtrees.len() * names.len());
        for &s in &self.subtrees {
            let anchor = names[s as usize];
            below.extend(names.iter().map(|q| path::is_same_or_descendant(anchor, q)));
        }
        self.below = below;
    }

    /// Whether `subtree`'s path is `path` or an ancestor of it.
    fn within(&self, subtree: &Key, path: u32) -> bool {
        self.below[subtree.aux as usize * self.ids.len() + path as usize]
    }
}

/// One compiled write effect, keeping the place it came from so a
/// witness can name it.
#[derive(Debug)]
struct CompiledWrite<'s> {
    key: Key,
    kind: WriteKind,
    tag: Option<u64>,
    place: &'s Place,
}

/// What the relations' shortcuts need to know of one signature, before
/// any place is compared.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Writes the global wildcard (crash-like).
    global: bool,
    /// Writes anything at all.
    writes: bool,
}

impl Shape {
    fn of(sig: &EffectSig) -> Self {
        Shape {
            global: sig.writes_global(),
            writes: !sig.writes.is_empty(),
        }
    }
}

/// An [`EffectSig`] compiled against a [`Places`] table.
#[derive(Debug)]
struct Compiled<'s> {
    reads: Vec<Key>,
    writes: Vec<CompiledWrite<'s>>,
    shape: Shape,
    /// Unions of the read and write keys' masks.
    read_mask: u64,
    write_mask: u64,
}

/// How two places can overlap.
struct Overlap {
    /// The match went through an alias class with distinct anchor paths.
    aliased: bool,
    /// The two places denote the identical cell (tag-equality can then
    /// prove two exact writes commute).
    identical_cell: bool,
}

/// The overlap rules, in one place: whether two compiled places can
/// denote a common location, and how.
fn overlap(a: &Key, b: &Key, places: &Places) -> Option<Overlap> {
    use Kind::*;
    const WILD: Overlap = Overlap {
        aliased: false,
        identical_cell: false,
    };
    // Global and Subtree are wildcards: resolve them first.
    if a.kind == Global || b.kind == Global {
        return Some(WILD);
    }
    if a.kind == Subtree {
        if places.within(a, b.path) {
            return Some(WILD);
        }
        if b.kind != Subtree {
            return None;
        }
    }
    if b.kind == Subtree {
        return places.within(b, a.path).then_some(WILD);
    }
    let cell = |same: bool, aliased: bool| {
        same.then_some(Overlap {
            aliased,
            identical_cell: true,
        })
    };
    match (a.kind, b.kind) {
        (Node, Node) | (Entries, Entries) | (Cache, Cache) => cell(a.path == b.path, false),
        // An entry's path is its joined path: equal directories and equal
        // joined paths mean equal names.
        (Entry, Entry) => cell(a.aux == b.aux && a.path == b.path, false),
        (Entry, Entries) => (a.aux == b.path).then_some(WILD),
        (Entries, Entry) => (a.path == b.aux).then_some(WILD),
        (Meta, Meta) | (Size, Size) | (Links, Links) => {
            let same = a.class == b.class;
            cell(same, same && a.path != b.path)
        }
        (Xattr, Xattr) => {
            let same = a.class == b.class;
            cell(same && a.aux == b.aux, same && a.path != b.path)
        }
        (Range, Range) => (a.class == b.class && a.lo < b.hi && b.lo < a.hi).then_some(Overlap {
            aliased: a.path != b.path,
            identical_cell: a.lo == b.lo && a.hi == b.hi,
        }),
        _ => None,
    }
}

/// Why a pair is dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictKind {
    /// One op writes the global wildcard (crash-like).
    Global,
    /// A write overlaps the other op's read set.
    WriteRead,
    /// Two writes overlap and are not provably commuting.
    WriteWrite,
}

/// A concrete dependence witness: which places collided and whether the
/// collision went through hard-link aliasing (distinct anchor paths in one
/// alias class — precisely the pairs the old heuristic got wrong).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Conflict category.
    pub kind: ConflictKind,
    /// Rendering of the colliding place (for diagnostics).
    pub place: String,
    /// The collision required alias-class matching across distinct paths.
    pub aliased: bool,
}

/// A [`Conflict`] before its place is rendered: the matrix build only
/// asks whether there is one.
struct Witness<'s> {
    kind: ConflictKind,
    place: &'s Place,
    aliased: bool,
}

static GLOBAL: Place = Place::Global;

impl From<Option<Witness<'_>>> for Independence {
    fn from(w: Option<Witness<'_>>) -> Self {
        match w {
            None => Independence::Independent,
            Some(w) => Independence::Dependent(Conflict {
                kind: w.kind,
                place: w.place.to_string(),
                aliased: w.aliased,
            }),
        }
    }
}

/// Outcome of the pairwise analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Independence {
    /// The footprints cannot conflict: both orders reach the same state.
    Independent,
    /// A witness that the pair may not commute.
    Dependent(Conflict),
}

impl Independence {
    /// True iff independent.
    pub fn is_independent(&self) -> bool {
        matches!(self, Independence::Independent)
    }
}

/// [`first_conflict`] of two signatures compiled against a fresh table.
fn scan_pair<'s>(sa: &'s EffectSig, sb: &'s EffectSig, outcome_blind: bool) -> Option<Witness<'s>> {
    let mut places = Places::default();
    let (ca, cb) = (places.compile(sa), places.compile(sb));
    places.finish();
    first_conflict(&ca, &cb, &places, outcome_blind)
}

/// Pairwise analysis with a dependence witness; see [`independent`].
pub fn explain(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> Independence {
    let (sa, sb) = (signature(a, prof), signature(b, prof));
    sequential(Shape::of(&sa), Shape::of(&sb), a == b, |blind| {
        scan_pair(&sa, &sb, blind)
    })
    .into()
}

/// Crash first: a global write never commutes, not even with itself.
fn global<'s>(a: Shape, b: Shape) -> Option<Witness<'s>> {
    (a.global || b.global).then_some(Witness {
        kind: ConflictKind::Global,
        place: &GLOBAL,
        aliased: false,
    })
}

/// The sequential relation behind [`explain`]; `same_op` says the two
/// signatures belong to equal ops, and `scan` runs [`first_conflict`] on
/// them (only when no shortcut decides the pair).
fn sequential<'s>(
    a: Shape,
    b: Shape,
    same_op: bool,
    scan: impl FnOnce(bool) -> Option<Witness<'s>>,
) -> Option<Witness<'s>> {
    if let Some(w) = global(a, b) {
        return Some(w);
    }
    // Identical ops commute trivially (o;o is the same sequence either
    // way) — checked after the crash guard. Pure reads commute with
    // anything: an empty write set cannot change the state the other op
    // sees, and its own outcome is re-verified by the harness along every
    // interleaving actually executed.
    if same_op || !a.writes || !b.writes {
        return None;
    }
    scan(true)
}

/// Signature-level concurrency independence.
///
/// The sequential relation above is a *state-reachability* relation: it may
/// call a pair independent when both orders reach the same abstract state,
/// even though the two ops' own **results** differ by order. That is sound
/// for reordering one sequential trace (each interleaving's outcomes are
/// re-verified when executed) but unsound as a concurrency independence
/// relation, where each logical thread observes its own result and the
/// pair's schedule decides who sees what. Two rules are therefore dropped:
///
/// * the pure-read shortcut — a read of a place another thread writes is
///   order-sensitive (stale vs. fresh result), even though it cannot
///   change state;
/// * the identical-op and equal-tag exact-write shortcuts — two threads
///   issuing the same `create` reach the same state either way, but which
///   thread gets `Ok` and which gets `EEXIST` depends on the order.
///
/// Only commutative merge-merge updates to the same place still commute.
fn concurrent<'s>(
    a: Shape,
    b: Shape,
    scan: impl FnOnce(bool) -> Option<Witness<'s>>,
) -> Option<Witness<'s>> {
    global(a, b).or_else(|| scan(false))
}

/// Shared overlap scan behind [`sequential`] / [`concurrent`] —
/// `outcome_blind` selects the sequential (state-only) exceptions.
fn first_conflict<'s>(
    sa: &Compiled<'s>,
    sb: &Compiled<'s>,
    places: &Places,
    outcome_blind: bool,
) -> Option<Witness<'s>> {
    for (wr, rd) in [(sa, sb), (sb, sa)] {
        if wr.write_mask & rd.read_mask == 0 {
            continue;
        }
        for w in &wr.writes {
            if w.key.mask & rd.read_mask == 0 {
                continue;
            }
            for r in &rd.reads {
                if w.key.mask & r.mask == 0 {
                    continue;
                }
                if let Some(o) = overlap(&w.key, r, places) {
                    return Some(Witness {
                        kind: ConflictKind::WriteRead,
                        place: w.place,
                        aliased: o.aliased,
                    });
                }
            }
        }
    }
    if sa.write_mask & sb.write_mask == 0 {
        return None;
    }
    for wa in &sa.writes {
        if wa.key.mask & sb.write_mask == 0 {
            continue;
        }
        for wb in &sb.writes {
            if wa.key.mask & wb.key.mask == 0 {
                continue;
            }
            if let Some(o) = overlap(&wa.key, &wb.key, places) {
                // Merges commute with merges; exact writes of the same
                // value to the identical cell commute — but only for the
                // sequential relation: concurrently, two threads writing
                // the same value still race for whose *result* reflects
                // the pre-existing cell (create/create → Ok vs EEXIST).
                let commutes = match (wa.kind, wb.kind) {
                    (WriteKind::Merge, WriteKind::Merge) => true,
                    (WriteKind::Exact, WriteKind::Exact) => {
                        outcome_blind && o.identical_cell && wa.tag.is_some() && wa.tag == wb.tag
                    }
                    _ => false,
                };
                if !commutes {
                    return Some(Witness {
                        kind: ConflictKind::WriteWrite,
                        place: wa.place,
                        aliased: o.aliased,
                    });
                }
            }
        }
    }
    None
}

/// Signature-derived independence: `true` iff the footprints of `a` and
/// `b` cannot conflict, in which case executing them in either order from
/// any state reaches the same abstract state.
pub fn independent(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> bool {
    let (sa, sb) = (signature(a, prof), signature(b, prof));
    sequential(Shape::of(&sa), Shape::of(&sb), a == b, |blind| {
        scan_pair(&sa, &sb, blind)
    })
    .is_none()
}

/// Pairwise *concurrency* independence with a dependence witness.
///
/// Stricter than [`explain`]: `a` and `b` are independent only if swapping
/// their order changes neither the reached state **nor either op's own
/// observable result** — the contract a thread-interleaving explorer needs,
/// where each logical thread records the outcome it saw. Notably there is
/// no identical-op shortcut: two threads issuing the same op often race
/// for its result.
pub fn explain_concurrent(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> Independence {
    let (sa, sb) = (signature(a, prof), signature(b, prof));
    concurrent(Shape::of(&sa), Shape::of(&sb), |blind| {
        scan_pair(&sa, &sb, blind)
    })
    .into()
}

/// Concurrency independence predicate; see [`explain_concurrent`].
pub fn independent_concurrent(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> bool {
    let (sa, sb) = (signature(a, prof), signature(b, prof));
    concurrent(Shape::of(&sa), Shape::of(&sb), |blind| {
        scan_pair(&sa, &sb, blind)
    })
    .is_none()
}

/// The original hand-written path-prefix heuristic (formerly the harness's
/// relation), kept verbatim as the reference the derived relation is
/// checked against: MC001's `Relation::Heuristic` sanitizer baseline and
/// `tests/effect_soundness.rs`. Unsound under hard-link aliasing.
pub fn heuristic_independent(a: &FsOp, b: &FsOp) -> bool {
    // A crash commutes with nothing: it has an empty path footprint but
    // rolls unsynced state back, so reordering it against any mutation
    // changes what survives. Partial-order reduction must never sleep
    // it or use it to sleep others.
    if matches!(a, FsOp::Crash | FsOp::Fsck) || matches!(b, FsOp::Crash | FsOp::Fsck) {
        return false;
    }
    // Read-only operations don't change the hashed state: they commute
    // with everything.
    if !a.is_mutation() || !b.is_mutation() {
        return true;
    }
    // Mutations commute when their path footprints are prefix-disjoint.
    for pa in a.touched_paths() {
        for pb in b.touched_paths() {
            if path::is_same_or_descendant(pa, pb) || path::is_same_or_descendant(pb, pa) {
                return false;
            }
        }
    }
    true
}

/// Precomputed pairwise independence over a fixed op list (the harness's
/// filtered pool): O(1) lookups on the DFS hot path, falling back to
/// on-the-fly derivation for ops outside the list.
#[derive(Debug, Clone)]
pub struct EffectIndex {
    profile: EffectProfile,
    index: HashMap<FsOp, usize>,
    matrix: Vec<bool>,
    /// The concurrency relation (see [`explain_concurrent`]): a strict
    /// subset of `matrix`, used when the two ops run on distinct threads.
    conc: Vec<bool>,
    n: usize,
}

impl EffectIndex {
    /// Builds the matrix for `ops` under `profile`. Every signature is
    /// compiled once against one table, and only one triangle is scanned:
    /// both relations are symmetric.
    pub fn new(ops: &[FsOp], profile: EffectProfile) -> Self {
        let sigs: Vec<EffectSig> = ops.iter().map(|o| signature(o, &profile)).collect();
        let mut places = Places::default();
        let compiled: Vec<Compiled> = sigs.iter().map(|s| places.compile(s)).collect();
        places.finish();
        let n = ops.len();
        let mut matrix = vec![false; n * n];
        let mut conc = vec![false; n * n];
        for i in 0..n {
            for j in i..n {
                let (ci, cj) = (&compiled[i], &compiled[j]);
                let scan = |blind| first_conflict(ci, cj, &places, blind);
                let c = concurrent(ci.shape, cj.shape, scan).is_none();
                // Concurrent independence implies sequential independence:
                // only a concurrent dependence needs the sequential scan.
                let s = c || sequential(ci.shape, cj.shape, ops[i] == ops[j], scan).is_none();
                for (a, b) in [(i, j), (j, i)] {
                    matrix[a * n + b] = s;
                    conc[a * n + b] = c;
                }
            }
        }
        let index = ops
            .iter()
            .enumerate()
            .map(|(i, o)| (o.clone(), i))
            .collect();
        EffectIndex {
            profile,
            index,
            matrix,
            conc,
            n,
        }
    }

    /// O(1) pairwise lookup (on-the-fly derivation for unknown ops).
    pub fn independent(&self, a: &FsOp, b: &FsOp) -> bool {
        match (self.index.get(a), self.index.get(b)) {
            (Some(&i), Some(&j)) => self.matrix[i * self.n + j],
            _ => independent(a, b, &self.profile),
        }
    }

    /// O(1) concurrency-independence lookup ([`explain_concurrent`]), for
    /// ops issued by distinct logical threads.
    pub fn independent_concurrent(&self, a: &FsOp, b: &FsOp) -> bool {
        match (self.index.get(a), self.index.get(b)) {
            (Some(&i), Some(&j)) => self.conc[i * self.n + j],
            _ => independent_concurrent(a, b, &self.profile),
        }
    }

    /// The profile the matrix was derived under.
    pub fn profile(&self) -> &EffectProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn op_write(path: &str, offset: u64, size: u64) -> FsOp {
        FsOp::WriteFile {
            path: path.into(),
            offset,
            size,
            seed: 1,
        }
    }

    fn plain_profile() -> EffectProfile {
        EffectProfile::default()
    }

    #[test]
    fn crash_is_dependent_on_everything_including_itself() {
        let p = plain_profile();
        let stat = FsOp::Stat { path: "/f0".into() };
        assert!(!independent(&FsOp::Crash, &stat, &p));
        assert!(!independent(&stat, &FsOp::Crash, &p));
        assert!(!independent(&FsOp::Crash, &FsOp::Crash, &p));
    }

    #[test]
    fn disjoint_range_writes_to_same_file_commute() {
        let p = plain_profile();
        let a = op_write("/f0", 0, 10);
        let b = op_write("/f0", 100, 10);
        assert!(independent(&a, &b, &p), "disjoint ranges");
        let c = op_write("/f0", 5, 10);
        assert!(!independent(&a, &c, &p), "overlapping ranges");
    }

    #[test]
    fn truncate_conflicts_with_any_write_to_the_file() {
        let p = plain_profile();
        let t = FsOp::Truncate {
            path: "/f0".into(),
            size: 1,
        };
        assert!(!independent(&t, &op_write("/f0", 100, 10), &p));
        assert!(independent(&t, &op_write("/f1", 0, 10), &p));
    }

    #[test]
    fn chmod_commutes_with_data_write_same_file() {
        let p = plain_profile();
        let chmod = FsOp::Chmod {
            path: "/f0".into(),
            mode: 0o400,
        };
        assert!(independent(&chmod, &op_write("/f0", 0, 10), &p));
        // But not with unlink (node existence read/write collide).
        let unlink = FsOp::Unlink { path: "/f0".into() };
        assert!(!independent(&chmod, &unlink, &p));
    }

    #[test]
    fn same_value_exact_writes_commute() {
        let p = plain_profile();
        let a = FsOp::Chmod {
            path: "/f0".into(),
            mode: 0o644,
        };
        let b = FsOp::Chmod {
            path: "/f0".into(),
            mode: 0o400,
        };
        // Identical op: trivially independent; distinct modes conflict.
        assert!(independent(&a, &a.clone(), &p));
        assert!(!independent(&a, &b, &p));
    }

    #[test]
    fn create_and_mkdir_on_same_path_conflict() {
        let p = plain_profile();
        let c = FsOp::CreateFile {
            path: "/x".into(),
            mode: 0o644,
        };
        let m = FsOp::Mkdir {
            path: "/x".into(),
            mode: 0o644,
        };
        assert!(!independent(&c, &m, &p), "file-vs-dir winner differs");
    }

    #[test]
    fn hardlink_aliasing_makes_cross_path_content_conflict() {
        let pool = vec![FsOp::Hardlink {
            src: "/f0".into(),
            dst: "/f1".into(),
        }];
        let p = EffectProfile::from_pool(&pool);
        let t = FsOp::Truncate {
            path: "/f0".into(),
            size: 1,
        };
        let w = op_write("/f1", 0, 10);
        let verdict = explain(&t, &w, &p);
        match verdict {
            Independence::Dependent(c) => assert!(c.aliased, "alias-mediated: {c:?}"),
            Independence::Independent => panic!("aliased truncate/write must conflict"),
        }
        // The old heuristic misses exactly this case.
        assert!(heuristic_independent(&t, &w));
        // Without the hardlink in the pool the paths cannot alias.
        assert!(independent(&t, &w, &plain_profile()));
    }

    #[test]
    fn rename_subtree_conflicts_with_descendant_ops() {
        let p = plain_profile();
        let r = FsOp::Rename {
            src: "/d0".into(),
            dst: "/d1".into(),
        };
        let w = op_write("/d0/f2", 0, 10);
        assert!(!independent(&r, &w, &p));
        let w2 = op_write("/f0", 0, 10);
        assert!(independent(&r, &w2, &p));
    }

    #[test]
    fn reads_commute_without_kernel_caches() {
        let p = plain_profile();
        let stat = FsOp::Stat { path: "/f0".into() };
        let unlink = FsOp::Unlink { path: "/f0".into() };
        assert!(independent(&stat, &unlink, &p));
    }

    #[test]
    fn cache_profile_makes_same_path_read_depend_on_mutation() {
        let p = plain_profile().with_kernel_caches(true);
        let stat = FsOp::Stat { path: "/f0".into() };
        let unlink = FsOp::Unlink { path: "/f0".into() };
        assert!(!independent(&stat, &unlink, &p), "cache fill vs eviction");
        // Two reads still commute (idempotent fills merge)...
        let read = FsOp::ReadFile {
            path: "/f0".into(),
            offset: 0,
            size: 16,
        };
        assert!(independent(&stat, &read, &p));
        // ...and disjoint paths with no shared parent cache state do too.
        let unlink_other = FsOp::Unlink {
            path: "/d0/f2".into(),
        };
        assert!(independent(&stat, &unlink_other, &p));
    }

    #[test]
    fn getdents_depends_on_entry_mutations_in_that_dir() {
        // State-wise getdents is a pure read (bypass applies); under a
        // cache profile the listing fill conflicts with the mutation.
        let p = plain_profile().with_kernel_caches(true);
        let g = FsOp::Getdents { path: "/d0".into() };
        let c = FsOp::CreateFile {
            path: "/d0/f2".into(),
            mode: 0o644,
        };
        assert!(!independent(&g, &c, &p));
    }

    #[test]
    fn rmdir_depends_on_child_entry_mutations() {
        let p = plain_profile();
        let rm = FsOp::Rmdir { path: "/d0".into() };
        let c = FsOp::CreateFile {
            path: "/d0/f2".into(),
            mode: 0o644,
        };
        assert!(!independent(&rm, &c, &p), "emptiness read vs entry write");
    }

    /// The op pool of the FUSE-mounted VeriFS v1/v2 pairing over the medium
    /// pool: capability-filtered (v1 has no hard links, so no alias
    /// classes), the pool `verifs-dfs` explores.
    fn fuse_verifs_pool() -> Vec<FsOp> {
        use crate::backends::target;
        use crate::{Mcfs, McfsConfig, RemountMode};
        let clock = blockdev::Clock::new();
        let pair = ["fuse-verifs-v1", "fuse-verifs-v2"]
            .map(|name| target(name, RemountMode::PerOp, clock.clone()).unwrap())
            .into();
        let cfg = McfsConfig {
            pool: PoolConfig::medium(),
            ..McfsConfig::default()
        };
        let ops = Mcfs::with_clock(pair, cfg, clock)
            .unwrap()
            .op_pool()
            .to_vec();
        assert!(!ops.iter().any(|o| matches!(o, FsOp::Hardlink { .. })));
        ops
    }

    #[test]
    fn effect_index_matches_derivation_on_every_pool_and_profile() {
        let pools = [
            ("small", PoolConfig::small().ops()),
            ("medium", PoolConfig::medium().ops()),
            ("fuse-verifs", fuse_verifs_pool()),
        ];
        let foreign = [
            FsOp::Stat {
                path: "/zzz".into(),
            },
            op_write("/zzz", 0, 8),
        ];
        for (pool, ops) in &pools {
            for (caches, atime) in [(false, false), (true, false), (false, true), (true, true)] {
                let prof = EffectProfile::from_pool(ops)
                    .with_kernel_caches(caches)
                    .with_atime(atime);
                let idx = EffectIndex::new(ops, prof.clone());
                let at = format!("{pool} pool, kernel caches {caches}, atime {atime}");
                for a in ops {
                    for b in ops {
                        let seq = idx.independent(a, b);
                        let conc = idx.independent_concurrent(a, b);
                        assert_eq!(seq, independent(a, b, &prof), "{at}: {a} vs {b}");
                        assert_eq!(
                            conc,
                            independent_concurrent(a, b, &prof),
                            "{at}: concurrent {a} vs {b}"
                        );
                        assert_eq!(seq, idx.independent(b, a), "{at}: symmetry {a} vs {b}");
                        assert_eq!(
                            conc,
                            idx.independent_concurrent(b, a),
                            "{at}: concurrent symmetry {a} vs {b}"
                        );
                        assert!(seq || !conc, "{at}: concurrent ⊄ sequential: {a} vs {b}");
                    }
                }
                // Ops outside the pool fall back to derivation.
                for f in &foreign {
                    for b in ops {
                        assert_eq!(idx.independent(f, b), independent(f, b, &prof), "{at}: {f}");
                        assert_eq!(
                            idx.independent_concurrent(b, f),
                            independent_concurrent(b, f, &prof),
                            "{at}: {f}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn identical_creates_race_concurrently() {
        // Sequentially o;o is the same sequence either way; concurrently
        // two threads race for who gets Ok and who gets EEXIST.
        let p = plain_profile();
        let c = FsOp::CreateFile {
            path: "/x".into(),
            mode: 0o644,
        };
        assert!(independent(&c, &c.clone(), &p));
        assert!(!independent_concurrent(&c, &c.clone(), &p));
    }

    #[test]
    fn read_vs_same_path_mutation_is_concurrent_dependent() {
        // The pure-read shortcut is outcome-unsound across threads: the
        // stat's own result depends on whether the unlink went first.
        let p = plain_profile();
        let stat = FsOp::Stat { path: "/f0".into() };
        let unlink = FsOp::Unlink { path: "/f0".into() };
        assert!(independent(&stat, &unlink, &p));
        assert!(!independent_concurrent(&stat, &unlink, &p));
        // An overlapping data write is likewise order-visible to a read.
        let r = FsOp::ReadFile {
            path: "/f0".into(),
            offset: 0,
            size: 16,
        };
        assert!(!independent_concurrent(&r, &op_write("/f0", 0, 10), &p));
        // Two pure reads still commute, and so do disjoint footprints.
        assert!(independent_concurrent(&stat, &r, &p));
        assert!(independent_concurrent(&stat, &op_write("/f1", 0, 8), &p));
        assert!(independent_concurrent(
            &op_write("/f0", 0, 8),
            &op_write("/f1", 0, 8),
            &p
        ));
    }

    #[test]
    fn crash_and_fsck_never_commute_concurrently() {
        let p = plain_profile();
        let w = op_write("/f0", 0, 8);
        for global in [FsOp::Crash, FsOp::Fsck] {
            assert!(!independent_concurrent(&global, &w, &p), "{global}");
            assert!(!independent_concurrent(&w, &global, &p), "{global}");
        }
    }

    #[test]
    fn derived_superset_of_heuristic_modulo_aliasing() {
        let ops = PoolConfig::small().ops();
        let prof = EffectProfile::from_pool(&ops);
        for a in &ops {
            for b in &ops {
                if heuristic_independent(a, b) && !independent(a, b, &prof) {
                    match explain(a, b, &prof) {
                        Independence::Dependent(c) => {
                            assert!(
                                c.aliased,
                                "{a} vs {b}: derived stricter without aliasing ({c:?})"
                            );
                        }
                        Independence::Independent => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn zero_length_write_is_stateless() {
        let p = plain_profile();
        let w0 = op_write("/f0", 0, 0);
        let t = FsOp::Truncate {
            path: "/f0".into(),
            size: 10,
        };
        assert!(independent(&w0, &t, &p));
    }

    #[test]
    fn symlink_does_not_touch_its_target() {
        let p = plain_profile();
        let s = FsOp::Symlink {
            target: "/f0".into(),
            linkpath: "/f1.ln".into(),
        };
        let w = op_write("/f0", 0, 10);
        assert!(independent(&s, &w, &p), "target stored verbatim");
        let u = FsOp::Unlink {
            path: "/f1.ln".into(),
        };
        assert!(!independent(&s, &u, &p));
    }
}

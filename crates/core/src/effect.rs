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

impl Place {
    /// The path this place is anchored at, if any (used for subtree
    /// overlap and alias detection).
    fn anchor(&self) -> Option<&str> {
        match self {
            Place::Node(p)
            | Place::Entries(p)
            | Place::Subtree(p)
            | Place::Cache(p)
            | Place::Meta(_, p)
            | Place::Size(_, p)
            | Place::Range(_, p, _, _)
            | Place::Links(_, p)
            | Place::Xattr(_, p, _) => Some(p),
            Place::Entry(d, _) => Some(d),
            Place::Global => None,
        }
    }
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

/// How two places can overlap.
struct Overlap {
    /// The match went through an alias class with distinct anchor paths.
    aliased: bool,
    /// The two places denote the identical cell (tag-equality can then
    /// prove two exact writes commute).
    identical_cell: bool,
}

fn overlap(a: &Place, b: &Place) -> Option<Overlap> {
    use Place::*;
    // Global and Subtree are wildcards: resolve them first.
    if matches!(a, Global) || matches!(b, Global) {
        return Some(Overlap {
            aliased: false,
            identical_cell: false,
        });
    }
    if let Subtree(p) = a {
        if let Some(q) = anchor_for_subtree(b) {
            if path::is_same_or_descendant(p, &q) {
                return Some(Overlap {
                    aliased: false,
                    identical_cell: false,
                });
            }
        }
        if !matches!(b, Subtree(_)) {
            return None;
        }
    }
    if let Subtree(p) = b {
        return anchor_for_subtree(a)
            .filter(|q| path::is_same_or_descendant(p, q))
            .map(|_| Overlap {
                aliased: false,
                identical_cell: false,
            });
    }
    let cell = |same: bool, aliased: bool| {
        same.then_some(Overlap {
            aliased,
            identical_cell: true,
        })
    };
    match (a, b) {
        (Node(p), Node(q)) => cell(p == q, false),
        (Entry(d, n), Entry(d2, n2)) => cell(d == d2 && n == n2, false),
        (Entries(d), Entries(d2)) => cell(d == d2, false),
        (Entry(d, _), Entries(d2)) | (Entries(d2), Entry(d, _)) => (d == d2).then_some(Overlap {
            aliased: false,
            identical_cell: false,
        }),
        (Cache(p), Cache(q)) => cell(p == q, false),
        (Meta(c, p), Meta(c2, q)) | (Size(c, p), Size(c2, q)) | (Links(c, p), Links(c2, q)) => {
            cell(c == c2, c == c2 && p != q)
        }
        (Xattr(c, p, n), Xattr(c2, q, n2)) => cell(c == c2 && n == n2, c == c2 && p != q),
        (Range(c, p, lo, hi), Range(c2, q, lo2, hi2)) => {
            if c == c2 && lo < hi2 && lo2 < hi {
                Some(Overlap {
                    aliased: p != q,
                    identical_cell: lo == lo2 && hi == hi2,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The path a subtree wildcard should be compared against.
fn anchor_for_subtree(p: &Place) -> Option<String> {
    match p {
        Place::Entry(d, n) => Some(path::join(d, n)),
        other => other.anchor().map(str::to_string),
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

/// Pairwise analysis with a dependence witness; see [`independent`].
pub fn explain(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> Independence {
    // Crash first: even against itself it must never enter a sleep set.
    let sa = signature(a, prof);
    let sb = signature(b, prof);
    if sa.writes_global() || sb.writes_global() {
        return Independence::Dependent(Conflict {
            kind: ConflictKind::Global,
            place: Place::Global.to_string(),
            aliased: false,
        });
    }
    // Identical ops commute trivially (o;o is the same sequence either
    // way) — checked after the crash guard.
    if a == b {
        return Independence::Independent;
    }
    explain_sigs(&sa, &sb)
}

/// Signature-level core of [`explain`] (callers with precomputed
/// signatures, e.g. [`EffectIndex`], skip re-derivation).
fn explain_sigs(sa: &EffectSig, sb: &EffectSig) -> Independence {
    // Pure reads commute with anything: an empty write set cannot change
    // the state the other op sees, and its own outcome is re-verified by
    // the harness along every interleaving actually executed.
    if sa.writes.is_empty() || sb.writes.is_empty() {
        return Independence::Independent;
    }
    explain_sigs_overlaps(sa, sb, true)
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
fn explain_sigs_concurrent(sa: &EffectSig, sb: &EffectSig) -> Independence {
    explain_sigs_overlaps(sa, sb, false)
}

/// Shared overlap scan behind [`explain_sigs`] / [`explain_sigs_concurrent`]
/// — `outcome_blind` selects the sequential (state-only) exceptions.
fn explain_sigs_overlaps(sa: &EffectSig, sb: &EffectSig, outcome_blind: bool) -> Independence {
    for (wr, rd) in [(sa, sb), (sb, sa)] {
        for w in &wr.writes {
            for r in &rd.reads {
                if let Some(o) = overlap(&w.place, r) {
                    return Independence::Dependent(Conflict {
                        kind: ConflictKind::WriteRead,
                        place: w.place.to_string(),
                        aliased: o.aliased,
                    });
                }
            }
        }
    }
    for wa in &sa.writes {
        for wb in &sb.writes {
            if let Some(o) = overlap(&wa.place, &wb.place) {
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
                    return Independence::Dependent(Conflict {
                        kind: ConflictKind::WriteWrite,
                        place: wa.place.to_string(),
                        aliased: o.aliased,
                    });
                }
            }
        }
    }
    Independence::Independent
}

/// Signature-derived independence: `true` iff the footprints of `a` and
/// `b` cannot conflict, in which case executing them in either order from
/// any state reaches the same abstract state.
pub fn independent(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> bool {
    explain(a, b, prof).is_independent()
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
    let sa = signature(a, prof);
    let sb = signature(b, prof);
    if sa.writes_global() || sb.writes_global() {
        return Independence::Dependent(Conflict {
            kind: ConflictKind::Global,
            place: Place::Global.to_string(),
            aliased: false,
        });
    }
    explain_sigs_concurrent(&sa, &sb)
}

/// Concurrency independence predicate; see [`explain_concurrent`].
pub fn independent_concurrent(a: &FsOp, b: &FsOp, prof: &EffectProfile) -> bool {
    explain_concurrent(a, b, prof).is_independent()
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
    /// Builds the matrix for `ops` under `profile`.
    pub fn new(ops: &[FsOp], profile: EffectProfile) -> Self {
        let sigs: Vec<EffectSig> = ops.iter().map(|o| signature(o, &profile)).collect();
        let n = ops.len();
        let mut matrix = vec![false; n * n];
        let mut conc = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                let global = sigs[i].writes_global() || sigs[j].writes_global();
                matrix[i * n + j] = if global {
                    false
                } else if ops[i] == ops[j] {
                    true
                } else {
                    explain_sigs(&sigs[i], &sigs[j]).is_independent()
                };
                // No identical-op shortcut concurrently: same op on two
                // threads races for its own result.
                conc[i * n + j] =
                    !global && explain_sigs_concurrent(&sigs[i], &sigs[j]).is_independent();
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

    #[test]
    fn effect_index_matches_direct_derivation() {
        let ops = PoolConfig::small().ops();
        let prof = EffectProfile::from_pool(&ops);
        let idx = EffectIndex::new(&ops, prof.clone());
        for a in &ops {
            for b in &ops {
                assert_eq!(
                    idx.independent(a, b),
                    independent(a, b, &prof),
                    "{a} vs {b}"
                );
            }
        }
        // Unknown ops fall back to derivation.
        let foreign = FsOp::Stat {
            path: "/zzz".into(),
        };
        assert!(idx.independent(&foreign, &ops[0]) == independent(&foreign, &ops[0], &prof));
    }

    #[test]
    fn concurrent_relation_is_a_subset_of_sequential() {
        // Whatever the concurrency relation admits, the sequential one
        // must too: it only drops outcome-blind shortcuts.
        let ops = PoolConfig::medium().ops();
        let prof = EffectProfile::from_pool(&ops);
        let idx = EffectIndex::new(&ops, prof.clone());
        for a in &ops {
            for b in &ops {
                if idx.independent_concurrent(a, b) {
                    assert!(idx.independent(a, b), "{a} vs {b}");
                }
                assert_eq!(
                    idx.independent_concurrent(a, b),
                    independent_concurrent(a, b, &prof),
                    "index vs derivation: {a} vs {b}"
                );
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

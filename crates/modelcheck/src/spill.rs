//! Out-of-core spilling: the visited set's disk tier and frontier pages.
//!
//! The paper's evaluation (§6, Fig. 3) is bounded by RAM: the VeriFS1 run
//! slows as the visited set and checkpoints outgrow the 64 GB VM and start
//! swapping. [`crate::memmodel`] *simulates* those dynamics; this module
//! *manages* them, so real exhaustive runs are bounded by state-space size
//! instead of host memory. A [`MemBudget`] caps the checker's hot RAM;
//! overflow spills to an append-only page file and is reloaded on demand.
//!
//! # Page file
//!
//! Pages reuse the pickle container discipline: each page is framed as
//!
//! ```text
//! magic    8 bytes  b"MCFSPKL\x01"   (same magic as snapshots)
//! version  u32      PAGE_VERSION
//! len      u32      body length
//! body     ...      kind-tagged payload (visited entries or frontier ops),
//!                   or a checkpoint pool's raw snapshot chunk
//! checksum u128     FNV-1a-128 over everything above
//! ```
//!
//! A run has one page file: the explorer opens it under
//! `ExploreConfig::mem_budget`, and the visited set, the swarm's frontier
//! queues and the system's checkpoint pool (`ModelSystem::attach_spill`)
//! all append to it.
//!
//! Visited bodies store `(fingerprint, depth)` entries sorted by
//! fingerprint and delta-compressed with LEB128 varints — consecutive
//! uniform 128-bit fingerprints within one shard share their high bits, so
//! deltas are short. Frontier bodies store op-prefixes via the caller's
//! [`OpCodec`], exactly like snapshot frontiers.
//!
//! The page file is an unnamed-in-spirit per-run temp file (removed on
//! drop); it is *not* a persistence format — resume still goes through the
//! pickle snapshot, which is written from the merged view of hot + pages.
//!
//! # Hot cache and probes
//!
//! The disk tier is a layer of `ShardedVisited`, not a second set: each
//! shard stays a `VisitedSet`, which classifies, counts, resizes, loads and
//! streams as it does in RAM, and keeps its spilled pages in a
//! `ShardPages`. When the aggregate hot bytes exceed the budget, the
//! `DiskTier` drains the least-recently-touched shard's hot map to one
//! page (clock-style shard LRU — eviction is per shard, so one page write
//! amortizes hundreds of entries). Every page keeps an in-RAM bloom filter
//! (~10 bits/entry, 4 probes), so a shard's hot miss reads at most the
//! pages whose filters claim the fingerprint — usually one, often zero.
//! Pages are probed newest-first: re-loaded entries are re-installed hot
//! with their minimum depth, so a newer page can only hold an equal or
//! shallower depth than an older one, and the first hit is the true
//! minimum.
//!
//! # Model validation, not substitution
//!
//! A private [`MemoryModel`] "predictor" is driven with the same entry
//! stores/accesses the real structure serves, using its entry-granular LRU.
//! Its predicted swap traffic is reported next to the *measured* spill
//! traffic in [`SpillStats`] — the bench asserts they agree, which is what
//! keeps the simulation honest now that the checker also manages real
//! memory.
//!
//! # Failure discipline
//!
//! A spill file that fails (EIO, torn write caught by the page checksum)
//! poisons the store: the first error is recorded, and from then on every
//! hot miss answers `Matched` (never `New` — no state is silently
//! re-counted, and the entries a failed page write dropped stay counted).
//! Explorers check `ShardedVisited::error` after every insert, and the
//! frontier fleet after every barrier and resume load, so the run stops
//! loudly with a replayable `Fatal` instead of silently dropping visited
//! states. [`SpillFaults`] injects those failures for tests.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::memmodel::{MemConfig, MemoryModel};
use crate::pickle::{fnv128, ByteReader, FrontierEntry, OpCodec, PickleError, MAGIC};
use crate::system::StateId;
use crate::visited::{VisitedSet, BYTES_PER_ENTRY};

/// Version of the spill-page framing (independent of the snapshot format).
pub const PAGE_VERSION: u32 = 1;

const PAGE_KIND_VISITED: u8 = 1;
const PAGE_KIND_FRONTIER: u8 = 2;

/// Bloom sizing: ~10 bits per entry, 4 probes ≈ 1% false-positive rate.
const BLOOM_BITS_PER_ENTRY: usize = 10;
const BLOOM_HASHES: u64 = 4;

/// Virtual-ns charged to the run's clock per MiB of real page traffic
/// (the memmodel's default `MemConfig::swap_ns_per_mib`).
const NS_PER_MIB: u64 = 100_000;

/// Never spill fewer than this many frontier entries per page (tiny pages
/// waste frame overhead and file syscalls).
const MIN_FRONTIER_BATCH: usize = 16;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// RAM budget for out-of-core exploration. Its one home is
/// `ExploreConfig::mem_budget` (a swarm's is on `SwarmConfig::base`).
#[derive(Debug, Clone)]
pub struct MemBudget {
    /// Hot-cache budget in bytes for the visited set. Entries beyond this
    /// spill to disk (at [`BYTES_PER_ENTRY`] modelled bytes per entry).
    pub ram_bytes: u64,
    /// Directory for spill files. `None` = the system temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Hot-cache budget in bytes for the frontier fleet's queue; colder
    /// op-prefix entries spill to pages.
    pub frontier_hot_bytes: u64,
    /// Fault injection for tests; default injects nothing.
    pub faults: SpillFaults,
}

impl MemBudget {
    /// A budget of `ram_bytes`, with a frontier allowance of a quarter of
    /// the visited budget.
    pub fn new(ram_bytes: u64) -> Self {
        MemBudget {
            ram_bytes,
            spill_dir: None,
            frontier_hot_bytes: (ram_bytes / 4).max(4096),
            faults: SpillFaults::default(),
        }
    }

    /// The directory spill files go to.
    pub fn dir(&self) -> PathBuf {
        self.spill_dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

/// Deterministic fault injection on the spill file (all counters are
/// 0-based page-operation ordinals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillFaults {
    /// Fail the Nth page write with an injected EIO.
    pub fail_write_at: Option<u64>,
    /// Fail the Nth page read with an injected EIO.
    pub fail_read_at: Option<u64>,
    /// Tear the Nth page write: only half the frame reaches the file but it
    /// is recorded as complete, so the eventual read fails its checksum.
    pub torn_write_at: Option<u64>,
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Counters for out-of-core behavior, surfaced through `ExploreStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Pages written to the spill file (visited, frontier and checkpoint
    /// pages).
    pub pages_written: u64,
    /// Pages read back from the spill file.
    pub pages_read: u64,
    /// Real framed bytes written to the spill file.
    pub file_bytes_written: u64,
    /// Real framed bytes read from the spill file.
    pub file_bytes_read: u64,
    /// Modelled visited-entry bytes demoted to disk (48 B per entry).
    pub spilled_bytes: u64,
    /// Modelled visited-entry bytes promoted back to the hot cache.
    pub reloaded_bytes: u64,
    /// Probes answered by a shard's hot map.
    pub hot_hits: u64,
    /// Probes answered by a spilled page.
    pub cold_hits: u64,
    /// Page reads avoided because a bloom filter ruled the page out.
    pub bloom_skips: u64,
    /// Shard hot-map evictions (each producing one page).
    pub evictions: u64,
    /// The memmodel predictor's swap traffic for the same workload —
    /// compare against [`SpillStats::measured_swap_bytes`].
    pub predicted_swap_bytes: u64,
}

impl SpillStats {
    /// Measured visited-entry swap traffic (demotions + promotions), the
    /// quantity [`SpillStats::predicted_swap_bytes`] is validated against.
    /// Frontier page traffic is excluded here (the model only covers the
    /// visited set) but visible in the `pages_*`/`file_bytes_*` counters.
    pub fn measured_swap_bytes(&self) -> u64 {
        self.spilled_bytes + self.reloaded_bytes
    }

    /// Relative error of the memmodel prediction vs measurement (0.0 when
    /// both are zero).
    pub fn model_error(&self) -> f64 {
        let measured = self.measured_swap_bytes();
        if measured == 0 {
            return if self.predicted_swap_bytes == 0 {
                0.0
            } else {
                1.0
            };
        }
        (self.predicted_swap_bytes as f64 - measured as f64).abs() / measured as f64
    }

    /// Field-wise sum, for merging per-worker stats.
    pub fn merge(&mut self, o: &SpillStats) {
        self.pages_written += o.pages_written;
        self.pages_read += o.pages_read;
        self.file_bytes_written += o.file_bytes_written;
        self.file_bytes_read += o.file_bytes_read;
        self.spilled_bytes += o.spilled_bytes;
        self.reloaded_bytes += o.reloaded_bytes;
        self.hot_hits += o.hot_hits;
        self.cold_hits += o.cold_hits;
        self.bloom_skips += o.bloom_skips;
        self.evictions += o.evictions;
        self.predicted_swap_bytes += o.predicted_swap_bytes;
    }
}

// ---------------------------------------------------------------------------
// Page store
// ---------------------------------------------------------------------------

/// Location of one framed page in the spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLoc {
    /// Byte offset of the frame start.
    pub offset: u64,
    /// Full frame length (magic + version + len + body + checksum).
    pub len: u32,
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Append-only page file shared by the visited set, the frontier queues
/// and the system's checkpoint pool.
/// All operations are `&self` (positioned I/O); the file is deleted on
/// drop. The first failure poisons the store — see the module docs.
#[derive(Debug)]
pub struct SpillStore {
    file: fs::File,
    path: PathBuf,
    end: AtomicU64,
    pending_ns: AtomicU64,
    error: Mutex<Option<String>>,
    faults: SpillFaults,
    writes: AtomicU64,
    reads: AtomicU64,
    pages_written: AtomicU64,
    pages_read: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl SpillStore {
    /// Opens a fresh spill file under the budget's directory.
    ///
    /// # Errors
    ///
    /// A human-readable message when the directory or file cannot be
    /// created.
    pub fn new(budget: &MemBudget) -> Result<Arc<SpillStore>, String> {
        let dir = budget.dir();
        fs::create_dir_all(&dir).map_err(|e| format!("spill dir {}: {e}", dir.display()))?;
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("mcfs-spill-{}-{seq}.pages", std::process::id()));
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| format!("spill file {}: {e}", path.display()))?;
        Ok(Arc::new(SpillStore {
            file,
            path,
            end: AtomicU64::new(0),
            pending_ns: AtomicU64::new(0),
            error: Mutex::new(None),
            faults: budget.faults,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
            pages_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }))
    }

    /// Records the first error and returns `msg` for propagation.
    pub(crate) fn poison(&self, msg: String) -> String {
        let mut e = self.error.lock();
        if e.is_none() {
            *e = Some(msg.clone());
        }
        msg
    }

    /// The first spill failure, if any. A poisoned store means visited
    /// answers can no longer be trusted — callers must stop the run.
    pub fn error(&self) -> Option<String> {
        self.error.lock().clone()
    }

    fn charge(&self, bytes: u64) {
        self.pending_ns
            .fetch_add(bytes * NS_PER_MIB / (1 << 20), Ordering::Relaxed);
    }

    /// Virtual-ns accumulated by real page traffic since the last take;
    /// explorers drain this onto the run's virtual clock.
    pub fn take_pending_ns(&self) -> u64 {
        self.pending_ns.swap(0, Ordering::Relaxed)
    }

    /// Frames `body` and appends it to the file.
    ///
    /// # Errors
    ///
    /// On real or injected I/O failure; the store is poisoned.
    pub fn write_page(&self, body: &[u8]) -> Result<PageLoc, String> {
        let mut frame = Vec::with_capacity(body.len() + 32);
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&PAGE_VERSION.to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body);
        let sum = fnv128(&frame);
        frame.extend_from_slice(&sum.to_le_bytes());

        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        if self.faults.fail_write_at == Some(n) {
            return Err(self.poison(format!("spill page write {n}: injected EIO")));
        }
        let offset = self.end.fetch_add(frame.len() as u64, Ordering::Relaxed);
        let torn = self.faults.torn_write_at == Some(n);
        let persisted = if torn {
            &frame[..frame.len() / 2]
        } else {
            &frame[..]
        };
        self.file
            .write_all_at(persisted, offset)
            .map_err(|e| self.poison(format!("spill page write at {offset}: {e}")))?;
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.charge(frame.len() as u64);
        Ok(PageLoc {
            offset,
            len: frame.len() as u32,
        })
    }

    /// Reads back a page body, verifying frame and checksum.
    ///
    /// # Errors
    ///
    /// On I/O failure or any integrity violation (torn write, bit rot);
    /// the store is poisoned.
    pub fn read_page(&self, loc: PageLoc) -> Result<Vec<u8>, String> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed);
        if self.faults.fail_read_at == Some(n) {
            return Err(self.poison(format!("spill page read {n}: injected EIO")));
        }
        let mut frame = vec![0u8; loc.len as usize];
        self.file
            .read_exact_at(&mut frame, loc.offset)
            .map_err(|e| self.poison(format!("spill page read at {}: {e}", loc.offset)))?;
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.charge(frame.len() as u64);

        if frame.len() < MAGIC.len() + 8 + 16 || frame[..MAGIC.len()] != MAGIC {
            return Err(self.poison(format!("spill page at {}: bad magic", loc.offset)));
        }
        let (payload, tail) = frame.split_at(frame.len() - 16);
        let stored = u128::from_le_bytes(tail.try_into().unwrap());
        if fnv128(payload) != stored {
            return Err(self.poison(format!(
                "spill page at {}: checksum mismatch (torn or corrupt write)",
                loc.offset
            )));
        }
        let version = u32::from_le_bytes(payload[8..12].try_into().unwrap());
        if version != PAGE_VERSION {
            return Err(self.poison(format!("spill page at {}: version {version}", loc.offset)));
        }
        let body_len = u32::from_le_bytes(payload[12..16].try_into().unwrap()) as usize;
        if body_len != payload.len() - 16 {
            return Err(self.poison(format!("spill page at {}: bad body length", loc.offset)));
        }
        Ok(payload[16..].to_vec())
    }

    /// Real pages written so far (visited + frontier).
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Real pages read so far.
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Real framed bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Real framed bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        fs::remove_file(&self.path).ok();
    }
}

// ---------------------------------------------------------------------------
// Varint + page codecs
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(r: &mut ByteReader<'_>) -> Result<u128, String> {
    let mut v = 0u128;
    let mut shift = 0u32;
    loop {
        let b = r.u8().map_err(|e| e.to_string())?;
        if shift >= 128 {
            return Err("varint overflow".into());
        }
        v |= ((b & 0x7f) as u128) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encodes sorted `(fingerprint, depth)` entries as a visited page body.
fn encode_visited_page(shard_idx: u32, entries: &[(u128, u32)]) -> Vec<u8> {
    debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    let mut out = Vec::with_capacity(entries.len() * 8 + 16);
    out.push(PAGE_KIND_VISITED);
    out.extend_from_slice(&shard_idx.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    let mut prev = 0u128;
    for &(h, d) in entries {
        put_varint(&mut out, h.wrapping_sub(prev));
        put_varint(&mut out, d as u128);
        prev = h;
    }
    out
}

/// Decodes a visited page body back to sorted entries.
fn decode_visited_page(body: &[u8]) -> Result<(u32, Vec<(u128, u32)>), String> {
    let es = |e: PickleError| e.to_string();
    let mut r = ByteReader::new(body);
    let kind = r.u8().map_err(es)?;
    if kind != PAGE_KIND_VISITED {
        return Err(format!("bad visited page kind {kind}"));
    }
    let shard_idx = r.u32().map_err(es)?;
    let count = r.u32().map_err(es)? as usize;
    if count > body.len() {
        return Err(format!("visited page count {count} exceeds body"));
    }
    let mut prev = 0u128;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let delta = get_varint(&mut r)?;
        let depth = get_varint(&mut r)?;
        if depth > u32::MAX as u128 {
            return Err("visited page depth overflow".into());
        }
        prev = prev.wrapping_add(delta);
        out.push((prev, depth as u32));
    }
    if r.remaining() != 0 {
        return Err(format!("visited page: {} trailing bytes", r.remaining()));
    }
    Ok((shard_idx, out))
}

// ---------------------------------------------------------------------------
// Bloom filters (in RAM, one per spilled page)
// ---------------------------------------------------------------------------

fn bloom_indices(words: usize, h: u128) -> impl Iterator<Item = (usize, u64)> {
    let bits = (words as u64) * 64;
    let h1 = h as u64;
    let h2 = ((h >> 64) as u64) | 1;
    (0..BLOOM_HASHES).map(move |i| {
        let bit = h1.wrapping_add(i.wrapping_mul(h2)) % bits;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    })
}

fn bloom_build(entries: &[(u128, u32)]) -> Box<[u64]> {
    let bits = (entries.len() * BLOOM_BITS_PER_ENTRY).div_ceil(64).max(1) * 64;
    let mut words = vec![0u64; bits / 64];
    for &(h, _) in entries {
        for (w, mask) in bloom_indices(words.len(), h) {
            words[w] |= mask;
        }
    }
    words.into_boxed_slice()
}

fn bloom_maybe(words: &[u64], h: u128) -> bool {
    bloom_indices(words.len(), h).all(|(w, mask)| words[w] & mask != 0)
}

// ---------------------------------------------------------------------------
// Disk tier of the visited set
// ---------------------------------------------------------------------------

/// Shard count of a budgeted visited set: finer shards make each eviction
/// (one shard's hot map, one page) smaller and lock contention lower.
pub(crate) const SPILL_SHARDS: usize = 64;

/// One spilled page of a visited shard, with its in-RAM bloom filter.
#[derive(Debug)]
struct PageRef {
    loc: PageLoc,
    bloom: Box<[u64]>,
}

/// How a hot miss resolved against a shard's spilled pages.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Miss {
    /// On no page: a new state, already counted as stored hot.
    New,
    /// On a page at this depth; the caller re-installs it hot.
    Reloaded(u32),
    /// The store failed: the answer is unknown, and never `New`.
    Poisoned,
}

/// The disk tier of a budgeted `ShardedVisited`: the page store, clock-LRU
/// shard eviction, RAM accounting, the out-of-core counters and the
/// memmodel predictor. Classification stays in each shard's `VisitedSet`,
/// which keeps its spilled pages in a [`ShardPages`]. See the module docs.
#[derive(Debug)]
pub(crate) struct DiskTier {
    store: Arc<SpillStore>,
    ram_bytes: u64,
    tick: AtomicU64,
    /// Per-shard last-touch tick for victim selection (racy reads are fine).
    touch: Vec<AtomicU64>,
    /// Per-shard hot entry count, cached so victim selection takes no locks.
    hot_len: Vec<AtomicUsize>,
    hot_bytes: AtomicU64,
    /// Bloom filters + page bookkeeping kept in RAM (reported in `bytes`).
    meta_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    spilled_bytes: AtomicU64,
    reloaded_bytes: AtomicU64,
    hot_hits: AtomicU64,
    cold_hits: AtomicU64,
    bloom_skips: AtomicU64,
    evictions: AtomicU64,
    /// The validated-against memory model: driven with the same entry
    /// traffic, evicting by its own entry-granular LRU.
    predictor: Mutex<MemoryModel>,
}

fn fold_id(h: u128) -> StateId {
    StateId((h ^ (h >> 64)) as u64)
}

impl DiskTier {
    /// A tier for `nshards` shards over a fresh spill file, budgeted by
    /// `budget`.
    ///
    /// # Errors
    ///
    /// When the spill file cannot be created.
    pub(crate) fn new(budget: &MemBudget, nshards: usize) -> Result<DiskTier, String> {
        let predictor = MemoryModel::new(MemConfig {
            ram_bytes: budget.ram_bytes,
            // Effectively unbounded swap: the predictor models traffic,
            // the real OOM guard is the spill file itself.
            swap_bytes: u64::MAX / 2,
            swap_ns_per_mib: NS_PER_MIB,
        });
        Ok(DiskTier {
            store: SpillStore::new(budget)?,
            ram_bytes: budget.ram_bytes,
            tick: AtomicU64::new(0),
            touch: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            hot_len: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            hot_bytes: AtomicU64::new(0),
            meta_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            reloaded_bytes: AtomicU64::new(0),
            hot_hits: AtomicU64::new(0),
            cold_hits: AtomicU64::new(0),
            bloom_skips: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            predictor: Mutex::new(predictor),
        })
    }

    /// The page store (frontier queues and checkpoint pools share it).
    pub(crate) fn store(&self) -> &Arc<SpillStore> {
        &self.store
    }

    /// Marks shard `idx` the most recently used.
    pub(crate) fn touch(&self, idx: usize) {
        self.touch[idx].store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Records shard `idx`'s hot entry count, read under its lock.
    pub(crate) fn set_hot_len(&self, idx: usize, n: usize) {
        self.hot_len[idx].store(n, Ordering::Relaxed);
    }

    fn bump_peak(&self) {
        self.peak_bytes.fetch_max(self.bytes(), Ordering::Relaxed);
    }

    /// One more entry held hot.
    fn hot_grew(&self) {
        self.hot_bytes.fetch_add(BYTES_PER_ENTRY, Ordering::Relaxed);
        self.bump_peak();
    }

    /// A new entry stored hot.
    fn stored(&self, h: u128) {
        self.hot_grew();
        let _ = self.predictor.lock().store(fold_id(h), BYTES_PER_ENTRY);
    }

    fn probe(&self, pages: &[PageRef], h: u128) -> Result<Option<u32>, String> {
        if let Some(e) = self.store.error() {
            return Err(e);
        }
        for page in pages.iter().rev() {
            if !bloom_maybe(&page.bloom, h) {
                self.bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let entries = self.read(page)?;
            if let Ok(i) = entries.binary_search_by_key(&h, |&(f, _)| f) {
                return Ok(Some(entries[i].1));
            }
        }
        Ok(None)
    }

    fn read(&self, page: &PageRef) -> Result<Vec<(u128, u32)>, String> {
        let body = self.store.read_page(page.loc)?;
        let (_, entries) = decode_visited_page(&body).map_err(|e| self.store.poison(e))?;
        Ok(entries)
    }

    fn pick_victim(&self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (i, len) in self.hot_len.iter().enumerate() {
            if len.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let t = self.touch[i].load(Ordering::Relaxed);
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Spills the hot maps of the least-recently-touched `shards` until the
    /// hot cache fits the budget.
    pub(crate) fn evict(&self, shards: &[Mutex<VisitedSet>]) {
        while self.hot_bytes.load(Ordering::Relaxed) > self.ram_bytes {
            let Some(victim) = self.pick_victim() else {
                return;
            };
            shards[victim].lock().spill_hot();
        }
    }

    /// RAM actually held: hot entries plus bloom/page metadata.
    pub(crate) fn bytes(&self) -> u64 {
        self.hot_bytes.load(Ordering::Relaxed) + self.meta_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`DiskTier::bytes`].
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Current out-of-core counters, including the predictor's traffic.
    pub(crate) fn stats(&self) -> SpillStats {
        SpillStats {
            pages_written: self.store.pages_written(),
            pages_read: self.store.pages_read(),
            file_bytes_written: self.store.bytes_written(),
            file_bytes_read: self.store.bytes_read(),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            reloaded_bytes: self.reloaded_bytes.load(Ordering::Relaxed),
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            cold_hits: self.cold_hits.load(Ordering::Relaxed),
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            predicted_swap_bytes: self.predictor.lock().swap_traffic_bytes(),
        }
    }
}

/// A visited shard's side of the disk tier: the pages its hot entries were
/// spilled to, and how many entries live only there.
#[derive(Debug)]
pub(crate) struct ShardPages {
    tier: Arc<DiskTier>,
    shard: usize,
    /// Spilled pages, oldest first; probed newest first.
    pages: Vec<PageRef>,
    /// Distinct entries spilled and not re-installed hot since.
    cold: usize,
}

impl ShardPages {
    /// Shard `shard`'s link to `tier`, with nothing spilled yet.
    pub(crate) fn new(tier: Arc<DiskTier>, shard: usize) -> Self {
        ShardPages {
            tier,
            shard,
            pages: Vec::new(),
            cold: 0,
        }
    }

    /// Counts an insert's probe answered by the shard's hot map.
    pub(crate) fn hot_hit(&self, h: u128) {
        self.tier.hot_hits.fetch_add(1, Ordering::Relaxed);
        let _ = self.tier.predictor.lock().access(fold_id(h));
    }

    /// Distinct entries held only on pages.
    pub(crate) fn cold(&self) -> usize {
        self.cold
    }

    /// The shallowest spilled depth of `h`, if a page holds it.
    ///
    /// # Errors
    ///
    /// Once the store is poisoned, or when a page cannot be read back.
    pub(crate) fn depth_of(&self, h: u128) -> Result<Option<u32>, String> {
        self.tier.probe(&self.pages, h)
    }

    /// Resolves a bulk-load's hot miss on `h`, counting an entry stored or
    /// re-installed hot.
    pub(crate) fn load_miss(&mut self, h: u128) -> Miss {
        match self.depth_of(h) {
            Err(_) => Miss::Poisoned,
            Ok(Some(d)) => {
                self.cold -= 1;
                self.tier.hot_grew();
                Miss::Reloaded(d)
            }
            Ok(None) => {
                self.tier.stored(h);
                Miss::New
            }
        }
    }

    /// Resolves an insert's hot miss on `h`: as [`ShardPages::load_miss`],
    /// and a page hit also counts as a cold hit and a reload.
    pub(crate) fn insert_miss(&mut self, h: u128) -> Miss {
        let miss = self.load_miss(h);
        if let Miss::Reloaded(_) = miss {
            let tier = &self.tier;
            tier.cold_hits.fetch_add(1, Ordering::Relaxed);
            tier.reloaded_bytes
                .fetch_add(BYTES_PER_ENTRY, Ordering::Relaxed);
            let _ = tier.predictor.lock().access(fold_id(h));
        }
        miss
    }

    /// Writes `entries` — the shard's whole hot map, drained and sorted by
    /// fingerprint — as one page. On a failed write the store is poisoned
    /// and the entries are dropped; they stay counted, and the run stops at
    /// its next error check.
    pub(crate) fn spill(&mut self, entries: &[(u128, u32)]) {
        let tier = &self.tier;
        tier.set_hot_len(self.shard, 0);
        if entries.is_empty() {
            return;
        }
        let n = entries.len() as u64;
        tier.hot_bytes
            .fetch_sub(n * BYTES_PER_ENTRY, Ordering::Relaxed);
        self.cold += entries.len();
        let body = encode_visited_page(self.shard as u32, entries);
        if let Ok(loc) = tier.store.write_page(&body) {
            let bloom = bloom_build(entries);
            tier.meta_bytes
                .fetch_add((bloom.len() * 8 + 48) as u64, Ordering::Relaxed);
            self.pages.push(PageRef { loc, bloom });
            tier.evictions.fetch_add(1, Ordering::Relaxed);
            tier.spilled_bytes
                .fetch_add(n * BYTES_PER_ENTRY, Ordering::Relaxed);
        }
        tier.bump_peak();
    }

    /// Every spilled entry not in `hot`, at its shallowest depth across
    /// pages (a hot entry is never deeper than its spilled copies).
    ///
    /// # Errors
    ///
    /// When a page cannot be read back (the store is poisoned).
    pub(crate) fn cold_entries(
        &self,
        hot: &HashMap<u128, u32>,
    ) -> Result<HashMap<u128, u32>, String> {
        let mut cold: HashMap<u128, u32> = HashMap::with_capacity(self.cold);
        for page in &self.pages {
            for (h, d) in self.tier.read(page)? {
                if !hot.contains_key(&h) {
                    cold.entry(h).and_modify(|v| *v = (*v).min(d)).or_insert(d);
                }
            }
        }
        Ok(cold)
    }
}

// ---------------------------------------------------------------------------
// Spilling frontier queue
// ---------------------------------------------------------------------------

/// Spill context for the frontier queue: the page store (shared with the
/// visited set) and the queue's hot budget.
#[derive(Debug)]
pub struct FrontierSpill {
    store: Arc<SpillStore>,
    hot_cap_bytes: u64,
}

impl FrontierSpill {
    /// Wraps `store` with the queue's hot budget.
    pub fn new(store: Arc<SpillStore>, hot_cap_bytes: u64) -> Self {
        FrontierSpill {
            store,
            hot_cap_bytes,
        }
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<SpillStore> {
        &self.store
    }
}

/// Per-call spill context: `None` runs the queue as a plain in-memory
/// deque (the non-persistent swarm path has no codec to page ops with).
pub type SpillCtx<'c, Op> = Option<(&'c FrontierSpill, &'c dyn OpCodec<Op>)>;

/// Rough resident bytes of one frontier entry (ops are enum-sized; this is
/// a model figure for budgeting, not an allocator measurement).
fn entry_bytes<Op>(e: &FrontierEntry<Op>) -> u64 {
    ((e.prefix.len() + e.sleep.len()) * 16 + 32) as u64
}

#[derive(Debug)]
struct FrontierPage {
    loc: PageLoc,
    count: u32,
}

/// The frontier fleet's FIFO queue, whose cold middle spills to pages.
/// Logical order is `head[..], pages[0] … pages[last], tail[..]`: pushes
/// land on the tail (and its oldest half spills to a new page when over
/// budget), and pops take from the head, which reloads the oldest page
/// once it drains and falls through to the tail when no page is left.
#[derive(Debug)]
pub struct FrontierQueue<Op> {
    /// Entries older than every page (a reloaded page being consumed).
    head: VecDeque<FrontierEntry<Op>>,
    /// Entries newer than every page (where pushes land).
    tail: VecDeque<FrontierEntry<Op>>,
    hot_bytes: u64,
    pages: VecDeque<FrontierPage>,
}

impl<Op> Default for FrontierQueue<Op> {
    fn default() -> Self {
        FrontierQueue {
            head: VecDeque::new(),
            tail: VecDeque::new(),
            hot_bytes: 0,
            pages: VecDeque::new(),
        }
    }
}

impl<Op> FrontierQueue<Op> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries across hot deques and spilled pages.
    pub fn len(&self) -> usize {
        self.head.len()
            + self.tail.len()
            + self.pages.iter().map(|p| p.count as usize).sum::<usize>()
    }

    /// Whether no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty() && self.pages.is_empty()
    }
}

impl<Op: Clone> FrontierQueue<Op> {
    fn load_page(
        &self,
        ctx: SpillCtx<'_, Op>,
        page: &FrontierPage,
    ) -> Result<Vec<FrontierEntry<Op>>, String> {
        let Some((spill, codec)) = ctx else {
            return Err("frontier pages present without spill context".into());
        };
        let body = spill.store.read_page(page.loc)?;
        let entries = decode_frontier_page(&body, codec).map_err(|e| spill.store.poison(e))?;
        if entries.len() != page.count as usize {
            return Err(spill.store.poison(format!(
                "frontier page count mismatch at {}",
                page.loc.offset
            )));
        }
        Ok(entries)
    }

    /// Appends an entry; spills the oldest half of the hot tail to one
    /// page when the hot budget is exceeded.
    ///
    /// # Errors
    ///
    /// On spill-file write failure (the store is poisoned).
    pub fn push_back(&mut self, e: FrontierEntry<Op>, ctx: SpillCtx<'_, Op>) -> Result<(), String> {
        self.hot_bytes += entry_bytes(&e);
        self.tail.push_back(e);
        if let Some((spill, codec)) = ctx {
            if self.hot_bytes > spill.hot_cap_bytes && self.tail.len() >= MIN_FRONTIER_BATCH {
                let n = self.tail.len() / 2;
                let batch: Vec<FrontierEntry<Op>> = self.tail.drain(..n).collect();
                for b in &batch {
                    self.hot_bytes -= entry_bytes(b);
                }
                let body = encode_frontier_page(&batch, codec);
                let loc = spill.store.write_page(&body)?;
                self.pages.push_back(FrontierPage {
                    loc,
                    count: batch.len() as u32,
                });
            }
        }
        Ok(())
    }

    /// Pops the oldest entry (FIFO order), reloading the oldest spilled
    /// page once the head drains.
    ///
    /// # Errors
    ///
    /// On spill-file read failure, or if pages exist but no spill context
    /// was supplied.
    pub fn pop_front(
        &mut self,
        ctx: SpillCtx<'_, Op>,
    ) -> Result<Option<FrontierEntry<Op>>, String> {
        if self.head.is_empty() {
            if let Some(page) = self.pages.front() {
                let entries = self.load_page(ctx, page)?;
                self.pages.pop_front();
                for e in entries {
                    self.hot_bytes += entry_bytes(&e);
                    self.head.push_back(e);
                }
            }
        }
        let popped = self.head.pop_front().or_else(|| self.tail.pop_front());
        Ok(popped.inspect(|e| {
            self.hot_bytes -= entry_bytes(e);
        }))
    }

    /// Bulk-appends entries to the hot end (no spill check — the next
    /// `push_back` rebalances).
    pub fn extend_back(&mut self, entries: Vec<FrontierEntry<Op>>) {
        for e in entries {
            self.hot_bytes += entry_bytes(&e);
            self.tail.push_back(e);
        }
    }

    /// Non-destructive snapshot of every pending entry in logical order
    /// (for pickle snapshots cut at a round barrier).
    ///
    /// # Errors
    ///
    /// As [`FrontierQueue::pop_front`].
    pub fn collect_all(&self, ctx: SpillCtx<'_, Op>) -> Result<Vec<FrontierEntry<Op>>, String> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.head.iter().cloned());
        for page in &self.pages {
            out.extend(self.load_page(ctx, page)?);
        }
        out.extend(self.tail.iter().cloned());
        Ok(out)
    }
}

fn encode_frontier_page<Op>(entries: &[FrontierEntry<Op>], codec: &dyn OpCodec<Op>) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 16 + 16);
    out.push(PAGE_KIND_FRONTIER);
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.prefix.len() as u32).to_le_bytes());
        for op in &e.prefix {
            codec.encode_op(op, &mut out);
        }
        out.extend_from_slice(&(e.sleep.len() as u32).to_le_bytes());
        for op in &e.sleep {
            codec.encode_op(op, &mut out);
        }
    }
    out
}

fn decode_frontier_page<Op>(
    body: &[u8],
    codec: &dyn OpCodec<Op>,
) -> Result<Vec<FrontierEntry<Op>>, String> {
    let es = |e: PickleError| e.to_string();
    let mut r = ByteReader::new(body);
    let kind = r.u8().map_err(es)?;
    if kind != PAGE_KIND_FRONTIER {
        return Err(format!("bad frontier page kind {kind}"));
    }
    let _reserved = r.u32().map_err(es)?;
    let count = r.u32().map_err(es)? as usize;
    if count > body.len() {
        return Err(format!("frontier page count {count} exceeds body"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let np = r.u32().map_err(es)? as usize;
        if np > r.remaining() {
            return Err("frontier prefix length exceeds body".into());
        }
        let mut prefix = Vec::with_capacity(np);
        for _ in 0..np {
            prefix.push(codec.decode_op(&mut r).map_err(es)?);
        }
        let ns = r.u32().map_err(es)? as usize;
        if ns > r.remaining() {
            return Err("frontier sleep length exceeds body".into());
        }
        let mut sleep = Vec::with_capacity(ns);
        for _ in 0..ns {
            sleep.push(codec.decode_op(&mut r).map_err(es)?);
        }
        out.push(FrontierEntry { prefix, sleep });
    }
    if r.remaining() != 0 {
        return Err(format!("frontier page: {} trailing bytes", r.remaining()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::{ShardedVisited, Visit};

    struct U32Codec;

    impl OpCodec<u32> for U32Codec {
        fn encode_op(&self, op: &u32, out: &mut Vec<u8>) {
            out.extend_from_slice(&op.to_le_bytes());
        }
        fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<u32, PickleError> {
            r.u32()
        }
    }

    fn tiny_budget(ram_entries: u64) -> MemBudget {
        MemBudget::new(ram_entries * BYTES_PER_ENTRY)
    }

    /// A 4-shard visited set with a disk tier under `budget`.
    fn spill_set(initial_capacity: usize, budget: &MemBudget) -> ShardedVisited {
        ShardedVisited::with_spill(initial_capacity, 4, budget).expect("spill file")
    }

    fn lcg(state: &mut u128) -> u128 {
        *state = state
            .wrapping_mul(0x2d99787926d46932a4c1f32680f70c55)
            .wrapping_add(1);
        *state
    }

    #[test]
    fn varint_round_trip() {
        let samples = [
            0u128,
            1,
            127,
            128,
            300,
            u64::MAX as u128,
            u128::MAX,
            1 << 100,
        ];
        let mut out = Vec::new();
        for &v in &samples {
            put_varint(&mut out, v);
        }
        let mut r = ByteReader::new(&out);
        for &v in &samples {
            assert_eq!(get_varint(&mut r).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn visited_page_round_trip() {
        let entries: Vec<(u128, u32)> = (0..200u128)
            .map(|i| (i * i * 7919 + (i << 90), i as u32 % 9))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable_by_key(|&(h, _)| h);
        let body = encode_visited_page(3, &sorted);
        let (idx, back) = decode_visited_page(&body).expect("decode");
        assert_eq!(idx, 3);
        assert_eq!(back, sorted);
        // Delta compression: far below the 20 bytes/entry of raw encoding.
        assert!(body.len() < sorted.len() * 20, "body {} bytes", body.len());
    }

    #[test]
    fn page_store_round_trip_and_cleanup() {
        let store = SpillStore::new(&MemBudget::new(1024)).expect("store");
        let path = store.path().to_path_buf();
        let a = store.write_page(b"hello spill").unwrap();
        let b = store.write_page(&[0u8; 5000]).unwrap();
        assert_eq!(store.read_page(a).unwrap(), b"hello spill");
        assert_eq!(store.read_page(b).unwrap(), vec![0u8; 5000]);
        assert_eq!(store.pages_written(), 2);
        assert_eq!(store.pages_read(), 2);
        assert!(store.take_pending_ns() > 0);
        assert!(path.exists());
        drop(store);
        assert!(!path.exists(), "spill file removed on drop");
    }

    #[test]
    fn page_store_detects_corruption() {
        let store = SpillStore::new(&MemBudget::new(1024)).expect("store");
        let loc = store.write_page(b"payload-payload-payload").unwrap();
        // Flip one byte in the middle of the frame on disk.
        let mut raw = fs::read(store.path()).unwrap();
        raw[loc.offset as usize + 12] ^= 0x20;
        fs::write(store.path(), &raw).unwrap();
        let err = store.read_page(loc).unwrap_err();
        assert!(err.contains("checksum") || err.contains("magic"), "{err}");
        assert!(store.error().is_some(), "store poisoned");
    }

    #[test]
    fn spilled_set_stays_within_hot_budget() {
        let budget = tiny_budget(32);
        let set = spill_set(64, &budget);
        let mut state = 7u128;
        for _ in 0..2000 {
            set.insert(lcg(&mut state));
        }
        assert!(
            set.hot_bytes() <= budget.ram_bytes,
            "hot cache within budget after eviction settles"
        );
        assert_eq!(set.len(), 2000);
    }

    #[test]
    fn injected_write_failure_poisons_loudly() {
        let mut b = tiny_budget(4);
        b.faults.fail_write_at = Some(0);
        let set = spill_set(16, &b);
        let mut state = 3u128;
        for _ in 0..64 {
            set.insert(lcg(&mut state));
        }
        let err = set.error().expect("write failure must poison");
        assert!(err.contains("injected EIO"), "{err}");
    }

    /// The entries a failed page write dropped are still visited: once the
    /// store is poisoned, re-inserting any state answers `Matched`, never
    /// `New`, and the distinct count stays put.
    #[test]
    fn poisoned_set_never_answers_new() {
        let mut b = tiny_budget(4);
        b.faults.fail_write_at = Some(0);
        let set = spill_set(16, &b);
        let mut state = 3u128;
        let keys: Vec<u128> = (0..64).map(|_| lcg(&mut state)).collect();
        for &h in &keys {
            set.insert(h);
        }
        assert!(set.error().is_some(), "write failure must poison");
        let len = set.len();
        for &h in &keys {
            assert_ne!(set.insert_at(h, 0).0, Visit::New, "re-insert of {h:x}");
        }
        assert_eq!(set.len(), len, "no state re-counted");
    }

    #[test]
    fn torn_write_fails_checksum_on_read() {
        let mut b = tiny_budget(4);
        b.faults.torn_write_at = Some(0);
        let set = spill_set(16, &b);
        let mut state = 5u128;
        let mut keys = Vec::new();
        for _ in 0..64 {
            let h = lcg(&mut state);
            keys.push(h);
            set.insert(h);
        }
        // Re-probe everything: the torn page must be detected, not treated
        // as "state never visited".
        for &h in &keys {
            set.insert(h);
        }
        let err = set.error().expect("torn page must poison on read");
        assert!(
            err.contains("checksum") || err.contains("read"),
            "loud integrity error, got: {err}"
        );
    }

    #[test]
    fn injected_read_failure_poisons_loudly() {
        let mut b = tiny_budget(4);
        b.faults.fail_read_at = Some(0);
        let set = spill_set(16, &b);
        let mut state = 11u128;
        let mut keys = Vec::new();
        for _ in 0..64 {
            let h = lcg(&mut state);
            keys.push(h);
            set.insert(h);
        }
        for &h in &keys {
            set.insert(h);
        }
        assert!(set.error().expect("poisoned").contains("injected EIO"));
    }

    #[test]
    fn load_entries_min_merges_into_spilled_state() {
        let set = spill_set(16, &tiny_budget(4));
        let mut state = 42u128;
        let keys: Vec<u128> = (0..100).map(|_| lcg(&mut state)).collect();
        for &h in &keys {
            set.insert_at(h, 9);
        }
        // Reload the same keys at shallower depth plus some fresh ones.
        let mut loaded: Vec<(u128, u32)> = keys.iter().map(|&h| (h, 2)).collect();
        loaded.push((0xabcdef, 7));
        set.load_entries(&loaded);
        assert_eq!(set.len(), 101);
        assert_eq!(set.depth_of(keys[0]), Some(2), "min depth wins");
        assert_eq!(set.depth_of(0xabcdef), Some(7));
        let mut exported = Vec::new();
        set.stream_entries(|h, d| exported.push((h, d))).unwrap();
        assert_eq!(exported.len(), 101);
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(exported
            .iter()
            .all(|&(h, d)| d == if h == 0xabcdef { 7 } else { 2 }));
    }

    // -- frontier ----------------------------------------------------------

    fn fe(tag: u32, n: usize) -> FrontierEntry<u32> {
        FrontierEntry {
            prefix: (0..n as u32).map(|i| tag * 1000 + i).collect(),
            sleep: vec![tag],
        }
    }

    #[test]
    fn frontier_page_round_trip() {
        let entries: Vec<FrontierEntry<u32>> = (0..20).map(|i| fe(i, (i as usize) % 5)).collect();
        let body = encode_frontier_page(&entries, &U32Codec);
        let back = decode_frontier_page(&body, &U32Codec).expect("decode");
        assert_eq!(back, entries);
    }

    #[test]
    fn frontier_queue_matches_plain_deque() {
        let store = SpillStore::new(&MemBudget::new(1024)).expect("store");
        // Tiny hot budget: force spilling after ~16 entries.
        let spill = FrontierSpill::new(store, 16 * 40);
        let ctx: SpillCtx<'_, u32> = Some((&spill, &U32Codec));
        let mut q = FrontierQueue::new();
        let mut reference: VecDeque<FrontierEntry<u32>> = VecDeque::new();
        let mut state = 17u128;
        let mut popped_from_pages = false;
        for i in 0..400u32 {
            if lcg(&mut state) % 10 < 7 {
                let e = fe(i, 3);
                reference.push_back(e.clone());
                q.push_back(e, ctx).unwrap();
            } else {
                popped_from_pages |= q.head.is_empty() && !q.pages.is_empty();
                assert_eq!(q.pop_front(ctx).unwrap(), reference.pop_front(), "i={i}");
            }
            assert_eq!(q.len(), reference.len());
        }
        // Drain fully from the front.
        while let Some(want) = reference.pop_front() {
            popped_from_pages |= q.head.is_empty() && !q.pages.is_empty();
            assert_eq!(q.pop_front(ctx).unwrap(), Some(want));
        }
        assert!(popped_from_pages, "a pop reloaded a spilled page");
        assert!(q.is_empty());
        assert!(spill.store().pages_written() > 0, "spilling happened");
        assert!(spill.store().error().is_none());
    }

    #[test]
    fn frontier_collect_all_is_nondestructive_and_ordered() {
        let store = SpillStore::new(&MemBudget::new(1024)).expect("store");
        let spill = FrontierSpill::new(store, 16 * 40);
        let ctx: SpillCtx<'_, u32> = Some((&spill, &U32Codec));
        let mut q = FrontierQueue::new();
        for i in 0..60u32 {
            q.push_back(fe(i, 2), ctx).unwrap();
        }
        // Popping reloads the oldest page into the head, which leads.
        for k in 0..5u32 {
            assert_eq!(q.pop_front(ctx).unwrap().unwrap().sleep, vec![k]);
        }
        assert!(!q.head.is_empty());
        let all = q.collect_all(ctx).unwrap();
        assert_eq!(all.len(), 55);
        for (k, e) in all.iter().enumerate() {
            assert_eq!(e.sleep, vec![k as u32 + 5]);
        }
        assert_eq!(q.len(), 55, "collect_all must not consume");
        let again = q.collect_all(ctx).unwrap();
        assert_eq!(again, all);
    }

    #[test]
    fn frontier_without_ctx_is_a_plain_deque() {
        let mut q: FrontierQueue<u32> = FrontierQueue::new();
        for i in 0..1000u32 {
            q.push_back(fe(i, 2), None).unwrap();
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.pop_front(None).unwrap().unwrap().sleep, vec![0]);
        assert_eq!(q.collect_all(None).unwrap()[998].sleep, vec![999]);
    }
}

//! Budgeted checkpoint pool shared by every state-tracking strategy.
//!
//! Explorers store one checkpoint per discovered state, so a long run's
//! checkpoint store grows without bound — the host-memory pressure behind
//! the paper's swap-bound configurations. [`CheckpointPool`] bounds it: each
//! stored snapshot is charged against an optional byte budget, and when the
//! budget is exceeded the least-recently-used *unpinned* snapshot is
//! evicted. Explorers pin the checkpoints they are guaranteed to re-enter
//! (DFS pins its backtrack spine, the walk its root); everything else is a
//! cache that may be dropped and reported — restoring an evicted key fails
//! with `ESTALE`, which the harness surfaces as a budget-driven stop rather
//! than a fatal error.
//!
//! Byte accounting distinguishes *logical* size (what the modelled memory
//! model charges — a full state copy, as SPIN would hold) from *shared*
//! bytes (chunks a copy-on-write snapshot still shares with the live state
//! or with other snapshots, costing no host memory).
//!
//! With a spill tier attached ([`CheckpointPool::enable_spill`]), budget
//! pressure *demotes* demotable snapshots to disk instead of dropping them:
//! the snapshot is decomposed into content chunks
//! ([`SnapshotBytes::demote_chunks`]), each chunk is deduplicated by content
//! hash against everything already spilled, and only chunks the disk tier
//! has not seen are written. Because copy-on-write snapshots of nearby
//! states share most chunks, this is delta compression for free: demoting a
//! snapshot that differs from an already-spilled neighbour by one chunk
//! writes one page. [`CheckpointPool::get`] transparently promotes a demoted
//! snapshot back into RAM; only disk failure (or a non-demotable snapshot
//! under pressure) still surfaces as an eviction.
//!
//! Every checked target keeps its snapshots in a `SavedStates`, which pairs
//! the pool with the fingerprint-cache snapshot taken alongside each state
//! and owns the save / load / drop contract the harness relies on.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mdigest::Digest128;
use modelcheck::{fnv128, CheckpointStoreStats, PageLoc, SpillStore};
use vfs::{Errno, FileSystem, VfsResult};

use crate::abstraction::{AbstractionConfig, FingerprintStore};

/// Byte accounting a stored snapshot reports to the pool.
pub trait SnapshotBytes {
    /// Logical size in bytes: what a full copy of the state would occupy.
    fn total_bytes(&self) -> usize;

    /// Bytes structurally shared with the live state or other snapshots
    /// (copy-on-write chunks with more than one owner). Zero for snapshots
    /// without sharing, or whose sharing the pool cannot observe.
    fn shared_bytes(&self) -> usize {
        0
    }

    /// Decomposes the snapshot into rebuild metadata plus ordered content
    /// chunks so the pool can demote it to disk under budget pressure.
    /// `None` (the default) marks the snapshot non-demotable: it is evicted
    /// instead of spilled. Implementations must round-trip through
    /// [`promote_chunks`](SnapshotBytes::promote_chunks).
    fn demote_chunks(&self) -> Option<(Vec<u64>, Vec<Vec<u8>>)> {
        None
    }

    /// Rebuilds a snapshot from [`demote_chunks`](SnapshotBytes::demote_chunks)
    /// output reloaded from disk. `None` on malformed input.
    fn promote_chunks(_meta: &[u64], _chunks: Vec<Vec<u8>>) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

impl SnapshotBytes for blockdev::DeviceSnapshot {
    fn total_bytes(&self) -> usize {
        self.size_bytes()
    }

    fn shared_bytes(&self) -> usize {
        self.shared_bytes()
    }

    fn demote_chunks(&self) -> Option<(Vec<u64>, Vec<Vec<u8>>)> {
        let meta = vec![self.block_size() as u64, self.chunk_size() as u64];
        Some((meta, self.chunks().map(<[u8]>::to_vec).collect()))
    }

    fn promote_chunks(meta: &[u64], chunks: Vec<Vec<u8>>) -> Option<Self> {
        let &[block_size, chunk_size] = meta else {
            return None;
        };
        blockdev::DeviceSnapshot::from_chunks(block_size as usize, chunk_size as usize, chunks)
    }
}

/// A pooled full file-system image (`ImageTarget` clones the whole
/// instance).
#[derive(Debug, Clone)]
pub struct FsImage<F> {
    /// The cloned instance.
    pub fs: F,
    /// Logical size charged against the budget.
    pub bytes: usize,
}

impl<F> SnapshotBytes for FsImage<F> {
    fn total_bytes(&self) -> usize {
        self.bytes
    }
}

/// A snapshot whose storage lives elsewhere — e.g. inside VeriFS's own
/// snapshot pool, reachable only by key. The pool tracks its size and
/// applies the eviction policy; the owner drops the real storage when
/// [`CheckpointPool::insert`] reports the key evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalSnap {
    /// Logical size charged against the budget.
    pub bytes: usize,
}

impl SnapshotBytes for ExternalSnap {
    fn total_bytes(&self) -> usize {
        self.bytes
    }
}

#[derive(Debug)]
struct Entry<S> {
    snap: S,
    pinned: bool,
    last_use: u64,
}

/// A spilled chunk's on-disk location and its reference count across
/// demoted snapshots (content-hash dedup: many snapshots, one page).
#[derive(Debug)]
struct ChunkRef {
    loc: PageLoc,
    len: u32,
    rc: u32,
}

/// A demoted snapshot: everything needed to rebuild it from the chunk map.
#[derive(Debug)]
struct Demoted {
    meta: Vec<u64>,
    hashes: Vec<u128>,
    total_bytes: usize,
    pinned: bool,
}

/// The disk tier demoted snapshots live in.
#[derive(Debug)]
struct SpillTier {
    store: Arc<SpillStore>,
    /// Content hash → spilled page (shared by every demoted snapshot that
    /// contains the chunk).
    chunks: HashMap<u128, ChunkRef>,
    demoted: HashMap<u64, Demoted>,
    /// Unique bytes currently held on disk (sum of live chunk lengths).
    spilled_bytes: u64,
    demotions: u64,
    promotions: u64,
}

impl SpillTier {
    fn bump(&mut self, h: u128) -> bool {
        if let Some(r) = self.chunks.get_mut(&h) {
            r.rc += 1;
            true
        } else {
            false
        }
    }

    fn release(&mut self, h: u128) {
        if let Some(r) = self.chunks.get_mut(&h) {
            r.rc -= 1;
            if r.rc == 0 {
                self.spilled_bytes -= u64::from(r.len);
                self.chunks.remove(&h);
            }
        }
    }
}

/// LRU-evicting, pin-aware snapshot store with an optional byte budget and
/// an optional disk spill tier (see the module docs).
#[derive(Debug)]
pub struct CheckpointPool<S> {
    entries: HashMap<u64, Entry<S>>,
    budget: Option<usize>,
    /// Logical-byte running total of resident entries.
    total_bytes: usize,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    /// Keys dropped by the budget (distinguishes `ESTALE` from `ENOENT`).
    evicted: HashSet<u64>,
    evictions: u64,
    inserts: u64,
    spill: Option<SpillTier>,
}

impl<S: SnapshotBytes> Default for CheckpointPool<S> {
    fn default() -> Self {
        CheckpointPool::new(None)
    }
}

impl<S: SnapshotBytes> CheckpointPool<S> {
    /// Creates a pool; `budget: None` never evicts.
    pub fn new(budget: Option<usize>) -> Self {
        CheckpointPool {
            entries: HashMap::new(),
            budget,
            total_bytes: 0,
            tick: 0,
            evicted: HashSet::new(),
            evictions: 0,
            inserts: 0,
            spill: None,
        }
    }

    /// Attaches a disk spill tier: from now on, budget pressure demotes
    /// demotable snapshots to `store` instead of evicting them. The store
    /// is the run's one spill file, which the explorer opens and the
    /// visited set spills to too, so one file carries all out-of-core
    /// traffic and one counter set describes it.
    pub fn enable_spill(&mut self, store: Arc<SpillStore>) {
        self.spill = Some(SpillTier {
            store,
            chunks: HashMap::new(),
            demoted: HashMap::new(),
            spilled_bytes: 0,
            demotions: 0,
            promotions: 0,
        });
    }

    /// The current budget.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Changes the budget. Tightening it does not evict immediately; the
    /// next insert enforces the new bound.
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// Number of snapshots the pool can still produce (resident plus
    /// demoted-to-disk).
    pub fn len(&self) -> usize {
        self.entries.len() + self.spill.as_ref().map_or(0, |t| t.demoted.len())
    }

    /// Whether the pool holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical bytes of all resident snapshots.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Stores `snap` under `key` (replacing any previous snapshot there),
    /// then evicts LRU unpinned snapshots until the budget holds again.
    /// Returns the evicted keys so the owner can drop external storage and
    /// fingerprint snapshots for them. The just-inserted key is never
    /// evicted, and neither is any pinned key — the budget is allowed to
    /// overshoot when everything resident is pinned.
    pub fn insert(&mut self, key: u64, snap: S) -> Vec<u64> {
        self.tick += 1;
        self.inserts += 1;
        self.evicted.remove(&key);
        // A replacement supersedes any demoted copy of the key on disk.
        self.drop_demoted(key);
        self.total_bytes += snap.total_bytes();
        // A re-insert under an existing key must keep its pin: a DFS spine
        // checkpoint re-saved under the same id would otherwise silently
        // become evictable.
        let pinned = self.entries.get(&key).is_some_and(|e| e.pinned);
        if let Some(old) = self.entries.insert(
            key,
            Entry {
                snap,
                pinned,
                last_use: self.tick,
            },
        ) {
            self.total_bytes -= old.snap.total_bytes();
        }
        let mut dropped = Vec::new();
        while let Some(budget) = self.budget {
            if self.total_bytes <= budget {
                break;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(k, e)| **k != key && !e.pinned)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if self.try_demote(victim) {
                continue;
            }
            let entry = self.entries.remove(&victim).expect("victim is resident");
            self.total_bytes -= entry.snap.total_bytes();
            self.evicted.insert(victim);
            self.evictions += 1;
            dropped.push(victim);
        }
        dropped
    }

    /// Fetches the snapshot under `key`, marking it most recently used. A
    /// demoted snapshot is transparently promoted back into RAM first (other
    /// snapshots may be demoted — never dropped — to make room). `None` means
    /// the key is absent, was evicted, or its promotion failed on disk error
    /// (the latter is recorded as an eviction so restore surfaces `ESTALE`).
    pub fn get(&mut self, key: u64) -> Option<&S> {
        if !self.entries.contains_key(&key) && self.is_demoted(key) && !self.promote(key) {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|e| {
            e.last_use = tick;
            &e.snap
        })
    }

    /// Whether the pool can still produce `key` (resident or demoted).
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key) || self.is_demoted(key)
    }

    /// Removes and returns the snapshot under `key` (promoting it first if
    /// demoted).
    pub fn remove(&mut self, key: u64) -> Option<S> {
        if !self.entries.contains_key(&key) && self.is_demoted(key) && !self.promote(key) {
            return None;
        }
        let entry = self.entries.remove(&key)?;
        self.total_bytes -= entry.snap.total_bytes();
        Some(entry.snap)
    }

    fn is_demoted(&self, key: u64) -> bool {
        self.spill
            .as_ref()
            .is_some_and(|t| t.demoted.contains_key(&key))
    }

    /// Discards `key`'s demoted record, releasing its disk chunks.
    fn drop_demoted(&mut self, key: u64) {
        let Some(tier) = self.spill.as_mut() else {
            return;
        };
        let Some(rec) = tier.demoted.remove(&key) else {
            return;
        };
        for &h in &rec.hashes {
            tier.release(h);
        }
    }

    /// Demotes resident `key` to the spill tier. Content-hashed chunks the
    /// tier already holds are reference-bumped instead of rewritten, so a
    /// snapshot differing from a spilled neighbour by one COW chunk costs one
    /// page write. Returns `false` — letting the caller hard-evict — when no
    /// tier is attached, the snapshot is not demotable, or a chunk write
    /// fails (the store records the error for reports).
    fn try_demote(&mut self, key: u64) -> bool {
        if self.spill.is_none() {
            return false;
        }
        let Some((meta, cow_chunks)) = self.entries.get(&key).and_then(|e| e.snap.demote_chunks())
        else {
            return false;
        };
        let tier = self.spill.as_mut().expect("checked above");
        let mut hashes = Vec::with_capacity(cow_chunks.len());
        for c in &cow_chunks {
            let h = fnv128(c);
            if !tier.bump(h) {
                match tier.store.write_page(c) {
                    Ok(loc) => {
                        tier.spilled_bytes += c.len() as u64;
                        tier.chunks.insert(
                            h,
                            ChunkRef {
                                loc,
                                len: c.len() as u32,
                                rc: 1,
                            },
                        );
                    }
                    Err(_) => {
                        for &done in &hashes {
                            tier.release(done);
                        }
                        return false;
                    }
                }
            }
            hashes.push(h);
        }
        let entry = self.entries.remove(&key).expect("victim is resident");
        self.total_bytes -= entry.snap.total_bytes();
        let tier = self.spill.as_mut().expect("checked above");
        tier.demoted.insert(
            key,
            Demoted {
                meta,
                hashes,
                total_bytes: entry.snap.total_bytes(),
                pinned: entry.pinned,
            },
        );
        tier.demotions += 1;
        true
    }

    /// Rebuilds demoted `key` in RAM, releasing its disk chunks and
    /// re-enforcing the budget by demoting (never dropping) other residents.
    /// On disk failure the snapshot is lost: the key is recorded as evicted
    /// so the failure surfaces as `ESTALE`, not a silent `ENOENT`.
    fn promote(&mut self, key: u64) -> bool {
        let Some(tier) = self.spill.as_mut() else {
            return false;
        };
        let Some(rec) = tier.demoted.remove(&key) else {
            return false;
        };
        let mut chunks = Vec::with_capacity(rec.hashes.len());
        let mut failed = false;
        for &h in &rec.hashes {
            let loc = tier.chunks.get(&h).expect("demoted chunk is mapped").loc;
            match tier.store.read_page(loc) {
                Ok(b) => chunks.push(b),
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        let snap = if failed {
            None
        } else {
            S::promote_chunks(&rec.meta, chunks)
        };
        let Some(snap) = snap else {
            for &h in &rec.hashes {
                tier.release(h);
            }
            self.evicted.insert(key);
            self.evictions += 1;
            return false;
        };
        for &h in &rec.hashes {
            tier.release(h);
        }
        tier.promotions += 1;
        self.tick += 1;
        self.total_bytes += rec.total_bytes;
        self.entries.insert(
            key,
            Entry {
                snap,
                pinned: rec.pinned,
                last_use: self.tick,
            },
        );
        // Promotion may overshoot the budget; push others to disk to make
        // room, but never hard-evict on a read path — a failed demotion
        // here just leaves the pool over budget until the next insert.
        while let Some(budget) = self.budget {
            if self.total_bytes <= budget {
                break;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(k, e)| **k != key && !e.pinned)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if !self.try_demote(victim) {
                break;
            }
        }
        true
    }

    /// Whether the budget evicted `key` (and no snapshot replaced it since).
    pub fn was_evicted(&self, key: u64) -> bool {
        self.evicted.contains(&key)
    }

    /// Forgets an eviction record — an explicit drop of an evicted key is a
    /// successful no-op, not an error. Returns whether `key` was recorded.
    pub fn forget_evicted(&mut self, key: u64) -> bool {
        self.evicted.remove(&key)
    }

    /// Pins `key` against eviction (no-op for unknown keys). Pinning a
    /// demoted key marks its record so the pin is restored at promotion.
    pub fn pin(&mut self, key: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.pinned = true;
        } else if let Some(d) = self.spill.as_mut().and_then(|t| t.demoted.get_mut(&key)) {
            d.pinned = true;
        }
    }

    /// Releases the pin on `key`.
    pub fn unpin(&mut self, key: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.pinned = false;
        } else if let Some(d) = self.spill.as_mut().and_then(|t| t.demoted.get_mut(&key)) {
            d.pinned = false;
        }
    }

    /// Aggregate statistics for reports. `total_bytes`/`shared_bytes`/
    /// `resident_bytes` describe the RAM-resident entries only; demoted
    /// snapshots contribute to `snapshots`, `pinned`, and `spilled_bytes`.
    pub fn stats(&self) -> CheckpointStoreStats {
        let shared: usize = self.entries.values().map(|e| e.snap.shared_bytes()).sum();
        let (demoted, demoted_pinned, demotions, promotions, spilled_bytes) = match &self.spill {
            Some(t) => (
                t.demoted.len(),
                t.demoted.values().filter(|d| d.pinned).count(),
                t.demotions,
                t.promotions,
                t.spilled_bytes,
            ),
            None => (0, 0, 0, 0, 0),
        };
        CheckpointStoreStats {
            snapshots: self.entries.len() + demoted,
            pinned: self.entries.values().filter(|e| e.pinned).count() + demoted_pinned,
            total_bytes: self.total_bytes,
            shared_bytes: shared,
            resident_bytes: self.total_bytes.saturating_sub(shared),
            evictions: self.evictions,
            inserts: self.inserts,
            demotions,
            promotions,
            spilled_bytes,
        }
    }
}

/// A target's saved states: the budgeted snapshot pool plus the
/// fingerprint-cache snapshot saved with each state, behind the one
/// checkpoint contract every [`CheckedTarget`](crate::CheckedTarget) keeps:
///
/// * **save** stores the snapshot with the live fingerprint cache and drops
///   the fingerprints of any key the budget evicts;
/// * **load** fails `ESTALE` for an evicted key and `ENOENT` for an unknown
///   one, and adopts the saved fingerprints only once the restore itself
///   succeeded;
/// * **remove** drops the snapshot and its fingerprints; removing an
///   evicted key succeeds, removing an unknown one fails `ENOENT`.
#[derive(Debug)]
pub(crate) struct SavedStates<S> {
    pool: CheckpointPool<S>,
    fingerprints: FingerprintStore,
}

impl<S: SnapshotBytes> SavedStates<S> {
    /// An unbudgeted store; `incremental: false` disables the fingerprint
    /// cache, so every hash is a full recompute.
    pub fn new(incremental: bool) -> Self {
        SavedStates {
            pool: CheckpointPool::new(None),
            fingerprints: FingerprintStore::new(incremental),
        }
    }

    /// Saves `snap` under `key` (replacing any state there) with the live
    /// fingerprint cache. Returns the keys the budget evicted, so an owner
    /// keeping the real storage elsewhere can release it.
    pub fn save(&mut self, key: u64, snap: S) -> Vec<u64> {
        let victims = self.pool.insert(key, snap);
        for &victim in &victims {
            self.fingerprints.drop_key(victim);
        }
        self.fingerprints.save(key);
        victims
    }

    /// Restores the state under `key` through `restore`, then adopts the
    /// fingerprints saved with it.
    ///
    /// # Errors
    ///
    /// `ESTALE` if the budget evicted `key`, `ENOENT` for an unknown key,
    /// and whatever `restore` returns.
    pub fn load(&mut self, key: u64, restore: impl FnOnce(&S) -> VfsResult<()>) -> VfsResult<()> {
        let Some(snap) = self.pool.get(key) else {
            return Err(if self.pool.was_evicted(key) {
                Errno::ESTALE
            } else {
                Errno::ENOENT
            });
        };
        restore(snap)?;
        self.fingerprints.load(key);
        Ok(())
    }

    /// Removes the state under `key` with its fingerprints, returning the
    /// snapshot — `None` when the budget had already evicted it.
    ///
    /// # Errors
    ///
    /// `ENOENT` for an unknown key.
    pub fn remove(&mut self, key: u64) -> VfsResult<Option<S>> {
        if let Some(snap) = self.pool.remove(key) {
            self.fingerprints.drop_key(key);
            Ok(Some(snap))
        } else if self.pool.forget_evicted(key) {
            Ok(None)
        } else {
            Err(Errno::ENOENT)
        }
    }

    /// See [`CheckpointPool::set_budget`].
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.pool.set_budget(budget);
    }

    /// See [`CheckpointPool::enable_spill`].
    pub fn enable_spill(&mut self, store: Arc<SpillStore>) {
        self.pool.enable_spill(store);
    }

    /// See [`CheckpointPool::pin`].
    pub fn pin(&mut self, key: u64) {
        self.pool.pin(key);
    }

    /// See [`CheckpointPool::unpin`].
    pub fn unpin(&mut self, key: u64) {
        self.pool.unpin(key);
    }

    /// See [`CheckpointPool::stats`].
    pub fn stats(&self) -> CheckpointStoreStats {
        self.pool.stats()
    }

    /// See [`FingerprintStore::invalidate`].
    pub fn invalidate(&mut self, fs: &mut dyn FileSystem, touched: &[&str]) {
        self.fingerprints.invalidate(fs, touched);
    }

    /// See [`FingerprintStore::hash`].
    pub fn hash(
        &mut self,
        fs: &mut dyn FileSystem,
        cfg: &AbstractionConfig,
    ) -> VfsResult<Digest128> {
        self.fingerprints.hash(fs, cfg)
    }

    /// See [`FingerprintStore::clear_live`].
    pub fn clear_live(&mut self) {
        self.fingerprints.clear_live();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(bytes: usize) -> ExternalSnap {
        ExternalSnap { bytes }
    }

    #[test]
    fn unbudgeted_pool_never_evicts() {
        let mut pool = CheckpointPool::new(None);
        for k in 0..100 {
            assert!(pool.insert(k, snap(1 << 20)).is_empty());
        }
        assert_eq!(pool.len(), 100);
        assert_eq!(pool.total_bytes(), 100 << 20);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let mut pool = CheckpointPool::new(Some(300));
        assert!(pool.insert(1, snap(100)).is_empty());
        assert!(pool.insert(2, snap(100)).is_empty());
        assert!(pool.insert(3, snap(100)).is_empty());
        // Touch 1 so 2 becomes the LRU entry.
        assert!(pool.get(1).is_some());
        assert_eq!(pool.insert(4, snap(100)), vec![2]);
        assert!(pool.contains(1));
        assert!(!pool.contains(2));
        assert!(pool.was_evicted(2));
        assert!(!pool.was_evicted(1));
    }

    #[test]
    fn pinned_snapshots_survive_pressure() {
        let mut pool = CheckpointPool::new(Some(250));
        pool.insert(1, snap(100));
        pool.insert(2, snap(100));
        pool.pin(1);
        pool.pin(2);
        // Over budget, but both residents are pinned: overshoot allowed.
        assert!(pool.insert(3, snap(100)).is_empty());
        assert_eq!(pool.len(), 3);
        pool.unpin(1);
        assert_eq!(pool.insert(4, snap(100)), vec![1, 3]);
        assert!(pool.contains(2), "still pinned");
    }

    #[test]
    fn reinsert_clears_the_eviction_record() {
        let mut pool = CheckpointPool::new(Some(100));
        pool.insert(1, snap(80));
        pool.insert(2, snap(80)); // evicts 1
        assert!(pool.was_evicted(1));
        pool.insert(1, snap(10));
        assert!(!pool.was_evicted(1));
        assert!(pool.contains(1));
    }

    #[test]
    fn replacement_under_a_key_updates_accounting() {
        let mut pool = CheckpointPool::new(None);
        pool.insert(7, snap(100));
        pool.insert(7, snap(40));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total_bytes(), 40);
        assert_eq!(pool.remove(7).unwrap().bytes, 40);
        assert_eq!(pool.total_bytes(), 0);
    }

    #[test]
    fn reinsert_preserves_the_pin() {
        let mut pool = CheckpointPool::new(Some(250));
        pool.insert(1, snap(100));
        pool.pin(1);
        // Re-save the spine checkpoint under the same key.
        pool.insert(1, snap(100));
        assert_eq!(pool.stats().pinned, 1, "pin must survive replacement");
        pool.insert(2, snap(100));
        // Budget pressure: only the unpinned key 2 may go.
        assert_eq!(pool.insert(3, snap(100)), vec![2]);
        assert!(pool.contains(1), "pinned spine checkpoint evicted");
    }

    use modelcheck::MemBudget;

    /// A demotable snapshot chunked at 4 bytes, for spill-tier tests.
    #[derive(Debug, Clone, PartialEq)]
    struct ChunkySnap {
        data: Vec<u8>,
    }

    impl ChunkySnap {
        fn new(data: &[u8]) -> Self {
            ChunkySnap {
                data: data.to_vec(),
            }
        }
    }

    impl SnapshotBytes for ChunkySnap {
        fn total_bytes(&self) -> usize {
            self.data.len()
        }

        fn demote_chunks(&self) -> Option<(Vec<u64>, Vec<Vec<u8>>)> {
            Some((vec![4], self.data.chunks(4).map(<[u8]>::to_vec).collect()))
        }

        fn promote_chunks(meta: &[u64], chunks: Vec<Vec<u8>>) -> Option<Self> {
            if meta != [4] {
                return None;
            }
            Some(ChunkySnap {
                data: chunks.concat(),
            })
        }
    }

    fn spilling_pool(budget: usize, faults: modelcheck::SpillFaults) -> CheckpointPool<ChunkySnap> {
        let mut mb = MemBudget::new(1024);
        mb.faults = faults;
        let store = modelcheck::SpillStore::new(&mb).expect("spill store");
        let mut pool = CheckpointPool::new(Some(budget));
        pool.enable_spill(store);
        pool
    }

    #[test]
    fn budget_pressure_demotes_instead_of_evicting() {
        let mut pool = spilling_pool(8, Default::default());
        pool.insert(1, ChunkySnap::new(b"aaaabbbb"));
        assert!(pool.insert(2, ChunkySnap::new(b"ccccdddd")).is_empty());
        assert!(pool.contains(1), "demoted key still producible");
        assert!(!pool.was_evicted(1));
        assert_eq!(pool.len(), 2);
        let s = pool.stats();
        assert_eq!(s.demotions, 1);
        assert_eq!(s.spilled_bytes, 8);
        let got = pool.get(1).expect("promote from disk").clone();
        assert_eq!(got.data, b"aaaabbbb");
        assert_eq!(pool.stats().promotions, 1);
        // Promotion re-enforced the budget by demoting key 2, not dropping it.
        assert!(pool.contains(2));
        assert_eq!(pool.stats().demotions, 2);
    }

    #[test]
    fn identical_chunks_are_deduplicated_on_disk() {
        let mut pool = spilling_pool(8, Default::default());
        pool.insert(1, ChunkySnap::new(b"aaaabbbb"));
        pool.insert(2, ChunkySnap::new(b"aaaabbbb"));
        pool.insert(3, ChunkySnap::new(b"aaaaZZZZ"));
        // Keys 1 and 2 are demoted and share both pages; key 3's demotion
        // reuses the "aaaa" page. Spilled bytes count unique content only.
        let s = pool.stats();
        assert_eq!(s.demotions, 2);
        assert_eq!(s.spilled_bytes, 8, "two unique 4-byte chunks on disk");
        assert_eq!(pool.get(2).unwrap().data, b"aaaabbbb");
    }

    #[test]
    fn pin_on_demoted_key_survives_promotion() {
        let mut pool = spilling_pool(8, Default::default());
        pool.insert(1, ChunkySnap::new(b"aaaabbbb"));
        pool.insert(2, ChunkySnap::new(b"ccccdddd")); // demotes 1
        pool.pin(1);
        assert_eq!(pool.stats().pinned, 1);
        assert!(pool.get(1).is_some());
        // Now resident and pinned: budget pressure must not touch it.
        pool.insert(3, ChunkySnap::new(b"eeeeffff"));
        assert!(pool.contains(1));
        assert!(!pool.was_evicted(1));
    }

    #[test]
    fn promote_read_failure_is_recorded_as_eviction() {
        let faults = modelcheck::SpillFaults {
            fail_read_at: Some(0),
            ..Default::default()
        };
        let mut pool = spilling_pool(8, faults);
        pool.insert(1, ChunkySnap::new(b"aaaabbbb"));
        pool.insert(2, ChunkySnap::new(b"ccccdddd")); // demotes 1
        assert!(pool.get(1).is_none(), "injected EIO loses the snapshot");
        assert!(pool.was_evicted(1), "loss surfaces as ESTALE, not ENOENT");
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn demote_write_failure_falls_back_to_hard_eviction() {
        let faults = modelcheck::SpillFaults {
            fail_write_at: Some(0),
            ..Default::default()
        };
        let mut pool = spilling_pool(8, faults);
        pool.insert(1, ChunkySnap::new(b"aaaabbbb"));
        assert_eq!(pool.insert(2, ChunkySnap::new(b"ccccdddd")), vec![1]);
        assert!(pool.was_evicted(1));
        assert_eq!(pool.stats().demotions, 0);
    }

    #[test]
    fn non_demotable_snapshots_still_hard_evict() {
        let mb = MemBudget::new(1024);
        let store = modelcheck::SpillStore::new(&mb).expect("spill store");
        let mut pool = CheckpointPool::new(Some(150));
        pool.enable_spill(store);
        pool.insert(1, snap(100));
        assert_eq!(pool.insert(2, snap(100)), vec![1]);
        assert!(pool.was_evicted(1));
    }

    #[test]
    fn replacement_supersedes_the_demoted_copy() {
        let mut pool = spilling_pool(8, Default::default());
        pool.insert(1, ChunkySnap::new(b"aaaabbbb"));
        pool.insert(2, ChunkySnap::new(b"ccccdddd")); // demotes 1
        pool.insert(1, ChunkySnap::new(b"XXXXYYYY")); // replaces, drops disk copy
        assert_eq!(pool.get(1).unwrap().data, b"XXXXYYYY");
        // Key 1's old chunks were released; only key 2's demoted chunks (from
        // the replacement insert's pressure) remain charged.
        let s = pool.stats();
        assert!(s.spilled_bytes <= 8, "stale chunks released");
    }

    #[test]
    fn device_snapshots_round_trip_through_demotion() {
        let mut img = blockdev::CowImage::new(24, 8, 0);
        img.write(3, b"hello");
        let snap =
            blockdev::DeviceSnapshot::from_chunks(8, 8, img.chunks().map(<[u8]>::to_vec).collect())
                .expect("geometry ok");
        let (meta, chunks) = snap.demote_chunks().expect("demotable");
        let back = <blockdev::DeviceSnapshot as SnapshotBytes>::promote_chunks(&meta, chunks)
            .expect("rebuilds");
        assert_eq!(back.to_vec(), snap.to_vec());
        assert_eq!(back.block_size(), 8);
    }

    #[test]
    fn stats_report_counts_and_bytes() {
        let mut pool = CheckpointPool::new(Some(150));
        pool.insert(1, snap(100));
        pool.pin(1);
        pool.insert(2, snap(100)); // evicts nothing pinned-able... 1 is pinned, 2 is new
        let s = pool.stats();
        assert_eq!(s.snapshots, 2);
        assert_eq!(s.pinned, 1);
        assert_eq!(s.total_bytes, 200);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 0);
        pool.unpin(1);
        pool.insert(3, snap(50)); // now 1 is evictable; dropping it suffices
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.snapshots, 2);
    }
}

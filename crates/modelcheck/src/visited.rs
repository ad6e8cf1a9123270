//! The visited-state set, with hash-table resize modelling.
//!
//! Fig. 3 of the paper shows MCFS's rate collapsing around day 3 "because
//! Spin was resizing its hash table of visited states". The visited set here
//! reports resize events (with a modelled cost proportional to the rehashed
//! entry count) so the reproduction exhibits the same dynamics.
//!
//! One set implementation exists, [`VisitedSet`]: the explorer-private set,
//! and each shard of the concurrent [`ShardedVisited`] that frontier fleets
//! and shared-set walks use. Under a [`MemBudget`] the sharded set adds a
//! disk tier (see [`crate::spill`]): each shard then counts, classifies and
//! streams its spilled entries too, and the tier evicts whole shards to
//! pages. Explorers are generic over the [`VisitedHandle`] trait.

use std::collections::HashMap;

use parking_lot::Mutex;
use std::sync::Arc;

use crate::spill::{DiskTier, MemBudget, Miss, ShardPages, SpillStats, SpillStore};

/// A hash-table resize event, reported when an insert crosses the capacity
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Entries rehashed.
    pub entries: u64,
    /// Modelled cost in virtual nanoseconds (rehash + the memory spike of
    /// holding the old and new tables simultaneously).
    pub cost_ns: u64,
    /// Transient extra bytes while both tables exist.
    pub transient_bytes: u64,
}

/// Bytes accounted per stored fingerprint (16-byte hash + table overhead).
pub const BYTES_PER_ENTRY: u64 = 48;

/// Per-entry rehash cost in virtual nanoseconds. Rehashing a table that no
/// longer fits RAM is page-fault dominated (the Fig. 3 "resize dip"), so
/// this models a faulting rehash, not an in-cache one.
pub(crate) const REHASH_NS_PER_ENTRY: u64 = 40_000;

/// How an insert related to the existing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// First time this state is seen.
    New,
    /// Seen before, but now reached at a strictly shallower depth — a
    /// depth-bounded search must re-expand it or it will miss successors
    /// (SPIN re-explores in exactly this case).
    Shallower,
    /// Seen before at an equal or shallower depth: prune.
    Matched,
}

/// Abstraction over visited-state tables, so explorers run unchanged against
/// a private [`VisitedSet`] or a swarm-shared [`ShardedVisited`].
pub trait VisitedHandle {
    /// Inserts a fingerprint at depth 0; returns `(is_new, resize)`.
    fn insert(&mut self, h: u128) -> (bool, Option<ResizeEvent>) {
        let (visit, resize) = self.insert_at(h, 0);
        (visit == Visit::New, resize)
    }

    /// Inserts a fingerprint reached at `depth`, classifying the visit.
    fn insert_at(&mut self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>);

    /// Bytes held by the table(s), per the model.
    fn bytes(&self) -> u64;

    /// Number of distinct states visited.
    fn len(&self) -> usize;

    /// Whether no state has been visited.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of [`VisitedHandle::bytes`]. In-RAM sets only grow,
    /// so the default (current bytes) is exact for them; spilling sets
    /// track the real peak across evictions.
    fn peak_bytes(&self) -> u64 {
        self.bytes()
    }

    /// First backing-store failure, if any. In-RAM sets cannot fail;
    /// spilling sets poison on I/O or integrity errors, and explorers must
    /// stop the run loudly when this turns `Some`.
    fn error(&self) -> Option<String> {
        None
    }

    /// Virtual-ns of real page traffic accumulated since the last call
    /// (zero for in-RAM sets); explorers drain this onto the run's clock.
    fn take_pending_ns(&mut self) -> u64 {
        0
    }

    /// Out-of-core counters, when a spill budget is active.
    fn spill_stats(&self) -> Option<SpillStats> {
        None
    }
}

/// The explorer's visited-state set over 128-bit abstract fingerprints,
/// remembering the shallowest depth each state was reached at.
///
/// As a shard of a budgeted [`ShardedVisited`] it also has a link to the
/// disk tier: its count and resize threshold then cover the entries
/// spilled to pages too, and a hot miss probes those pages.
#[derive(Debug)]
pub struct VisitedSet {
    /// Hot entries. With a disk tier each holds the shallowest depth known
    /// for its fingerprint; pages may keep stale deeper copies.
    set: HashMap<u128, u32>,
    threshold: usize,
    resizes: u32,
    /// This set's side of the disk tier, when it is a budgeted shard.
    spill: Option<ShardPages>,
}

impl VisitedSet {
    /// Creates a set whose first modelled resize happens at
    /// `initial_capacity` entries.
    pub fn new(initial_capacity: usize) -> Self {
        VisitedSet {
            set: HashMap::new(),
            threshold: initial_capacity.max(2),
            resizes: 0,
            spill: None,
        }
    }

    /// Inserts a fingerprint at depth 0. Returns `(is_new, resize)` —
    /// `is_new` is false when the state was already visited; `resize`
    /// reports a modelled hash-table resize triggered by this insert.
    pub fn insert(&mut self, h: u128) -> (bool, Option<ResizeEvent>) {
        let (visit, resize) = self.insert_at(h, 0);
        (visit == Visit::New, resize)
    }

    /// Inserts a fingerprint reached at `depth`, classifying the visit (see
    /// [`Visit`]). Depth-bounded searches expand on `New` *and*
    /// `Shallower`.
    ///
    /// Resize semantics: only a `New` insert can grow the entry count, so
    /// only `New` can cross the doubling threshold. A `Shallower` visit
    /// rewrites an existing entry's depth in place — the table is written,
    /// but its size is unchanged, so no resize is modelled.
    ///
    /// With a disk tier, a hot miss found on a page is re-installed hot, and
    /// once the tier's store has failed a hot miss answers `Matched`: a
    /// failed set never reports a state as new.
    pub fn insert_at(&mut self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        let visit = match self.set.get_mut(&h) {
            Some(prev) => {
                if let Some(spill) = &self.spill {
                    spill.hot_hit(h);
                }
                if depth < *prev {
                    *prev = depth;
                    Visit::Shallower
                } else {
                    Visit::Matched
                }
            }
            None => match self.spill.as_mut().map_or(Miss::New, |s| s.insert_miss(h)) {
                Miss::New => {
                    self.set.insert(h, depth);
                    Visit::New
                }
                Miss::Reloaded(prev) => {
                    self.set.insert(h, prev.min(depth));
                    if depth < prev {
                        Visit::Shallower
                    } else {
                        Visit::Matched
                    }
                }
                Miss::Poisoned => Visit::Matched,
            },
        };
        let mut resize = None;
        if visit == Visit::New && self.len() >= self.threshold {
            let entries = self.len() as u64;
            resize = Some(ResizeEvent {
                entries,
                cost_ns: entries * REHASH_NS_PER_ENTRY,
                transient_bytes: entries * BYTES_PER_ENTRY,
            });
            self.threshold *= 2;
            self.resizes += 1;
        }
        (visit, resize)
    }

    /// Whether `h` has been visited.
    pub fn contains(&self, h: u128) -> bool {
        self.depth_of(h).is_some()
    }

    /// Depth recorded for `h`, if visited (`None` too when a spilled page
    /// cannot be read).
    pub fn depth_of(&self, h: u128) -> Option<u32> {
        match (self.set.get(&h), &self.spill) {
            (Some(&d), _) => Some(d),
            (None, Some(spill)) => spill.depth_of(h).ok().flatten(),
            (None, None) => None,
        }
    }

    /// Number of distinct states visited, hot and spilled.
    pub fn len(&self) -> usize {
        self.set.len() + self.spill.as_ref().map_or(0, ShardPages::cold)
    }

    /// Whether no state has been visited.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of modelled resizes so far.
    pub fn resizes(&self) -> u32 {
        self.resizes
    }

    /// Bytes held by the (hot) table, per the model.
    pub fn bytes(&self) -> u64 {
        self.set.len() as u64 * BYTES_PER_ENTRY
    }

    /// Visits every `(fingerprint, depth)` entry sorted by fingerprint (the
    /// canonical export order) without materializing owned pairs — only a
    /// sorted key index. Serializers stream from this straight into their
    /// output (see `SnapshotWriter`).
    pub fn stream_entries(&self, f: impl FnMut(u128, u32)) {
        self.stream_with(&HashMap::new(), f);
    }

    /// [`VisitedSet::stream_entries`] over the hot entries and the spilled
    /// ones, read back page by page (a budgeted shard streams through this;
    /// `stream_entries` sees its hot entries only).
    ///
    /// # Errors
    ///
    /// When a spilled page cannot be read back.
    fn try_stream_entries(&self, f: impl FnMut(u128, u32)) -> Result<(), String> {
        let cold = match &self.spill {
            Some(spill) => spill.cold_entries(&self.set)?,
            None => HashMap::new(),
        };
        self.stream_with(&cold, f);
        Ok(())
    }

    /// Streams the hot entries merged with `cold`, which holds none of them.
    fn stream_with(&self, cold: &HashMap<u128, u32>, mut f: impl FnMut(u128, u32)) {
        let mut keys: Vec<u128> = self.set.keys().chain(cold.keys()).copied().collect();
        keys.sort_unstable();
        for h in keys {
            f(h, *self.set.get(&h).unwrap_or_else(|| &cold[&h]));
        }
    }

    /// Exports every `(fingerprint, depth)` entry, sorted by fingerprint so
    /// the serialized form is canonical (byte-identical across exports of
    /// the same set, whatever the insertion order was). Prefer
    /// [`stream_entries`](VisitedSet::stream_entries) for one-shot
    /// consumers.
    pub fn export_entries(&self) -> Vec<(u128, u32)> {
        let mut out = Vec::with_capacity(self.set.len());
        self.stream_entries(|h, d| out.push((h, d)));
        out
    }

    /// Bulk-loads previously exported entries, keeping the shallowest depth
    /// on collision. Loading does *not* fire modelled resize events — the
    /// run that discovered these states already paid those costs; the
    /// doubling threshold is advanced past the loaded size instead.
    pub fn load_entries(&mut self, entries: &[(u128, u32)]) {
        for &(h, d) in entries {
            self.load(h, d);
        }
    }

    /// Loads one entry (see [`VisitedSet::load_entries`]).
    fn load(&mut self, h: u128, d: u32) {
        if let Some(prev) = self.set.get_mut(&h) {
            *prev = (*prev).min(d);
            return;
        }
        match self.spill.as_mut().map_or(Miss::New, |s| s.load_miss(h)) {
            Miss::New => {
                self.set.insert(h, d);
                while self.len() >= self.threshold {
                    self.threshold *= 2;
                }
            }
            Miss::Reloaded(prev) => {
                self.set.insert(h, prev.min(d));
            }
            Miss::Poisoned => {}
        }
    }

    /// Hands every hot entry to the disk tier as one sorted page.
    pub(crate) fn spill_hot(&mut self) {
        let Some(spill) = &mut self.spill else {
            return;
        };
        let mut entries: Vec<(u128, u32)> = self.set.drain().collect();
        entries.sort_unstable_by_key(|&(h, _)| h);
        spill.spill(&entries);
    }
}

impl Default for VisitedSet {
    fn default() -> Self {
        VisitedSet::new(1 << 16)
    }
}

impl VisitedHandle for VisitedSet {
    fn insert_at(&mut self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        VisitedSet::insert_at(self, h, depth)
    }

    fn bytes(&self) -> u64 {
        VisitedSet::bytes(self)
    }

    fn len(&self) -> usize {
        VisitedSet::len(self)
    }
}

/// A sharded concurrent visited set shareable across swarm workers.
///
/// Fingerprints are routed to one of N shards by their high bits (the
/// fingerprint is already uniform, so shards fill evenly); each shard is an
/// independent [`VisitedSet`] behind its own mutex, so workers touching
/// different shards never contend.
///
/// Resize modelling is preserved per shard: each shard starts at
/// `initial_capacity / nshards`, so with uniform fill all shards cross
/// their doubling thresholds around the same aggregate entry count the
/// unsharded table would have — the Fig. 3 dynamics survive sharding, just
/// split into N smaller (and briefly overlapping) dips.
///
/// Cloning shares the underlying shards.
///
/// With a [`MemBudget`] (see [`ShardedVisited::with_spill`]) the set gets a
/// disk tier: the same shards and classification, bounded hot memory.
#[derive(Debug, Clone)]
pub struct ShardedVisited {
    shards: Arc<Vec<Mutex<VisitedSet>>>,
    shard_bits: u32,
    tier: Option<Arc<DiskTier>>,
}

impl ShardedVisited {
    /// Creates an empty set with `nshards` shards (rounded up to a power of
    /// two) and an aggregate first-resize threshold of `initial_capacity`.
    pub fn new(initial_capacity: usize, nshards: usize) -> Self {
        Self::build(initial_capacity, nshards, None)
    }

    /// As [`ShardedVisited::new`], with a disk tier budgeted by `budget`:
    /// hot entries beyond the budget spill to the run's spill file.
    ///
    /// # Errors
    ///
    /// When the spill file cannot be created.
    pub fn with_spill(
        initial_capacity: usize,
        nshards: usize,
        budget: &MemBudget,
    ) -> Result<Self, String> {
        let n = nshards.max(1).next_power_of_two();
        let tier = Arc::new(DiskTier::new(budget, n)?);
        Ok(Self::build(initial_capacity, n, Some(tier)))
    }

    fn build(initial_capacity: usize, nshards: usize, tier: Option<Arc<DiskTier>>) -> Self {
        let n = nshards.max(1).next_power_of_two();
        let per_shard = (initial_capacity / n).max(2);
        let shards = (0..n)
            .map(|i| {
                Mutex::new(VisitedSet {
                    spill: tier.as_ref().map(|t| ShardPages::new(t.clone(), i)),
                    ..VisitedSet::new(per_shard)
                })
            })
            .collect();
        ShardedVisited {
            shards: Arc::new(shards),
            shard_bits: n.trailing_zeros(),
            tier,
        }
    }

    /// The disk tier's page store, when one is attached (the swarm's
    /// frontier queues and the systems' checkpoint pools share it).
    pub fn spill_store(&self) -> Option<&Arc<SpillStore>> {
        self.tier.as_deref().map(DiskTier::store)
    }

    fn shard_idx(&self, h: u128) -> usize {
        // High bits: the fingerprint is a uniform hash, and taking the top
        // bits keeps the routing independent of how HashMap uses the low
        // bits internally.
        if self.shard_bits == 0 {
            0
        } else {
            (h >> (128 - self.shard_bits)) as usize
        }
    }

    /// Runs `f` on `h`'s shard under its lock. With a disk tier, the shard
    /// is marked most recently used and its hot size recorded for eviction.
    fn on_shard<R>(&self, h: u128, f: impl FnOnce(&mut VisitedSet) -> R) -> R {
        let idx = self.shard_idx(h);
        let mut shard = self.shards[idx].lock();
        let Some(tier) = &self.tier else {
            return f(&mut shard);
        };
        tier.touch(idx);
        let out = f(&mut shard);
        tier.set_hot_len(idx, shard.set.len());
        out
    }

    /// Spills least-recently-used shards until the hot cache fits the
    /// budget (nothing without a disk tier).
    fn evict(&self) {
        if let Some(tier) = &self.tier {
            tier.evict(&self.shards);
        }
    }

    /// Inserts a fingerprint at depth 0 (see [`VisitedSet::insert`]).
    pub fn insert(&self, h: u128) -> (bool, Option<ResizeEvent>) {
        let (visit, resize) = self.insert_at(h, 0);
        (visit == Visit::New, resize)
    }

    /// Inserts a fingerprint at `depth` (see [`VisitedSet::insert_at`]).
    pub fn insert_at(&self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        let out = self.on_shard(h, |s| s.insert_at(h, depth));
        self.evict();
        out
    }

    /// The shallowest depth `h` was reached at, if visited.
    pub fn depth_of(&self, h: u128) -> Option<u32> {
        self.shards[self.shard_idx(h)].lock().depth_of(h)
    }

    /// Number of distinct states across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Modelled bytes of the shards' hot entries.
    pub(crate) fn hot_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes()).sum()
    }

    /// Total modelled bytes: hot entries, plus the disk tier's bloom
    /// filters and page bookkeeping.
    pub fn bytes(&self) -> u64 {
        match &self.tier {
            Some(tier) => tier.bytes(),
            None => self.hot_bytes(),
        }
    }

    /// High-water mark of [`ShardedVisited::bytes`]. In-RAM shards only
    /// grow, so their current bytes are the peak; the disk tier tracks its
    /// real peak across evictions.
    pub fn peak_bytes(&self) -> u64 {
        self.tier
            .as_ref()
            .map_or_else(|| self.bytes(), |t| t.peak_bytes())
    }

    /// Streams every `(fingerprint, depth)` entry in globally sorted order
    /// (fingerprints are routed to shards by their top bits, so per-shard
    /// sorted output concatenates to a sorted whole) without materializing
    /// the full set — at most one shard is held at a time.
    ///
    /// # Errors
    ///
    /// On spill-file read failure (in-RAM sets cannot fail).
    pub fn stream_entries(&self, mut f: impl FnMut(u128, u32)) -> Result<(), String> {
        for shard in self.shards.iter() {
            shard.lock().try_stream_entries(&mut f)?;
        }
        Ok(())
    }

    /// Bulk-loads previously exported entries into the owning shards without
    /// firing modelled resize events (see [`VisitedSet::load_entries`]).
    /// With a disk tier it evicts every 1,024 entries, so a big resume load
    /// cannot balloon the hot cache past the budget.
    pub fn load_entries(&self, entries: &[(u128, u32)]) {
        for (i, &(h, d)) in entries.iter().enumerate() {
            self.on_shard(h, |s| s.load(h, d));
            if i % 1024 == 1023 {
                self.evict();
            }
        }
        self.evict();
    }

    /// First spill failure, if any — see [`VisitedHandle::error`].
    pub fn error(&self) -> Option<String> {
        self.spill_store().and_then(|s| s.error())
    }

    /// Virtual-ns of real page traffic since the last call (zero in RAM).
    pub fn take_pending_ns(&self) -> u64 {
        self.spill_store().map_or(0, |s| s.take_pending_ns())
    }

    /// Out-of-core counters, when a disk tier is attached.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.tier.as_ref().map(|t| t.stats())
    }
}

impl VisitedHandle for ShardedVisited {
    fn insert_at(&mut self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        ShardedVisited::insert_at(self, h, depth)
    }

    fn bytes(&self) -> u64 {
        ShardedVisited::bytes(self)
    }

    fn len(&self) -> usize {
        ShardedVisited::len(self)
    }

    fn peak_bytes(&self) -> u64 {
        ShardedVisited::peak_bytes(self)
    }

    fn error(&self) -> Option<String> {
        ShardedVisited::error(self)
    }

    fn take_pending_ns(&mut self) -> u64 {
        ShardedVisited::take_pending_ns(self)
    }

    fn spill_stats(&self) -> Option<SpillStats> {
        ShardedVisited::spill_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedup_and_counts() {
        let mut v = VisitedSet::new(1024);
        assert!(v.insert(1).0);
        assert!(v.insert(2).0);
        assert!(!v.insert(1).0);
        assert_eq!(v.len(), 2);
        assert!(v.contains(2));
        assert!(!v.contains(3));
        assert_eq!(v.bytes(), 2 * BYTES_PER_ENTRY);
    }

    #[test]
    fn resize_fires_at_threshold_and_doubles() {
        let mut v = VisitedSet::new(4);
        let mut events = Vec::new();
        for i in 0..20u128 {
            if let (_, Some(e)) = v.insert(i) {
                events.push(e);
            }
        }
        // Thresholds: 4, 8, 16 → three resizes within 20 inserts.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].entries, 4);
        assert_eq!(events[1].entries, 8);
        assert_eq!(events[2].entries, 16);
        assert!(events[2].cost_ns > events[0].cost_ns);
        assert_eq!(v.resizes(), 3);
    }

    #[test]
    fn duplicate_insert_never_resizes() {
        let mut v = VisitedSet::new(2);
        v.insert(1);
        v.insert(2); // resize here
        let before = v.resizes();
        for _ in 0..10 {
            assert_eq!(v.insert(1), (false, None));
        }
        assert_eq!(v.resizes(), before);
    }

    /// Pins the intended `insert_at` semantics: a `Shallower` visit rewrites
    /// the table entry (the new depth is recorded) but must never trigger a
    /// resize, because the entry count did not grow — only `New` inserts
    /// count toward the doubling threshold.
    #[test]
    fn shallower_updates_depth_but_never_resizes() {
        let mut v = VisitedSet::new(2);
        assert_eq!(v.insert_at(1, 5).0, Visit::New);
        // Second New insert reaches the threshold of 2 → resize.
        let (visit, resize) = v.insert_at(2, 5);
        assert_eq!(visit, Visit::New);
        assert!(resize.is_some());
        let resizes_before = v.resizes();

        // Shallower re-visits write the table...
        let (visit, resize) = v.insert_at(1, 3);
        assert_eq!(visit, Visit::Shallower);
        assert_eq!(v.depth_of(1), Some(3), "depth must be updated in place");
        // ...but never resize, no matter how many happen at the threshold.
        assert_eq!(resize, None);
        for d in (0..3).rev() {
            let (_, r) = v.insert_at(1, d);
            assert_eq!(r, None);
        }
        assert_eq!(v.resizes(), resizes_before);
        assert_eq!(v.len(), 2, "Shallower must not change the entry count");

        // Equal-or-deeper is Matched and leaves the recorded depth alone.
        assert_eq!(v.insert_at(1, 9).0, Visit::Matched);
        assert_eq!(v.depth_of(1), Some(0));
    }

    #[test]
    fn sharded_set_is_shared_and_dedups() {
        let a = ShardedVisited::new(64, 4);
        let b = a.clone();
        assert!(a.insert(9).0);
        assert!(!b.insert(9).0);
        assert_eq!(b.len(), 1);
        assert!(!a.is_empty());
        assert_eq!(a.depth_of(9), Some(0));
    }

    #[test]
    fn sharded_routes_by_high_bits_and_counts_globally() {
        let v = ShardedVisited::new(1 << 8, 8);
        assert_eq!(v.shards.len(), 8);
        // Spread fingerprints across all shards via the top 3 bits.
        for top in 0..8u128 {
            for low in 0..10u128 {
                assert!(v.insert((top << 125) | low).0);
            }
        }
        assert_eq!(v.len(), 80);
        // Duplicates match regardless of which clone inserts them.
        let c = v.clone();
        for top in 0..8u128 {
            assert!(!c.insert(top << 125).0);
        }
        assert_eq!(c.len(), 80);
    }

    #[test]
    fn sharded_preserves_aggregate_resize_dynamics() {
        // Unsharded table with capacity 64 resizes at 64, 128, 256 entries.
        // The sharded equivalent (8 shards × 8) should produce its 8 first
        // per-shard resizes clustered around 64 aggregate entries, etc.
        let v = ShardedVisited::new(64, 8);
        let mut rng_state = 0x12345678u128;
        let mut aggregate_at_resize = Vec::new();
        for _ in 0..512 {
            // Cheap LCG over u128 to spread bits incl. the top ones.
            rng_state = rng_state
                .wrapping_mul(0x2d99787926d46932a4c1f32680f70c55)
                .wrapping_add(1);
            let (is_new, resize) = v.insert(rng_state);
            if is_new && resize.is_some() {
                aggregate_at_resize.push(v.len());
            }
        }
        assert!(
            aggregate_at_resize.len() >= 8,
            "expected at least one resize per shard"
        );
        // First 8 resizes (one per shard) all happen well before the table
        // doubles past the aggregate threshold's neighborhood.
        for &agg in aggregate_at_resize.iter().take(8) {
            assert!(
                agg <= 64 * 2,
                "first-round shard resize at aggregate {agg}, want near 64"
            );
        }
    }

    #[test]
    fn handle_trait_is_object_usable_for_both() {
        fn drive<V: VisitedHandle>(v: &mut V) -> usize {
            v.insert(1);
            v.insert(1);
            v.insert_at(2, 4);
            v.len()
        }
        let mut a = VisitedSet::new(16);
        let mut b = ShardedVisited::new(16, 2);
        assert_eq!(drive(&mut a), 2);
        assert_eq!(drive(&mut b), 2);
        assert!(a.bytes() > 0 && VisitedHandle::bytes(&b) > 0);
    }

    /// A fingerprint with bits spread over all 128 (so every shard fills).
    fn spread(k: u64) -> u128 {
        (u128::from(k) + 1).wrapping_mul(0x2d99787926d46932a4c1f32680f70c55)
    }

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64, u32),
        Load(Vec<(u64, u32)>),
    }

    /// Three inserts to one load batch. Keys below 48 recur (revisits);
    /// `any` keys are almost surely fresh.
    fn step() -> impl Strategy<Value = Step> {
        let insert =
            (prop_oneof![0u64..48, any::<u64>()], 0u32..12).prop_map(|(k, d)| Step::Insert(k, d));
        let load = prop::collection::vec((0u64..64, 0u32..12), 1..24).prop_map(Step::Load);
        prop_oneof![insert.clone(), insert.clone(), insert, load]
    }

    fn entries(set: &ShardedVisited) -> Vec<(u128, u32)> {
        let mut out = Vec::new();
        set.stream_entries(|h, d| out.push((h, d))).expect("stream");
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The disk tier changes nothing a caller can see: under a budget of
        /// a few entries, every insert classifies and resizes exactly as the
        /// unbudgeted set with the same shard count does, loads min-merge
        /// alike, and the streamed sets are equal, while the hot cache stays
        /// within its budget.
        #[test]
        fn disk_tier_matches_the_in_ram_set(
            shard_bits in 0u32..4,
            budget_entries in 1u64..=64,
            steps in prop::collection::vec(step(), 1..160),
        ) {
            let nshards = 1 << shard_bits;
            let budget = MemBudget::new(budget_entries * BYTES_PER_ENTRY);
            let spilled = ShardedVisited::with_spill(64, nshards, &budget).expect("spill file");
            let ram = ShardedVisited::new(64, nshards);
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Insert(k, d) => prop_assert_eq!(
                        spilled.insert_at(spread(*k), *d),
                        ram.insert_at(spread(*k), *d),
                        "step {} of {:?}",
                        i,
                        steps
                    ),
                    Step::Load(batch) => {
                        let batch: Vec<(u128, u32)> =
                            batch.iter().map(|&(k, d)| (spread(k), d)).collect();
                        spilled.load_entries(&batch);
                        ram.load_entries(&batch);
                    }
                }
                prop_assert!(spilled.hot_bytes() <= budget.ram_bytes, "step {}", i);
                prop_assert_eq!(spilled.len(), ram.len(), "step {}", i);
            }
            prop_assert_eq!(entries(&spilled), entries(&ram));
            prop_assert!(spilled.error().is_none());
            let stats = spilled.spill_stats().expect("a disk tier reports stats");
            if spilled.len() as u64 > budget_entries {
                prop_assert!(
                    stats.evictions > 0,
                    "{} entries over a {}-entry budget",
                    spilled.len(),
                    budget_entries
                );
            }
        }
    }
}

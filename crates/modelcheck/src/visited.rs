//! The visited-state set, with hash-table resize modelling.
//!
//! Fig. 3 of the paper shows MCFS's rate collapsing around day 3 "because
//! Spin was resizing its hash table of visited states". The visited set here
//! reports resize events (with a modelled cost proportional to the rehashed
//! entry count) so the reproduction exhibits the same dynamics.
//!
//! Two concrete sets exist: the explorer-private [`VisitedSet`], and the
//! sharded concurrent [`ShardedVisited`] used by shared-visited swarm mode,
//! where workers skip states another worker already expanded. Both are
//! driven through the [`VisitedHandle`] trait so the explorers are generic
//! over them.

use std::collections::HashMap;

use parking_lot::Mutex;
use std::sync::Arc;

use crate::spill::{MemBudget, SpillSet, SpillStats};

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
#[derive(Debug)]
pub struct VisitedSet {
    set: HashMap<u128, u32>,
    threshold: usize,
    resizes: u32,
}

impl VisitedSet {
    /// Creates a set whose first modelled resize happens at
    /// `initial_capacity` entries.
    pub fn new(initial_capacity: usize) -> Self {
        VisitedSet {
            set: HashMap::new(),
            threshold: initial_capacity.max(2),
            resizes: 0,
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
    pub fn insert_at(&mut self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        let visit = match self.set.get(&h) {
            None => {
                self.set.insert(h, depth);
                Visit::New
            }
            Some(&prev) if depth < prev => {
                self.set.insert(h, depth);
                Visit::Shallower
            }
            Some(_) => Visit::Matched,
        };
        let mut resize = None;
        if visit == Visit::New && self.set.len() >= self.threshold {
            let entries = self.set.len() as u64;
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
        self.set.contains_key(&h)
    }

    /// Depth recorded for `h`, if visited.
    pub fn depth_of(&self, h: u128) -> Option<u32> {
        self.set.get(&h).copied()
    }

    /// Number of distinct states visited.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no state has been visited.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Number of modelled resizes so far.
    pub fn resizes(&self) -> u32 {
        self.resizes
    }

    /// Bytes held by the table (per the model).
    pub fn bytes(&self) -> u64 {
        self.set.len() as u64 * BYTES_PER_ENTRY
    }

    /// Visits every `(fingerprint, depth)` entry sorted by fingerprint (the
    /// canonical export order) without materializing owned pairs — only a
    /// sorted key index. Serializers stream from this straight into their
    /// output (see `SnapshotWriter`).
    pub fn stream_entries(&self, mut f: impl FnMut(u128, u32)) {
        let mut keys: Vec<u128> = self.set.keys().copied().collect();
        keys.sort_unstable();
        for h in keys {
            f(h, self.set[&h]);
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
            match self.set.get(&h) {
                Some(&prev) if prev <= d => {}
                _ => {
                    self.set.insert(h, d);
                }
            }
        }
        while self.set.len() >= self.threshold {
            self.threshold *= 2;
        }
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
/// different shards never contend — unlike the old single-mutex
/// `SharedVisited` this replaces, which serialized the whole fleet on every
/// insert.
///
/// Resize modelling is preserved per shard: each shard starts at
/// `initial_capacity / nshards`, so with uniform fill all shards cross
/// their doubling thresholds around the same aggregate entry count the
/// unsharded table would have — the Fig. 3 dynamics survive sharding, just
/// split into N smaller (and briefly overlapping) dips.
///
/// Cloning shares the underlying shards.
///
/// With a [`MemBudget`] (see [`ShardedVisited::with_spill`]) the set is
/// backed by a disk-spilling [`SpillSet`] instead of in-RAM shards — same
/// classification semantics, bounded hot memory.
#[derive(Debug, Clone)]
pub struct ShardedVisited {
    shards: Arc<Vec<Mutex<VisitedSet>>>,
    shard_bits: u32,
    spill: Option<Arc<SpillSet>>,
}

impl ShardedVisited {
    /// Creates an empty set with `nshards` shards (rounded up to a power of
    /// two) and an aggregate first-resize threshold of `initial_capacity`.
    pub fn new(initial_capacity: usize, nshards: usize) -> Self {
        let n = nshards.max(1).next_power_of_two();
        let per_shard = (initial_capacity / n).max(2);
        let shards = (0..n)
            .map(|_| Mutex::new(VisitedSet::new(per_shard)))
            .collect();
        ShardedVisited {
            shards: Arc::new(shards),
            shard_bits: n.trailing_zeros(),
            spill: None,
        }
    }

    /// Creates a disk-spilling set budgeted by `budget`, with the same
    /// aggregate first-resize threshold semantics as [`ShardedVisited::new`].
    ///
    /// # Errors
    ///
    /// When the spill file cannot be created.
    pub fn with_spill(initial_capacity: usize, budget: &MemBudget) -> Result<Self, String> {
        let set = SpillSet::new(initial_capacity, budget)?;
        Ok(ShardedVisited {
            shards: Arc::new(Vec::new()),
            shard_bits: 0,
            spill: Some(Arc::new(set)),
        })
    }

    /// The backing spill set, when one is configured (the swarm shares its
    /// page store with frontier queues).
    pub fn spill_set(&self) -> Option<&Arc<SpillSet>> {
        self.spill.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        match &self.spill {
            Some(s) => s.shard_count(),
            None => self.shards.len(),
        }
    }

    fn shard_for(&self, h: u128) -> &Mutex<VisitedSet> {
        // High bits: the fingerprint is a uniform hash, and taking the top
        // bits keeps the routing independent of how HashMap uses the low
        // bits internally.
        let idx = if self.shard_bits == 0 {
            0
        } else {
            (h >> (128 - self.shard_bits)) as usize
        };
        &self.shards[idx]
    }

    /// Inserts a fingerprint at depth 0 (see [`VisitedSet::insert`]).
    pub fn insert(&self, h: u128) -> (bool, Option<ResizeEvent>) {
        match &self.spill {
            Some(s) => s.insert(h),
            None => self.shard_for(h).lock().insert(h),
        }
    }

    /// Inserts a fingerprint at `depth` (see [`VisitedSet::insert_at`]).
    pub fn insert_at(&self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        match &self.spill {
            Some(s) => s.insert_at(h, depth),
            None => self.shard_for(h).lock().insert_at(h, depth),
        }
    }

    /// Whether `h` has been visited.
    pub fn contains(&self, h: u128) -> bool {
        self.depth_of(h).is_some()
    }

    /// The shallowest depth `h` was reached at, if visited.
    pub fn depth_of(&self, h: u128) -> Option<u32> {
        match &self.spill {
            Some(s) => s.depth_of(h),
            None => self.shard_for(h).lock().depth_of(h),
        }
    }

    /// Number of distinct states across all shards.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(s) => s.len(),
            None => self.shards.iter().map(|s| s.lock().len()).sum(),
        }
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        match &self.spill {
            Some(s) => s.is_empty(),
            None => self.shards.iter().all(|s| s.lock().is_empty()),
        }
    }

    /// Total modelled resizes across shards.
    pub fn resizes(&self) -> u32 {
        match &self.spill {
            Some(s) => s.resizes(),
            None => self.shards.iter().map(|s| s.lock().resizes()).sum(),
        }
    }

    /// Total modelled bytes across shards (hot bytes + page metadata when
    /// spilling).
    pub fn bytes(&self) -> u64 {
        match &self.spill {
            Some(s) => s.bytes(),
            None => self.shards.iter().map(|s| s.lock().bytes()).sum(),
        }
    }

    /// High-water mark of [`ShardedVisited::bytes`]. In-RAM shards only
    /// grow, so their current bytes are the peak; the spill set tracks its
    /// real peak across evictions.
    pub fn peak_bytes(&self) -> u64 {
        match &self.spill {
            Some(s) => s.peak_bytes(),
            None => self.bytes(),
        }
    }

    /// Consistent `(len, bytes, resizes)` snapshot: every shard lock is
    /// held simultaneously, so concurrent inserts cannot skew the sums the
    /// way three separate [`ShardedVisited::len`]/[`ShardedVisited::bytes`]/
    /// [`ShardedVisited::resizes`] calls mid-run can.
    pub fn stats_snapshot(&self) -> (usize, u64, u32) {
        match &self.spill {
            Some(s) => s.snapshot_counts(),
            None => {
                let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
                let len = guards.iter().map(|g| g.len()).sum();
                let bytes = guards.iter().map(|g| g.bytes()).sum();
                let resizes = guards.iter().map(|g| g.resizes()).sum();
                (len, bytes, resizes)
            }
        }
    }

    /// Exports every `(fingerprint, depth)` entry across shards, sorted by
    /// fingerprint (canonical order — see [`VisitedSet::export_entries`]).
    ///
    /// # Panics
    ///
    /// When a spilled page cannot be read back — the visited set is no
    /// longer trustworthy and exporting a partial one would silently drop
    /// states. Prefer [`ShardedVisited::stream_entries`] to handle the
    /// error gracefully.
    pub fn export_entries(&self) -> Vec<(u128, u32)> {
        let mut out = Vec::new();
        self.stream_entries(|h, d| out.push((h, d)))
            .unwrap_or_else(|e| panic!("visited export failed: {e}"));
        out
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
        match &self.spill {
            Some(s) => s.stream_entries(f),
            None => {
                for shard in self.shards.iter() {
                    shard.lock().stream_entries(&mut f);
                }
                Ok(())
            }
        }
    }

    /// Bulk-loads previously exported entries into the owning shards without
    /// firing modelled resize events (see [`VisitedSet::load_entries`]).
    pub fn load_entries(&self, entries: &[(u128, u32)]) {
        match &self.spill {
            Some(s) => s.load_entries(entries),
            None => {
                for &(h, d) in entries {
                    self.shard_for(h).lock().load_entries(&[(h, d)]);
                }
            }
        }
    }

    /// First spill failure, if any — see [`VisitedHandle::error`].
    pub fn error(&self) -> Option<String> {
        self.spill.as_ref().and_then(|s| s.error())
    }

    /// Virtual-ns of real page traffic since the last call (zero in RAM).
    pub fn take_pending_ns(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.take_pending_ns())
    }

    /// Out-of-core counters, when spilling is active.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.spill.as_ref().map(|s| s.spill_stats())
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
        assert!(a.contains(9));
    }

    #[test]
    fn sharded_routes_by_high_bits_and_counts_globally() {
        let v = ShardedVisited::new(1 << 8, 8);
        assert_eq!(v.shard_count(), 8);
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
        assert!(v.resizes() >= 8, "expected at least one resize per shard");
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
    fn spill_backed_sharded_set_matches_ram_one() {
        let mut budget = MemBudget::new(16 * BYTES_PER_ENTRY);
        budget.shards = 4;
        let spilled = ShardedVisited::with_spill(64, &budget).expect("spill set");
        let ram = ShardedVisited::new(64, 4);
        let mut state = 0xdead_beef_u128;
        for i in 0..300u32 {
            state = state
                .wrapping_mul(0x2d99787926d46932a4c1f32680f70c55)
                .wrapping_add(1);
            let h = if i % 4 == 0 { state >> 1 << 1 } else { state };
            let d = i % 7;
            assert_eq!(spilled.insert_at(h, d), ram.insert_at(h, d), "insert {i}");
        }
        assert_eq!(spilled.len(), ram.len());
        assert_eq!(spilled.resizes(), ram.resizes());
        assert_eq!(spilled.export_entries(), ram.export_entries());
        let (len, bytes, resizes) = spilled.stats_snapshot();
        assert_eq!((len, resizes), (ram.len(), ram.resizes()));
        assert!(bytes <= budget.ram_bytes + spilled.spill_stats().unwrap().pages_written * 1024);
        assert!(spilled.error().is_none());
        assert!(
            spilled.spill_stats().unwrap().evictions > 0,
            "16-entry budget must spill"
        );
        assert!(spilled.peak_bytes() > 0);
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
}

//! The three decorators of the traced run. Each wraps a public trait
//! boundary of the checker and times the calls that cross it:
//!
//! * [`TracedSystem`] — `ModelSystem`, explorer → harness (`harness.*`,
//!   and `por.independent` for the POR relation the explorer queries);
//! * [`TracedTarget`] — `CheckedTarget`, harness → backend
//!   (`target.<fs>.*`);
//! * [`TracedVisited`] — `VisitedHandle`, explorer → visited set
//!   (`visited.insert`).
//!
//! Every call is forwarded unchanged; the decorators only observe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcfs::{AbstractionConfig, CheckedTarget, RepairOutcome};
use mdigest::Digest128;
use modelcheck::{
    ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, ResizeEvent, ShrinkStats,
    SpillStats, SpillStore, StateId, Visit, VisitedHandle,
};
use vfs::{FileSystem, FsCapabilities, VfsResult};

use crate::ledger::{SpanId, Tracer};

/// What a [`TracedSystem`] observed besides time, readable after the
/// system has moved into a swarm worker.
#[derive(Debug, Default)]
pub struct Observed {
    /// `apply` calls that returned `Prune` (the explorer's `pruned` count
    /// adds its sleep-set skips to these).
    pub prunes: AtomicU64,
    /// Peak host bytes held by the checkpoint store, sampled after every
    /// checkpoint.
    pub peak_resident: AtomicU64,
}

/// `ModelSystem` decorator: the explorer → harness boundary.
pub struct TracedSystem<S> {
    inner: S,
    tracer: Tracer,
    ids: [SpanId; 7],
    seen: Arc<Observed>,
}

const APPLY: usize = 0;
const ABSTRACT: usize = 1;
const OPS: usize = 2;
const RESTORE: usize = 3;
const CHECKPOINT: usize = 4;
const RELEASE: usize = 5;
const INDEPENDENT: usize = 6;

impl<S: ModelSystem> TracedSystem<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        let ids = [
            "harness.apply",
            "harness.abstract_state",
            "harness.ops",
            "harness.restore",
            "harness.checkpoint",
            "harness.release",
            "por.independent",
        ]
        .map(|n| tracer.id(n));
        TracedSystem {
            inner,
            tracer,
            ids,
            seen: Arc::default(),
        }
    }

    /// The shared record of what this decorator observed.
    pub fn observed(&self) -> Arc<Observed> {
        self.seen.clone()
    }
}

impl<S: ModelSystem> ModelSystem for TracedSystem<S> {
    type Op = S::Op;

    fn ops(&mut self) -> Vec<S::Op> {
        self.tracer.span(self.ids[OPS], || self.inner.ops())
    }

    fn apply(&mut self, op: &S::Op) -> ApplyOutcome {
        let out = self.tracer.span(self.ids[APPLY], || self.inner.apply(op));
        if matches!(out, ApplyOutcome::Prune(_)) {
            self.seen.prunes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn abstract_state(&mut self) -> u128 {
        self.tracer
            .span(self.ids[ABSTRACT], || self.inner.abstract_state())
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        let out = self
            .tracer
            .span(self.ids[CHECKPOINT], || self.inner.checkpoint(id));
        if let Some(s) = self.inner.checkpoint_store_stats() {
            let resident = u64::try_from(s.resident_bytes).unwrap_or(u64::MAX);
            self.seen
                .peak_resident
                .fetch_max(resident, Ordering::Relaxed);
        }
        out
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        self.tracer
            .span(self.ids[RESTORE], || self.inner.restore(id))
    }

    fn release(&mut self, id: StateId) {
        self.tracer
            .span(self.ids[RELEASE], || self.inner.release(id))
    }

    fn pin(&mut self, id: StateId) {
        self.inner.pin(id)
    }

    fn unpin(&mut self, id: StateId) {
        self.inner.unpin(id)
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        self.inner.checkpoint_store_stats()
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.inner.crash_stats()
    }

    fn independent(&self, a: &S::Op, b: &S::Op) -> bool {
        self.tracer
            .span(self.ids[INDEPENDENT], || self.inner.independent(a, b))
    }

    fn persistent_set(&mut self, enabled: &[S::Op]) -> Option<Vec<bool>> {
        self.inner.persistent_set(enabled)
    }

    fn minimize(&mut self, trace: &[S::Op], message: &str) -> Option<(Vec<S::Op>, ShrinkStats)> {
        self.inner.minimize(trace, message)
    }
}

/// `CheckedTarget` decorator: the harness → backend boundary, named after
/// the file system it wraps.
pub struct TracedTarget {
    inner: Box<dyn CheckedTarget>,
    tracer: Tracer,
    ids: [SpanId; 8],
}

const MOUNT: usize = 0;
const UNMOUNT: usize = 1;
const TRACK: usize = 2;
const INVALIDATE: usize = 3;
const FINGERPRINT: usize = 4;
const SAVE: usize = 5;
const LOAD: usize = 6;
const DROP: usize = 7;

/// The target spans, in the order of the `TracedTarget` span table.
pub const TARGET_SPANS: [&str; 8] = [
    "mount",
    "unmount",
    "track",
    "invalidate",
    "fingerprint",
    "save",
    "load",
    "drop",
];

impl TracedTarget {
    /// Wraps `inner` as `target.<fs>.*`.
    pub fn new(inner: Box<dyn CheckedTarget>, fs: &str, tracer: Tracer) -> Self {
        let ids = TARGET_SPANS.map(|s| tracer.id(&format!("target.{fs}.{s}")));
        TracedTarget { inner, tracer, ids }
    }
}

impl CheckedTarget for TracedTarget {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fs_mut(&mut self) -> &mut dyn FileSystem {
        self.inner.fs_mut()
    }

    fn capabilities(&self) -> FsCapabilities {
        self.inner.capabilities()
    }

    fn strategy(&self) -> &'static str {
        self.inner.strategy()
    }

    fn save_state(&mut self, key: u64) -> VfsResult<usize> {
        self.tracer
            .span(self.ids[SAVE], || self.inner.save_state(key))
    }

    fn load_state(&mut self, key: u64) -> VfsResult<()> {
        self.tracer
            .span(self.ids[LOAD], || self.inner.load_state(key))
    }

    fn drop_state(&mut self, key: u64) -> VfsResult<()> {
        self.tracer
            .span(self.ids[DROP], || self.inner.drop_state(key))
    }

    fn set_checkpoint_budget(&mut self, budget: Option<usize>) {
        self.inner.set_checkpoint_budget(budget)
    }

    fn set_checkpoint_spill(&mut self, store: Arc<SpillStore>) {
        self.inner.set_checkpoint_spill(store)
    }

    fn pin_state(&mut self, key: u64) {
        self.inner.pin_state(key)
    }

    fn unpin_state(&mut self, key: u64) {
        self.inner.unpin_state(key)
    }

    fn checkpoint_stats(&self) -> Option<CheckpointStoreStats> {
        self.inner.checkpoint_stats()
    }

    fn pre_op(&mut self) -> VfsResult<()> {
        self.tracer.span(self.ids[MOUNT], || self.inner.pre_op())
    }

    fn post_op(&mut self) -> VfsResult<()> {
        self.tracer.span(self.ids[UNMOUNT], || self.inner.post_op())
    }

    fn raw_state_hash(&mut self) -> Option<u128> {
        self.inner.raw_state_hash()
    }

    fn track_state(&mut self) -> VfsResult<()> {
        self.tracer
            .span(self.ids[TRACK], || self.inner.track_state())
    }

    fn invalidate_fingerprints(&mut self, touched: &[&str]) {
        self.tracer.span(self.ids[INVALIDATE], || {
            self.inner.invalidate_fingerprints(touched)
        })
    }

    fn cached_abstract_state(&mut self, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
        self.tracer.span(self.ids[FINGERPRINT], || {
            self.inner.cached_abstract_state(cfg)
        })
    }

    fn supports_crash(&self) -> bool {
        self.inner.supports_crash()
    }

    fn crash_remount(&mut self) -> VfsResult<()> {
        self.inner.crash_remount()
    }

    fn supports_fsck(&self) -> bool {
        self.inner.supports_fsck()
    }

    fn fsck(&mut self) -> VfsResult<RepairOutcome> {
        self.inner.fsck()
    }
}

/// `VisitedHandle` decorator: the explorer → visited-set boundary.
pub struct TracedVisited<V> {
    inner: V,
    tracer: Tracer,
    insert: SpanId,
    resizes: u64,
}

impl<V: VisitedHandle> TracedVisited<V> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: V, tracer: Tracer) -> Self {
        let insert = tracer.id("visited.insert");
        TracedVisited {
            inner,
            tracer,
            insert,
            resizes: 0,
        }
    }

    /// Resize events the set reported.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// The wrapped set.
    pub fn inner(&self) -> &V {
        &self.inner
    }
}

impl<V: VisitedHandle> VisitedHandle for TracedVisited<V> {
    fn insert_at(&mut self, h: u128, depth: u32) -> (Visit, Option<ResizeEvent>) {
        let out = self
            .tracer
            .span(self.insert, || self.inner.insert_at(h, depth));
        if out.1.is_some() {
            self.resizes += 1;
        }
        out
    }

    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn peak_bytes(&self) -> u64 {
        self.inner.peak_bytes()
    }

    fn error(&self) -> Option<String> {
        self.inner.error()
    }

    fn take_pending_ns(&mut self) -> u64 {
        self.inner.take_pending_ns()
    }

    fn spill_stats(&self) -> Option<SpillStats> {
        self.inner.spill_stats()
    }
}

//! Swarm verification: many searches in parallel, optionally work-stealing
//! and resumable.
//!
//! SPIN's swarm technique (Holzmann et al.) runs N independent verifications
//! with different seeds and strategies — the paper plans to use it to explore
//! larger state spaces in parallel (§7). [`run_swarm`] runs one explorer per
//! worker thread over systems produced by a factory, with a shared stop flag
//! so the first violation cancels the fleet.
//!
//! Every fleet runs one spawn-and-round loop; its workers differ only in how
//! they search ([`SwarmConfig::strategies`], cycled over the workers):
//!
//! * **Walks** ([`WorkerStrategy::Walk`], and every worker when `strategies`
//!   is empty): each worker runs a seed-diversified [`RandomWalk`]. In an
//!   all-walk fleet without [`SwarmConfig::shared_visited`] every walk has
//!   a private visited set, so workers re-expand each other's states
//!   (maximum diversity); otherwise they share one [`ShardedVisited`] and a
//!   state expanded anywhere is pruned everywhere.
//! * **Work-stealing frontier** ([`WorkerStrategy::Dfs`]): pending states
//!   live in per-worker deques as *replayable op-prefixes*
//!   ([`FrontierEntry`]); a worker pops its newest entry, and one whose
//!   deque runs dry steals the oldest half of a victim's. The shared
//!   visited set arbitrates, so each state is expanded exactly once
//!   fleet-wide and DFS — not just walks — parallelizes. Walk workers in
//!   the same fleet prune against (and feed) the same set.
//!   The system's independence relation (e.g. the harness's `EffectIndex`)
//!   still applies per-worker through sleep sets carried in the entries.
//!
//! The op-prefix frontier is also what makes a swarm *resumable*:
//! [`run_swarm_persistent`] periodically pickles the shared visited set, the
//! frontier, RNG cursors, and cumulative stats to disk (atomically — see
//! [`pickle::save_atomic`]) and can start from a loaded [`RunSnapshot`],
//! re-exploring zero already-visited states. Snapshots are taken at *round*
//! boundaries: the fleet runs `snapshot_every` expansions, the worker scope
//! joins (queues quiescent — no entry is ever half-expanded), the snapshot
//! is cut, and the next round's workers are re-spawned from the factory.
//!
//! A panicking worker does not abort the fleet: the panic is caught, the
//! worker's slot reports [`StopReason::WorkerPanic`], its queue remains
//! stealable by survivors, and the rest of the fleet runs to completion.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::explore::{
    spill_init_failure, with_fresh_visited, ExploreConfig, ExploreReport, ExploreStats, RandomWalk,
    Search, Step, StopReason,
};
use crate::pickle::SnapshotWriter;
use crate::pickle::{self, deal_frontier, FrontierEntry, OpCodec, RngCursor, RunSnapshot};
use crate::spill::{FrontierQueue, FrontierSpill, SpillCtx, SpillStats};
use crate::system::{ApplyOutcome, ModelSystem, StateId, Violation};
use crate::visited::{ShardedVisited, Visit};

/// How one swarm worker searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStrategy {
    /// Pop the newest frontier entry (depth-first flavour: best replay
    /// locality — children of the state just expanded replay one op).
    Dfs,
    /// Seed-diversified random walk over the shared visited set; does not
    /// consume the frontier but prunes against (and feeds) the same set.
    Walk,
}

/// Swarm configuration.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Number of worker searches.
    pub workers: usize,
    /// Base exploration config; walk workers get `seed = base.seed + index`
    /// (classic swarm diversification). In frontier mode `max_ops` and
    /// `max_states` are *fleet-wide* budgets — the frontier is shared, so
    /// per-worker budgets would be arbitrary; walk workers keep per-worker
    /// op budgets as before.
    pub base: ExploreConfig,
    /// Share one sharded visited set across the fleet so workers skip
    /// states another worker already expanded, instead of duplicating work
    /// with private per-worker sets. Only an all-walk [`run_swarm`] fleet
    /// can turn it off: frontier workers need the shared set (work-stealing
    /// without one would be unsound), and [`run_swarm_persistent`] pickles
    /// it.
    pub shared_visited: bool,
    /// Per-worker strategy assignment, cycled over the worker index (e.g.
    /// `[Dfs, Dfs, Walk]` over 5 workers gives Dfs,Dfs,Walk,Dfs,Dfs).
    /// Empty makes every worker walk.
    ///
    /// Out-of-core operation rides in [`ExploreConfig::mem_budget`] on
    /// `base`: a shared visited set becomes disk-spilling, every worker's
    /// system gets its store ([`ModelSystem::attach_spill`]), and in
    /// [`run_swarm_persistent`] (where an op codec exists) the per-worker
    /// frontier queues spill cold op-prefix pages to the same store.
    pub strategies: Vec<WorkerStrategy>,
}

/// Persistence options for [`run_swarm_persistent`].
pub struct SwarmPersist<'a, Op> {
    /// Encoder/decoder for the system's op type.
    pub codec: &'a (dyn OpCodec<Op> + Sync),
    /// Where to write snapshots (atomic tempfile + rename); `None` disables
    /// snapshotting (a run can still *start* from `resume`).
    pub snapshot_path: Option<PathBuf>,
    /// Snapshot cadence in frontier expansions (walk workers count ops
    /// toward it). The fleet pauses at this boundary — workers park between
    /// entry expansions — so every snapshot is a consistent visited+frontier
    /// cut. 0 means "only at the end of the run".
    ///
    /// When this is non-zero the factory is called once per worker per
    /// *round*, so it must produce a fresh system (at the initial state) on
    /// every call.
    pub snapshot_every: u64,
    /// Resume from a previously pickled snapshot: its visited set is
    /// preloaded (no contained state is ever re-counted), its frontier is
    /// redistributed across the workers, and its stats become the report's
    /// [`SwarmReport::baseline`].
    pub resume: Option<RunSnapshot<Op>>,
}

/// Aggregated swarm outcome.
#[derive(Debug)]
pub struct SwarmReport<Op> {
    /// Per-worker reports, indexed by worker. A worker that panicked
    /// reports [`StopReason::WorkerPanic`] with the stats it had
    /// accumulated before dying.
    pub workers: Vec<ExploreReport<Op>>,
    /// Distinct states in the shared visited set at the end of the run,
    /// when one was used. `None` for private-set walk fleets, where no
    /// global distinct count exists.
    pub distinct_states: Option<u64>,
    /// Stats carried in from the resumed snapshot (zero for fresh runs) —
    /// the totals below include them, so a resumed run reports its whole
    /// life, not just the latest process.
    pub baseline: ExploreStats,
    /// Error from the last snapshot write, if any (the search itself still
    /// completed; only persistence failed).
    pub persist_error: Option<String>,
    /// Fleet-wide spill counters of the *shared* visited set (and any
    /// spilling frontier queues, which share its page store). Per-worker
    /// stats deliberately exclude these — the set is one global structure,
    /// so charging each worker the whole set's traffic would overcount on
    /// merge. `None` when no shared spill-backed set was used (private-set
    /// fleets report per-worker `stats.spill` instead).
    pub spill: Option<SpillStats>,
    /// Peak hot-cache bytes of the shared visited set (0 without one).
    pub visited_peak_bytes: u64,
}

impl<Op> SwarmReport<Op> {
    /// Total operations executed across the swarm's whole life (including
    /// generations before a resume; prefix replays are counted separately —
    /// see [`SwarmReport::total_replayed`]).
    pub fn total_ops(&self) -> u64 {
        self.total(|s| s.ops_executed)
    }

    /// `count` summed over the resumed baseline and every worker.
    fn total(&self, count: impl Fn(&ExploreStats) -> u64) -> u64 {
        count(&self.baseline) + self.workers.iter().map(|w| count(&w.stats)).sum::<u64>()
    }

    /// Total distinct states found by the swarm.
    ///
    /// With a shared visited set this is the set's true distinct count, not
    /// a per-worker sum: summing `states_new` undercounts resumed runs
    /// (preloaded states appear in no worker's count) and makes private-
    /// and shared-set numbers incomparable. With private sets workers may
    /// genuinely overlap and the per-worker sum is the only number there
    /// is.
    pub fn total_states(&self) -> u64 {
        self.distinct_states
            .unwrap_or_else(|| self.total(|s| s.states_new))
    }

    /// Total operations replayed to reconstruct frontier states from their
    /// op-prefixes — the overhead work-stealing and resume pay instead of
    /// shipping concrete state between workers or processes.
    pub fn total_replayed(&self) -> u64 {
        self.total(|s| s.ops_replayed)
    }

    /// All violations found by any worker.
    pub fn violations(&self) -> impl Iterator<Item = &Violation<Op>> {
        self.workers.iter().flat_map(|w| w.violations.iter())
    }

    /// Whether any worker found a violation.
    pub fn found_violation(&self) -> bool {
        self.workers.iter().any(|w| w.stop == StopReason::Violation)
    }

    /// The violation with the shortest reproduction trace across all
    /// workers, judging each by its minimized trace when the worker that
    /// found it minimized ([`crate::Violation::best_trace`]). Each worker
    /// minimizes its own finds; the swarm reports the overall shortest.
    pub fn shortest_violation(&self) -> Option<&Violation<Op>> {
        self.violations().min_by_key(|v| v.best_trace().len())
    }

    /// Panic messages of workers that died, with their worker index.
    pub fn panics(&self) -> impl Iterator<Item = (usize, &str)> {
        self.workers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| match &w.stop {
                StopReason::WorkerPanic(msg) => Some((i, msg.as_str())),
                _ => None,
            })
    }
}

/// Renders a panic payload for [`StopReason::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// A fleet that could not start because the shared spill store failed to
/// initialize: every worker slot reports the failure.
fn spill_init_report<Op>(workers: usize, e: &str) -> SwarmReport<Op> {
    SwarmReport {
        workers: (0..workers).map(|_| spill_init_failure(e)).collect(),
        distinct_states: None,
        baseline: ExploreStats::default(),
        persist_error: None,
        spill: None,
        visited_peak_bytes: 0,
    }
}

/// The fleet-shared visited set. One shard per worker (rounded up to a
/// power of two, min 8) keeps same-shard collisions between workers rare;
/// with a memory budget the set spills cold entries to disk instead.
fn fleet_visited(base: &ExploreConfig, workers: usize) -> Result<ShardedVisited, String> {
    match &base.mem_budget {
        Some(budget) => ShardedVisited::with_spill(base.visited_capacity, budget),
        None => Ok(ShardedVisited::new(base.visited_capacity, workers.max(8))),
    }
}

/// Runs `cfg.workers` searches in parallel over systems produced by
/// `factory` (one system per worker, seeded by worker index).
///
/// With an empty [`SwarmConfig::strategies`] every worker walks; otherwise
/// the assignment is cycled over the workers (see the module docs). The
/// first worker to find a violation raises the shared stop flag. A worker
/// panic is contained to its slot (see [`SwarmReport::panics`]); the rest
/// of the fleet keeps searching.
pub fn run_swarm<S, F>(cfg: &SwarmConfig, factory: F) -> SwarmReport<S::Op>
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    run_fleet::<S, F>(cfg, factory, None)
}

/// Runs a resumable swarm: like [`run_swarm`], always over a shared
/// visited set, plus periodic atomic snapshots and/or an initial state
/// loaded from a [`RunSnapshot`] (see [`SwarmPersist`]).
pub fn run_swarm_persistent<S, F>(
    cfg: &SwarmConfig,
    factory: F,
    persist: SwarmPersist<'_, S::Op>,
) -> SwarmReport<S::Op>
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    run_fleet::<S, F>(cfg, factory, Some(persist))
}

// ---------------------------------------------------------------------------
// The fleet loop
// ---------------------------------------------------------------------------

/// Per-worker checkpoint cache capacity: concrete states keyed by the
/// op-prefix that reaches them, so a worker expanding its own just-pushed
/// children replays one op instead of the whole prefix. Eviction is FIFO —
/// with LIFO (Dfs) pops the newest cached states are the hot ones.
const PREFIX_CACHE_CAP: usize = 64;

/// Shared coordination state of one fleet.
struct FrontierShared<Op> {
    /// Per-worker frontier queues. Owners push children to and pop them
    /// from the back; thieves steal from the front (oldest entries — the
    /// biggest unexplored subtrees). Under a memory budget with a codec,
    /// cold middles spill to pages.
    queues: Vec<Mutex<FrontierQueue<Op>>>,
    /// Spill context for the queues: present only in persistent runs with a
    /// [`crate::MemBudget`] (spilling op-prefixes needs the op codec).
    frontier_spill: Option<FrontierSpill>,
    /// The fleet-shared visited set (also what gets pickled); `None` only
    /// for an all-walk fleet of private sets.
    visited: Option<ShardedVisited>,
    /// Workers currently expanding an entry; termination needs empty queues
    /// *and* zero busy workers (a busy worker may be about to push
    /// children).
    busy: AtomicUsize,
    /// First violation (or fleet-wide budget) raised: everyone drains.
    stop: AtomicBool,
    /// The current round's expansion quota is spent: workers park between
    /// entry expansions so a consistent snapshot can be cut.
    round_done: AtomicBool,
    /// Expansions (and walk ops) performed this round.
    round_work: AtomicU64,
    /// Fleet-wide executed-op / new-state counters backing the shared
    /// budgets; initialized with the resumed baseline so budgets span
    /// generations.
    ops_total: AtomicU64,
    states_total: AtomicU64,
}

impl<Op> FrontierShared<Op> {
    /// The fleet-shared visited set, which frontier workers and persistent
    /// runs always have.
    fn fleet_set(&self) -> &ShardedVisited {
        self.visited
            .as_ref()
            .expect("frontier workers and snapshots run over the fleet set")
    }

    /// Builds worker `idx`'s system from `factory`, attached to the fleet
    /// set's spill store when the set spills (a private-set walk attaches
    /// its own through [`with_fresh_visited`]).
    fn system<S, F>(&self, factory: &F, idx: usize) -> S
    where
        S: ModelSystem<Op = Op>,
        F: Fn(usize) -> S,
    {
        let mut sys = factory(idx);
        if let Some(set) = self.visited.as_ref().and_then(ShardedVisited::spill_set) {
            sys.attach_spill(set.store());
        }
        sys
    }

    fn queues_all_empty(&self) -> bool {
        self.queues.iter().all(|q| q.lock().is_empty())
    }

    /// Counts one unit of round work and raises the round flag at `quota`
    /// (a fleet without rounds, `u64::MAX`, counts nothing).
    fn tick_round(&self, quota: u64) {
        if quota != u64::MAX && self.round_work.fetch_add(1, Ordering::SeqCst) + 1 >= quota {
            self.round_done.store(true, Ordering::SeqCst);
        }
    }
}

/// Decrements `busy` even if the expansion panics, so the survivors'
/// termination detection cannot wedge on a dead worker's stale count.
struct BusyGuard<'a>(&'a AtomicUsize);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The worker-index → strategy assignment for a fleet: `strategies`
/// cycled, or every worker walking when it is empty.
fn resolve_strategies(cfg: &SwarmConfig) -> Vec<WorkerStrategy> {
    let cycle = match cfg.strategies.as_slice() {
        [] => &[WorkerStrategy::Walk],
        some => some,
    };
    (0..cfg.workers.max(1))
        .map(|i| cycle[i % cycle.len()])
        .collect()
}

/// Derives a walk worker's seed for a given round/generation — diversified
/// so resumed or later-round walks explore new paths instead of repeating
/// ones the shared visited set has already pruned.
fn walk_seed(base: u64, idx: usize, round: u64, generation: u32) -> u64 {
    base.wrapping_add(idx as u64)
        .wrapping_add(round.wrapping_mul(0x9E37_79B9))
        .wrapping_add((generation as u64).wrapping_mul(0x85EB_CA6B_0000))
}

/// The one fleet loop behind [`run_swarm`] and [`run_swarm_persistent`]:
/// spawn the pending workers, join them at the round boundary, snapshot,
/// and repeat until every worker is done or the fleet stops.
fn run_fleet<S, F>(
    cfg: &SwarmConfig,
    factory: F,
    persist: Option<SwarmPersist<'_, S::Op>>,
) -> SwarmReport<S::Op>
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    let workers = cfg.workers.max(1);
    let strategies = resolve_strategies(cfg);
    let frontier_idxs: Vec<usize> = strategies
        .iter()
        .enumerate()
        .filter(|(_, s)| **s != WorkerStrategy::Walk)
        .map(|(i, _)| i)
        .collect();
    // Frontier workers arbitrate stolen work through the fleet set, and a
    // persistent run pickles it: only a plain all-walk fleet may go without.
    let shared_visited = cfg.shared_visited || persist.is_some() || !frontier_idxs.is_empty();
    let visited = match shared_visited
        .then(|| fleet_visited(&cfg.base, workers))
        .transpose()
    {
        Ok(v) => v,
        Err(e) => return spill_init_report(workers, &e),
    };

    let mut baseline = ExploreStats::default();
    let mut generation = 0u32;
    let mut initial_frontier: Option<Vec<FrontierEntry<S::Op>>> = None;
    let (codec, snapshot_path, snapshot_every, resume) = match persist {
        Some(p) => (Some(p.codec), p.snapshot_path, p.snapshot_every, p.resume),
        None => (None, None, 0, None),
    };
    if let (Some(snap), Some(visited)) = (resume, &visited) {
        visited.load_entries(&snap.visited);
        baseline = snap.stats;
        generation = snap.generation + 1;
        initial_frontier = Some(snap.frontier);
    }

    // Frontier spilling needs both a budget (the hot cap) and a codec (to
    // encode op-prefixes into pages); the queues share the visited set's
    // page store so one spill file serves the whole run.
    let frontier_spill = match (&cfg.base.mem_budget, codec, &visited) {
        (Some(budget), Some(_), Some(visited)) => visited
            .spill_set()
            .map(|s| FrontierSpill::new(s.store().clone(), budget.frontier_hot_bytes)),
        _ => None,
    };

    let shared = FrontierShared::<S::Op> {
        queues: (0..workers)
            .map(|_| Mutex::new(FrontierQueue::new()))
            .collect(),
        frontier_spill,
        visited,
        busy: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        round_done: AtomicBool::new(false),
        round_work: AtomicU64::new(0),
        ops_total: AtomicU64::new(baseline.ops_executed),
        states_total: AtomicU64::new(baseline.states_new),
    };

    // Seed the frontier: the resumed entries round-robin across frontier
    // (non-walk) workers, or the single root entry for a fresh run.
    match initial_frontier {
        Some(entries) => {
            let dealt = deal_frontier(entries, frontier_idxs.len().max(1));
            for (slot, queue) in dealt.into_iter().enumerate() {
                // An all-walk fleet parks resumed entries on queue 0: never
                // expanded, but carried forward into the next snapshot.
                // Seeding never spills (no I/O to fail here); the first
                // over-budget worker push drains the excess to pages.
                let idx = frontier_idxs.get(slot).copied().unwrap_or(0);
                shared.queues[idx].lock().extend_back(queue.into());
            }
        }
        None => {
            if let Some(&first) = frontier_idxs.first() {
                shared.queues[first].lock().extend_back(vec![FrontierEntry {
                    prefix: Vec::new(),
                    sleep: Vec::new(),
                }]);
            }
        }
    }

    // Per-worker accumulators, merged across snapshot rounds.
    let mut agg_stats: Vec<ExploreStats> = (0..workers).map(|_| ExploreStats::default()).collect();
    let mut agg_violations: Vec<Vec<Violation<S::Op>>> = (0..workers).map(|_| Vec::new()).collect();
    let mut last_stop: Vec<Option<StopReason>> = (0..workers).map(|_| None).collect();
    let mut pending: Vec<bool> = (0..workers).map(|_| true).collect();
    let mut persist_error = None;
    let mut round = 0u64;

    loop {
        shared.round_done.store(false, Ordering::SeqCst);
        shared.round_work.store(0, Ordering::SeqCst);
        let quota = if snapshot_path.is_some() && snapshot_every > 0 {
            snapshot_every
        } else {
            u64::MAX
        };

        // mcfs-lint: allow(MC007, per-worker results land in indexed slots; the merge below is worker-order deterministic)
        std::thread::scope(|scope| {
            for (idx, ((stats_slot, viol_slot), stop_slot)) in agg_stats
                .iter_mut()
                .zip(agg_violations.iter_mut())
                .zip(last_stop.iter_mut())
                .enumerate()
            {
                if !pending[idx] {
                    continue;
                }
                let shared = &shared;
                let factory = &factory;
                let base = &cfg.base;
                let strategy = strategies[idx];
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| match strategy {
                        WorkerStrategy::Walk => run_walk_round::<S, F>(
                            idx, factory, base, shared, round, generation, quota, stats_slot,
                            viol_slot,
                        ),
                        WorkerStrategy::Dfs => run_frontier_worker::<S, F>(
                            idx, factory, base, shared, quota, codec, stats_slot, viol_slot,
                        ),
                    }));
                    let outcome = match result {
                        Ok(reason) => reason,
                        Err(payload) => Some(StopReason::WorkerPanic(panic_message(payload))),
                    };
                    if let Some(reason) = outcome {
                        *stop_slot = Some(reason);
                    }
                });
            }
        });

        // A worker whose round ended with a terminal reason is not
        // re-spawned; `None` means the round quota interrupted it mid-search
        // and it resumes next round.
        for idx in 0..workers {
            if pending[idx] && last_stop[idx].is_some() {
                pending[idx] = false;
            }
        }

        // Snapshot at the (quiescent) round boundary: the scope joined, so
        // the queues and visited set are a consistent cut of the search.
        // Both big sections stream — visited entries page-by-page through
        // the writer, spilled frontier pages one queue at a time — so the
        // snapshot path never materializes the whole set as a second copy.
        if let (Some(path), Some(codec)) = (&snapshot_path, codec) {
            let ctx: SpillCtx<'_, S::Op> = shared
                .frontier_spill
                .as_ref()
                .map(|fs| (fs, codec as &dyn OpCodec<S::Op>));
            let mut frontier = Vec::new();
            let mut frontier_err: Option<String> = None;
            for q in &shared.queues {
                match q.lock().collect_all(ctx) {
                    Ok(entries) => frontier.extend(entries),
                    Err(e) => {
                        frontier_err = Some(e);
                        break;
                    }
                }
            }
            let visited = shared.fleet_set();
            let mut stats = baseline.clone();
            for s in &agg_stats {
                stats.merge(s);
            }
            // The shared set's fleet-wide spill counters ride in the
            // snapshot stats (per-worker stats exclude them — see
            // `SwarmReport::spill`).
            stats.merge(&ExploreStats {
                spill: visited.spill_stats(),
                visited_peak_bytes: visited.peak_bytes(),
                ..ExploreStats::default()
            });
            let rng: Vec<RngCursor> = (0..workers)
                .map(|i| RngCursor {
                    seed: walk_seed(cfg.base.seed, i, round, generation),
                    draws: agg_stats[i].ops_executed,
                })
                .collect();
            match frontier_err {
                Some(e) => persist_error = Some(format!("frontier snapshot failed: {e}")),
                None => {
                    let mut w =
                        SnapshotWriter::new(codec, cfg.base.seed, workers as u32, generation);
                    w.begin_visited(visited.len() as u32);
                    match visited.stream_entries(|h, d| w.visited_entry(h, d)) {
                        Ok(()) => {
                            w.frontier(&frontier);
                            w.rng(&rng);
                            let bytes = w.finish(&stats);
                            if let Err(e) = pickle::save_atomic(path, &bytes) {
                                persist_error = Some(e.to_string());
                            }
                        }
                        Err(e) => {
                            persist_error = Some(format!("visited snapshot failed: {e}"));
                        }
                    }
                }
            }
        }

        round += 1;
        if shared.stop.load(Ordering::SeqCst) || pending.iter().all(|p| !p) || quota == u64::MAX {
            break;
        }
    }

    SwarmReport {
        workers: agg_stats
            .into_iter()
            .zip(agg_violations)
            .zip(last_stop)
            .map(|((stats, violations), stop)| ExploreReport {
                stats,
                violations,
                stop: stop.unwrap_or(StopReason::Exhausted),
            })
            .collect(),
        distinct_states: shared.visited.as_ref().map(|v| v.len() as u64),
        baseline,
        persist_error,
        spill: shared
            .visited
            .as_ref()
            .and_then(ShardedVisited::spill_stats),
        visited_peak_bytes: shared
            .visited
            .as_ref()
            .map_or(0, ShardedVisited::peak_bytes),
    }
}

/// One round of a walk worker: a seed-diversified random walk over the
/// fleet set, or over a fresh private set when the fleet has none, drained
/// early if the round quota or stop flag rises.
#[allow(clippy::too_many_arguments)]
fn run_walk_round<S, F>(
    idx: usize,
    factory: &F,
    base: &ExploreConfig,
    shared: &FrontierShared<S::Op>,
    round: u64,
    generation: u32,
    quota: u64,
    stats_slot: &mut ExploreStats,
    viol_slot: &mut Vec<Violation<S::Op>>,
) -> Option<StopReason>
where
    S: ModelSystem,
    F: Fn(usize) -> S + Sync,
{
    let mut worker_cfg = base.clone();
    worker_cfg.seed = walk_seed(base.seed, idx, round, generation);
    // Per-worker op budget, minus what this worker's earlier rounds used.
    worker_cfg.max_ops = base.max_ops.saturating_sub(stats_slot.ops_executed);
    if worker_cfg.max_ops == 0 {
        return Some(StopReason::OpBudget);
    }
    let walk = RandomWalk::new(worker_cfg);
    let mut sys = shared.system(factory, idx);
    let tick = |_: &ExploreStats| shared.tick_round(quota);
    let halt = || shared.stop.load(Ordering::Relaxed) || shared.round_done.load(Ordering::Relaxed);
    let report = match &shared.visited {
        // The fleet set's spill counters are fleet-wide, so they surface
        // once in `SwarmReport::spill` (and the snapshot stats), not per
        // worker, where summing copies of the same global counters would
        // overcount.
        Some(visited) => {
            let mut report = walk.run_until(&mut sys, &mut visited.clone(), tick, halt);
            report.stats.spill = None;
            report.stats.visited_peak_bytes = 0;
            report
        }
        None => with_fresh_visited(base, &mut sys, |sys, visited| {
            walk.run_until(sys, visited, tick, halt)
        }),
    };
    let drained_by_round = shared.round_done.load(Ordering::SeqCst);
    stats_slot.merge(&report.stats);
    viol_slot.extend(report.violations);
    match report.stop {
        StopReason::Violation => {
            shared.stop.store(true, Ordering::SeqCst);
            Some(StopReason::Violation)
        }
        // Drained at the round boundary: the walk has budget left, resume
        // it next round (with a fresh derived seed).
        StopReason::Exhausted if drained_by_round => None,
        other => Some(other),
    }
}

/// A frontier (Dfs) worker's round: pop-or-steal entries and expand
/// them against the shared visited set until the frontier is exhausted, a
/// budget trips, or the round quota pauses the fleet.
///
/// Returns `Some(reason)` when the worker is done for good, `None` when the
/// round quota (or a fleet stop raised elsewhere) interrupted it.
#[allow(clippy::too_many_arguments)]
fn run_frontier_worker<S, F>(
    idx: usize,
    factory: &F,
    cfg: &ExploreConfig,
    shared: &FrontierShared<S::Op>,
    quota: u64,
    codec: Option<&(dyn OpCodec<S::Op> + Sync)>,
    stats: &mut ExploreStats,
    viols: &mut Vec<Violation<S::Op>>,
) -> Option<StopReason>
where
    S: ModelSystem,
    F: Fn(usize) -> S + Sync,
{
    // Queue spill context: page store + codec, present only in budgeted
    // persistent runs (both live for the whole scope, so one binding
    // serves every queue operation below).
    let ctx: SpillCtx<'_, S::Op> = match (&shared.frontier_spill, codec) {
        (Some(fs), Some(c)) => Some((fs, c as &dyn OpCodec<S::Op>)),
        _ => None,
    };
    // A spill failure anywhere poisons the store: stop the fleet loudly so
    // no worker keeps searching over a silently shrunken frontier/visited
    // set (the error message carries the replayable cause).
    let spill_fatal = |what: &str, e: String| {
        shared.stop.store(true, Ordering::SeqCst);
        Some(StopReason::Fatal(format!("{what} spill failed: {e}")))
    };
    let mut sys = shared.system(factory, idx);
    let mut visited = shared.fleet_set().clone();
    // No clock: frontier workers charge no memory model, since their
    // checkpoints are a replay cache, not a modelled state store.
    let mut k = Search::new(cfg, None, stats, viols);
    let root = StateId(0);
    let mut next_id = 1u64;
    if let Err(e) = sys.checkpoint(root) {
        return Some(StopReason::Fatal(e));
    }
    // The root is every replay's fallback: pinned so the budgeted store can
    // never evict it.
    sys.pin(root);
    k.stats.checkpoints += 1;
    // Every worker fingerprints the root, but only the fleet-wide first
    // insert counts it as a discovered state (resumed runs re-match it).
    if visited.insert_at(sys.abstract_state(), 0).0 == Visit::New {
        k.stats.states_new += 1;
        shared.states_total.fetch_add(1, Ordering::SeqCst);
    }
    if let Some(e) = shared.fleet_set().error() {
        return spill_fatal("visited", e);
    }

    // Replay cache: op-prefix → concrete checkpoint, so expanding a child
    // of a recently expanded state replays one op, not the whole prefix.
    let mut cache: VecDeque<(Vec<S::Op>, StateId)> = VecDeque::new();
    let mut idle_spins = 0u32;

    'entries: loop {
        if shared.stop.load(Ordering::SeqCst) || shared.round_done.load(Ordering::SeqCst) {
            return None;
        }
        if shared.ops_total.load(Ordering::SeqCst) >= cfg.max_ops {
            shared.stop.store(true, Ordering::SeqCst);
            return Some(StopReason::OpBudget);
        }
        if shared.states_total.load(Ordering::SeqCst) >= cfg.max_states {
            shared.stop.store(true, Ordering::SeqCst);
            return Some(StopReason::StateBudget);
        }

        // Busy is raised *before* popping: an entry in hand always shows as
        // in-flight work, so idle workers cannot conclude "exhausted" while
        // children are still coming.
        shared.busy.fetch_add(1, Ordering::SeqCst);
        let guard = BusyGuard(&shared.busy);
        let popped = shared.queues[idx].lock().pop_back(ctx);
        let entry = match popped {
            Ok(Some(e)) => Some(e),
            Ok(None) => match steal(shared, idx, ctx) {
                Ok(e) => e,
                Err(e) => return spill_fatal("frontier", e),
            },
            Err(e) => return spill_fatal("frontier", e),
        };
        let Some(entry) = entry else {
            drop(guard);
            // The rare losing race here (another worker popped the last
            // entry between our two checks) costs this worker's
            // parallelism, never coverage: whoever holds an entry drains
            // its own children.
            if shared.busy.load(Ordering::SeqCst) == 0 && shared.queues_all_empty() {
                return Some(StopReason::Exhausted);
            }
            // Yield first (on a loaded single-CPU host this reschedules the
            // worker actually holding work); back off to a sleep only after
            // repeated misses so multi-CPU hosts don't burn a core.
            idle_spins += 1;
            if idle_spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
            continue;
        };
        idle_spins = 0;

        // --- Position the system at the entry's state: restore the longest
        // cached prefix, then deterministically replay the rest.
        let mut replay_from = 0usize;
        loop {
            // The first of the longest non-empty cached prefixes.
            let best = cache
                .iter()
                .enumerate()
                .filter(|(_, (p, _))| !p.is_empty() && entry.prefix.starts_with(p))
                .min_by_key(|(_, (p, _))| Reverse(p.len()))
                .map(|(ci, (p, _))| (ci, p.len()));
            let Some((ci, plen)) = best else {
                if let Err(stop) = k.enter(&mut sys, root) {
                    return Some(stop);
                }
                break;
            };
            match k.enter(&mut sys, cache[ci].1) {
                Ok(()) => {
                    replay_from = plen;
                    break;
                }
                // The cached checkpoint aged out of the budgeted store:
                // forget it, fall back to a shorter one.
                Err(StopReason::CheckpointEvicted(_)) => {
                    cache.remove(ci);
                }
                Err(stop) => return Some(stop),
            }
        }
        for (i, op) in entry.prefix.iter().enumerate().skip(replay_from) {
            match sys.apply(op) {
                ApplyOutcome::Ok => k.stats.ops_replayed += 1,
                ApplyOutcome::Prune(_) => {
                    // A prefix that replayed cleanly when discovered cannot
                    // prune under deterministic replay; treat it as a stale
                    // entry and drop it rather than poison the run.
                    k.stats.pruned += 1;
                    shared.tick_round(quota);
                    continue 'entries;
                }
                ApplyOutcome::Violation(message) => {
                    k.record(&mut sys, entry.prefix[..=i].to_vec(), message);
                    if cfg.stop_on_violation {
                        shared.stop.store(true, Ordering::SeqCst);
                        return Some(StopReason::Violation);
                    }
                    shared.tick_round(quota);
                    continue 'entries;
                }
            }
        }

        // --- Checkpoint the entry state (restored once per sibling op
        // below) and cache it for this worker's future replays.
        let ent_id = StateId(next_id);
        next_id += 1;
        if let Err(e) = sys.checkpoint(ent_id) {
            return Some(StopReason::Fatal(e));
        }
        sys.pin(ent_id);
        k.stats.checkpoints += 1;
        cache.push_back((entry.prefix.clone(), ent_id));
        if cache.len() > PREFIX_CACHE_CAP {
            if let Some((_, old)) = cache.pop_front() {
                sys.release(old);
            }
        }

        // --- Expand: apply every enabled op, fingerprint, push new states.
        let depth = entry.prefix.len();
        let ops = k.expandable(&mut sys);
        let mut at_entry = true;
        for (i, op) in ops.iter().enumerate() {
            if k.asleep(&entry.sleep, op) {
                continue;
            }
            if !at_entry {
                // ent_id is pinned for the whole expansion; any failure is
                // genuine.
                if let Err(stop) = k.enter(&mut sys, ent_id) {
                    sys.unpin(ent_id);
                    return Some(stop);
                }
            }
            at_entry = false;
            let step = k.step(&mut sys, &mut visited, op, depth as u32 + 1, || {
                entry.prefix.clone()
            });
            shared.ops_total.fetch_add(1, Ordering::SeqCst);
            // Shallower: a known state reached closer to the root must be
            // re-expanded or depth-bounded coverage would depend on which
            // worker got there first.
            let visit = match step {
                Ok(Step::Expand(visit)) => visit,
                Ok(Step::Pruned | Step::Matched) => continue,
                // A violation or a spill failure stops the whole fleet.
                Err(stop) => {
                    shared.stop.store(true, Ordering::SeqCst);
                    sys.unpin(ent_id);
                    return Some(stop);
                }
            };
            if visit == Visit::New {
                shared.states_total.fetch_add(1, Ordering::SeqCst);
            }
            k.stats.max_depth_seen = k.stats.max_depth_seen.max(depth + 1);
            if depth + 1 < cfg.max_depth {
                let sleep = k.sleep_after(&sys, &entry.sleep, &ops[..i], op);
                let mut prefix = entry.prefix.clone();
                prefix.push(op.clone());
                let pushed = shared.queues[idx]
                    .lock()
                    .push_back(FrontierEntry { prefix, sleep }, ctx);
                if let Err(e) = pushed {
                    sys.unpin(ent_id);
                    return spill_fatal("frontier", e);
                }
            }
        }
        sys.unpin(ent_id);
        drop(guard);
        shared.tick_round(quota);
        // One expansion per scheduling slice: on a single-CPU host this is
        // what lets idle workers steal before the current worker drains the
        // whole frontier itself (virtual-time speedup tracks the work
        // *split*, so balance matters more than raw wall throughput).
        std::thread::yield_now();
    }
}

/// Steals roughly half of the first non-empty victim queue (from its front
/// — the oldest entries, i.e. the largest unexplored subtrees), moving the
/// surplus into the thief's own queue and returning one entry to expand.
/// Spilled victim pages reload transparently (steal-half pulls whole pages
/// rather than splitting one).
///
/// # Errors
///
/// On spill-file failure while reloading a victim's pages.
fn steal<Op: Clone>(
    shared: &FrontierShared<Op>,
    idx: usize,
    ctx: SpillCtx<'_, Op>,
) -> Result<Option<FrontierEntry<Op>>, String> {
    let n = shared.queues.len();
    for off in 1..n {
        let victim_idx = (idx + off) % n;
        let stolen: Vec<FrontierEntry<Op>> = {
            let mut victim = shared.queues[victim_idx].lock();
            if victim.is_empty() {
                continue;
            }
            victim.steal_half(ctx)?
        };
        if stolen.is_empty() {
            continue;
        }
        let mut it = stolen.into_iter();
        let first = it.next();
        shared.queues[idx].lock().extend_back(it.collect());
        return Ok(first);
    }
    Ok(None)
}

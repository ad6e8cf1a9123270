//! Swarm verification: many searches in parallel, resumable, and — in a
//! frontier fleet — deterministic.
//!
//! SPIN's swarm technique (Holzmann et al.) runs N independent verifications
//! with different seeds and strategies — the paper plans to use it to explore
//! larger state spaces in parallel (§7). [`run_swarm`] runs a fleet of worker
//! threads, each over its own system from a factory. A fleet is one of two
//! kinds, picked by [`SwarmConfig::strategies`]:
//!
//! * **Walk fleet** ([`WorkerStrategy::Walk`], and every fleet whose
//!   `strategies` is empty): each worker runs a seed-diversified
//!   [`RandomWalk`], and a shared stop flag lets the first violation cancel
//!   the fleet. Without [`SwarmConfig::shared_visited`] every walk has a
//!   private visited set, so workers re-expand each other's states
//!   (maximum diversity); with it they share one [`ShardedVisited`] and a
//!   state expanded anywhere is pruned everywhere. Shared-set walks race
//!   for states, so their numbers follow host thread timing: this is the
//!   one nondeterministic mode.
//! * **Frontier fleet** ([`WorkerStrategy::Dfs`]): a level-synchronous
//!   breadth-first search, as in parallel Murφ (Stern & Dill, 1997), over
//!   *replayable op-prefixes* ([`FrontierEntry`]) in one FIFO queue the
//!   coordinating thread owns. Each round deals the next entries to the
//!   workers round-robin by position; a worker replays and expands its
//!   share against the visited set as it stood when the round began, and
//!   returns the unknown successors keyed by (entry position, op index).
//!   At the barrier the coordinator inserts them in key order, so the first
//!   key wins a state and its sleep set, and the fleet visits states in
//!   exactly sequential breadth-first order: every run gives the same
//!   per-worker stats, every worker count the same totals. Budgets,
//!   stop-on-violation, panics and snapshots are decided at barriers. No
//!   sequential BFS explorer or option exists; [`crate::DfsExplorer`] is
//!   the sequential search.
//!
//! A `strategies` list that mixes the two kinds is refused: every worker
//! slot reports [`StopReason::Fatal`].
//!
//! The op-prefix frontier is also what makes a fleet *resumable*:
//! [`run_swarm_persistent`] pickles the shared visited set, the frontier,
//! RNG cursors, and cumulative stats to disk (atomically — see
//! [`pickle::save_atomic`]) at round barriers, and can start from a loaded
//! [`RunSnapshot`], re-exploring zero already-visited states. No entry is
//! half-expanded at a barrier, so every snapshot is a consistent cut.
//!
//! A panicking worker does not abort the fleet: the panic is caught and
//! the worker's slot reports [`StopReason::WorkerPanic`]. In a frontier
//! fleet the entries it had not finished are re-dealt to the survivors
//! before the barrier, so the fleet still covers the whole space, in the
//! same order.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;

use crate::explore::{
    spill_init_failure, with_fresh_visited, ExploreConfig, ExploreReport, ExploreStats, RandomWalk,
    Search, StopReason,
};
use crate::pickle::{self, FrontierEntry, OpCodec, RngCursor, RunSnapshot, SnapshotWriter};
use crate::spill::{FrontierQueue, FrontierSpill, SpillCtx, SpillStats, SPILL_SHARDS};
use crate::system::{ApplyOutcome, ModelSystem, StateId, Violation};
use crate::visited::{ShardedVisited, Visit};

/// How one swarm worker searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStrategy {
    /// Expand frontier entries in the frontier fleet's breadth-first
    /// rounds: the exhaustive, depth-bounded search of
    /// [`crate::DfsExplorer`], split over the fleet.
    Dfs,
    /// Seed-diversified random walk.
    Walk,
}

/// Swarm configuration.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Number of worker searches.
    pub workers: usize,
    /// Base exploration config; walk workers get `seed = base.seed + index`
    /// (classic swarm diversification). In a frontier fleet `max_ops` and
    /// `max_states` are *fleet-wide* budgets, checked at round barriers, so
    /// a run may overshoot them by up to one round; walk workers keep
    /// per-worker op budgets.
    pub base: ExploreConfig,
    /// Share one sharded visited set across the fleet so workers skip
    /// states another worker already expanded, instead of duplicating work
    /// with private per-worker sets. Only a walk fleet in [`run_swarm`] can
    /// turn it off: a frontier fleet always shares the set, and
    /// [`run_swarm_persistent`] pickles it.
    pub shared_visited: bool,
    /// The fleet's kind: all [`WorkerStrategy::Dfs`] makes a frontier
    /// fleet; all [`WorkerStrategy::Walk`], or an empty list, a walk fleet.
    /// A list that mixes them is refused.
    ///
    /// Out-of-core operation rides in [`ExploreConfig::mem_budget`] on
    /// `base`: a shared visited set becomes disk-spilling, every worker's
    /// system gets its store ([`ModelSystem::attach_spill`]), and in
    /// [`run_swarm_persistent`] (where an op codec exists) the frontier
    /// queue spills cold op-prefix pages to the same store.
    pub strategies: Vec<WorkerStrategy>,
}

/// Persistence options for [`run_swarm_persistent`].
pub struct SwarmPersist<'a, Op> {
    /// Encoder/decoder for the system's op type.
    pub codec: &'a (dyn OpCodec<Op> + Sync),
    /// Where to write snapshots (atomic tempfile + rename); `None` disables
    /// snapshotting (a run can still *start* from `resume`).
    pub snapshot_path: Option<PathBuf>,
    /// Snapshot cadence: a snapshot is cut at every round barrier, and a
    /// round is this many frontier entries (walk workers count ops toward
    /// it). 0 means "only at the end of the run"; frontier rounds then take
    /// a fixed number of entries.
    ///
    /// A frontier fleet calls the factory at most once per worker, when it
    /// is first dealt an entry. A walk fleet with a cadence calls it once
    /// per worker per *round*, so it must produce a fresh system (at the
    /// initial state) on every call.
    pub snapshot_every: u64,
    /// Resume from a previously pickled snapshot: its visited set is
    /// preloaded (no contained state is ever re-counted), its frontier is
    /// queued in order, and its stats become the report's
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
    /// Fleet-wide spill counters of the *shared* visited set (and the
    /// spilling frontier queue, which shares its page store). Per-worker
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
    /// op-prefixes — the overhead the frontier fleet and resume pay instead
    /// of shipping concrete state between workers or processes.
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

/// The fleet-shared visited set. One shard per worker (rounded up to a
/// power of two, min 8) keeps same-shard collisions between workers rare;
/// with a memory budget the set has 64 shards and a disk tier instead.
fn fleet_visited(base: &ExploreConfig, workers: usize) -> Result<ShardedVisited, String> {
    match &base.mem_budget {
        Some(budget) => ShardedVisited::with_spill(base.visited_capacity, SPILL_SHARDS, budget),
        None => Ok(ShardedVisited::new(base.visited_capacity, workers.max(8))),
    }
}

/// Builds worker `idx`'s system from `factory`, attached to the fleet
/// set's spill store when the set spills (a private-set walk attaches its
/// own through [`with_fresh_visited`]).
fn system<S: ModelSystem, F: Fn(usize) -> S>(
    factory: &F,
    idx: usize,
    visited: Option<&ShardedVisited>,
) -> S {
    let mut sys = factory(idx);
    if let Some(store) = visited.and_then(ShardedVisited::spill_store) {
        sys.attach_spill(store);
    }
    sys
}

/// Runs `cfg.workers` searches in parallel over systems produced by
/// `factory` (one system per worker, seeded by worker index).
///
/// [`SwarmConfig::strategies`] picks a walk fleet or a frontier fleet (see
/// the module docs). A worker panic is contained to its slot (see
/// [`SwarmReport::panics`]); the rest of the fleet keeps searching.
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
// What both fleet kinds share
// ---------------------------------------------------------------------------

/// A fleet's per-worker results, merged across rounds, and what its
/// snapshots need.
struct Fleet<'p, Op> {
    cfg: &'p SwarmConfig,
    /// The fleet-shared visited set (also what gets pickled); `None` only
    /// for a walk fleet of private sets.
    visited: Option<ShardedVisited>,
    codec: Option<&'p (dyn OpCodec<Op> + Sync)>,
    snapshot_path: Option<PathBuf>,
    /// Round length when snapshotting on a cadence; 0 without one.
    cadence: u64,
    baseline: ExploreStats,
    generation: u32,
    round: u64,
    stats: Vec<ExploreStats>,
    violations: Vec<Vec<Violation<Op>>>,
    stops: Vec<Option<StopReason>>,
    persist_error: Option<String>,
}

impl<Op: Clone> Fleet<'_, Op> {
    /// Pickles the fleet at a round barrier, when it has somewhere to.
    /// Both big sections stream — visited entries page by page through the
    /// writer, the frontier from `frontier` — so the snapshot path never
    /// materializes the whole set as a second copy.
    fn snapshot(&mut self, frontier: impl FnOnce() -> Result<Vec<FrontierEntry<Op>>, String>) {
        let (Some(path), Some(codec)) = (&self.snapshot_path, self.codec) else {
            return;
        };
        let frontier = match frontier() {
            Ok(f) => f,
            Err(e) => {
                self.persist_error = Some(format!("frontier snapshot failed: {e}"));
                return;
            }
        };
        let visited = self
            .visited
            .as_ref()
            .expect("persistent runs share the visited set");
        let mut stats = self.baseline.clone();
        for s in &self.stats {
            stats.merge(s);
        }
        // The shared set's fleet-wide spill counters ride in the snapshot
        // stats (per-worker stats exclude them — see `SwarmReport::spill`).
        stats.merge(&ExploreStats {
            spill: visited.spill_stats(),
            visited_peak_bytes: visited.peak_bytes(),
            ..ExploreStats::default()
        });
        let seed = self.cfg.base.seed;
        let rng: Vec<RngCursor> = (self.stats.iter().enumerate())
            .map(|(i, s)| RngCursor {
                seed: walk_seed(seed, i, self.round, self.generation),
                draws: s.ops_executed,
            })
            .collect();
        let workers = self.stats.len() as u32;
        let mut w = SnapshotWriter::new(codec, seed, workers, self.generation);
        w.begin_visited(visited.len() as u32);
        if let Err(e) = visited.stream_entries(|h, d| w.visited_entry(h, d)) {
            self.persist_error = Some(format!("visited snapshot failed: {e}"));
            return;
        }
        w.frontier(&frontier);
        w.rng(&rng);
        let bytes = w.finish(&stats);
        if let Err(e) = pickle::save_atomic(path, &bytes) {
            self.persist_error = Some(e.to_string());
        }
    }

    fn report(self) -> SwarmReport<Op> {
        let visited = self.visited.as_ref();
        SwarmReport {
            distinct_states: visited.map(|v| v.len() as u64),
            spill: visited.and_then(ShardedVisited::spill_stats),
            visited_peak_bytes: visited.map_or(0, ShardedVisited::peak_bytes),
            workers: (self.stats.into_iter().zip(self.violations).zip(self.stops))
                .map(|((stats, violations), stop)| ExploreReport {
                    stats,
                    violations,
                    stop: stop.unwrap_or(StopReason::Exhausted),
                })
                .collect(),
            baseline: self.baseline,
            persist_error: self.persist_error,
        }
    }
}

/// Derives a walk worker's seed for a given round/generation — diversified
/// so resumed or later-round walks explore new paths instead of repeating
/// ones the shared visited set has already pruned.
fn walk_seed(base: u64, idx: usize, round: u64, generation: u32) -> u64 {
    base.wrapping_add(idx as u64)
        .wrapping_add(round.wrapping_mul(0x9E37_79B9))
        .wrapping_add((generation as u64).wrapping_mul(0x85EB_CA6B_0000))
}

/// The one entry point behind [`run_swarm`] and [`run_swarm_persistent`]:
/// sets up the visited set and any resumed state, then runs the fleet
/// kind `cfg.strategies` names.
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
    let (codec, snapshot_path, snapshot_every, resume) = match persist {
        Some(p) => (Some(p.codec), p.snapshot_path, p.snapshot_every, p.resume),
        None => (None, None, 0, None),
    };
    let mut fleet = Fleet {
        cfg,
        visited: None,
        codec,
        cadence: snapshot_path.as_ref().map_or(0, |_| snapshot_every),
        snapshot_path,
        baseline: ExploreStats::default(),
        generation: 0,
        round: 0,
        stats: vec![ExploreStats::default(); workers],
        violations: (0..workers).map(|_| Vec::new()).collect(),
        stops: vec![None; workers],
        persist_error: None,
    };
    let frontier = cfg.strategies.contains(&WorkerStrategy::Dfs);
    if frontier && cfg.strategies.contains(&WorkerStrategy::Walk) {
        let refused =
            "a fleet is all frontier (Dfs) workers or all walks; mixed strategies are refused";
        fleet.stops = vec![Some(StopReason::Fatal(refused.into())); workers];
        return fleet.report();
    }
    // A frontier fleet arbitrates through the fleet set, and a persistent
    // run pickles it: only a plain walk fleet may go without.
    let shared_visited = cfg.shared_visited || fleet.codec.is_some() || frontier;
    match (shared_visited.then(|| fleet_visited(&cfg.base, workers))).transpose() {
        Ok(visited) => fleet.visited = visited,
        Err(e) => {
            fleet.stops = vec![Some(spill_init_failure::<S::Op>(&e).stop); workers];
            return fleet.report();
        }
    }
    let mut resumed = None;
    if let (Some(snap), Some(visited)) = (resume, &fleet.visited) {
        visited.load_entries(&snap.visited);
        // A load that already failed its spill file must not deal a round.
        if let Some(e) = visited.error() {
            let stop = StopReason::Fatal(format!("visited spill failed: {e}"));
            fleet.stops = vec![Some(stop); workers];
            return fleet.report();
        }
        fleet.baseline = snap.stats;
        fleet.generation = snap.generation + 1;
        resumed = Some(snap.frontier);
    }
    if frontier {
        run_frontier(&mut fleet, &factory, resumed);
    } else {
        run_walks(&mut fleet, &factory, resumed.unwrap_or_default());
    }
    fleet.report()
}

// ---------------------------------------------------------------------------
// Walk fleets
// ---------------------------------------------------------------------------

/// What a walk fleet's workers share within one round.
struct WalkRound<'a> {
    /// First violation raised: everyone drains.
    stop: &'a AtomicBool,
    /// Ops walked this round.
    work: AtomicU64,
    /// The round's quota is spent: walks drain so a snapshot can be cut.
    done: AtomicBool,
    /// Ops per round (`u64::MAX`: one round, counting nothing).
    quota: u64,
}

impl WalkRound<'_> {
    /// Counts one op and raises `done` at the quota.
    fn tick(&self) {
        if self.quota != u64::MAX && self.work.fetch_add(1, Ordering::SeqCst) + 1 >= self.quota {
            self.done.store(true, Ordering::SeqCst);
        }
    }
}

/// A walk fleet: spawn the pending walks, join them at the round boundary,
/// snapshot, and repeat until every walk is done or one found a violation.
/// A resumed frontier is never expanded here; it is `parked` and carried
/// into every snapshot.
fn run_walks<S, F>(fleet: &mut Fleet<'_, S::Op>, factory: &F, parked: Vec<FrontierEntry<S::Op>>)
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    let quota = match fleet.cadence {
        0 => u64::MAX,
        n => n,
    };
    let stop = AtomicBool::new(false);
    let mut pending = vec![true; fleet.stats.len()];
    loop {
        let round = WalkRound {
            stop: &stop,
            work: AtomicU64::new(0),
            done: AtomicBool::new(false),
            quota,
        };
        let base = &fleet.cfg.base;
        let visited = fleet.visited.as_ref();
        // mcfs-lint: allow(MC007, each walk reports into its own slot and the slots merge in worker order; shared-set walk fleets are the documented nondeterministic mode)
        std::thread::scope(|scope| {
            let slots = (fleet.stats.iter_mut())
                .zip(fleet.violations.iter_mut())
                .zip(fleet.stops.iter_mut());
            for (idx, ((stats, violations), stop_slot)) in slots.enumerate() {
                if !pending[idx] {
                    continue;
                }
                let seed = walk_seed(base.seed, idx, fleet.round, fleet.generation);
                let round = &round;
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        run_walk_round(idx, factory, base, seed, visited, round, stats, violations)
                    }));
                    *stop_slot =
                        result.unwrap_or_else(|p| Some(StopReason::WorkerPanic(panic_message(p))));
                });
            }
        });
        // A walk whose round ended with a terminal reason is not re-spawned;
        // `None` means the round quota interrupted it and it resumes next
        // round.
        for (p, stop) in pending.iter_mut().zip(&fleet.stops) {
            *p &= stop.is_none();
        }
        fleet.snapshot(|| Ok(parked.clone()));
        fleet.round += 1;
        if stop.load(Ordering::SeqCst) || !pending.contains(&true) || quota == u64::MAX {
            break;
        }
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
    seed: u64,
    visited: Option<&ShardedVisited>,
    round: &WalkRound<'_>,
    stats_slot: &mut ExploreStats,
    viol_slot: &mut Vec<Violation<S::Op>>,
) -> Option<StopReason>
where
    S: ModelSystem,
    F: Fn(usize) -> S + Sync,
{
    let mut worker_cfg = base.clone();
    worker_cfg.seed = seed;
    // Per-worker op budget, minus what this worker's earlier rounds used.
    worker_cfg.max_ops = base.max_ops.saturating_sub(stats_slot.ops_executed);
    if worker_cfg.max_ops == 0 {
        return Some(StopReason::OpBudget);
    }
    let walk = RandomWalk::new(worker_cfg);
    let mut sys = system(factory, idx, visited);
    let tick = |_: &ExploreStats| round.tick();
    let halt = || round.stop.load(Ordering::Relaxed) || round.done.load(Ordering::Relaxed);
    let report = match visited {
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
    let drained_by_round = round.done.load(Ordering::SeqCst);
    stats_slot.merge(&report.stats);
    viol_slot.extend(report.violations);
    match report.stop {
        StopReason::Violation => {
            round.stop.store(true, Ordering::SeqCst);
            Some(StopReason::Violation)
        }
        // Drained at the round boundary: the walk has budget left, resume
        // it next round (with a fresh derived seed).
        StopReason::Exhausted if drained_by_round => None,
        other => Some(other),
    }
}

// ---------------------------------------------------------------------------
// Frontier fleets
// ---------------------------------------------------------------------------

/// Entries per frontier round when no snapshot cadence sets the length.
/// It does not depend on the worker count, so neither do the fleet's
/// totals.
const ROUND_ENTRIES: usize = 256;

/// Where a frontier worker keeps the initial state: pinned, since every
/// replay starts there.
const ROOT: StateId = StateId(0);

/// Where a frontier worker keeps the entry it is expanding, restored once
/// per sibling op.
const ENTRY: StateId = StateId(1);

/// Entries dealt to one worker, each with its position in the round.
type Share<Op> = Vec<(usize, FrontierEntry<Op>)>;

/// A state that was not in the visited set when its round began.
struct Candidate<Op> {
    /// The order in which a sequential breadth-first search reaches it:
    /// the expanded entry's position in the round, then 1 + the op's index
    /// among the entry's expandable ops (0 is the initial state itself,
    /// which the root entry reports).
    key: (usize, usize),
    state: u128,
    depth: u32,
    /// The successor's frontier entry, unless it lies at the depth bound.
    child: Option<FrontierEntry<Op>>,
}

/// What a frontier worker hands back for a share.
struct Reply<Op> {
    stats: ExploreStats,
    violations: Vec<Violation<Op>>,
    /// Successors of the entries the worker finished, in key order.
    candidates: Vec<Candidate<Op>>,
    /// The share's entries from the one the worker stopped on.
    unfinished: Share<Op>,
    /// Why the worker stopped for good, if it did.
    stop: Option<StopReason>,
}

/// The frontier a snapshot records: the entries a stopping fleet took from
/// the queue but did not finish, then the queue.
fn frontier_cut<Op: Clone>(
    carry: &Share<Op>,
    queue: &FrontierQueue<Op>,
    ctx: SpillCtx<'_, Op>,
) -> Result<Vec<FrontierEntry<Op>>, String> {
    let mut cut: Vec<FrontierEntry<Op>> = carry.iter().map(|(_, e)| e.clone()).collect();
    cut.extend(queue.collect_all(ctx)?);
    Ok(cut)
}

/// A frontier fleet: the coordinator deals rounds of the FIFO queue to
/// long-lived worker threads and merges their candidates at each barrier
/// (see the module docs).
fn run_frontier<S, F>(
    fleet: &mut Fleet<'_, S::Op>,
    factory: &F,
    resumed: Option<Vec<FrontierEntry<S::Op>>>,
) where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    let workers = fleet.stats.len();
    let swarm = fleet.cfg;
    let base = &swarm.base;
    let set = fleet
        .visited
        .clone()
        .expect("a frontier fleet shares the visited set");
    // Frontier spilling needs both a budget (the hot cap) and a codec (to
    // encode op-prefixes into pages); the queue shares the visited set's
    // page store so one spill file serves the whole run.
    let spill = (base.mem_budget.as_ref().zip(set.spill_store()))
        .filter(|_| fleet.codec.is_some())
        .map(|(budget, store)| FrontierSpill::new(store.clone(), budget.frontier_hot_bytes));
    let ctx: SpillCtx<'_, S::Op> = spill
        .as_ref()
        .zip(fleet.codec)
        .map(|(s, c)| (s, c as &dyn OpCodec<S::Op>));
    let mut queue = FrontierQueue::new();
    queue.extend_back(resumed.unwrap_or_else(|| {
        vec![FrontierEntry {
            prefix: Vec::new(),
            sleep: Vec::new(),
        }]
    }));
    let round_len = match fleet.cadence {
        0 => ROUND_ENTRIES,
        n => n as usize,
    };
    let mut live = vec![true; workers];
    let mut carry: Share<S::Op> = Vec::new();
    // Why the fleet stopped before its frontier ran dry, if it did.
    let mut halt: Option<StopReason> = None;

    // mcfs-lint: allow(MC007, workers expand disjoint shares against the set as it stood when the round began; the barrier merges their results in key order)
    std::thread::scope(|scope| {
        let (reply_tx, replies) = mpsc::channel();
        let jobs: Vec<mpsc::Sender<Share<S::Op>>> = (0..workers)
            .map(|idx| {
                let (job_tx, shares) = mpsc::channel();
                let (reply_tx, set) = (reply_tx.clone(), set.clone());
                scope.spawn(move || frontier_worker(idx, factory, base, &set, shares, &reply_tx));
                job_tx
            })
            .collect();
        drop(reply_tx);

        loop {
            let spent = |f: fn(&ExploreStats) -> u64| {
                f(&fleet.baseline) + fleet.stats.iter().map(f).sum::<u64>()
            };
            if spent(|s| s.ops_executed) >= base.max_ops {
                halt.get_or_insert(StopReason::OpBudget);
            } else if spent(|s| s.states_new) >= base.max_states {
                halt.get_or_insert(StopReason::StateBudget);
            }
            if halt.is_some() || queue.is_empty() || !live.contains(&true) {
                break;
            }
            let mut todo: Share<S::Op> = Vec::with_capacity(round_len);
            while todo.len() < round_len {
                match queue.pop_front(ctx) {
                    Ok(Some(e)) => todo.push((todo.len(), e)),
                    Ok(None) => break,
                    Err(e) => {
                        halt = Some(StopReason::Fatal(format!("frontier spill failed: {e}")));
                        break;
                    }
                }
            }

            // Deal the round, then re-deal whatever a retired worker left
            // unfinished, until every entry is expanded or the fleet stops.
            let mut found: Vec<(usize, Candidate<S::Op>)> = Vec::new();
            while !todo.is_empty() {
                let crew: Vec<usize> = (0..workers).filter(|&w| live[w]).collect();
                if halt.is_some() || crew.is_empty() {
                    carry.append(&mut todo);
                    break;
                }
                let mut shares: Vec<Share<S::Op>> = vec![Vec::new(); crew.len()];
                for (n, item) in todo.drain(..).enumerate() {
                    shares[n % crew.len()].push(item);
                }
                let mut dealt = 0;
                for (&w, share) in crew.iter().zip(shares) {
                    if !share.is_empty() {
                        jobs[w].send(share).expect("a live worker takes its share");
                        dealt += 1;
                    }
                }
                // Merged in worker order, whichever worker finished first.
                let mut got: Vec<_> = replies.iter().take(dealt).collect();
                got.sort_by_key(|(w, _)| *w);
                for (w, reply) in got {
                    // A share counts from zero; a violation records the
                    // worker's running op count.
                    let before = fleet.stats[w].ops_executed;
                    fleet.violations[w].extend(reply.violations.into_iter().map(|mut v| {
                        v.ops_executed += before;
                        v
                    }));
                    fleet.stats[w].merge(&reply.stats);
                    found.extend(reply.candidates.into_iter().map(|c| (w, c)));
                    let Some(stop) = reply.stop else { continue };
                    live[w] = false;
                    if stop == StopReason::Violation {
                        halt = Some(StopReason::Violation);
                        carry.extend(reply.unfinished);
                    } else {
                        todo.extend(reply.unfinished);
                    }
                    fleet.stops[w] = Some(stop);
                }
                todo.sort_by_key(|(pos, _)| *pos);
            }
            carry.sort_by_key(|(pos, _)| *pos);

            // The barrier: insert in key order, so the first key wins a
            // state and its sleep set whichever worker found it.
            found.sort_by_key(|(_, c)| c.key);
            for (w, c) in found {
                let (visit, resize) = set.insert_at(c.state, c.depth);
                let stats = &mut fleet.stats[w];
                stats.resize_events += u32::from(resize.is_some());
                if visit == Visit::Matched {
                    stats.states_matched += 1;
                    continue;
                }
                stats.states_new += u64::from(visit == Visit::New);
                stats.max_depth_seen = stats.max_depth_seen.max(c.depth as usize);
                if let Some(child) = c.child {
                    if let Err(e) = queue.push_back(child, ctx) {
                        halt = Some(StopReason::Fatal(format!("frontier spill failed: {e}")));
                        break;
                    }
                }
            }
            if let Some(e) = set.error() {
                halt = Some(StopReason::Fatal(format!("visited spill failed: {e}")));
            }
            if fleet.cadence > 0 {
                fleet.snapshot(|| frontier_cut(&carry, &queue, ctx));
            }
            fleet.round += 1;
        }
        // Closing the share channels lets the workers exit.
        drop(jobs);
    });

    // The fleet's stop lands on every worker still running when it fell; a
    // frontier that ran dry leaves them `Exhausted`.
    for (stop, live) in fleet.stops.iter_mut().zip(live) {
        if live {
            *stop = halt.clone();
        }
    }
    fleet.snapshot(|| frontier_cut(&carry, &queue, ctx));
}

/// A frontier worker: expands each share it is dealt, building its system
/// with the first, until the coordinator closes the channel or the worker
/// stops for good. Panics are caught per share, so the coordinator always
/// hears back.
fn frontier_worker<S, F>(
    idx: usize,
    factory: &F,
    cfg: &ExploreConfig,
    set: &ShardedVisited,
    shares: mpsc::Receiver<Share<S::Op>>,
    replies: &mpsc::Sender<(usize, Reply<S::Op>)>,
) where
    S: ModelSystem,
    F: Fn(usize) -> S,
{
    let mut sys: Option<S> = None;
    for share in shares {
        let mut reply = Reply {
            stats: ExploreStats::default(),
            violations: Vec::new(),
            candidates: Vec::new(),
            unfinished: Vec::new(),
            stop: None,
        };
        let mut done = 0;
        let expanded = catch_unwind(AssertUnwindSafe(|| {
            if sys.is_none() {
                sys = Some(start(idx, factory, set, &mut reply.stats)?);
            }
            let sys = sys.as_mut().expect("started above");
            expand_share(sys, cfg, set, &share, &mut reply, &mut done)
        }));
        reply.stop = match expanded {
            Ok(result) => result.err(),
            Err(payload) => Some(StopReason::WorkerPanic(panic_message(payload))),
        };
        let stopped = reply.stop.is_some();
        reply.unfinished = share.into_iter().skip(done).collect();
        if replies.send((idx, reply)).is_err() || stopped {
            return;
        }
    }
}

/// Builds worker `idx`'s system and stores the initial state as the pinned
/// root every replay starts from.
fn start<S, F>(
    idx: usize,
    factory: &F,
    set: &ShardedVisited,
    stats: &mut ExploreStats,
) -> Result<S, StopReason>
where
    S: ModelSystem,
    F: Fn(usize) -> S,
{
    let mut sys = system(factory, idx, Some(set));
    sys.checkpoint(ROOT).map_err(StopReason::Fatal)?;
    sys.pin(ROOT);
    stats.checkpoints += 1;
    Ok(sys)
}

/// Expands a share's entries in order, counting `done` as each finishes;
/// an entry that stops the worker leaves no candidates behind.
fn expand_share<S: ModelSystem>(
    sys: &mut S,
    cfg: &ExploreConfig,
    set: &ShardedVisited,
    share: &[(usize, FrontierEntry<S::Op>)],
    reply: &mut Reply<S::Op>,
    done: &mut usize,
) -> Result<(), StopReason> {
    // No clock: frontier workers charge no memory model, since their
    // checkpoints are replay anchors, not a modelled state store.
    let mut k = Search::new(cfg, None, &mut reply.stats, &mut reply.violations);
    // States an earlier key of the share reached: the barrier inserts that
    // key first, so a later one is matched whatever the other shares hold.
    let mut seen = HashSet::new();
    for (pos, entry) in share {
        let found = expand(&mut k, sys, cfg, set, *pos, &mut seen, entry)?;
        reply.candidates.extend(found);
        *done += 1;
    }
    Ok(())
}

/// Expands one frontier entry: replays its prefix from the root, stores
/// the reached state, and applies every enabled op not asleep, keeping the
/// successors that neither the visited set, as it stood when the round
/// began, nor the share so far (`seen`) knew.
fn expand<S: ModelSystem>(
    k: &mut Search<'_, S>,
    sys: &mut S,
    cfg: &ExploreConfig,
    set: &ShardedVisited,
    pos: usize,
    seen: &mut HashSet<u128>,
    entry: &FrontierEntry<S::Op>,
) -> Result<Vec<Candidate<S::Op>>, StopReason> {
    k.enter(sys, ROOT)?;
    for (i, op) in entry.prefix.iter().enumerate() {
        match sys.apply(op) {
            ApplyOutcome::Ok => k.stats.ops_replayed += 1,
            // A prefix that replayed cleanly when discovered cannot prune
            // under deterministic replay: the entry is stale, drop it.
            ApplyOutcome::Prune(_) => {
                k.stats.pruned += 1;
                return Ok(Vec::new());
            }
            ApplyOutcome::Violation(message) => {
                k.record(sys, entry.prefix[..=i].to_vec(), message);
                return match cfg.stop_on_violation {
                    true => Err(StopReason::Violation),
                    false => Ok(Vec::new()),
                };
            }
        }
    }
    sys.checkpoint(ENTRY).map_err(StopReason::Fatal)?;
    sys.pin(ENTRY);
    k.stats.checkpoints += 1;
    let mut found = Vec::new();
    if entry.prefix.is_empty() {
        let state = sys.abstract_state();
        seen.insert(state);
        found.push(Candidate {
            key: (pos, 0),
            state,
            depth: 0,
            child: None,
        });
    }
    let depth = entry.prefix.len() as u32 + 1;
    let ops = k.expandable(sys);
    let mut at_entry = true;
    for (i, op) in ops.iter().enumerate() {
        if k.asleep(&entry.sleep, op) {
            continue;
        }
        if !at_entry {
            k.enter(sys, ENTRY)?;
        }
        at_entry = false;
        if !k.apply_op(sys, op, || entry.prefix.clone())? {
            continue;
        }
        let state = sys.abstract_state();
        if set.depth_of(state).is_some_and(|d| d <= depth) || !seen.insert(state) {
            k.stats.states_matched += 1;
            continue;
        }
        let child = ((depth as usize) < cfg.max_depth).then(|| FrontierEntry {
            prefix: [entry.prefix.as_slice(), std::slice::from_ref(op)].concat(),
            sleep: k.sleep_after(sys, &entry.sleep, &ops[..i], op),
        });
        found.push(Candidate {
            key: (pos, i + 1),
            state,
            depth,
            child,
        });
    }
    sys.unpin(ENTRY);
    sys.release(ENTRY);
    Ok(found)
}

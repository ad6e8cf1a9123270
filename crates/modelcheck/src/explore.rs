//! Explorers: bounded DFS (SPIN's default search), BFS, and random walk.
//!
//! All three, and the swarm's frontier workers, drive the system through
//! one transition kernel ([`Search`]); each search keeps only its frontier
//! policy (a frame stack, a queue, random restarts) and how it positions
//! the system at the next state to expand.

use std::collections::VecDeque;

use blockdev::Clock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::memmodel::{MemConfig, MemoryModel, OutOfMemory};
use crate::spill::{MemBudget, SpillStats};
use crate::system::{
    is_evicted_error, ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, StateId,
    Violation,
};
use crate::visited::{ShardedVisited, Visit, VisitedHandle, VisitedSet};

/// Exploration bounds and options.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum operation-sequence depth (the bounded state space).
    pub max_depth: usize,
    /// Operation budget.
    pub max_ops: u64,
    /// Distinct-state budget.
    pub max_states: u64,
    /// Virtual-time budget in nanoseconds (requires a clock).
    pub max_virtual_ns: Option<u64>,
    /// Stop at the first violation (otherwise collect and continue).
    pub stop_on_violation: bool,
    /// Enable sleep-set partial-order reduction (uses
    /// [`ModelSystem::independent`]).
    pub por: bool,
    /// Enable persistent-set partial-order reduction (uses
    /// [`ModelSystem::persistent_set`]): expansion of each state is
    /// restricted to the subset the system proves sufficient. Independent
    /// of (and composable with) `por`'s sleep sets.
    pub por_persistent: bool,
    /// Memory model budgets.
    pub mem: MemConfig,
    /// Out-of-core budget: when set, the visited set spills cold entries to
    /// disk instead of growing without bound, real page traffic is charged
    /// to the virtual clock, and [`ExploreStats::spill`] reports the
    /// counters. `None` keeps the fully in-RAM sets.
    pub mem_budget: Option<MemBudget>,
    /// Initial visited-table capacity (first modelled resize threshold).
    pub visited_capacity: usize,
    /// Keep every visited state's concrete image charged against the memory
    /// model even after the search no longer needs it — modelling SPIN
    /// retaining tracked state data for the whole run, which is what made
    /// the paper's big-state configurations swap-bound. The system-side
    /// store is still released, so the *host's* memory stays bounded.
    pub retain_states: bool,
    /// Random-walk restarts: fraction of the stored-state history eligible
    /// as a restart target (0.0 = always the initial state). Non-zero values
    /// make the walk jump back into previously visited regions, the access
    /// pattern that drives SPIN's swap traffic over long runs (Fig. 3).
    /// States become system-side retained, so host memory grows with the
    /// run.
    pub restart_spread: f64,
    /// Random walk: backtrack (restart) whenever a visited state is matched,
    /// as SPIN's search does, instead of walking on through. Combined with
    /// `restart_spread`, every match becomes a stored-state access — the
    /// traffic that made the paper's long runs swap-bound.
    pub backtrack_on_match: bool,
    /// Seed for randomized exploration.
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 6,
            max_ops: 1_000_000,
            max_states: u64::MAX,
            max_virtual_ns: None,
            stop_on_violation: true,
            por: false,
            por_persistent: false,
            mem: MemConfig::default(),
            mem_budget: None,
            visited_capacity: 1 << 16,
            retain_states: false,
            restart_spread: 0.0,
            backtrack_on_match: false,
            seed: 0,
        }
    }
}

/// Why exploration ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The bounded state space was fully explored.
    Exhausted,
    /// Operation budget reached.
    OpBudget,
    /// State budget reached.
    StateBudget,
    /// Virtual-time budget reached.
    TimeBudget,
    /// Stopped at a violation.
    Violation,
    /// The memory model ran out of RAM + swap.
    OutOfMemory(OutOfMemory),
    /// Checkpoint/restore failed.
    Fatal(String),
    /// A restore named a checkpoint the budgeted state store had already
    /// evicted (the payload is the store's error message). Distinct from
    /// [`Fatal`](StopReason::Fatal): the system is healthy, the checkpoint
    /// budget was just too tight for this search shape.
    CheckpointEvicted(String),
    /// The worker thread panicked (swarm mode records this instead of
    /// aborting the fleet; the payload is the panic message).
    WorkerPanic(String),
}

/// Counters from one exploration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExploreStats {
    /// Operations executed against the system(s).
    pub ops_executed: u64,
    /// Operations re-executed only to reconstruct a frontier state from its
    /// op-prefix (work-stealing swarm workers and resumed runs replay
    /// prefixes deterministically instead of shipping concrete state).
    /// Replays never discover states; they are counted separately so
    /// resume/steal overhead is visible. Not included in `ops_executed`.
    pub ops_replayed: u64,
    /// Distinct abstract states discovered.
    pub states_new: u64,
    /// Abstract states matched against the visited table (duplicates
    /// pruned — the paper's key state-explosion countermeasure).
    pub states_matched: u64,
    /// Branches pruned (disabled ops, sleep sets).
    pub pruned: u64,
    /// Concrete checkpoints taken.
    pub checkpoints: u64,
    /// Concrete restores performed.
    pub restores: u64,
    /// Deepest operation sequence reached.
    pub max_depth_seen: usize,
    /// Visited-table resize events (Fig. 3's rate dip).
    pub resize_events: u32,
    /// Peak modelled memory (states + tables), bytes.
    pub peak_memory_bytes: u64,
    /// Cumulative modelled swap traffic, bytes.
    pub swap_traffic_bytes: u64,
    /// Final modelled swap residency, bytes.
    pub swapped_bytes: u64,
    /// RAM hit rate for state accesses.
    pub hit_rate: f64,
    /// Virtual time consumed (0 without a clock).
    pub virtual_ns: u64,
    /// Peak bytes held by the visited set (hot cache only when spilling;
    /// the whole table when fully in RAM). Tracked as a watermark so the
    /// hot-budget enforcement of [`ExploreConfig::mem_budget`] is auditable.
    pub visited_peak_bytes: u64,
    /// Spill-store counters when the run used an out-of-core visited set
    /// ([`ExploreConfig::mem_budget`]); `None` for fully in-RAM runs.
    pub spill: Option<SpillStats>,
    /// End-of-run statistics of the system's checkpoint store, when it
    /// maintains a budgeted pool ([`ModelSystem::checkpoint_store_stats`]).
    pub checkpoint_store: Option<CheckpointStoreStats>,
    /// End-of-run crash-injection statistics, when the system explores
    /// crashes ([`ModelSystem::crash_stats`]).
    pub crash: Option<CrashStats>,
}

impl ExploreStats {
    /// Operations per virtual second (`None` without a clock).
    pub fn ops_per_sec(&self) -> Option<f64> {
        if self.virtual_ns == 0 {
            None
        } else {
            Some(self.ops_executed as f64 * 1e9 / self.virtual_ns as f64)
        }
    }

    /// Accumulates `other` into `self`: counters are summed (`virtual_ns`
    /// included — in an aggregate it reads as total work time), watermarks
    /// (`max_depth_seen`, `peak_memory_bytes`, `hit_rate`) take the maximum,
    /// and the optional store/crash stats merge field-wise. Used to combine
    /// one worker's rounds and to aggregate a fleet into a snapshot.
    pub fn merge(&mut self, other: &ExploreStats) {
        self.ops_executed += other.ops_executed;
        self.ops_replayed += other.ops_replayed;
        self.states_new += other.states_new;
        self.states_matched += other.states_matched;
        self.pruned += other.pruned;
        self.checkpoints += other.checkpoints;
        self.restores += other.restores;
        self.max_depth_seen = self.max_depth_seen.max(other.max_depth_seen);
        self.resize_events += other.resize_events;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
        self.swap_traffic_bytes += other.swap_traffic_bytes;
        self.swapped_bytes += other.swapped_bytes;
        self.hit_rate = self.hit_rate.max(other.hit_rate);
        self.virtual_ns += other.virtual_ns;
        self.visited_peak_bytes = self.visited_peak_bytes.max(other.visited_peak_bytes);
        match (&mut self.spill, &other.spill) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.spill = Some(*b),
            _ => {}
        }
        match (&mut self.checkpoint_store, &other.checkpoint_store) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.checkpoint_store = Some(*b),
            _ => {}
        }
        match (&mut self.crash, &other.crash) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.crash = Some(*b),
            _ => {}
        }
    }
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport<Op> {
    /// Counters.
    pub stats: ExploreStats,
    /// Violations found (with reproduction traces).
    pub violations: Vec<Violation<Op>>,
    /// Why the run ended.
    pub stop: StopReason,
}

/// The report for a run that could not start because the spill store failed
/// to initialize (bad spill dir, exhausted fds, ...).
pub(crate) fn spill_init_failure<Op>(e: &str) -> ExploreReport<Op> {
    ExploreReport {
        stats: ExploreStats::default(),
        violations: Vec::new(),
        stop: StopReason::Fatal(format!("spill store init failed: {e}")),
    }
}

/// How one transition ([`Search::step`]) ended, when it did not stop the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// No state to visit: the op was disabled, or it violated the property
    /// and the violation was recorded without stopping.
    Pruned,
    /// The reached state was already visited at this depth or shallower.
    Matched,
    /// The reached state is new, or known but now reached shallower
    /// (depth-bounded searches re-expand it).
    Expand(Visit),
}

/// The transition kernel every search shares — DFS, BFS, the random walk
/// and the swarm's frontier workers. It owns the run's memory model and
/// virtual-clock bookkeeping and applies, classifies, fingerprints and
/// counts each transition; the searches only pick which state to expand
/// next and how to get the system there.
pub(crate) struct Search<'a, S: ModelSystem> {
    cfg: &'a ExploreConfig,
    clock: Option<&'a Clock>,
    start_ns: u64,
    mem: MemoryModel,
    pub(crate) stats: &'a mut ExploreStats,
    violations: &'a mut Vec<Violation<S::Op>>,
    next_id: u64,
    /// The stored state the live system is in, if any: applying an op
    /// leaves it until a checkpoint or restore anchors the system again.
    at: Option<StateId>,
}

impl<'a, S: ModelSystem> Search<'a, S> {
    /// A search counting into `stats` and `violations`. Without a clock
    /// nothing is charged and `max_virtual_ns` never trips.
    pub(crate) fn new(
        cfg: &'a ExploreConfig,
        clock: Option<&'a Clock>,
        stats: &'a mut ExploreStats,
        violations: &'a mut Vec<Violation<S::Op>>,
    ) -> Self {
        Search {
            cfg,
            clock,
            start_ns: clock.map_or(0, Clock::now_ns),
            mem: MemoryModel::new(cfg.mem),
            stats,
            violations,
            next_id: 0,
            at: None,
        }
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = self.clock {
            c.advance_ns(ns);
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.clock.map_or(0, |c| c.now_ns() - self.start_ns)
    }

    /// Fingerprints the initial state and stores it as the pinned root.
    fn begin<V: VisitedHandle + ?Sized>(
        &mut self,
        sys: &mut S,
        visited: &mut V,
    ) -> Result<StateId, StopReason> {
        if visited.insert(sys.abstract_state()).0 {
            self.stats.states_new += 1;
        }
        self.drain(visited)?;
        let root = self.store(sys)?;
        sys.pin(root);
        Ok(root)
    }

    /// Stops the run once the op, state or virtual-time budget is spent.
    fn budget(&self) -> Result<(), StopReason> {
        if self.stats.ops_executed >= self.cfg.max_ops {
            return Err(StopReason::OpBudget);
        }
        if self.stats.states_new >= self.cfg.max_states {
            return Err(StopReason::StateBudget);
        }
        match (self.cfg.max_virtual_ns, self.clock) {
            (Some(limit), Some(_)) if self.elapsed_ns() >= limit => Err(StopReason::TimeBudget),
            _ => Ok(()),
        }
    }

    /// Checkpoints the live state under a fresh id and charges it to the
    /// memory model.
    fn store(&mut self, sys: &mut S) -> Result<StateId, StopReason> {
        let id = StateId(self.next_id);
        self.next_id += 1;
        let bytes = sys.checkpoint(id).map_err(StopReason::Fatal)?;
        let cost = self
            .mem
            .store(id, bytes as u64)
            .map_err(StopReason::OutOfMemory)?;
        self.charge(cost);
        self.stats.checkpoints += 1;
        self.at = Some(id);
        Ok(id)
    }

    /// Restores stored state `id`, charging the memory model's access. A
    /// checkpoint the budgeted store evicted stops the run with
    /// [`StopReason::CheckpointEvicted`]; any other failure is fatal.
    pub(crate) fn enter(&mut self, sys: &mut S, id: StateId) -> Result<(), StopReason> {
        let cost = self.mem.access(id);
        self.charge(cost);
        sys.restore(id).map_err(|e| {
            if is_evicted_error(&e) {
                StopReason::CheckpointEvicted(e)
            } else {
                StopReason::Fatal(e)
            }
        })?;
        self.stats.restores += 1;
        self.at = Some(id);
        Ok(())
    }

    /// [`Search::enter`]s `id` unless the system is already there: like
    /// SPIN, a search advancing deeper restores only on backtrack.
    fn position(&mut self, sys: &mut S, id: StateId) -> Result<(), StopReason> {
        if self.at == Some(id) {
            return Ok(());
        }
        self.enter(sys, id)
    }

    /// Drops stored state `id`, from the memory model too unless
    /// `retain_states` keeps charging it.
    fn release(&mut self, sys: &mut S, id: StateId) {
        sys.release(id);
        if !self.cfg.retain_states {
            self.mem.release(id);
        }
    }

    /// The ops to expand from the live state: the enabled ones, restricted
    /// to the system's persistent set under `por_persistent` (masked-out ops
    /// count as pruned).
    pub(crate) fn expandable(&mut self, sys: &mut S) -> Vec<S::Op> {
        let ops = sys.ops();
        if !self.cfg.por_persistent {
            return ops;
        }
        let Some(mask) = sys.persistent_set(&ops).filter(|m| m.len() == ops.len()) else {
            return ops;
        };
        let enabled = ops.len();
        let kept: Vec<S::Op> = ops
            .into_iter()
            .zip(mask)
            .filter(|(_, keep)| *keep)
            .map(|(op, _)| op)
            .collect();
        self.stats.pruned += (enabled - kept.len()) as u64;
        kept
    }

    /// Whether `op` is in the expanded state's sleep set (counted as pruned).
    pub(crate) fn asleep(&mut self, sleep: &[S::Op], op: &S::Op) -> bool {
        let asleep = self.cfg.por && sleep.contains(op);
        self.stats.pruned += u64::from(asleep);
        asleep
    }

    /// The sleep set of the state `op` leads to: the ops asleep in its
    /// parent (`sleep`) or already explored from it (`done`) that stay
    /// independent of `op`. Empty without `por`.
    pub(crate) fn sleep_after(
        &self,
        sys: &S,
        sleep: &[S::Op],
        done: &[S::Op],
        op: &S::Op,
    ) -> Vec<S::Op> {
        if !self.cfg.por {
            return Vec::new();
        }
        let mut s: Vec<S::Op> = sleep
            .iter()
            .filter(|x| sys.independent(x, op))
            .cloned()
            .collect();
        for prev in done {
            if sys.independent(prev, op) && !s.contains(prev) {
                s.push(prev.clone());
            }
        }
        s
    }

    /// Records a violation reproduced by `trace`, asking the system to
    /// minimize it ([`ModelSystem::minimize`] — a no-op unless enabled).
    pub(crate) fn record(&mut self, sys: &mut S, trace: Vec<S::Op>, message: String) {
        let (minimized_trace, shrink) = sys.minimize(&trace, &message).unzip();
        self.violations.push(Violation {
            trace,
            message,
            ops_executed: self.stats.ops_executed,
            minimized_trace,
            shrink,
        });
    }

    /// Charges the visited set's pending page traffic; stops the run if
    /// its backing store failed.
    fn drain<V: VisitedHandle + ?Sized>(&mut self, visited: &mut V) -> Result<(), StopReason> {
        self.charge(visited.take_pending_ns());
        match visited.error() {
            Some(e) => Err(StopReason::Fatal(format!("visited spill failed: {e}"))),
            None => Ok(()),
        }
    }

    /// One transition: applies `op` to the live state and classifies the
    /// result against `visited` at `depth`. `trace` yields the ops leading
    /// to the live state; it is only called to record a violation.
    pub(crate) fn step<V: VisitedHandle + ?Sized>(
        &mut self,
        sys: &mut S,
        visited: &mut V,
        op: &S::Op,
        depth: u32,
        trace: impl FnOnce() -> Vec<S::Op>,
    ) -> Result<Step, StopReason> {
        self.at = None;
        let outcome = sys.apply(op);
        self.stats.ops_executed += 1;
        match outcome {
            ApplyOutcome::Ok => {}
            ApplyOutcome::Prune(_) => {
                self.stats.pruned += 1;
                return Ok(Step::Pruned);
            }
            ApplyOutcome::Violation(message) => {
                let mut trace = trace();
                trace.push(op.clone());
                self.record(sys, trace, message);
                if self.cfg.stop_on_violation {
                    return Err(StopReason::Violation);
                }
                return Ok(Step::Pruned);
            }
        }
        let (visit, resize) = visited.insert_at(sys.abstract_state(), depth);
        if let Some(r) = resize {
            // The old and new tables coexist while rehashing: charge the
            // transient peak, then settle at the grown size.
            self.stats.resize_events += 1;
            self.charge(r.cost_ns);
            let cost = self.mem.set_overhead(visited.bytes() + r.transient_bytes);
            self.charge(cost);
            let cost = self.mem.set_overhead(visited.bytes());
            self.charge(cost);
        }
        self.drain(visited)?;
        match visit {
            Visit::Matched => {
                self.stats.states_matched += 1;
                Ok(Step::Matched)
            }
            Visit::New => {
                self.stats.states_new += 1;
                Ok(Step::Expand(visit))
            }
            Visit::Shallower => Ok(Step::Expand(visit)),
        }
    }

    /// The running stats with the memory gauges and virtual time refreshed.
    fn progress(&mut self) -> &ExploreStats {
        self.stats.swapped_bytes = self.mem.swapped_bytes();
        self.stats.hit_rate = self.mem.hit_rate();
        self.stats.virtual_ns = self.elapsed_ns();
        self.stats
    }

    /// Settles the run's last charges and fills in the end-of-run stats.
    fn finish<V: VisitedHandle + ?Sized>(mut self, sys: &S, visited: &mut V) {
        self.charge(visited.take_pending_ns());
        self.progress();
        self.stats.checkpoint_store = sys.checkpoint_store_stats();
        self.stats.crash = sys.crash_stats();
        self.stats.peak_memory_bytes = self.mem.peak_bytes();
        self.stats.swap_traffic_bytes = self.mem.swap_traffic_bytes();
        self.stats.visited_peak_bytes = visited.peak_bytes();
        self.stats.spill = visited.spill_stats();
    }
}

/// Runs `search` from the stored root and reports. A search returns
/// `Ok(())` when its frontier is exhausted.
fn explore<S: ModelSystem, V: VisitedHandle + ?Sized>(
    cfg: &ExploreConfig,
    clock: Option<&Clock>,
    sys: &mut S,
    visited: &mut V,
    search: impl FnOnce(&mut Search<'_, S>, &mut S, &mut V, StateId) -> Result<(), StopReason>,
) -> ExploreReport<S::Op> {
    let mut stats = ExploreStats::default();
    let mut violations = Vec::new();
    let mut k = Search::new(cfg, clock, &mut stats, &mut violations);
    let stop = match k
        .begin(sys, visited)
        .and_then(|root| search(&mut k, sys, visited, root))
    {
        Ok(()) => StopReason::Exhausted,
        Err(stop) => stop,
    };
    k.finish(sys, visited);
    ExploreReport {
        stats,
        violations,
        stop,
    }
}

/// Runs `run` over a fresh visited set: disk-spilling under
/// [`ExploreConfig::mem_budget`], fully in RAM otherwise.
pub(crate) fn with_fresh_visited<Op>(
    cfg: &ExploreConfig,
    run: impl FnOnce(&mut dyn VisitedHandle) -> ExploreReport<Op>,
) -> ExploreReport<Op> {
    match &cfg.mem_budget {
        Some(budget) => match ShardedVisited::with_spill(cfg.visited_capacity, budget) {
            Ok(mut visited) => run(&mut visited),
            Err(e) => spill_init_failure(&e),
        },
        None => run(&mut VisitedSet::new(cfg.visited_capacity)),
    }
}

struct Frame<Op> {
    state: StateId,
    ops: Vec<Op>,
    next: usize,
    sleep: Vec<Op>,
    op_from_parent: Option<Op>,
}

/// Depth-first search over a frame stack. Every state on the stack — the
/// backtrack spine — stays pinned against budget-driven eviction until its
/// frame pops, since DFS re-enters each one.
fn dfs<S: ModelSystem, V: VisitedHandle + ?Sized>(
    k: &mut Search<'_, S>,
    sys: &mut S,
    visited: &mut V,
    root: StateId,
) -> Result<(), StopReason> {
    let ops = k.expandable(sys);
    let mut stack = vec![Frame {
        state: root,
        ops,
        next: 0,
        sleep: Vec::new(),
        op_from_parent: None,
    }];
    loop {
        k.budget()?;
        let Some(frame) = stack.last_mut() else {
            return Ok(());
        };
        if frame.next >= frame.ops.len() {
            sys.unpin(frame.state);
            k.release(sys, frame.state);
            stack.pop();
            continue;
        }
        let idx = frame.next;
        frame.next += 1;
        let op = frame.ops[idx].clone();
        if k.asleep(&frame.sleep, &op) {
            continue;
        }
        k.position(sys, frame.state)?;
        let depth = stack.len();
        let trace = || {
            stack
                .iter()
                .filter_map(|f| f.op_from_parent.clone())
                .collect()
        };
        // `Shallower` re-expands a known state reached closer to the root:
        // without this, depth-bounded coverage would depend on exploration
        // order (SPIN re-explores identically).
        let Step::Expand(_) = k.step(sys, visited, &op, depth as u32, trace)? else {
            continue;
        };
        k.stats.max_depth_seen = k.stats.max_depth_seen.max(depth);
        if depth >= k.cfg.max_depth {
            continue; // depth bound: record the state, don't expand
        }
        let child = k.store(sys)?;
        sys.pin(child);
        let parent = stack.last().expect("frame exists");
        let sleep = k.sleep_after(sys, &parent.sleep, &parent.ops[..idx], &op);
        let ops = k.expandable(sys);
        stack.push(Frame {
            state: child,
            ops,
            next: 0,
            sleep,
            op_from_parent: Some(op),
        });
    }
}

/// Breadth-first search over a FIFO queue of stored states, every one
/// pinned until expanded, with a parent-pointer arena for traces.
fn bfs<S: ModelSystem, V: VisitedHandle + ?Sized>(
    k: &mut Search<'_, S>,
    sys: &mut S,
    visited: &mut V,
    root: StateId,
) -> Result<(), StopReason> {
    let mut arena: Vec<(Option<usize>, Option<S::Op>)> = vec![(None, None)];
    let mut queue = VecDeque::from([(root, 0usize, 0usize)]); // (state, depth, arena idx)
    while let Some((state, depth, node)) = queue.pop_front() {
        k.position(sys, state)?;
        for op in sys.ops() {
            k.budget()?;
            k.position(sys, state)?;
            let trace = || {
                let path = std::iter::successors(Some(node), |&i| arena[i].0);
                let mut trace: Vec<S::Op> = path.filter_map(|i| arena[i].1.clone()).collect();
                trace.reverse();
                trace
            };
            let step = k.step(sys, visited, &op, depth as u32 + 1, trace)?;
            if step != Step::Expand(Visit::New) {
                // BFS reaches every state at its minimal depth first, so
                // `Shallower` only re-finds a state of a preloaded set: it
                // counts as matched.
                k.stats.states_matched += u64::from(step == Step::Expand(Visit::Shallower));
                continue;
            }
            k.stats.max_depth_seen = k.stats.max_depth_seen.max(depth + 1);
            if depth + 1 >= k.cfg.max_depth {
                continue;
            }
            let child = k.store(sys)?;
            sys.pin(child);
            arena.push((Some(node), Some(op)));
            queue.push_back((child, depth + 1, arena.len() - 1));
        }
        sys.unpin(state);
        k.release(sys, state);
    }
    Ok(())
}

/// Random walk: random enabled ops from the live state, restarting at the
/// depth bound, at a dead end, or (with `backtrack_on_match`) at a matched
/// state. Only the root is pinned: spread-restart targets are nice to have,
/// but the walk can always fall back to the root if the budgeted store
/// evicted one. The walk ends early, mid-path, once `halt` returns true.
fn walk<S: ModelSystem, V: VisitedHandle + ?Sized>(
    k: &mut Search<'_, S>,
    sys: &mut S,
    visited: &mut V,
    root: StateId,
    mut observe: impl FnMut(&ExploreStats),
    halt: impl Fn() -> bool,
) -> Result<(), StopReason> {
    let mut rng = StdRng::seed_from_u64(k.cfg.seed);
    let mut trace: Vec<S::Op> = Vec::new();
    let mut stored = vec![root];
    let mut depth = 0usize;
    loop {
        k.budget()?;
        if halt() {
            return Ok(());
        }
        let ops = sys.ops();
        if ops.is_empty() && depth == 0 {
            // No operation is enabled even in the initial state: nothing
            // left to do.
            return Ok(());
        }
        if depth >= k.cfg.max_depth || ops.is_empty() {
            restart(k, sys, &mut rng, &mut stored, root)?;
            depth = 0;
            trace.clear();
            continue;
        }
        let op = ops[rng.gen_range(0..ops.len())].clone();
        let step = k.step(sys, visited, &op, 0, || trace.clone())?;
        if step == Step::Pruned {
            observe(k.stats);
            continue;
        }
        trace.push(op);
        depth += 1;
        k.stats.max_depth_seen = k.stats.max_depth_seen.max(depth);
        if step == Step::Expand(Visit::New) {
            // The walker checkpoints newly discovered states, as MCFS does,
            // so the state store (and its memory pressure) grows with
            // exploration.
            let id = k.store(sys)?;
            if k.cfg.restart_spread > 0.0 {
                // Keep the state restorable: restarts may jump here. Bound
                // the system-side store (the memory *model* keeps charging
                // retained states; the host doesn't have to hold them all).
                stored.push(id);
                if stored.len() > 4096 {
                    let old = stored.remove(0);
                    k.release(sys, old);
                }
            } else {
                sys.release(id);
            }
        } else {
            // The walk inserts at depth 0, so `Shallower` only re-finds a
            // state a frontier worker stored deeper: it counts as matched.
            k.stats.states_matched += u64::from(step != Step::Matched);
            // SPIN semantics: a matched state ends the path. Otherwise the
            // walk keeps going through visited territory: the frontier lies
            // beyond it.
            if k.cfg.backtrack_on_match {
                restart(k, sys, &mut rng, &mut stored, root)?;
                depth = 0;
                trace.clear();
            }
        }
        observe(k.progress());
    }
}

/// Restarts a walk from the root or, with `restart_spread`, from a random
/// recently stored state. A spread target the budgeted store aged out is
/// forgotten, and the walk restarts from the pinned root instead.
fn restart<S: ModelSystem>(
    k: &mut Search<'_, S>,
    sys: &mut S,
    rng: &mut StdRng,
    stored: &mut Vec<StateId>,
    root: StateId,
) -> Result<(), StopReason> {
    let target = if k.cfg.restart_spread > 0.0 && stored.len() > 1 {
        let window = ((stored.len() as f64 * k.cfg.restart_spread) as usize).clamp(1, stored.len());
        stored[rng.gen_range(stored.len() - window..stored.len())]
    } else {
        root
    };
    match k.enter(sys, target) {
        Err(StopReason::CheckpointEvicted(_)) if target != root => {
            stored.retain(|s| *s != target);
            k.enter(sys, root)
        }
        entered => entered,
    }
}

/// Depth-first explorer with abstract-state matching — SPIN's search
/// strategy, as MCFS uses it.
#[derive(Debug)]
pub struct DfsExplorer {
    cfg: ExploreConfig,
    clock: Option<Clock>,
}

impl DfsExplorer {
    /// Creates an explorer with the given bounds.
    pub fn new(cfg: ExploreConfig) -> Self {
        DfsExplorer { cfg, clock: None }
    }

    /// Attaches a virtual clock: memory-model costs are charged to it, and
    /// `max_virtual_ns` becomes enforceable.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Runs the exploration to completion or budget. With
    /// [`ExploreConfig::mem_budget`] set, the visited set is disk-spilling.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        with_fresh_visited(&self.cfg, |visited| self.run_with_visited(sys, visited))
    }

    /// Runs with a caller-owned visited set — the paper's §7 resumability:
    /// persist the visited set across an interruption (e.g. a kernel crash
    /// during checking) and resume without re-exploring known states. The
    /// set may also be a swarm-shared [`crate::ShardedVisited`].
    pub fn run_with_visited<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        sys: &mut S,
        visited: &mut V,
    ) -> ExploreReport<S::Op> {
        explore(&self.cfg, self.clock.as_ref(), sys, visited, dfs)
    }
}

/// Breadth-first explorer. Finds *shortest* violation traces, at the cost of
/// storing a frontier of concrete states (memory hungry, like real BFS model
/// checking).
#[derive(Debug)]
pub struct BfsExplorer {
    cfg: ExploreConfig,
    clock: Option<Clock>,
}

impl BfsExplorer {
    /// Creates an explorer with the given bounds.
    pub fn new(cfg: ExploreConfig) -> Self {
        BfsExplorer { cfg, clock: None }
    }

    /// Attaches a virtual clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Runs the exploration.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        with_fresh_visited(&self.cfg, |visited| self.run_with_visited(sys, visited))
    }

    /// Runs with a caller-owned visited set (§7 resumability — see
    /// [`DfsExplorer::run_with_visited`]).
    pub fn run_with_visited<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        sys: &mut S,
        visited: &mut V,
    ) -> ExploreReport<S::Op> {
        explore(&self.cfg, self.clock.as_ref(), sys, visited, bfs)
    }
}

/// Randomized walker: repeatedly executes random enabled operations,
/// restarting from the initial state at the depth bound. This is the
/// long-run mode behind the paper's multi-day soaks (randomized driver
/// processes, §2).
#[derive(Debug)]
pub struct RandomWalk {
    cfg: ExploreConfig,
    clock: Option<Clock>,
}

impl RandomWalk {
    /// Creates a walker with the given bounds (`max_depth` is the walk
    /// length between restarts).
    pub fn new(cfg: ExploreConfig) -> Self {
        RandomWalk { cfg, clock: None }
    }

    /// Attaches a virtual clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Runs the walk until a budget or violation stops it.
    ///
    /// `observe` is called after every operation with the running stats —
    /// the Fig. 3 harness samples rate and swap usage through it. Pass
    /// `|_| {}` when not needed.
    pub fn run_observed<S: ModelSystem>(
        &self,
        sys: &mut S,
        observe: impl FnMut(&ExploreStats),
    ) -> ExploreReport<S::Op> {
        with_fresh_visited(&self.cfg, |visited| {
            self.run_resumable(sys, visited, observe)
        })
    }

    /// Runs with a caller-owned visited set (§7 resumability — see
    /// [`DfsExplorer::run_with_visited`]) and a progress observer. The set
    /// may also be a swarm-shared [`crate::ShardedVisited`], in which case
    /// states another worker already expanded count as matched here.
    pub fn run_resumable<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        sys: &mut S,
        visited: &mut V,
        observe: impl FnMut(&ExploreStats),
    ) -> ExploreReport<S::Op> {
        self.run_until(sys, visited, observe, || false)
    }

    /// [`RandomWalk::run_resumable`] that also ends, reporting
    /// [`StopReason::Exhausted`], once `halt` returns true; the swarm
    /// drains its walk workers through it.
    pub(crate) fn run_until<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        sys: &mut S,
        visited: &mut V,
        observe: impl FnMut(&ExploreStats),
        halt: impl Fn() -> bool,
    ) -> ExploreReport<S::Op> {
        explore(
            &self.cfg,
            self.clock.as_ref(),
            sys,
            visited,
            |k, sys, visited, root| walk(k, sys, visited, root, observe, halt),
        )
    }

    /// Runs the walk without an observer.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        self.run_observed(sys, |_| {})
    }
}

//! The four workloads: how each harness is built, explored, and checked.
//!
//! Every harness is assembled here from the public constructors
//! (`ext_on`, `xfs_on`, `jffs2_on`, `verifs_fuse`, `RemountTarget`,
//! `CheckpointTarget`, `Mcfs::with_clock`), so traced and untraced
//! repetitions share one construction path and the decorators slot in
//! around the targets, the harness and the visited set.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blockdev::{Clock, LatencyModel};
use fs_ext::ExtConfig;
use mcfs::{
    CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig, RemountMode, RemountTarget,
};
use mcfs_bench::{ext_on, jffs2_on, scaled_mem, verifs_fuse, xfs_on};
use mdigest::Md5;
use modelcheck::{
    run_swarm, DfsExplorer, ExploreConfig, ExploreReport, ExploreStats, ModelSystem, RandomWalk,
    StopReason, SwarmConfig, VisitedHandle, VisitedSet, WorkerStrategy,
};
use verifs::BugConfig;

use crate::decor::{Observed, TracedSystem, TracedTarget, TracedVisited};
use crate::ledger::{Spans, Tracer};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive sleep-set DFS over VeriFS1 vs VeriFS2 through FUSE with
    /// the checkpoint API: the checker's own per-transition work dominates.
    VerifsDfs,
    /// Exhaustive sleep-set DFS over Ext2 vs Ext4 on RAM devices, remounting
    /// around every operation: mount, device images and ext code dominate.
    ExtRemountDfs,
    /// The same bounded space as `ExtRemountDfs`, split across two
    /// work-stealing DFS workers sharing one visited set.
    ExtRemountSwarm2,
    /// A Figure-3-mode random walk over Ext4 vs XFS vs JFFS2 with majority
    /// voting: flash mount scans, XFS image restores, random restarts, swap.
    FlashXfsWalk,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::VerifsDfs,
        Workload::ExtRemountDfs,
        Workload::ExtRemountSwarm2,
        Workload::FlashXfsWalk,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifsDfs => "verifs-dfs",
            Workload::ExtRemountDfs => "ext-remount-dfs",
            Workload::ExtRemountSwarm2 => "ext-remount-swarm2",
            Workload::FlashXfsWalk => "flash-xfs-walk",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bound of one repetition: depth 3 for the exhaustive searches
    /// (one repetition takes well under a second, so a run holds dozens),
    /// 1500 ops for the walk (a run pools eight). `smoke` selects a tiny
    /// bound for tests.
    pub fn bound(self, smoke: bool) -> Bound {
        match (self, smoke) {
            (Workload::FlashXfsWalk, false) => Bound {
                depth: 25,
                ops: 1500,
            },
            (Workload::FlashXfsWalk, true) => Bound { depth: 25, ops: 40 },
            (_, false) => Bound { depth: 3, ops: 0 },
            (_, true) => Bound { depth: 2, ops: 0 },
        }
    }
}

/// Size of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// Depth bound (walk: length between restarts).
    pub depth: usize,
    /// Op budget (walk only; the searches run to exhaustion).
    pub ops: u64,
}

/// What an exhaustive search of a bounded space must find: the distinct
/// state count and an MD5 over the sorted visited fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Distinct abstract states.
    pub states: u64,
    /// Digest of the sorted fingerprints (`None` where the benchmark does
    /// not own the visited set).
    pub digest: Option<u128>,
}

/// The reference outcomes of the exhaustive workloads at their bounds.
/// The swarm covers exactly the space of `ext-remount-dfs`.
pub fn reference(w: Workload, b: Bound) -> Option<Reference> {
    use Workload::{ExtRemountDfs, ExtRemountSwarm2, VerifsDfs};
    let (states, digest) = match (w, b.depth) {
        (VerifsDfs, 2) => (133, 0xe345_183b_3f63_6e33_c64d_40bd_1980_e167),
        (VerifsDfs, 3) => (1_729, 0x5da9_f5b8_c1d9_e19f_e37b_6d5a_aeff_fc98),
        (ExtRemountDfs | ExtRemountSwarm2, 2) => (160, 0x2440_5fc6_6d74_856b_a746_3e46_d6ca_c115),
        (ExtRemountDfs | ExtRemountSwarm2, 3) => (2_256, 0x1fda_baa2_8b64_71bb_1a94_0c12_4c2f_0292),
        _ => return None,
    };
    Some(Reference {
        states,
        digest: (w != Workload::ExtRemountSwarm2).then_some(digest),
    })
}

/// Values of one repetition that are not spans: counts the explorer
/// reports, and what the decorators observed besides time.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Explorer counters (a fleet's workers merged).
    pub stats: ExploreStats,
    /// Resize events the visited set reported.
    pub visited_resizes: u64,
    /// Peak bytes of the visited set.
    pub visited_peak_bytes: u64,
    /// Branches the sleep sets skipped (the explorer's `pruned` minus the
    /// `apply` calls that returned `Prune`).
    pub por_pruned: u64,
    /// Thread time inside decorated calls over threads × wall time of the
    /// explore call (one thread outside the swarm); traced runs only.
    pub swarm_busy_frac: f64,
    /// Replayed ops over executed plus replayed ops (0 outside the swarm).
    pub swarm_replayed_frac: f64,
    /// Busiest worker's ops over the mean (1 outside the swarm).
    pub swarm_ops_imbalance: f64,
    /// Peak host bytes held by the targets' checkpoint stores, sampled
    /// after every checkpoint (a fleet: the sum of its workers' peaks);
    /// traced runs only.
    pub ckpt_peak_resident_bytes: u64,
}

/// The outcome of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The seed the repetition ran with.
    pub seed: u64,
    /// Host probe time measured just before the repetition.
    pub probe_ns: u64,
    /// Wall time to a ready harness (all harnesses, for a fleet).
    pub setup_ns: u64,
    /// Wall time of the explore call.
    pub explore_ns: u64,
    /// Distinct abstract states discovered.
    pub states: u64,
    /// Transitions attempted (`ops_executed`).
    pub ops: u64,
    /// Virtual time of the explore call (a fleet: its busiest worker).
    pub virt_ns: u64,
    /// Digest of the sorted visited fingerprints, where the benchmark owns
    /// the visited set.
    pub digest: Option<u128>,
    /// Why the repetition failed its correctness gate, if it did.
    pub failure: Option<String>,
    /// The span ledger with its root, for traced repetitions.
    pub spans: Option<Spans>,
    /// Non-span per-layer values.
    pub layers: Layers,
}

impl Rep {
    /// Distinct states per wall second of the explore call, as measured.
    pub fn states_per_s(&self) -> f64 {
        self.states as f64 * 1e9 / self.explore_ns.max(1) as f64
    }
}

/// The harness configuration: the given op pool, and the defaults otherwise
/// (free-space equalization, majority voting with three targets,
/// incremental fingerprints).
fn mcfs_config(pool: PoolConfig) -> McfsConfig {
    McfsConfig {
        pool,
        ..McfsConfig::default()
    }
}

/// A harness ready to explore.
struct Built {
    harness: Mcfs,
    clock: Clock,
    tracer: Option<Tracer>,
    setup_ns: u64,
}

/// Builds the harness of `w`, wrapping every target when tracing.
fn build(w: Workload, trace: bool) -> Result<Built, String> {
    let start = Instant::now();
    let clock = Clock::new();
    let tracer = trace.then(|| Tracer::new(clock.clone()));
    let wrap = |t: Box<dyn CheckedTarget>, fs: &str| -> Box<dyn CheckedTarget> {
        match &tracer {
            Some(tr) => Box::new(TracedTarget::new(t, fs, tr.clone())),
            None => t,
        }
    };
    let ram = LatencyModel::ram();
    let (targets, cfg) = match w {
        Workload::VerifsDfs => {
            let v1 = verifs_fuse(1, BugConfig::none(), clock.clone());
            let v2 = verifs_fuse(2, BugConfig::none(), clock.clone());
            (
                vec![
                    wrap(Box::new(CheckpointTarget::new(v1)), "verifs1"),
                    wrap(Box::new(CheckpointTarget::new(v2)), "verifs2"),
                ],
                mcfs_config(PoolConfig::medium()),
            )
        }
        Workload::ExtRemountDfs | Workload::ExtRemountSwarm2 => {
            let e2 = ext_on(ExtConfig::ext2(), ram, clock.clone()).map_err(|e| e.to_string())?;
            let e4 = ext_on(ExtConfig::ext4(), ram, clock.clone()).map_err(|e| e.to_string())?;
            (
                vec![
                    wrap(
                        Box::new(
                            RemountTarget::new(e2, RemountMode::PerOp).with_clock(clock.clone()),
                        ),
                        "ext2",
                    ),
                    wrap(
                        Box::new(
                            RemountTarget::new(e4, RemountMode::PerOp).with_clock(clock.clone()),
                        ),
                        "ext4",
                    ),
                ],
                mcfs_config(PoolConfig::medium()),
            )
        }
        Workload::FlashXfsWalk => {
            let e4 = ext_on(ExtConfig::ext4(), ram, clock.clone()).map_err(|e| e.to_string())?;
            let xfs = xfs_on(ram, clock.clone()).map_err(|e| e.to_string())?;
            let j2 = jffs2_on(clock.clone()).map_err(|e| e.to_string())?;
            (
                vec![
                    wrap(
                        Box::new(
                            RemountTarget::new(e4, RemountMode::PerOp).with_clock(clock.clone()),
                        ),
                        "ext4",
                    ),
                    wrap(
                        Box::new(
                            RemountTarget::new(xfs, RemountMode::PerOp).with_clock(clock.clone()),
                        ),
                        "xfs",
                    ),
                    wrap(
                        Box::new(
                            RemountTarget::new(j2, RemountMode::PerOp).with_clock(clock.clone()),
                        ),
                        "jffs2",
                    ),
                ],
                // The medium pool finds new states so fast that retained
                // XFS images exhaust the scaled memory model (16 GiB of
                // swap) within the op budget.
                mcfs_config(PoolConfig::small()),
            )
        }
    };
    let harness = Mcfs::with_clock(targets, cfg, clock.clone()).map_err(|e| e.to_string())?;
    let setup_ns = elapsed_ns(start);
    if let Some(t) = &tracer {
        t.reset();
    }
    Ok(Built {
        harness,
        clock,
        tracer,
        setup_ns,
    })
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("elapsed fits u64")
}

fn explore_config(w: Workload, b: Bound, seed: u64) -> ExploreConfig {
    let base = ExploreConfig {
        max_depth: b.depth,
        mem: scaled_mem(),
        // SPIN keeps tracked state data for the whole run.
        retain_states: true,
        stop_on_violation: true,
        seed,
        ..ExploreConfig::default()
    };
    match w {
        Workload::FlashXfsWalk => ExploreConfig {
            max_ops: b.ops,
            restart_spread: 0.6,
            backtrack_on_match: true,
            ..base
        },
        _ => ExploreConfig {
            max_ops: u64::MAX,
            por: true,
            ..base
        },
    }
}

/// Wraps a traced harness in its `ModelSystem` decorator.
fn traced_system(built: Built) -> (TracedSystem<Mcfs>, Arc<Observed>, Tracer) {
    let tracer = built.tracer.expect("traced harness has a tracer");
    let sys = TracedSystem::new(built.harness, tracer.clone());
    let seen = sys.observed();
    (sys, seen, tracer)
}

/// Runs the explorer of `w` with a caller-owned visited set.
fn drive<S: ModelSystem, V: VisitedHandle>(
    w: Workload,
    cfg: ExploreConfig,
    clock: &Clock,
    sys: &mut S,
    visited: &mut V,
) -> ExploreReport<S::Op> {
    match w {
        Workload::FlashXfsWalk => RandomWalk::new(cfg)
            .with_clock(clock.clone())
            .run_resumable(sys, visited, |_| {}),
        _ => DfsExplorer::new(cfg)
            .with_clock(clock.clone())
            .run_with_visited(sys, visited),
    }
}

/// MD5 over the sorted visited fingerprints.
fn visited_digest(v: &VisitedSet) -> u128 {
    let mut md5 = Md5::new();
    v.stream_entries(|h, _| md5.update(&h.to_le_bytes()));
    md5.finalize().as_u128()
}

/// The gate every repetition passes: no violation, and a clean stop.
fn stop_gate<Op>(report: &ExploreReport<Op>) -> Option<String> {
    if let Some(v) = report.violations.first() {
        return Some(format!("violation: {}", v.message));
    }
    match report.stop {
        StopReason::Exhausted | StopReason::OpBudget => None,
        ref other => Some(format!("stopped with {other:?}")),
    }
}

/// Runs one repetition of `w` at bound `b`.
///
/// # Errors
///
/// When a harness cannot be built.
pub fn run_rep(w: Workload, b: Bound, seed: u64, trace: bool) -> Result<Rep, String> {
    match w {
        Workload::ExtRemountSwarm2 => run_swarm_rep(w, b, seed, trace),
        _ => run_single_rep(w, b, seed, trace),
    }
}

fn run_single_rep(w: Workload, b: Bound, seed: u64, trace: bool) -> Result<Rep, String> {
    let cfg = explore_config(w, b, seed);
    let capacity = cfg.visited_capacity;
    let built = build(w, trace)?;
    let setup_ns = built.setup_ns;
    let mut layers = Layers::default();
    let (report_stats, stop, explore_ns, virt_ns, digest, spans) = if trace {
        let clock = built.clock.clone();
        let (mut sys, seen, tracer) = traced_system(built);
        let mut visited = TracedVisited::new(VisitedSet::new(capacity), tracer.clone());
        let v0 = clock.now_ns();
        let t0 = Instant::now();
        let report = drive(w, cfg, &clock, &mut sys, &mut visited);
        let explore_ns = elapsed_ns(t0);
        let virt_ns = clock.now_ns() - v0;
        layers.visited_resizes = visited.resizes();
        layers.por_pruned = report
            .stats
            .pruned
            .saturating_sub(seen.prunes.load(Ordering::Relaxed));
        layers.ckpt_peak_resident_bytes = seen.peak_resident.load(Ordering::Relaxed);
        let spans = tracer.spans();
        layers.swarm_busy_frac = spans.top_wall_ns as f64 / explore_ns.max(1) as f64;
        let spans = spans.with_root(
            i64::try_from(explore_ns).expect("ns fit i64"),
            i64::try_from(virt_ns).expect("ns fit i64"),
        );
        let gate = stop_gate(&report);
        (
            report.stats,
            gate,
            explore_ns,
            virt_ns,
            visited_digest(visited.inner()),
            Some(spans),
        )
    } else {
        let Built {
            mut harness, clock, ..
        } = built;
        let mut visited = VisitedSet::new(capacity);
        let v0 = clock.now_ns();
        let t0 = Instant::now();
        let report = drive(w, cfg, &clock, &mut harness, &mut visited);
        let explore_ns = elapsed_ns(t0);
        let virt_ns = clock.now_ns() - v0;
        let gate = stop_gate(&report);
        (
            report.stats,
            gate,
            explore_ns,
            virt_ns,
            visited_digest(&visited),
            None,
        )
    };
    layers.visited_peak_bytes = report_stats.visited_peak_bytes;
    layers.swarm_ops_imbalance = 1.0;
    let states = report_stats.states_new;
    let ops = report_stats.ops_executed;
    let mut failure = stop;
    if failure.is_none() {
        failure = reference_gate(w, b, states, Some(digest));
    }
    if let (None, Some(s)) = (&failure, &spans) {
        failure = s.check().err().map(|e| format!("ledger: {e}"));
    }
    layers.stats = report_stats;
    Ok(Rep {
        seed,
        probe_ns: 0,
        setup_ns,
        explore_ns,
        states,
        ops,
        virt_ns,
        digest: Some(digest),
        failure,
        spans,
        layers,
    })
}

/// Compares a repetition against the workload's reference, if it has one.
fn reference_gate(w: Workload, b: Bound, states: u64, digest: Option<u128>) -> Option<String> {
    let r = reference(w, b)?;
    if r.states != states {
        let digest = digest.map_or(String::new(), |d| format!(" (digest {d:032x})"));
        return Some(format!(
            "{states} distinct states{digest}, reference {}",
            r.states
        ));
    }
    match (r.digest, digest) {
        (Some(want), Some(got)) if want != got => {
            Some(format!("visited digest {got:032x}, reference {want:032x}"))
        }
        _ => None,
    }
}

const SWARM_WORKERS: usize = 2;

fn run_swarm_rep(w: Workload, b: Bound, seed: u64, trace: bool) -> Result<Rep, String> {
    let cfg = SwarmConfig {
        workers: SWARM_WORKERS,
        base: explore_config(w, b, seed),
        shared_visited: true,
        strategies: vec![WorkerStrategy::Dfs],
    };
    // The harnesses are built before the fleet starts, so set-up and
    // exploration are timed apart; the factory hands them out.
    let mut setup_ns = 0;
    let mut built = Vec::with_capacity(SWARM_WORKERS);
    for _ in 0..SWARM_WORKERS {
        let b = build(w, trace)?;
        setup_ns += b.setup_ns;
        built.push(b);
    }
    let clocks: Vec<Clock> = built.iter().map(|b| b.clock.clone()).collect();
    let v0: Vec<u64> = clocks.iter().map(Clock::now_ns).collect();
    let mut layers = Layers::default();
    let (workers, total_states, visited_peak, explore_ns, spans) = if trace {
        let mut tracers = Vec::new();
        let mut seens = Vec::new();
        let mut systems = Vec::new();
        for b in built {
            let (sys, seen, tracer) = traced_system(b);
            tracers.push(tracer);
            seens.push(seen);
            systems.push(Some(sys));
        }
        let slots = Mutex::new(systems);
        let t0 = Instant::now();
        let report = run_swarm(&cfg, |idx| take_slot(&slots, idx));
        let explore_ns = elapsed_ns(t0);
        let mut spans = Spans::default();
        for t in &tracers {
            spans.merge(&t.spans());
        }
        let prunes: u64 = seens.iter().map(|s| s.prunes.load(Ordering::Relaxed)).sum();
        let pruned: u64 = report.workers.iter().map(|r| r.stats.pruned).sum();
        layers.por_pruned = pruned.saturating_sub(prunes);
        layers.ckpt_peak_resident_bytes = seens
            .iter()
            .map(|s| s.peak_resident.load(Ordering::Relaxed))
            .sum();
        layers.swarm_busy_frac =
            spans.top_wall_ns as f64 / (SWARM_WORKERS as f64 * explore_ns.max(1) as f64);
        let virt: u64 = clocks.iter().zip(&v0).map(|(c, v)| c.now_ns() - v).sum();
        let spans = spans.with_root(
            i64::try_from(SWARM_WORKERS as u64 * explore_ns).expect("ns fit i64"),
            i64::try_from(virt).expect("ns fit i64"),
        );
        let states = report.total_states();
        (
            report.workers,
            states,
            report.visited_peak_bytes,
            explore_ns,
            Some(spans),
        )
    } else {
        let slots = Mutex::new(built.into_iter().map(|b| Some(b.harness)).collect());
        let t0 = Instant::now();
        let report = run_swarm(&cfg, |idx| take_slot(&slots, idx));
        let explore_ns = elapsed_ns(t0);
        let states = report.total_states();
        (
            report.workers,
            states,
            report.visited_peak_bytes,
            explore_ns,
            None,
        )
    };
    let virt_ns = clocks
        .iter()
        .zip(&v0)
        .map(|(c, v)| c.now_ns() - v)
        .max()
        .unwrap_or(0);
    let mut stats = ExploreStats::default();
    for r in &workers {
        stats.merge(&r.stats);
    }
    let worker_ops: Vec<u64> = workers.iter().map(|r| r.stats.ops_executed).collect();
    let mean_ops = stats.ops_executed as f64 / SWARM_WORKERS as f64;
    layers.swarm_ops_imbalance =
        worker_ops.iter().copied().max().unwrap_or(0) as f64 / mean_ops.max(1.0);
    layers.swarm_replayed_frac =
        stats.ops_replayed as f64 / (stats.ops_executed + stats.ops_replayed).max(1) as f64;
    layers.visited_resizes = u64::from(stats.resize_events);
    layers.visited_peak_bytes = visited_peak;
    let mut failure = workers.iter().find_map(stop_gate);
    if failure.is_none() {
        failure = reference_gate(w, b, total_states, None);
    }
    if let (None, Some(s)) = (&failure, &spans) {
        failure = s.check().err().map(|e| format!("ledger: {e}"));
    }
    let ops = stats.ops_executed;
    layers.stats = stats;
    Ok(Rep {
        seed,
        probe_ns: 0,
        setup_ns,
        explore_ns,
        states: total_states,
        ops,
        virt_ns,
        digest: None,
        failure,
        spans,
        layers,
    })
}

fn take_slot<S>(slots: &Mutex<Vec<Option<S>>>, idx: usize) -> S {
    slots.lock().expect("slot lock")[idx]
        .take()
        .expect("the fleet asks for each worker's harness once")
}

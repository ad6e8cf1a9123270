//! Frontier-fleet scaling and kill-and-resume overhead.
//!
//! The classic swarm (seed-diversified random walks) parallelizes trivially
//! but duplicates work; the frontier fleet splits the *same* depth-bounded
//! search across workers in breadth-first rounds, each expansion done
//! exactly once fleet-wide and dealt to the same worker on every run. This bench measures how aggregate throughput scales with the
//! fleet size, in **virtual time**: every worker owns a virtual clock that
//! its harness charges per operation, and the fleet's elapsed time is the
//! busiest worker's clock — on an N-worker fleet with perfect balance that
//! is 1/N of the single-worker time, regardless of how many physical CPUs
//! the host has. (Wall-clock would measure the host, not the algorithm;
//! this container has one CPU.)
//!
//! A second section measures what resuming from a [`modelcheck::pickle`]
//! snapshot costs: an interrupted run's visited set and frontier are
//! reloaded, frontier prefixes are replayed to rebuild concrete states, and
//! the sum of both phases' virtual times is compared against one
//! uninterrupted run. The resumed phase must re-discover **zero**
//! previously-visited states.
//!
//! Output: human-readable tables, then JSON (also written to
//! `BENCH_swarm.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin swarm_scale [--quick]`

use std::sync::Mutex;

use blockdev::{Clock, LatencyModel};
use mcfs::{FsOp, FsOpCodec, Mcfs, McfsConfig, PoolConfig, RemountMode};
use mcfs_bench::{pair_ext2_ext4_cfg, pair_verifs_cfg, BenchArgs, BenchReport, Pairing, Row};
use modelcheck::{
    load_snapshot, run_swarm, run_swarm_persistent, ExploreConfig, SwarmConfig, SwarmPersist,
    SwarmReport, WorkerStrategy,
};
use vfs::VfsResult;

type PairingBuilder = Box<dyn Fn(McfsConfig) -> VfsResult<Pairing> + Sync>;

fn swarm_cfg(workers: usize, max_depth: usize, max_ops: u64) -> SwarmConfig {
    SwarmConfig {
        workers,
        base: ExploreConfig {
            max_depth,
            max_ops,
            seed: 7,
            ..ExploreConfig::default()
        },
        shared_visited: true,
        strategies: vec![WorkerStrategy::Dfs],
    }
}

/// Runs a fleet, returning the report plus the fleet's virtual elapsed time
/// (the busiest worker's clock) in nanoseconds.
fn run_timed(
    cfg: &SwarmConfig,
    build: &PairingBuilder,
    harness_cfg: &McfsConfig,
    persist: Option<SwarmPersist<'_, FsOp>>,
) -> (SwarmReport<FsOp>, u64) {
    let clocks: Mutex<Vec<Clock>> = Mutex::new(Vec::new());
    let factory = |_idx: usize| -> Mcfs {
        let pairing = build(harness_cfg.clone()).expect("pairing builds");
        clocks.lock().unwrap().push(pairing.clock.clone());
        pairing.harness
    };
    let report = match persist {
        Some(p) => run_swarm_persistent(cfg, factory, p),
        None => run_swarm(cfg, factory),
    };
    let elapsed = clocks
        .lock()
        .unwrap()
        .iter()
        .map(|c| c.now_ns())
        .max()
        .unwrap_or(1)
        .max(1);
    (report, elapsed)
}

fn main() {
    let quick = BenchArgs::parse("swarm_scale [--quick]").quick;

    let harness_cfg = McfsConfig {
        pool: PoolConfig::small(),
        ..McfsConfig::default()
    };
    let builders: Vec<(&'static str, usize, PairingBuilder)> = vec![
        (
            "verifs1-vs-verifs2",
            if quick { 3 } else { 4 },
            Box::new(pair_verifs_cfg),
        ),
        (
            "ext2-vs-ext4-ram",
            3,
            Box::new(|cfg| pair_ext2_ext4_cfg(LatencyModel::ram(), RemountMode::PerOp, cfg)),
        ),
    ];
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };

    // Section 1: scaling. Every fleet size exhausts the same depth-bounded
    // space in the same breadth-first order, so states/s ratios reduce to
    // virtual-elapsed ratios.
    let mut scale_rows = Vec::new();
    for (label, depth, build) in &builders {
        let mut single = None; // (states, states/s) of the 1-worker fleet
        for &workers in worker_counts {
            let cfg = swarm_cfg(workers, *depth, u64::MAX);
            let (report, elapsed) = run_timed(&cfg, build, &harness_cfg, None);
            assert!(
                !report.found_violation(),
                "{label}: scaling run must be violation-free"
            );
            let states = report.total_states();
            let rate = states as f64 * 1e9 / elapsed as f64;
            let (single_states, single_rate) = *single.get_or_insert((states, rate));
            assert_eq!(
                states, single_states,
                "{label}: {workers} workers explored a different space than one"
            );
            let speedup = rate / single_rate;
            assert!(
                quick || workers != 4 || speedup >= 3.0,
                "{label}: aggregate states/s at 4 workers is only {speedup:.2}x the \
                 single-worker rate (acceptance floor: 3x)"
            );
            scale_rows.push(
                Row::new()
                    .str("pairing", *label)
                    .count("workers", workers as u64)
                    .count("states", states)
                    .ms("virtual", elapsed)
                    .rate("states", rate)
                    .num("speedup", speedup),
            );
        }
    }

    // Section 2: kill-and-resume. Interrupt a 2-worker run with a tight op
    // budget, snapshot, resume from the file, and compare against one
    // uninterrupted run of the same space.
    let mut resume_rows = Vec::new();
    let snap_dir = std::env::temp_dir().join("mcfs-swarm-scale");
    std::fs::create_dir_all(&snap_dir).expect("temp dir");
    for (label, depth, build) in &builders {
        let full_cfg = swarm_cfg(2, *depth, u64::MAX);
        let (control, control_ns) = run_timed(&full_cfg, build, &harness_cfg, None);
        let full_states = control.total_states();

        let path = snap_dir.join(format!("{label}.pickle"));
        let _ = std::fs::remove_file(&path);
        // Interrupt roughly mid-run. The fleet checks its budget at round
        // barriers, so rounds of 4 entries stop it close to the cut.
        let cut_ops = (control.total_ops() / 2).max(10);
        let (phase1, phase1_ns) = run_timed(
            &swarm_cfg(2, *depth, cut_ops),
            build,
            &harness_cfg,
            Some(SwarmPersist {
                codec: &FsOpCodec,
                snapshot_path: Some(path.clone()),
                snapshot_every: 4,
                resume: None,
            }),
        );
        assert!(
            phase1.persist_error.is_none(),
            "{label}: snapshot failed: {:?}",
            phase1.persist_error
        );
        let snap = load_snapshot(&path, &FsOpCodec).expect("snapshot loads");
        let baseline_states = snap.stats.states_new;
        let (phase2, phase2_ns) = run_timed(
            &full_cfg,
            build,
            &harness_cfg,
            Some(SwarmPersist {
                codec: &FsOpCodec,
                snapshot_path: Some(path.clone()),
                snapshot_every: 0,
                resume: Some(snap),
            }),
        );
        let resumed_new: u64 = phase2.workers.iter().map(|w| w.stats.states_new).sum();
        let distinct = phase2.total_states();
        // Anything re-explored would be re-counted as new by some worker.
        let reexplored = (baseline_states + resumed_new).saturating_sub(distinct);
        assert_eq!(
            reexplored, 0,
            "{label}: resumed run re-explored {reexplored} previously-visited states"
        );
        assert_eq!(
            distinct, full_states,
            "{label}: two-phase run lost states ({distinct} vs {full_states})"
        );
        let two_phase_ns = phase1_ns + phase2_ns;
        resume_rows.push(
            Row::new()
                .str("pairing", *label)
                .count("baseline_states", baseline_states)
                .count("resumed_new", resumed_new)
                .count("distinct", distinct)
                .count("reexplored", reexplored)
                .count("replayed_ops", phase2.total_replayed())
                .ms("uninterrupted", control_ns)
                .ms("two_phase", two_phase_ns)
                .num(
                    "overhead_frac",
                    two_phase_ns as f64 / control_ns.max(1) as f64 - 1.0,
                ),
        );
        let _ = std::fs::remove_file(&path);
    }

    let mut out = BenchReport::new("swarm", quick);
    out.table("scale", "Frontier fleet scaling (virtual time)", scale_rows);
    out.table(
        "resume",
        "Kill-and-resume overhead (vs uninterrupted)",
        resume_rows,
    );
    out.finish();
}

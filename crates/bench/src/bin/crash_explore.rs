//! Crash-consistency exploration cost: what does adding the
//! nondeterministic `Crash` pseudo-op to the operation pool do to
//! exploration throughput?
//!
//! Each pairing is explored twice under the same DFS budget — once with the
//! plain pool, once with crash exploration on — and the states/s rates are
//! compared in virtual time. The crash runs double as the acceptance check:
//! both pairings recover prefix-consistently from every injected power cut,
//! so the runs must be violation-free while reporting a non-zero crash
//! count.
//!
//! Output: a human-readable table, then JSON (also written to
//! `BENCH_crash.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin crash_explore [ops] [--quick]`
//!
//! `--quick` shrinks the budget to CI-smoke size.
//!
//! # Kill-and-resume mode
//!
//! `crash_explore --snapshot run.pickle [ops]` runs a frontier fleet over
//! the VeriFS pairing (crash exploration on), stops it at the first round
//! barrier past `min(ops, 100)` ops, about halfway through the space, and
//! persists the run — visited set, frontier of replayable op-prefixes,
//! stats — to `run.pickle` (atomic tempfile + rename, safe to SIGKILL; a
//! snapshot is also cut every 8 frontier entries). A later
//! `crash_explore --resume run.pickle` reloads the file and finishes the
//! exploration, re-exploring **zero** previously-visited states; the
//! process enforces that invariant and reports what the resume cost.

use blockdev::LatencyModel;
use mcfs::{FsOpCodec, McfsConfig, PoolConfig, RemountMode};
use mcfs_bench::{
    measure_dfs, pair_ext2_ext4_cfg, pair_verifs_cfg, BenchArgs, BenchReport, Pairing, Row,
};
use modelcheck::{
    load_snapshot, run_swarm_persistent, ExploreConfig, SwarmConfig, SwarmPersist, WorkerStrategy,
};
use vfs::VfsResult;

type PairingBuilder = Box<dyn Fn(McfsConfig) -> VfsResult<Pairing>>;

fn measure(
    label: &'static str,
    crash_exploration: bool,
    budget: u64,
    build: &dyn Fn(McfsConfig) -> VfsResult<Pairing>,
) -> Row {
    let cfg = McfsConfig {
        pool: PoolConfig::small(),
        crash_exploration,
        ..McfsConfig::default()
    };
    let mut pairing = build(cfg).expect("pairing");
    let (ops_per_sec, report) = measure_dfs(&mut pairing, budget);
    let crash = report.stats.crash.unwrap_or_default();
    if crash_exploration {
        assert!(crash.crashes > 0, "{label}: no crash branches explored");
        assert_eq!(
            crash.divergent_recoveries, 0,
            "{label}: identical implementations cannot diverge on recovery"
        );
    }
    let states_per_sec =
        ops_per_sec * report.stats.states_new as f64 / report.stats.ops_executed.max(1) as f64;
    Row::new()
        .str("pairing", label)
        .flag("crash_exploration", crash_exploration)
        .rate("ops", ops_per_sec)
        .rate("states", states_per_sec)
        .count("states_new", report.stats.states_new)
        .count("crashes", crash.crashes)
        .count("recoveries", crash.recoveries)
        .count("divergent_recoveries", crash.divergent_recoveries)
        .count("violations", 0)
}

/// The fleet used by the `--snapshot` / `--resume` modes: a 2-worker
/// frontier fleet over the VeriFS pairing with crash exploration on.
fn resumable_cfg(max_ops: u64) -> SwarmConfig {
    SwarmConfig {
        workers: 2,
        base: ExploreConfig {
            max_depth: 3,
            max_ops,
            seed: 7,
            ..ExploreConfig::default()
        },
        shared_visited: true,
        strategies: vec![WorkerStrategy::Dfs],
    }
}

fn resumable_factory(_idx: usize) -> mcfs::Mcfs {
    let cfg = McfsConfig {
        pool: PoolConfig::small(),
        crash_exploration: true,
        ..McfsConfig::default()
    };
    pair_verifs_cfg(cfg).expect("pairing").harness
}

/// `--snapshot <file>`: bounded run, persisted atomically to `<file>`.
fn snapshot_mode(path: &str, budget: u64) {
    let report = run_swarm_persistent(
        &resumable_cfg(budget),
        resumable_factory,
        SwarmPersist {
            codec: &FsOpCodec,
            snapshot_path: Some(path.into()),
            snapshot_every: 8,
            resume: None,
        },
    );
    if let Some(e) = &report.persist_error {
        eprintln!("snapshot write failed: {e}");
        std::process::exit(1);
    }
    println!(
        "snapshot: {} states, {} ops, frontier persisted to {path}",
        report.total_states(),
        report.total_ops()
    );
    println!("resume with: crash_explore --resume {path}");
}

/// `--resume <file>`: reload and finish; zero re-explored states enforced.
fn resume_mode(path: &str) {
    let snap = match load_snapshot(std::path::Path::new(path), &FsOpCodec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "resuming: {} visited states, {} frontier entries, generation {}",
        snap.visited.len(),
        snap.frontier.len(),
        snap.generation
    );
    let report = run_swarm_persistent(
        &resumable_cfg(u64::MAX),
        resumable_factory,
        SwarmPersist {
            codec: &FsOpCodec,
            snapshot_path: Some(path.into()),
            snapshot_every: 8,
            resume: Some(snap),
        },
    );
    let resumed_new: u64 = report.workers.iter().map(|w| w.stats.states_new).sum();
    let distinct = report.total_states();
    let reexplored = (report.baseline.states_new + resumed_new).saturating_sub(distinct);
    assert_eq!(
        reexplored, 0,
        "resume re-explored {reexplored} previously-visited states"
    );
    println!(
        "resumed: {} snapshot + {} new = {} distinct states \
         (0 re-explored, {} ops replayed to rebuild the frontier)",
        report.baseline.states_new,
        resumed_new,
        distinct,
        report.total_replayed()
    );
}

fn main() {
    let args = BenchArgs::parse("crash_explore [ops] [--quick] [--snapshot FILE] [--resume FILE]");
    let budget = args.count_or(if args.quick { 250 } else { 1_500 });
    if let Some(path) = args.value("--snapshot") {
        return snapshot_mode(path, budget.min(100));
    }
    if let Some(path) = args.value("--resume") {
        return resume_mode(path);
    }

    let builders: Vec<(&'static str, PairingBuilder)> = vec![
        ("verifs1-vs-verifs2", Box::new(pair_verifs_cfg)),
        (
            "ext2-vs-ext4-ram",
            Box::new(|cfg| pair_ext2_ext4_cfg(LatencyModel::ram(), RemountMode::PerOp, cfg)),
        ),
    ];

    let mut rows = Vec::new();
    for (label, build) in &builders {
        for crash_exploration in [false, true] {
            rows.push(measure(label, crash_exploration, budget, build.as_ref()));
        }
    }

    let mut out = BenchReport::new("crash", args.quick);
    out.params(Row::new().count("budget_ops", budget));
    out.table("runs", "Crash exploration throughput", rows);
    out.finish();
}

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
//! `crash_explore --snapshot run.pickle [ops]` runs a bounded work-stealing
//! swarm over the VeriFS pairing (crash exploration on) and persists the
//! run — visited set, frontier of replayable op-prefixes, stats — to
//! `run.pickle` (atomic tempfile + rename, safe to SIGKILL). A later
//! `crash_explore --resume run.pickle` reloads the file and finishes the
//! exploration, re-exploring **zero** previously-visited states; the
//! process enforces that invariant and reports what the resume cost.

use blockdev::LatencyModel;
use mcfs::{FsOpCodec, McfsConfig, PoolConfig, RemountMode};
use mcfs_bench::{measure_dfs, pair_ext2_ext4_cfg, pair_verifs_cfg, print_table, Pairing};
use modelcheck::{
    load_snapshot, run_swarm_persistent, CrashStats, ExploreConfig, SwarmConfig, SwarmPersist,
    WorkerStrategy,
};
use vfs::VfsResult;

type PairingBuilder = Box<dyn Fn(McfsConfig) -> VfsResult<Pairing>>;

struct Row {
    pairing: &'static str,
    crash_exploration: bool,
    ops_per_sec: f64,
    states_per_sec: f64,
    states_new: u64,
    crash: CrashStats,
}

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
    assert!(
        report.violations.is_empty(),
        "{label}: crash exploration over correct file systems must be \
         violation-free, found: {}",
        report.violations[0]
    );
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
    Row {
        pairing: label,
        crash_exploration,
        ops_per_sec,
        states_per_sec,
        states_new: report.stats.states_new,
        crash,
    }
}

/// The fleet used by the `--snapshot` / `--resume` modes: a 2-worker
/// work-stealing DFS over the VeriFS pairing with crash exploration on.
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
            snapshot_every: 50,
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
            snapshot_every: 50,
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if quick { 250 } else { 1_500 });
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(path) = flag_value("--snapshot") {
        return snapshot_mode(&path, budget.min(400));
    }
    if let Some(path) = flag_value("--resume") {
        return resume_mode(&path);
    }

    let builders: Vec<(&'static str, PairingBuilder)> = vec![
        ("verifs1-vs-verifs2", Box::new(pair_verifs_cfg)),
        (
            "ext2-vs-ext4-ram",
            Box::new(|cfg| pair_ext2_ext4_cfg(LatencyModel::ram(), RemountMode::PerOp, cfg)),
        ),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (label, build) in &builders {
        for crash_exploration in [false, true] {
            rows.push(measure(label, crash_exploration, budget, build.as_ref()));
        }
    }

    let table: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            (
                format!(
                    "{} [crash {}]",
                    r.pairing,
                    if r.crash_exploration { "on " } else { "off" }
                ),
                format!(
                    "{:>8.1} states/s  {:>8.1} ops/s  {} states, {} crashes ({} recovered)",
                    r.states_per_sec,
                    r.ops_per_sec,
                    r.states_new,
                    r.crash.crashes,
                    r.crash.recoveries
                ),
            )
        })
        .collect();
    print_table("Crash exploration throughput", &table);

    let runs: String = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"pairing\": \"{}\", \"crash_exploration\": {}, \
                 \"ops_per_sec\": {:.1}, \"states_per_sec\": {:.1}, \
                 \"states_new\": {}, \"crashes\": {}, \"recoveries\": {}, \
                 \"divergent_recoveries\": {}, \"violations\": 0}}",
                r.pairing,
                r.crash_exploration,
                r.ops_per_sec,
                r.states_per_sec,
                r.states_new,
                r.crash.crashes,
                r.crash.recoveries,
                r.crash.divergent_recoveries,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n  \"budget_ops\": {budget},\n  \"runs\": [\n{runs}\n  ]\n}}");
    println!("\n{json}");
    std::fs::write("BENCH_crash.json", format!("{json}\n")).expect("write BENCH_crash.json");
}

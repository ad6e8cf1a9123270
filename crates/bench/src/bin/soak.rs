//! §5's soak experiment: a long MCFS run with zero discrepancies.
//!
//! The paper ran MCFS with Ext4 and VeriFS1 for over five days — more than
//! 159 million syscalls without errors, behavioural discrepancies, or
//! corruption. This binary runs the scaled-down equivalent and asserts the
//! same outcome: zero violations across the whole budget.
//!
//! Output: the run's summary and operation coverage, then JSON (the
//! summary, also written to `BENCH_soak.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin soak [ops]`

use mcfs::backends::target;
use mcfs::{Mcfs, McfsConfig, PoolConfig, RemountMode};
use mcfs_bench::{BenchArgs, BenchReport, Row};
use modelcheck::{ExploreConfig, RandomWalk, StopReason};

fn main() {
    let args = BenchArgs::parse("soak [ops]");
    let budget = args.count_or(60_000);
    // Ext4 vs VeriFS1, as in the paper's 5-day run.
    let clock = blockdev::Clock::new();
    let targets = vec![
        target("ext4", RemountMode::PerOp, clock.clone()).expect("format"),
        target("fuse-verifs-v1", RemountMode::PerOp, clock.clone()).expect("mount"),
    ];
    let mut harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::medium(),
            ..McfsConfig::default()
        },
        clock.clone(),
    )
    .expect("harness");
    let walk = RandomWalk::new(ExploreConfig {
        max_depth: 20,
        max_ops: budget,
        seed: 42,
        ..ExploreConfig::default()
    })
    .with_clock(clock.clone());
    let report = walk.run(&mut harness);

    println!("{}", harness.coverage().summary());
    assert_eq!(report.stop, StopReason::OpBudget, "must exhaust the budget");
    assert!(
        report.violations.is_empty(),
        "soak found a false positive: {}",
        report.violations[0]
    );
    let virtual_ns = clock.now_ns();
    let mut out = BenchReport::new("soak", args.quick);
    out.params(Row::new().count("budget_ops", budget));
    out.record(
        "run",
        "Section 5 soak: Ext4 vs VeriFS1",
        Row::new()
            .count("ops", report.stats.ops_executed)
            .count("states", report.stats.states_new)
            .count("violations", report.violations.len() as u64)
            .ms("virtual", virtual_ns)
            .rate(
                "ops",
                report.stats.ops_executed as f64 * 1e9 / virtual_ns.max(1) as f64,
            )
            .str("paper", "159M syscalls over 5+ days, zero discrepancies"),
    );
    out.finish();
}

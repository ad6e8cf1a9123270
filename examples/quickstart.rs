//! Quickstart: model-check VeriFS1 against VeriFS2 with the
//! checkpoint/restore API, exactly as the paper's fastest configuration.
//!
//! Run with: `cargo run --release --example quickstart`

use blockdev::Clock;
use mcfs::backends::target;
use mcfs::{Mcfs, McfsConfig, PoolConfig, RemountMode};
use modelcheck::{DfsExplorer, ExploreConfig, StopReason};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A shared virtual clock accounts every modelled cost.
    let clock = Clock::new();

    // The two file systems under test, each behind a simulated FUSE mount
    // (which hands the file system its kernel-cache invalidation
    // connection). Both use the paper's proposed state-tracking API:
    // ioctl_CHECKPOINT / ioctl_RESTORE, so the remount mode does not apply.
    let targets = vec![
        target("fuse-verifs-v1", RemountMode::PerOp, clock.clone())?,
        target("fuse-verifs-v2", RemountMode::PerOp, clock.clone())?,
    ];
    let mut harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
        clock.clone(),
    )?;

    // Exhaustively explore all operation sequences up to depth 3.
    let report = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 100_000,
        ..ExploreConfig::default()
    })
    .with_clock(clock.clone())
    .run(&mut harness);

    println!("exploration     : {:?}", report.stop);
    println!("ops executed    : {}", report.stats.ops_executed);
    println!("distinct states : {}", report.stats.states_new);
    println!(
        "states matched  : {} (deduplicated)",
        report.stats.states_matched
    );
    println!("violations      : {}", report.violations.len());
    println!("virtual time    : {:.3} s", clock.now_secs());
    if let Some(rate) = report.stats.ops_per_sec() {
        println!("rate            : {rate:.0} ops/s (virtual)");
    }
    assert_eq!(report.stop, StopReason::Exhausted);
    assert!(report.violations.is_empty(), "VeriFS1 and VeriFS2 agree");
    println!("\nVeriFS1 and VeriFS2 agree on the whole bounded state space.");
    Ok(())
}

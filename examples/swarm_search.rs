//! Swarm verification (§7): several diversified randomized searches hunt a
//! seeded bug in parallel; the first to find it stops the fleet.
//!
//! Run with: `cargo run --release --example swarm_search`

use blockdev::Clock;
use mcfs::backends::verifs_fuse;
use mcfs::{CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig};
use modelcheck::{run_swarm, ExploreConfig, SwarmConfig};
use verifs::BugConfig;

fn build_harness(_worker: usize) -> Mcfs {
    let clock = Clock::new();
    let bug = BugConfig {
        v2_hole_no_zero: true,
        ..BugConfig::default()
    };
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(verifs_fuse(
            2,
            BugConfig::none(),
            clock.clone(),
        ))),
        Box::new(CheckpointTarget::new(verifs_fuse(2, bug, clock.clone()))),
    ];
    Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::medium(),
            ..McfsConfig::default()
        },
        clock,
    )
    .expect("harness construction")
}

fn main() {
    let cfg = SwarmConfig {
        workers: 4,
        base: ExploreConfig {
            max_depth: 12,
            max_ops: 150_000,
            seed: 100,
            ..ExploreConfig::default()
        },
        shared_visited: false,
        strategies: vec![],
    };
    println!(
        "launching a swarm of {} diversified searches...",
        cfg.workers
    );
    let report = run_swarm(&cfg, build_harness);

    for (i, w) in report.workers.iter().enumerate() {
        println!(
            "worker {i}: {:?} after {} ops ({} states)",
            w.stop, w.stats.ops_executed, w.stats.states_new
        );
    }
    assert!(
        report.found_violation(),
        "the swarm must find the seeded bug"
    );
    let v = report.violations().next().expect("violation recorded");
    println!(
        "\nfirst detection after {} ops; trace length {}",
        v.ops_executed,
        v.trace.len()
    );
    println!("total ops across the swarm: {}", report.total_ops());
}

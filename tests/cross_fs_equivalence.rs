//! Cross-file-system equivalence: the MCFS property itself, as integration
//! tests. Every pairing of implementations must agree on every operation
//! outcome and abstract state across randomized exploration — zero false
//! positives with the §3.4 workarounds on.

use blockdev::Clock;
use mcfs::{CheckedTarget, Mcfs, McfsConfig, PoolConfig, RemountMode};
use modelcheck::{DfsExplorer, ExploreConfig, RandomWalk, StopReason};

/// A registry backend, remounted around every op where it has a device.
fn target(name: &str, clock: Clock) -> Box<dyn CheckedTarget> {
    mcfs::backends::target(name, RemountMode::PerOp, clock)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn check_pair(a: &str, b: &str, ops: u64) {
    let clock = Clock::new();
    let targets = vec![target(a, clock.clone()), target(b, clock.clone())];
    let mut harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
        clock,
    )
    .unwrap_or_else(|e| panic!("{a} vs {b}: harness failed: {e}"));
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 15,
        max_ops: ops,
        seed: 0xFEED,
        ..ExploreConfig::default()
    })
    .run(&mut harness);
    assert_eq!(
        report.stop,
        StopReason::OpBudget,
        "{a} vs {b}: {}",
        report
            .violations
            .first()
            .map(|v| v.to_string())
            .unwrap_or_default()
    );
}

#[test]
fn verifs_pair_agrees() {
    check_pair("verifs-v1", "verifs-v2", 600);
}

#[test]
fn verifs_agrees_through_fuse() {
    check_pair("verifs-v2", "fuse-verifs-v2", 600);
}

#[test]
fn ext_family_agrees() {
    check_pair("ext2", "ext4", 400);
}

#[test]
fn ext4_vs_xfs_agrees() {
    check_pair("ext4", "xfs", 300);
}

#[test]
fn ext4_vs_jffs2_agrees() {
    check_pair("ext4", "jffs2", 300);
}

#[test]
fn verifs_vs_ext4_agrees() {
    check_pair("verifs-v2", "ext4", 400);
}

#[test]
fn verifs_vs_xfs_agrees() {
    check_pair("verifs-v2", "xfs", 300);
}

#[test]
fn exhaustive_dfs_depth3_all_kernel_pairs_clean() {
    // Bounded-exhaustive: every depth-3 sequence from the small pool.
    for (a, b) in [("ext2", "ext4"), ("verifs-v1", "verifs-v2")] {
        let clock = Clock::new();
        let targets = vec![target(a, clock.clone()), target(b, clock.clone())];
        let mut harness = Mcfs::with_clock(
            targets,
            McfsConfig {
                pool: PoolConfig::small(),
                ..McfsConfig::default()
            },
            clock,
        )
        .unwrap();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 2,
            max_ops: 200_000,
            ..ExploreConfig::default()
        })
        .run(&mut harness);
        assert_eq!(
            report.stop,
            StopReason::Exhausted,
            "{a} vs {b}: {}",
            report
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default()
        );
        assert!(
            report.stats.states_new > 10,
            "{a} vs {b}: explored too little"
        );
    }
}

#[test]
fn three_way_with_voting_is_clean() {
    let clock = Clock::new();
    let targets = vec![
        target("verifs-v2", clock.clone()),
        target("ext4", clock.clone()),
        target("xfs", clock.clone()),
    ];
    let mut harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
        clock,
    )
    .unwrap();
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 10,
        max_ops: 200,
        seed: 5,
        ..ExploreConfig::default()
    })
    .run(&mut harness);
    assert_eq!(report.stop, StopReason::OpBudget);
}

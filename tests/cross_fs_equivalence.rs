//! Cross-file-system equivalence: the MCFS property itself, as integration
//! tests. Every pairing of implementations must agree on every operation
//! outcome and abstract state across randomized exploration — zero false
//! positives with the §3.4 workarounds on.

use blockdev::{Clock, LatencyModel, RamDisk, TimedDevice};
use fs_ext::{ExtConfig, ExtFs};
use fs_xfs::{XfsConfig, XfsFs};
use mcfs::{
    CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig, RemountMode, RemountTarget,
};
use modelcheck::{DfsExplorer, ExploreConfig, RandomWalk, StopReason};
use verifs::VeriFs;
use vfs::FileSystem;

fn target(kind: &str, clock: Clock) -> Box<dyn CheckedTarget> {
    match kind {
        "verifs1" => {
            let mut fs = VeriFs::v1();
            fs.mount().unwrap();
            Box::new(CheckpointTarget::new(fs))
        }
        "verifs2" => {
            let mut fs = VeriFs::v2();
            fs.mount().unwrap();
            Box::new(CheckpointTarget::new(fs))
        }
        "fuse-verifs2" => {
            let mut m = fusesim::FuseMount::with_config(
                VeriFs::v2(),
                fusesim::FuseConfig::default(),
                Some(clock),
            );
            let conn = m.connection();
            m.daemon_mut()
                .fs_mut()
                .set_invalidation_sink(std::sync::Arc::new(conn));
            Box::new(CheckpointTarget::new(m))
        }
        "ext2" | "ext4" => {
            let cfg = if kind == "ext2" {
                ExtConfig::ext2()
            } else {
                ExtConfig::ext4()
            };
            let dev = TimedDevice::new(
                RamDisk::new(cfg.block_size, 256 * 1024).unwrap(),
                LatencyModel::ram(),
                clock.clone(),
            );
            let fs = ExtFs::format(dev, cfg).unwrap();
            Box::new(RemountTarget::new(fs, RemountMode::PerOp).with_clock(clock))
        }
        "xfs" => {
            let cfg = XfsConfig::default();
            let dev = TimedDevice::new(
                RamDisk::new(cfg.block_size, 16 * 1024 * 1024).unwrap(),
                LatencyModel::ram(),
                clock.clone(),
            );
            let fs = XfsFs::format(dev, cfg).unwrap();
            Box::new(RemountTarget::new(fs, RemountMode::PerOp).with_clock(clock))
        }
        "jffs2" => {
            let mtd = blockdev::MtdDevice::new(16 * 1024, 64).unwrap();
            let fs = fs_jffs2::Jffs2Fs::format(
                mtd,
                fs_jffs2::Jffs2Config {
                    clock: Some(clock.clone()),
                    ..fs_jffs2::Jffs2Config::default()
                },
            )
            .unwrap();
            Box::new(RemountTarget::new(fs, RemountMode::PerOp).with_clock(clock))
        }
        other => panic!("unknown fs kind {other}"),
    }
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
    check_pair("verifs1", "verifs2", 600);
}

#[test]
fn verifs_agrees_through_fuse() {
    check_pair("verifs2", "fuse-verifs2", 600);
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
    check_pair("verifs2", "ext4", 400);
}

#[test]
fn verifs_vs_xfs_agrees() {
    check_pair("verifs2", "xfs", 300);
}

#[test]
fn exhaustive_dfs_depth3_all_kernel_pairs_clean() {
    // Bounded-exhaustive: every depth-3 sequence from the small pool.
    for (a, b) in [("ext2", "ext4"), ("verifs1", "verifs2")] {
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
        target("verifs2", clock.clone()),
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

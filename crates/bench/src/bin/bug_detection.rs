//! §6's bug-detection experiments: operations-to-detection for the four
//! historical VeriFS bugs.
//!
//! Paper results: while model-checking VeriFS1 vs Ext4, the truncate bug
//! surfaced after >9 K operations and the cache-invalidation bug after
//! ~12 K; while checking VeriFS2 vs VeriFS1, the hole-zeroing bug surfaced
//! after >900 K and the size-update bug after >1.2 M operations. The ops
//! counts scale with pool size; the reproducible claim is the *ordering*
//! (early-development bugs are shallow, later ones need rarer op combos)
//! and that all four are found by behavioural divergence alone.
//!
//! A run that ends on its op budget is "not detected"; one that stops for
//! any other reason than a violation fails the binary.
//!
//! Output: the table, then JSON (also written to `BENCH_bug_detection.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin bug_detection [max-ops]`

use mcfs::{CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig};
use mcfs_bench::{verifs_fuse, BenchArgs, BenchReport, Row};
use modelcheck::{ExploreConfig, RandomWalk, StopReason};
use verifs::BugConfig;

fn main() {
    let args = BenchArgs::parse("bug_detection [max-ops]");
    let max_ops = args.count_or(400_000);

    let bugs: [(&str, &str, BugConfig, bool); 4] = [
        (
            "bug 1: truncate fails to zero new space",
            ">9K ops (VeriFS1 vs Ext4)",
            BugConfig {
                v1_truncate_no_zero: true,
                ..BugConfig::default()
            },
            false,
        ),
        (
            "bug 2: restore skips kernel-cache invalidation",
            "~12K ops (VeriFS1 vs Ext4)",
            BugConfig {
                v1_skip_invalidation: true,
                ..BugConfig::default()
            },
            false,
        ),
        (
            "bug 3: write does not zero holes",
            ">900K ops (VeriFS2 vs VeriFS1)",
            BugConfig {
                v2_hole_no_zero: true,
                ..BugConfig::default()
            },
            true,
        ),
        (
            "bug 4: size updated only on capacity growth",
            ">1.2M ops (VeriFS2 vs VeriFS1)",
            BugConfig {
                v2_size_only_on_capacity_growth: true,
                ..BugConfig::default()
            },
            true,
        ),
    ];

    let mut rows = Vec::new();
    for (label, paper, cfg, v2_pair) in bugs {
        for seed in 0..3u64 {
            let clock = blockdev::Clock::new();
            let targets: Vec<Box<dyn CheckedTarget>> = if v2_pair {
                // VeriFS2 (buggy) checked against VeriFS1 (reference).
                vec![
                    Box::new(CheckpointTarget::new(verifs_fuse(
                        1,
                        BugConfig::none(),
                        clock.clone(),
                    ))),
                    Box::new(CheckpointTarget::new(verifs_fuse(2, cfg, clock.clone()))),
                ]
            } else {
                // VeriFS1 (buggy) checked against a clean VeriFS2 standing in
                // for the reference implementation.
                vec![
                    Box::new(CheckpointTarget::new(verifs_fuse(
                        2,
                        BugConfig::none(),
                        clock.clone(),
                    ))),
                    Box::new(CheckpointTarget::new(verifs_fuse(1, cfg, clock.clone()))),
                ]
            };
            // VeriFS1-era checking used a small pool (v1 supported few
            // operations); the VeriFS2 bugs were found later against a
            // richer pool — which is also why the paper's ops-to-detection
            // grows by two orders of magnitude between phases.
            let pool = if v2_pair {
                PoolConfig::medium()
            } else {
                PoolConfig::small()
            };
            let mut harness = Mcfs::with_clock(
                targets,
                McfsConfig {
                    pool,
                    ..McfsConfig::default()
                },
                clock,
            )
            .expect("harness");
            let walk = RandomWalk::new(ExploreConfig {
                max_depth: 12,
                max_ops,
                seed,
                ..ExploreConfig::default()
            });
            let report = walk.run(&mut harness);
            let detected = match report.stop {
                StopReason::Violation => Some(report.violations[0].ops_executed),
                StopReason::OpBudget => None,
                other => panic!("{label}, seed {seed}: the run stopped with {other:?}"),
            };
            rows.push(
                Row::new()
                    .str("bug", label)
                    .count("seed", seed)
                    .opt_count("detected_after_ops", detected)
                    .str("paper", paper),
            );
        }
    }
    let mut out = BenchReport::new("bug_detection", args.quick);
    out.params(Row::new().count("max_ops", max_ops));
    out.table(
        "detections",
        "Section 6: ops-to-detection for the four historical bugs",
        rows,
    );
    out.finish();
}

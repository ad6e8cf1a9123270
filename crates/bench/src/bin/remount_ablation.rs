//! §6's remount ablation: MCFS "without the inter-operation remounts".
//!
//! The paper measures Ext2-vs-Ext4 at 316 ops/s without remounts (38% faster
//! than with) and Ext4-vs-XFS 70% faster. This binary reruns both pairings
//! in `RemountMode::PerOp` and `RemountMode::OnRestore` and prints the
//! speedups. Every run must end on its op budget or exhaust its space, with
//! no violation.
//!
//! Measured with the long-run randomized driver (restores happen only on
//! walk restarts, as in the paper's multi-day averages).
//!
//! Output: the table, then JSON (also written to `BENCH_remount.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin remount_ablation [ops]`

use blockdev::LatencyModel;
use mcfs::{PoolConfig, RemountMode};
use mcfs_bench::{measure_walk, pair_ext2_ext4, pair_ext4_xfs, BenchArgs, BenchReport, Row};

fn main() {
    let args = BenchArgs::parse("remount_ablation [ops]");
    let budget = args.count_or(3_000);

    let run = |mode: RemountMode, xfs: bool| -> f64 {
        let mut pairing = if xfs {
            pair_ext4_xfs(mode, PoolConfig::small()).expect("pairing")
        } else {
            pair_ext2_ext4(LatencyModel::ram(), mode, PoolConfig::small()).expect("pairing")
        };
        measure_walk(&mut pairing, budget, 7).0
    };

    let mut rows = Vec::new();
    for (label, xfs, paper) in [
        ("Ext2 vs Ext4 (RAM)", false, "229 -> 316 ops/s (+38%)"),
        ("Ext4 vs XFS (RAM)", true, "~20 -> 34 ops/s (+70%)"),
    ] {
        let with = run(RemountMode::PerOp, xfs);
        let without = run(RemountMode::OnRestore, xfs);
        rows.push(
            Row::new()
                .str("pairing", label)
                .rate("remount_ops", with)
                .rate("no_remount_ops", without)
                .num("speedup", without / with)
                .str("paper", paper),
        );
    }

    let mut out = BenchReport::new("remount", args.quick);
    out.params(Row::new().count("budget_ops", budget));
    out.table(
        "pairings",
        "Section 6: speed without inter-operation remounts",
        rows,
    );
    out.finish();
}

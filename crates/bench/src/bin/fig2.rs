//! Figure 2: model-checking speed comparison across file-system pairings.
//!
//! Regenerates the paper's bar chart as a table: operations/second (virtual
//! time) for Ext2-vs-Ext4 on RAM/SSD/HDD, Ext4-vs-XFS, Ext4-vs-JFFS2, and
//! VeriFS1-vs-VeriFS2. The paper's qualitative results to match:
//! VeriFS ≈ 5.8× faster than Ext2-vs-Ext4 (RAM); Ext4-vs-XFS ≈ 11× slower
//! (swap-bound); HDD ≈ 20× and SSD ≈ 18× slower than RAM. Every run must
//! end on its op budget or exhaust its space, with no violation.
//!
//! Output: the table, then JSON (also written to `BENCH_fig2.json`).
//!
//! Usage: `cargo run --release --bin fig2 [ops-budget]`

use blockdev::LatencyModel;
use mcfs::{PoolConfig, RemountMode};
use mcfs_bench::{
    measure_dfs, pair_ext2_ext4, pair_ext4_jffs2, pair_ext4_xfs, pair_verifs, BenchArgs,
    BenchReport, Pairing, Row,
};

type PairingBuilder = Box<dyn FnOnce() -> vfs::VfsResult<Pairing>>;

fn main() {
    let args = BenchArgs::parse("fig2 [ops]");
    let budget = args.count_or(3_000);
    let pool = PoolConfig::small;

    let pairings: Vec<(&str, &str, PairingBuilder)> = vec![
        (
            "ext2-vs-ext4-ram",
            "1x (baseline)",
            Box::new(move || pair_ext2_ext4(LatencyModel::ram(), RemountMode::PerOp, pool())),
        ),
        (
            "ext2-vs-ext4-ssd",
            "≈ 1/18x",
            Box::new(move || pair_ext2_ext4(LatencyModel::ssd(), RemountMode::PerOp, pool())),
        ),
        (
            "ext2-vs-ext4-hdd",
            "≈ 1/20x",
            Box::new(move || pair_ext2_ext4(LatencyModel::hdd(), RemountMode::PerOp, pool())),
        ),
        (
            "ext4-vs-xfs-ram",
            "≈ 1/11x",
            Box::new(move || pair_ext4_xfs(RemountMode::PerOp, pool())),
        ),
        (
            "ext4-vs-jffs2",
            "no number in the text",
            Box::new(move || pair_ext4_jffs2(pool())),
        ),
        (
            "verifs1-vs-verifs2",
            "≈ 5.8x",
            Box::new(move || pair_verifs(pool())),
        ),
    ];

    let mut baseline = None;
    let mut rows = Vec::new();
    for (key, paper, build) in pairings {
        let mut pairing = build().expect("pairing construction");
        let (ops_per_sec, report) = measure_dfs(&mut pairing, budget);
        let base = *baseline.get_or_insert(ops_per_sec);
        rows.push(
            Row::new()
                .str("pairing", key)
                .str("label", pairing.label)
                .rate("ops", ops_per_sec)
                .num("vs_baseline", ops_per_sec / base)
                .count("ops", report.stats.ops_executed)
                .count("states", report.stats.states_new)
                .count("swap_mib", report.stats.swap_traffic_bytes >> 20)
                .str("paper", paper),
        );
    }

    let mut out = BenchReport::new("fig2", args.quick);
    out.params(Row::new().count("budget_ops", budget));
    out.table(
        "pairings",
        "Figure 2: model-checking speed (virtual time)",
        rows,
    );
    out.finish();
}

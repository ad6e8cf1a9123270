//! Out-of-core exploration scaling: exhaustive runs whose visited set is a
//! multiple of the RAM budget.
//!
//! Section 1 exhausts the same depth-bounded VeriFS space under RAM budgets
//! of ∞ (all in memory), 1×, 1/4× and 1/10× of the visited set's modelled
//! size, reporting states/s in **virtual time** (spill page traffic charges
//! the shared clock 100,000 ns per MiB). Acceptance: the 1/10×
//! run must stay above 50% of the in-memory rate, classify the identical
//! state count, and the memmodel predictor's swap traffic must land within
//! 20% of the measured spill traffic — the model is validated against the
//! machinery, not the other way round.
//!
//! Section 2 squeezes an ext2/ext4 run's checkpoint pool under a byte
//! budget, with the walk's out-of-core budget attaching the run's spill
//! file to it: eviction pressure must demote device snapshots to disk
//! (COW-chunk deduplicated) and promote them back on restore instead of
//! failing with `ESTALE`.
//!
//! Results go to `BENCH_oocore.json`.
//!
//! Usage: `cargo run --release -p mcfs-bench --bin oocore_scale [--quick]`

use blockdev::LatencyModel;
use mcfs::{McfsConfig, PoolConfig, RemountMode};
use mcfs_bench::{pair_ext2_ext4_cfg, pair_verifs, BenchArgs, BenchReport, Row};
use modelcheck::{DfsExplorer, ExploreConfig, ExploreReport, MemBudget, RandomWalk, StopReason};

fn run_dfs(depth: usize, budget: Option<MemBudget>) -> ExploreReport<mcfs::FsOp> {
    let mut pairing = pair_verifs(PoolConfig::small()).expect("verifs pairing");
    let explorer = DfsExplorer::new(ExploreConfig {
        max_depth: depth,
        max_ops: u64::MAX,
        seed: 42,
        mem_budget: budget,
        ..ExploreConfig::default()
    })
    .with_clock(pairing.clock.clone());
    let report = explorer.run(&mut pairing.harness);
    assert!(
        matches!(report.stop, StopReason::Exhausted),
        "scaling run must exhaust, stopped with {:?}",
        report.stop
    );
    report
}

fn main() {
    let quick = BenchArgs::parse("oocore_scale [--quick]").quick;
    let depth = if quick { 3 } else { 4 };

    // ----- Section 1: visited-set scaling -------------------------------
    let baseline = run_dfs(depth, None);
    let set_bytes = baseline.stats.visited_peak_bytes;
    let base_rate = baseline.stats.states_new as f64 * 1e9 / baseline.stats.virtual_ns as f64;
    assert!(set_bytes > 0, "baseline must report the visited-set size");

    let budgets: [(&'static str, Option<u64>); 4] = [
        ("inf", None),
        ("1x", Some(set_bytes)),
        ("1/4x", Some(set_bytes / 4)),
        ("1/10x", Some(set_bytes / 10)),
    ];
    let mut rows = Vec::new();
    let mut tenth = (0, 0.0); // (pages written, rate ratio) of the last budget
    for (label, ram) in budgets {
        let report = match ram {
            None => run_dfs(depth, None),
            Some(bytes) => run_dfs(depth, Some(MemBudget::new(bytes))),
        };
        let s = &report.stats;
        assert_eq!(
            s.states_new, baseline.stats.states_new,
            "{label}: budgeted run classified a different state count"
        );
        let rate = s.states_new as f64 * 1e9 / s.virtual_ns as f64;
        let spill = s.spill.unwrap_or_default();
        if spill.measured_swap_bytes() > 0 {
            assert!(
                spill.model_error() <= 0.20,
                "{label}: memmodel predicted {} B of swap traffic vs {} B measured \
                 ({:.1}% error, acceptance ceiling: 20%)",
                spill.predicted_swap_bytes,
                spill.measured_swap_bytes(),
                spill.model_error() * 100.0
            );
        }
        tenth = (spill.pages_written, rate / base_rate);
        rows.push(
            Row::new()
                .str("budget", label)
                .count("ram_bytes", ram.unwrap_or(0))
                .count("states", s.states_new)
                .ms("virtual", s.virtual_ns)
                .rate("states", rate)
                .num("rate_ratio", rate / base_rate)
                .count("pages_written", spill.pages_written)
                .count("pages_read", spill.pages_read)
                .count("measured_swap_bytes", spill.measured_swap_bytes())
                .count("predicted_swap_bytes", spill.predicted_swap_bytes)
                .num("model_error", spill.model_error())
                .count("bloom_skips", spill.bloom_skips),
        );
    }
    assert!(tenth.0 > 0, "the 1/10x budget must actually spill pages");
    assert!(
        tenth.1 > 0.5,
        "1/10x-budget run fell to {:.1}% of the in-memory rate \
         (acceptance floor: 50%)",
        tenth.1 * 100.0
    );

    // ----- Section 2: checkpoint-pool demotion --------------------------
    // A spread-restart random walk keeps *unpinned* restart checkpoints
    // resident (DFS pins its whole spine, so it never exercises demotion).
    // Squeezing the pool to roughly two device snapshots with the spill
    // tier attached must demote snapshots to disk under pressure and
    // promote them back on restore instead of ESTALE-ing the walk back to
    // the root.
    let ckpt_budget = 600 << 10;
    let walk_ops = if quick { 800 } else { 4_000 };
    let mut pairing = pair_ext2_ext4_cfg(
        LatencyModel::ram(),
        RemountMode::PerOp,
        McfsConfig {
            pool: PoolConfig::small(),
            checkpoint_budget_bytes: Some(ckpt_budget),
            ..McfsConfig::default()
        },
    )
    .expect("ext pairing");
    let walk = RandomWalk::new(ExploreConfig {
        max_depth: 5,
        max_ops: walk_ops,
        seed: 42,
        restart_spread: 0.5,
        mem_budget: Some(MemBudget::new(64 << 10)),
        ..ExploreConfig::default()
    })
    .with_clock(pairing.clock.clone());
    let report = walk.run_observed(&mut pairing.harness, |_| {});
    assert!(
        matches!(report.stop, StopReason::OpBudget),
        "the walk must run out its op budget, stopped with {:?}",
        report.stop
    );
    let ckpt = report
        .stats
        .checkpoint_store
        .expect("remount targets report pool stats");
    assert!(
        ckpt.demotions > 0,
        "the squeezed pool must demote snapshots (stats: {ckpt:?})"
    );
    assert!(
        ckpt.promotions > 0,
        "restored restart targets must promote back from disk (stats: {ckpt:?})"
    );
    let mut out = BenchReport::new("oocore", quick);
    out.params(
        Row::new()
            .count("depth", depth as u64)
            .count("visited_set_bytes", set_bytes),
    );
    out.table(
        "scale",
        &format!("Out-of-core visited set (depth {depth}, VeriFS pairing)"),
        rows,
    );
    out.record(
        "checkpoint_spill",
        "Checkpoint-pool spill (ext2 vs ext4, 600 KiB pool budget)",
        Row::new()
            .count("demotions", ckpt.demotions)
            .count("promotions", ckpt.promotions)
            .count("evictions", ckpt.evictions)
            .count("spilled_bytes", ckpt.spilled_bytes),
    );
    out.finish();
}

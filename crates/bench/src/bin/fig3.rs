//! Figure 3: operation rate and swap usage over a long MCFS run on VeriFS.
//!
//! The paper ran MCFS on VeriFS1 for two weeks: ~1,500 ops/s for the first
//! three days, then a sharp dip when SPIN resized its visited-state hash
//! table, then a gradual decline as checkpointed states spilled to swap,
//! and a rebound near day 13–14 when the RAM hit rate happened to be high.
//!
//! This binary reruns the experiment in compressed virtual time: the same
//! mechanisms (visited-table resizes, state-store growth, LRU swap) produce
//! the same series shape; the time axis is normalized to 14 "days".
//!
//! Output: the series, then JSON (also written to `BENCH_fig3.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin fig3 [ops]`

use mcfs::PoolConfig;
use mcfs_bench::{assert_clean, pair_verifs, BenchArgs, BenchReport, Row};
use modelcheck::{ExploreConfig, MemConfig, RandomWalk};

fn main() {
    let args = BenchArgs::parse("fig3 [ops]");
    let budget = args.count_or(40_000);
    let mut pairing = pair_verifs(PoolConfig::medium()).expect("pairing");
    let cfg = ExploreConfig {
        max_depth: 25,
        max_ops: budget,
        stop_on_violation: true,
        retain_states: true,
        // Tight scaled budgets so the two-week dynamics appear within the
        // compressed run: small RAM, visited table resizing mid-run.
        mem: MemConfig {
            ram_bytes: 96 << 20,
            swap_bytes: 4 << 30,
            // Page-granular random swap I/O is far slower than streaming.
            swap_ns_per_mib: 20_000_000,
        },
        visited_capacity: 2_048,
        restart_spread: 0.6,
        backtrack_on_match: true,
        seed: 3,
        ..ExploreConfig::default()
    };
    let clock = pairing.clock.clone();
    let windows = 28usize; // half-day samples over 14 days
    let window_ops = (budget / windows as u64).max(1);
    let mut samples: Vec<(u64, u64, u64, u32)> = Vec::new(); // (ops, ns, swap, resizes)
    let mut last_mark = (0u64, clock.now_ns());
    let walk = RandomWalk::new(cfg).with_clock(clock.clone());
    let report = walk.run_observed(&mut pairing.harness, |stats| {
        if stats.ops_executed % window_ops == 0 {
            let now = clock.now_ns();
            samples.push((
                stats.ops_executed - last_mark.0,
                now - last_mark.1,
                stats.swapped_bytes,
                stats.resize_events,
            ));
            last_mark = (stats.ops_executed, now);
        }
    });
    assert_clean("fig3", &report);

    let total_ns: u64 = samples.iter().map(|s| s.1).sum::<u64>().max(1);
    let mut elapsed = 0u64;
    let mut rows = Vec::new();
    for &(ops, ns, swap, resizes) in &samples {
        elapsed += ns;
        rows.push(
            Row::new()
                .num("day", 14.0 * elapsed as f64 / total_ns as f64)
                .rate("ops", ops as f64 * 1e9 / ns.max(1) as f64)
                .num("swap_mib", swap as f64 / (1 << 20) as f64)
                .count("resizes", resizes.into()),
        );
    }
    let mut out = BenchReport::new("fig3", args.quick);
    out.params(Row::new().count("budget_ops", budget));
    out.table(
        "series",
        "Figure 3: rate and swap over a long VeriFS run",
        rows,
    );
    out.record(
        "run",
        "Figure 3: the whole run",
        Row::new()
            .count("ops", report.stats.ops_executed)
            .count("states", report.stats.states_new)
            .count("resize_events", report.stats.resize_events.into())
            .num("final_hit_rate", report.stats.hit_rate)
            .str(
                "paper",
                "~1500 ops/s plateau, resize dip around day 3, gradual decline \
                 as states spill to swap, partial rebound near day 13-14",
            ),
    );
    out.finish();
}

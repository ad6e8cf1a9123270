//! Wall-clock benchmark of the MCFS checker.
//!
//! One command runs one named workload ([`workloads::Workload`]) for a
//! fixed number of seconds, repeating a fixed-size exploration, checks every
//! repetition against its correctness gate, and prints one JSON result line.
//! Untraced runs report the end-to-end metrics; traced runs alternate
//! traced and untraced repetitions and report the per-layer metrics of the
//! span ledger ([`ledger`]) filled by the decorators in [`decor`].

pub mod decor;
pub mod ledger;
pub mod workloads;

use std::time::{Duration, Instant};

use ledger::{Spans, ROOT};
use workloads::{run_rep, Bound, Rep, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every repetition passed its correctness gate.
    pub correct: bool,
    /// Transitions attempted over all repetitions.
    pub attempted: u64,
    /// Transitions of failed repetitions (all of a repetition's transitions
    /// count as failed when it fails its gate).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Untraced repetitions.
    pub plain: Vec<Rep>,
    /// Traced repetitions.
    pub traced: Vec<Rep>,
    /// Gate failures, one line each.
    pub failures: Vec<String>,
}

/// Distinct inputs a run cycles through. Repetitions of the walk differ
/// only in their seed, and one walk's discovery rate depends on its
/// trajectory; pooling eight walks per run averages that out. The
/// exhaustive searches ignore the seed.
const SUBSEEDS: u64 = 8;

/// The seed of input `index` (`< SUBSEEDS`) of a run seeded with `seed`.
fn sub_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(index)
}

/// Runs workload `w` at bound `bound` until `seconds` have passed. An
/// untraced run repeats whole cycles of [`SUBSEEDS`] repetitions. With
/// `trace`, untraced and traced repetitions alternate (at least one of
/// each), each traced one re-running the inputs of the untraced one before
/// it.
pub fn run(w: Workload, bound: Bound, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let tracing = trace && plain.len() > traced.len();
        let index = (plain.len() - usize::from(tracing)) as u64 % SUBSEEDS;
        let probe = host_probe_ns();
        let mut rep = match run_rep(w, bound, sub_seed(seed, index), tracing) {
            Ok(rep) => rep,
            Err(e) => {
                attempted += 1;
                failed += 1;
                failures.push(format!("harness construction failed: {e}"));
                break;
            }
        };
        rep.probe_ns = probe;
        // The same inputs must give the same outcome, traced or not.
        let same = plain.iter().chain(&traced).find(|r| r.seed == rep.seed);
        if let (None, Some(first)) = (&rep.failure, same) {
            if (rep.states, rep.ops, rep.digest) != (first.states, first.ops, first.digest) {
                rep.failure = Some(format!(
                    "repetition diverged: {} states / {} ops, earlier {} / {}",
                    rep.states, rep.ops, first.states, first.ops
                ));
            }
        }
        attempted += rep.ops.max(1);
        if let Some(f) = &rep.failure {
            failed += rep.ops.max(1);
            failures.push(f.clone());
        }
        if tracing {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
        // An untraced run ends on a whole cycle of inputs, so every run of
        // the walk pools the same number of walks.
        let enough = if trace {
            !traced.is_empty()
        } else {
            (plain.len() as u64).is_multiple_of(SUBSEEDS)
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    let metrics = if plain.is_empty() {
        Vec::new()
    } else if trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        plain,
        traced,
        failures,
    }
}

/// Probe time of the reference host (a quiet 2-vCPU Xeon VM at 2.0 GHz).
const PROBE_REF_NS: f64 = 12e6;

/// Times a fixed amount of host work that runs no code of the checker:
/// building and scanning B-trees of wide keys, about 1 MiB each.
///
/// The host's throughput swings by a third within seconds (other tenants
/// share its cores and caches), and every wall-clock figure swings with
/// it. The probe runs right before each repetition; scaling the
/// repetition's times by `PROBE_REF_NS / probe` reports them at the
/// reference host's speed. On the reference host this cut the run-to-run
/// spread of `states_per_s` from 8–41% to 2–4% on the exhaustive
/// searches.
fn host_probe_ns() -> u64 {
    use std::hint::black_box;
    let start = Instant::now();
    for round in 0..4_u64 {
        let mut map = std::collections::BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ round;
        for i in 0..20_000_u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(u128::from(x) << 64 | u128::from(i), i);
        }
        black_box(
            map.iter()
                .fold(0_u64, |a, (k, v)| a ^ (*k as u64).wrapping_add(*v)),
        );
    }
    u64::try_from(start.elapsed().as_nanos()).expect("probe fits u64")
}

/// Median of `v` (mean of the middle pair for even lengths).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How much slower than the reference host the host ran just before `r`.
fn slowdown(r: &Rep) -> f64 {
    r.probe_ns as f64 / PROBE_REF_NS
}

/// Distinct states per second over all of `reps`: their total over their
/// total explore time, each repetition's time scaled to the reference
/// host's speed when `scaled`. Pooling weighs the run's different walks
/// by their length.
fn pooled_states_per_s(reps: &[Rep], scaled: bool) -> f64 {
    let states: u64 = reps.iter().map(|r| r.states).sum();
    let secs: f64 = reps
        .iter()
        .map(|r| r.explore_ns as f64 / 1e9 / if scaled { slowdown(r) } else { 1.0 })
        .sum();
    states as f64 / secs.max(f64::MIN_POSITIVE)
}

fn end_to_end(plain: &[Rep]) -> Vec<Metric> {
    let ops: u64 = plain.iter().map(|r| r.ops).sum();
    let virt_ns: u64 = plain.iter().map(|r| r.virt_ns).sum();
    vec![
        metric("states_per_s", pooled_states_per_s(plain, true), "1/s"),
        metric(
            "virtual_ops_per_s",
            ops as f64 * 1e9 / virt_ns.max(1) as f64,
            "1/s",
        ),
        metric(
            "setup_s",
            median(
                plain
                    .iter()
                    .map(|r| r.setup_ns as f64 / 1e9 / slowdown(r))
                    .collect(),
            ),
            "s",
        ),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Every file system a workload can target.
const FS_ALL: [&str; 6] = ["verifs1", "verifs2", "ext2", "ext4", "xfs", "jffs2"];
/// The device-backed ones, which mount, unmount and track per operation.
const FS_DEVICE: [&str; 4] = ["ext2", "ext4", "xfs", "jffs2"];

/// The span ledgers of `traced` added up.
fn merged_spans(traced: &[Rep]) -> Spans {
    let mut spans = Spans::default();
    for s in traced.iter().filter_map(|r| r.spans.as_ref()) {
        spans.merge(s);
    }
    spans
}

fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let spans = merged_spans(traced);
    let sum = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&Rep) -> f64| sum(f) / n;
    let wall = |name: &str| spans.get(name).wall_ns as f64 / 1e9 / n;
    let self_wall = |name: &str| spans.get(name).self_wall_ns as f64 / 1e9 / n;
    let self_virt = |name: &str| spans.get(name).self_virt_ns as f64 / 1e9 / n;
    let calls = |name: &str| spans.get(name).calls as f64 / n;

    let mut m = vec![
        metric("explore.self_s", self_wall(ROOT), "s"),
        metric(
            "explore.new_frac",
            sum(&|r| r.states as f64) / sum(&|r| r.ops as f64).max(1.0),
            "frac",
        ),
        metric(
            "explore.restores",
            mean(&|r| r.layers.stats.restores as f64),
            "count",
        ),
        metric(
            "explore.checkpoints",
            mean(&|r| r.layers.stats.checkpoints as f64),
            "count",
        ),
        metric("visited.insert_calls", calls("visited.insert"), "count"),
        metric("visited.insert_s", wall("visited.insert"), "s"),
        metric(
            "visited.resizes",
            mean(&|r| r.layers.visited_resizes as f64),
            "count",
        ),
        metric(
            "visited.peak_bytes",
            mean(&|r| r.layers.visited_peak_bytes as f64),
            "bytes",
        ),
        metric("por.independent_calls", calls("por.independent"), "count"),
        metric("por.independent_s", wall("por.independent"), "s"),
        metric("por.pruned", mean(&|r| r.layers.por_pruned as f64), "count"),
        metric(
            "swarm.busy_frac",
            mean(&|r| r.layers.swarm_busy_frac),
            "frac",
        ),
        metric(
            "swarm.replayed_frac",
            mean(&|r| r.layers.swarm_replayed_frac),
            "frac",
        ),
        metric(
            "swarm.ops_imbalance",
            mean(&|r| r.layers.swarm_ops_imbalance),
            "ratio",
        ),
        metric(
            "memmodel.swap_mib",
            mean(&|r| r.layers.stats.swap_traffic_bytes as f64) / MIB,
            "MiB",
        ),
        metric(
            "memmodel.hit_rate",
            mean(&|r| r.layers.stats.hit_rate),
            "frac",
        ),
        metric("harness.apply_calls", calls("harness.apply"), "count"),
        metric("harness.apply_s", wall("harness.apply"), "s"),
        metric("harness.apply_self_s", self_wall("harness.apply"), "s"),
        metric(
            "harness.abstract_state_s",
            wall("harness.abstract_state"),
            "s",
        ),
        metric("harness.ops_s", wall("harness.ops"), "s"),
        metric("harness.restore_s", wall("harness.restore"), "s"),
        metric(
            "ckpt.resident_mib",
            mean(&|r| r.layers.ckpt_peak_resident_bytes as f64) / MIB,
            "MiB",
        ),
    ];
    // Each traced repetition re-ran the inputs of the untraced one before
    // it: the overhead is the median slowdown over those pairs.
    m.push(metric(
        "trace.overhead_frac",
        median(
            plain
                .iter()
                .zip(traced)
                .map(|(p, t)| 1.0 - t.states_per_s() / p.states_per_s().max(f64::MIN_POSITIVE))
                .collect(),
        ),
        "frac",
    ));

    for fs in FS_ALL {
        let t = |s: &str| format!("target.{fs}.{s}");
        m.push(metric(
            t("fingerprint_calls"),
            calls(&t("fingerprint")),
            "count",
        ));
        m.push(metric(t("fingerprint_s"), wall(&t("fingerprint")), "s"));
        m.push(metric(t("invalidate_s"), wall(&t("invalidate")), "s"));
        if FS_DEVICE.contains(&fs) {
            m.push(metric(t("mount_s"), wall(&t("mount")), "s"));
            m.push(metric(t("unmount_s"), wall(&t("unmount")), "s"));
            m.push(metric(t("track_s"), wall(&t("track")), "s"));
        }
        m.push(metric(t("save_calls"), calls(&t("save")), "count"));
        m.push(metric(t("save_s"), wall(&t("save")), "s"));
        m.push(metric(t("load_s"), wall(&t("load")), "s"));
        m.push(metric(t("drop_s"), wall(&t("drop")), "s"));
    }

    // The virtual ledger: self virtual time per span. Spans that never
    // advance the virtual clock (ops, independence, visited inserts) are
    // checked by the ledger but not reported.
    m.push(metric("virt.explore_s", self_virt(ROOT), "s"));
    for s in [
        "apply",
        "abstract_state",
        "restore",
        "checkpoint",
        "release",
    ] {
        let span = format!("harness.{s}");
        m.push(metric(format!("virt.{span}_s"), self_virt(&span), "s"));
    }
    for fs in FS_ALL {
        for s in decor::TARGET_SPANS {
            let device_only = matches!(s, "mount" | "unmount" | "track");
            if device_only && !FS_DEVICE.contains(&fs) {
                continue;
            }
            let span = format!("target.{fs}.{s}");
            m.push(metric(format!("virt.{span}_s"), self_virt(&span), "s"));
        }
    }
    m
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp printed before the result: workload, seed, host facts, and
/// what the repetitions found.
pub fn stamp_json(w: Workload, seed: u64, trace: bool, o: &Outcome) -> String {
    let first = o.plain.first();
    let failures: Vec<String> = o.failures.iter().map(|f| json_string(f)).collect();
    let raw = |f: &dyn Fn(&Rep) -> f64| median(o.plain.iter().map(f).collect());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"reps\": {}, \
         \"traced_reps\": {}, \"raw_states_per_s\": {}, \"raw_setup_s\": {}, \
         \"probe_ms\": {}, \"states\": {}, \"ops\": {}, \"digest\": {}, \
         \"nproc\": {}, \"git_commit\": {}, \"rustc\": {}, \"failures\": [{}]}}",
        w.name(),
        u8::from(trace),
        o.plain.len(),
        o.traced.len(),
        json_number(pooled_states_per_s(&o.plain, false)),
        json_number(raw(&|r| r.setup_ns as f64 / 1e9)),
        json_number(raw(&|r| r.probe_ns as f64 / 1e6)),
        first.map_or(0, |r| r.states),
        first.map_or(0, |r| r.ops),
        first
            .and_then(|r| r.digest)
            .map_or("null".to_string(), |d| format!("\"{d:032x}\"")),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&git_commit()),
        json_string(env!("PERFBENCH_RUSTC")),
        failures.join(", ")
    )
}

/// A human-readable span table of the traced repetitions (per repetition).
pub fn span_table(o: &Outcome) -> String {
    let spans = merged_spans(&o.traced);
    let n = o.traced.len().max(1) as f64;
    let mut out = format!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "span", "calls", "wall_s", "self_s", "virt_s", "vself_s"
    );
    for (name, t) in &spans.by_name {
        out.push_str(&format!(
            "{:<28} {:>10.0} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
            name,
            t.calls as f64 / n,
            t.wall_ns as f64 / 1e9 / n,
            t.self_wall_ns as f64 / 1e9 / n,
            t.virt_ns as f64 / 1e9 / n,
            t.self_virt_ns as f64 / 1e9 / n,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn json_string_escapes_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

//! Experiment harness regenerating the paper's evaluation (§6).
//!
//! Each figure/measurement has a binary under `src/bin/` that records the
//! same rows/series the paper reports on one [`BenchReport`], which prints
//! them and writes `BENCH_<name>.json`; host cost is tracked by the separate
//! `perfbench` package. Everything is measured in **virtual time** (see DESIGN.md):
//! device latencies, FUSE crossings, remount overheads, swap traffic and
//! hash-table resizes all charge a shared [`blockdev::Clock`], so ratios are
//! deterministic and runs take seconds instead of the paper's weeks.

use blockdev::{Clock, LatencyModel};
use fs_ext::ExtConfig;
use mcfs::backends::target;
use mcfs::{CheckedTarget, Mcfs, McfsConfig, PoolConfig, RemountMode, RemountTarget};
use modelcheck::{DfsExplorer, ExploreConfig, ExploreReport, MemConfig, RandomWalk, StopReason};
use verifs::VeriFs;
use vfs::{FileMode, FileSystem, VfsResult};

pub use mcfs::backends::{ext_on, jffs2_on, verifs_fuse, xfs_on};

/// Memory-model scale for the figure experiments: the paper's 64 GB RAM /
/// 128 GB swap VM scaled by 1/512 so its dynamics appear within bench-sized
/// runs.
pub fn scaled_mem() -> MemConfig {
    MemConfig {
        ram_bytes: 16 << 20,
        swap_bytes: 16 << 30,
        swap_ns_per_mib: 250_000,
    }
}

/// Builds a VeriFS2 holding `files` regular files of `file_bytes` each, all
/// at path depth `depth`, spread over 8 directory chains; returns the file
/// paths. The wall-clock hashing and copy-on-write checkpoint benchmarks
/// share this tree shape (acceptance: 200 files, depth 6).
pub fn verifs_tree(files: usize, depth: usize, file_bytes: usize) -> (VeriFs, Vec<String>) {
    const CHAINS: usize = 8;
    // The default VeriFS2 inode table (128) is smaller than the benchmark
    // tree; raise the limits, keeping the v2 feature set.
    let mut cfg = verifs::VeriFsConfig::v2();
    cfg.max_inodes = 2 * (files + CHAINS * depth);
    cfg.data_budget = Some(64 << 20);
    let mut fs = VeriFs::with_config(cfg);
    fs.mount().expect("mount");
    let mut paths = Vec::with_capacity(files);
    for chain in 0..CHAINS {
        let mut dir = String::new();
        for level in 0..depth - 1 {
            dir = format!("{dir}/c{chain}l{level}");
            fs.mkdir(&dir, FileMode::DIR_DEFAULT).expect("mkdir");
        }
    }
    for i in 0..files {
        let chain = i % CHAINS;
        let mut dir = String::new();
        for level in 0..depth - 1 {
            dir = format!("{dir}/c{chain}l{level}");
        }
        let path = format!("{dir}/f{i}");
        let fd = fs.create(&path, FileMode::REG_DEFAULT).expect("create");
        fs.write(fd, &vec![i as u8; file_bytes]).expect("write");
        fs.close(fd).expect("close");
        paths.push(path);
    }
    (fs, paths)
}

/// A named file-system pairing ready for model checking.
pub struct Pairing {
    /// Row label, e.g. `"Ext2 vs Ext4 (RAM)"`.
    pub label: String,
    /// The harness.
    pub harness: Mcfs,
    /// The shared virtual clock.
    pub clock: Clock,
}

/// Builds the Ext2-vs-Ext4 pairing on the given device class.
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_ext2_ext4(
    model: LatencyModel,
    mode: RemountMode,
    pool: PoolConfig,
) -> VfsResult<Pairing> {
    pair_ext2_ext4_cfg(model, mode, pool_cfg(pool))
}

/// [`pair_ext2_ext4`] with full control of the harness configuration —
/// crash exploration, voting, pool, all of it.
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_ext2_ext4_cfg(
    model: LatencyModel,
    mode: RemountMode,
    cfg: McfsConfig,
) -> VfsResult<Pairing> {
    let clock = Clock::new();
    let e2 = ext_on(ExtConfig::ext2(), model, clock.clone())?;
    let e4 = ext_on(ExtConfig::ext4(), model, clock.clone())?;
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(RemountTarget::new(e2, mode).with_clock(clock.clone())),
        Box::new(RemountTarget::new(e4, mode).with_clock(clock.clone())),
    ];
    let harness = Mcfs::with_clock(targets, cfg, clock.clone())?;
    Ok(Pairing {
        label: format!("Ext2 vs Ext4 ({})", model.class),
        harness,
        clock,
    })
}

/// Builds the Ext4-vs-XFS pairing (XFS's big device is what drives the
/// paper's swap explosion).
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_ext4_xfs(mode: RemountMode, pool: PoolConfig) -> VfsResult<Pairing> {
    pairing("Ext4 vs XFS (RAM)", ["ext4", "xfs"], mode, pool_cfg(pool))
}

/// Builds the Ext4-vs-JFFS2 pairing.
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_ext4_jffs2(pool: PoolConfig) -> VfsResult<Pairing> {
    pairing(
        "Ext4 vs JFFS2",
        ["ext4", "jffs2"],
        RemountMode::PerOp,
        pool_cfg(pool),
    )
}

/// Builds the VeriFS1-vs-VeriFS2 pairing through FUSE with the
/// checkpoint/restore API (the paper's fastest configuration).
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_verifs(pool: PoolConfig) -> VfsResult<Pairing> {
    pair_verifs_cfg(pool_cfg(pool))
}

/// [`pair_verifs`] with full control of the harness configuration.
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_verifs_cfg(cfg: McfsConfig) -> VfsResult<Pairing> {
    pairing(
        "VeriFS1 vs VeriFS2",
        ["fuse-verifs-v1", "fuse-verifs-v2"],
        RemountMode::PerOp,
        cfg,
    )
}

/// The default harness configuration with `pool`.
fn pool_cfg(pool: PoolConfig) -> McfsConfig {
    McfsConfig {
        pool,
        ..McfsConfig::default()
    }
}

/// Pairs two registry backends ([`mcfs::backends::target`]) on a fresh
/// clock.
fn pairing(
    label: &str,
    names: [&str; 2],
    mode: RemountMode,
    cfg: McfsConfig,
) -> VfsResult<Pairing> {
    let clock = Clock::new();
    let targets = names
        .iter()
        .map(|name| target(name, mode, clock.clone()))
        .collect::<VfsResult<_>>()?;
    let harness = Mcfs::with_clock(targets, cfg, clock.clone())?;
    Ok(Pairing {
        label: label.to_string(),
        harness,
        clock,
    })
}

/// Runs a bounded DFS over a pairing and returns `(ops/s, report)` measured
/// in virtual time. Panics unless the run ends cleanly ([`assert_clean`]).
pub fn measure_dfs(pairing: &mut Pairing, max_ops: u64) -> (f64, ExploreReport<mcfs::FsOp>) {
    let cfg = ExploreConfig {
        max_depth: 6,
        max_ops,
        mem: scaled_mem(),
        stop_on_violation: true,
        retain_states: true, // SPIN keeps tracked state data for the run
        ..ExploreConfig::default()
    };
    measure(pairing, |p| {
        DfsExplorer::new(cfg)
            .with_clock(p.clock.clone())
            .run(&mut p.harness)
    })
}

/// Runs a randomized walk over a pairing (the long-run soak mode) and
/// returns `(ops/s, report)` in virtual time. Panics unless the run ends
/// cleanly ([`assert_clean`]).
pub fn measure_walk(
    pairing: &mut Pairing,
    max_ops: u64,
    seed: u64,
) -> (f64, ExploreReport<mcfs::FsOp>) {
    let cfg = ExploreConfig {
        max_depth: 40,
        max_ops,
        mem: scaled_mem(),
        stop_on_violation: true,
        retain_states: true,
        seed,
        ..ExploreConfig::default()
    };
    measure(pairing, |p| {
        RandomWalk::new(cfg)
            .with_clock(p.clock.clone())
            .run(&mut p.harness)
    })
}

fn measure(
    pairing: &mut Pairing,
    run: impl FnOnce(&mut Pairing) -> ExploreReport<mcfs::FsOp>,
) -> (f64, ExploreReport<mcfs::FsOp>) {
    let start = pairing.clock.now_ns();
    let report = run(pairing);
    assert_clean(&pairing.label, &report);
    let elapsed = (pairing.clock.now_ns() - start).max(1);
    (
        report.stats.ops_executed as f64 * 1e9 / elapsed as f64,
        report,
    )
}

/// Panics unless the run ended on its op budget or exhausted its space,
/// with no violation: a run that stopped early has no valid rate.
pub fn assert_clean(what: &str, report: &ExploreReport<mcfs::FsOp>) {
    assert!(
        matches!(report.stop, StopReason::OpBudget | StopReason::Exhausted)
            && report.violations.is_empty(),
        "{what}: the run stopped with {:?} and {} violation(s): {}",
        report.stop,
        report.violations.len(),
        report
            .violations
            .first()
            .map(|v| v.to_string())
            .unwrap_or_default()
    );
}

/// The command line every bench binary shares, read from its usage line:
/// `[--quick]`, an optional numeric positional such as `[ops]`, and any
/// `[--flag VALUE]` options the usage names. Nothing else is accepted.
pub struct BenchArgs {
    /// `--quick`: CI-smoke sizes.
    pub quick: bool,
    count: Option<u64>,
    values: Vec<(String, String)>,
}

impl BenchArgs {
    /// Parses the process arguments against `usage` (e.g.
    /// `"fig2 [ops]"`); anything the usage does not name, or a positional
    /// that is not a number, prints the usage line and exits 2.
    pub fn parse(usage: &str) -> Self {
        Self::parse_from(usage, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {usage}");
            std::process::exit(2)
        })
    }

    /// [`BenchArgs::parse`] over explicit arguments.
    ///
    /// # Errors
    ///
    /// The argument the usage does not accept.
    pub fn parse_from(usage: &str, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let accepted: Vec<&str> = usage
            .split('[')
            .skip(1)
            .filter_map(|item| item.split(']').next())
            .collect();
        let takes_count = accepted.iter().any(|item| !item.starts_with("--"));
        let mut parsed = BenchArgs {
            quick: false,
            count: None,
            values: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let spec = accepted
                .iter()
                .find(|item| item.split(' ').next() == Some(arg.as_str()));
            match spec {
                Some(&"--quick") => parsed.quick = true,
                Some(item) if item.contains(' ') => {
                    let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    parsed.values.push((arg, value));
                }
                None if takes_count && parsed.count.is_none() => {
                    let n = arg.parse().map_err(|_| format!("`{arg}` is not a count"))?;
                    parsed.count = Some(n);
                }
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(parsed)
    }

    /// The positional count, else `default`.
    pub fn count_or(&self, default: u64) -> u64 {
        self.count.unwrap_or(default)
    }

    /// The value given to `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// One field of a [`Row`]. Its variant fixes how the number prints.
#[derive(Debug)]
enum Value {
    Str(String),
    Bool(bool),
    Count(u64),
    Null,
    /// A float printed with this many decimals.
    Fixed(f64, usize),
}

impl Value {
    fn text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Count(n) => n.to_string(),
            Value::Fixed(x, digits) if x.is_finite() => format!("{x:.digits$}"),
            Value::Fixed(..) | Value::Null => "null".to_string(),
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Str(s) => json_string(s),
            other => other.text(),
        }
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One result row: named fields in the order they were added. The unit
/// methods name their keys (`_per_s`, `_ms`, `_ns`) and fix their
/// precision; the unitless ones refuse keys that look like a unit.
#[derive(Debug, Default)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    fn with(mut self, key: String, value: Value) -> Self {
        self.0.push((key, value));
        self
    }

    fn unitless(self, key: &str, value: Value) -> Self {
        assert!(
            !["_s", "_sec", "_ms", "_ns"]
                .iter()
                .any(|unit| key.ends_with(unit)),
            "bench key `{key}` names a unit: record it with that unit's method"
        );
        self.with(key.to_string(), value)
    }

    /// A label, diagnostic or paper value.
    pub fn str(self, key: &str, value: impl Into<String>) -> Self {
        self.unitless(key, Value::Str(value.into()))
    }

    /// A yes/no outcome.
    pub fn flag(self, key: &str, value: bool) -> Self {
        self.unitless(key, Value::Bool(value))
    }

    /// An exact count (ops, states, bytes, workers, ...).
    pub fn count(self, key: &str, value: u64) -> Self {
        self.unitless(key, Value::Count(value))
    }

    /// A count that may be absent (`null`).
    pub fn opt_count(self, key: &str, value: Option<u64>) -> Self {
        self.unitless(key, value.map_or(Value::Null, Value::Count))
    }

    /// A dimensionless number: a ratio, speedup, fraction or scaled axis.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.unitless(key, Value::Fixed(value, 4))
    }

    /// A rate, keyed `<what>_per_s`.
    pub fn rate(self, what: &str, per_s: f64) -> Self {
        self.with(format!("{what}_per_s"), Value::Fixed(per_s, 1))
    }

    /// A rate that may be absent (`null`), keyed `<what>_per_s`.
    pub fn opt_rate(self, what: &str, per_s: Option<f64>) -> Self {
        let value = per_s.map_or(Value::Null, |r| Value::Fixed(r, 1));
        self.with(format!("{what}_per_s"), value)
    }

    /// A duration, keyed `<what>_ms` and printed to the nanosecond:
    /// `virtual_ms` for virtual time, `wall_ms` for host time.
    pub fn ms(self, what: &str, ns: u64) -> Self {
        self.with(format!("{what}_ms"), Value::Fixed(ns as f64 / 1e6, 6))
    }

    /// A host micro-timing, keyed `<what>_ns`.
    pub fn ns(self, what: &str, ns: f64) -> Self {
        self.with(format!("{what}_ns"), Value::Fixed(ns, 1))
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v.json()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

enum Section {
    Table(Vec<Row>),
    Record(Row),
}

/// One bench binary's results, and the only place bench output is
/// formatted: it renders the same rows as the console tables and as
/// `BENCH_<bench>.json`, whose top level is `"bench"`, `"quick"`, the run
/// parameters, then each section (a table is an array of rows, a record a
/// single row object).
pub struct BenchReport {
    bench: &'static str,
    params: Row,
    sections: Vec<(String, String, Section)>,
}

impl BenchReport {
    /// A report for `BENCH_<bench>.json`, run with or without `--quick`.
    pub fn new(bench: &'static str, quick: bool) -> Self {
        BenchReport {
            bench,
            params: Row::new().str("bench", bench).flag("quick", quick),
            sections: Vec::new(),
        }
    }

    /// Appends top-level fields: run parameters and headline results.
    pub fn params(&mut self, fields: Row) {
        self.params.0.extend(fields.0);
    }

    /// Adds a table under `key`, printed with heading `title`.
    pub fn table(&mut self, key: &str, title: &str, rows: Vec<Row>) {
        self.sections
            .push((key.to_string(), title.to_string(), Section::Table(rows)));
    }

    /// Adds a single-row section under `key`, printed with heading `title`.
    pub fn record(&mut self, key: &str, title: &str, row: Row) {
        self.sections
            .push((key.to_string(), title.to_string(), Section::Record(row)));
    }

    /// The report as JSON, one row per line.
    fn to_json(&self) -> String {
        let mut lines: Vec<String> = self
            .params
            .0
            .iter()
            .map(|(k, v)| format!("  {}: {}", json_string(k), v.json()))
            .collect();
        for (key, _, section) in &self.sections {
            let body = match section {
                Section::Record(row) => row.json(),
                Section::Table(rows) if rows.is_empty() => "[]".to_string(),
                Section::Table(rows) => {
                    let rows: Vec<String> =
                        rows.iter().map(|r| format!("    {}", r.json())).collect();
                    format!("[\n{}\n  ]", rows.join(",\n"))
                }
            };
            lines.push(format!("  {}: {body}", json_string(key)));
        }
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// The report as aligned console tables: the parameters, then each
    /// section under its heading (a record is a one-row table).
    fn to_text(&self) -> String {
        let mut out = columns(
            &format!("BENCH_{}.json", self.bench),
            std::slice::from_ref(&self.params),
        );
        for (_, title, section) in &self.sections {
            out += &match section {
                Section::Record(row) => columns(title, std::slice::from_ref(row)),
                Section::Table(rows) => columns(title, rows),
            };
        }
        out
    }

    /// Prints the tables and the JSON, and writes `BENCH_<bench>.json`.
    pub fn finish(&self) {
        print!("{}{}", self.to_text(), self.to_json());
        let path = format!("BENCH_{}.json", self.bench);
        self.write(&path)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }

    /// Writes the JSON to `path`.
    ///
    /// # Errors
    ///
    /// The file-system error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn columns(title: &str, rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return format!("== {title} ==\n  (no rows)\n\n");
    };
    let header: Vec<String> = first.0.iter().map(|(k, _)| k.clone()).collect();
    let cells: Vec<Vec<(String, bool)>> = rows
        .iter()
        .map(|r| {
            r.0.iter()
                .map(|(_, v)| (v.text(), matches!(v, Value::Str(_) | Value::Bool(_))))
                .collect()
        })
        .collect();
    let width = |i: usize| {
        cells
            .iter()
            .filter_map(|row| row.get(i))
            .map(|(t, _)| t.chars().count())
            .chain([header[i].len()])
            .max()
            .unwrap_or(0)
    };
    let widths: Vec<usize> = (0..header.len()).map(width).collect();
    let line = |fields: Vec<(&str, bool)>| {
        let padded: Vec<String> = fields
            .iter()
            .zip(&widths)
            .map(|((t, left), &w)| {
                if *left {
                    format!("{t:<w$}")
                } else {
                    format!("{t:>w$}")
                }
            })
            .collect();
        format!("  {}\n", padded.join("  ").trim_end())
    };
    let mut out = format!("== {title} ==\n");
    out += &line(header.iter().map(|h| (h.as_str(), true)).collect());
    for row in &cells {
        out += &line(row.iter().map(|(t, left)| (t.as_str(), *left)).collect());
    }
    out + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(json_string(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_string("one\ntwo\tx\u{1}"), r#""one\ntwo\tx\u0001""#);
        // Non-ASCII text (the paper values' ≈ and —) stays as UTF-8.
        assert_eq!(json_string("≈ 5.8x — ok"), "\"≈ 5.8x — ok\"");
    }

    #[test]
    fn the_criu_diagnostic_survives_the_report_verbatim() {
        let handles = [snapshot::ProcessHandle::CharDevice("/dev/fuse".into())];
        let err = snapshot::criu_check_handles(&handles).expect_err("FUSE is refused");
        let outcome = format!("REFUSED ({err}) \"quoted\" \\ path");
        let mut report = BenchReport::new("snapshot", false);
        report.table("strategies", "t", vec![Row::new().str("outcome", &outcome)]);
        let json = report.to_json();
        assert!(json.contains("cannot checkpoint process with open device /dev/fuse"));
        assert!(json.contains(&json_string(&outcome)));
        assert!(json.contains(r#"\"quoted\" \\ path"#));
    }

    #[test]
    fn keys_keep_insertion_order_and_units_fix_the_format() {
        let mut report = BenchReport::new("demo", true);
        report.params(Row::new().count("budget_ops", 250));
        report.table(
            "runs",
            "Runs",
            vec![Row::new()
                .str("case", "a")
                .rate("ops", 2067.46)
                .ms("virtual", 447_600)
                .num("speedup", 3.17)
                .ns("block", 2.25)
                .opt_count("first", None)
                .flag("ok", true)],
        );
        report.record("spill", "Spill", Row::new().count("pages", 3));
        assert_eq!(
            report.to_json(),
            "{\n  \"bench\": \"demo\",\n  \"quick\": true,\n  \"budget_ops\": 250,\n  \
             \"runs\": [\n    {\"case\": \"a\", \"ops_per_s\": 2067.5, \
             \"virtual_ms\": 0.447600, \"speedup\": 3.1700, \"block_ns\": 2.2, \
             \"first\": null, \"ok\": true}\n  ],\n  \"spill\": {\"pages\": 3}\n}\n"
        );
        let text = report.to_text();
        assert!(text.starts_with(
            "== BENCH_demo.json ==\n  bench  quick  budget_ops\n  demo   true          250\n"
        ));
        assert!(text.contains("  case  ops_per_s  virtual_ms  speedup  block_ns  first  ok\n"));
    }

    #[test]
    #[should_panic(expected = "names a unit")]
    fn unitless_fields_refuse_unit_suffixes() {
        let _ = Row::new().num("states_per_sec", 1.0);
    }

    #[test]
    fn args_accept_only_what_the_usage_names() {
        let parse = |usage: &str, args: &[&str]| {
            BenchArgs::parse_from(usage, args.iter().map(|a| a.to_string()))
        };
        let a = parse("x [ops] [--quick]", &["--quick", "120"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.count_or(7), 120);
        assert_eq!(parse("x [ops]", &[]).unwrap().count_or(7), 7);
        assert!(parse("x [ops]", &["12x"]).is_err());
        assert!(parse("x [ops]", &["1", "2"]).is_err());
        assert!(parse("x [--quick]", &["5"]).is_err());
        assert!(parse("x [ops]", &["--quick"]).is_err());
        let a = parse("x [ops] [--resume FILE]", &["--resume", "r.pkl"]).unwrap();
        assert_eq!(a.value("--resume"), Some("r.pkl"));
        assert!(parse("x [--resume FILE]", &["--resume"]).is_err());
    }

    #[test]
    fn all_pairings_construct_and_run() {
        let pool = PoolConfig::small();
        for mut pairing in [
            pair_ext2_ext4(LatencyModel::ram(), RemountMode::PerOp, pool.clone()).unwrap(),
            pair_ext4_xfs(RemountMode::PerOp, pool.clone()).unwrap(),
            pair_ext4_jffs2(pool.clone()).unwrap(),
            pair_verifs(pool.clone()).unwrap(),
        ] {
            let (ops_per_sec, report) = measure_dfs(&mut pairing, 150);
            assert!(
                report.violations.is_empty(),
                "{}: false positive: {}",
                pairing.label,
                report.violations[0]
            );
            assert!(ops_per_sec > 0.0, "{}", pairing.label);
        }
    }
}

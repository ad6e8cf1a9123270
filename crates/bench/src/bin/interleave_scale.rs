//! Interleaving-exploration scale: what dynamic partial-order reduction
//! buys on concurrent workloads, and what the full product space costs.
//!
//! For each seeded multi-thread workload the bench explores the complete
//! bounded interleaving space four ways — no POR, sleep sets, persistent
//! sets, both — and reports transitions expanded, distinct terminal
//! states, and throughput. Two acceptance checks run on every case:
//!
//! * **Soundness**: every POR setting reaches the *identical* terminal
//!   final-state set as the full search (reduction must only drop
//!   redundant orders, never outcomes).
//! * **Reduction** (disjoint workloads only): combined sleep + persistent
//!   sets expand **≥3×** fewer transitions than the full search — threads
//!   touching disjoint files are where commutation-based pruning must pay.
//!
//! A `crash_cuts` section times the crash oracle's cut-lattice search:
//! one crash step after two threads of 8 and of 31 ops, on targets whose
//! recovery no cut reaches (the search's worst case: it walks every cut
//! before rejecting it), and a crash-exploring DFS over two threads of 8
//! disjoint ops. Each row reports the ops the oracle ran on its reference
//! and the median wall time of five runs.
//!
//! Output: human-readable tables, then JSON (also written to
//! `BENCH_interleave.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin interleave_scale [--quick]`
//!
//! `--quick` trims thread programs to CI-smoke size.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use blockdev::RamDisk;
use fs_ext::{ExtConfig, ExtFs};
use mcfs::{
    CheckedTarget, CheckpointTarget, FsOp, RemountMode, RemountTarget, SchedStep, ThreadedMcfs,
    ThreadedMcfsConfig,
};
use mcfs_bench::{BenchArgs, BenchReport, Row};
use modelcheck::{ApplyOutcome, DfsExplorer, ExploreConfig, ModelSystem};
use verifs::VeriFs;
use vfs::{FileSystem, FsCapabilities, VfsResult};

/// One workload: a target factory plus per-thread programs.
struct Case {
    name: &'static str,
    targets: Box<dyn Fn() -> Vec<Box<dyn CheckedTarget>>>,
    programs: Vec<Vec<FsOp>>,
    /// Disjoint-thread workloads must show the ≥3× POR reduction.
    expect_reduction: bool,
}

fn verifs_pair() -> Vec<Box<dyn CheckedTarget>> {
    let mut a = VeriFs::v2();
    a.mount().unwrap();
    let mut b = VeriFs::v2();
    b.mount().unwrap();
    vec![
        Box::new(CheckpointTarget::new(a)),
        Box::new(CheckpointTarget::new(b)),
    ]
}

fn ext2_single() -> Vec<Box<dyn CheckedTarget>> {
    let disk = RamDisk::new(1024, 256 * 1024).unwrap();
    let fs = ExtFs::format(disk, ExtConfig::ext2()).unwrap();
    vec![Box::new(RemountTarget::new(fs, RemountMode::PerOp))]
}

fn op_create(path: &str) -> FsOp {
    FsOp::CreateFile {
        path: path.into(),
        mode: 0o644,
    }
}

fn op_write(path: &str, seed: u8) -> FsOp {
    FsOp::WriteFile {
        path: path.into(),
        offset: 0,
        size: 8,
        seed,
    }
}

/// `threads` logical threads, each confined to its own file — the
/// workload where every cross-thread pair commutes and POR should
/// collapse the product space toward a single representative order.
fn disjoint_programs(threads: usize, ops_per_thread: usize) -> Vec<Vec<FsOp>> {
    (0..threads)
        .map(|t| {
            let path = format!("/t{t}");
            let mut prog = vec![op_create(&path)];
            if ops_per_thread > 1 {
                prog.push(op_write(&path, t as u8 + 1));
            }
            if ops_per_thread > 2 {
                prog.push(FsOp::Stat { path });
            }
            prog
        })
        .collect()
}

/// Three threads racing one path: the adversarial baseline where almost
/// nothing commutes and POR can prune only a little.
fn racing_programs() -> Vec<Vec<FsOp>> {
    vec![
        vec![op_create("/a"), op_write("/a", 1)],
        vec![FsOp::Truncate {
            path: "/a".into(),
            size: 2,
        }],
        vec![FsOp::Stat { path: "/a".into() }],
    ]
}

/// Explores the case exhaustively under one POR setting.
fn explore(case: &Case, por: bool, por_persistent: bool) -> (BTreeSet<u128>, u64) {
    let mut sys = ThreadedMcfs::new(
        (case.targets)(),
        case.programs.clone(),
        ThreadedMcfsConfig::default(),
    )
    .expect("threaded harness");
    let depth: usize = case.programs.iter().map(Vec::len).sum::<usize>() + 2;
    let report = DfsExplorer::new(ExploreConfig {
        max_depth: depth,
        por,
        por_persistent,
        ..ExploreConfig::default()
    })
    .run(&mut sys);
    assert!(
        report.violations.is_empty(),
        "{}: clean workload must not violate: {:?}",
        case.name,
        report.violations
    );
    (sys.final_states().clone(), report.stats.ops_executed)
}

fn run_case(case: &Case) -> Row {
    let start = Instant::now();
    let (base, full) = explore(case, false, false);
    let mut by_setting = [0u64; 3];
    for (k, (por, pp)) in [(true, false), (false, true), (true, true)]
        .into_iter()
        .enumerate()
    {
        let (states, ops) = explore(case, por, pp);
        assert_eq!(
            states, base,
            "{}: POR (sleep={por}, persistent={pp}) changed the final-state set",
            case.name
        );
        assert!(
            ops <= full,
            "{}: POR expanded more transitions than the full search",
            case.name
        );
        by_setting[k] = ops;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let reduction = full as f64 / by_setting[2].max(1) as f64;
    assert!(
        !case.expect_reduction || reduction >= 3.0,
        "{}: acceptance requires >=3x fewer transitions with POR, got {reduction:.1}x \
         ({full} -> {})",
        case.name,
        by_setting[2]
    );
    Row::new()
        .str("case", case.name)
        .count("threads", case.programs.len() as u64)
        .count(
            "ops",
            case.programs.iter().map(Vec::len).sum::<usize>() as u64,
        )
        .count("full_transitions", full)
        .count("sleep_transitions", by_setting[0])
        .count("persistent_transitions", by_setting[1])
        .count("por_transitions", by_setting[2])
        .num("reduction", reduction)
        .count("final_states", base.len() as u64)
        .flag("final_state_sets_identical", true)
        .rate("states", base.len() as f64 / elapsed_s.max(1e-9))
}

/// Repetitions behind each `crash_cuts` wall time (the median is kept).
const CRASH_REPS: usize = 5;

/// VeriFS2 whose power cut keeps only `survivors`, re-executed on a fresh
/// volume.
struct Recovers {
    inner: CheckpointTarget<VeriFs>,
    survivors: Vec<FsOp>,
}

impl Recovers {
    fn pair(survivors: &[FsOp]) -> Vec<Box<dyn CheckedTarget>> {
        (0..2)
            .map(|_| {
                let mut fs = VeriFs::v2();
                fs.mount().unwrap();
                Box::new(Recovers {
                    inner: CheckpointTarget::new(fs),
                    survivors: survivors.to_vec(),
                }) as Box<dyn CheckedTarget>
            })
            .collect()
    }
}

impl CheckedTarget for Recovers {
    fn name(&self) -> String {
        "recovers".into()
    }
    fn fs_mut(&mut self) -> &mut dyn FileSystem {
        self.inner.fs_mut()
    }
    fn capabilities(&self) -> FsCapabilities {
        self.inner.capabilities()
    }
    fn strategy(&self) -> &'static str {
        self.inner.strategy()
    }
    fn save_state(&mut self, key: u64) -> VfsResult<usize> {
        self.inner.save_state(key)
    }
    fn load_state(&mut self, key: u64) -> VfsResult<()> {
        self.inner.load_state(key)
    }
    fn drop_state(&mut self, key: u64) -> VfsResult<()> {
        self.inner.drop_state(key)
    }
    fn supports_crash(&self) -> bool {
        true
    }
    fn crash_remount(&mut self) -> VfsResult<()> {
        let mut fs = VeriFs::v2();
        fs.mount()?;
        for op in &self.survivors {
            mcfs::execute(&mut fs, op, &[]);
        }
        self.inner = CheckpointTarget::new(fs);
        Ok(())
    }
}

/// `n` ops on `path`: a create, then 8-byte writes end to end.
fn file_program(path: &str, n: usize) -> Vec<FsOp> {
    let mut prog = vec![op_create(path)];
    prog.extend((1..n as u64).map(|i| FsOp::WriteFile {
        path: path.into(),
        offset: (i - 1) * 8,
        size: 8,
        seed: 1,
    }));
    prog
}

fn crash_cfg() -> ThreadedMcfsConfig {
    ThreadedMcfsConfig {
        crash_exploration: true,
        ..ThreadedMcfsConfig::default()
    }
}

fn median(mut times: Vec<Duration>) -> u64 {
    times.sort();
    times[times.len() / 2].as_nanos() as u64
}

/// One crash step after two `n`-op threads ran alternately, on targets
/// that recover thread 0's second write without its first: no cut reaches
/// that state, so the oracle walks all `(n + 1)²` cuts and rejects it.
fn lattice_row(n: usize) -> Row {
    let programs = vec![file_program("/a", n), file_program("/b", n)];
    let torn = [programs[0][0].clone(), programs[0][2].clone()];
    let mut times = Vec::new();
    let mut reference_ops = 0;
    for _ in 0..CRASH_REPS {
        let mut sys = ThreadedMcfs::new(Recovers::pair(&torn), programs.clone(), crash_cfg())
            .expect("threaded harness");
        for (a, b) in programs[0].iter().zip(&programs[1]) {
            for (tid, op) in [(0, a), (1, b)] {
                let step = SchedStep {
                    tid,
                    op: op.clone(),
                };
                assert_eq!(sys.apply(&step), ApplyOutcome::Ok);
            }
        }
        let start = Instant::now();
        let outcome = sys.apply(&SchedStep::crash());
        times.push(start.elapsed());
        assert!(
            matches!(&outcome, ApplyOutcome::Violation(m) if m.starts_with("crash-consistency")),
            "a recovery no cut reaches must be a violation: {outcome:?}"
        );
        reference_ops = sys.cut_ops();
    }
    Row::new()
        .str("case", format!("lattice-2x{n}"))
        .count("threads", 2)
        .count("ops_per_thread", n as u64)
        .count("crashes", 1)
        .opt_count("cuts", Some((n as u64 + 1).pow(2)))
        .count("reference_ops", reference_ops)
        .ms("wall", median(times))
}

/// A crash-exploring sleep-set DFS over two threads of `n` disjoint ops on
/// a clean VeriFS2 pair; the wall time is the whole exploration's.
fn crash_dfs_row(n: usize) -> Row {
    let programs = vec![file_program("/a", n), file_program("/b", n)];
    let mut times = Vec::new();
    let (mut crashes, mut reference_ops) = (0, 0);
    for _ in 0..CRASH_REPS {
        let mut sys = ThreadedMcfs::new(verifs_pair(), programs.clone(), crash_cfg())
            .expect("threaded harness");
        let start = Instant::now();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 2 * n + 2,
            por: true,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        times.push(start.elapsed());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        crashes = sys.crash_stats().expect("crash exploration").crashes;
        reference_ops = sys.cut_ops();
    }
    Row::new()
        .str("case", format!("dfs-2x{n}-disjoint"))
        .count("threads", 2)
        .count("ops_per_thread", n as u64)
        .count("crashes", crashes)
        .opt_count("cuts", None)
        .count("reference_ops", reference_ops)
        .ms("wall", median(times))
}

fn main() {
    let quick = BenchArgs::parse("interleave_scale [--quick]").quick;
    let ops_per_thread = if quick { 2 } else { 3 };

    let mut cases = vec![
        Case {
            name: "verifs-disjoint",
            targets: Box::new(verifs_pair),
            programs: disjoint_programs(3, ops_per_thread),
            expect_reduction: true,
        },
        Case {
            name: "verifs-racing",
            targets: Box::new(verifs_pair),
            programs: racing_programs(),
            expect_reduction: false,
        },
    ];
    if !quick {
        cases.push(Case {
            name: "ext2-disjoint",
            targets: Box::new(ext2_single),
            programs: disjoint_programs(3, 2),
            expect_reduction: true,
        });
    }

    let rows = cases.iter().map(run_case).collect();
    let mut out = BenchReport::new("interleave", quick);
    out.table("runs", "Interleaving exploration (full vs POR)", rows);
    out.table(
        "crash_cuts",
        "Crash-cut lattice search (one crash step; whole DFS)",
        vec![lattice_row(8), lattice_row(31), crash_dfs_row(8)],
    );
    out.finish();
}

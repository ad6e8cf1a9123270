//! Golden equivalence pins for the two lockstep harnesses, [`Mcfs`] and
//! [`ThreadedMcfs`]: full [`ExploreStats`], an MD5 over the sorted visited
//! fingerprints, the final virtual clock (and every thread's clock lane),
//! crash/fsck/interleaving counters, coverage, and the exact message and
//! trace of every violation. Refactoring either harness must leave every
//! value here unchanged, apart from deliberate, documented behaviour
//! changes.

use std::collections::BTreeSet;
use std::sync::Arc;

use blockdev::{Clock, RamDisk};
use fs_ext::{ExtConfig, ExtFs};
use fusesim::FuseMount;
use mcfs::{
    CheckedTarget, CheckpointTarget, FsOp, HarnessFactory, Mcfs, McfsConfig, PoolConfig,
    RemountMode, RemountTarget, SchedStep, ThreadedMcfs, ThreadedMcfsConfig,
};
use mdigest::Md5;
use modelcheck::{
    DfsExplorer, ExploreConfig, ExploreReport, ModelSystem, RandomWalk, Violation, VisitedSet,
};
use verifs::{BugConfig, VeriFs};
use vfs::FileSystem;

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// VeriFS behind the FUSE layer (which wires its invalidation connection).
fn fuse_verifs(version: u8, clock: &Clock) -> FuseMount<VeriFs> {
    mcfs::backends::verifs_fuse(version, BugConfig::none(), clock.clone())
}

fn verifs2(bugs: BugConfig) -> Box<dyn CheckedTarget> {
    let mut fs = VeriFs::v2_with_bugs(bugs);
    fs.mount().unwrap();
    Box::new(CheckpointTarget::new(fs))
}

fn ext(cfg: ExtConfig, mode: RemountMode, clock: &Clock) -> Box<dyn CheckedTarget> {
    let disk = RamDisk::new(cfg.block_size, 256 * 1024).unwrap();
    let fs = ExtFs::format(disk, cfg).unwrap();
    Box::new(RemountTarget::new(fs, mode).with_clock(clock.clone()))
}

fn dfs_cfg(max_depth: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth,
        por: true,
        ..ExploreConfig::default()
    }
}

/// MD5 of a sorted fingerprint sequence, as hex.
fn md5_hex(sorted: impl IntoIterator<Item = u128>) -> String {
    let mut md5 = Md5::new();
    for h in sorted {
        md5.update(&h.to_le_bytes());
    }
    format!("{:032x}", md5.finalize().as_u128())
}

/// Runs a clocked DFS with a caller-owned visited set and renders the
/// report's stats, the visited digest and the final clock.
fn dfs_summary<S: ModelSystem>(
    sys: &mut S,
    cfg: ExploreConfig,
    clock: &Clock,
) -> (ExploreReport<S::Op>, String) {
    let mut visited = VisitedSet::new(cfg.visited_capacity);
    let report = DfsExplorer::new(cfg)
        .with_clock(clock.clone())
        .run_with_visited(sys, &mut visited);
    let mut digest = Vec::new();
    visited.stream_entries(|h, _| digest.push(h));
    let summary = format!(
        "{:?}\nvisited {} {}\nclock {}",
        report.stats,
        digest.len(),
        md5_hex(digest),
        clock.now_ns()
    );
    (report, summary)
}

fn render_violation<Op: std::fmt::Display>(v: &Violation<Op>) -> String {
    let ops = |t: &[Op]| t.iter().map(|o| o.to_string()).collect::<Vec<_>>();
    format!(
        "after {} ops: {}\ntrace {:?}\nminimized {:?}\nshrink {:?}",
        v.ops_executed,
        v.message,
        ops(&v.trace),
        v.minimized_trace.as_deref().map(ops),
        v.shrink
    )
}

/// Compares `actual` with the pinned value, printing the actual value on
/// a mismatch so an intended change can be re-pinned from the output.
fn pin(name: &str, actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "{name} drifted; actual value:\n{actual}\n--- expected:\n{expected}"
    );
}

// ---------------------------------------------------------------------------
// Mcfs
// ---------------------------------------------------------------------------

#[test]
fn mcfs_verifs_fuse_sleep_set_dfs() {
    let clock = Clock::new();
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(fuse_verifs(1, &clock))),
        Box::new(CheckpointTarget::new(fuse_verifs(2, &clock))),
    ];
    let cfg = McfsConfig {
        pool: PoolConfig::medium(),
        ..McfsConfig::default()
    };
    let mut m = Mcfs::with_clock(targets, cfg, clock.clone()).unwrap();
    let (report, summary) = dfs_summary(&mut m, dfs_cfg(3), &clock);
    assert!(report.violations.is_empty());
    pin(
        "verifs dfs",
        &summary,
        r#"ExploreStats { ops_executed: 23700, ops_replayed: 0, states_new: 1729, states_matched: 21863, pruned: 3435, checkpoints: 135, restores: 23565, max_depth_seen: 3, resize_events: 0, peak_memory_bytes: 86840, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 10746150000, visited_peak_bytes: 82992, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 270, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
visited 1729 5da9f5b8c1d9e19fe37b6d5aaefffc98
clock 10746354000"#,
    );
}

#[test]
fn mcfs_ext2_crash_exploration() {
    let clock = Clock::new();
    let targets = vec![
        ext(ExtConfig::ext2(), RemountMode::PerOp, &clock),
        ext(ExtConfig::ext4(), RemountMode::PerOp, &clock),
    ];
    let cfg = McfsConfig {
        crash_exploration: true,
        ..McfsConfig::default()
    };
    let mut m = Mcfs::with_clock(targets, cfg, clock.clone()).unwrap();
    let (report, summary) = dfs_summary(&mut m, dfs_cfg(3), &clock);
    assert!(report.violations.is_empty());
    let summary = format!("{summary}\n{:?}", m.crash_stats());
    pin(
        "ext crash dfs",
        &summary,
        r#"ExploreStats { ops_executed: 586, ops_replayed: 0, states_new: 58, states_matched: 521, pruned: 474, checkpoints: 20, restores: 566, max_depth_seen: 3, resize_events: 0, peak_memory_bytes: 1572864, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 504062800, visited_peak_bytes: 2784, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 40, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: Some(CrashStats { crashes: 20, recoveries: 20, divergent_recoveries: 0 }) }
visited 58 1da46affedf33c77874ae8fad572227b
clock 504903200
Some(CrashStats { crashes: 20, recoveries: 20, divergent_recoveries: 0 })"#,
    );
}

#[test]
fn mcfs_ext_fsck_exploration() {
    let clock = Clock::new();
    let targets = vec![
        ext(ExtConfig::ext2(), RemountMode::Never, &clock),
        ext(ExtConfig::ext4(), RemountMode::Never, &clock),
    ];
    let cfg = McfsConfig {
        fsck_exploration: true,
        ..McfsConfig::default()
    };
    let mut m = Mcfs::with_clock(targets, cfg, clock.clone()).unwrap();
    let (report, summary) = dfs_summary(&mut m, dfs_cfg(3), &clock);
    assert!(report.violations.is_empty());
    let summary = format!("{summary}\n{:?}", m.fsck_stats());
    pin(
        "ext fsck dfs",
        &summary,
        r#"ExploreStats { ops_executed: 347, ops_replayed: 0, states_new: 9, states_matched: 331, pruned: 236, checkpoints: 11, restores: 336, max_depth_seen: 3, resize_events: 0, peak_memory_bytes: 1572864, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 1432000, visited_peak_bytes: 432, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 22, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
visited 9 68dec9566072d983b9375f7b2bff9d00
clock 1852200
Some(FsckStats { fscks: 11, repairs_made: 2 })"#,
    );
}

#[test]
fn mcfs_seeded_bug_violation() {
    let clock = Clock::new();
    let mut clean = VeriFs::v1();
    clean.mount().unwrap();
    let mut buggy = VeriFs::v1_with_bugs(BugConfig::v1_truncate());
    buggy.mount().unwrap();
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(clean)),
        Box::new(CheckpointTarget::new(buggy)),
    ];
    let cfg = McfsConfig {
        pool: PoolConfig::medium(),
        minimize_violations: true,
        ..McfsConfig::default()
    };
    let factory: Arc<HarnessFactory> = Arc::new(|| {
        let mut clean = VeriFs::v1();
        clean.mount()?;
        let mut buggy = VeriFs::v1_with_bugs(BugConfig::v1_truncate());
        buggy.mount()?;
        Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(clean)),
                Box::new(CheckpointTarget::new(buggy)),
            ],
            McfsConfig {
                pool: PoolConfig::medium(),
                ..McfsConfig::default()
            },
        )
    });
    let mut m = Mcfs::with_clock(targets, cfg, clock.clone())
        .unwrap()
        .with_factory(factory);
    let (report, summary) = dfs_summary(&mut m, dfs_cfg(4), &clock);
    let v = report
        .violations
        .first()
        .expect("the truncate bug is found");
    assert!(v.minimized_trace.is_some(), "record-time minimization ran");
    let summary = format!("{summary}\n{}", render_violation(v));
    pin(
        "seeded bug",
        &summary,
        r#"ExploreStats { ops_executed: 7918, ops_replayed: 0, states_new: 714, states_matched: 7162, pruned: 2180, checkpoints: 54, restores: 7864, max_depth_seen: 4, resize_events: 0, peak_memory_bytes: 111888, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 31672000, visited_peak_bytes: 34272, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 8, pinned: 8, total_bytes: 91708, shared_bytes: 78956, resident_bytes: 12752, evictions: 0, inserts: 108, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
visited 714 0504cbd157206397235e124cc45f16d7
clock 31672000
after 7918 ops: abstract-state discrepancy on truncate(/f0, 1):
  verifs1      [checkpoint-api] => Digest128([245, 222, 208, 68, 106, 244, 110, 147, 117, 2, 239, 20, 243, 207, 97, 44])
  verifs1      [checkpoint-api] => Digest128([173, 16, 28, 82, 149, 129, 255, 30, 24, 224, 152, 188, 226, 27, 9, 161])
trace ["create_file(/f0, 0644)", "write_file(/f0, off=0, len=1, seed=1)", "truncate(/f0, 0)", "truncate(/f0, 1)"]
minimized Some(["create_file(/f0, 0644)", "write_file(/f0, off=0, len=1, seed=1)", "truncate(/f0, 0)", "truncate(/f0, 1)"])
shrink Some(ShrinkStats { ops_before: 4, ops_after: 4, candidates_tried: 9, replays_run: 5 })"#,
    );
}

#[test]
fn mcfs_majority_vote_violation() {
    let clock = Clock::new();
    let targets = vec![
        verifs2(BugConfig::none()),
        verifs2(BugConfig::none()),
        verifs2(BugConfig::v2_size()),
    ];
    let cfg = McfsConfig {
        pool: PoolConfig::medium(),
        ..McfsConfig::default()
    };
    let mut m = Mcfs::with_clock(targets, cfg, clock.clone()).unwrap();
    let (report, summary) = dfs_summary(&mut m, dfs_cfg(3), &clock);
    let v = report.violations.first().expect("the size bug is found");
    let summary = format!("{summary}\n{}", render_violation(v));
    pin(
        "majority vote",
        &summary,
        r#"ExploreStats { ops_executed: 17, ops_replayed: 0, states_new: 6, states_matched: 11, pruned: 6, checkpoints: 3, restores: 14, max_depth_seen: 3, resize_events: 0, peak_memory_bytes: 102996, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 102000, visited_peak_bytes: 288, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 9, pinned: 9, total_bytes: 102996, shared_bytes: 88812, resident_bytes: 14184, evictions: 0, inserts: 9, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
visited 6 8841c6c70dfa93c8fbc1d1eef2c2bfa1
clock 102000
after 17 ops: abstract-state discrepancy on write_file(/f0, off=50, len=1, seed=1):
  verifs2      [checkpoint-api] => Digest128([96, 96, 3, 120, 188, 22, 143, 37, 9, 54, 60, 13, 237, 194, 77, 101])
  verifs2      [checkpoint-api] => Digest128([96, 96, 3, 120, 188, 22, 143, 37, 9, 54, 60, 13, 237, 194, 77, 101])
  verifs2      [checkpoint-api] => Digest128([172, 216, 100, 142, 214, 23, 100, 11, 39, 238, 97, 102, 104, 205, 149, 227])
  majority vote: 2 of 3 agree; suspect(s): verifs2
trace ["create_file(/f0, 0644)", "write_file(/f0, off=50, len=0, seed=1)", "write_file(/f0, off=50, len=1, seed=1)"]
minimized None
shrink None"#,
    );
}

#[test]
fn mcfs_walk_coverage() {
    let clock = Clock::new();
    let targets = vec![verifs2(BugConfig::none()), verifs2(BugConfig::none())];
    let cfg = McfsConfig {
        pool: PoolConfig::medium(),
        ..McfsConfig::default()
    };
    let mut m = Mcfs::with_clock(targets, cfg, clock.clone()).unwrap();
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 12,
        max_ops: 400,
        seed: 7,
        ..ExploreConfig::default()
    })
    .with_clock(clock.clone())
    .run(&mut m);
    assert!(report.violations.is_empty());
    let summary = format!(
        "{:?}\nclock {}\n{}",
        report.stats,
        clock.now_ns(),
        m.coverage().summary()
    );
    pin(
        "walk coverage",
        &summary,
        r#"ExploreStats { ops_executed: 400, ops_replayed: 0, states_new: 19, states_matched: 382, pruned: 0, checkpoints: 19, restores: 33, max_depth_seen: 12, resize_events: 0, peak_memory_bytes: 482966, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 1600000, visited_peak_bytes: 912, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 2, pinned: 2, total_bytes: 22704, shared_bytes: 19712, resident_bytes: 2992, evictions: 0, inserts: 38, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
clock 1600000
operation coverage (op / outcome class / count):
  access         ENOENT         7
  chmod          ENOENT         12
  create_file    EEXIST         1
  create_file    ENOENT         5
  create_file    OK             13
  getdents       ENOENT         7
  link           ENOENT         9
  mkdir          ENOENT         2
  mkdir          OK             2
  read_file      ENOENT         79
  read_file      OK(data)       5
  removexattr    ENOENT         13
  rename         ENOENT         11
  rmdir          ENOENT         5
  setxattr       ENOENT         25
  setxattr       OK             1
  stat           ENOENT         9
  symlink        OK             1
  truncate       ENOENT         19
  truncate       OK             2
  unlink         ENOENT         9
  unlink         OK             1
  write_file     ENOENT         157
  write_file     OK             5
  24 distinct pairs, 16 of them error paths, 400 ops total
"#,
    );
}

// ---------------------------------------------------------------------------
// ThreadedMcfs
// ---------------------------------------------------------------------------

fn op_create(path: &str) -> FsOp {
    FsOp::CreateFile {
        path: path.into(),
        mode: 0o644,
    }
}

fn op_write(path: &str, offset: u64, size: u64, seed: u8) -> FsOp {
    FsOp::WriteFile {
        path: path.into(),
        offset,
        size,
        seed,
    }
}

fn verifs_pair() -> Vec<Box<dyn CheckedTarget>> {
    vec![verifs2(BugConfig::none()), verifs2(BugConfig::none())]
}

fn ext2_single() -> Vec<Box<dyn CheckedTarget>> {
    let disk = RamDisk::new(1024, 256 * 1024).unwrap();
    let fs = ExtFs::format(disk, ExtConfig::ext2()).unwrap();
    vec![Box::new(RemountTarget::new(fs, RemountMode::PerOp))]
}

/// `interleave_scale`'s disjoint workload: each thread on its own file.
fn disjoint_programs(threads: usize, ops_per_thread: usize) -> Vec<Vec<FsOp>> {
    (0..threads)
        .map(|t| {
            let path = format!("/t{t}");
            let mut prog = vec![op_create(&path)];
            if ops_per_thread > 1 {
                prog.push(op_write(&path, 0, 8, t as u8 + 1));
            }
            if ops_per_thread > 2 {
                prog.push(FsOp::Stat { path });
            }
            prog
        })
        .collect()
}

/// `interleave_scale`'s racing workload: three threads on one path.
fn racing_programs() -> Vec<Vec<FsOp>> {
    vec![
        vec![op_create("/a"), op_write("/a", 0, 8, 1)],
        vec![FsOp::Truncate {
            path: "/a".into(),
            size: 2,
        }],
        vec![FsOp::Stat { path: "/a".into() }],
    ]
}

/// The hole-bug schedule's programs: thread 0 provokes the stale hole and
/// reads it back, thread 1 is filler.
fn hole_programs() -> Vec<Vec<FsOp>> {
    vec![
        vec![
            op_create("/f0"),
            op_write("/f0", 0, 40, 1),
            FsOp::Truncate {
                path: "/f0".into(),
                size: 1,
            },
            op_write("/f0", 30, 4, 2),
            FsOp::ReadFile {
                path: "/f0".into(),
                offset: 0,
                size: 40,
            },
        ],
        vec![op_create("/b"), FsOp::Stat { path: "/b".into() }],
    ]
}

fn hole_single() -> Vec<Box<dyn CheckedTarget>> {
    vec![verifs2(BugConfig::v2_hole())]
}

fn lanes(clock: &Clock, threads: usize) -> String {
    let lanes: Vec<u64> = (0..threads as u16).map(|t| clock.lane_ns(t)).collect();
    format!("clock {} lanes {lanes:?}", clock.now_ns())
}

/// Explores `programs` under every POR setting, as `interleave_scale`
/// does, and renders transitions, final-state digests and counters.
fn interleave_case(
    targets: fn() -> Vec<Box<dyn CheckedTarget>>,
    programs: Vec<Vec<FsOp>>,
) -> String {
    let depth = programs.iter().map(Vec::len).sum::<usize>() + 2;
    let mut out = String::new();
    for (por, por_persistent) in [(false, false), (true, false), (false, true), (true, true)] {
        let clock = Clock::new();
        let mut sys = ThreadedMcfs::with_clock(
            targets(),
            programs.clone(),
            Vec::new(),
            ThreadedMcfsConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: depth,
            por,
            por_persistent,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        assert!(report.violations.is_empty());
        let finals: &BTreeSet<u128> = sys.final_states();
        out.push_str(&format!(
            "por={por} persistent={por_persistent}: {} transitions, {} finals {}\n  {:?}\n  {:?}\n  {}\n",
            report.stats.ops_executed,
            finals.len(),
            md5_hex(finals.iter().copied()),
            report.stats,
            sys.interleave_stats(),
            lanes(&clock, programs.len()),
        ));
    }
    out
}

#[test]
fn threaded_verifs_disjoint() {
    let summary = interleave_case(verifs_pair, disjoint_programs(3, 3));
    pin(
        "verifs-disjoint",
        &summary,
        r#"por=false persistent=false: 144 transitions, 1 finals a6bfa0f5e2f72755899b641c80576b1c
  ExploreStats { ops_executed: 144, ops_replayed: 0, states_new: 64, states_matched: 81, pruned: 0, checkpoints: 64, restores: 81, max_depth_seen: 9, resize_events: 0, peak_memory_bytes: 232776, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 3072, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 128, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 3, lin_candidates: 27, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 192000 lanes [192000, 192000, 192000]
por=true persistent=false: 63 transitions, 1 finals a6bfa0f5e2f72755899b641c80576b1c
  ExploreStats { ops_executed: 63, ops_replayed: 0, states_new: 64, states_matched: 0, pruned: 81, checkpoints: 64, restores: 15, max_depth_seen: 9, resize_events: 0, peak_memory_bytes: 232776, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 3072, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 128, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 1, lin_candidates: 9, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 192000 lanes [12000, 48000, 192000]
por=false persistent=true: 9 transitions, 1 finals a6bfa0f5e2f72755899b641c80576b1c
  ExploreStats { ops_executed: 9, ops_replayed: 0, states_new: 10, states_matched: 0, pruned: 9, checkpoints: 10, restores: 0, max_depth_seen: 9, resize_events: 0, peak_memory_bytes: 232776, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 480, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 20, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 1, lin_candidates: 9, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 12000 lanes [12000, 12000, 12000]
por=true persistent=true: 9 transitions, 1 finals a6bfa0f5e2f72755899b641c80576b1c
  ExploreStats { ops_executed: 9, ops_replayed: 0, states_new: 10, states_matched: 0, pruned: 9, checkpoints: 10, restores: 0, max_depth_seen: 9, resize_events: 0, peak_memory_bytes: 232776, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 480, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 20, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 1, lin_candidates: 9, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 12000 lanes [12000, 12000, 12000]
"#,
    );
}

#[test]
fn threaded_verifs_racing() {
    let summary = interleave_case(verifs_pair, racing_programs());
    pin(
        "verifs-racing",
        &summary,
        r#"por=false persistent=false: 32 transitions, 11 finals fe6935be31d33b05305e058798391acd
  ExploreStats { ops_executed: 32, ops_replayed: 0, states_new: 32, states_matched: 1, pruned: 0, checkpoints: 32, restores: 11, max_depth_seen: 4, resize_events: 0, peak_memory_bytes: 114744, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 1536, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 64, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 11, lin_candidates: 88, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 56000 lanes [56000, 36000, 36000]
por=true persistent=false: 32 transitions, 11 finals fe6935be31d33b05305e058798391acd
  ExploreStats { ops_executed: 32, ops_replayed: 0, states_new: 32, states_matched: 1, pruned: 0, checkpoints: 32, restores: 11, max_depth_seen: 4, resize_events: 0, peak_memory_bytes: 114744, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 1536, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 64, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 11, lin_candidates: 88, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 56000 lanes [56000, 36000, 36000]
por=false persistent=true: 32 transitions, 11 finals fe6935be31d33b05305e058798391acd
  ExploreStats { ops_executed: 32, ops_replayed: 0, states_new: 32, states_matched: 1, pruned: 0, checkpoints: 32, restores: 11, max_depth_seen: 4, resize_events: 0, peak_memory_bytes: 114744, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 1536, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 64, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 11, lin_candidates: 88, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 56000 lanes [56000, 36000, 36000]
por=true persistent=true: 32 transitions, 11 finals fe6935be31d33b05305e058798391acd
  ExploreStats { ops_executed: 32, ops_replayed: 0, states_new: 32, states_matched: 1, pruned: 0, checkpoints: 32, restores: 11, max_depth_seen: 4, resize_events: 0, peak_memory_bytes: 114744, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 1536, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 64, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 11, lin_candidates: 88, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 56000 lanes [56000, 36000, 36000]
"#,
    );
}

#[test]
fn threaded_ext2_disjoint() {
    let summary = interleave_case(ext2_single, disjoint_programs(3, 2));
    pin(
        "ext2-disjoint",
        &summary,
        r#"por=false persistent=false: 54 transitions, 1 finals 79252ca0302bd1dabda107abf83adc6b
  ExploreStats { ops_executed: 54, ops_replayed: 0, states_new: 27, states_matched: 28, pruned: 0, checkpoints: 27, restores: 28, max_depth_seen: 6, resize_events: 0, peak_memory_bytes: 1835008, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 1296, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 27, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 3, lin_candidates: 18, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 36000 lanes [36000, 36000, 36000]
por=true persistent=false: 26 transitions, 1 finals 79252ca0302bd1dabda107abf83adc6b
  ExploreStats { ops_executed: 26, ops_replayed: 0, states_new: 27, states_matched: 0, pruned: 28, checkpoints: 27, restores: 8, max_depth_seen: 6, resize_events: 0, peak_memory_bytes: 1835008, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 1296, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 27, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 1, lin_candidates: 6, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 36000 lanes [4000, 12000, 36000]
por=false persistent=true: 6 transitions, 1 finals 79252ca0302bd1dabda107abf83adc6b
  ExploreStats { ops_executed: 6, ops_replayed: 0, states_new: 7, states_matched: 0, pruned: 6, checkpoints: 7, restores: 0, max_depth_seen: 6, resize_events: 0, peak_memory_bytes: 1835008, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 336, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 7, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 1, lin_candidates: 6, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 4000 lanes [4000, 4000, 4000]
por=true persistent=true: 6 transitions, 1 finals 79252ca0302bd1dabda107abf83adc6b
  ExploreStats { ops_executed: 6, ops_replayed: 0, states_new: 7, states_matched: 0, pruned: 6, checkpoints: 7, restores: 0, max_depth_seen: 6, resize_events: 0, peak_memory_bytes: 1835008, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 0, visited_peak_bytes: 336, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 7, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
  InterleaveStats { terminals: 1, lin_candidates: 6, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
  clock 4000 lanes [4000, 4000, 4000]
"#,
    );
}

#[test]
fn threaded_linearizability_violation() {
    let clock = Clock::new();
    let mut sys = ThreadedMcfs::with_clock(
        hole_single(),
        hole_programs(),
        Vec::new(),
        ThreadedMcfsConfig::default(),
        clock.clone(),
    )
    .unwrap();
    let (report, summary) = dfs_summary(&mut sys, dfs_cfg(8), &clock);
    let v = report.violations.first().expect("the stale hole is found");
    let summary = format!(
        "{summary}\n{:?}\n{}\n{}",
        sys.interleave_stats(),
        lanes(&clock, 2),
        render_violation(v)
    );
    pin(
        "linearizability",
        &summary,
        r#"ExploreStats { ops_executed: 7, ops_replayed: 0, states_new: 7, states_matched: 0, pruned: 0, checkpoints: 7, restores: 0, max_depth_seen: 6, resize_events: 0, peak_memory_bytes: 80525, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 10000, visited_peak_bytes: 336, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 7, pinned: 7, total_bytes: 80525, shared_bytes: 69291, resident_bytes: 11234, evictions: 0, inserts: 7, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
visited 7 9a79ee4ba24e60a748282de16559d946
clock 10000
InterleaveStats { terminals: 1, lin_candidates: 25, crashes: 0, crash_recoveries: 0, divergent_recoveries: 0 }
clock 10000 lanes [10000, 4000]
after 7 ops: linearizability violation: no sequential execution of the threads' ops (respecting program order and real-time order) matches every thread's observed results
trace ["t0:create_file(/f0, 0644)", "t0:write_file(/f0, off=0, len=40, seed=1)", "t0:truncate(/f0, 1)", "t0:write_file(/f0, off=30, len=4, seed=2)", "t0:read_file(/f0, off=0, len=40)", "t1:create_file(/b, 0644)", "t1:stat(/b)"]
minimized None
shrink None"#,
    );
}

#[test]
fn threaded_crash_cuts() {
    let clock = Clock::new();
    let cfg = ThreadedMcfsConfig {
        crash_exploration: true,
        ..ThreadedMcfsConfig::default()
    };
    let mut sys = ThreadedMcfs::with_clock(
        verifs_pair(),
        disjoint_programs(2, 2),
        Vec::new(),
        cfg,
        clock.clone(),
    )
    .unwrap();
    let (report, summary) = dfs_summary(&mut sys, dfs_cfg(6), &clock);
    assert!(report.violations.is_empty());
    let summary = format!(
        "{summary}\n{:?}\n{}",
        sys.interleave_stats(),
        lanes(&clock, 2)
    );
    pin(
        "crash cuts",
        &summary,
        r#"ExploreStats { ops_executed: 17, ops_replayed: 0, states_new: 9, states_matched: 0, pruned: 13, checkpoints: 9, restores: 8, max_depth_seen: 4, resize_events: 0, peak_memory_bytes: 115304, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 60000, visited_peak_bytes: 432, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 0, pinned: 0, total_bytes: 0, shared_bytes: 0, resident_bytes: 0, evictions: 0, inserts: 18, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: Some(CrashStats { crashes: 9, recoveries: 9, divergent_recoveries: 0 }) }
visited 9 a9b2959fcddc67dc4d887da9bf2305f2
clock 60000
InterleaveStats { terminals: 1, lin_candidates: 4, crashes: 9, crash_recoveries: 9, divergent_recoveries: 0 }
clock 60000 lanes [8000, 24000]"#,
    );
}

#[test]
fn threaded_record_time_minimization() {
    let factory = Arc::new(|s: &[SchedStep]| {
        ThreadedMcfs::from_schedule(hole_single(), s, ThreadedMcfsConfig::default())
    });
    let cfg = ThreadedMcfsConfig {
        minimize_violations: true,
        ..ThreadedMcfsConfig::default()
    };
    let clock = Clock::new();
    let mut sys = ThreadedMcfs::with_clock(
        hole_single(),
        hole_programs(),
        Vec::new(),
        cfg,
        clock.clone(),
    )
    .unwrap()
    .with_factory(factory);
    let (report, summary) = dfs_summary(&mut sys, dfs_cfg(8), &clock);
    let v = report.violations.first().expect("the stale hole is found");
    assert!(v.minimized_trace.is_some(), "record-time minimization ran");
    let summary = format!("{summary}\n{}", render_violation(v));
    pin(
        "threaded minimization",
        &summary,
        r#"ExploreStats { ops_executed: 7, ops_replayed: 0, states_new: 7, states_matched: 0, pruned: 0, checkpoints: 7, restores: 0, max_depth_seen: 6, resize_events: 0, peak_memory_bytes: 80525, swap_traffic_bytes: 0, swapped_bytes: 0, hit_rate: 1.0, virtual_ns: 10000, visited_peak_bytes: 336, spill: None, checkpoint_store: Some(CheckpointStoreStats { snapshots: 7, pinned: 7, total_bytes: 80525, shared_bytes: 69291, resident_bytes: 11234, evictions: 0, inserts: 7, demotions: 0, promotions: 0, spilled_bytes: 0 }), crash: None }
visited 7 9a79ee4ba24e60a748282de16559d946
clock 10000
after 7 ops: linearizability violation: no sequential execution of the threads' ops (respecting program order and real-time order) matches every thread's observed results
trace ["t0:create_file(/f0, 0644)", "t0:write_file(/f0, off=0, len=40, seed=1)", "t0:truncate(/f0, 1)", "t0:write_file(/f0, off=30, len=4, seed=2)", "t0:read_file(/f0, off=0, len=40)", "t1:create_file(/b, 0644)", "t1:stat(/b)"]
minimized Some(["t0:create_file(/f0, 0644)", "t0:write_file(/f0, off=0, len=40, seed=1)", "t0:truncate(/f0, 1)", "t0:write_file(/f0, off=30, len=4, seed=2)", "t0:read_file(/f0, off=0, len=40)"])
shrink Some(ShrinkStats { ops_before: 7, ops_after: 5, candidates_tried: 27, replays_run: 17 })"#,
    );
}

#[test]
fn threaded_three_target_state_discrepancy() {
    let targets = vec![
        verifs2(BugConfig::none()),
        verifs2(BugConfig::none()),
        verifs2(BugConfig::v2_size()),
    ];
    let programs = vec![vec![
        op_create("/f0"),
        op_write("/f0", 0, 10, 1),
        op_write("/f0", 10, 10, 2),
    ]];
    let schedule: Vec<SchedStep> = programs[0]
        .iter()
        .map(|op| SchedStep {
            tid: 0,
            op: op.clone(),
        })
        .collect();
    let mut sys = ThreadedMcfs::new(targets, programs, ThreadedMcfsConfig::default()).unwrap();
    let (at, msg) = sys
        .replay_schedule(&schedule)
        .expect("the size bug diverges");
    pin(
        "threaded discrepancy",
        &format!("at {at}: {msg}"),
        r#"at 2: abstract-state discrepancy on t0:write_file(/f0, off=10, len=10, seed=2):
  verifs2      [checkpoint-api] => Digest128([15, 122, 79, 85, 106, 133, 150, 186, 50, 10, 215, 185, 70, 120, 214, 224])
  verifs2      [checkpoint-api] => Digest128([15, 122, 79, 85, 106, 133, 150, 186, 50, 10, 215, 185, 70, 120, 214, 224])
  verifs2      [checkpoint-api] => Digest128([68, 140, 116, 240, 50, 25, 184, 134, 92, 136, 117, 213, 126, 38, 250, 216])
  majority vote: 2 of 3 agree; suspect(s): verifs2"#,
    );
}

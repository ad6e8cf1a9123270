//! Out-of-core exploration must be *behaviorally invisible*: a run whose
//! visited set, frontier, and checkpoint pool spill to disk under a tiny
//! RAM budget has to classify exactly the states an unbudgeted run does —
//! same fingerprints, same (minimal) depths — and a budgeted run that is
//! killed and resumed from its pickled snapshot has to converge on that
//! same set. Disk failures must never be absorbed: an injected EIO or torn
//! page write has to stop the checker loudly with a spill error, because a
//! silently dropped visited entry would turn "verified exhaustively" into
//! a lie.

use blockdev::Clock;
use mcfs::{FsOp, FsOpCodec, Mcfs, McfsConfig, PoolConfig, RemountMode};
use modelcheck::{
    load_snapshot, run_swarm_persistent, DfsExplorer, ExploreConfig, ExploreReport, MemBudget,
    RandomWalk, RunSnapshot, SpillFaults, StopReason, SwarmConfig, SwarmPersist, SwarmReport,
    WorkerStrategy,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Harness builders (mirroring tests/swarm_resume.rs)
// ---------------------------------------------------------------------------

/// Two registry backends on one clock, remounted around every op where
/// they have a device.
fn harness(names: [&str; 2]) -> Mcfs {
    harness_with(names, None)
}

/// [`harness`] with each target's checkpoint pool bounded to
/// `checkpoint_budget_bytes`.
fn harness_with(names: [&str; 2], checkpoint_budget_bytes: Option<usize>) -> Mcfs {
    let clock = Clock::new();
    let targets = names
        .iter()
        .map(|name| mcfs::backends::target(name, RemountMode::PerOp, clock.clone()).expect(name))
        .collect();
    Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            checkpoint_budget_bytes,
            ..McfsConfig::default()
        },
        clock,
    )
    .expect("harness")
}

fn verifs_harness(_worker: usize) -> Mcfs {
    harness(["fuse-verifs-v1", "fuse-verifs-v2"])
}

fn ext_harness(_worker: usize) -> Mcfs {
    harness(["ext2", "ext4"])
}

/// A budget small enough that every run here overflows it many times over:
/// the visited hot cache holds a couple dozen entries and the frontier hot
/// tier a handful of prefixes.
fn tiny_budget() -> MemBudget {
    let mut b = MemBudget::new(1024);
    b.frontier_hot_bytes = 256;
    b
}

fn swarm_cfg(max_ops: u64, seed: u64, budget: Option<MemBudget>) -> SwarmConfig {
    SwarmConfig {
        workers: 2,
        base: ExploreConfig {
            max_depth: 3,
            max_ops,
            seed,
            mem_budget: budget,
            ..ExploreConfig::default()
        },
        shared_visited: true,
        strategies: vec![WorkerStrategy::Dfs],
    }
}

fn snap_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mcfs-oocore-{name}-{}.pickle", std::process::id()))
}

fn run_to_snapshot(
    factory: fn(usize) -> Mcfs,
    cfg: &SwarmConfig,
    path: &std::path::Path,
    resume: Option<RunSnapshot<FsOp>>,
) -> SwarmReport<FsOp> {
    let report = run_swarm_persistent(
        cfg,
        factory,
        SwarmPersist {
            codec: &FsOpCodec,
            snapshot_path: Some(path.to_path_buf()),
            snapshot_every: 0,
            resume,
        },
    );
    assert!(
        report.persist_error.is_none(),
        "snapshot write failed: {:?}",
        report.persist_error
    );
    report
}

// ---------------------------------------------------------------------------
// Budgeted == unbudgeted, state for state
// ---------------------------------------------------------------------------

/// Exhaustive runs with and without the tiny budget classify the identical
/// `(fingerprint, depth)` set. Exhaustiveness makes the comparison exact:
/// every run records each state at its minimal discovery depth, whatever
/// order the workers found it in, so the canonical sorted exports must be
/// byte-for-byte equal — any entry the spill path lost or corrupted shows
/// up as a diff.
fn check_budget_equality(factory: fn(usize) -> Mcfs, name: &str, seed: u64) {
    let ram_path = snap_path(&format!("{name}-ram-{seed}"));
    let spill_path = snap_path(&format!("{name}-spill-{seed}"));
    run_to_snapshot(factory, &swarm_cfg(u64::MAX, seed, None), &ram_path, None);
    let report = run_to_snapshot(
        factory,
        &swarm_cfg(u64::MAX, seed, Some(tiny_budget())),
        &spill_path,
        None,
    );

    let spill = report.spill.expect("budgeted run reports spill counters");
    assert!(
        spill.pages_written > 0 && spill.evictions > 0,
        "{name}: the tiny budget must actually force spilling (got {spill:?})"
    );

    let ram = load_snapshot(&ram_path, &FsOpCodec).expect("ram snapshot");
    let spilled = load_snapshot(&spill_path, &FsOpCodec).expect("spill snapshot");
    assert!(!ram.visited.is_empty());
    assert_eq!(
        spilled.visited, ram.visited,
        "{name}: spilling changed the explored state set"
    );
    let _ = std::fs::remove_file(&ram_path);
    let _ = std::fs::remove_file(&spill_path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn budgeted_run_visits_identical_states_verifs(seed in 0u64..1000) {
        check_budget_equality(verifs_harness, "eq-verifs", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn budgeted_run_visits_identical_states_ext(seed in 0u64..1000) {
        check_budget_equality(ext_harness, "eq-ext", seed);
    }
}

// ---------------------------------------------------------------------------
// One budget, one spill file
// ---------------------------------------------------------------------------

/// A spread-restart walk over ext2/ext4, the access pattern that keeps
/// unpinned restart checkpoints resident. `observe` sees the running
/// stats after every op.
fn ext_walk(
    checkpoint_budget_bytes: Option<usize>,
    mem_budget: Option<MemBudget>,
    observe: impl FnMut(&modelcheck::ExploreStats),
) -> ExploreReport<FsOp> {
    let mut sys = harness_with(["ext2", "ext4"], checkpoint_budget_bytes);
    let walk = RandomWalk::new(ExploreConfig {
        max_depth: 5,
        max_ops: 400,
        seed: 42,
        restart_spread: 0.5,
        mem_budget,
        ..ExploreConfig::default()
    });
    walk.run_observed(&mut sys, observe)
}

/// The explorer's budget is the only one: under it the checkpoint pool
/// demotes snapshots to the same file the visited set spills to, and the
/// walk reaches what an unbudgeted walk does.
#[test]
fn explorer_budget_spills_checkpoints_and_visited_to_one_file() {
    let dir = std::env::temp_dir().join(format!("mcfs-oocore-one-file-{}", std::process::id()));
    let mut budget = tiny_budget();
    budget.spill_dir = Some(dir.clone());
    let spill_files = || std::fs::read_dir(&dir).map_or(0, |d| d.count());
    let mut most_files = 0;
    let report = ext_walk(Some(600 << 10), Some(budget), |_| {
        most_files = most_files.max(spill_files());
    });
    assert_eq!(report.stop, StopReason::OpBudget);

    let ckpt = report.stats.checkpoint_store.expect("pool stats");
    assert!(
        ckpt.demotions > 0 && ckpt.promotions > 0,
        "the squeezed pool must demote to and promote from the run's spill file: {ckpt:?}"
    );
    assert_eq!(most_files, 1, "the run must open exactly one spill file");
    assert_eq!(spill_files(), 0, "the spill file goes with the run");
    // Every visited page is one hot-map eviction; the rest are the
    // checkpoint pool's chunks, written to the same store.
    let spill = report.stats.spill.expect("spill counters");
    assert!(
        spill.evictions > 0 && spill.pages_written > spill.evictions,
        "visited pages and checkpoint chunks must share one file: {spill:?}"
    );

    let plain = ext_walk(None, None, |_| {});
    assert_eq!(plain.stop, StopReason::OpBudget);
    let reached = |r: &ExploreReport<FsOp>| {
        let s = &r.stats;
        (s.states_new, s.states_matched, s.restores, s.max_depth_seen)
    };
    assert_eq!(
        reached(&report),
        reached(&plain),
        "spilling changed what the walk reached"
    );
    let _ = std::fs::remove_dir(&dir);
}

// ---------------------------------------------------------------------------
// Kill-and-resume with spilled pages
// ---------------------------------------------------------------------------

/// A budgeted run cut mid-flight leaves a snapshot whose visited entries
/// were streamed out of spilled pages; resuming it must converge on the
/// same final state set as an uninterrupted budgeted run.
#[test]
fn kill_and_resume_with_spilled_pages_converges() {
    // Tighter than [`tiny_budget`]: the interrupted phase alone must
    // overflow the hot tier so the snapshot is streamed out of spilled
    // pages, not just the in-RAM remainder.
    let budget = || {
        let mut b = MemBudget::new(256);
        b.frontier_hot_bytes = 256;
        Some(b)
    };
    let control_path = snap_path("resume-control");
    let control = run_to_snapshot(
        verifs_harness,
        &swarm_cfg(u64::MAX, 29, budget()),
        &control_path,
        None,
    );
    let control_snap = load_snapshot(&control_path, &FsOpCodec).expect("control snapshot");
    assert!(control_snap.frontier.is_empty(), "control must exhaust");

    let path = snap_path("resume-cut");
    let cut = (control.total_ops() * 3 / 4).max(10);
    let interrupted = run_to_snapshot(verifs_harness, &swarm_cfg(cut, 29, budget()), &path, None);
    assert!(
        interrupted.spill.expect("spill counters").pages_written > 0,
        "the interrupted run must have spilled pages for resume to reload"
    );
    let snap = load_snapshot(&path, &FsOpCodec).expect("snapshot loads");
    let _ = run_to_snapshot(
        verifs_harness,
        &swarm_cfg(u64::MAX, 29, budget()),
        &path,
        Some(snap),
    );
    let final_snap = load_snapshot(&path, &FsOpCodec).expect("final snapshot");
    assert_eq!(
        final_snap.visited, control_snap.visited,
        "resumed budgeted run diverges from the uninterrupted one"
    );
    let _ = std::fs::remove_file(&control_path);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Fault injection: disk failures stop the checker loudly
// ---------------------------------------------------------------------------

/// Five hot visited entries (the budget of the resume test above): spread
/// over the 64 shards of a budgeted set, the 27-state DFS below then reads
/// its first spilled page back, so each fault fires.
fn faulty_budget(faults: SpillFaults) -> MemBudget {
    let mut b = MemBudget::new(256);
    b.faults = faults;
    b
}

fn dfs_with_faults(faults: SpillFaults) -> StopReason {
    let mut sys = verifs_harness(0);
    let explorer = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 4_000,
        seed: 7,
        mem_budget: Some(faulty_budget(faults)),
        ..ExploreConfig::default()
    });
    explorer.run(&mut sys).stop
}

/// An injected EIO on the first spill-page write must surface as a fatal,
/// spill-attributed stop — not as a quietly smaller state count.
#[test]
fn write_eio_fails_the_run_loudly() {
    let stop = dfs_with_faults(SpillFaults {
        fail_write_at: Some(0),
        ..SpillFaults::default()
    });
    match stop {
        StopReason::Fatal(msg) => assert!(
            msg.contains("spill") && msg.contains("injected"),
            "error must name the spill layer and the injected fault: {msg}"
        ),
        other => panic!("EIO on spill write was swallowed; run stopped with {other:?}"),
    }
}

/// An injected EIO on the first page read-back (a cold-probe of a spilled
/// visited entry) must likewise stop the run fatally.
#[test]
fn read_eio_fails_the_run_loudly() {
    let stop = dfs_with_faults(SpillFaults {
        fail_read_at: Some(0),
        ..SpillFaults::default()
    });
    match stop {
        StopReason::Fatal(msg) => assert!(
            msg.contains("spill"),
            "error must name the spill layer: {msg}"
        ),
        other => panic!("EIO on spill read was swallowed; run stopped with {other:?}"),
    }
}

/// A torn page write (half the frame hits the file, recorded as complete)
/// must be caught by the page checksum at read-back and stop the run.
#[test]
fn torn_write_is_caught_by_the_page_checksum() {
    let stop = dfs_with_faults(SpillFaults {
        torn_write_at: Some(0),
        ..SpillFaults::default()
    });
    match stop {
        StopReason::Fatal(msg) => assert!(
            msg.contains("spill"),
            "error must name the spill layer: {msg}"
        ),
        other => panic!("torn spill write was swallowed; run stopped with {other:?}"),
    }
}

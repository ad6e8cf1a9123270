//! End-to-end checkpoint-budget behaviour: eviction under memory pressure,
//! the `ESTALE`/evicted-restore signal surfacing through the harness, and
//! the explorers' pin discipline keeping their backtrack spines restorable.

use mcfs::{CheckedTarget, CheckpointTarget, ImageTarget, Mcfs, McfsConfig, PoolConfig};
use modelcheck::{
    is_evicted_error, DfsExplorer, ExploreConfig, ModelSystem, RandomWalk, StateId, StopReason,
};
use verifs::VeriFs;
use vfs::FileSystem;

fn ext_pair(budget: Option<usize>) -> Mcfs {
    let e2 = fs_ext::ext2_on_ram(256 * 1024).expect("format ext2");
    let e4 = fs_ext::ext4_on_ram(256 * 1024).expect("format ext4");
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(ImageTarget::vfs(e2)),
        Box::new(ImageTarget::vfs(e4)),
    ];
    let cfg = McfsConfig {
        pool: PoolConfig::small(),
        checkpoint_budget_bytes: budget,
        ..McfsConfig::default()
    };
    Mcfs::new(targets, cfg).expect("harness")
}

#[test]
fn restoring_an_evicted_checkpoint_reports_the_marker() {
    // Each VFS-level snapshot of a 256 KiB device is ~288 KiB of logical
    // state, so a 300 KiB budget holds exactly one unpinned snapshot.
    let mut m = ext_pair(Some(300 * 1024));
    m.checkpoint(StateId(1)).expect("checkpoint 1");
    m.checkpoint(StateId(2)).expect("checkpoint 2"); // evicts 1
    let err = m.restore(StateId(1)).expect_err("1 must be gone");
    assert!(
        is_evicted_error(&err),
        "eviction must be distinguishable from plain failure: {err}"
    );
    // The survivor restores fine, and re-checkpointing a key clears its
    // eviction record.
    m.restore(StateId(2)).expect("2 survives");
    m.checkpoint(StateId(1)).expect("re-checkpoint 1");
    m.restore(StateId(2)).expect_err("2 evicted in turn");
    m.restore(StateId(1)).expect("1 is fresh again");
    let stats = m.checkpoint_store_stats().expect("targets keep stores");
    assert!(stats.evictions >= 2, "stats: {stats:?}");
}

#[test]
fn unbudgeted_harness_never_evicts() {
    let mut m = ext_pair(None);
    for key in 0..8 {
        m.checkpoint(StateId(key)).expect("checkpoint");
    }
    for key in 0..8 {
        m.restore(StateId(key)).expect("every snapshot resident");
    }
    let stats = m.checkpoint_store_stats().expect("stats");
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.snapshots, 16, "8 keys x 2 targets");
}

#[test]
fn dfs_pins_its_spine_and_survives_a_tight_budget() {
    // Budget fits ~2 snapshots per target; DFS needs its whole backtrack
    // spine. Pinning must protect the spine (overshooting the budget) so the
    // search still terminates normally instead of dying on a stale restore.
    let mut m = ext_pair(Some(600 * 1024));
    let report = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 400,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert!(
        matches!(report.stop, StopReason::Exhausted | StopReason::OpBudget),
        "stop: {:?}",
        report.stop
    );
    let stats = report.stats.checkpoint_store.expect("store stats");
    assert_eq!(stats.evictions, 0, "the pinned spine must never be evicted");
}

#[test]
fn random_walk_falls_back_to_its_pinned_root_after_eviction() {
    // VeriFS checkpoints are cheap; use the VFS-level targets so each
    // snapshot is big enough that a small budget forces evictions mid-walk.
    let mut m = ext_pair(Some(600 * 1024));
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 4,
        max_ops: 300,
        backtrack_on_match: true,
        restart_spread: 0.5,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    // The walk must complete (restarting from the pinned root when a stored
    // restart point was evicted), never surface CheckpointEvicted or Fatal.
    assert!(
        matches!(
            report.stop,
            StopReason::Exhausted | StopReason::OpBudget | StopReason::StateBudget
        ),
        "stop: {:?}",
        report.stop
    );
}

#[test]
fn verifs_checkpoint_targets_report_cow_sharing() {
    // Two VeriFS v2 instances under the checkpoint API: snapshots share
    // structure with the live tree, so resident bytes must undercut the
    // logical total once a checkpoint exists.
    let mut v1 = VeriFs::v2();
    v1.mount().unwrap();
    let mut v2 = VeriFs::v2();
    v2.mount().unwrap();
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(v1)),
        Box::new(CheckpointTarget::new(v2)),
    ];
    let mut m = Mcfs::new(targets, McfsConfig::default()).expect("harness");
    for i in 0..20 {
        let op = mcfs::FsOp::Mkdir {
            path: format!("/d{i}"),
            mode: 0o755,
        };
        m.apply(&op);
    }
    m.checkpoint(StateId(1)).expect("checkpoint");
    m.checkpoint(StateId(2)).expect("checkpoint");
    let stats = m.checkpoint_store_stats().expect("stats");
    assert!(
        stats.resident_bytes < stats.total_bytes,
        "COW snapshots must share: resident {} vs logical {}",
        stats.resident_bytes,
        stats.total_bytes
    );
    assert!(stats.shared_bytes > 0);
}

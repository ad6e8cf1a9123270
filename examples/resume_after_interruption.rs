//! §7 future work, implemented: resuming the model-checking process after an
//! interruption (the paper wants this for kernel crashes mid-check).
//!
//! The visited-state set is owned by the caller and survives across runs;
//! phase 2 picks up where the interrupted phase 1 stopped instead of
//! re-exploring known states.
//!
//! Run with: `cargo run --release --example resume_after_interruption`

use fusesim::FuseMount;
use mcfs::{CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig};
use modelcheck::{DfsExplorer, ExploreConfig, StopReason, VisitedSet};
use verifs::VeriFs;

fn fresh_harness() -> Mcfs {
    let wrap = |fs: VeriFs| CheckpointTarget::new(FuseMount::new(fs));
    let targets: Vec<Box<dyn CheckedTarget>> =
        vec![Box::new(wrap(VeriFs::v1())), Box::new(wrap(VeriFs::v2()))];
    Mcfs::new(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
    )
    .expect("harness")
}

fn main() {
    // The persistent artifact that survives the "crash".
    let mut visited = VisitedSet::new(1 << 14);

    // Phase 1: checking is interrupted (op budget plays the kernel crash).
    let mut harness = fresh_harness();
    let phase1 = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 120,
        ..ExploreConfig::default()
    })
    .run_with_visited(&mut harness, &mut visited);
    println!(
        "phase 1 (interrupted): {:?} after {} ops, {} states known",
        phase1.stop,
        phase1.stats.ops_executed,
        visited.len()
    );
    assert_eq!(phase1.stop, StopReason::OpBudget);
    let known_after_crash = visited.len();

    // Phase 2: a fresh checking session resumes with the saved visited set.
    let mut harness = fresh_harness();
    let phase2 = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 1_000_000,
        ..ExploreConfig::default()
    })
    .run_with_visited(&mut harness, &mut visited);
    println!(
        "phase 2 (resumed)    : {:?} after {} more ops, {} states total",
        phase2.stop,
        phase2.stats.ops_executed,
        visited.len()
    );
    assert_eq!(phase2.stop, StopReason::Exhausted);
    assert!(visited.len() > known_after_crash);

    // Control: a cold run covers the same space — nothing was lost.
    let mut cold = VisitedSet::new(1 << 14);
    let mut harness = fresh_harness();
    DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 1_000_000,
        ..ExploreConfig::default()
    })
    .run_with_visited(&mut harness, &mut cold);
    println!(
        "cold control         : {} states (resumed total: {})",
        cold.len(),
        visited.len()
    );
    assert_eq!(cold.len(), visited.len(), "resume must lose nothing");
    println!("\ninterruption + resume covered the identical state space.");
}

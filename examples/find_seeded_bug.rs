//! Reproduce the paper's headline use case: MCFS finds a real bug and
//! reports the exact operation sequence, which then replays deterministically.
//!
//! We reintroduce VeriFS1's historical truncate bug (it failed to zero newly
//! allocated space when expanding a file — found by the authors after ~9K
//! operations) and let the checker find it.
//!
//! Run with: `cargo run --release --example find_seeded_bug`

use blockdev::Clock;
use mcfs::backends::verifs_fuse;
use mcfs::{replay, CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig};
use modelcheck::{ExploreConfig, RandomWalk, StopReason};
use verifs::BugConfig;

/// VeriFS `version` with `bugs`, behind FUSE.
fn target(version: u8, bugs: BugConfig, clock: Clock) -> Box<dyn CheckedTarget> {
    Box::new(CheckpointTarget::new(verifs_fuse(version, bugs, clock)))
}

fn harness(bugs: BugConfig) -> Result<Mcfs, vfs::Errno> {
    let clock = Clock::new();
    Mcfs::with_clock(
        vec![
            target(2, BugConfig::none(), clock.clone()), // reference
            target(1, bugs, clock.clone()),              // buggy VeriFS1
        ],
        McfsConfig {
            pool: PoolConfig::medium(),
            ..McfsConfig::default()
        },
        clock,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bug = BugConfig {
        v1_truncate_no_zero: true,
        ..BugConfig::default()
    };
    println!("searching for the truncate bug with a randomized driver...");
    let mut checked = harness(bug)?;
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 12,
        max_ops: 200_000,
        seed: 4,
        ..ExploreConfig::default()
    })
    .run(&mut checked);

    assert_eq!(report.stop, StopReason::Violation, "the bug must be found");
    let violation = &report.violations[0];
    println!("\nfound after {} operations!", violation.ops_executed);
    println!("{violation}");

    // The paper stresses reproducibility: the logged trace replays exactly.
    println!("replaying the trace on a fresh pair...");
    let mut fresh = harness(bug)?;
    let (step, msg) = replay(&mut fresh, &violation.trace).expect("trace must reproduce");
    println!(
        "reproduced at step {} of {}:",
        step + 1,
        violation.trace.len()
    );
    println!("{}", msg.lines().next().unwrap_or(""));

    // And the fixed file system passes the same trace.
    let mut fixed = harness(BugConfig::none())?;
    assert!(replay(&mut fixed, &violation.trace).is_none());
    println!("\nwith the bug fixed, the same trace runs clean.");
    Ok(())
}

//! Three-way comparison of kernel file systems with majority voting —
//! the paper's future-work item (§7) of running more than two file systems
//! and recognizing misbehaviour by vote.
//!
//! Ext2, Ext4 and XFS run in lockstep on RAM block devices using the
//! device-snapshot + remount strategy (§3.2/§4).
//!
//! Run with: `cargo run --release --example compare_kernel_filesystems`

use blockdev::Clock;
use mcfs::backends::target;
use mcfs::{Mcfs, McfsConfig, PoolConfig, RemountMode};
use modelcheck::{DfsExplorer, ExploreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = Clock::new();
    let targets = ["ext2", "ext4", "xfs"]
        .into_iter()
        .map(|name| target(name, RemountMode::PerOp, clock.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
        clock.clone(),
    )?;
    println!("checking {:?} in lockstep...", harness.target_names());

    let report = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 50_000,
        ..ExploreConfig::default()
    })
    .with_clock(clock.clone())
    .run(&mut harness);

    println!("stop            : {:?}", report.stop);
    println!("ops executed    : {}", report.stats.ops_executed);
    println!("distinct states : {}", report.stats.states_new);
    println!("violations      : {}", report.violations.len());
    println!("virtual time    : {:.2} s", clock.now_secs());
    for v in &report.violations {
        println!("\n{v}");
    }
    assert!(
        report.violations.is_empty(),
        "ext2, ext4 and xfs agree once the 3.4 workarounds normalize their quirks"
    );
    println!("\nall three kernel file systems agree (lost+found, dir sizes,");
    println!("entry ordering and capacity differences all normalized away).");
    Ok(())
}

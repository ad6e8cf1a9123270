//! Three-way comparison of kernel file systems with majority voting —
//! the paper's future-work item (§7) of running more than two file systems
//! and recognizing misbehaviour by vote.
//!
//! Ext2, Ext4 and XFS run in lockstep on RAM block devices using the
//! device-snapshot + remount strategy (§3.2/§4).
//!
//! Run with: `cargo run --release --example compare_kernel_filesystems`

use blockdev::{Clock, LatencyModel, RamDisk, TimedDevice};
use fs_ext::{ExtConfig, ExtFs};
use fs_xfs::{XfsConfig, XfsFs};
use mcfs::{CheckedTarget, Mcfs, McfsConfig, PoolConfig, RemountMode, RemountTarget};
use modelcheck::{DfsExplorer, ExploreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = Clock::new();
    let ram = LatencyModel::ram();

    let e2 = ExtFs::format(
        TimedDevice::new(RamDisk::new(1024, 256 * 1024)?, ram, clock.clone()),
        ExtConfig::ext2(),
    )?;
    let e4 = ExtFs::format(
        TimedDevice::new(RamDisk::new(1024, 256 * 1024)?, ram, clock.clone()),
        ExtConfig::ext4(),
    )?;
    let xfs = XfsFs::format(
        TimedDevice::new(RamDisk::new(4096, 16 * 1024 * 1024)?, ram, clock.clone()),
        XfsConfig::default(),
    )?;

    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(RemountTarget::new(e2, RemountMode::PerOp).with_clock(clock.clone())),
        Box::new(RemountTarget::new(e4, RemountMode::PerOp).with_clock(clock.clone())),
        Box::new(RemountTarget::new(xfs, RemountMode::PerOp).with_clock(clock.clone())),
    ];
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

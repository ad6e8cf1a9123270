//! Experiment harness regenerating the paper's evaluation (§6).
//!
//! Each figure/measurement has a binary under `src/bin/` that prints the
//! same rows/series the paper reports, plus criterion benches for CI-style
//! tracking. Everything is measured in **virtual time** (see DESIGN.md):
//! device latencies, FUSE crossings, remount overheads, swap traffic and
//! hash-table resizes all charge a shared [`blockdev::Clock`], so ratios are
//! deterministic and runs take seconds instead of the paper's weeks.

use blockdev::{Clock, LatencyModel, MtdDevice, RamDisk, TimedDevice};
use fs_ext::{ExtConfig, ExtFs};
use fs_jffs2::{Jffs2Config, Jffs2Fs};
use fs_xfs::{XfsConfig, XfsFs};
use fusesim::{FuseConfig, FuseMount};
use mcfs::{
    CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig, RemountMode, RemountTarget,
};
use modelcheck::{DfsExplorer, ExploreConfig, ExploreReport, MemConfig, RandomWalk};
use verifs::{BugConfig, VeriFs};
use vfs::{FileMode, FileSystem, VfsResult};

/// The device sizes from the paper: 256 KiB RAM block devices for ext2/ext4,
/// 16 MiB for XFS (its minimum).
pub const EXT_DEVICE_BYTES: u64 = 256 * 1024;
/// XFS device size (16 MiB minimum).
pub const XFS_DEVICE_BYTES: u64 = 16 * 1024 * 1024;
/// JFFS2 flash geometry: 16 KiB erase blocks × 64 = 1 MiB.
pub const JFFS2_ERASE_BLOCK: usize = 16 * 1024;
/// JFFS2 erase-block count.
pub const JFFS2_BLOCKS: usize = 64;

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

/// Builds an ext2 or ext4 on a timed RAM/SSD/HDD device.
///
/// # Errors
///
/// Propagated format errors.
pub fn ext_on(
    cfg: ExtConfig,
    model: LatencyModel,
    clock: Clock,
) -> VfsResult<ExtFs<TimedDevice<RamDisk>>> {
    let disk = RamDisk::new(cfg.block_size, EXT_DEVICE_BYTES).map_err(|_| vfs::Errno::EINVAL)?;
    let dev = TimedDevice::new(disk, model, clock);
    ExtFs::format(dev, cfg)
}

/// Builds an XFS on a timed RAM device (16 MiB, the paper's size).
///
/// # Errors
///
/// Propagated format errors.
pub fn xfs_on(model: LatencyModel, clock: Clock) -> VfsResult<XfsFs<TimedDevice<RamDisk>>> {
    let cfg = XfsConfig::default();
    let disk = RamDisk::new(cfg.block_size, XFS_DEVICE_BYTES).map_err(|_| vfs::Errno::EINVAL)?;
    let dev = TimedDevice::new(disk, model, clock);
    XfsFs::format(dev, cfg)
}

/// Builds a JFFS2 on an in-RAM MTD with flash timing charged to `clock`.
///
/// # Errors
///
/// Propagated format errors.
pub fn jffs2_on(clock: Clock) -> VfsResult<Jffs2Fs> {
    let mtd = MtdDevice::new(JFFS2_ERASE_BLOCK, JFFS2_BLOCKS).map_err(|_| vfs::Errno::EINVAL)?;
    let cfg = Jffs2Config {
        clock: Some(clock),
        ..Jffs2Config::default()
    };
    Jffs2Fs::format(mtd, cfg)
}

/// Builds a VeriFS (v1 or v2) mounted through the FUSE layer with the
/// invalidation connection wired — the paper's deployment.
pub fn verifs_fuse(version: u8, bugs: BugConfig, clock: Clock) -> FuseMount<VeriFs> {
    let fs = match version {
        1 => VeriFs::v1_with_bugs(bugs),
        _ => VeriFs::v2_with_bugs(bugs),
    };
    let mut mount = FuseMount::with_config(fs, FuseConfig::default(), Some(clock));
    let conn = mount.connection();
    mount
        .daemon_mut()
        .fs_mut()
        .set_invalidation_sink(std::sync::Arc::new(conn));
    mount
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
    pair_ext2_ext4_cfg(
        model,
        mode,
        McfsConfig {
            pool,
            ..McfsConfig::default()
        },
    )
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
    let clock = Clock::new();
    let e4 = ext_on(ExtConfig::ext4(), LatencyModel::ram(), clock.clone())?;
    let xfs = xfs_on(LatencyModel::ram(), clock.clone())?;
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(RemountTarget::new(e4, mode).with_clock(clock.clone())),
        Box::new(RemountTarget::new(xfs, mode).with_clock(clock.clone())),
    ];
    let harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool,
            ..McfsConfig::default()
        },
        clock.clone(),
    )?;
    Ok(Pairing {
        label: "Ext4 vs XFS (RAM)".to_string(),
        harness,
        clock,
    })
}

/// Builds the Ext4-vs-JFFS2 pairing.
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_ext4_jffs2(pool: PoolConfig) -> VfsResult<Pairing> {
    let clock = Clock::new();
    let e4 = ext_on(ExtConfig::ext4(), LatencyModel::ram(), clock.clone())?;
    let j2 = jffs2_on(clock.clone())?;
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(RemountTarget::new(e4, RemountMode::PerOp).with_clock(clock.clone())),
        Box::new(RemountTarget::new(j2, RemountMode::PerOp).with_clock(clock.clone())),
    ];
    let harness = Mcfs::with_clock(
        targets,
        McfsConfig {
            pool,
            ..McfsConfig::default()
        },
        clock.clone(),
    )?;
    Ok(Pairing {
        label: "Ext4 vs JFFS2".to_string(),
        harness,
        clock,
    })
}

/// Builds the VeriFS1-vs-VeriFS2 pairing through FUSE with the
/// checkpoint/restore API (the paper's fastest configuration).
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_verifs(pool: PoolConfig) -> VfsResult<Pairing> {
    pair_verifs_cfg(McfsConfig {
        pool,
        ..McfsConfig::default()
    })
}

/// [`pair_verifs`] with full control of the harness configuration.
///
/// # Errors
///
/// Propagated construction errors.
pub fn pair_verifs_cfg(cfg: McfsConfig) -> VfsResult<Pairing> {
    let clock = Clock::new();
    let v1 = verifs_fuse(1, BugConfig::none(), clock.clone());
    let v2 = verifs_fuse(2, BugConfig::none(), clock.clone());
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(v1)),
        Box::new(CheckpointTarget::new(v2)),
    ];
    let harness = Mcfs::with_clock(targets, cfg, clock.clone())?;
    Ok(Pairing {
        label: "VeriFS1 vs VeriFS2".to_string(),
        harness,
        clock,
    })
}

/// Runs a bounded DFS over a pairing and returns `(ops/s, report)` measured
/// in virtual time.
pub fn measure_dfs(pairing: &mut Pairing, max_ops: u64) -> (f64, ExploreReport<mcfs::FsOp>) {
    let cfg = ExploreConfig {
        max_depth: 6,
        max_ops,
        mem: scaled_mem(),
        stop_on_violation: true,
        retain_states: true, // SPIN keeps tracked state data for the run
        ..ExploreConfig::default()
    };
    let start = pairing.clock.now_ns();
    let report = DfsExplorer::new(cfg)
        .with_clock(pairing.clock.clone())
        .run(&mut pairing.harness);
    let elapsed = (pairing.clock.now_ns() - start).max(1);
    let ops_per_sec = report.stats.ops_executed as f64 * 1e9 / elapsed as f64;
    (ops_per_sec, report)
}

/// Runs a randomized walk over a pairing (the long-run soak mode) and
/// returns `(ops/s, report)` in virtual time.
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
    let start = pairing.clock.now_ns();
    let report = RandomWalk::new(cfg)
        .with_clock(pairing.clock.clone())
        .run(&mut pairing.harness);
    let elapsed = (pairing.clock.now_ns() - start).max(1);
    let ops_per_sec = report.stats.ops_executed as f64 * 1e9 / elapsed as f64;
    (ops_per_sec, report)
}

/// Prints an aligned two-column table.
pub fn print_table(title: &str, rows: &[(String, String)]) {
    println!("\n== {title} ==");
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<w$}  {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

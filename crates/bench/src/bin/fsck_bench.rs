//! Repair cost: what does pFSCK-style pass parallelism buy, and what does
//! adding the `Fsck` pseudo-op to the operation pool cost the explorer?
//!
//! **Section 1 — parallel repair speedup (virtual time).** An ext4 image
//! is populated, its derivable metadata (bitmaps, free counters, journal
//! area, dirty flag) scrambled, and the same repair run at 1, 2, 4, and 8
//! workers. The CPU-bound passes (inode scan, link counts) charge a shared
//! virtual clock per worker and cost the maximum over workers, so the
//! speedup is deterministic and machine-independent. The run asserts the
//! headline number: ≥1.5× at 4 workers.
//!
//! **Section 2 — fsck as an explorable operation.** The ext2-vs-ext4
//! pairing is explored under the same DFS budget with and without
//! `fsck_exploration`, comparing states/s and reporting how many repair
//! branches the three fsck oracles (repair safety, convergence,
//! idempotence) checked. Both runs must be violation-free.
//!
//! Output: a human-readable table, then JSON (also written to
//! `BENCH_fsck.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin fsck_bench [ops] [--quick]`

use analyze::{ext_derivable_corruptor, XorShift64};
use blockdev::{Clock, DeviceSnapshot, LatencyModel, RamDisk};
use fs_ext::{ExtConfig, ExtFs, FsckOptions};
use mcfs::{McfsConfig, PoolConfig, RemountMode};
use mcfs_bench::{measure_dfs, pair_ext2_ext4_cfg, BenchArgs, BenchReport, Row};
use vfs::{DeviceBacked, FileMode, FileSystem};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn snapshot_like(template: &DeviceSnapshot, img: &[u8]) -> DeviceSnapshot {
    let cs = template.chunk_size();
    let chunks = img.chunks(cs).map(|c| c.to_vec()).collect();
    DeviceSnapshot::from_chunks(template.block_size(), cs, chunks).expect("same geometry")
}

/// A populated ext4 volume with scrambled derivable metadata: real repair
/// work for every pass.
fn dirty_image(device_bytes: u64, files: usize) -> (ExtFs<RamDisk>, DeviceSnapshot) {
    let disk = RamDisk::new(1024, device_bytes).unwrap();
    // Scale the inode table with the workload: the inode scan and
    // link-count passes (the parallel section) walk every slot.
    let config = ExtConfig {
        inodes_count: (files as u32 * 2).clamp(64, 4096),
        ..ExtConfig::ext4()
    };
    let mut fs = ExtFs::format(disk, config).unwrap();
    fs.mount().unwrap();
    for d in 0..4 {
        fs.mkdir(&format!("/d{d}"), FileMode::DIR_DEFAULT).unwrap();
    }
    for i in 0..files {
        let fd = fs
            .create(&format!("/d{}/f{i}", i % 4), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, &[i as u8; 200]).unwrap();
        fs.close(fd).unwrap();
        // One journal transaction holds the metadata of at most a quick
        // run's worth of files; commit between batches so the final sync fits.
        if (i + 1) % 24 == 0 && i + 1 < files {
            fs.sync().unwrap();
        }
    }
    fs.unmount().unwrap();
    let snap = fs.snapshot_device().unwrap();
    let mut img = snap.to_vec();
    let mut rng = XorShift64::new(0x0f5c_bec4);
    ext_derivable_corruptor(&mut img, &mut rng);
    let dirty = snapshot_like(&snap, &img);
    (fs, dirty)
}

/// Repairs the same dirty image at each worker count; returns one row per
/// count and the speedup at 4 workers.
fn measure_repair(device_bytes: u64, files: usize) -> (Vec<Row>, f64) {
    let (mut fs, dirty) = dirty_image(device_bytes, files);
    let mut rows = Vec::new();
    let (mut single_ns, mut at4) = (None, 0.0);
    for &workers in &WORKER_COUNTS {
        fs.restore_device(&dirty).unwrap();
        let clock = Clock::new();
        let start = clock.now_ns();
        let report = fs
            .fsck_with(&FsckOptions::parallel(workers, clock.clone()))
            .expect("repair of derivable corruption");
        let virtual_ns = clock.now_ns() - start;
        assert!(
            report.repairs_made > 0,
            "scrambled metadata must need repairs"
        );
        // Every worker count converges to the same image: a second run
        // finds nothing (the idempotence oracle, at bench scale).
        assert!(
            fs.fsck_with(&FsckOptions::parallel(workers, Clock::new()))
                .expect("second run")
                .is_clean(),
            "repair at {workers} workers is not a fixed point"
        );
        let speedup = *single_ns.get_or_insert(virtual_ns) as f64 / virtual_ns.max(1) as f64;
        if workers == 4 {
            at4 = speedup;
        }
        rows.push(
            Row::new()
                .count("workers", workers as u64)
                .ms("virtual", virtual_ns)
                .count("repairs_made", report.repairs_made)
                .num("speedup", speedup),
        );
    }
    (rows, at4)
}

fn measure_explore(fsck_exploration: bool, budget: u64) -> Row {
    let cfg = McfsConfig {
        pool: PoolConfig::small(),
        fsck_exploration,
        ..McfsConfig::default()
    };
    let mut pairing =
        pair_ext2_ext4_cfg(LatencyModel::ram(), RemountMode::PerOp, cfg).expect("pairing");
    let (ops_per_sec, report) = measure_dfs(&mut pairing, budget);
    let fsck = pairing.harness.fsck_stats().unwrap_or_default();
    if fsck_exploration {
        assert!(fsck.fscks > 0, "no fsck branches explored");
    }
    let states_per_sec =
        ops_per_sec * report.stats.states_new as f64 / report.stats.ops_executed.max(1) as f64;
    Row::new()
        .str("pairing", "ext2-vs-ext4-ram")
        .flag("fsck_exploration", fsck_exploration)
        .rate("ops", ops_per_sec)
        .rate("states", states_per_sec)
        .count("states_new", report.stats.states_new)
        .count("fscks", fsck.fscks)
        .count("repairs_made", fsck.repairs_made)
        .count("violations", 0)
}

fn main() {
    let args = BenchArgs::parse("fsck_bench [ops] [--quick]");
    let quick = args.quick;
    let budget = args.count_or(if quick { 200 } else { 1_200 });
    let (device_bytes, files) = if quick {
        (512 * 1024, 24)
    } else {
        (2 * 1024 * 1024, 96)
    };

    let (repair_rows, at4) = measure_repair(device_bytes, files);
    assert!(
        at4 >= 1.5,
        "parallel repair speedup at 4 workers is {at4:.2}x, need >= 1.5x"
    );

    let mut out = BenchReport::new("fsck", quick);
    out.params(
        Row::new()
            .count("budget_ops", budget)
            .count("files", files as u64)
            .num("speedup", at4),
    );
    out.table("repair", "Parallel repair (virtual time)", repair_rows);
    out.table(
        "exploration",
        "Fsck exploration throughput",
        [false, true]
            .into_iter()
            .map(|on| measure_explore(on, budget))
            .collect(),
    );
    out.finish();
}

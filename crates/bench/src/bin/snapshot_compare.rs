//! §5's state-tracking strategy comparison, plus the copy-on-write
//! checkpoint microbenchmarks.
//!
//! The paper tried, in order: CRIU process snapshots (refused for FUSE file
//! systems because they hold `/dev/fuse`; works for a Ganesha-like plain
//! server), LightVM-style VM snapshots (universal but 30 ms + 20 ms per
//! checkpoint/restore, limiting MCFS to 20–30 ops/s), and finally the
//! in-file-system checkpoint/restore API (VeriFS) that motivates the paper.
//! Kernel file systems use device snapshots + remounts as the baseline.
//!
//! On top of the strategy table (measured in virtual time), this bench
//! measures the **wall-clock** win of structural-sharing checkpoints:
//!
//! 1. **Checkpoint/restore latency** — a 200-file, depth-6 VeriFS2 tree,
//!    checkpointed and restored repeatedly. The deep-clone baseline is
//!    reconstructed with [`VeriFs::materialize_cow`] (which pays the full
//!    copy a non-COW checkpoint would); the COW path is a refcount bump.
//! 2. **Resident bytes** — a depth-50 DFS backtrack spine of checkpoints
//!    over the same tree. Logical bytes are what 50 deep clones would hold;
//!    resident bytes are what the structural-sharing pool actually holds.
//!
//! Everything is emitted as JSON on stdout (after the human-readable table)
//! and written to `BENCH_snapshot.json`.
//!
//! Usage: `cargo run --release -p mcfs-bench --bin snapshot_compare [ops] [--quick]`
//!
//! `--quick` shrinks the budgets to CI-smoke size.

use std::time::Instant;

use blockdev::{Clock, LatencyModel};
use mcfs::{
    CheckedTarget, CheckpointTarget, ImageTarget, Mcfs, McfsConfig, PoolConfig, RemountMode,
};
use mcfs_bench::{
    ext_on, measure_dfs, pair_ext2_ext4, pair_verifs, verifs_fuse, verifs_tree, BenchArgs,
    BenchReport, Row,
};
use verifs::{BugConfig, VeriFs};
use vfs::{FileMode, FileSystem, FsCheckpoint, OpenFlags};

/// Files in the COW benchmark tree (acceptance: 200).
const TREE_FILES: usize = 200;
/// Path depth of every file (acceptance: 6 components).
const TREE_DEPTH: usize = 6;
/// Bytes of content per file.
const FILE_BYTES: usize = 4096;
/// Checkpoint-spine depth for the resident-bytes measurement.
const SPINE_DEPTH: usize = 50;

/// One benchmark mutation between checkpoints: rewrite a slice of one file.
fn touch(fs: &mut VeriFs, paths: &[String], i: usize) {
    let path = &paths[i % paths.len()];
    let fd = fs
        .open(path, OpenFlags::write_only(), FileMode::REG_DEFAULT)
        .expect("open");
    fs.write(fd, &[i as u8; 32]).expect("write");
    fs.close(fd).expect("close");
}

/// Measures mean per-call checkpoint/restore latency, deep-clone baseline vs
/// copy-on-write, on identical trees and mutation sequences.
fn bench_cow_latency(rounds: usize) -> Row {
    // Deep-clone baseline: checkpoint, then force every shared allocation
    // apart again — the copy a snapshot-by-value implementation pays.
    let (mut fs, paths) = verifs_tree(TREE_FILES, TREE_DEPTH, FILE_BYTES);
    let mut deep_ckpt = 0u128;
    for k in 0..rounds {
        touch(&mut fs, &paths, k);
        let t = Instant::now();
        fs.checkpoint(k as u64).expect("checkpoint");
        fs.materialize_cow();
        deep_ckpt += t.elapsed().as_nanos();
    }
    let mut deep_restore = 0u128;
    for k in 0..rounds {
        let t = Instant::now();
        fs.restore_keep(k as u64).expect("restore");
        fs.materialize_cow();
        deep_restore += t.elapsed().as_nanos();
    }

    // COW: the checkpoint is a refcount bump, the restore an O(1) swap.
    let (mut fs, paths) = verifs_tree(TREE_FILES, TREE_DEPTH, FILE_BYTES);
    let mut cow_ckpt = 0u128;
    for k in 0..rounds {
        touch(&mut fs, &paths, k);
        let t = Instant::now();
        fs.checkpoint(k as u64).expect("checkpoint");
        cow_ckpt += t.elapsed().as_nanos();
    }
    let mut cow_restore = 0u128;
    for k in 0..rounds {
        let t = Instant::now();
        fs.restore_keep(k as u64).expect("restore");
        cow_restore += t.elapsed().as_nanos();
    }

    let per = |total: u128| total as f64 / rounds.max(1) as f64;
    let checkpoint_speedup = deep_ckpt as f64 / cow_ckpt.max(1) as f64;
    assert!(
        checkpoint_speedup >= 10.0,
        "COW checkpoints must be >= 10x deep clones (got {checkpoint_speedup:.1}x)"
    );
    Row::new()
        .count("tree_files", TREE_FILES as u64)
        .count("tree_depth", TREE_DEPTH as u64)
        .count("file_bytes", FILE_BYTES as u64)
        .count("rounds", rounds as u64)
        .ns("deep_checkpoint", per(deep_ckpt))
        .ns("cow_checkpoint", per(cow_ckpt))
        .num("checkpoint_speedup", checkpoint_speedup)
        .ns("deep_restore", per(deep_restore))
        .ns("cow_restore", per(cow_restore))
        .num(
            "restore_speedup",
            deep_restore as f64 / cow_restore.max(1) as f64,
        )
}

/// Builds a DFS-style backtrack spine of checkpoints — one per depth level,
/// each after a small mutation — and compares what 50 deep clones would hold
/// (the logical bytes) against what the sharing pool actually holds.
fn bench_spine_residency() -> Row {
    let (mut fs, paths) = verifs_tree(TREE_FILES, TREE_DEPTH, FILE_BYTES);
    for d in 0..SPINE_DEPTH {
        touch(&mut fs, &paths, d);
        fs.checkpoint(d as u64).expect("checkpoint");
    }
    let logical_bytes = fs.snapshot_bytes();
    let resident_bytes = fs.snapshot_resident_bytes();
    let reduction = logical_bytes as f64 / resident_bytes.max(1) as f64;
    assert!(
        reduction >= 5.0,
        "the depth-{SPINE_DEPTH} spine must hold >= 5x less than deep clones \
         (logical {logical_bytes} vs resident {resident_bytes})"
    );
    Row::new()
        .count("depth", SPINE_DEPTH as u64)
        .count("checkpoint_logical_bytes", logical_bytes as u64)
        .count("checkpoint_resident_bytes", resident_bytes as u64)
        .num("resident_reduction", reduction)
}

/// One strategy's row; `ops_per_sec` is `None` when the strategy cannot
/// run at all.
fn strategy(name: &str, ops_per_sec: Option<f64>, outcome: &str, paper: &str) -> Row {
    Row::new()
        .str("strategy", name)
        .opt_rate("ops", ops_per_sec)
        .str("outcome", outcome)
        .str("paper", paper)
}

/// Runs the paper's five-strategy comparison, measured in virtual time.
fn strategy_table(budget: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // 1. CRIU on a FUSE file system: refused at the first checkpoint
    //    because the daemon process holds /dev/fuse.
    {
        let fuse = verifs_fuse(1, BugConfig::none(), Clock::new());
        let handles: Vec<snapshot::ProcessHandle> = fuse
            .daemon()
            .device_handles()
            .iter()
            .map(|h| match h {
                fusesim::DeviceHandle::Char(p) => snapshot::ProcessHandle::CharDevice(p.clone()),
                fusesim::DeviceHandle::Block(p) => snapshot::ProcessHandle::BlockDevice(p.clone()),
            })
            .collect();
        let outcome = match snapshot::criu_check_handles(&handles) {
            Err(e) => format!("REFUSED ({e})"),
            Ok(()) => "unexpectedly worked".to_string(),
        };
        rows.push(strategy(
            "criu + FUSE file system",
            None,
            &outcome,
            "refused: the daemon holds /dev/fuse",
        ));
    }

    // 2. CRIU on a Ganesha-like plain user-space server (no device handles).
    {
        let clock = Clock::new();
        let mut fs = VeriFs::v1();
        fs.mount().expect("mount");
        let targets: Vec<Box<dyn CheckedTarget>> = vec![
            Box::new(ImageTarget::criu(fs, &[], 1 << 20).with_clock(clock.clone())),
            Box::new(CheckpointTarget::new(verifs_fuse(
                2,
                BugConfig::none(),
                clock.clone(),
            ))),
        ];
        let harness = Mcfs::with_clock(targets, McfsConfig::default(), clock.clone());
        let mut pairing = mcfs_bench::Pairing {
            label: "criu".into(),
            harness: harness.expect("harness"),
            clock,
        };
        let (ops_per_sec, _) = measure_dfs(&mut pairing, budget);
        rows.push(strategy(
            "criu + Ganesha-like server",
            Some(ops_per_sec),
            "works: no device handles",
            "works (under investigation)",
        ));
    }

    // 3. LightVM-style VM snapshots around a kernel file system.
    {
        let clock = Clock::new();
        let e2 = ext_on(
            fs_ext::ExtConfig::ext2(),
            LatencyModel::ram(),
            clock.clone(),
        )
        .expect("format");
        let e4 = ext_on(
            fs_ext::ExtConfig::ext4(),
            LatencyModel::ram(),
            clock.clone(),
        )
        .expect("format");
        let targets: Vec<Box<dyn CheckedTarget>> = vec![
            Box::new(ImageTarget::vm(e2, 256 * 1024).with_clock(clock.clone())),
            Box::new(ImageTarget::vm(e4, 256 * 1024).with_clock(clock.clone())),
        ];
        let harness = Mcfs::with_clock(targets, McfsConfig::default(), clock.clone());
        let mut pairing = mcfs_bench::Pairing {
            label: "vm".into(),
            harness: harness.expect("harness"),
            clock,
        };
        let (ops_per_sec, _) = measure_dfs(&mut pairing, budget);
        rows.push(strategy(
            "LightVM-style VM snapshots",
            Some(ops_per_sec),
            "works",
            "20-30 ops/s",
        ));
    }

    // 4. Device snapshots + remounts (kernel file systems).
    {
        let mut pairing =
            pair_ext2_ext4(LatencyModel::ram(), RemountMode::PerOp, PoolConfig::small())
                .expect("pairing");
        let (ops_per_sec, _) = measure_dfs(&mut pairing, budget);
        rows.push(strategy(
            "device snapshot + remount",
            Some(ops_per_sec),
            "works",
            "~229 ops/s",
        ));
    }

    // 5. The paper's proposal: the checkpoint/restore API (VeriFS).
    {
        let mut pairing = pair_verifs(PoolConfig::small()).expect("pairing");
        let (ops_per_sec, _) = measure_dfs(&mut pairing, budget);
        rows.push(strategy(
            "checkpoint/restore API",
            Some(ops_per_sec),
            "works",
            "~1330 ops/s, the winner",
        ));
    }

    rows
}

fn main() {
    let args = BenchArgs::parse("snapshot_compare [ops] [--quick]");
    let quick = args.quick;
    let budget = args.count_or(if quick { 300 } else { 2_000 });
    let rounds = if quick { 12 } else { 50 };

    let mut out = BenchReport::new("snapshot", quick);
    out.params(Row::new().count("budget_ops", budget));
    out.table(
        "strategies",
        "Section 5: state-tracking strategies",
        strategy_table(budget),
    );
    out.record(
        "cow_checkpoint",
        "Copy-on-write checkpoints vs deep clones (wall clock, per call)",
        bench_cow_latency(rounds),
    );
    out.record(
        "dfs_spine",
        "Checkpoint spine residency",
        bench_spine_residency(),
    );
    out.finish();
}

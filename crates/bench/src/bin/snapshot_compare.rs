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
    ext_on, measure_dfs, pair_ext2_ext4, pair_verifs, print_table, verifs_fuse, verifs_tree,
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

struct CowLatency {
    rounds: usize,
    deep_checkpoint_ns: u128,
    cow_checkpoint_ns: u128,
    checkpoint_speedup: f64,
    deep_restore_ns: u128,
    cow_restore_ns: u128,
    restore_speedup: f64,
}

/// Measures mean per-call checkpoint/restore latency, deep-clone baseline vs
/// copy-on-write, on identical trees and mutation sequences.
fn bench_cow_latency(rounds: usize) -> CowLatency {
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

    let per = |total: u128| total / rounds.max(1) as u128;
    CowLatency {
        rounds,
        deep_checkpoint_ns: per(deep_ckpt),
        cow_checkpoint_ns: per(cow_ckpt),
        checkpoint_speedup: deep_ckpt as f64 / cow_ckpt.max(1) as f64,
        deep_restore_ns: per(deep_restore),
        cow_restore_ns: per(cow_restore),
        restore_speedup: deep_restore as f64 / cow_restore.max(1) as f64,
    }
}

struct SpineResidency {
    depth: usize,
    logical_bytes: usize,
    resident_bytes: usize,
    reduction: f64,
}

/// Builds a DFS-style backtrack spine of checkpoints — one per depth level,
/// each after a small mutation — and compares what 50 deep clones would hold
/// (the logical bytes) against what the sharing pool actually holds.
fn bench_spine_residency() -> SpineResidency {
    let (mut fs, paths) = verifs_tree(TREE_FILES, TREE_DEPTH, FILE_BYTES);
    for d in 0..SPINE_DEPTH {
        touch(&mut fs, &paths, d);
        fs.checkpoint(d as u64).expect("checkpoint");
    }
    let logical_bytes = fs.snapshot_bytes();
    let resident_bytes = fs.snapshot_resident_bytes();
    SpineResidency {
        depth: SPINE_DEPTH,
        logical_bytes,
        resident_bytes,
        reduction: logical_bytes as f64 / resident_bytes.max(1) as f64,
    }
}

/// Runs the paper's five-strategy comparison, returning `(name, outcome)`
/// rows measured in virtual time.
fn strategy_table(budget: u64) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();

    // 1. CRIU on a FUSE file system: refused at the first checkpoint
    //    because the daemon process holds /dev/fuse.
    {
        struct FuseProcess(fusesim::FuseMount<VeriFs>);
        impl snapshot::Snapshotable for FuseProcess {
            fn memory_image(&self) -> Vec<u8> {
                Vec::new() // never reached: the handle check refuses first
            }
            fn restore_image(&mut self, _image: &[u8]) -> Result<(), String> {
                Ok(())
            }
            fn handles(&self) -> Vec<snapshot::ProcessHandle> {
                self.0
                    .daemon()
                    .device_handles()
                    .iter()
                    .map(|h| match h {
                        fusesim::DeviceHandle::Char(p) => {
                            snapshot::ProcessHandle::CharDevice(p.clone())
                        }
                        fusesim::DeviceHandle::Block(p) => {
                            snapshot::ProcessHandle::BlockDevice(p.clone())
                        }
                    })
                    .collect()
            }
        }
        let clock = Clock::new();
        let proc = FuseProcess(verifs_fuse(1, BugConfig::none(), clock.clone()));
        let mut engine = snapshot::CriuEngine::new(Some(clock));
        let outcome = match engine.checkpoint(1, &proc) {
            Err(e) => format!("REFUSED ({e}) — as the paper found for FUSE"),
            Ok(()) => "unexpectedly worked".to_string(),
        };
        rows.push(("criu + FUSE file system".into(), outcome));
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
        rows.push((
            "criu + Ganesha-like server".into(),
            format!("{ops_per_sec:>8.1} ops/s (works: no device handles)"),
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
        rows.push((
            "LightVM-style VM snapshots".into(),
            format!("{ops_per_sec:>8.1} ops/s (paper: 20-30 ops/s)"),
        ));
    }

    // 4. Device snapshots + remounts (kernel file systems).
    {
        let mut pairing =
            pair_ext2_ext4(LatencyModel::ram(), RemountMode::PerOp, PoolConfig::small())
                .expect("pairing");
        let (ops_per_sec, _) = measure_dfs(&mut pairing, budget);
        rows.push((
            "device snapshot + remount".into(),
            format!("{ops_per_sec:>8.1} ops/s (paper: ~229 ops/s)"),
        ));
    }

    // 5. The paper's proposal: the checkpoint/restore API (VeriFS).
    {
        let mut pairing = pair_verifs(PoolConfig::small()).expect("pairing");
        let (ops_per_sec, _) = measure_dfs(&mut pairing, budget);
        rows.push((
            "checkpoint/restore API".into(),
            format!("{ops_per_sec:>8.1} ops/s (paper: ~1330 ops/s, the winner)"),
        ));
    }

    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if quick { 300 } else { 2_000 });
    let rounds = if quick { 12 } else { 50 };

    let rows = strategy_table(budget);
    print_table("Section 5: state-tracking strategies", &rows);

    let latency = bench_cow_latency(rounds);
    let spine = bench_spine_residency();

    let strategies: String = rows
        .iter()
        .map(|(k, v)| {
            format!(
                "    {{\"strategy\": \"{}\", \"outcome\": \"{}\"}}",
                k.replace('"', "'"),
                v.trim().replace('"', "'")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n\
         \x20 \"strategies\": [\n{strategies}\n  ],\n\
         \x20 \"cow_checkpoint\": {{\n\
         \x20   \"tree_files\": {TREE_FILES},\n\
         \x20   \"tree_depth\": {TREE_DEPTH},\n\
         \x20   \"file_bytes\": {FILE_BYTES},\n\
         \x20   \"rounds\": {rounds},\n\
         \x20   \"deep_checkpoint_ns\": {deep_ckpt},\n\
         \x20   \"cow_checkpoint_ns\": {cow_ckpt},\n\
         \x20   \"checkpoint_speedup\": {ckpt_speedup:.2},\n\
         \x20   \"deep_restore_ns\": {deep_restore},\n\
         \x20   \"cow_restore_ns\": {cow_restore},\n\
         \x20   \"restore_speedup\": {restore_speedup:.2}\n\
         \x20 }},\n\
         \x20 \"dfs_spine\": {{\n\
         \x20   \"depth\": {spine_depth},\n\
         \x20   \"checkpoint_logical_bytes\": {logical},\n\
         \x20   \"checkpoint_resident_bytes\": {resident},\n\
         \x20   \"resident_reduction\": {reduction:.2}\n\
         \x20 }}\n\
         }}",
        rounds = latency.rounds,
        deep_ckpt = latency.deep_checkpoint_ns,
        cow_ckpt = latency.cow_checkpoint_ns,
        ckpt_speedup = latency.checkpoint_speedup,
        deep_restore = latency.deep_restore_ns,
        cow_restore = latency.cow_restore_ns,
        restore_speedup = latency.restore_speedup,
        spine_depth = spine.depth,
        logical = spine.logical_bytes,
        resident = spine.resident_bytes,
        reduction = spine.reduction,
    );
    println!("\n{json}");
    std::fs::write("BENCH_snapshot.json", format!("{json}\n")).expect("write BENCH_snapshot.json");

    assert!(
        latency.checkpoint_speedup >= 10.0,
        "COW checkpoints must be >= 10x deep clones (got {:.1}x)",
        latency.checkpoint_speedup
    );
    assert!(
        spine.reduction >= 5.0,
        "the depth-{} spine must hold >= 5x less than deep clones \
         (logical {} vs resident {})",
        spine.depth,
        spine.logical_bytes,
        spine.resident_bytes
    );
}

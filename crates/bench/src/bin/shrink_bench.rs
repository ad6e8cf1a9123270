//! Counterexample-minimization cost and effectiveness: how far does the
//! delta-debugging shrinker cut real violating traces, and how many
//! replays does it spend doing it?
//!
//! Two seeded cases, both acceptance checks for the shrinker:
//!
//! * **buggy-verifs-hole** — a ≥40-op trace against VeriFS2 with paper
//!   bug 3 reintroduced, where the 4-op hole pattern is buried in
//!   unrelated traffic. Minimization must recover (close to) the 4-op
//!   core: a ≥5× shrink.
//! * **ext2-torn-write** — a crash trace from a clean-vs-torn-device ext2
//!   pair, where the tear targets the *second write to one data block*
//!   (an address-filtered [`FaultPlan`]). Targeting matters: per-op
//!   remount writes the superblock around every operation, so an
//!   ordinal-only tear is pinned to the full trace — dropping *any* op
//!   shifts the ordinal, changes the diagnosis, and the same-message rule
//!   correctly rejects the candidate (an honest 1.0× "shrink"). With the
//!   tear pinned to the torn block instead, the read-only ballast between
//!   first write and overwrite shrinks away while both writes stay
//!   load-bearing.
//!
//! Output: a human-readable table, then JSON (also written to
//! `BENCH_shrink.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin shrink_bench [--quick]`
//!
//! `--quick` shrinks the traces and the tear search to CI-smoke size.

use std::sync::Arc;

use blockdev::{FaultKind, FaultPlan, FaultyDevice, RamDisk};
use fs_ext::{ExtConfig, ExtFs};
use mcfs::{
    buggy_verifs_factory, replay, replay_checked, shrink_trace, FsOp, HarnessFactory, Mcfs,
    McfsConfig, PoolConfig, RemountMode, RemountTarget, ShrinkConfig,
};
use mcfs_bench::print_table;
use verifs::BugConfig;
use vfs::VfsResult;

struct Row {
    case: &'static str,
    ops_before: usize,
    ops_after: usize,
    candidates_tried: u64,
    replays_run: u64,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.ops_before as f64 / self.ops_after.max(1) as f64
    }
}

fn op_create(path: &str) -> FsOp {
    FsOp::CreateFile {
        path: path.into(),
        mode: 0o644,
    }
}

fn op_write(path: &str, offset: u64, size: u64, seed: u8) -> FsOp {
    FsOp::WriteFile {
        path: path.into(),
        offset,
        size,
        seed,
    }
}

/// A ≥`filler`+4-op trace hiding the hole bug's 4-op core in unrelated
/// traffic on other paths. The final pattern op (the hole-creating write)
/// is the last op, so the whole trace is the recorded violation prefix.
fn buried_hole_trace(filler: usize) -> Vec<FsOp> {
    let noise = |i: usize| -> FsOp {
        match i % 6 {
            0 => op_create("/f1"),
            1 => op_write("/f1", 0, 16 + (i as u64 % 5) * 8, 3),
            2 => FsOp::Stat { path: "/f1".into() },
            3 => FsOp::Getdents { path: "/".into() },
            4 => FsOp::ReadFile {
                path: "/f1".into(),
                offset: 0,
                size: 16,
            },
            _ => FsOp::Access { path: "/f1".into() },
        }
    };
    let pattern = [
        op_create("/f0"),
        op_write("/f0", 0, 40, 1),
        FsOp::Truncate {
            path: "/f0".into(),
            size: 1,
        },
        op_write("/f0", 30, 4, 2),
    ];
    let mut trace: Vec<FsOp> = (0..filler).map(noise).collect();
    // Spread the pattern through the noise; the hole write stays last.
    for (k, op) in pattern.into_iter().enumerate() {
        let at = ((k + 1) * filler / 4).min(trace.len());
        trace.insert(at + k, op);
    }
    trace
}

fn minimize_case(case: &'static str, factory: &Arc<HarnessFactory>, trace: &[FsOp]) -> Row {
    let mut recorder = (factory)().expect("factory builds");
    let (idx, msg) = replay(&mut recorder, trace).expect("seeded trace must violate");
    let recorded = &trace[..=idx];
    let out = shrink_trace(recorded, &msg, &ShrinkConfig::default(), |c| {
        replay(&mut factory().ok()?, c)
    })
    .expect("a reproducing trace must minimize");
    // Trustworthy replay is part of the acceptance: the minimized trace
    // reproduces the identical diagnosis on another fresh pair.
    let mut fresh = (factory)().expect("factory rebuilds");
    assert!(
        replay_checked(&mut fresh, &out.trace, &msg).reproduced(),
        "{case}: minimized trace must reproduce the same message"
    );
    Row {
        case,
        ops_before: out.stats.ops_before,
        ops_after: out.stats.ops_after,
        candidates_tried: out.stats.candidates_tried,
        replays_run: out.stats.replays_run,
    }
}

/// An ext2 whose device tears according to `plan`, armed after format so
/// the plan's write ordinal counts from a deterministic point.
fn ext2_torn(plan: FaultPlan) -> ExtFs<FaultyDevice<RamDisk>> {
    let cfg = ExtConfig::ext2();
    let disk = RamDisk::new(cfg.block_size, 256 * 1024).unwrap();
    let mut fs = ExtFs::format(FaultyDevice::new(disk, FaultPlan::none()), cfg).unwrap();
    fs.device_mut().set_plan(plan);
    fs
}

/// Clean ext2 vs torn ext2, both per-op remounted — rebuilt identically on
/// every call, so candidate replays see the identical tear. The plan tears
/// the second write to block `addr`: the first write to `/a`'s data block
/// passes, the overwrite at the end of the trace tears.
fn torn_factory(addr: u64) -> Arc<HarnessFactory> {
    Arc::new(move || -> VfsResult<Mcfs> {
        let clean = ext2_torn(FaultPlan::none());
        let torn = ext2_torn(
            FaultPlan::eio(FaultKind::Write, 1, 1)
                .with_torn_bytes(17)
                .at_addr(addr),
        );
        Mcfs::new(
            vec![
                Box::new(RemountTarget::new(clean, RemountMode::PerOp)),
                Box::new(RemountTarget::new(torn, RemountMode::PerOp)),
            ],
            McfsConfig {
                pool: PoolConfig::small(),
                // A tearing device mutates state *underneath* the file
                // system, so path-level fingerprint invalidation (which only
                // reacts to the ops themselves) would cache over the torn
                // block and never observe it.
                incremental_fingerprint: false,
                ..McfsConfig::default()
            },
        )
    })
}

/// Create and fill `/a`, hold a long read-only stretch, then overwrite
/// `/a` — the second write to its data block, which the targeted plan
/// tears during the post-op unmount sync. A trailing `Stat` remounts and
/// observes the torn block. The reads in the middle are shrinkable; both
/// writes are load-bearing (dropping the first makes the overwrite the
/// block's *first* write, so the tear never fires).
fn torn_trace(reads: usize) -> Vec<FsOp> {
    let mut ops = vec![op_create("/a"), op_write("/a", 0, 600, 1)];
    for i in 0..reads {
        ops.push(match i % 4 {
            0 => FsOp::Stat { path: "/a".into() },
            1 => FsOp::ReadFile {
                path: "/a".into(),
                offset: 0,
                size: 64,
            },
            2 => FsOp::Getdents { path: "/".into() },
            _ => FsOp::Access { path: "/a".into() },
        });
    }
    ops.push(op_write("/a", 0, 600, 2));
    ops.push(FsOp::Stat { path: "/a".into() });
    ops
}

/// Finds the block address of `/a`'s data by scanning: the tear must fire
/// on the overwrite and be seen by the observer, i.e. the violation lands
/// on the trace's final op.
fn find_torn_block(trace: &[FsOp], max_blocks: u64) -> Option<u64> {
    for addr in 0..max_blocks {
        let factory = torn_factory(addr);
        let Ok(mut m) = (factory)() else { continue };
        if let Some((idx, _)) = replay(&mut m, trace) {
            if idx == trace.len() - 1 {
                return Some(addr);
            }
        }
    }
    None
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let (hole_filler, torn_reads) = if quick { (32, 20) } else { (36, 30) };

    let mut rows = Vec::new();

    let hole_factory = buggy_verifs_factory(BugConfig::v2_hole(), McfsConfig::default());
    let hole = buried_hole_trace(hole_filler);
    assert!(quick || hole.len() >= 40, "headline case is a ≥40-op trace");
    rows.push(minimize_case("buggy-verifs-hole", &hole_factory, &hole));

    let torn = torn_trace(torn_reads);
    let addr = find_torn_block(&torn, 256)
        .expect("some block address must carry /a's data and tear on overwrite");
    rows.push(minimize_case("ext2-torn-write", &torn_factory(addr), &torn));

    for r in &rows {
        assert!(
            r.ratio() >= 5.0,
            "{}: acceptance requires a >=5x shrink, got {:.1}x ({} -> {} ops)",
            r.case,
            r.ratio(),
            r.ops_before,
            r.ops_after
        );
    }

    let table: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            (
                r.case.to_string(),
                format!(
                    "{:>3} -> {:>2} ops ({:>4.1}x)  {:>4} candidates, {:>4} replays",
                    r.ops_before,
                    r.ops_after,
                    r.ratio(),
                    r.candidates_tried,
                    r.replays_run
                ),
            )
        })
        .collect();
    print_table("Trace minimization", &table);

    let runs: String = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"case\": \"{}\", \"ops_before\": {}, \"ops_after\": {}, \
                 \"shrink_ratio\": {:.2}, \"candidates_tried\": {}, \"replays_run\": {}}}",
                r.case,
                r.ops_before,
                r.ops_after,
                r.ratio(),
                r.candidates_tried,
                r.replays_run,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n  \"quick\": {quick},\n  \"runs\": [\n{runs}\n  ]\n}}");
    println!("\n{json}");
    std::fs::write("BENCH_shrink.json", format!("{json}\n")).expect("write BENCH_shrink.json");
}

//! §3.4's false-positive workarounds, demonstrated one at a time.
//!
//! Each workaround is disabled in isolation to show the false positive it
//! prevents, then re-enabled to show the clean run: directory-size
//! reporting, getdents ordering, special folders (`lost+found`), and
//! capacity equalization.
//!
//! Output: the table, then JSON (also written to `BENCH_false_positives.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin false_positives`

use mcfs::backends::target;
use mcfs::{AbstractionConfig, FsOp, Mcfs, McfsConfig, RemountMode, EQUALIZE_DUMMY};
use mcfs_bench::{BenchArgs, BenchReport, Row};
use modelcheck::{ApplyOutcome, ModelSystem};

/// Two registry backends on one clock, remounted only around restores.
fn pair(names: [&str; 2], cfg: McfsConfig) -> Result<Mcfs, vfs::Errno> {
    let clock = blockdev::Clock::new();
    let targets = names
        .iter()
        .map(|name| target(name, RemountMode::OnRestore, clock.clone()))
        .collect::<Result<_, _>>()?;
    Mcfs::with_clock(targets, cfg, clock)
}

fn ext4_vs_xfs(cfg: McfsConfig) -> Result<Mcfs, vfs::Errno> {
    pair(["ext4", "xfs"], cfg)
}

fn ran_clean(harness: &mut Mcfs, script: &[FsOp]) -> Result<(), String> {
    for op in script {
        if let ApplyOutcome::Violation(msg) = harness.apply(op) {
            return Err(msg);
        }
    }
    Ok(())
}

/// One workaround's row: whether turning it off raises a false positive and
/// whether leaving it on runs clean.
fn workaround(name: &str, off_false_positive: bool, on_clean: bool) -> Row {
    Row::new()
        .str("workaround", name)
        .flag("off_false_positive", off_false_positive)
        .flag("on_clean", on_clean)
}

fn main() {
    let args = BenchArgs::parse("false_positives");
    let mut rows = Vec::new();
    let script = vec![
        FsOp::Mkdir {
            path: "/d0".into(),
            mode: 0o755,
        },
        FsOp::CreateFile {
            path: "/d0/f2".into(),
            mode: 0o644,
        },
        FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        },
        FsOp::CreateFile {
            path: "/f1".into(),
            mode: 0o644,
        },
        FsOp::Stat { path: "/d0".into() },
        FsOp::Getdents { path: "/".into() },
    ];

    // 1. Directory sizes: ext reports block multiples, XFS entry-based.
    //    With sizes hashed, even the empty roots disagree — the harness
    //    reports the discrepancy at construction.
    {
        let bad_cfg = McfsConfig {
            abstraction: AbstractionConfig {
                include_dir_sizes: true,
                ..AbstractionConfig::default()
            },
            ..McfsConfig::default()
        };
        let off = match ext4_vs_xfs(bad_cfg) {
            Err(_) => true, // initial states already diverge
            Ok(mut harness) => ran_clean(&mut harness, &script).is_err(),
        };
        let mut harness = ext4_vs_xfs(McfsConfig::default()).expect("harness");
        let on = ran_clean(&mut harness, &script).is_ok();
        rows.push(workaround("ignore directory sizes", off, on));
        assert!(off && on);
    }

    // 2. getdents ordering: ext returns creation order, XFS hash order.
    {
        let mut bad_cfg = McfsConfig::default();
        bad_cfg.abstraction.sort_entries = false;
        // Comparing raw getdents output needs the sort disabled in the op
        // outcome too; the abstraction flag governs both demonstrations via
        // traversal order, so drive a direct comparison through Getdents.
        let mut harness = ext4_vs_xfs(bad_cfg).expect("harness");
        let mut off = false;
        for op in &script {
            if let ApplyOutcome::Violation(_) = harness.apply(op) {
                off = true;
                break;
            }
        }
        let mut harness = ext4_vs_xfs(McfsConfig::default()).expect("harness");
        let on = ran_clean(&mut harness, &script).is_ok();
        rows.push(workaround("sort getdents output", off, on));
        assert!(on);
    }

    // 3. Special folders: ext4's lost+found vs everyone else.
    {
        let bad_cfg = McfsConfig {
            abstraction: AbstractionConfig {
                exceptions: vec![EQUALIZE_DUMMY.to_string()], // no lost+found!
                ..AbstractionConfig::default()
            },
            ..McfsConfig::default()
        };
        // With lost+found visible, the initial states differ and harness
        // construction itself reports the discrepancy.
        let off = ext4_vs_xfs(bad_cfg).is_err();
        let on = ext4_vs_xfs(McfsConfig::default()).is_ok();
        rows.push(workaround("special-folder exception list", off, on));
        assert!(off && on);
    }

    // 4. Capacity equalization: fill the disk and watch ENOSPC timing.
    //    ext2 vs ext4 share a block size but differ in usable capacity
    //    (ext4's journal) — the paper's exact scenario.
    {
        let run = |equalize: bool| -> bool {
            let cfg = McfsConfig {
                equalize_free_space: equalize,
                ..McfsConfig::default()
            };
            let mut harness = pair(["ext2", "ext4"], cfg).expect("harness");
            // The paper's symptom: "calling write can succeed on one file
            // system and fail on another" near full. Grow one file until
            // both sides fill.
            if let ApplyOutcome::Violation(_) = harness.apply(&FsOp::CreateFile {
                path: "/fill".into(),
                mode: 0o644,
            }) {
                return true;
            }
            for i in 0..90u64 {
                let op = FsOp::WriteFile {
                    path: "/fill".into(),
                    offset: i * 4096,
                    size: 4096,
                    seed: 1,
                };
                if let ApplyOutcome::Violation(_) = harness.apply(&op) {
                    return true;
                }
            }
            false
        };
        let off = run(false);
        let on = run(true);
        rows.push(workaround("free-space equalization", off, !on));
        assert!(off && !on);
    }

    let mut out = BenchReport::new("false_positives", args.quick);
    out.table(
        "workarounds",
        "Section 3.4: false-positive workarounds",
        rows,
    );
    out.finish();
}

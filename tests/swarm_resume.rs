//! Kill-and-resume swarm exploration: the persistent wire format
//! ([`modelcheck::pickle`]) round-trips byte-for-byte, frontier prefixes
//! replay deterministically on fresh harnesses, and a run interrupted
//! mid-flight resumes from its snapshot re-exploring **zero**
//! previously-visited states while converging on the same final state set
//! as an uninterrupted run — over both the VeriFS pairing and the
//! on-disk ext2/ext4 pairing.

use blockdev::Clock;
use mcfs::{FsOp, FsOpCodec, Mcfs, McfsConfig, PoolConfig, RemountMode};
use modelcheck::{
    decode_snapshot, encode_snapshot, load_snapshot, run_swarm_persistent, ExploreConfig,
    FrontierEntry, OpCodec, RunSnapshot, SwarmConfig, SwarmPersist, SwarmReport, WorkerStrategy,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Harness builders (one per backend pairing)
// ---------------------------------------------------------------------------

/// Two registry backends on one clock, remounted around every op where
/// they have a device.
fn harness(names: [&str; 2]) -> Mcfs {
    let clock = Clock::new();
    let targets = names
        .iter()
        .map(|name| mcfs::backends::target(name, RemountMode::PerOp, clock.clone()).expect(name))
        .collect();
    Mcfs::with_clock(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
        clock,
    )
    .expect("harness")
}

fn verifs_harness(_worker: usize) -> Mcfs {
    harness(["fuse-verifs-v1", "fuse-verifs-v2"])
}

fn ext_harness(_worker: usize) -> Mcfs {
    harness(["ext2", "ext4"])
}

fn swarm_cfg(max_ops: u64) -> SwarmConfig {
    SwarmConfig {
        workers: 2,
        base: ExploreConfig {
            max_depth: 3,
            max_ops,
            seed: 11,
            ..ExploreConfig::default()
        },
        shared_visited: true,
        strategies: vec![WorkerStrategy::Dfs],
    }
}

fn snap_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mcfs-swarm-resume-{name}-{}.pickle",
        std::process::id()
    ))
}

/// Runs a persistent swarm over `factory`, snapshotting to `path`.
fn run_to_snapshot(
    factory: fn(usize) -> Mcfs,
    path: &std::path::Path,
    max_ops: u64,
    resume: Option<RunSnapshot<FsOp>>,
) -> SwarmReport<FsOp> {
    let report = run_swarm_persistent(
        &swarm_cfg(max_ops),
        factory,
        SwarmPersist {
            codec: &FsOpCodec,
            snapshot_path: Some(path.to_path_buf()),
            snapshot_every: 0,
            resume,
        },
    );
    assert!(
        report.persist_error.is_none(),
        "snapshot write failed: {:?}",
        report.persist_error
    );
    report
}

// ---------------------------------------------------------------------------
// Wire-format round-trips
// ---------------------------------------------------------------------------

/// Strategy: one op drawn from every [`FsOp`] variant, over a tiny
/// namespace — the codec must survive all seventeen tags.
fn arb_op() -> impl Strategy<Value = FsOp> {
    let path = prop_oneof![
        Just("/a".to_string()),
        Just("/d/weird päth".to_string()),
        Just("/b".to_string()),
    ];
    prop_oneof![
        (path.clone(), 0u16..0o1000).prop_map(|(path, mode)| FsOp::CreateFile { path, mode }),
        (path.clone(), 0u64..300, 0u64..300, any::<u8>()).prop_map(|(path, offset, size, seed)| {
            FsOp::WriteFile {
                path,
                offset,
                size,
                seed,
            }
        }),
        (path.clone(), 0u64..300).prop_map(|(path, size)| FsOp::Truncate { path, size }),
        (path.clone(), 0u16..0o1000).prop_map(|(path, mode)| FsOp::Mkdir { path, mode }),
        path.clone().prop_map(|path| FsOp::Rmdir { path }),
        path.clone().prop_map(|path| FsOp::Unlink { path }),
        (path.clone(), path.clone()).prop_map(|(src, dst)| FsOp::Rename { src, dst }),
        (path.clone(), path.clone()).prop_map(|(src, dst)| FsOp::Hardlink { src, dst }),
        (path.clone(), path.clone())
            .prop_map(|(target, linkpath)| FsOp::Symlink { target, linkpath }),
        (path.clone(), 0u64..300, 0u64..300).prop_map(|(path, offset, size)| FsOp::ReadFile {
            path,
            offset,
            size
        }),
        path.clone().prop_map(|path| FsOp::Stat { path }),
        path.clone().prop_map(|path| FsOp::Getdents { path }),
        (path.clone(), 0u16..0o1000).prop_map(|(path, mode)| FsOp::Chmod { path, mode }),
        (path.clone(), any::<u8>()).prop_map(|(path, seed)| FsOp::SetXattr {
            path,
            name: "user.k".into(),
            seed,
        }),
        path.clone().prop_map(|path| FsOp::RemoveXattr {
            path,
            name: "user.k".into(),
        }),
        path.prop_map(|path| FsOp::Access { path }),
        Just(FsOp::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any op sequence survives encode → decode unchanged, consuming the
    /// buffer exactly.
    #[test]
    fn codec_round_trips_any_trace(ops in proptest::collection::vec(arb_op(), 0..24)) {
        let mut buf = Vec::new();
        for op in &ops {
            FsOpCodec.encode_op(op, &mut buf);
        }
        let mut r = modelcheck::ByteReader::new(&buf);
        let mut back = Vec::new();
        for _ in 0..ops.len() {
            back.push(FsOpCodec.decode_op(&mut r).expect("decodes"));
        }
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(back, ops);
    }

    /// Any snapshot survives encode → decode → encode with byte-identical
    /// output (the format has exactly one encoding per value).
    #[test]
    fn snapshot_bytes_round_trip(
        mut visited in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..64), 0..32),
        prefixes in proptest::collection::vec(proptest::collection::vec(arb_op(), 0..6), 0..8),
    ) {
        // The shim's Arbitrary stops at u64; widen two halves to a u128.
        let mut visited: Vec<(u128, u32)> = visited
            .drain(..)
            .map(|(hi, lo, d)| (((hi as u128) << 64) | lo as u128, d))
            .collect();
        visited.sort_unstable();
        visited.dedup_by_key(|(h, _)| *h);
        let snap = RunSnapshot {
            visited,
            frontier: prefixes
                .into_iter()
                .map(|prefix| FrontierEntry { prefix, sleep: Vec::new() })
                .collect(),
            stats: Default::default(),
        };
        let bytes = encode_snapshot(&snap, &FsOpCodec);
        let back = decode_snapshot(&bytes, &FsOpCodec).expect("decodes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(encode_snapshot(&back, &FsOpCodec), bytes);
    }
}

// ---------------------------------------------------------------------------
// Frontier prefixes replay deterministically on fresh harnesses
// ---------------------------------------------------------------------------

/// An interrupted run's frontier entries, replayed via
/// [`Mcfs::reseed_from_prefix`] on two *independently built* harnesses,
/// land on the same abstract state — the property that makes op-prefix
/// frontiers a sound persistence format.
fn check_prefix_determinism(factory: fn(usize) -> Mcfs, name: &str) {
    let path = snap_path(name);
    let _ = run_to_snapshot(factory, &path, 60, None);
    let snap = load_snapshot(&path, &FsOpCodec).expect("snapshot loads");
    assert!(
        !snap.frontier.is_empty(),
        "{name}: interrupted run must leave pending frontier entries"
    );
    for entry in snap.frontier.iter().take(6) {
        let mut a = factory(0);
        let mut b = factory(1);
        a.reseed_from_prefix(&entry.prefix).expect("prefix replays");
        b.reseed_from_prefix(&entry.prefix).expect("prefix replays");
        use modelcheck::ModelSystem;
        assert_eq!(
            a.abstract_state(),
            b.abstract_state(),
            "{name}: prefix {:?} is not deterministic across fresh harnesses",
            entry.prefix
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn frontier_prefixes_replay_deterministically_verifs() {
    check_prefix_determinism(verifs_harness, "prefix-verifs");
}

#[test]
fn frontier_prefixes_replay_deterministically_ext() {
    check_prefix_determinism(ext_harness, "prefix-ext");
}

// ---------------------------------------------------------------------------
// Kill-and-resume equals one uninterrupted run
// ---------------------------------------------------------------------------

fn check_kill_and_resume(factory: fn(usize) -> Mcfs, name: &str) {
    // Control: one uninterrupted run to exhaustion.
    let control_path = snap_path(&format!("{name}-control"));
    let control = run_to_snapshot(factory, &control_path, u64::MAX, None);
    let control_snap = load_snapshot(&control_path, &FsOpCodec).expect("control snapshot");
    let full_states = control.total_states();
    assert!(
        control_snap.frontier.is_empty(),
        "{name}: exhausted control run must have an empty frontier"
    );

    // Interrupted: cut roughly mid-run, then resume from the file.
    let path = snap_path(name);
    let cut = (control.total_ops() / 2).max(10);
    let _ = run_to_snapshot(factory, &path, cut, None);
    let snap = load_snapshot(&path, &FsOpCodec).expect("snapshot loads");
    let baseline = snap.stats.states_new;
    let resumed = run_to_snapshot(factory, &path, u64::MAX, Some(snap));

    let resumed_new: u64 = resumed.workers.iter().map(|w| w.stats.states_new).sum();
    let distinct = resumed.total_states();
    // Any state the resumed fleet revisited would be double-counted as new.
    assert_eq!(
        (baseline + resumed_new).saturating_sub(distinct),
        0,
        "{name}: resume re-explored previously-visited states"
    );
    assert_eq!(
        distinct, full_states,
        "{name}: two-phase exploration lost or invented states"
    );

    // The final visited sets are identical, fingerprint for fingerprint.
    let final_snap = load_snapshot(&path, &FsOpCodec).expect("final snapshot");
    assert_eq!(
        final_snap.visited, control_snap.visited,
        "{name}: resumed visited set diverges from the uninterrupted run"
    );
    let _ = std::fs::remove_file(&control_path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn kill_and_resume_matches_uninterrupted_verifs() {
    check_kill_and_resume(verifs_harness, "resume-verifs");
}

#[test]
fn kill_and_resume_matches_uninterrupted_ext() {
    check_kill_and_resume(ext_harness, "resume-ext");
}

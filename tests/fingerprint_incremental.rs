//! Property tests for the incremental abstract-state fingerprint cache.
//!
//! The central property: for *any* randomized operation sequence — nested
//! directories, renames, hardlinks, checkpoint/restore round-trips — the
//! incrementally maintained hash (invalidate touched paths, reuse every
//! other cached leaf digest) equals a from-scratch recompute, on multiple
//! file-system backends. The from-scratch [`abstract_state`] never reads
//! the cache, so it is an independent oracle.

use proptest::prelude::*;

use mcfs::{
    abstract_state, execute, AbstractionConfig, CheckedTarget, CheckpointTarget, FsOp, ImageTarget,
};
use verifs::VeriFs;
use vfs::FileSystem;

/// Strategy: one operation over a bounded namespace with nesting up to
/// three components, so renames and rmdirs move whole subtrees.
fn arb_op() -> impl Strategy<Value = FsOp> {
    let path = prop_oneof![
        Just("/a".to_string()),
        Just("/b".to_string()),
        Just("/d".to_string()),
        Just("/d/c".to_string()),
        Just("/d/e".to_string()),
        Just("/d/c/x".to_string()),
    ];
    let size = prop_oneof![Just(0u64), Just(1), Just(65), Just(200)];
    let offset = prop_oneof![Just(0u64), Just(10), Just(100)];
    prop_oneof![
        path.clone().prop_map(|p| FsOp::CreateFile {
            path: p,
            mode: 0o644
        }),
        (path.clone(), offset.clone(), size.clone(), 0u8..4).prop_map(|(p, offset, size, seed)| {
            FsOp::WriteFile {
                path: p,
                offset,
                size,
                seed,
            }
        }),
        (path.clone(), size).prop_map(|(p, size)| FsOp::Truncate { path: p, size }),
        path.clone().prop_map(|p| FsOp::Mkdir {
            path: p,
            mode: 0o755
        }),
        path.clone().prop_map(|p| FsOp::Rmdir { path: p }),
        path.clone().prop_map(|p| FsOp::Unlink { path: p }),
        (path.clone(), path.clone()).prop_map(|(a, b)| FsOp::Rename { src: a, dst: b }),
        (path.clone(), path.clone()).prop_map(|(a, b)| FsOp::Hardlink { src: a, dst: b }),
        (path.clone(), path.clone()).prop_map(|(t, l)| FsOp::Symlink {
            target: t,
            linkpath: l
        }),
        (path.clone(), offset, Just(16u64)).prop_map(|(p, offset, size)| FsOp::ReadFile {
            path: p,
            offset,
            size,
        }),
        (path, 0u8..3).prop_map(|(p, i)| FsOp::Chmod {
            path: p,
            mode: [0o644, 0o400, 0o755][i as usize],
        }),
    ]
}

/// The two backends under test: VeriFS2 behind its native checkpoint API,
/// and ext4 on a RAM device behind VFS-level checkpointing. Both targets
/// carry a live fingerprint cache snapshotted alongside their state.
fn backends() -> Vec<Box<dyn CheckedTarget>> {
    let mut v2 = VeriFs::v2();
    v2.mount().unwrap();
    let mut e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
    e4.mount().unwrap();
    vec![
        Box::new(CheckpointTarget::new(v2)),
        Box::new(ImageTarget::vfs(e4)),
    ]
}

/// Asserts the cached hash equals an independent from-scratch recompute.
fn check(t: &mut dyn CheckedTarget, cfg: &AbstractionConfig, when: &str) {
    let cached = t.cached_abstract_state(cfg).unwrap();
    let full = abstract_state(t.fs_mut(), cfg).unwrap();
    assert_eq!(
        cached,
        full,
        "cached hash diverged from full recompute on {} ({when})",
        t.name()
    );
}

proptest! {
    // The acceptance bar for this property is >= 1000 randomized sequences.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Incremental == from-scratch after every operation of a random
    /// sequence, through a mid-sequence checkpoint, a restore to the
    /// initial state, and a final restore to the mid-sequence checkpoint.
    #[test]
    fn incremental_matches_full_recompute(
        ops in prop::collection::vec(arb_op(), 1..14),
        checkpoint_at in 0usize..14,
        restore_at in 0usize..14,
    ) {
        let cfg = AbstractionConfig::default();
        let exceptions = vec!["lost+found".to_string()];
        for mut t in backends() {
            let t = t.as_mut();
            // Warm the cache, then snapshot the initial state (key 1).
            check(t, &cfg, "initial state");
            t.save_state(1).unwrap();
            let mut mid_saved = false;
            for (i, op) in ops.iter().enumerate() {
                if i == checkpoint_at {
                    t.save_state(2).unwrap();
                    mid_saved = true;
                }
                if op.is_mutation() {
                    let touched = op.touched_paths();
                    t.invalidate_fingerprints(&touched);
                }
                execute(t.fs_mut(), op, &exceptions);
                check(t, &cfg, "after an op");
                if i == restore_at {
                    t.load_state(1).unwrap();
                    check(t, &cfg, "after restoring the initial state");
                }
            }
            if mid_saved {
                t.load_state(2).unwrap();
                check(t, &cfg, "after restoring the mid-sequence checkpoint");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deep-nesting stress: build a three-level tree, then rename/remove
    /// directories (moving whole subtrees) — the invalidation must drop
    /// every stale descendant digest.
    #[test]
    fn subtree_moves_never_leave_stale_digests(
        moves in prop::collection::vec((0u8..4, 0u8..4), 1..10),
    ) {
        let cfg = AbstractionConfig::default();
        let dirs = ["/d", "/d/c", "/e", "/e/f"];
        for mut t in backends() {
            let t = t.as_mut();
            for (i, d) in ["/d", "/d/c", "/d/c/x"].iter().enumerate() {
                let op = if i < 2 {
                    FsOp::Mkdir { path: d.to_string(), mode: 0o755 }
                } else {
                    FsOp::CreateFile { path: d.to_string(), mode: 0o644 }
                };
                t.invalidate_fingerprints(&op.touched_paths());
                execute(t.fs_mut(), &op, &[]);
            }
            check(t, &cfg, "after building the tree");
            for (src, dst) in &moves {
                let op = FsOp::Rename {
                    src: dirs[*src as usize].to_string(),
                    dst: dirs[*dst as usize].to_string(),
                };
                t.invalidate_fingerprints(&op.touched_paths());
                execute(t.fs_mut(), &op, &[]);
                check(t, &cfg, "after a subtree move");
            }
        }
    }

    /// Hardlink aliasing: writes through any name of a multi-link inode
    /// change every name's digest; the pre-op nlink check must keep the
    /// cached hash exact.
    #[test]
    fn hardlink_writes_stay_exact(
        writes in prop::collection::vec((0u8..2, 0u64..64, 1u64..64, 0u8..4), 1..8),
    ) {
        let cfg = AbstractionConfig::default();
        for mut t in backends() {
            let t = t.as_mut();
            for op in [
                FsOp::CreateFile { path: "/a".to_string(), mode: 0o644 },
                FsOp::Hardlink { src: "/a".to_string(), dst: "/b".to_string() },
            ] {
                t.invalidate_fingerprints(&op.touched_paths());
                execute(t.fs_mut(), &op, &[]);
            }
            check(t, &cfg, "after linking");
            for (name, offset, size, seed) in &writes {
                let op = FsOp::WriteFile {
                    path: ["/a", "/b"][*name as usize].to_string(),
                    offset: *offset,
                    size: *size,
                    seed: *seed,
                };
                t.invalidate_fingerprints(&op.touched_paths());
                execute(t.fs_mut(), &op, &[]);
                check(t, &cfg, "after writing through an alias");
            }
        }
    }
}

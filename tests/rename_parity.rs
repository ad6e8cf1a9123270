//! Rename errno parity across every backend.
//!
//! POSIX pins the interesting rename failures precisely — moving a
//! directory into its own descendant is `EINVAL`, renaming over a
//! non-empty directory is `ENOTEMPTY`, and mismatched kinds are
//! `EISDIR`/`ENOTDIR` — and MCFS's cross-checking only works if every
//! backend agrees on both the errno *and* the order the conditions are
//! checked in. These tests run the directed cases and randomized rename
//! workloads over every registry backend that renames — VeriFS2 (bare and
//! behind FUSE), ext2, ext4, XFS and JFFS2 — and require identical
//! outcomes everywhere.

use proptest::prelude::*;
use vfs::{Errno, FileMode, FileSystem};

/// Every registry backend that renames (VeriFS1's `rename` is `ENOSYS`),
/// fresh, mounted and empty.
fn backends() -> Vec<(&'static str, Box<dyn FileSystem>)> {
    mcfs::backends::all()
        .iter()
        .map(|b| (b.name, b.fresh().expect(b.name)))
        .filter(|(_, fs)| fs.capabilities().rename)
        .collect()
}

fn create(fs: &mut dyn FileSystem, p: &str) {
    let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn rename_dir_into_own_descendant_is_einval_everywhere() {
    for (name, mut fs) in backends() {
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        fs.mkdir("/d/sub", FileMode::DIR_DEFAULT).unwrap();
        assert_eq!(
            fs.rename("/d", "/d/sub"),
            Err(Errno::EINVAL),
            "{name}: dir onto own child"
        );
        assert_eq!(
            fs.rename("/d", "/d/sub/deeper"),
            Err(Errno::EINVAL),
            "{name}: dir into own grandchild"
        );
        // The descendant check must also win over the destination lookup:
        // a nonexistent path under the source is still EINVAL, not ENOENT.
        assert_eq!(
            fs.rename("/d", "/d/missing/x"),
            Err(Errno::EINVAL),
            "{name}: descendant check precedes destination resolution"
        );
        // Self-rename is a POSIX no-op, not EINVAL.
        assert_eq!(fs.rename("/d", "/d"), Ok(()), "{name}: self-rename");
    }
}

#[test]
fn rename_over_non_empty_dir_is_enotempty_everywhere() {
    for (name, mut fs) in backends() {
        fs.mkdir("/a", FileMode::DIR_DEFAULT).unwrap();
        fs.mkdir("/b", FileMode::DIR_DEFAULT).unwrap();
        create(fs.as_mut(), "/b/occupant");
        assert_eq!(
            fs.rename("/a", "/b"),
            Err(Errno::ENOTEMPTY),
            "{name}: dir onto non-empty dir"
        );
        // Emptying the target makes the same rename legal.
        fs.unlink("/b/occupant").unwrap();
        assert_eq!(fs.rename("/a", "/b"), Ok(()), "{name}: dir onto empty dir");
        assert!(fs.stat("/a").is_err(), "{name}: source gone after rename");
    }
}

#[test]
fn rename_kind_mismatches_agree_everywhere() {
    for (name, mut fs) in backends() {
        fs.mkdir("/dir", FileMode::DIR_DEFAULT).unwrap();
        create(fs.as_mut(), "/file");
        assert_eq!(
            fs.rename("/file", "/dir"),
            Err(Errno::EISDIR),
            "{name}: file onto dir"
        );
        assert_eq!(
            fs.rename("/dir", "/file"),
            Err(Errno::ENOTDIR),
            "{name}: dir onto file"
        );
        assert_eq!(
            fs.rename("/missing", "/file"),
            Err(Errno::ENOENT),
            "{name}: missing source"
        );
    }
}

/// One randomized rename-workload step.
#[derive(Debug, Clone)]
enum Step {
    Mkdir(&'static str),
    Create(&'static str),
    Unlink(&'static str),
    Rmdir(&'static str),
    Rename(&'static str, &'static str),
}

/// Paths chosen so renames can hit every interesting shape: nesting,
/// descendants, occupied and empty targets.
const PATHS: [&str; 6] = ["/a", "/b", "/a/c", "/a/c/d", "/b/e", "/a/f"];

fn step_strategy() -> impl Strategy<Value = Step> {
    let path = 0..PATHS.len();
    prop_oneof![
        path.clone().prop_map(|i| Step::Mkdir(PATHS[i])),
        path.clone().prop_map(|i| Step::Create(PATHS[i])),
        path.clone().prop_map(|i| Step::Unlink(PATHS[i])),
        path.clone().prop_map(|i| Step::Rmdir(PATHS[i])),
        (path.clone(), path).prop_map(|(i, j)| Step::Rename(PATHS[i], PATHS[j])),
    ]
}

fn apply(fs: &mut dyn FileSystem, step: &Step) -> Result<(), Errno> {
    match step {
        Step::Mkdir(p) => fs.mkdir(p, FileMode::DIR_DEFAULT),
        Step::Create(p) => fs
            .create(p, FileMode::REG_DEFAULT)
            .and_then(|fd| fs.close(fd)),
        Step::Unlink(p) => fs.unlink(p),
        Step::Rmdir(p) => fs.rmdir(p),
        Step::Rename(s, d) => fs.rename(s, d),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every backend returns the same outcome for every step of a random
    /// namespace workload — rename errnos included.
    #[test]
    fn random_rename_workloads_agree_across_backends(
        steps in prop::collection::vec(step_strategy(), 1..24),
    ) {
        let mut fleet = backends();
        for (i, step) in steps.iter().enumerate() {
            let (ref_name, ref_fs) = &mut fleet[0];
            let expected = apply(ref_fs.as_mut(), step);
            let ref_name = *ref_name;
            for (name, fs) in &mut fleet[1..] {
                let got = apply(fs.as_mut(), step);
                prop_assert_eq!(
                    got,
                    expected,
                    "step {} {:?}: {} disagrees with {}",
                    i,
                    step,
                    name,
                    ref_name
                );
            }
        }
    }
}

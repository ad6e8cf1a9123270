//! The `CheckedTarget` checkpoint contract, pinned once for every
//! state-tracking strategy: what `save_state` returns, save / mutate / load
//! round trips, drop semantics, budget eviction and pinning, fingerprint
//! caches that stay equal to a full recompute, and the exact virtual time
//! each image strategy charges per save and per load.

use blockdev::Clock;
use mcfs::{
    abstract_state, AbstractionConfig, CheckedTarget, CheckpointTarget, FsOp, ImageTarget, Mcfs,
    McfsConfig, RemountMode, RemountTarget,
};
use modelcheck::{ApplyOutcome, ModelSystem, StateId};
use verifs::VeriFs;
use vfs::{Errno, FileMode, FileSystem, OpenFlags};

/// Device size of the remount and VM rows.
const DEV: u64 = 256 * 1024;
/// Device size of the VFS row: large enough that its per-MiB charge
/// rounds a partial MiB up.
const VFS_DEV: u64 = 1 << 20;
/// Image size the VM row reports.
const VM_BYTES: usize = 256 * 1024;
/// Image size the CRIU row reports: not a whole number of KiB, so the
/// per-KiB charge must round up.
const CRIU_BYTES: usize = 10 * 1024 + 1;
/// The VFS row's logical state: the device plus an eighth for caches.
const VFS_BYTES: usize = (VFS_DEV + VFS_DEV / 8) as usize;

/// One state-tracking strategy under test.
struct Row {
    strategy: &'static str,
    build: fn(&Clock) -> Box<dyn CheckedTarget>,
    /// What `save_state` returns. `None` where the size comes from the
    /// file system's own snapshot accounting (only asserted non-zero).
    save_bytes: Option<usize>,
    /// Exact clock advance of one successful save and one successful load.
    /// `None` for strategies whose time comes from devices and mounts.
    charges: Option<(u64, u64)>,
}

fn verifs2() -> VeriFs {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    fs
}

fn ext2(size: u64) -> fs_ext::ExtFs<blockdev::RamDisk> {
    fs_ext::ext2_on_ram(size).unwrap()
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            strategy: "checkpoint-api",
            build: |_| Box::new(CheckpointTarget::new(verifs2())),
            save_bytes: None,
            charges: None,
        },
        Row {
            strategy: "remount-per-op",
            build: |c| {
                Box::new(RemountTarget::new(ext2(DEV), RemountMode::PerOp).with_clock(c.clone()))
            },
            save_bytes: Some(DEV as usize),
            charges: None,
        },
        Row {
            strategy: "remount-on-restore",
            build: |c| {
                Box::new(
                    RemountTarget::new(ext2(DEV), RemountMode::OnRestore).with_clock(c.clone()),
                )
            },
            save_bytes: Some(DEV as usize),
            charges: None,
        },
        Row {
            strategy: "vm-snapshot",
            build: |c| Box::new(ImageTarget::vm(ext2(DEV), VM_BYTES).with_clock(c.clone())),
            save_bytes: Some(VM_BYTES),
            charges: Some((30_000_000, 20_000_000)),
        },
        Row {
            strategy: "criu-process",
            build: |c| {
                Box::new(ImageTarget::criu(verifs2(), &[], CRIU_BYTES).with_clock(c.clone()))
            },
            save_bytes: Some(CRIU_BYTES),
            charges: Some((
                2_000 * (CRIU_BYTES as u64).div_ceil(1024),
                2_000 * (CRIU_BYTES as u64).div_ceil(1024),
            )),
        },
        Row {
            strategy: "vfs-checkpoint",
            build: |c| Box::new(ImageTarget::vfs(ext2(VFS_DEV)).with_clock(c.clone())),
            save_bytes: Some(VFS_BYTES),
            charges: Some((
                100_000 * (VFS_BYTES as u64).div_ceil(1 << 20),
                100_000 * (VFS_BYTES as u64).div_ceil(1 << 20),
            )),
        },
    ]
}

/// Writes `data` over `path` (creating it), bracketed the way the harness
/// brackets an operation.
fn write(t: &mut dyn CheckedTarget, path: &str, data: &[u8]) {
    t.pre_op().unwrap();
    t.invalidate_fingerprints(&[path]);
    let flags = OpenFlags::write_only().with_create().with_trunc();
    let fd = t.fs_mut().open(path, flags, FileMode::REG_DEFAULT).unwrap();
    t.fs_mut().write(fd, data).unwrap();
    t.fs_mut().close(fd).unwrap();
    t.post_op().unwrap();
}

/// The size of `path`, or `None` when it does not exist.
fn size(t: &mut dyn CheckedTarget, path: &str) -> Option<u64> {
    t.pre_op().unwrap();
    let r = t.fs_mut().stat(path).ok().map(|st| st.size);
    t.post_op().unwrap();
    r
}

/// Mounts as the harness does before an operation and checks the cached
/// fingerprint against a from-scratch recompute.
fn assert_fingerprints(t: &mut dyn CheckedTarget, row: &str, when: &str) {
    let cfg = AbstractionConfig::default();
    t.pre_op().unwrap();
    let cached = t.cached_abstract_state(&cfg).unwrap();
    let full = abstract_state(t.fs_mut(), &cfg).unwrap();
    assert_eq!(cached, full, "{row}: cached fingerprint stale {when}");
    t.post_op().unwrap();
}

/// Runs `f` on `t`, returning its result and the clock advance it caused.
fn timed<R>(
    clock: &Clock,
    t: &mut dyn CheckedTarget,
    f: impl FnOnce(&mut dyn CheckedTarget) -> R,
) -> (R, u64) {
    let start = clock.now_ns();
    let r = f(t);
    (r, clock.now_ns() - start)
}

fn round_trip(row: &Row) {
    let name = row.strategy;
    let clock = Clock::new();
    let mut t = (row.build)(&clock);
    assert_eq!(t.strategy(), name);
    // Save a state with a file in it and a warm fingerprint cache, so a
    // load that kept the live cache would hash the rewritten contents.
    write(t.as_mut(), "/f", b"");
    assert_fingerprints(t.as_mut(), name, "before any save");

    t.pre_op().unwrap();
    let (bytes, save_ns) = timed(&clock, t.as_mut(), |t| t.save_state(1).unwrap());
    t.post_op().unwrap();
    match row.save_bytes {
        Some(want) => assert_eq!(bytes, want, "{name}: save size"),
        None => assert!(bytes > 0, "{name}: save size"),
    }

    write(t.as_mut(), "/f", b"one");
    assert_fingerprints(t.as_mut(), name, "after a mutation");
    let (loaded, load_ns) = timed(&clock, t.as_mut(), |t| t.load_state(1));
    loaded.unwrap();
    assert_eq!(
        t.fs_mut().is_mounted(),
        name != "remount-per-op",
        "{name}: only per-op remounting defers the mount to pre_op"
    );
    if let Some((want_save, want_load)) = row.charges {
        assert_eq!(save_ns, want_save, "{name}: save charge");
        assert_eq!(load_ns, want_load, "{name}: load charge");
    }
    assert_fingerprints(t.as_mut(), name, "after the first load");
    assert_eq!(size(t.as_mut(), "/f"), Some(0), "{name}: load restores");

    // Load keeps the snapshot: a second load after another mutation works.
    write(t.as_mut(), "/f", b"two!");
    t.load_state(1).unwrap();
    assert_fingerprints(t.as_mut(), name, "after the second load");
    assert_eq!(size(t.as_mut(), "/f"), Some(0), "{name}: load repeats");

    t.drop_state(1).unwrap();
    assert_eq!(
        t.load_state(1),
        Err(Errno::ENOENT),
        "{name}: load after drop"
    );
    assert_eq!(t.drop_state(1), Err(Errno::ENOENT), "{name}: second drop");
}

fn budget(row: &Row) {
    let name = row.strategy;
    let clock = Clock::new();
    let mut t = (row.build)(&clock);
    t.pre_op().unwrap();
    let bytes = t.save_state(1).unwrap();
    t.post_op().unwrap();
    // Room for one and a half snapshots: the older unpinned key must go.
    t.set_checkpoint_budget(Some(bytes + bytes / 2));
    t.pin_state(1);
    write(t.as_mut(), "/f", b"a");
    t.pre_op().unwrap();
    t.save_state(2).unwrap();
    t.post_op().unwrap();
    write(t.as_mut(), "/f", b"bb");
    t.pre_op().unwrap();
    t.save_state(3).unwrap();
    t.post_op().unwrap();

    assert_eq!(t.load_state(2), Err(Errno::ESTALE), "{name}: evicted load");
    assert_eq!(t.drop_state(2), Ok(()), "{name}: evicted drop");
    assert_eq!(t.load_state(2), Err(Errno::ENOENT), "{name}: forgotten");

    t.load_state(1).unwrap();
    assert_fingerprints(t.as_mut(), name, "after loading the pinned key");
    assert_eq!(size(t.as_mut(), "/f"), None, "{name}: pinned key survives");
    t.load_state(3).unwrap();
    assert_fingerprints(t.as_mut(), name, "after loading the newest key");
    assert_eq!(size(t.as_mut(), "/f"), Some(2), "{name}: newest survives");
    let stats = t.checkpoint_stats().expect("every strategy keeps a store");
    assert_eq!(stats.evictions, 1, "{name}: {stats:?}");
}

/// Two targets of the row behind the harness: a checkpoint, one mkdir and
/// a restore bring back the checkpointed abstract state.
fn in_harness(row: &Row) {
    let clock = Clock::new();
    let targets = vec![(row.build)(&clock), (row.build)(&clock)];
    let mut m = Mcfs::with_clock(targets, McfsConfig::default(), clock).unwrap();
    let before = m.abstract_state();
    m.checkpoint(StateId(0)).unwrap();
    let op = FsOp::Mkdir {
        path: "/d0".into(),
        mode: 0o755,
    };
    assert!(matches!(m.apply(&op), ApplyOutcome::Ok), "{}", row.strategy);
    let after = m.abstract_state();
    assert_ne!(after, before, "{}: mkdir changes the state", row.strategy);
    m.restore(StateId(0)).unwrap();
    assert_eq!(m.abstract_state(), before, "{}: restore", row.strategy);
}

#[test]
fn every_strategy_honours_the_checkpoint_contract() {
    for row in rows() {
        round_trip(&row);
        budget(&row);
        in_harness(&row);
    }
}

/// A load that finds no image copies nothing: an evicted or unknown key
/// fails without advancing the clock.
#[test]
fn failed_image_loads_charge_nothing() {
    for row in rows().iter().filter(|r| r.charges.is_some()) {
        let name = row.strategy;
        let clock = Clock::new();
        let mut t = (row.build)(&clock);
        t.pre_op().unwrap();
        let bytes = t.save_state(1).unwrap();
        t.set_checkpoint_budget(Some(bytes));
        t.save_state(2).unwrap();
        let start = clock.now_ns();
        assert_eq!(t.load_state(1), Err(Errno::ESTALE), "{name}: evicted");
        assert_eq!(t.load_state(7), Err(Errno::ENOENT), "{name}: unknown");
        assert_eq!(clock.now_ns(), start, "{name}: a failed load charged");
    }
}

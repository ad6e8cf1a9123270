//! The headline capability (§6): MCFS detects each of the four reintroduced
//! historical VeriFS bugs by behavioural divergence, reports a reproducible
//! trace — and finds nothing when the bugs are fixed.
//!
//! The tail of the file pins two real backend bugs the fsck oracle
//! surfaced, as minimized replayable traces: a torn ext journal image
//! whose intact commit record used to replay garbage, and a jffs2 dirent
//! whose inode node never reached flash.

use blockdev::{BlockDevice, Clock, FaultKind, FaultPlan, RamDisk};
use fs_ext::{journal, layout, ExtConfig, ExtFs};
use fusesim::{FuseConfig, FuseMount};
use mcfs::backends::verifs_fuse;
use mcfs::{replay, CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig};
use modelcheck::{ExploreConfig, RandomWalk, StopReason};
use verifs::{BugConfig, VeriFs};
use vfs::{DeviceBacked, Errno, FileMode, FileSystem, FileType, OpenFlags};

fn fuse_target(version: u8, bugs: BugConfig, clock: Clock) -> Box<dyn CheckedTarget> {
    Box::new(CheckpointTarget::new(verifs_fuse(version, bugs, clock)))
}

fn harness(buggy_version: u8, bugs: BugConfig) -> Mcfs {
    let clock = Clock::new();
    let reference = fuse_target(2, BugConfig::none(), clock.clone());
    let buggy = fuse_target(buggy_version, bugs, clock.clone());
    // VeriFS1-era checking used a small pool (v1 supports few operations);
    // the VeriFS2 bugs were found against a richer one (§6).
    let pool = if buggy_version == 1 {
        PoolConfig::small()
    } else {
        PoolConfig::medium()
    };
    Mcfs::with_clock(
        vec![reference, buggy],
        McfsConfig {
            pool,
            ..McfsConfig::default()
        },
        clock,
    )
    .expect("harness")
}

fn detect(buggy_version: u8, bugs: BugConfig, max_ops: u64) -> Option<(u64, Vec<mcfs::FsOp>)> {
    for seed in 0..6u64 {
        let mut m = harness(buggy_version, bugs);
        let report = RandomWalk::new(ExploreConfig {
            max_depth: 12,
            max_ops,
            seed,
            ..ExploreConfig::default()
        })
        .run(&mut m);
        if report.stop == StopReason::Violation {
            let v = &report.violations[0];
            return Some((v.ops_executed, v.trace.clone()));
        }
    }
    None
}

#[test]
fn bug1_truncate_no_zero_is_detected_and_replayable() {
    let bugs = BugConfig {
        v1_truncate_no_zero: true,
        ..BugConfig::default()
    };
    let (ops, trace) = detect(1, bugs, 150_000).expect("bug 1 must be found");
    assert!(ops > 0);
    // The paper highlights precise reproduction: the trace replays.
    let mut fresh = harness(1, bugs);
    assert!(replay(&mut fresh, &trace).is_some(), "trace must reproduce");
    // And the fixed file system passes the identical trace.
    let mut fixed = harness(1, BugConfig::none());
    assert!(
        replay(&mut fixed, &trace).is_none(),
        "fix must pass the trace"
    );
}

#[test]
fn bug2_missing_invalidation_is_detected() {
    let bugs = BugConfig {
        v1_skip_invalidation: true,
        ..BugConfig::default()
    };
    let (_ops, trace) = detect(1, bugs, 60_000).expect("bug 2 must be found");
    let mut fixed = harness(1, BugConfig::none());
    assert!(replay(&mut fixed, &trace).is_none());
}

#[test]
fn bug3_hole_not_zeroed_is_detected() {
    let bugs = BugConfig {
        v2_hole_no_zero: true,
        ..BugConfig::default()
    };
    let (_ops, trace) = detect(2, bugs, 200_000).expect("bug 3 must be found");
    let mut fixed = harness(2, BugConfig::none());
    assert!(replay(&mut fixed, &trace).is_none());
}

#[test]
fn bug4_size_only_on_capacity_growth_is_detected() {
    let bugs = BugConfig {
        v2_size_only_on_capacity_growth: true,
        ..BugConfig::default()
    };
    let (_ops, trace) = detect(2, bugs, 200_000).expect("bug 4 must be found");
    let mut fixed = harness(2, BugConfig::none());
    assert!(replay(&mut fixed, &trace).is_none());
}

fn write_file(fs: &mut dyn FileSystem, p: &str, data: &[u8]) {
    let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
    fs.write(fd, data).unwrap();
    fs.close(fd).unwrap();
}

fn read_file(fs: &mut dyn FileSystem, p: &str) -> Vec<u8> {
    let fd = fs
        .open(p, OpenFlags::read_only(), FileMode::REG_DEFAULT)
        .unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        let n = fs.read(fd, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    fs.close(fd).unwrap();
    out
}

#[test]
fn ext_torn_journal_image_with_intact_commit_is_discarded_whole() {
    // Backend bug found by the fsck oracle. Minimized trace:
    //   CreateFile(/keep) · Sync · Crash · Mount
    // where the crash leaves a journaled transaction whose *image* block
    // is torn but whose (separately written, intact) commit record
    // validates. Replay used to apply the torn garbage to the home
    // location — here the inode table, destroying /keep. The commit
    // checksum must reject the transaction whole.
    let disk = RamDisk::new(1024, 512 * 1024).unwrap();
    let mut fs = ExtFs::format(disk, ExtConfig::ext4()).unwrap();
    fs.mount().unwrap();
    write_file(&mut fs, "/keep", b"must survive replay");
    fs.unmount().unwrap();

    // Forge the crash state on the raw device: a committed transaction
    // targeting the inode table, its journaled image torn at byte 16.
    let bs = 1024usize;
    let mut b0 = vec![0u8; bs];
    fs.device_mut().read_block(0, &mut b0).unwrap();
    let sb = layout::SuperBlock::decode(&b0).unwrap();
    let target = sb.inode_table_start();
    let mut home = vec![0u8; bs];
    fs.device_mut()
        .read_block(target as u64, &mut home)
        .unwrap();
    journal::write_txn(fs.device_mut(), &sb, 9, &[(target, vec![0xEE; bs])]).unwrap();
    let jimg = (sb.journal_start() + 1) as u64;
    let mut torn = vec![0u8; bs];
    fs.device_mut().read_block(jimg, &mut torn).unwrap();
    for b in torn.iter_mut().skip(16) {
        *b = 0xAA;
    }
    fs.device_mut().write_block(jimg, &torn).unwrap();

    // Replay must discard the torn transaction whole: zero blocks
    // applied, the home block untouched.
    assert_eq!(
        journal::replay(fs.device_mut(), &sb).unwrap(),
        0,
        "replay applied a torn transaction"
    );
    let mut after = vec![0u8; bs];
    fs.device_mut()
        .read_block(target as u64, &mut after)
        .unwrap();
    assert_eq!(after, home, "replay half-applied a torn transaction");
    // The volume mounts, the file survives, and fsck finds nothing to
    // mop up.
    fs.mount().expect("mount after the discarded transaction");
    assert_eq!(read_file(&mut fs, "/keep"), b"must survive replay");
    fs.unmount().unwrap();
    assert!(fs.fsck().expect("fsck").is_clean());
}

#[test]
fn jffs2_dirent_whose_inode_never_hit_flash_is_dropped() {
    // Backend bug found by the fsck oracle. Minimized trace:
    //   CreateFile(/real) · CreateFile(/ghost)[crash at program N] · Mount
    // A crash between a create's two log appends can leave a dirent whose
    // target inode node never reached flash; the scanner used to surface
    // it as a directory entry whose stat failed with EIO. Swept over
    // every program of the create, the half-written file must be
    // all-or-nothing: every scanned dirent resolves.
    let mut n = 0u64;
    let mut interrupted = 0u32;
    loop {
        let mut fs = fs_jffs2::jffs2_on_mtdram(16 * 1024, 8).unwrap();
        fs.mount().unwrap();
        write_file(&mut fs, "/real", b"survives");
        fs.device_mut()
            .mtd_mut()
            .set_fault_plan(Some(FaultPlan::eio(FaultKind::Write, n, 1)));
        let _ = fs
            .create("/ghost", FileMode::REG_DEFAULT)
            .and_then(|fd| fs.close(fd));
        let fired = fs.device_mut().mtd().faults_injected() > 0;
        fs.device_mut().mtd_mut().set_fault_plan(None);
        fs.crash_reboot().expect("rescan after mid-create crash");
        match fs.stat("/ghost") {
            Ok(st) => assert_eq!(st.ftype, FileType::Regular, "program {n}"),
            Err(e) => assert_eq!(e, Errno::ENOENT, "program {n}"),
        }
        for ent in fs.getdents("/").unwrap() {
            fs.stat(&format!("/{}", ent.name))
                .expect("every scanned dirent must resolve");
        }
        assert_eq!(read_file(&mut fs, "/real"), b"survives");
        if !fired {
            break;
        }
        interrupted += 1;
        n += 1;
        assert!(n < 64, "fault window never drained");
    }
    assert!(interrupted > 0, "no create program ever hit the window");
}

#[test]
fn jffs2_crc_valid_fragment_past_its_file_size_is_quarantined() {
    // Backend bug found by forging flash nodes (a valid CRC is one
    // `node_crc` call away). Minimized trace:
    //   CreateFile(/real) · [inode node for /real on flash: 8-byte file,
    //   fragment at offset 100] · Mount
    // The node decoded, then the mount panicked slicing the file's content
    // at an offset past its end. An inconsistent node must be quarantined
    // like any corrupt one: the mount keeps everything before it.
    use fs_jffs2::log::{Node, FT_REG};
    let mut fs = fs_jffs2::jffs2_on_mtdram(16 * 1024, 8).unwrap();
    fs.mount().unwrap();
    write_file(&mut fs, "/real", b"survives");
    let ino = fs.stat("/real").unwrap().ino.0 as u32;
    fs.unmount().unwrap();
    let forged = Node::Inode {
        ino,
        version: 1_000,
        ftype: FT_REG,
        mode: 0o644,
        uid: 0,
        gid: 0,
        atime: 0,
        mtime: 0,
        ctime: 0,
        isize: 8,
        offset: 100,
        rewrite: false,
        data: Some(b"boom".to_vec()),
    };
    let mtd = fs.device_mut().mtd_mut();
    let mut block = vec![0u8; mtd.erase_block_size()];
    mtd.read(0, &mut block).unwrap();
    let mut end = 0;
    while let Ok(Some((_, len))) = Node::decode(&block[end..]) {
        end += len;
    }
    mtd.program(end as u64, &forged.encode()).unwrap();
    fs.mount()
        .expect("an inconsistent node must not break the mount");
    assert_eq!(read_file(&mut fs, "/real"), b"survives");
    let report = fs.fsck().unwrap();
    assert!(report.repairs_made >= 1, "{:?}", report.fixes);
    assert!(fs.fsck().unwrap().is_clean());
    assert_eq!(read_file(&mut fs, "/real"), b"survives");
}

#[test]
fn clean_filesystems_run_without_detection() {
    // The control: no bugs, no violations (paper: 159M ops, zero errors).
    let mut m = harness(1, BugConfig::none());
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 12,
        max_ops: 5_000,
        seed: 99,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert_eq!(
        report.stop,
        StopReason::OpBudget,
        "{}",
        report
            .violations
            .first()
            .map(|v| v.to_string())
            .unwrap_or_default()
    );
}

/// Backend bug found by the interleaving checker's lockstep oracle.
/// Minimized threaded trace (setup `CreateFile(/a)`, two threads):
///
/// ```text
///   t1: Stat(/a) · t0: Rename(/a → /b) · t1: Stat(/a)
/// ```
///
/// The FUSE kernel model keeps one cache view per logical thread. The
/// buggy mode (`broadcast_local_invalidation: false`) applies the
/// dentry/attr drops a rename performs only to the *acting* thread's
/// view, so thread 1's second stat serves the renamed-away dentry from
/// its own view — `Ok` where the bare reference file system says
/// `ENOENT`. All three interleavings of the programs are enumerated:
/// exactly the one placing the rename between the stats violates, and
/// with the fix (broadcast on, the default) none do.
#[test]
fn fuse_stale_view_under_interleaved_rename_stat_is_detected() {
    use mcfs::{FsOp, SchedStep, ThreadedMcfs, ThreadedMcfsConfig};

    fn threaded(broadcast: bool) -> ThreadedMcfs {
        let cfg = FuseConfig {
            entry_ttl_ns: u64::MAX,
            attr_ttl_ns: u64::MAX,
            message_cost_ns: 0,
            broadcast_local_invalidation: broadcast,
        };
        let m = FuseMount::with_config(VeriFs::v2(), cfg, None);
        let rename = FsOp::Rename {
            src: "/a".into(),
            dst: "/b".into(),
        };
        let stat = FsOp::Stat { path: "/a".into() };
        ThreadedMcfs::with_setup(
            vec![
                Box::new(CheckpointTarget::new(m)),
                Box::new(CheckpointTarget::new(VeriFs::v2())),
            ],
            vec![vec![rename], vec![stat.clone(), stat]],
            vec![FsOp::CreateFile {
                path: "/a".into(),
                mode: 0o644,
            }],
            ThreadedMcfsConfig::default(),
        )
        .expect("threaded harness")
    }

    let t0 = || SchedStep {
        tid: 0,
        op: FsOp::Rename {
            src: "/a".into(),
            dst: "/b".into(),
        },
    };
    let t1 = || SchedStep {
        tid: 1,
        op: FsOp::Stat { path: "/a".into() },
    };
    // The rename can land before, between, or after the two stats.
    let interleavings = [
        vec![t0(), t1(), t1()],
        vec![t1(), t0(), t1()],
        vec![t1(), t1(), t0()],
    ];
    for (broadcast, expect_violation) in [(false, true), (true, false)] {
        for (i, sched) in interleavings.iter().enumerate() {
            let stale_window = i == 1; // rename between the stats
            let hit = threaded(broadcast).replay_schedule(sched);
            if expect_violation && stale_window {
                let (at, msg) = hit.expect("stale view must be detected");
                assert_eq!(at, 2, "violates at t1's second stat");
                assert!(msg.contains("outcome"), "lockstep discrepancy: {msg}");
                // The minimized trace replays byte-identically on a
                // fresh harness — the oracle is deterministic.
                assert_eq!(threaded(broadcast).replay_schedule(sched), Some((at, msg)));
            } else {
                assert_eq!(
                    hit, None,
                    "interleaving {i} must be clean (broadcast={broadcast})"
                );
            }
        }
    }
}

/// Backend bug found by the interleaved crash oracle. The old
/// `journal::commit` split transactions larger than one header into
/// *independently applied* journal rounds, so a power cut between
/// rounds left the first round checkpointed and the rest lost — a torn
/// sync. The fix journals the whole transaction as a segment chain
/// behind a single commit record before touching any home block.
///
/// Minimized device trace: a 20-block transaction on a 64-byte-block
/// journal (13 header slots, so two segments), with the device failing
/// at the exact write boundary that used to separate round 1 from
/// round 2. After recovery every home block must be all-old or
/// all-new. (`fs-ext`'s own suite scans every boundary; this pins the
/// historically torn one.)
#[test]
fn ext_commit_interrupted_between_old_rounds_is_all_or_nothing() {
    use blockdev::FaultyDevice;

    let ram = RamDisk::new(64, 128 * 64).unwrap();
    let sb = layout::SuperBlock {
        magic: layout::EXT_MAGIC,
        block_size: 64,
        blocks_count: 128,
        inodes_count: 16,
        free_blocks: 10,
        free_inodes: 10,
        journal_blocks: 40,
        flags: 0,
        mount_count: 0,
    };
    let blocks: Vec<(u32, Vec<u8>)> = (0..20)
        .map(|i| (sb.data_start() + i, vec![i as u8 + 1; 64]))
        .collect();
    // Old layout: round 1 = header + 13 images + commit (15 writes),
    // checkpoint (13), clear (1) = 29 writes; the fault fires on write
    // 29, the first write of round 2 — tearing 13 of 20 blocks.
    let mut dev = FaultyDevice::new(ram, FaultPlan::eio(FaultKind::Write, 29, u64::MAX));
    let _ = journal::commit(&mut dev, &sb, 7, &blocks);
    dev.set_plan(FaultPlan::none());
    journal::replay(&mut dev, &sb).unwrap();

    let mut updated = 0usize;
    for (home, image) in &blocks {
        let mut now = vec![0u8; 64];
        dev.read_block(*home as u64, &mut now).unwrap();
        let old = vec![0u8; 64];
        assert!(
            now == *image || now == old,
            "home {home} is neither old nor new"
        );
        if now == *image {
            updated += 1;
        }
    }
    assert!(
        updated == 0 || updated == blocks.len(),
        "sync torn: {updated} of {} home blocks updated",
        blocks.len()
    );
}

/// One step of a scripted directory-metadata sequence.
enum DirStep {
    Mkdir(&'static str),
    Rmdir(&'static str),
    Rename(&'static str, &'static str),
    Stat(&'static str),
}

/// Runs `script` on bare VeriFS2 and on VeriFS2 behind FUSE (wired to its
/// invalidation channel, as the checker mounts it) and asserts every stat
/// returns the same attributes on both: a stat through the kernel's
/// attribute cache must not serve a parent's pre-operation nlink or mtime.
fn assert_fuse_matches_bare(script: &[DirStep]) {
    fn run(fs: &mut dyn FileSystem, script: &[DirStep]) -> Vec<vfs::FileStat> {
        fs.mount().unwrap();
        let mut stats = Vec::new();
        for step in script {
            match *step {
                DirStep::Mkdir(p) => fs.mkdir(p, FileMode::DIR_DEFAULT).unwrap(),
                DirStep::Rmdir(p) => fs.rmdir(p).unwrap(),
                DirStep::Rename(a, b) => fs.rename(a, b).unwrap(),
                DirStep::Stat(p) => stats.push(fs.stat(p).unwrap()),
            }
        }
        stats
    }
    let mut fuse = FuseMount::new(VeriFs::v2());
    assert_eq!(run(&mut fuse, script), run(&mut VeriFs::v2(), script));
}

#[test]
fn fuse_mkdir_drops_the_parents_cached_attrs() {
    use DirStep::*;
    assert_fuse_matches_bare(&[Mkdir("/d0"), Mkdir("/d0/d1"), Stat("/d0")]);
}

#[test]
fn fuse_rmdir_drops_the_parents_cached_attrs() {
    use DirStep::*;
    assert_fuse_matches_bare(&[
        Mkdir("/d0"),
        Mkdir("/d0/d1"),
        Stat("/d0"),
        Rmdir("/d0/d1"),
        Stat("/d0"),
    ]);
}

#[test]
fn fuse_rename_drops_both_parents_cached_attrs() {
    use DirStep::*;
    assert_fuse_matches_bare(&[
        Mkdir("/a"),
        Mkdir("/b"),
        Mkdir("/a/c"),
        Stat("/a"),
        Stat("/b"),
        Rename("/a/c", "/b/c"),
        Stat("/a"),
        Stat("/b"),
    ]);
}

/// The walk-level counterpart of the three scripted checks above: VeriFS2
/// behind the FUSE kernel model against bare VeriFS2 over the medium pool,
/// whose `/d0/d1` nests a directory. Both sides run the same file system, so
/// only a kernel-cache bug can make them disagree. Every restore clears the
/// kernel caches, which hid the parent-attr bug from a depth-3 DFS and a
/// 2,000-op walk; a walk as deep as 40 ops restores only at its restarts, so
/// `mkdir /d0`, `mkdir /d0/d1` and `stat /d0` can share one cache lifetime.
/// Without the parent-attr drops these seeds diverge on `stat(/d0)` after
/// 8,074 and 513 ops.
#[test]
fn fuse_verifs2_agrees_with_bare_verifs2_over_deep_walks() {
    for seed in [0, 5] {
        let clock = Clock::new();
        let fuse = fuse_target(2, BugConfig::none(), clock.clone());
        let bare: Box<dyn CheckedTarget> = Box::new(CheckpointTarget::new(VeriFs::v2()));
        let mut m = Mcfs::with_clock(
            vec![fuse, bare],
            McfsConfig {
                pool: PoolConfig::medium(),
                ..McfsConfig::default()
            },
            clock,
        )
        .expect("harness");
        let report = RandomWalk::new(ExploreConfig {
            max_depth: 40,
            max_ops: 10_000,
            seed,
            ..ExploreConfig::default()
        })
        .run(&mut m);
        assert_eq!(
            report.stop,
            StopReason::OpBudget,
            "seed {seed}: {}",
            report
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default()
        );
    }
}

//! Invariants of the paper's checkpoint/restore API (§5) across the stack:
//! bare VeriFS, VeriFS behind FUSE, and the strategy layer the checker uses.

use blockdev::Clock;
use mcfs::{
    abstract_state, AbstractionConfig, CheckedTarget, CheckpointTarget, RemountMode, RemountTarget,
};
use verifs::VeriFs;
use vfs::{Errno, FileMode, FileSystem, FsCheckpoint, OpenFlags};

fn mutate(fs: &mut dyn FileSystem, tag: u8) {
    let path = format!("/mut{tag}");
    let fd = fs
        .open(
            &path,
            OpenFlags::write_only().with_create(),
            FileMode::REG_DEFAULT,
        )
        .unwrap();
    fs.write(fd, &[tag; 64]).unwrap();
    fs.close(fd).unwrap();
}

fn hash(fs: &mut dyn FileSystem) -> u128 {
    abstract_state(fs, &AbstractionConfig::default())
        .unwrap()
        .as_u128()
}

#[test]
fn restore_recovers_exact_abstract_state() {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    mutate(&mut fs, 1);
    let h1 = hash(&mut fs);
    fs.checkpoint(10).unwrap();
    mutate(&mut fs, 2);
    let h2 = hash(&mut fs);
    assert_ne!(h1, h2);
    fs.restore_keep(10).unwrap();
    assert_eq!(hash(&mut fs), h1, "restore must be exact");
    // Forward again, restore again: idempotent.
    mutate(&mut fs, 3);
    fs.restore_keep(10).unwrap();
    assert_eq!(hash(&mut fs), h1);
}

#[test]
fn nested_checkpoints_restore_in_any_order() {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    let mut hashes = Vec::new();
    for i in 0..5u8 {
        mutate(&mut fs, i);
        fs.checkpoint(i as u64).unwrap();
        hashes.push(hash(&mut fs));
    }
    // Jump around arbitrarily.
    for &i in &[2usize, 0, 4, 1, 3, 0, 4] {
        fs.restore_keep(i as u64).unwrap();
        assert_eq!(hash(&mut fs), hashes[i], "snapshot {i}");
    }
}

#[test]
fn paper_semantics_restore_discards() {
    let mut fs = VeriFs::v1();
    fs.mount().unwrap();
    fs.checkpoint(1).unwrap();
    assert_eq!(fs.snapshot_count(), 1);
    fs.restore(1).unwrap();
    assert_eq!(fs.snapshot_count(), 0);
    assert_eq!(fs.restore(1).unwrap_err(), Errno::ENOENT);
}

#[test]
fn snapshot_pool_accounting_is_consistent() {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    assert_eq!(fs.snapshot_bytes(), 0);
    mutate(&mut fs, 1);
    fs.checkpoint(1).unwrap();
    let one = fs.snapshot_bytes();
    assert!(one > 0);
    mutate(&mut fs, 2);
    fs.checkpoint(2).unwrap();
    assert!(fs.snapshot_bytes() > one);
    // Replacing a key must not leak accounting.
    fs.checkpoint(1).unwrap();
    let replaced = fs.snapshot_bytes();
    fs.discard(1).unwrap();
    fs.discard(2).unwrap();
    assert_eq!(fs.snapshot_bytes(), 0, "pool bytes must return to zero");
    assert!(replaced > 0);
}

#[test]
fn checkpoint_travels_the_fuse_channel() {
    let mut m = fusesim::FuseMount::new(VeriFs::v2());
    m.mount().unwrap();
    mutate(&mut m, 9);
    let before = m.daemon().traffic().count(fusesim::FuseOpKind::Ioctl);
    m.checkpoint(7).unwrap();
    m.restore_keep(7).unwrap();
    m.discard(7).unwrap();
    assert_eq!(
        m.daemon().traffic().count(fusesim::FuseOpKind::Ioctl),
        before + 3,
        "checkpoint/restore/discard are ioctls over /dev/fuse"
    );
}

#[test]
fn restore_through_fuse_invalidates_kernel_caches() {
    let mut m = fusesim::FuseMount::new(VeriFs::v2());
    m.mount().unwrap();
    m.checkpoint(1).unwrap();
    m.mkdir("/later", FileMode::DIR_DEFAULT).unwrap();
    assert!(m.dentry_cache_len() > 0);
    let invalidations_before = m.invalidation_count();
    m.restore_keep(1).unwrap();
    assert!(
        m.invalidation_count() > invalidations_before,
        "restore must invalidate kernel caches"
    );
    assert_eq!(m.stat("/later").unwrap_err(), Errno::ENOENT);
}

#[test]
fn strategy_layer_roundtrips_for_both_kinds() {
    // Checkpoint-API strategy (VeriFS).
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    let mut api = CheckpointTarget::new(fs);
    let bytes_api = api.save_state(1).unwrap();
    assert!(bytes_api > 0);
    mutate(api.fs_mut(), 5);
    api.load_state(1).unwrap();
    assert_eq!(api.fs_mut().stat("/mut5").unwrap_err(), Errno::ENOENT);

    // Device-snapshot strategy (ext4).
    let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
    let mut dev = RemountTarget::new(e4, RemountMode::PerOp).with_clock(Clock::new());
    dev.pre_op().unwrap();
    let bytes_dev = dev.save_state(1).unwrap();
    assert_eq!(
        bytes_dev,
        256 * 1024,
        "device strategy stores the full image"
    );
    mutate(dev.fs_mut(), 6);
    dev.post_op().unwrap();
    dev.load_state(1).unwrap();
    dev.pre_op().unwrap();
    assert_eq!(dev.fs_mut().stat("/mut6").unwrap_err(), Errno::ENOENT);
}

#[test]
fn unknown_keys_error_uniformly() {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    assert_eq!(fs.restore_keep(99).unwrap_err(), Errno::ENOENT);
    assert_eq!(fs.discard(99).unwrap_err(), Errno::ENOENT);
    let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
    let mut dev = RemountTarget::new(e4, RemountMode::PerOp);
    assert_eq!(dev.load_state(99).unwrap_err(), Errno::ENOENT);
    assert_eq!(dev.drop_state(99).unwrap_err(), Errno::ENOENT);
}

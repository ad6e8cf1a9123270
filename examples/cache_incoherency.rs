//! The paper's central challenge (§3.2) made visible: restoring a device
//! image underneath a mounted file system leaves its in-memory caches
//! describing a discarded world — and the only reliable fixes are
//! remounting (kernel file systems) or in-file-system invalidation
//! (VeriFS's checkpoint/restore API + FUSE notify calls).
//!
//! Run with: `cargo run --release --example cache_incoherency`

use fusesim::FuseMount;
use mcfs::backends::EXT_DEVICE_BYTES;
use mcfs::EQUALIZE_DUMMY;
use verifs::{BugConfig, VeriFs};
use vfs::{DeviceBacked, Errno, FileMode, FileSystem, FsCheckpoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _ = EQUALIZE_DUMMY; // silence doc-link helper in older toolchains

    println!("--- part 1: a kernel file system with stale caches ---");
    let mut ext2 = fs_ext::ext2_on_ram(EXT_DEVICE_BYTES)?;
    ext2.mount()?;
    ext2.sync()?;
    let snapshot = ext2.snapshot_device()?; // state S0: empty root

    let fd = ext2.create("/created-later", FileMode::REG_DEFAULT)?;
    ext2.close(fd)?;
    ext2.sync()?;
    println!("created /created-later and synced");

    // The model checker rolls the device back to S0 without telling the
    // mounted file system — exactly what MCFS's first prototype did.
    ext2.restore_device(&snapshot)?;
    let stale = ext2.stat("/created-later").is_ok();
    println!("after external device restore, stat(/created-later) succeeds: {stale}");
    assert!(stale, "stale caches serve the discarded future");

    // The paper's workaround: unmount/remount reloads everything from disk.
    // (A regular unmount would write the stale caches back; drop instead.)
    let mut ext2 = fs_ext::ext2_on_ram(EXT_DEVICE_BYTES)?; // fresh instance…
    ext2.mount()?;
    ext2.sync()?;
    let snapshot = ext2.snapshot_device()?;
    let fd = ext2.create("/created-later", FileMode::REG_DEFAULT)?;
    ext2.close(fd)?;
    ext2.unmount()?; // cleanly persist
    ext2.restore_device(&snapshot)?; // rollback while unmounted
    ext2.mount()?; // remount loads the restored truth
    assert_eq!(ext2.stat("/created-later").unwrap_err(), Errno::ENOENT);
    println!("with the remount workaround, the file is (correctly) gone\n");

    println!("--- part 2: VeriFS behind FUSE, with and without invalidation ---");
    let run = |bugs: BugConfig| -> Result<bool, Errno> {
        // The mount hands VeriFS its invalidation connection; only the bug
        // flag makes restores skip it.
        let mut mount = FuseMount::new(VeriFs::v1_with_bugs(bugs));
        mount.mount()?;
        mount.checkpoint(1)?; // ioctl_CHECKPOINT
        mount.mkdir("/testdir", FileMode::DIR_DEFAULT)?;
        mount.restore(1)?; // ioctl_RESTORE: rolls back before the mkdir
                           // If the kernel dentry cache was not invalidated, this mkdir fails
                           // with EEXIST even though the directory does not exist — the exact
                           // symptom of the paper's bug 2.
        Ok(mount.mkdir("/testdir", FileMode::DIR_DEFAULT) == Err(Errno::EEXIST))
    };
    let buggy = run(BugConfig::v1_invalidation())?;
    println!("without fuse_lowlevel_notify_inval_*: mkdir wrongly reports EEXIST = {buggy}");
    assert!(buggy);
    let fixed = run(BugConfig::none())?;
    println!("with cache invalidation wired up:     mkdir wrongly reports EEXIST = {fixed}");
    assert!(!fixed);
    println!("\ncache incoherency demonstrated and both fixes verified.");
    Ok(())
}

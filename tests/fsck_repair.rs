//! Model-checked repair: fsck idempotence and crash-safe convergence.
//!
//! Two properties from the rfsck line of work, checked end-to-end on the
//! real on-disk layouts:
//!
//! - **Idempotence** (fsck ∘ fsck ≡ fsck): a second repair run on any
//!   volume the first run accepted reports clean and leaves the
//!   POSIX-observable state untouched.
//! - **Crash-safe convergence**: interrupting repair at its Nth device
//!   write — EIO abort, torn-but-acked write, or power cut dropping a
//!   volatile cache — and re-running fsck reaches exactly the state a
//!   fault-free repair reaches, for *every* N. Since the devices persist
//!   writes synchronously (no cache), an EIO abort after N writes leaves
//!   the same image as a power cut after N writes: the EIO sweep doubles
//!   as the power-cut-mid-repair sweep.
//!
//! Fault plans are pinned to the repair phase with
//! [`FaultPlan::during_repair`], so mkfs, the workload, and image
//! restores never consume the fault window — `skip = N` counts repair
//! writes only. Corruption is limited to *derivable* metadata (bitmaps,
//! free counters, journal garbage, torn log tails), the class fsck can
//! rebuild without losing reachable data, so the reference repair is
//! loss-free and convergence to it is the strongest claim available.

use analyze::{ext_derivable_corruptor, jffs2_corrupt_log_tails, XorShift64};
use blockdev::{BlockDevice, DeviceSnapshot, FaultKind, FaultPlan, FaultyDevice, RamDisk};
use fs_ext::{ExtConfig, ExtFs};
use mcfs::{abstract_state, AbstractionConfig};
use proptest::prelude::*;
use vfs::{DeviceBacked, FileMode, FileSystem, OpenFlags};

const EXT_BLOCK: usize = 1024;
const EXT_BYTES: u64 = 512 * 1024;
const JFFS2_EBS: usize = 16 * 1024;
const JFFS2_EB_COUNT: usize = 16;

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
    let mut buf = [0u8; 512];
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

/// The POSIX-observable abstraction hash — the state the repair oracles
/// compare.
fn observe(fs: &mut dyn FileSystem) -> u128 {
    abstract_state(fs, &AbstractionConfig::default())
        .unwrap()
        .as_u128()
}

/// Rebuilds a snapshot with the same geometry as `template` from a
/// (corrupted) flat image.
fn snapshot_like(template: &DeviceSnapshot, img: &[u8]) -> DeviceSnapshot {
    let cs = template.chunk_size();
    let chunks = img.chunks(cs).map(|c| c.to_vec()).collect();
    DeviceSnapshot::from_chunks(template.block_size(), cs, chunks).expect("same geometry")
}

fn populate(fs: &mut dyn FileSystem) {
    fs.mkdir("/docs", FileMode::DIR_DEFAULT).unwrap();
    write_file(fs, "/docs/a", b"alpha contents");
    write_file(fs, "/docs/b", &[0xb7; 3000]);
    write_file(fs, "/top", b"top-level");
}

/// How the Nth repair write dies.
#[derive(Clone, Copy)]
enum Interrupt {
    /// The write fails with EIO; repair aborts. Equivalent to a power cut
    /// at that write (synchronous persistence).
    Eio,
    /// The write is acked but only a prefix reaches the media.
    Torn,
    /// Writes land in a volatile cache; the EIO abort is followed by a
    /// power cut that drops everything not yet flushed.
    PowerCut,
}

/// Sweeps the fault point across every repair write: restore the corrupted
/// image, let repair die at write N, then require a clean re-run to reach
/// `goal` — the fixed point of the fault-free reference repair.
fn ext_repair_converges(cfg: ExtConfig, mode: Interrupt) {
    let disk = RamDisk::new(EXT_BLOCK, EXT_BYTES).unwrap();
    let mut fs = ExtFs::format(FaultyDevice::new(disk, FaultPlan::none()), cfg).unwrap();
    fs.mount().unwrap();
    populate(&mut fs);
    fs.unmount().unwrap();

    let snap = fs.snapshot_device().unwrap();
    let mut img = snap.to_vec();
    let mut rng = XorShift64::new(0x0f5c_0f5c_0001);
    ext_derivable_corruptor(&mut img, &mut rng);
    let dirty = snapshot_like(&snap, &img);

    // Fault-free reference repair: its result is the fixed point every
    // interrupted repair must converge to.
    fs.restore_device(&dirty).unwrap();
    fs.fsck().expect("reference repair on derivable corruption");
    fs.mount().unwrap();
    let goal = observe(&mut fs);
    assert_eq!(read_file(&mut fs, "/docs/a"), b"alpha contents");
    fs.unmount().unwrap();

    let mut n = 0u64;
    let mut interrupted = 0u32;
    loop {
        fs.restore_device(&dirty).unwrap();
        let mut plan = FaultPlan::eio(FaultKind::Write, n, 1).during_repair();
        match mode {
            Interrupt::Eio => {}
            Interrupt::Torn => plan = plan.with_torn_bytes(13),
            Interrupt::PowerCut => plan = plan.with_volatile_cache(),
        }
        fs.device_mut().set_plan(plan);
        let res = fs.fsck();
        let fired = fs.device_mut().injected() > 0;
        if matches!(mode, Interrupt::PowerCut) {
            fs.device_mut().power_cut().unwrap();
        }
        fs.device_mut().set_plan(FaultPlan::none());
        if !fired {
            // The window sat beyond the last repair write: repair ran
            // unhindered and must have succeeded. Sweep complete.
            res.expect("repair past the fault window");
            break;
        }
        interrupted += 1;
        // The interrupted image is the crash state. A clean re-run must
        // repair it, a third run must find nothing (two-run fixed point),
        // and the result must be the reference state.
        fs.fsck().expect("re-run after interrupted repair");
        assert!(
            fs.fsck().expect("third run").is_clean(),
            "repair not a fixed point after interrupt at write {n}"
        );
        fs.mount().unwrap();
        assert_eq!(
            observe(&mut fs),
            goal,
            "state diverged after interrupt at repair write {n}"
        );
        fs.unmount().unwrap();
        // Dense at the start (journal replay, early commits), then
        // stride out; the sweep still terminates past the last write.
        n += 1 + n / 8;
        assert!(n < 1 << 14, "fault window never drained");
    }
    assert!(interrupted > 0, "no repair write ever hit the window");
}

#[test]
fn ext2_repair_converges_under_eio_aborts() {
    ext_repair_converges(ExtConfig::ext2(), Interrupt::Eio);
}

#[test]
fn ext4_repair_converges_under_torn_writes() {
    ext_repair_converges(ExtConfig::ext4(), Interrupt::Torn);
}

#[test]
fn ext4_repair_converges_under_power_cuts() {
    ext_repair_converges(ExtConfig::ext4(), Interrupt::PowerCut);
}

/// Same sweep over the jffs2 log: a torn tail forces the repair scrub to
/// GC real erase blocks, so the window covers live-node copy programs and
/// the erase that follows them.
fn jffs2_repair_converges(torn: bool) {
    let mut fs = fs_jffs2::jffs2_on_mtdram(JFFS2_EBS, JFFS2_EB_COUNT).unwrap();
    fs.mount().unwrap();
    populate(&mut fs);
    fs.unmount().unwrap();

    let snap = fs.snapshot_device().unwrap();
    let mut img = snap.to_vec();
    let mut rng = XorShift64::new(0x1985_0508);
    jffs2_corrupt_log_tails(&mut img, JFFS2_EBS, &mut rng);
    let dirty = snapshot_like(&snap, &img);

    fs.restore_device(&dirty).unwrap();
    fs.fsck().expect("reference repair on torn log tails");
    fs.mount().unwrap();
    let goal = observe(&mut fs);
    assert_eq!(read_file(&mut fs, "/docs/a"), b"alpha contents");
    fs.unmount().unwrap();

    let mut n = 0u64;
    let mut interrupted = 0u32;
    loop {
        fs.restore_device(&dirty).unwrap();
        let mut plan = FaultPlan::eio(FaultKind::Write, n, 1).during_repair();
        if torn {
            plan = plan.with_torn_bytes(9);
        }
        fs.device_mut().mtd_mut().set_fault_plan(Some(plan));
        let res = fs.fsck();
        let fired = fs.device_mut().mtd().faults_injected() > 0;
        fs.device_mut().mtd_mut().set_fault_plan(None);
        if !fired {
            res.expect("repair past the fault window");
            break;
        }
        interrupted += 1;
        fs.fsck().expect("re-run after interrupted repair");
        assert!(
            fs.fsck().expect("third run").is_clean(),
            "repair not a fixed point after interrupt at program {n}"
        );
        fs.mount().unwrap();
        assert_eq!(
            observe(&mut fs),
            goal,
            "state diverged after interrupt at repair program {n}"
        );
        fs.unmount().unwrap();
        n += 1 + n / 8;
        assert!(n < 1 << 14, "fault window never drained");
    }
    assert!(interrupted > 0, "no repair program ever hit the window");
}

#[test]
fn jffs2_repair_converges_under_eio_aborts() {
    jffs2_repair_converges(false);
}

#[test]
fn jffs2_repair_converges_under_torn_programs() {
    jffs2_repair_converges(true);
}

/// The phase tag end-to-end: a `during_repair` plan armed before mkfs
/// sleeps through formatting, the workload, and a clean unmount, then
/// fires on the very first repair write.
#[test]
fn repair_phase_plans_never_fire_on_normal_traffic() {
    let disk = RamDisk::new(EXT_BLOCK, EXT_BYTES).unwrap();
    let armed = FaultPlan::eio(FaultKind::Write, 0, 1).during_repair();
    let mut fs = ExtFs::format(FaultyDevice::new(disk, armed), ExtConfig::ext2()).unwrap();
    fs.mount().unwrap();
    populate(&mut fs);
    fs.unmount().unwrap();
    assert_eq!(
        fs.device_mut().injected(),
        0,
        "normal-phase writes consumed a repair-phase window"
    );

    // Give fsck something to write back, then let the window fire.
    let snap = fs.snapshot_device().unwrap();
    let mut img = snap.to_vec();
    let mut rng = XorShift64::new(0xfa5e);
    ext_derivable_corruptor(&mut img, &mut rng);
    fs.restore_device(&snapshot_like(&snap, &img)).unwrap();
    assert!(fs.fsck().is_err(), "first repair write must trip the plan");
    assert_eq!(fs.device_mut().injected(), 1);

    fs.device_mut().set_plan(FaultPlan::none());
    fs.fsck()
        .expect("repair succeeds once the plan is disarmed");
    fs.mount().unwrap();
    assert_eq!(read_file(&mut fs, "/docs/a"), b"alpha contents");
}

/// Random workload for the idempotence properties: file index, content
/// byte, and length.
fn workload() -> impl Strategy<Value = Vec<(u8, u8, usize)>> {
    prop::collection::vec((0u8..6, any::<u8>(), 0usize..1500), 1..6)
}

fn apply_workload(fs: &mut dyn FileSystem, files: &[(u8, u8, usize)]) {
    for &(i, byte, len) in files {
        let p = format!("/w{i}");
        let fd = fs
            .open(
                &p,
                OpenFlags::write_only().with_create().with_trunc(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, &vec![byte; len]).unwrap();
        fs.close(fd).unwrap();
    }
}

/// fsck on a consistent volume changes nothing and reports clean twice —
/// the harness's repair-safety and idempotence oracles, as a property.
fn fsck_idempotent_on(fs: &mut dyn FileSystem, files: &[(u8, u8, usize)]) {
    apply_workload(fs, files);
    let before = observe(fs);
    let first = fs.fsck().expect("fsck on a consistent volume");
    assert!(first.is_clean(), "spurious repairs: {:?}", first.fixes);
    assert_eq!(observe(fs), before, "fsck changed a consistent volume");
    let second = fs.fsck().expect("second fsck");
    assert!(second.is_clean(), "not idempotent: {:?}", second.fixes);
    assert_eq!(observe(fs), before);
    // Contents, not just hashes: the last write per index must survive.
    let mut last = std::collections::HashMap::new();
    for &(i, byte, len) in files {
        last.insert(i, (byte, len));
    }
    for (i, (byte, len)) in last {
        assert_eq!(read_file(fs, &format!("/w{i}")), vec![byte; len]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fsck_is_idempotent_on_ext2(files in workload()) {
        let disk = RamDisk::new(EXT_BLOCK, EXT_BYTES).unwrap();
        let mut fs =
            ExtFs::format(FaultyDevice::new(disk, FaultPlan::none()), ExtConfig::ext2()).unwrap();
        fs.mount().unwrap();
        fsck_idempotent_on(&mut fs, &files);
    }

    #[test]
    fn fsck_is_idempotent_on_ext4(files in workload()) {
        let disk = RamDisk::new(EXT_BLOCK, EXT_BYTES).unwrap();
        let mut fs =
            ExtFs::format(FaultyDevice::new(disk, FaultPlan::none()), ExtConfig::ext4()).unwrap();
        fs.mount().unwrap();
        fsck_idempotent_on(&mut fs, &files);
    }

    #[test]
    fn fsck_is_idempotent_on_jffs2(files in workload()) {
        let mut fs = fs_jffs2::jffs2_on_mtdram(JFFS2_EBS, JFFS2_EB_COUNT).unwrap();
        fs.mount().unwrap();
        fsck_idempotent_on(&mut fs, &files);
    }
}

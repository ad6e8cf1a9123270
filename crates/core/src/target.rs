//! Checked targets: a file system under test plus its state-tracking
//! strategy.
//!
//! MCFS must save and restore *all* of a file system's state (paper §3.1).
//! The strategies here are the paper's attempts, in order of appearance:
//!
//! * [`RemountTarget`] — track only the persistent (device) state and
//!   unmount/remount around each operation so no in-memory state can go
//!   stale (§3.2's workaround; the default for kernel file systems).
//! * [`CheckpointTarget`] — use the file system's own checkpoint/restore
//!   API (§5, VeriFS): no remounts, no device streaming, fastest.
//! * [`ImageTarget`] — clone the whole mounted instance, caches included:
//!   LightVM-style VM snapshots (universal but slow), CRIU process
//!   snapshots (refused for processes holding device nodes, so they work
//!   for Ganesha-like servers but not FUSE), and the VFS-level checkpoints
//!   the paper proposes as future work (§7).
//!
//! Every strategy keeps its snapshots in a `SavedStates`, the one home of
//! the save / load / drop contract. The harnesses fan each checkpoint
//! operation out over their targets through the helpers at the end of this
//! module.

use std::sync::Arc;

use blockdev::{Clock, DeviceSnapshot};
use mdigest::{Digest128, Md5};
use modelcheck::{CheckpointStoreStats, SpillStore, EVICTED_MARKER};
use snapshot::ProcessHandle;
use vfs::{DeviceBacked, Errno, FileSystem, FsCapabilities, FsCheckpoint, RepairReport, VfsResult};

use crate::abstraction::{abstract_state, AbstractionConfig};
use crate::ckpt_pool::{ExternalSnap, FsImage, SavedStates};

/// What one repair pass did, as seen by the harness: the file system's own
/// fix list plus the virtual-time cost of running it. The harness's fsck
/// oracle compares post-repair abstract states across targets and across
/// back-to-back runs (idempotence), so the outcome itself only carries what
/// the target knows locally.
#[derive(Debug, Clone, Default)]
pub struct RepairOutcome {
    /// The file system's repair report.
    pub report: RepairReport,
    /// Virtual time the pass consumed (0 when the target has no clock).
    pub elapsed_ns: u64,
}

/// A file system under test, with uniform state tracking hooks.
///
/// `save_state` returns the approximate size of the saved state in bytes so
/// the checker's memory model can charge it.
pub trait CheckedTarget: Send {
    /// The underlying file-system name.
    fn name(&self) -> String;

    /// The live file system (mounted once [`pre_op`](Self::pre_op) ran).
    fn fs_mut(&mut self) -> &mut dyn FileSystem;

    /// Supported operations.
    fn capabilities(&self) -> FsCapabilities;

    /// The strategy's short name for reports.
    fn strategy(&self) -> &'static str;

    /// Saves the complete state under `key`, returning its size in bytes.
    ///
    /// # Errors
    ///
    /// Propagated file-system/device errors.
    fn save_state(&mut self, key: u64) -> VfsResult<usize>;

    /// Restores the state saved under `key` (which remains saved).
    ///
    /// # Errors
    ///
    /// `ENOENT` for unknown keys; propagated errors otherwise.
    fn load_state(&mut self, key: u64) -> VfsResult<()>;

    /// Drops the state saved under `key`.
    ///
    /// # Errors
    ///
    /// `ENOENT` for unknown keys.
    fn drop_state(&mut self, key: u64) -> VfsResult<()>;

    /// Bounds this target's checkpoint store to `budget` bytes of logical
    /// state; exceeding it evicts least-recently-used unpinned snapshots
    /// (restoring one then fails with `ESTALE`). Default: no store to bound.
    fn set_checkpoint_budget(&mut self, budget: Option<usize>) {
        let _ = budget;
    }

    /// Attaches a disk spill tier to this target's checkpoint store: budget
    /// pressure then demotes chunk-decomposable snapshots to `store` instead
    /// of evicting them (see `CheckpointPool::enable_spill`). Default: no
    /// store, or snapshots the strategy cannot demote — the budget keeps
    /// hard-evicting.
    fn set_checkpoint_spill(&mut self, store: Arc<SpillStore>) {
        let _ = store;
    }

    /// Pins the snapshot under `key` against budget-driven eviction.
    fn pin_state(&mut self, key: u64) {
        let _ = key;
    }

    /// Releases the pin on `key`.
    fn unpin_state(&mut self, key: u64) {
        let _ = key;
    }

    /// Statistics of this target's checkpoint store, if it keeps one.
    fn checkpoint_stats(&self) -> Option<CheckpointStoreStats> {
        None
    }

    /// Hook before each operation (remount strategies mount here).
    ///
    /// # Errors
    ///
    /// Propagated mount errors.
    fn pre_op(&mut self) -> VfsResult<()> {
        Ok(())
    }

    /// Hook after each operation + integrity check (remount strategies
    /// unmount here).
    ///
    /// # Errors
    ///
    /// Propagated unmount errors.
    fn post_op(&mut self) -> VfsResult<()> {
        Ok(())
    }

    /// A hash of the *raw* concrete state, if the strategy can produce one.
    /// Used by the ablation benchmark that shows why raw-state matching
    /// explodes (§3.3).
    fn raw_state_hash(&mut self) -> Option<u128> {
        None
    }

    /// Per-transition state-tracking work. SPIN reads the tracked buffers —
    /// the mmap'ed backend device (paper §4) — after every operation to
    /// build the state vector; strategies that track a device charge that
    /// read stream here. The checkpoint-API strategy's whole point is that
    /// this costs nothing (§5).
    ///
    /// # Errors
    ///
    /// Propagated device errors.
    fn track_state(&mut self) -> VfsResult<()> {
        Ok(())
    }

    /// Invalidates cached abstract-state fingerprints for the paths an
    /// upcoming operation touches. The harness calls this after
    /// [`pre_op`](Self::pre_op) (so the file system is mounted for the
    /// pre-operation hardlink check) and *before* executing the operation.
    /// Default: no-op, for strategies without a cache.
    fn invalidate_fingerprints(&mut self, _touched: &[&str]) {}

    /// Computes the abstract state, reusing this target's fingerprint
    /// cache when it keeps one. Default: full recompute.
    ///
    /// # Errors
    ///
    /// See [`abstract_state`].
    fn cached_abstract_state(&mut self, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
        abstract_state(self.fs_mut(), cfg)
    }

    /// Whether this strategy can emulate a whole-system crash between
    /// operations (see [`crash_remount`](Self::crash_remount)). The harness
    /// only offers the `Crash` pseudo-op when every target supports it.
    fn supports_crash(&self) -> bool {
        false
    }

    /// Emulates a power cut and reboot: in-memory file-system state is lost
    /// without a sync, the device drops its volatile write cache, and the
    /// file system is mounted again so recovery runs. Implementations must
    /// leave the file system mounted and clear any fingerprint cache — every
    /// cached digest describes pre-crash state.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; recovery/mount errors otherwise (the
    /// harness reports those as violations — a crashed file system must stay
    /// remountable).
    fn crash_remount(&mut self) -> VfsResult<()> {
        Err(Errno::ENOSYS)
    }

    /// Whether this target's file system has a scan-and-repair fsck (see
    /// [`FileSystem::supports_fsck`]). The harness only offers the `Fsck`
    /// pseudo-op when every target supports it.
    fn supports_fsck(&self) -> bool {
        false
    }

    /// Runs the file system's repair pass. Implementations must restore the
    /// mount state their strategy expects and drop cached fingerprints —
    /// repair may rewrite any metadata.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when unsupported; repair errors otherwise (the harness
    /// reports those as violations — fsck must not fail on any state the
    /// checker can reach).
    fn fsck(&mut self) -> VfsResult<RepairOutcome> {
        Err(Errno::ENOSYS)
    }
}

/// State tracking through the file system's own checkpoint/restore API —
/// the paper's proposal, implemented by VeriFS (and by `FuseMount` wrapping
/// it, where the ioctls travel the FUSE channel).
#[derive(Debug)]
pub struct CheckpointTarget<F> {
    fs: F,
    name: String,
    /// The real snapshots live inside `fs`, keyed; this store only tracks
    /// their sizes and decides which keys to discard under budget pressure.
    saved: SavedStates<ExternalSnap>,
}

impl<F: FileSystem + FsCheckpoint> CheckpointTarget<F> {
    /// Wraps `fs` (which must support the checkpoint API).
    pub fn new(fs: F) -> Self {
        let name = fs.fs_name().to_string();
        CheckpointTarget {
            fs,
            name,
            saved: SavedStates::new(true),
        }
    }

    /// Consumes the target, returning the file system.
    pub fn into_inner(self) -> F {
        self.fs
    }
}

impl<F: FileSystem + FsCheckpoint + Send> CheckedTarget for CheckpointTarget<F> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn fs_mut(&mut self) -> &mut dyn FileSystem {
        &mut self.fs
    }

    fn capabilities(&self) -> FsCapabilities {
        self.fs.capabilities()
    }

    fn strategy(&self) -> &'static str {
        "checkpoint-api"
    }

    fn pre_op(&mut self) -> VfsResult<()> {
        ensure_mounted(&mut self.fs)
    }

    fn save_state(&mut self, key: u64) -> VfsResult<usize> {
        let before = self.fs.snapshot_bytes();
        self.fs.checkpoint(key)?;
        let after = self.fs.snapshot_bytes();
        let bytes = if after > before {
            after - before
        } else {
            // Replacement under an existing key: fall back to the average.
            after / self.fs.snapshot_count().max(1)
        };
        for victim in self.saved.save(key, ExternalSnap { bytes }) {
            let _ = self.fs.discard(victim);
        }
        Ok(bytes)
    }

    fn load_state(&mut self, key: u64) -> VfsResult<()> {
        let fs = &mut self.fs;
        self.saved.load(key, |_| fs.restore_keep(key))
    }

    fn drop_state(&mut self, key: u64) -> VfsResult<()> {
        if self.saved.remove(key)?.is_some() {
            self.fs.discard(key)?;
        }
        Ok(())
    }

    fn set_checkpoint_budget(&mut self, budget: Option<usize>) {
        self.saved.set_budget(budget);
    }

    fn pin_state(&mut self, key: u64) {
        self.saved.pin(key);
    }

    fn unpin_state(&mut self, key: u64) {
        self.saved.unpin(key);
    }

    fn checkpoint_stats(&self) -> Option<CheckpointStoreStats> {
        // Counts and eviction history come from the policy pool; byte
        // accounting from the file system itself, which can see through its
        // copy-on-write sharing.
        let mut stats = self.saved.stats();
        stats.total_bytes = self.fs.snapshot_bytes();
        stats.resident_bytes = self.fs.snapshot_resident_bytes();
        stats.shared_bytes = stats.total_bytes.saturating_sub(stats.resident_bytes);
        Some(stats)
    }

    fn invalidate_fingerprints(&mut self, touched: &[&str]) {
        self.saved.invalidate(&mut self.fs, touched);
    }

    fn cached_abstract_state(&mut self, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
        self.saved.hash(&mut self.fs, cfg)
    }

    fn supports_crash(&self) -> bool {
        true
    }

    fn crash_remount(&mut self) -> VfsResult<()> {
        // The checkpoint-API strategy tracks a RAM-backed user-space file
        // system whose operations are synchronously durable the moment they
        // return — a crash loses nothing. Only caches are invalidated.
        self.saved.clear_live();
        self.pre_op()
    }
}

/// Mounts `fs` unless it already is.
fn ensure_mounted(fs: &mut dyn FileSystem) -> VfsResult<()> {
    if !fs.is_mounted() {
        fs.mount()?;
    }
    Ok(())
}

/// When a [`RemountTarget`] remounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemountMode {
    /// Unmount/mount around every operation — the paper's default for
    /// kernel file systems: the only way to guarantee cache coherency after
    /// external device restores (§3.2, §4).
    PerOp,
    /// Stay mounted between operations; remount only around state restores.
    /// This is the "without the inter-operation remounts" configuration of
    /// §6 (38–70% faster).
    OnRestore,
    /// Never remount: device restores happen underneath the mounted file
    /// system. **Deliberately unsound** — this is the §3.2 corruption
    /// reproduction mode.
    Never,
}

/// Fixed CPU overhead per mount or unmount beyond device I/O.
const MOUNT_OVERHEAD_NS: u64 = 100_000;

/// Size-dependent mount/unmount overhead (metadata scanning, cache
/// population, writeback) per byte of device.
const MOUNT_OVERHEAD_PS_PER_BYTE: u64 = 420;

/// Device-snapshot state tracking with configurable remount policy, for
/// kernel file systems without a checkpoint API.
#[derive(Debug)]
pub struct RemountTarget<F> {
    fs: F,
    name: String,
    mode: RemountMode,
    saved: SavedStates<DeviceSnapshot>,
    clock: Option<Clock>,
}

impl<F: FileSystem + DeviceBacked> RemountTarget<F> {
    /// Wraps `fs` with the given remount policy.
    pub fn new(fs: F, mode: RemountMode) -> Self {
        let name = fs.fs_name().to_string();
        RemountTarget {
            fs,
            name,
            mode,
            // No-remount mode deliberately serves stale data (§3.2); the
            // fingerprint cache must not hide that staleness from the hash.
            saved: SavedStates::new(mode != RemountMode::Never),
            clock: None,
        }
    }

    /// Attaches a clock so mount/unmount CPU overhead is charged.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// The active remount mode.
    pub fn mode(&self) -> RemountMode {
        self.mode
    }
}

fn charge_mount<F: DeviceBacked>(fs: &F, clock: Option<&Clock>) {
    if let Some(c) = clock {
        c.advance_ns(
            MOUNT_OVERHEAD_NS + fs.device_size_bytes() * MOUNT_OVERHEAD_PS_PER_BYTE / 1000,
        );
    }
}

fn unmount_charged<F: FileSystem + DeviceBacked>(
    fs: &mut F,
    clock: Option<&Clock>,
) -> VfsResult<()> {
    if fs.is_mounted() {
        fs.unmount()?;
        charge_mount(fs, clock);
    }
    Ok(())
}

fn mount_charged<F: FileSystem + DeviceBacked>(fs: &mut F, clock: Option<&Clock>) -> VfsResult<()> {
    if !fs.is_mounted() {
        fs.mount()?;
        charge_mount(fs, clock);
    }
    Ok(())
}

impl<F: FileSystem + DeviceBacked + Send> CheckedTarget for RemountTarget<F> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn fs_mut(&mut self) -> &mut dyn FileSystem {
        &mut self.fs
    }

    fn capabilities(&self) -> FsCapabilities {
        self.fs.capabilities()
    }

    fn strategy(&self) -> &'static str {
        match self.mode {
            RemountMode::PerOp => "remount-per-op",
            RemountMode::OnRestore => "remount-on-restore",
            RemountMode::Never => "no-remount",
        }
    }

    fn save_state(&mut self, key: u64) -> VfsResult<usize> {
        // Flush so the device image is complete, then stream it out (the
        // paper mmaps the backend into SPIN's address space).
        if self.fs.is_mounted() {
            self.fs.sync()?;
        }
        let snap = self.fs.snapshot_device()?;
        let bytes = snap.size_bytes();
        self.saved.save(key, snap);
        Ok(bytes)
    }

    fn load_state(&mut self, key: u64) -> VfsResult<()> {
        let (fs, mode, clock) = (&mut self.fs, self.mode, self.clock.as_ref());
        self.saved.load(key, |snap| {
            if mode == RemountMode::Never {
                // Restore underneath the mounted file system: stale caches
                // (and a disabled fingerprint store, so nothing masks them).
                return fs.restore_device(snap);
            }
            unmount_charged(fs, clock)?;
            fs.restore_device(snap)?;
            // PerOp defers the mount to pre_op; OnRestore mounts now.
            if mode == RemountMode::OnRestore {
                mount_charged(fs, clock)?;
            }
            Ok(())
        })
    }

    fn drop_state(&mut self, key: u64) -> VfsResult<()> {
        self.saved.remove(key).map(|_| ())
    }

    fn set_checkpoint_budget(&mut self, budget: Option<usize>) {
        self.saved.set_budget(budget);
    }

    fn set_checkpoint_spill(&mut self, store: Arc<SpillStore>) {
        self.saved.enable_spill(store);
    }

    fn pin_state(&mut self, key: u64) {
        self.saved.pin(key);
    }

    fn unpin_state(&mut self, key: u64) {
        self.saved.unpin(key);
    }

    fn checkpoint_stats(&self) -> Option<CheckpointStoreStats> {
        Some(self.saved.stats())
    }

    fn invalidate_fingerprints(&mut self, touched: &[&str]) {
        self.saved.invalidate(&mut self.fs, touched);
    }

    fn cached_abstract_state(&mut self, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
        self.saved.hash(&mut self.fs, cfg)
    }

    fn pre_op(&mut self) -> VfsResult<()> {
        mount_charged(&mut self.fs, self.clock.as_ref())
    }

    fn post_op(&mut self) -> VfsResult<()> {
        if self.mode == RemountMode::PerOp {
            unmount_charged(&mut self.fs, self.clock.as_ref())?;
        }
        Ok(())
    }

    fn raw_state_hash(&mut self) -> Option<u128> {
        if self.fs.is_mounted() {
            self.fs.sync().ok()?;
        }
        let snap = self.fs.snapshot_device().ok()?;
        let mut ctx = Md5::new();
        for chunk in snap.chunks() {
            ctx.update(chunk);
        }
        Some(ctx.finalize().as_u128())
    }

    fn track_state(&mut self) -> VfsResult<()> {
        // Stream the device image (the timed device charges the reads);
        // the image itself is discarded — SPIN copies it into its state
        // vector, we only account the cost. The snapshot shares the live
        // image's chunk table, so building and dropping it is O(1).
        self.fs.snapshot_device().map(|_| ())
    }

    fn supports_crash(&self) -> bool {
        // No-remount mode deliberately never remounts (§3.2 reproduction);
        // a crash-and-remount inside it would be contradictory.
        self.mode != RemountMode::Never
    }

    fn crash_remount(&mut self) -> VfsResult<()> {
        self.fs.crash_reboot()?;
        charge_mount(&self.fs, self.clock.as_ref());
        self.saved.clear_live();
        Ok(())
    }

    fn supports_fsck(&self) -> bool {
        self.fs.supports_fsck()
    }

    fn fsck(&mut self) -> VfsResult<RepairOutcome> {
        let start = self.clock.as_ref().map_or(0, Clock::now_ns);
        let report = self.fs.fsck()?;
        // Repair may rewrite any metadata block: every cached digest
        // describes pre-repair state.
        self.saved.clear_live();
        // Leave the volume mounted — like `crash_remount`, the caller's
        // op loop hashes the repaired state next and `post_op` restores
        // the per-op unmount afterwards.
        mount_charged(&mut self.fs, self.clock.as_ref())?;
        let elapsed_ns = self.clock.as_ref().map_or(0, Clock::now_ns) - start;
        Ok(RepairOutcome { report, elapsed_ns })
    }
}

/// VFS-level checkpoints copy the full state at this rate (a memory copy).
const VFS_COPY_NS_PER_MIB: u64 = 100_000;

/// State tracking by cloning the whole mounted instance — in-memory caches
/// and device image together — into an image on save, and swapping it back
/// in on load. Caches are part of the captured state, so no remounts are
/// needed and the §3.2 incoherency cannot occur. The mechanisms differ only
/// in cost, applicability and name:
///
/// * [`vm`](ImageTarget::vm) — LightVM-style VM snapshots: always
///   applicable, but 30 ms per save and 20 ms per load (the paper measured
///   20–30 ops/s).
/// * [`criu`](ImageTarget::criu) — CRIU process snapshots, charged per KiB
///   of image. Saving fails `EPERM` when the process holds a character or
///   block device, so FUSE file systems (holding `/dev/fuse`) are refused
///   while a Ganesha-like plain server works (§5).
/// * [`vfs`](ImageTarget::vfs) — checkpoints at the Linux VFS level (§7
///   future work), charged as a memory copy of the device plus an eighth.
#[derive(Debug)]
pub struct ImageTarget<F> {
    fs: F,
    name: String,
    strategy: &'static str,
    saved: SavedStates<FsImage<F>>,
    clock: Option<Clock>,
    /// Logical size of one image: what `save_state` returns and the budget
    /// charges.
    state_bytes: usize,
    /// Virtual time one save and one load take.
    save_ns: u64,
    load_ns: u64,
    /// Whether the mechanism refuses this file system (CRIU with device
    /// handles open).
    refused: bool,
}

impl<F: FileSystem + Clone> ImageTarget<F> {
    fn new(fs: F, strategy: &'static str, state_bytes: usize, save_ns: u64, load_ns: u64) -> Self {
        let name = fs.fs_name().to_string();
        ImageTarget {
            fs,
            name,
            strategy,
            saved: SavedStates::new(true),
            clock: None,
            state_bytes,
            save_ns,
            load_ns,
            refused: false,
        }
    }

    /// LightVM-style VM snapshots of `fs`; `state_bytes` approximates the VM
    /// image size for the memory model.
    pub fn vm(fs: F, state_bytes: usize) -> Self {
        ImageTarget::new(
            fs,
            "vm-snapshot",
            state_bytes,
            snapshot::LIGHTVM_CHECKPOINT_MS * 1_000_000,
            snapshot::LIGHTVM_RESTORE_MS * 1_000_000,
        )
    }

    /// CRIU process snapshots of `fs` running as a process that holds
    /// `handles` and whose memory image is `state_bytes`.
    pub fn criu(fs: F, handles: &[ProcessHandle], state_bytes: usize) -> Self {
        let copy_ns = snapshot::criu_copy_ns(state_bytes);
        let mut target = ImageTarget::new(fs, "criu-process", state_bytes, copy_ns, copy_ns);
        target.refused = snapshot::criu_check_handles(handles).is_err();
        target
    }

    /// Attaches a clock so saves and loads charge virtual time.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }
}

impl<F: FileSystem + DeviceBacked + Clone> ImageTarget<F> {
    /// VFS-level checkpoints of `fs`.
    pub fn vfs(fs: F) -> Self {
        let device = fs.device_size_bytes();
        let state_bytes = device + device / 8;
        let copy_ns = VFS_COPY_NS_PER_MIB * state_bytes.div_ceil(1 << 20);
        ImageTarget::new(fs, "vfs-checkpoint", state_bytes as usize, copy_ns, copy_ns)
    }
}

impl<F: FileSystem + Clone + Send> CheckedTarget for ImageTarget<F> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn fs_mut(&mut self) -> &mut dyn FileSystem {
        &mut self.fs
    }

    fn capabilities(&self) -> FsCapabilities {
        self.fs.capabilities()
    }

    fn strategy(&self) -> &'static str {
        self.strategy
    }

    fn pre_op(&mut self) -> VfsResult<()> {
        ensure_mounted(&mut self.fs)
    }

    fn save_state(&mut self, key: u64) -> VfsResult<usize> {
        if self.refused {
            return Err(Errno::EPERM);
        }
        if let Some(c) = &self.clock {
            c.advance_ns(self.save_ns);
        }
        let image = FsImage {
            fs: self.fs.clone(),
            bytes: self.state_bytes,
        };
        self.saved.save(key, image);
        Ok(self.state_bytes)
    }

    fn load_state(&mut self, key: u64) -> VfsResult<()> {
        let (fs, clock, load_ns) = (&mut self.fs, &self.clock, self.load_ns);
        self.saved.load(key, |image| {
            // Charged only once the lookup found an image to copy.
            if let Some(c) = clock {
                c.advance_ns(load_ns);
            }
            *fs = image.fs.clone();
            Ok(())
        })
    }

    fn drop_state(&mut self, key: u64) -> VfsResult<()> {
        self.saved.remove(key).map(|_| ())
    }

    fn set_checkpoint_budget(&mut self, budget: Option<usize>) {
        self.saved.set_budget(budget);
    }

    fn pin_state(&mut self, key: u64) {
        self.saved.pin(key);
    }

    fn unpin_state(&mut self, key: u64) {
        self.saved.unpin(key);
    }

    fn checkpoint_stats(&self) -> Option<CheckpointStoreStats> {
        Some(self.saved.stats())
    }

    fn invalidate_fingerprints(&mut self, touched: &[&str]) {
        self.saved.invalidate(&mut self.fs, touched);
    }

    fn cached_abstract_state(&mut self, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
        self.saved.hash(&mut self.fs, cfg)
    }
}

/// Saves every target's state under `key`, returning the total size or
/// the first failure, named.
pub(crate) fn save_all(targets: &mut [Box<dyn CheckedTarget>], key: u64) -> Result<usize, String> {
    let mut total = 0;
    for t in targets {
        total += t
            .save_state(key)
            .map_err(|e| format!("{}: checkpoint failed: {e}", t.name()))?;
    }
    Ok(total)
}

/// Restores every target's state under `key`. A failure is named, and a
/// budget eviction (`ESTALE`) is tagged with [`EVICTED_MARKER`] so
/// explorers can tell it from a malfunction.
pub(crate) fn load_all(targets: &mut [Box<dyn CheckedTarget>], key: u64) -> Result<(), String> {
    for t in targets {
        t.load_state(key).map_err(|e| {
            if e == Errno::ESTALE {
                format!("{}: restore failed: {e} {EVICTED_MARKER}", t.name())
            } else {
                format!("{}: restore failed: {e}", t.name())
            }
        })?;
    }
    Ok(())
}

/// Drops every target's state under `key`; unknown keys are ignored.
pub(crate) fn drop_all(targets: &mut [Box<dyn CheckedTarget>], key: u64) {
    for t in targets {
        let _ = t.drop_state(key);
    }
}

/// Pins every target's state under `key` against budget eviction.
pub(crate) fn pin_all(targets: &mut [Box<dyn CheckedTarget>], key: u64) {
    for t in targets {
        t.pin_state(key);
    }
}

/// Releases every target's pin on `key`.
pub(crate) fn unpin_all(targets: &mut [Box<dyn CheckedTarget>], key: u64) {
    for t in targets {
        t.unpin_state(key);
    }
}

/// The targets' checkpoint-store statistics summed, or `None` when no
/// target keeps a store.
pub(crate) fn merged_store_stats(
    targets: &[Box<dyn CheckedTarget>],
) -> Option<CheckpointStoreStats> {
    targets
        .iter()
        .filter_map(|t| t.checkpoint_stats())
        .reduce(|mut acc, s| {
            acc.merge(&s);
            acc
        })
}

/// XOR-fold of every target's
/// [`opaque_state_digest`](vfs::FileSystem::opaque_state_digest),
/// mixed with the target index so identical hidden state on two targets
/// cannot cancel to zero. Zero when no target reports one.
pub(crate) fn opaque_digest_fold(targets: &mut [Box<dyn CheckedTarget>]) -> u128 {
    let mut acc = 0u128;
    // mcfs-lint: allow(MC007, target order is fixed at construction; the index is part of the digest domain by design)
    for (i, t) in targets.iter_mut().enumerate() {
        if let Some(d) = t.fs_mut().opaque_state_digest() {
            let mut bytes = [0u8; 24];
            bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
            bytes[8..].copy_from_slice(&d.to_le_bytes());
            acc ^= mdigest::md5(&bytes).as_u128();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifs::VeriFs;
    use vfs::FileMode;

    fn touch(t: &mut dyn CheckedTarget, path: &str) {
        t.pre_op().unwrap();
        let fd = t.fs_mut().create(path, FileMode::REG_DEFAULT).unwrap();
        t.fs_mut().close(fd).unwrap();
        t.post_op().unwrap();
    }

    fn exists(t: &mut dyn CheckedTarget, path: &str) -> bool {
        t.pre_op().unwrap();
        let r = t.fs_mut().stat(path).is_ok();
        t.post_op().unwrap();
        r
    }

    #[test]
    fn remount_per_op_unmounts_between_ops() {
        let fs = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let mut t = RemountTarget::new(fs, RemountMode::PerOp);
        touch(&mut t, "/f");
        // post_op unmounted it.
        assert!(!t.fs.is_mounted());
        assert!(exists(&mut t, "/f"));
    }

    #[test]
    fn no_remount_mode_goes_stale() {
        let fs = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let mut t = RemountTarget::new(fs, RemountMode::Never);
        t.pre_op().unwrap();
        t.save_state(1).unwrap();
        touch(&mut t, "/f");
        t.load_state(1).unwrap();
        // Stale caches: the file still appears to exist (§3.2).
        assert!(
            exists(&mut t, "/f"),
            "deliberately unsound mode keeps stale cache"
        );
    }

    #[test]
    fn criu_target_refuses_fuse_handles() {
        let mut fs = VeriFs::v1();
        use vfs::FileSystem;
        fs.mount().unwrap();
        let clock = Clock::new();
        let fuse = [ProcessHandle::CharDevice("/dev/fuse".into())];
        let mut t = ImageTarget::criu(fs, &fuse, 1024).with_clock(clock.clone());
        assert_eq!(t.save_state(1), Err(Errno::EPERM));
        assert_eq!(clock.now_ns(), 0, "refused before charging");
    }

    #[test]
    fn vm_snapshot_costs_bound_rate_to_tens_of_ops() {
        let clock = Clock::new();
        let mut fs = VeriFs::v1();
        use vfs::FileSystem;
        fs.mount().unwrap();
        let mut t = ImageTarget::vm(fs, 64).with_clock(clock.clone());
        // One checkpoint + restore per operation, as backtracking requires.
        for i in 0..100u64 {
            t.save_state(i).unwrap();
            t.load_state(i).unwrap();
        }
        let rate = 100.0 / clock.now_secs();
        assert!(
            rate > 15.0 && rate < 35.0,
            "paper reports 20-30 ops/s; modelled {rate:.1}"
        );
    }

    #[test]
    fn raw_state_hash_changes_with_any_write() {
        let fs = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let mut t = RemountTarget::new(fs, RemountMode::OnRestore);
        t.pre_op().unwrap();
        let h1 = t.raw_state_hash().unwrap();
        touch(&mut t, "/f");
        let h2 = t.raw_state_hash().unwrap();
        assert_ne!(h1, h2);
    }
}

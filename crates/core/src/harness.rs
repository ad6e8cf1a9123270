//! The MCFS harness: N file systems driven in lockstep as one model system.
//!
//! Each operation is executed on every checked file system; the integrity
//! check then asserts equality of return values, error codes, file data and
//! metadata (via the abstraction function). Any discrepancy is reported as a
//! violation with the precise operation sequence that led to it (§2).

use std::collections::HashMap;
use std::sync::Arc;

use blockdev::Clock;
use mdigest::Digest128;
use modelcheck::{
    ApplyOutcome, CheckpointStoreStats, CrashStats, MemBudget, ModelSystem, SpillStore, StateId,
};
use vfs::{Errno, FileMode, OpenFlags, VfsResult};

use crate::abstraction::{abstract_state, AbstractionConfig};
use crate::coverage::Coverage;
use crate::effect::{EffectIndex, EffectProfile};
use crate::pool::{execute_with, FsOp, OpOutcome, PoolConfig};
use crate::target::{self, CheckedTarget};

/// Name of the dummy file written to equalize free space (§3.4); always on
/// the abstraction exception list.
pub const EQUALIZE_DUMMY: &str = ".mcfs_space_dummy";

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct McfsConfig {
    /// Operation/parameter pools.
    pub pool: PoolConfig,
    /// Abstraction-function settings (exception list etc.).
    pub abstraction: AbstractionConfig,
    /// Charge this much CPU time per syscall per file system.
    pub syscall_cpu_ns: u64,
    /// Equalize usable capacity across file systems at start (§3.4).
    pub equalize_free_space: bool,
    /// Cap on the equalization dummy file (protects against pairing a
    /// bounded file system with an effectively unbounded one).
    pub equalize_cap_bytes: u64,
    /// With ≥3 file systems, report the minority as the suspect
    /// (majority-voting, the paper's future work §7).
    pub majority_voting: bool,
    /// Maintain the abstract-state hash incrementally: before each mutation
    /// the harness invalidates every target's cached per-path fingerprints
    /// for the touched paths, and the post-op hash reuses the surviving
    /// digests. **On** by default; turning it off forces a full re-hash
    /// after every operation (the pre-optimization behavior, kept for the
    /// throughput benchmark and as a cross-check).
    pub incremental_fingerprint: bool,
    /// Per-target checkpoint-store budget in logical bytes. When set, each
    /// target evicts least-recently-used unpinned snapshots past the bound;
    /// restoring an evicted checkpoint fails with `ESTALE` and is reported
    /// to explorers as a budget-driven stop, not a fatal error. `None`
    /// (the default) never evicts.
    pub checkpoint_budget_bytes: Option<usize>,
    /// Out-of-core memory budget. When set, the harness opens a spill store
    /// and attaches it to every target's checkpoint pool: budget pressure
    /// then demotes device snapshots to disk (COW-chunk deduplicated)
    /// instead of evicting them, and the page traffic's virtual-time cost is
    /// charged to the run's clock. Explorers read the same budget from
    /// `ExploreConfig::mem_budget` for the visited set and frontier; pass
    /// the one budget to both configs. `None` (the default) keeps the pool
    /// RAM-only.
    pub mem_budget: Option<MemBudget>,
    /// Add a nondeterministic `crash` pseudo-operation to the op pool. A
    /// crash drops every target's in-memory state, power-cuts its device
    /// (unflushed writes vanish), and remounts through the target's recovery
    /// path; the crash oracle then checks each recovered state is
    /// *prefix-consistent* — equal to some state the run passed through
    /// since the last sync point. Requires every target to support crashes
    /// ([`CheckedTarget::supports_crash`](crate::target::CheckedTarget::supports_crash)).
    pub crash_exploration: bool,
    /// Add an `fsck` pseudo-operation to the op pool. Applying it runs
    /// every target's scan-and-repair pass
    /// ([`CheckedTarget::fsck`](crate::target::CheckedTarget::fsck)); the
    /// repair oracle then checks that fsck preserved the POSIX-observable
    /// state (a consistent volume needs no user-visible repairs), that all
    /// targets converged to the same state, and that a second run is a
    /// fixed point (reports clean, changes nothing). Requires every target
    /// to support fsck
    /// ([`CheckedTarget::supports_fsck`](crate::target::CheckedTarget::supports_fsck)).
    pub fsck_exploration: bool,
    /// Delta-debug every violation's trace down to a 1-minimal
    /// counterexample before reporting it ([`crate::shrink`]). Requires a
    /// harness factory ([`Mcfs::set_factory`]) so each candidate replays on
    /// a *fresh* pair; without one the flag is inert. Off by default:
    /// minimization costs replays at violation time.
    pub minimize_violations: bool,
}

impl Default for McfsConfig {
    fn default() -> Self {
        McfsConfig {
            pool: PoolConfig::small(),
            abstraction: AbstractionConfig::default(),
            syscall_cpu_ns: 2_000,
            equalize_free_space: true,
            equalize_cap_bytes: 64 << 20,
            majority_voting: true,
            incremental_fingerprint: true,
            checkpoint_budget_bytes: None,
            mem_budget: None,
            crash_exploration: false,
            fsck_exploration: false,
            minimize_violations: false,
        }
    }
}

/// Statistics of the harness's repair machinery: how many `fsck`
/// pseudo-operations ran and how many individual fixes they applied.
/// Surfaced by [`Mcfs::fsck_stats`] when
/// [`McfsConfig::fsck_exploration`] is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckStats {
    /// `fsck` pseudo-operations applied (each runs the repair pass twice:
    /// once to repair, once to prove the fixed point).
    pub fscks: u64,
    /// Individual repairs the first-run passes reported across all
    /// targets (internal fixes — counter rebuilds, quarantined torn log
    /// tails; user-visible changes are violations, not repairs).
    pub repairs_made: u64,
}

/// Builds a fresh, deterministic harness equivalent to the one being
/// checked — the replay-validation factory behind
/// [`McfsConfig::minimize_violations`] (see [`crate::shrink`]).
pub type HarnessFactory = dyn Fn() -> VfsResult<Mcfs> + Send + Sync;

/// The MCFS harness: implements [`ModelSystem`] over N checked targets so
/// any `modelcheck` explorer can drive it.
pub struct Mcfs {
    targets: Vec<Box<dyn CheckedTarget>>,
    cfg: McfsConfig,
    ops: Vec<FsOp>,
    clock: Option<Clock>,
    last_hash: Option<Digest128>,
    coverage: Coverage,
    /// Crash-oracle prefix window: abstract states the run has passed
    /// through since the last sync point (checkpoint/restore resets it).
    /// A crash recovery must land on one of these, or on the pre-crash
    /// state itself.
    prefix_hashes: Vec<u128>,
    /// The prefix window to re-adopt when a checkpoint is restored.
    ckpt_hashes: HashMap<u64, u128>,
    crashes: u64,
    crash_recoveries: u64,
    crash_divergences: u64,
    fscks: u64,
    fsck_repairs: u64,
    /// Builds a fresh equivalent harness; candidate traces from the
    /// minimizer replay against factory products, never against this
    /// (already violated) instance.
    factory: Option<Arc<HarnessFactory>>,
    /// Precomputed signature-derived independence over the filtered pool.
    effects: EffectIndex,
    /// The spill store the targets' checkpoint pools demote to (when
    /// [`McfsConfig::mem_budget`] is set); drained into the virtual clock
    /// after each operation so checkpoint page traffic costs virtual time.
    ckpt_spill: Option<Arc<SpillStore>>,
}

impl std::fmt::Debug for Mcfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.targets.iter().map(|t| t.name()).collect();
        f.debug_struct("Mcfs")
            .field("targets", &names)
            .field("ops", &self.ops.len())
            .finish()
    }
}

impl Mcfs {
    /// Builds a harness over `targets` (at least two), mounting them,
    /// equalizing free space, and verifying their initial states agree.
    ///
    /// # Errors
    ///
    /// `EINVAL` if fewer than two targets are given or their initial
    /// abstract states already differ; propagated mount errors.
    pub fn new(targets: Vec<Box<dyn CheckedTarget>>, cfg: McfsConfig) -> VfsResult<Self> {
        Mcfs::with_clock_opt(targets, cfg, None)
    }

    /// Like [`new`](Mcfs::new), with a virtual clock for cost accounting.
    ///
    /// # Errors
    ///
    /// See [`new`](Mcfs::new).
    pub fn with_clock(
        targets: Vec<Box<dyn CheckedTarget>>,
        cfg: McfsConfig,
        clock: Clock,
    ) -> VfsResult<Self> {
        Mcfs::with_clock_opt(targets, cfg, Some(clock))
    }

    fn with_clock_opt(
        mut targets: Vec<Box<dyn CheckedTarget>>,
        cfg: McfsConfig,
        clock: Option<Clock>,
    ) -> VfsResult<Self> {
        if targets.len() < 2 {
            return Err(Errno::EINVAL);
        }
        let ckpt_spill = match &cfg.mem_budget {
            Some(budget) => Some(SpillStore::new(budget).map_err(|_| Errno::EIO)?),
            None => None,
        };
        for t in &mut targets {
            t.set_checkpoint_budget(cfg.checkpoint_budget_bytes);
            if let Some(store) = &ckpt_spill {
                t.set_checkpoint_spill(store.clone());
            }
        }
        // Intersect capabilities and generate the bounded op set.
        let mut caps = targets[0].capabilities();
        for t in &targets[1..] {
            caps = caps.intersect(t.capabilities());
        }
        let mut ops: Vec<FsOp> = cfg
            .pool
            .ops()
            .into_iter()
            .filter(|op| op.allowed_by(caps))
            .collect();
        if cfg.crash_exploration {
            // Crash exploration needs every target to survive a crash —
            // device-backed targets via power-cut + recovery mount, RAM
            // targets trivially. Refusing here beats a misleading
            // violation later.
            if !targets.iter().all(|t| t.supports_crash()) {
                return Err(Errno::ENOSYS);
            }
            ops.push(FsOp::Crash);
        }
        if cfg.fsck_exploration {
            // The repair oracle needs a real scan-and-repair pass on every
            // target; a defaulted `ENOSYS` fsck would turn every schedule
            // containing the pseudo-op into a bogus violation.
            if !targets.iter().all(|t| t.supports_fsck()) {
                return Err(Errno::ENOSYS);
            }
            ops.push(FsOp::Fsck);
        }
        // Mount everything.
        for t in &mut targets {
            t.pre_op()?;
        }
        // Derive the POR independence relation from the filtered pool: the
        // alias classes come from the `Hardlink` ops that survived the
        // capability intersection, and targets behind caching kernel
        // layers make cache-filling reads count as kernel-state writes.
        let kernel_caches = targets.iter_mut().any(|t| t.fs_mut().caches_metadata());
        let profile = EffectProfile::from_pool(&ops)
            .with_kernel_caches(kernel_caches)
            .with_atime(cfg.abstraction.include_atime);
        let effects = EffectIndex::new(&ops, profile);
        let mut harness = Mcfs {
            targets,
            cfg,
            ops,
            clock,
            last_hash: None,
            coverage: Coverage::new(),
            prefix_hashes: Vec::new(),
            ckpt_hashes: HashMap::new(),
            crashes: 0,
            crash_recoveries: 0,
            crash_divergences: 0,
            fscks: 0,
            fsck_repairs: 0,
            factory: None,
            effects,
            ckpt_spill,
        };
        if harness.cfg.equalize_free_space {
            harness.equalize()?;
        }
        // The initial states must agree, or every run starts violated.
        let hashes = harness.hash_all()?;
        if hashes.windows(2).any(|w| w[0] != w[1]) {
            return Err(Errno::EINVAL);
        }
        harness.prefix_hashes.push(hashes[0].as_u128());
        for t in &mut harness.targets {
            t.post_op()?;
        }
        Ok(harness)
    }

    /// The capability-filtered operation set.
    pub fn op_pool(&self) -> &[FsOp] {
        &self.ops
    }

    /// The signature-derived independence matrix driving POR (see
    /// [`crate::effect`]).
    pub fn effect_index(&self) -> &EffectIndex {
        &self.effects
    }

    /// Repair-oracle statistics, when [`McfsConfig::fsck_exploration`] is
    /// on (`None` otherwise).
    pub fn fsck_stats(&self) -> Option<FsckStats> {
        self.cfg.fsck_exploration.then_some(FsckStats {
            fscks: self.fscks,
            repairs_made: self.fsck_repairs,
        })
    }

    /// The POSIX-observable abstraction hash alone, without the
    /// opaque-digest fold — what `hash_all` compares across targets and
    /// what the crash oracle's prefix window stores.
    pub fn pure_abstract_state(&mut self) -> u128 {
        if let Some(h) = self.last_hash {
            return h.as_u128();
        }
        // Recompute from the first target (all agree whenever apply
        // succeeded; before the first op this hashes the initial state).
        let _ = self.targets[0].pre_op();
        let cfg = &self.cfg.abstraction;
        let h = if self.cfg.incremental_fingerprint {
            self.targets[0].cached_abstract_state(cfg)
        } else {
            abstract_state(self.targets[0].fs_mut(), cfg)
        }
        .map(|d| d.as_u128())
        .unwrap_or(u128::MAX);
        let _ = self.targets[0].post_op();
        self.last_hash = None;
        h
    }

    /// Attaches the replay factory counterexample minimization validates
    /// against. The factory must rebuild a harness equivalent to this one —
    /// same targets, same seeded bugs, same fault plans — deterministically;
    /// [`McfsConfig::minimize_violations`] does nothing without it.
    pub fn set_factory(&mut self, factory: Arc<HarnessFactory>) {
        self.factory = Some(factory);
    }

    /// Builder-style [`set_factory`](Mcfs::set_factory).
    #[must_use]
    pub fn with_factory(mut self, factory: Arc<HarnessFactory>) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Target names, for reports.
    pub fn target_names(&self) -> Vec<String> {
        self.targets.iter().map(|t| t.name()).collect()
    }

    /// Operation/outcome coverage accumulated so far (§7 future work:
    /// coverage tracking while model-checking).
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance_ns(ns);
        }
    }

    /// Drains the checkpoint spill store's accumulated page-traffic cost
    /// into the virtual clock (demotions/promotions happened since the last
    /// drain).
    fn charge_ckpt_spill(&self) {
        if let Some(s) = &self.ckpt_spill {
            self.charge(s.take_pending_ns());
        }
    }

    /// The spill store the targets' checkpoint pools demote to, if
    /// [`McfsConfig::mem_budget`] attached one (benchmarks read its
    /// counters).
    pub fn checkpoint_spill_store(&self) -> Option<&Arc<SpillStore>> {
        self.ckpt_spill.as_ref()
    }

    /// Free-space equalization (§3.4): find the smallest available capacity
    /// `S_L`, then on every other file system write `S_n - S_L` zeros into a
    /// dummy file so `write` fills all of them at the same point.
    fn equalize(&mut self) -> VfsResult<()> {
        // Iterate: the dummy file itself consumes metadata (indirect
        // blocks, directory growth), so one round typically leaves a small
        // residual imbalance.
        for _round in 0..8 {
            let mut avails = Vec::with_capacity(self.targets.len());
            for t in &mut self.targets {
                avails.push(t.fs_mut().statfs()?.bytes_avail());
            }
            let lowest = *avails.iter().min().expect("at least two targets");
            if avails
                .iter()
                .all(|&a| a == lowest || a > self.cfg.equalize_cap_bytes)
            {
                break;
            }
            for (t, &avail) in self.targets.iter_mut().zip(&avails) {
                let surplus = avail - lowest;
                // Pairing with an effectively unbounded file system (e.g.
                // VeriFS1): skip; the bounded pools never reach its limit.
                if surplus == 0 || avail > self.cfg.equalize_cap_bytes {
                    continue;
                }
                let fs = t.fs_mut();
                let path = format!("/{EQUALIZE_DUMMY}");
                let fd = fs.open(
                    &path,
                    OpenFlags::write_only().with_create().with_append(),
                    FileMode::new(0o600),
                )?;
                // One write call per round: log-structured file systems
                // rewrite per call, so chunking would be quadratic.
                let zeros = vec![0u8; surplus as usize];
                fs.write(fd, &zeros)?;
                fs.close(fd)?;
            }
        }
        Ok(())
    }

    fn hash_all(&mut self) -> VfsResult<Vec<Digest128>> {
        let cfg = &self.cfg.abstraction;
        let incremental = self.cfg.incremental_fingerprint;
        self.targets
            .iter_mut()
            .map(|t| {
                if incremental {
                    t.cached_abstract_state(cfg)
                } else {
                    abstract_state(t.fs_mut(), cfg)
                }
            })
            .collect()
    }

    /// Builds a discrepancy message. With ≥3 targets and voting enabled, the
    /// minority is named as the suspect.
    fn describe_discrepancy<T: std::fmt::Debug + PartialEq>(
        &self,
        what: &str,
        op: &FsOp,
        values: &[T],
    ) -> String {
        let mut msg = format!("{what} discrepancy on {op}:");
        for (t, v) in self.targets.iter().zip(values) {
            msg.push_str(&format!(
                "\n  {:<12} [{}] => {:?}",
                t.name(),
                t.strategy(),
                v
            ));
        }
        if self.cfg.majority_voting && values.len() >= 3 {
            // Majority vote: the value held by most targets is "correct".
            let mut best: Option<(usize, usize)> = None; // (index, count)
            for (i, v) in values.iter().enumerate() {
                let count = values.iter().filter(|x| *x == v).count();
                if best.map(|(_, c)| count > c).unwrap_or(true) {
                    best = Some((i, count));
                }
            }
            if let Some((winner, count)) = best {
                if count > values.len() / 2 {
                    let suspects: Vec<String> = self
                        .targets
                        .iter()
                        .zip(values)
                        .filter(|(_, v)| *v != &values[winner])
                        .map(|(t, _)| t.name())
                        .collect();
                    msg.push_str(&format!(
                        "\n  majority vote: {} of {} agree; suspect(s): {}",
                        count,
                        values.len(),
                        suspects.join(", ")
                    ));
                }
            }
        }
        msg
    }

    /// Wraps every violation return out of [`apply`](ModelSystem::apply):
    /// best-effort phase-4 cleanup first, so per-op remount targets are not
    /// left mounted when the explorer stops mid-operation. Without this, a
    /// replay (or any further use of the harness) starts from a different
    /// mount/cache state than exploration saw.
    fn violation(&mut self, msg: String) -> ApplyOutcome {
        for t in &mut self.targets {
            let _ = t.post_op();
        }
        ApplyOutcome::Violation(msg)
    }

    /// Records a post-operation state in the crash-oracle prefix window.
    fn push_prefix(&mut self, hash: u128) {
        if !self.cfg.crash_exploration {
            return;
        }
        if self.prefix_hashes.last() != Some(&hash) {
            self.prefix_hashes.push(hash);
        }
    }

    /// The `crash` pseudo-operation: power-cut every target's device, run
    /// its recovery mount, and check the oracle.
    ///
    /// A recovered state is *prefix-consistent* if it equals some state the
    /// run passed through since the last sync point (targets sync on
    /// checkpoint and, for per-op remount targets, after every operation),
    /// or the pre-crash state itself. Each target must recover to a
    /// prefix-consistent state — anything else (lost synced data, corrupted
    /// recovery, a failed remount) is a violation with the usual replayable
    /// trace. Targets may legally recover to *different* prefix states
    /// (their sync points differ), in which case the branch is pruned: both
    /// behaviors are correct, but lockstep comparison cannot continue.
    fn apply_crash(&mut self) -> ApplyOutcome {
        self.last_hash = None;
        self.crashes += 1;
        for t in &mut self.targets {
            if let Err(e) = t.pre_op() {
                let msg = format!("{}: pre-crash mount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        // The state being crashed is always a legal recovery point: a file
        // system that persists everything synchronously loses nothing.
        let pre = match self.hash_all() {
            Ok(h) => h,
            Err(e) => {
                let msg = format!("state traversal failed before crash: {e}");
                return self.violation(msg);
            }
        };
        let mut allowed = self.prefix_hashes.clone();
        allowed.push(pre[0].as_u128());
        // Crash + recovery mount on every target.
        for t in &mut self.targets {
            if let Err(e) = t.crash_remount() {
                let msg = format!(
                    "{}: crash recovery failed: {e} (file system not remountable after power cut)",
                    t.name()
                );
                return self.violation(msg);
            }
        }
        self.charge(self.cfg.syscall_cpu_ns * self.targets.len() as u64);
        let recovered = match self.hash_all() {
            Ok(h) => h,
            Err(e) => {
                let msg =
                    format!("state traversal failed after crash recovery: {e} (recovery corrupted the file system?)");
                return self.violation(msg);
            }
        };
        // Oracle: every target individually recovered to an allowed state?
        for (t, h) in self.targets.iter().zip(&recovered) {
            if !allowed.contains(&h.as_u128()) {
                let names: Vec<String> = self.targets.iter().map(|x| x.name()).collect();
                let msg = format!(
                    "crash-consistency violation: {} recovered to a state outside the \
                     prefix window ({} allowed states; targets: {})",
                    t.name(),
                    allowed.len(),
                    names.join(", ")
                );
                return self.violation(msg);
            }
        }
        // All recoveries valid — but lockstep checking needs them equal.
        if recovered.windows(2).any(|w| w[0] != w[1]) {
            self.crash_divergences += 1;
            for t in &mut self.targets {
                let _ = t.post_op();
            }
            return ApplyOutcome::Prune(
                "crash recoveries diverged (each prefix-consistent)".into(),
            );
        }
        self.crash_recoveries += 1;
        // The recovered state is the new sync floor: everything before it
        // in the window is no longer reachable by a later crash.
        self.prefix_hashes.clear();
        self.prefix_hashes.push(recovered[0].as_u128());
        self.last_hash = Some(recovered[0]);
        for t in &mut self.targets {
            if let Err(e) = t.post_op() {
                let msg = format!("{}: post-crash unmount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        for t in &mut self.targets {
            if let Err(e) = t.track_state() {
                let msg = format!("{}: state tracking failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        ApplyOutcome::Ok
    }

    /// Execute the `fsck` pseudo-operation: run every target's
    /// scan-and-repair pass and check the repair oracle.
    ///
    /// Along any violation-free exploration path the volumes are
    /// consistent, so fsck must be a semantic no-op: the POSIX-observable
    /// state before and after repair is identical on every target (repair
    /// never loses reachable user data), every target converges to the
    /// same state, and a second run is a fixed point — it reports a clean
    /// volume and changes nothing. Internal fixes (counter rebuilds,
    /// quarantined torn log tails after a crash) are allowed on the first
    /// run and counted, but may not survive into the second.
    fn apply_fsck(&mut self) -> ApplyOutcome {
        self.last_hash = None;
        self.fscks += 1;
        for t in &mut self.targets {
            if let Err(e) = t.pre_op() {
                let msg = format!("{}: pre-fsck mount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        let pre = match self.hash_all() {
            Ok(h) => h,
            Err(e) => {
                let msg = format!("state traversal failed before fsck: {e}");
                return self.violation(msg);
            }
        };
        for t in &mut self.targets {
            match t.fsck() {
                Ok(outcome) => self.fsck_repairs += outcome.report.repairs_made,
                Err(e) => {
                    let msg = format!("{}: fsck failed on a consistent volume: {e}", t.name());
                    return self.violation(msg);
                }
            }
        }
        self.charge(self.cfg.syscall_cpu_ns * self.targets.len() as u64);
        let post = match self.hash_all() {
            Ok(h) => h,
            Err(e) => {
                let msg = format!(
                    "state traversal failed after fsck: {e} (repair corrupted the file system?)"
                );
                return self.violation(msg);
            }
        };
        // Oracle 1: repair preserves the observable state of a consistent
        // volume — per target, so a lost file cannot hide behind lockstep
        // agreement on the loss.
        for (t, (before, after)) in self.targets.iter().zip(pre.iter().zip(&post)) {
            if before != after {
                let msg = format!(
                    "repair-safety violation: fsck changed {}'s observable state on a \
                     consistent volume (reachable data lost or invented)",
                    t.name()
                );
                return self.violation(msg);
            }
        }
        // Oracle 2: all targets converged (implied by oracle 1 when the
        // pre-states agreed, but checked so the message names fsck).
        if post.windows(2).any(|w| w[0] != w[1]) {
            let msg = self.describe_discrepancy("post-fsck abstract-state", &FsOp::Fsck, &post);
            return self.violation(msg);
        }
        // Oracle 3: fsck ∘ fsck ≡ fsck. The second run must find a clean
        // volume and fix nothing.
        for t in &mut self.targets {
            match t.fsck() {
                Ok(outcome) => {
                    if !outcome.report.is_clean() {
                        let msg = format!(
                            "repair-idempotence violation: second fsck on {} still made {} \
                             repair(s): {}",
                            t.name(),
                            outcome.report.repairs_made,
                            outcome.report.fixes.join("; ")
                        );
                        return self.violation(msg);
                    }
                }
                Err(e) => {
                    let msg = format!("{}: second fsck failed: {e}", t.name());
                    return self.violation(msg);
                }
            }
        }
        self.charge(self.cfg.syscall_cpu_ns * self.targets.len() as u64);
        let settled = match self.hash_all() {
            Ok(h) => h,
            Err(e) => {
                let msg = format!("state traversal failed after second fsck: {e}");
                return self.violation(msg);
            }
        };
        if settled != post {
            return self.violation(
                "repair-idempotence violation: second fsck changed the abstract state".into(),
            );
        }
        // fsck writes everything back and commits, so the repaired state is
        // a new sync floor for the crash oracle — a later crash recovering
        // to anything earlier would have lost repaired-and-synced data.
        if self.cfg.crash_exploration {
            self.prefix_hashes.clear();
        }
        self.last_hash = Some(post[0]);
        self.push_prefix(post[0].as_u128());
        for t in &mut self.targets {
            if let Err(e) = t.post_op() {
                let msg = format!("{}: post-fsck unmount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        for t in &mut self.targets {
            if let Err(e) = t.track_state() {
                let msg = format!("{}: state tracking failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        ApplyOutcome::Ok
    }
}

impl Mcfs {
    /// Re-seeds a **fresh** harness to the state a persisted frontier entry
    /// names, by replaying its op-prefix through the normal
    /// [`ModelSystem::apply`] path (so crash pseudo-ops, fingerprint
    /// invalidation, and lockstep checks all run exactly as they did when
    /// the prefix was first explored — this determinism is what makes
    /// op-prefix frontiers a sound persistence format).
    ///
    /// Returns the number of ops that applied `Ok`. A `Prune` mid-prefix is
    /// tolerated (the entry is stale — e.g. pool bounds changed — and the
    /// caller should drop it); a `Violation` is an error, because a prefix
    /// that was explored violation-free must replay violation-free on an
    /// identically configured harness.
    pub fn reseed_from_prefix(&mut self, prefix: &[FsOp]) -> Result<usize, String> {
        let mut applied = 0usize;
        for (i, op) in prefix.iter().enumerate() {
            match ModelSystem::apply(self, op) {
                ApplyOutcome::Ok => applied += 1,
                ApplyOutcome::Prune(_) => {}
                ApplyOutcome::Violation(msg) => {
                    return Err(format!(
                        "prefix replay violated at op {i} ({}): {msg}",
                        op.name()
                    ));
                }
            }
        }
        Ok(applied)
    }
}

impl ModelSystem for Mcfs {
    type Op = FsOp;

    fn ops(&mut self) -> Vec<FsOp> {
        self.ops.clone()
    }

    fn apply(&mut self, op: &FsOp) -> ApplyOutcome {
        // The crash and fsck pseudo-ops never reach per-target execution:
        // the harness intercepts them and runs their oracles instead.
        if matches!(op, FsOp::Crash) {
            return self.apply_crash();
        }
        if matches!(op, FsOp::Fsck) {
            return self.apply_fsck();
        }
        self.last_hash = None;
        // Phase 0: mount (remount strategies).
        for t in &mut self.targets {
            if let Err(e) = t.pre_op() {
                let msg = format!("{}: pre-op mount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        // Phase 0.5: drop cached fingerprints for the paths this operation
        // touches. This must happen *before* execution so the invalidation
        // logic can observe pre-operation link counts (hardlink aliasing).
        if self.cfg.incremental_fingerprint && op.is_mutation() {
            let touched = op.touched_paths();
            for t in &mut self.targets {
                t.invalidate_fingerprints(&touched);
            }
        }
        // Phase 1: execute on every file system.
        let exceptions = &self.cfg.abstraction.exceptions;
        let sort_entries = self.cfg.abstraction.sort_entries;
        let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(self.targets.len());
        for t in &mut self.targets {
            outcomes.push(execute_with(t.fs_mut(), op, exceptions, sort_entries));
        }
        self.charge(self.cfg.syscall_cpu_ns * self.targets.len() as u64);
        // Phase 2: integrity check — return values and error codes.
        if outcomes.windows(2).any(|w| w[0] != w[1]) {
            let msg = self.describe_discrepancy("outcome", op, &outcomes);
            return self.violation(msg);
        }
        self.coverage.record(op, &outcomes[0]);
        // Phase 3: integrity check — abstract states (file data + metadata).
        let hashes = match self.hash_all() {
            Ok(h) => h,
            Err(e) => {
                let msg =
                    format!("state traversal failed after {op}: {e} (file system corrupted?)");
                return self.violation(msg);
            }
        };
        if hashes.windows(2).any(|w| w[0] != w[1]) {
            let msg = self.describe_discrepancy("abstract-state", op, &hashes);
            return self.violation(msg);
        }
        self.last_hash = Some(hashes[0]);
        self.push_prefix(hashes[0].as_u128());
        // Phase 4: unmount (remount strategies).
        for t in &mut self.targets {
            if let Err(e) = t.post_op() {
                let msg = format!("{}: post-op unmount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        // Phase 5: per-transition state tracking (SPIN reading the tracked
        // buffers; free for the checkpoint-API strategy).
        for t in &mut self.targets {
            if let Err(e) = t.track_state() {
                let msg = format!("{}: state tracking failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        ApplyOutcome::Ok
    }

    fn abstract_state(&mut self) -> u128 {
        // Visited-set identity = the POSIX-observable abstraction plus the
        // opaque digests: two states that hash equal but differ in hidden
        // implementation state (e.g. stale bytes beyond EOF that a later
        // hole write exposes) must not be matched away by the explorer.
        // Cross-target comparisons stay on the pure hashes — targets may
        // legitimately differ in hidden state.
        self.pure_abstract_state() ^ target::opaque_digest_fold(&mut self.targets)
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        let total = target::save_all(&mut self.targets, id.0)?;
        self.charge_ckpt_spill();
        if self.cfg.crash_exploration {
            // Checkpointing syncs device-backed targets, so this state is a
            // new sync floor: the crash window restarts here, and a restore
            // of this checkpoint re-adopts it. The window stores *pure*
            // hashes (the oracle compares against `hash_all` results), so
            // the opaque-digest fold must stay out of it.
            let h = self.pure_abstract_state();
            self.ckpt_hashes.insert(id.0, h);
            self.prefix_hashes.clear();
            self.prefix_hashes.push(h);
        }
        Ok(total)
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        self.last_hash = None;
        target::load_all(&mut self.targets, id.0)?;
        if self.cfg.crash_exploration {
            // Back on the checkpointed state: its window applies again. If
            // the record is gone the window starts empty — safe, because
            // the oracle always admits the pre-crash state.
            self.prefix_hashes.clear();
            if let Some(&h) = self.ckpt_hashes.get(&id.0) {
                self.prefix_hashes.push(h);
            }
        }
        self.charge_ckpt_spill();
        Ok(())
    }

    fn release(&mut self, id: StateId) {
        target::drop_all(&mut self.targets, id.0);
    }

    fn pin(&mut self, id: StateId) {
        target::pin_all(&mut self.targets, id.0);
    }

    fn unpin(&mut self, id: StateId) {
        target::unpin_all(&mut self.targets, id.0);
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        target::merged_store_stats(&self.targets)
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.cfg.crash_exploration.then_some(CrashStats {
            crashes: self.crashes,
            recoveries: self.crash_recoveries,
            divergent_recoveries: self.crash_divergences,
        })
    }

    fn minimize(
        &mut self,
        trace: &[FsOp],
        message: &str,
    ) -> Option<(Vec<FsOp>, modelcheck::ShrinkStats)> {
        if !self.cfg.minimize_violations {
            return None;
        }
        let factory = self.factory.clone()?;
        crate::shrink::shrink_trace(
            factory.as_ref(),
            trace,
            message,
            &crate::shrink::ShrinkConfig::default(),
        )
        .map(|o| (o.trace, o.stats))
    }

    fn independent(&self, a: &FsOp, b: &FsOp) -> bool {
        self.effects.independent(a, b)
    }
}

/// Replays a recorded operation trace against a fresh harness, reporting the
/// index and message of the first violating operation (the paper highlights
/// how precise traces make bugs easy to reproduce and fix, §6).
///
/// This answers "did *a* violation fire?", not "did *the recorded*
/// violation fire?" — with several seeded bugs a replay can trip a
/// different bug earlier in the trace. Callers confirming a specific
/// counterexample must compare messages: use [`replay_checked`].
pub fn replay(harness: &mut Mcfs, trace: &[FsOp]) -> Option<(usize, String)> {
    for (i, op) in trace.iter().enumerate() {
        match harness.apply(op) {
            ApplyOutcome::Violation(msg) => return Some((i, msg)),
            ApplyOutcome::Ok | ApplyOutcome::Prune(_) => {}
        }
    }
    None
}

/// Outcome of a message-checked replay ([`replay_checked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The first violation during replay carried exactly the expected
    /// message; the counterexample is confirmed at this op index.
    Reproduced { index: usize },
    /// A violation fired, but with a different message — a *different* bug
    /// tripped (possibly earlier in the trace). The counterexample is NOT
    /// confirmed; trusting it would misattribute the failure.
    DifferentViolation { index: usize, message: String },
    /// The whole trace replayed without any violation.
    NoViolation,
}

impl ReplayOutcome {
    /// Whether the replay confirmed the expected violation.
    pub fn reproduced(&self) -> bool {
        matches!(self, ReplayOutcome::Reproduced { .. })
    }
}

/// Replays `trace` and checks that the **first** violation to fire carries
/// exactly `expected` — the trustworthy confirmation the shrinker and the
/// crash-consistency tests need. Replay stops at the first violation either
/// way: after one fires the harness states have already diverged, so later
/// outcomes prove nothing.
pub fn replay_checked(harness: &mut Mcfs, trace: &[FsOp], expected: &str) -> ReplayOutcome {
    match replay(harness, trace) {
        Some((index, message)) if message == expected => ReplayOutcome::Reproduced { index },
        Some((index, message)) => ReplayOutcome::DifferentViolation { index, message },
        None => ReplayOutcome::NoViolation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{CheckpointTarget, RemountMode, RemountTarget};
    use verifs::{BugConfig, VeriFs};
    use vfs::FileSystem;

    fn verifs_pair(bugs_on_second: BugConfig) -> Mcfs {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2_with_bugs(bugs_on_second);
        b.mount().unwrap();
        Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn requires_two_targets() {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let r = Mcfs::new(
            vec![Box::new(CheckpointTarget::new(a))],
            McfsConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn identical_systems_never_diverge() {
        let mut m = verifs_pair(BugConfig::none());
        for op in m.ops() {
            if let ApplyOutcome::Violation(msg) = m.apply(&op) {
                panic!("false positive on {op}: {msg}")
            }
        }
    }

    #[test]
    fn checkpoint_restore_drives_the_pair() {
        let mut m = verifs_pair(BugConfig::none());
        let h0 = m.abstract_state();
        m.checkpoint(StateId(1)).unwrap();
        let create = FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        };
        assert!(matches!(m.apply(&create), ApplyOutcome::Ok));
        assert_ne!(m.abstract_state(), h0);
        m.restore(StateId(1)).unwrap();
        assert_eq!(m.abstract_state(), h0);
        m.release(StateId(1));
    }

    #[test]
    fn truncate_bug_is_detected_as_divergence() {
        let mut m = verifs_pair(BugConfig {
            v1_truncate_no_zero: true,
            ..BugConfig::default()
        });
        // Recreate the bug scenario: write, shrink, expand, compare.
        let script = [
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 10,
                seed: 1,
            },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 2,
            },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 10,
            },
        ];
        let mut violated = false;
        for op in &script {
            if let ApplyOutcome::Violation(msg) = m.apply(op) {
                assert!(msg.contains("abstract-state"), "{msg}");
                violated = true;
                break;
            }
        }
        assert!(violated, "the truncate bug must be detected");
    }

    #[test]
    fn errno_differences_are_detected() {
        // A VeriFS2 with a tiny inode table vs a default one: creating many
        // files hits ENOSPC on one side only.
        let mut small_cfg = verifs::VeriFsConfig::v2();
        small_cfg.max_inodes = 4;
        let mut a = VeriFs::with_config(small_cfg);
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig {
                equalize_free_space: false,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        let mut violated = false;
        for i in 0..6 {
            let op = FsOp::CreateFile {
                path: format!("/file{i}"),
                mode: 0o644,
            };
            if let ApplyOutcome::Violation(msg) = m.apply(&op) {
                assert!(msg.contains("outcome"), "{msg}");
                assert!(msg.contains("ENOSPC"), "{msg}");
                violated = true;
                break;
            }
        }
        assert!(violated, "inode exhaustion asymmetry must be detected");
    }

    #[test]
    fn ext_pair_with_remount_strategy_explores_cleanly() {
        let e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(RemountTarget::new(e2, RemountMode::PerOp)),
                Box::new(RemountTarget::new(e4, RemountMode::PerOp)),
            ],
            McfsConfig::default(),
        )
        .unwrap();
        // lost+found exists only on ext4: the exception list must hide it.
        let getdents = FsOp::Getdents { path: "/".into() };
        assert!(matches!(m.apply(&getdents), ApplyOutcome::Ok));
        // A few mutations and a checkpoint/restore cycle.
        m.checkpoint(StateId(0)).unwrap();
        for op in [
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            FsOp::CreateFile {
                path: "/d0/f2".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/d0/f2".into(),
                offset: 0,
                size: 100,
                seed: 3,
            },
        ] {
            match m.apply(&op) {
                ApplyOutcome::Ok => {}
                other => panic!("{op}: {other:?}"),
            }
        }
        let h_after = m.abstract_state();
        m.restore(StateId(0)).unwrap();
        assert_ne!(m.abstract_state(), h_after);
    }

    #[test]
    fn capability_intersection_excludes_v1_unsupported_ops() {
        let mut a = VeriFs::v1();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let m = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig {
                pool: PoolConfig::medium(),
                ..McfsConfig::default()
            },
        )
        .unwrap();
        assert!(m
            .op_pool()
            .iter()
            .all(|op| !matches!(op, FsOp::Rename { .. } | FsOp::Hardlink { .. })));
    }

    #[test]
    fn equalization_makes_enospc_symmetric() {
        // ext2 and ext4 on same-size devices have different usable capacity
        // (journal): without equalization, filling the disk diverges.
        let run = |equalize: bool| -> bool {
            let e2 = fs_ext::ext2_on_ram(128 * 1024).unwrap();
            let e4 = fs_ext::ext4_on_ram(128 * 1024).unwrap();
            let mut m = Mcfs::new(
                vec![
                    Box::new(RemountTarget::new(e2, RemountMode::OnRestore)),
                    Box::new(RemountTarget::new(e4, RemountMode::OnRestore)),
                ],
                McfsConfig {
                    equalize_free_space: equalize,
                    ..McfsConfig::default()
                },
            )
            .unwrap();
            // Write until the smaller one fills.
            let mut create_seen_violation = false;
            'outer: for i in 0..40 {
                let ops = [
                    FsOp::CreateFile {
                        path: format!("/fill{i}"),
                        mode: 0o644,
                    },
                    FsOp::WriteFile {
                        path: format!("/fill{i}"),
                        offset: 0,
                        size: 4096,
                        seed: 1,
                    },
                ];
                for op in ops {
                    if let ApplyOutcome::Violation(_) = m.apply(&op) {
                        create_seen_violation = true;
                        break 'outer;
                    }
                }
            }
            create_seen_violation
        };
        assert!(run(false), "without equalization, ENOSPC diverges");
        assert!(!run(true), "equalization removes the false positive");
    }

    #[test]
    fn majority_voting_names_the_suspect() {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let mut c = VeriFs::v2_with_bugs(BugConfig {
            v2_size_only_on_capacity_growth: true,
            ..BugConfig::default()
        });
        c.mount().unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
                Box::new(CheckpointTarget::new(c)),
            ],
            McfsConfig::default(),
        )
        .unwrap();
        // Trigger bug 4: create (capacity grows), append within capacity.
        let script = [
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 10,
                seed: 1,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 10,
                size: 10,
                seed: 2,
            },
        ];
        let mut caught = None;
        for op in &script {
            if let ApplyOutcome::Violation(msg) = m.apply(op) {
                caught = Some(msg);
                break;
            }
        }
        let msg = caught.expect("bug 4 must diverge");
        assert!(msg.contains("majority vote"), "{msg}");
        assert!(msg.contains("suspect"), "{msg}");
    }

    #[test]
    fn incremental_and_full_hashing_agree_across_a_run() {
        // The tentpole cross-check at the harness level: the incremental
        // fingerprint path and a full per-op rehash must report identical
        // abstract states through mutations, hardlinks, renames, and a
        // checkpoint/restore round-trip.
        let script = [
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            FsOp::CreateFile {
                path: "/d0/f1".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/d0/f1".into(),
                offset: 0,
                size: 100,
                seed: 7,
            },
            FsOp::Hardlink {
                src: "/d0/f1".into(),
                dst: "/alias".into(),
            },
            FsOp::WriteFile {
                path: "/alias".into(),
                offset: 50,
                size: 20,
                seed: 9,
            },
            FsOp::Rename {
                src: "/d0".into(),
                dst: "/d1".into(),
            },
            FsOp::Truncate {
                path: "/alias".into(),
                size: 10,
            },
            FsOp::Unlink {
                path: "/d1/f1".into(),
            },
        ];
        let run = |incremental: bool| -> Vec<u128> {
            let mut a = VeriFs::v2();
            a.mount().unwrap();
            let mut b = VeriFs::v2();
            b.mount().unwrap();
            let mut m = Mcfs::new(
                vec![
                    Box::new(CheckpointTarget::new(a)),
                    Box::new(CheckpointTarget::new(b)),
                ],
                McfsConfig {
                    incremental_fingerprint: incremental,
                    ..McfsConfig::default()
                },
            )
            .unwrap();
            let mut hashes = vec![m.abstract_state()];
            m.checkpoint(StateId(42)).unwrap();
            for op in &script {
                assert!(matches!(m.apply(op), ApplyOutcome::Ok), "{op}");
                hashes.push(m.abstract_state());
            }
            m.restore(StateId(42)).unwrap();
            hashes.push(m.abstract_state());
            m.release(StateId(42));
            hashes
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn crash_op_joins_the_pool_only_when_enabled() {
        let m = verifs_pair(BugConfig::none());
        assert!(!m.op_pool().contains(&FsOp::Crash));
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let m = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig {
                crash_exploration: true,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        assert!(m.op_pool().contains(&FsOp::Crash));
    }

    #[test]
    fn crash_exploration_requires_crash_capable_targets() {
        let e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        let r = Mcfs::new(
            vec![
                Box::new(RemountTarget::new(e2, RemountMode::Never)),
                Box::new(RemountTarget::new(e4, RemountMode::Never)),
            ],
            McfsConfig {
                crash_exploration: true,
                ..McfsConfig::default()
            },
        );
        assert_eq!(r.err(), Some(Errno::ENOSYS));
    }

    #[test]
    fn identical_verifs_pair_survives_crashes() {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig {
                crash_exploration: true,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        let script = [
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::Crash,
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 10,
                seed: 1,
            },
            FsOp::Crash,
        ];
        for op in &script {
            assert!(matches!(m.apply(op), ApplyOutcome::Ok), "{op}");
        }
        let stats = m.crash_stats().expect("crash stats enabled");
        assert_eq!(stats.crashes, 2);
        assert_eq!(stats.recoveries, 2);
        assert_eq!(stats.divergent_recoveries, 0);
    }

    #[test]
    fn ext_pair_recovers_every_synced_op_across_a_crash() {
        // Per-op remount syncs after every operation, so a crash must lose
        // nothing: the recovered state equals the pre-crash state.
        let e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(RemountTarget::new(e2, RemountMode::PerOp)),
                Box::new(RemountTarget::new(e4, RemountMode::PerOp)),
            ],
            McfsConfig {
                crash_exploration: true,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        for op in [
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            FsOp::CreateFile {
                path: "/d0/f1".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/d0/f1".into(),
                offset: 0,
                size: 512,
                seed: 7,
            },
        ] {
            assert!(matches!(m.apply(&op), ApplyOutcome::Ok), "{op}");
        }
        let before = m.abstract_state();
        assert!(matches!(m.apply(&FsOp::Crash), ApplyOutcome::Ok));
        assert_eq!(m.abstract_state(), before, "synced ops must survive");
        let stats = m.crash_stats().unwrap();
        assert_eq!((stats.crashes, stats.recoveries), (1, 1));
    }

    #[test]
    fn fsck_op_joins_the_pool_only_when_supported() {
        let m = verifs_pair(BugConfig::none());
        assert!(!m.op_pool().contains(&FsOp::Fsck));
        assert!(m.fsck_stats().is_none());
        // VeriFS has no on-disk layout to repair.
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let r = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig {
                fsck_exploration: true,
                ..McfsConfig::default()
            },
        );
        assert_eq!(r.err(), Some(Errno::ENOSYS));
    }

    #[test]
    fn ext_pair_explores_fsck_as_a_noop_on_consistent_volumes() {
        let e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(RemountTarget::new(e2, RemountMode::Never)),
                Box::new(RemountTarget::new(e4, RemountMode::Never)),
            ],
            McfsConfig {
                fsck_exploration: true,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        assert!(m.op_pool().contains(&FsOp::Fsck));
        for op in [
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            FsOp::CreateFile {
                path: "/d0/f1".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/d0/f1".into(),
                offset: 0,
                size: 512,
                seed: 7,
            },
        ] {
            assert!(matches!(m.apply(&op), ApplyOutcome::Ok), "{op}");
        }
        let before = m.abstract_state();
        assert!(matches!(m.apply(&FsOp::Fsck), ApplyOutcome::Ok));
        assert_eq!(m.abstract_state(), before, "fsck must preserve the state");
        // fsck mid-schedule must not wedge the run.
        assert!(matches!(
            m.apply(&FsOp::Unlink {
                path: "/d0/f1".into()
            }),
            ApplyOutcome::Ok
        ));
        let stats = m.fsck_stats().expect("fsck stats enabled");
        assert_eq!(stats.fscks, 1);
    }

    #[test]
    fn ext_jffs2_pair_survives_fsck_and_crash_interleaving() {
        let e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
        let j = fs_jffs2::jffs2_on_mtdram(16 * 1024, 16).unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(RemountTarget::new(e2, RemountMode::PerOp)),
                Box::new(RemountTarget::new(j, RemountMode::PerOp)),
            ],
            McfsConfig {
                crash_exploration: true,
                fsck_exploration: true,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        let script = [
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::Fsck,
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 64,
                seed: 3,
            },
            FsOp::Crash,
            FsOp::Fsck,
        ];
        for op in &script {
            let out = m.apply(op);
            assert!(matches!(out, ApplyOutcome::Ok), "{op}: {out:?}");
        }
        let stats = m.fsck_stats().unwrap();
        assert_eq!(stats.fscks, 2);
        assert_eq!(m.crash_stats().unwrap().crashes, 1);
    }

    #[test]
    fn violations_leave_per_op_targets_unmounted() {
        // Regression: every violation return must still run phase-4
        // cleanup, or per-op remount targets stay mounted and a subsequent
        // replay diverges from what exploration observed.
        let small = fs_ext::ext2_on_ram(128 * 1024).unwrap();
        let big = fs_ext::ext2_on_ram(512 * 1024).unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(RemountTarget::new(small, RemountMode::PerOp)),
                Box::new(RemountTarget::new(big, RemountMode::PerOp)),
            ],
            McfsConfig {
                equalize_free_space: false,
                ..McfsConfig::default()
            },
        )
        .unwrap();
        let mut violated = false;
        for i in 0..40 {
            let ops = [
                FsOp::CreateFile {
                    path: format!("/fill{i}"),
                    mode: 0o644,
                },
                FsOp::WriteFile {
                    path: format!("/fill{i}"),
                    offset: 0,
                    size: 4096,
                    seed: 1,
                },
            ];
            for op in ops {
                if let ApplyOutcome::Violation(_) = m.apply(&op) {
                    violated = true;
                    break;
                }
            }
            if violated {
                break;
            }
        }
        assert!(violated, "capacity asymmetry must diverge");
        for t in &mut m.targets {
            assert!(
                !t.fs_mut().is_mounted(),
                "{}: left mounted after a violation",
                t.name()
            );
        }
    }

    #[test]
    fn replay_reproduces_recorded_traces() {
        let mut m = verifs_pair(BugConfig {
            v2_hole_no_zero: true,
            ..BugConfig::default()
        });
        let trace = vec![
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 40,
                seed: 1,
            },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 1,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 30,
                size: 4,
                seed: 2,
            },
        ];
        let hit = replay(&mut m, &trace);
        assert!(hit.is_some(), "the hole bug must reproduce on replay");
        let (idx, msg) = hit.unwrap();
        assert_eq!(idx, 3, "divergence at the hole-creating write");
        assert!(msg.contains("discrepancy"));
    }

    /// Regression for the trusting-replay bug: with a second seeded bug in
    /// the replay pair, the naive `replay` trips that *other* bug earlier in
    /// the trace and "confirms" the counterexample anyway. `replay_checked`
    /// compares messages and refuses.
    #[test]
    fn replay_checked_rejects_a_different_bug() {
        // The recorded trace: three ops exercising append-within-capacity
        // on /f1 (harmless for the hole bug), then the 4-op hole pattern
        // on /f0. Recorded against a hole-bug-only pair.
        let trace = vec![
            FsOp::CreateFile {
                path: "/f1".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/f1".into(),
                offset: 0,
                size: 10,
                seed: 1,
            },
            FsOp::WriteFile {
                path: "/f1".into(),
                offset: 10,
                size: 10,
                seed: 2,
            },
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 40,
                seed: 1,
            },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 1,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 30,
                size: 4,
                seed: 2,
            },
        ];
        let mut recorder = verifs_pair(BugConfig {
            v2_hole_no_zero: true,
            ..BugConfig::default()
        });
        let (idx, msg) = replay(&mut recorder, &trace).expect("hole bug must fire");
        assert_eq!(idx, 6, "hole bug fires at the final write");

        // Replay in an environment that also carries the size bug: a
        // different violation fires earlier, at the /f1 append.
        let both = BugConfig {
            v2_hole_no_zero: true,
            v2_size_only_on_capacity_growth: true,
            ..BugConfig::default()
        };
        let naive = replay(&mut verifs_pair(both), &trace);
        let (naive_idx, naive_msg) = naive.expect("some violation fires");
        assert!(
            naive_idx < idx,
            "the second bug trips earlier ({naive_idx} < {idx}), yet naive \
             replay still reports success"
        );
        assert_ne!(naive_msg, msg, "and with a different diagnosis");

        // The checked replay tells the two apart.
        match replay_checked(&mut verifs_pair(both), &trace, &msg) {
            ReplayOutcome::DifferentViolation { index, message } => {
                assert_eq!(index, naive_idx);
                assert_eq!(message, naive_msg);
            }
            other => panic!("expected DifferentViolation, got {other:?}"),
        }
        // And still confirms against the faithful environment.
        let faithful = BugConfig {
            v2_hole_no_zero: true,
            ..BugConfig::default()
        };
        assert_eq!(
            replay_checked(&mut verifs_pair(faithful), &trace, &msg),
            ReplayOutcome::Reproduced { index: idx }
        );
    }
}

//! The MCFS harness: N file systems driven in lockstep as one model system.
//!
//! Each operation is executed on every checked file system; the integrity
//! check then asserts equality of return values, error codes, file data and
//! metadata (via the abstraction function). Any discrepancy is reported as a
//! violation with the precise operation sequence that led to it (§2). The
//! lockstep step itself is [`crate::lockstep`]'s; this harness adds the op
//! pool, free-space equalization, the crash and fsck oracles, coverage and
//! counterexample minimization.

use std::collections::HashMap;
use std::sync::Arc;

use blockdev::Clock;
use modelcheck::{
    ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, SpillStore, StateId,
};
use vfs::{Errno, FileMode, OpenFlags, VfsResult};

use crate::abstraction::AbstractionConfig;
use crate::coverage::Coverage;
use crate::effect::EffectIndex;
use crate::lockstep::Lockstep;
use crate::pool::{FsOp, PoolConfig};
use crate::shrink::{shrink_trace, ShrinkConfig};
use crate::target::{self, CheckedTarget};

/// Name of the dummy file written to equalize free space (§3.4); always on
/// the abstraction exception list.
pub const EQUALIZE_DUMMY: &str = ".mcfs_space_dummy";

/// Cap on the equalization dummy file: a file system with more free space
/// than this is effectively unbounded next to the bounded op pools (e.g.
/// VeriFS1), and is left alone.
const EQUALIZE_CAP_BYTES: u64 = 64 << 20;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct McfsConfig {
    /// Operation/parameter pools.
    pub pool: PoolConfig,
    /// Abstraction-function settings (exception list etc.).
    pub abstraction: AbstractionConfig,
    /// Equalize usable capacity across file systems at start (§3.4).
    pub equalize_free_space: bool,
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
    /// to explorers as a budget-driven stop, not a fatal error. Under an
    /// explorer's out-of-core budget (`ExploreConfig::mem_budget`) pressure
    /// demotes device snapshots to the run's spill file instead
    /// (COW-chunk deduplicated). `None` (the default) never evicts.
    pub checkpoint_budget_bytes: Option<usize>,
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
}

impl Default for McfsConfig {
    fn default() -> Self {
        McfsConfig {
            pool: PoolConfig::small(),
            abstraction: AbstractionConfig::default(),
            equalize_free_space: true,
            incremental_fingerprint: true,
            checkpoint_budget_bytes: None,
            crash_exploration: false,
            fsck_exploration: false,
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
/// checked — the replay-validation factory counterexample minimization
/// runs against ([`Mcfs::with_factory`], [`crate::shrink`]).
pub type HarnessFactory = dyn Fn() -> VfsResult<Mcfs> + Send + Sync;

/// The MCFS harness: implements [`ModelSystem`] over N checked targets so
/// any `modelcheck` explorer can drive it.
pub struct Mcfs {
    core: Lockstep,
    ops: Vec<FsOp>,
    coverage: Coverage,
    /// The prefix window to re-adopt when a checkpoint is restored.
    ckpt_hashes: HashMap<u64, u128>,
    crashes: u64,
    crash_recoveries: u64,
    crash_divergences: u64,
    fsck_exploration: bool,
    fscks: u64,
    fsck_repairs: u64,
    /// Builds a fresh equivalent harness; candidate traces from the
    /// minimizer replay against factory products, never against this
    /// (already violated) instance. Attached, it turns minimization on.
    factory: Option<Arc<HarnessFactory>>,
    /// Precomputed signature-derived independence over the filtered pool.
    effects: EffectIndex,
    /// The run's spill store, which the targets' checkpoint pools demote
    /// to ([`ModelSystem::attach_spill`]); drained into the virtual clock
    /// after each checkpoint and restore so their page traffic costs
    /// virtual time.
    ckpt_spill: Option<Arc<SpillStore>>,
}

impl std::fmt::Debug for Mcfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mcfs")
            .field("targets", &self.core.target_names())
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
        for t in &mut targets {
            t.set_checkpoint_budget(cfg.checkpoint_budget_bytes);
        }
        // Intersect capabilities and generate the bounded op set. The POR
        // alias classes come from the `Hardlink` ops that survive it.
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
        let (core, effects) = Lockstep::new(
            targets,
            clock,
            cfg.abstraction,
            cfg.incremental_fingerprint,
            cfg.crash_exploration,
            &ops,
        )?;
        let mut harness = Mcfs {
            core,
            ops,
            coverage: Coverage::new(),
            ckpt_hashes: HashMap::new(),
            crashes: 0,
            crash_recoveries: 0,
            crash_divergences: 0,
            fsck_exploration: cfg.fsck_exploration,
            fscks: 0,
            fsck_repairs: 0,
            factory: None,
            effects,
            ckpt_spill: None,
        };
        if cfg.equalize_free_space {
            harness.equalize()?;
        }
        harness.core.agree()?;
        Ok(harness)
    }

    /// The capability-filtered operation set.
    pub fn op_pool(&self) -> &[FsOp] {
        &self.ops
    }

    /// Repair-oracle statistics, when [`McfsConfig::fsck_exploration`] is
    /// on (`None` otherwise).
    pub fn fsck_stats(&self) -> Option<FsckStats> {
        self.fsck_exploration.then_some(FsckStats {
            fscks: self.fscks,
            repairs_made: self.fsck_repairs,
        })
    }

    /// Attaches the replay factory counterexample minimization validates
    /// against, which turns minimization on: every violation's trace is
    /// delta-debugged down to a 1-minimal counterexample before it is
    /// reported ([`crate::shrink`]), each candidate replaying on a *fresh*
    /// harness. The factory must rebuild a harness equivalent to this one —
    /// same targets, same seeded bugs, same fault plans — deterministically.
    /// Without a factory nothing is minimized; minimization costs replays
    /// at violation time.
    #[must_use]
    pub fn with_factory(mut self, factory: Arc<HarnessFactory>) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Target names, for reports.
    pub fn target_names(&self) -> Vec<String> {
        self.core.target_names()
    }

    /// Operation/outcome coverage accumulated so far (§7 future work:
    /// coverage tracking while model-checking).
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Drains the checkpoint spill store's accumulated page-traffic cost
    /// into the virtual clock (demotions/promotions happened since the last
    /// drain).
    fn charge_ckpt_spill(&self) {
        if let Some(s) = &self.ckpt_spill {
            self.core.charge(s.take_pending_ns());
        }
    }

    /// Free-space equalization (§3.4): find the smallest available capacity
    /// `S_L`, then on every other file system write `S_n - S_L` zeros into a
    /// dummy file so `write` fills all of them at the same point.
    fn equalize(&mut self) -> VfsResult<()> {
        let targets = &mut self.core.targets;
        // Iterate: the dummy file itself consumes metadata (indirect
        // blocks, directory growth), so one round typically leaves a small
        // residual imbalance.
        for _round in 0..8 {
            let mut avails = Vec::with_capacity(targets.len());
            for t in targets.iter_mut() {
                avails.push(t.fs_mut().statfs()?.bytes_avail());
            }
            let lowest = *avails.iter().min().expect("at least two targets");
            if avails
                .iter()
                .all(|&a| a == lowest || a > EQUALIZE_CAP_BYTES)
            {
                break;
            }
            for (t, &avail) in targets.iter_mut().zip(&avails) {
                let surplus = avail - lowest;
                // Pairing with an effectively unbounded file system (e.g.
                // VeriFS1): skip; the bounded pools never reach its limit.
                if surplus == 0 || avail > EQUALIZE_CAP_BYTES {
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
    fn apply_crash(&mut self) -> Result<(), ApplyOutcome> {
        self.crashes += 1;
        let pre = self.core.crash_prelude()?;
        let mut allowed = self.core.prefix_hashes.clone();
        allowed.push(pre);
        let names = self.core.target_names().join(", ");
        let recovered = self.core.recover()?;
        self.core.judge(
            &recovered,
            |h| allowed.contains(&h),
            |name| {
                format!(
                    "crash-consistency violation: {name} recovered to a state outside the \
                     prefix window ({} allowed states; targets: {names})",
                    allowed.len()
                )
            },
        )?;
        // All recoveries valid — but lockstep checking needs them equal.
        if recovered.windows(2).any(|w| w[0] != w[1]) {
            self.crash_divergences += 1;
            self.core.unmount_quietly();
            return Err(ApplyOutcome::Prune(
                "crash recoveries diverged (each prefix-consistent)".into(),
            ));
        }
        self.crash_recoveries += 1;
        // The recovered state is the new sync floor: everything before it
        // in the window is no longer reachable by a later crash.
        self.core.prefix_hashes.clear();
        self.core.prefix_hashes.push(recovered[0].as_u128());
        self.core.commit(recovered[0], "post-crash")
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
    fn apply_fsck(&mut self) -> Result<(), ApplyOutcome> {
        let core = &mut self.core;
        core.last_hash = None;
        self.fscks += 1;
        core.mount_all("pre-fsck")?;
        let pre = core.hashes(|e| format!("state traversal failed before fsck: {e}"))?;
        for t in &mut core.targets {
            match t.fsck() {
                Ok(outcome) => self.fsck_repairs += outcome.report.repairs_made,
                Err(e) => {
                    let msg = format!("{}: fsck failed on a consistent volume: {e}", t.name());
                    return Err(core.violation(msg));
                }
            }
        }
        core.charge_syscalls();
        let post = core.hashes(|e| {
            format!("state traversal failed after fsck: {e} (repair corrupted the file system?)")
        })?;
        // Oracle 1: repair preserves the observable state of a consistent
        // volume — per target, so a lost file cannot hide behind lockstep
        // agreement on the loss.
        for (t, (before, after)) in core.targets.iter().zip(pre.iter().zip(&post)) {
            if before != after {
                let msg = format!(
                    "repair-safety violation: fsck changed {}'s observable state on a \
                     consistent volume (reachable data lost or invented)",
                    t.name()
                );
                return Err(core.violation(msg));
            }
        }
        // Oracle 2: all targets converged (implied by oracle 1 when the
        // pre-states agreed, but checked so the message names fsck).
        if post.windows(2).any(|w| w[0] != w[1]) {
            let msg = core.describe_discrepancy("post-fsck abstract-state", &FsOp::Fsck, &post);
            return Err(core.violation(msg));
        }
        // Oracle 3: fsck ∘ fsck ≡ fsck. The second run must find a clean
        // volume and fix nothing.
        for t in &mut core.targets {
            let msg = match t.fsck() {
                Ok(outcome) if outcome.report.is_clean() => continue,
                Ok(outcome) => format!(
                    "repair-idempotence violation: second fsck on {} still made {} \
                     repair(s): {}",
                    t.name(),
                    outcome.report.repairs_made,
                    outcome.report.fixes.join("; ")
                ),
                Err(e) => format!("{}: second fsck failed: {e}", t.name()),
            };
            return Err(core.violation(msg));
        }
        core.charge_syscalls();
        let settled = core.hashes(|e| format!("state traversal failed after second fsck: {e}"))?;
        if settled != post {
            return Err(core.violation(
                "repair-idempotence violation: second fsck changed the abstract state".into(),
            ));
        }
        // fsck writes everything back and commits, so the repaired state is
        // a new sync floor for the crash oracle — a later crash recovering
        // to anything earlier would have lost repaired-and-synced data.
        if core.crash_exploration {
            core.prefix_hashes.clear();
        }
        core.push_prefix(post[0].as_u128());
        core.commit(post[0], "post-fsck")
    }

    /// One pool operation through the lockstep core, recording its agreed
    /// outcome's coverage.
    fn apply_op(&mut self, op: &FsOp) -> Result<(), ApplyOutcome> {
        let outcome = self.core.execute(op, op, None)?;
        self.coverage.record(op, &outcome);
        self.core.settle(op)
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
        let applied = match op {
            FsOp::Crash => self.apply_crash(),
            FsOp::Fsck => self.apply_fsck(),
            _ => self.apply_op(op),
        };
        applied.err().unwrap_or(ApplyOutcome::Ok)
    }

    fn abstract_state(&mut self) -> u128 {
        // Visited-set identity = the POSIX-observable abstraction plus the
        // opaque digests: two states that hash equal but differ in hidden
        // implementation state (e.g. stale bytes beyond EOF that a later
        // hole write exposes) must not be matched away by the explorer.
        // Cross-target comparisons stay on the pure hashes — targets may
        // legitimately differ in hidden state.
        self.core.pure_abstract_state() ^ target::opaque_digest_fold(&mut self.core.targets)
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        let total = target::save_all(&mut self.core.targets, id.0)?;
        self.charge_ckpt_spill();
        if self.core.crash_exploration {
            // Checkpointing syncs device-backed targets, so this state is a
            // new sync floor: the crash window restarts here, and a restore
            // of this checkpoint re-adopts it. The window stores *pure*
            // hashes (the oracle compares against `hash_all` results), so
            // the opaque-digest fold must stay out of it.
            let h = self.core.pure_abstract_state();
            self.ckpt_hashes.insert(id.0, h);
            self.core.prefix_hashes.clear();
            self.core.prefix_hashes.push(h);
        }
        Ok(total)
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        self.core.last_hash = None;
        target::load_all(&mut self.core.targets, id.0)?;
        if self.core.crash_exploration {
            // Back on the checkpointed state: its window applies again. If
            // the record is gone the window starts empty — safe, because
            // the oracle always admits the pre-crash state.
            self.core.prefix_hashes.clear();
            if let Some(&h) = self.ckpt_hashes.get(&id.0) {
                self.core.prefix_hashes.push(h);
            }
        }
        self.charge_ckpt_spill();
        Ok(())
    }

    fn release(&mut self, id: StateId) {
        target::drop_all(&mut self.core.targets, id.0);
    }

    fn pin(&mut self, id: StateId) {
        target::pin_all(&mut self.core.targets, id.0);
    }

    fn unpin(&mut self, id: StateId) {
        target::unpin_all(&mut self.core.targets, id.0);
    }

    fn attach_spill(&mut self, store: &Arc<SpillStore>) {
        for t in &mut self.core.targets {
            t.set_checkpoint_spill(store.clone());
        }
        self.ckpt_spill = Some(store.clone());
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        target::merged_store_stats(&self.core.targets)
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.core.crash_exploration.then_some(CrashStats {
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
        let factory = self.factory.clone()?;
        shrink_trace(trace, message, &ShrinkConfig::default(), |candidate| {
            replay(&mut factory().ok()?, candidate)
        })
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
        for t in &mut m.core.targets {
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

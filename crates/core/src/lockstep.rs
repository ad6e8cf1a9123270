//! The lockstep core both harnesses run on (§2): every operation executes
//! on N checked targets, whose return values, error codes and abstract
//! states must then agree.
//!
//! [`Mcfs`](crate::Mcfs) feeds it one op from its pool at a time;
//! [`ThreadedMcfs`](crate::ThreadedMcfs) one scheduled thread step at a
//! time, charged to that thread's clock lane. The core owns what both
//! need — the targets, the clock, the abstraction settings, the last agreed
//! hash and the crash oracle's prefix window — and words every violation
//! of the shared checks. Each harness keeps only its own oracles and
//! bookkeeping.
//!
//! Phases return `Err(outcome)` to stop the operation: a violation (after
//! best-effort unmounting, so per-op remount targets are never left
//! mounted) or, from a harness's own oracle, a prune.

use std::fmt::{Debug, Display};

use blockdev::Clock;
use mdigest::Digest128;
use modelcheck::ApplyOutcome;
use vfs::{Errno, VfsResult};

use crate::abstraction::{abstract_state, AbstractionConfig};
use crate::effect::{EffectIndex, EffectProfile};
use crate::pool::{execute_with, FsOp, OpOutcome};
use crate::target::CheckedTarget;

/// Virtual CPU time charged per syscall per target.
const SYSCALL_CPU_NS: u64 = 2_000;

/// N checked targets driven in lockstep.
pub(crate) struct Lockstep {
    pub(crate) targets: Vec<Box<dyn CheckedTarget>>,
    clock: Option<Clock>,
    pub(crate) abstraction: AbstractionConfig,
    /// Hash through the targets' fingerprint caches, dropping the paths a
    /// mutation touches before it runs; otherwise re-hash every target in
    /// full after every operation.
    incremental: bool,
    /// Whether post-operation states join the crash oracle's window.
    pub(crate) crash_exploration: bool,
    /// The state every target agreed on after the last operation, while
    /// nothing has changed since.
    pub(crate) last_hash: Option<Digest128>,
    /// Crash-oracle prefix window: abstract states the run has passed
    /// through since the last sync point. A crash recovery must land on
    /// one of these, or on the pre-crash state itself.
    pub(crate) prefix_hashes: Vec<u128>,
}

impl Lockstep {
    /// The shared construction prelude: refuses crash exploration over a
    /// target that cannot crash (`ENOSYS`), mounts every target, and
    /// derives the POR relation from `pool` — every op the harness can
    /// issue — with the kernel-cache and atime profile of these targets.
    pub(crate) fn new(
        mut targets: Vec<Box<dyn CheckedTarget>>,
        clock: Option<Clock>,
        abstraction: AbstractionConfig,
        incremental: bool,
        crash_exploration: bool,
        pool: &[FsOp],
    ) -> VfsResult<(Self, EffectIndex)> {
        // Refusing here beats a misleading violation later.
        if crash_exploration && !targets.iter().all(|t| t.supports_crash()) {
            return Err(Errno::ENOSYS);
        }
        for t in &mut targets {
            t.pre_op()?;
        }
        // Targets behind caching kernel layers make cache-filling reads
        // count as kernel-state writes.
        let kernel_caches = targets.iter_mut().any(|t| t.fs_mut().caches_metadata());
        let profile = EffectProfile::from_pool(pool)
            .with_kernel_caches(kernel_caches)
            .with_atime(abstraction.include_atime);
        let core = Lockstep {
            targets,
            clock,
            abstraction,
            incremental,
            crash_exploration,
            last_hash: None,
            prefix_hashes: Vec::new(),
        };
        Ok((core, EffectIndex::new(pool, profile)))
    }

    /// Ends construction: the initial states must agree (`EINVAL`
    /// otherwise, or every run starts violated); the window opens on that
    /// state and the targets unmount. Returns the initial state.
    pub(crate) fn agree(&mut self) -> VfsResult<Digest128> {
        let hashes = self.hash_all()?;
        if hashes.windows(2).any(|w| w[0] != w[1]) {
            return Err(Errno::EINVAL);
        }
        self.prefix_hashes.push(hashes[0].as_u128());
        for t in &mut self.targets {
            t.post_op()?;
        }
        Ok(hashes[0])
    }

    pub(crate) fn target_names(&self) -> Vec<String> {
        self.targets.iter().map(|t| t.name()).collect()
    }

    pub(crate) fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance_ns(ns);
        }
    }

    /// One syscall on every target.
    pub(crate) fn charge_syscalls(&self) {
        self.charge(SYSCALL_CPU_NS * self.targets.len() as u64);
    }

    fn hash(
        t: &mut dyn CheckedTarget,
        cfg: &AbstractionConfig,
        incremental: bool,
    ) -> VfsResult<Digest128> {
        if incremental {
            t.cached_abstract_state(cfg)
        } else {
            abstract_state(t.fs_mut(), cfg)
        }
    }

    fn hash_all(&mut self) -> VfsResult<Vec<Digest128>> {
        let cfg = &self.abstraction;
        let incremental = self.incremental;
        self.targets
            .iter_mut()
            .map(|t| Self::hash(t.as_mut(), cfg, incremental))
            .collect()
    }

    /// [`hash_all`](Self::hash_all), with a failed traversal a violation
    /// worded by `failed`.
    pub(crate) fn hashes(
        &mut self,
        failed: impl FnOnce(Errno) -> String,
    ) -> Result<Vec<Digest128>, ApplyOutcome> {
        self.hash_all().map_err(|e| self.violation(failed(e)))
    }

    /// The POSIX-observable abstraction hash alone, without the
    /// opaque-digest fold — what the targets are compared on and what the
    /// crash oracle's window stores.
    pub(crate) fn pure_abstract_state(&mut self) -> u128 {
        if let Some(h) = self.last_hash {
            return h.as_u128();
        }
        // Recompute from the first target (all agree whenever an operation
        // succeeded; before the first one this hashes the initial state).
        let _ = self.targets[0].pre_op();
        let h = Self::hash(
            self.targets[0].as_mut(),
            &self.abstraction,
            self.incremental,
        )
        .map(|d| d.as_u128())
        .unwrap_or(u128::MAX);
        let _ = self.targets[0].post_op();
        h
    }

    /// Builds a discrepancy message. With ≥3 targets the minority is named
    /// as the suspect (majority voting, the paper's future work §7).
    pub(crate) fn describe_discrepancy<T: Debug + PartialEq>(
        &self,
        what: &str,
        op: &dyn Display,
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
        if values.len() >= 3 {
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

    /// Unmounts every target, ignoring failures.
    pub(crate) fn unmount_quietly(&mut self) {
        for t in &mut self.targets {
            let _ = t.post_op();
        }
    }

    /// Wraps every violation: best-effort unmount first, so per-op remount
    /// targets are not left mounted when the explorer stops mid-operation.
    /// Without this, a replay (or any further use of the harness) starts
    /// from a different mount/cache state than exploration saw.
    pub(crate) fn violation(&mut self, msg: String) -> ApplyOutcome {
        if let Some(c) = &self.clock {
            c.clear_active_lane();
        }
        self.unmount_quietly();
        ApplyOutcome::Violation(msg)
    }

    /// Records a post-operation state in the crash-oracle prefix window.
    pub(crate) fn push_prefix(&mut self, hash: u128) {
        if self.crash_exploration && self.prefix_hashes.last() != Some(&hash) {
            self.prefix_hashes.push(hash);
        }
    }

    /// Mounts every target (remount strategies) before the `phase`.
    pub(crate) fn mount_all(&mut self, phase: &str) -> Result<(), ApplyOutcome> {
        for t in &mut self.targets {
            if let Err(e) = t.pre_op() {
                let msg = format!("{}: {phase} mount failed: {e}", t.name());
                return Err(self.violation(msg));
            }
        }
        Ok(())
    }

    /// Adopts `hash` as the agreed state, unmounts every target after the
    /// `phase`, then runs per-transition state tracking (SPIN reading the
    /// tracked buffers; free for the checkpoint-API strategy).
    pub(crate) fn commit(&mut self, hash: Digest128, phase: &str) -> Result<(), ApplyOutcome> {
        self.last_hash = Some(hash);
        self.unmount_all(phase)?;
        for t in &mut self.targets {
            if let Err(e) = t.track_state() {
                let msg = format!("{}: state tracking failed: {e}", t.name());
                return Err(self.violation(msg));
            }
        }
        Ok(())
    }

    /// Unmounts every target after the `phase`; a failure is a violation.
    pub(crate) fn unmount_all(&mut self, phase: &str) -> Result<(), ApplyOutcome> {
        for t in &mut self.targets {
            if let Err(e) = t.post_op() {
                let msg = format!("{}: {phase} unmount failed: {e}", t.name());
                return Err(self.violation(msg));
            }
        }
        Ok(())
    }

    /// Phases 0–2 of one step (`step` names it in messages): mount, drop
    /// the cached fingerprints of the paths `op` touches, run it on every
    /// target — with `Some(tid)`, as thread `tid` on its clock lane — and
    /// check that return values and error codes agree. Returns the agreed
    /// outcome.
    pub(crate) fn execute(
        &mut self,
        step: &dyn Display,
        op: &FsOp,
        lane: Option<u16>,
    ) -> Result<OpOutcome, ApplyOutcome> {
        self.last_hash = None;
        self.mount_all("pre-op")?;
        // Invalidate *before* execution, so the invalidation logic can
        // observe pre-operation link counts (hardlink aliasing).
        if self.incremental && op.is_mutation() {
            let touched = op.touched_paths();
            for t in &mut self.targets {
                t.invalidate_fingerprints(&touched);
            }
        }
        if let (Some(tid), Some(c)) = (lane, &self.clock) {
            c.set_active_lane(tid);
        }
        let exceptions = &self.abstraction.exceptions;
        let sort_entries = self.abstraction.sort_entries;
        let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(self.targets.len());
        for t in &mut self.targets {
            if let Some(tid) = lane {
                t.fs_mut().set_active_thread(tid);
            }
            outcomes.push(execute_with(t.fs_mut(), op, exceptions, sort_entries));
        }
        self.charge_syscalls();
        if let (Some(_), Some(c)) = (lane, &self.clock) {
            c.clear_active_lane();
        }
        if outcomes.windows(2).any(|w| w[0] != w[1]) {
            let msg = self.describe_discrepancy("outcome", step, &outcomes);
            return Err(self.violation(msg));
        }
        Ok(outcomes.swap_remove(0))
    }

    /// Phases 3–5 of one step: the abstract states (file data and
    /// metadata) must agree; the agreed state joins the crash window, and
    /// the targets unmount and track state.
    pub(crate) fn settle(&mut self, step: &dyn Display) -> Result<(), ApplyOutcome> {
        let hashes = self.hashes(|e| {
            format!("state traversal failed after {step}: {e} (file system corrupted?)")
        })?;
        if hashes.windows(2).any(|w| w[0] != w[1]) {
            let msg = self.describe_discrepancy("abstract-state", step, &hashes);
            return Err(self.violation(msg));
        }
        self.push_prefix(hashes[0].as_u128());
        self.commit(hashes[0], "post-op")
    }

    /// The crash prelude: mounts every target and hashes the state about
    /// to be crashed — always a legal recovery point, since a file system
    /// that persists everything synchronously loses nothing.
    pub(crate) fn crash_prelude(&mut self) -> Result<u128, ApplyOutcome> {
        self.last_hash = None;
        self.mount_all("pre-crash")?;
        let pre = self.hashes(|e| format!("state traversal failed before crash: {e}"))?;
        Ok(pre[0].as_u128())
    }

    /// Power-cuts every target and runs its recovery mount, then checks
    /// each recovered state against the caller's oracle: a state `allowed`
    /// rejects is a violation, worded by `outside` from the target's name.
    /// Returns the recovered states.
    pub(crate) fn recover(
        &mut self,
        allowed: impl Fn(u128) -> bool,
        outside: impl FnOnce(&str) -> String,
    ) -> Result<Vec<Digest128>, ApplyOutcome> {
        for t in &mut self.targets {
            if let Err(e) = t.crash_remount() {
                let msg = format!(
                    "{}: crash recovery failed: {e} (file system not remountable after power cut)",
                    t.name()
                );
                return Err(self.violation(msg));
            }
        }
        self.charge_syscalls();
        let recovered = self.hashes(|e| {
            format!(
                "state traversal failed after crash recovery: {e} (recovery corrupted the file system?)"
            )
        })?;
        let rejected = self
            .targets
            .iter()
            .zip(&recovered)
            .find(|(_, h)| !allowed(h.as_u128()))
            .map(|(t, _)| t.name());
        match rejected {
            Some(name) => Err(self.violation(outside(&name))),
            None => Ok(recovered),
        }
    }
}

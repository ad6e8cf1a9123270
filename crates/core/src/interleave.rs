//! Concurrent-workload model checking: thread interleavings as the
//! nondeterminism source.
//!
//! [`ThreadedMcfs`] drives N logical threads, each with a fixed program of
//! POSIX ops, against one or more checked targets. The explorable
//! operation is a [`SchedStep`] — "thread `tid` issues its next op" — so
//! the state space is the set of interleavings of the per-thread programs,
//! optionally crossed with a crash pseudo-step between any two scheduled
//! ops. Steps execute atomically (one op runs to completion before the
//! next is scheduled), which models a kernel serializing the VFS layer;
//! what varies is the *order* in which threads win. Each step runs through
//! the same lockstep core as [`Mcfs`](crate::Mcfs) ([`crate::lockstep`]),
//! so the targets' outcomes and abstract states are checked, and
//! violations worded, exactly as there.
//!
//! Two oracles judge each schedule:
//!
//! * **Linearizability.** At every terminal state the per-thread observed
//!   results must match *some* sequential execution of the same ops on a
//!   fresh reference file system that respects each thread's program order
//!   and the real-time order of non-overlapping steps (Wing & Gong's
//!   algorithm, with checkpoint/restore pruning on the reference).
//! * **Crash prefix-consistency.** A crash fired between two scheduled
//!   steps must recover to a state reachable by *some* cut of the
//!   interleaved history — each thread stopped at some point at or after
//!   the last sync floor — re-executed sequentially on the reference.
//!
//! Dynamic POR: [`independent`](ModelSystem::independent) answers from the
//! *concurrent* effect matrix (strictly coarser than the sequential one —
//! outcome-sensitive pairs like `create`/`create` never commute), and
//! [`persistent_set`](ModelSystem::persistent_set) computes a
//! Godefroid-style source set by closing over future-conflicting threads.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use blockdev::Clock;
use mdigest::Digest128;
use modelcheck::{
    ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, ShrinkStats, StateId,
};
use verifs::VeriFs;
use vfs::{Errno, FileSystem, VfsResult};

use crate::abstraction::{abstract_state, AbstractionConfig};
use crate::effect::EffectIndex;
use crate::lockstep::Lockstep;
use crate::pool::{execute_with, FsOp, OpOutcome};
use crate::shrink::{shrink_trace, ShrinkConfig};
use crate::target::{self, CheckedTarget, CheckpointTarget};

/// The pseudo-thread id of the crash scheduler: a [`SchedStep`] with this
/// tid power-cuts every target between two real steps. Never a valid
/// program thread.
pub const CRASH_TID: u16 = u16::MAX;

/// Cap on thread-cut enumerations per crash (the cut lattice is
/// `Π(pc_t − floor_t + 1)`). Past the cap the crash oracle checks recovery
/// against the interleaved prefix window alone: a recovery inside it is
/// verified, one outside it is pruned with the lattice size named and
/// counted in [`CrashStats::capped_cuts`], never reported as a violation.
const MAX_CRASH_CUTS: usize = 1024;

/// One scheduling decision: thread `tid` issues its next program op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStep {
    /// Logical thread issuing the op ([`CRASH_TID`] for the crash step).
    pub tid: u16,
    /// The op issued — always the thread's next program op (kept inline so
    /// traces are self-contained and replayable without the program).
    pub op: FsOp,
}

impl SchedStep {
    /// The crash pseudo-step.
    pub fn crash() -> Self {
        SchedStep {
            tid: CRASH_TID,
            op: FsOp::Crash,
        }
    }

    /// Whether this is the crash pseudo-step.
    pub fn is_crash(&self) -> bool {
        self.tid == CRASH_TID
    }
}

/// A step's op: the crash step's is [`FsOp::Crash`], so trace minimization
/// repairs schedules exactly as it repairs op traces.
impl AsRef<FsOp> for SchedStep {
    fn as_ref(&self) -> &FsOp {
        &self.op
    }
}

impl fmt::Display for SchedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_crash() {
            write!(f, "crash")
        } else {
            write!(f, "t{}:{}", self.tid, self.op)
        }
    }
}

/// A full interleaved schedule.
pub type ThreadedTrace = Vec<SchedStep>;

/// A deterministic rebuilder for threaded harnesses, parameterized on the
/// candidate schedule (the factory derives per-thread programs from it).
/// Counterexample minimization replays candidates against factory-fresh
/// instances only.
pub type ThreadedHarnessFactory = dyn Fn(&[SchedStep]) -> VfsResult<ThreadedMcfs> + Send + Sync;

/// Configuration for [`ThreadedMcfs`].
#[derive(Debug, Clone, Default)]
pub struct ThreadedMcfsConfig {
    /// Abstraction-function settings (exception list etc.).
    pub abstraction: AbstractionConfig,
    /// Enable the crash pseudo-step between any two scheduled ops. Requires
    /// every target to support crash recovery.
    pub crash_exploration: bool,
    /// Delta-debug violating schedules at record time (needs a factory,
    /// [`ThreadedMcfs::set_factory`]).
    pub minimize_violations: bool,
}

/// Exploration counters specific to interleaved checking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterleaveStats {
    /// Terminal interleavings reached (every thread ran to completion).
    pub terminals: u64,
    /// Sequential candidate executions tried by the linearizability oracle.
    pub lin_candidates: u64,
    /// Crash pseudo-steps applied.
    pub crashes: u64,
    /// Crashes recovered to a consistent cut on every target.
    pub crash_recoveries: u64,
    /// Crashes where targets recovered validly but to different states.
    pub divergent_recoveries: u64,
    /// Crashes pruned because a recovery left the prefix window while the
    /// cut lattice exceeded [`MAX_CRASH_CUTS`].
    pub capped_cuts: u64,
}

/// Scheduler state saved alongside target checkpoints.
#[derive(Debug, Clone)]
struct SavedSched {
    pcs: Vec<usize>,
    history: Vec<(SchedStep, OpOutcome)>,
    prefix: Vec<u128>,
    floor: Vec<usize>,
}

/// N per-thread programs driven in every interleaving against one or more
/// checked targets, with linearizability and crash-cut oracles.
pub struct ThreadedMcfs {
    /// The targets in lockstep. The interleaved harness never invalidates
    /// cached fingerprints, so it re-hashes every target in full.
    core: Lockstep,
    programs: Vec<Vec<FsOp>>,
    setup: Vec<FsOp>,
    minimize_violations: bool,
    effects: EffectIndex,
    /// Per-thread program counter: ops already issued.
    pcs: Vec<usize>,
    /// Interleaved execution so far: each scheduled step with the outcome
    /// every target agreed on.
    history: Vec<(SchedStep, OpOutcome)>,
    /// Per-thread cut floor for the crash oracle: ops issued before the
    /// last sync point are durable and cannot be lost.
    floor: Vec<usize>,
    ckpt: HashMap<u64, SavedSched>,
    ckpt_hashes: HashMap<u64, u128>,
    /// Fingerprints of every terminal state reached (POR equivalence
    /// validation compares these across settings).
    final_states: BTreeSet<u128>,
    stats: InterleaveStats,
    factory: Option<Arc<ThreadedHarnessFactory>>,
}

impl ThreadedMcfs {
    /// Builds a threaded harness over `targets` running `programs` (one op
    /// list per thread) from an empty file system.
    ///
    /// # Errors
    ///
    /// `EINVAL` for an empty target or program list, too many threads, a
    /// setup op the targets disagree on, or initial-state disagreement;
    /// `ENOSYS` when crash exploration is requested and a target cannot
    /// crash; mount errors propagate.
    pub fn new(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        cfg: ThreadedMcfsConfig,
    ) -> VfsResult<Self> {
        Self::with_clock_opt(targets, programs, Vec::new(), cfg, None)
    }

    /// Like [`new`](ThreadedMcfs::new) with a sequential `setup` prologue
    /// executed (and checked for agreement) before any thread runs.
    ///
    /// # Errors
    ///
    /// See [`new`](ThreadedMcfs::new).
    pub fn with_setup(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        setup: Vec<FsOp>,
        cfg: ThreadedMcfsConfig,
    ) -> VfsResult<Self> {
        Self::with_clock_opt(targets, programs, setup, cfg, None)
    }

    /// Like [`with_setup`](ThreadedMcfs::with_setup) with a virtual clock:
    /// each thread charges its own clock lane, so accumulated per-thread
    /// CPU time is schedule-independent.
    ///
    /// # Errors
    ///
    /// See [`new`](ThreadedMcfs::new).
    pub fn with_clock(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        setup: Vec<FsOp>,
        cfg: ThreadedMcfsConfig,
        clock: Clock,
    ) -> VfsResult<Self> {
        Self::with_clock_opt(targets, programs, setup, cfg, Some(clock))
    }

    fn with_clock_opt(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        setup: Vec<FsOp>,
        cfg: ThreadedMcfsConfig,
        clock: Option<Clock>,
    ) -> VfsResult<Self> {
        if targets.is_empty() || programs.is_empty() || programs.len() >= CRASH_TID as usize {
            return Err(Errno::EINVAL);
        }
        // The POR independence relation comes from every op any thread (or
        // the setup) can issue, plus the crash step when explored.
        let mut flat: Vec<FsOp> = setup.to_vec();
        flat.extend(programs.iter().flatten().cloned());
        if cfg.crash_exploration {
            flat.push(FsOp::Crash);
        }
        let (core, effects) = Lockstep::new(
            targets,
            clock,
            cfg.abstraction,
            false,
            cfg.crash_exploration,
            &flat,
        )?;
        let thread_count = programs.len();
        let mut this = ThreadedMcfs {
            core,
            programs,
            setup,
            minimize_violations: cfg.minimize_violations,
            effects,
            pcs: vec![0; thread_count],
            history: Vec::new(),
            floor: vec![0; thread_count],
            ckpt: HashMap::new(),
            ckpt_hashes: HashMap::new(),
            final_states: BTreeSet::new(),
            stats: InterleaveStats::default(),
            factory: None,
        };
        this.run_setup()?;
        this.core.last_hash = Some(this.core.agree()?);
        Ok(this)
    }

    /// Builds a harness whose programs are derived from a recorded
    /// schedule: each thread's program is the subsequence of `schedule`
    /// ops carrying its tid. Crash exploration switches on automatically
    /// when the schedule contains a crash step. This is the replay and
    /// minimization entry point.
    ///
    /// # Errors
    ///
    /// See [`new`](ThreadedMcfs::new).
    pub fn from_schedule(
        targets: Vec<Box<dyn CheckedTarget>>,
        schedule: &[SchedStep],
        mut cfg: ThreadedMcfsConfig,
    ) -> VfsResult<Self> {
        let max_tid = schedule
            .iter()
            .filter(|s| !s.is_crash())
            .map(|s| s.tid as usize)
            .max()
            .ok_or(Errno::EINVAL)?;
        let mut programs = vec![Vec::new(); max_tid + 1];
        for step in schedule {
            if step.is_crash() {
                cfg.crash_exploration = true;
            } else {
                programs[step.tid as usize].push(step.op.clone());
            }
        }
        Self::with_clock_opt(targets, programs, Vec::new(), cfg, None)
    }

    /// Replays a schedule through [`apply`](ModelSystem::apply), returning
    /// the first violation (index and message) if one fires. A prune stops
    /// the replay (exploration never continues past a crash either).
    pub fn replay_schedule(&mut self, schedule: &[SchedStep]) -> Option<(usize, String)> {
        for (i, step) in schedule.iter().enumerate() {
            match self.apply(step) {
                ApplyOutcome::Ok => {}
                ApplyOutcome::Prune(_) => return None,
                ApplyOutcome::Violation(msg) => return Some((i, msg)),
            }
        }
        None
    }

    /// Attaches the replay factory counterexample minimization validates
    /// against; [`ThreadedMcfsConfig::minimize_violations`] does nothing
    /// without it.
    pub fn set_factory(&mut self, factory: Arc<ThreadedHarnessFactory>) {
        self.factory = Some(factory);
    }

    /// Builder-style [`set_factory`](ThreadedMcfs::set_factory).
    #[must_use]
    pub fn with_factory(mut self, factory: Arc<ThreadedHarnessFactory>) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Interleaving-specific counters.
    pub fn interleave_stats(&self) -> InterleaveStats {
        self.stats
    }

    /// Fingerprints of every terminal interleaving reached so far.
    pub fn final_states(&self) -> &BTreeSet<u128> {
        &self.final_states
    }

    /// The effect index backing POR decisions.
    pub fn effect_index(&self) -> &EffectIndex {
        &self.effects
    }

    fn thread_count(&self) -> usize {
        self.programs.len()
    }

    fn done(&self) -> bool {
        self.pcs
            .iter()
            .zip(&self.programs)
            .all(|(&pc, prog)| pc >= prog.len())
    }

    fn run_setup(&mut self) -> VfsResult<()> {
        let exceptions = &self.core.abstraction.exceptions;
        let sort = self.core.abstraction.sort_entries;
        for op in &self.setup {
            let outcomes: Vec<OpOutcome> = self
                .core
                .targets
                .iter_mut()
                .map(|t| execute_with(t.fs_mut(), op, exceptions, sort))
                .collect();
            if outcomes.iter().any(|o| *o != outcomes[0]) {
                return Err(Errno::EINVAL);
            }
        }
        Ok(())
    }

    /// The POSIX-observable fingerprint (first target; all agree whenever
    /// apply succeeded).
    pub fn pure_abstract_state(&mut self) -> u128 {
        self.core.pure_abstract_state()
    }

    /// Serializes an outcome for the scheduler fingerprint. Stable across
    /// runs (no hashing of pointers or map order).
    fn encode_outcome(out: &mut Vec<u8>, o: &OpOutcome) {
        match o {
            OpOutcome::Ok => out.push(0),
            OpOutcome::Data(d) => {
                out.push(1);
                out.extend_from_slice(&(d.len() as u64).to_le_bytes());
                out.extend_from_slice(d);
            }
            OpOutcome::Attrs {
                ftype,
                mode,
                nlink,
                owner,
                size,
            } => {
                out.push(2);
                out.push(*ftype as u8);
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&nlink.to_le_bytes());
                out.extend_from_slice(&owner.0.to_le_bytes());
                out.extend_from_slice(&owner.1.to_le_bytes());
                match size {
                    Some(s) => {
                        out.push(1);
                        out.extend_from_slice(&s.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            OpOutcome::Entries(es) => {
                out.push(3);
                out.extend_from_slice(&(es.len() as u64).to_le_bytes());
                for (name, ftype) in es {
                    out.extend_from_slice(&(name.len() as u64).to_le_bytes());
                    out.extend_from_slice(name.as_bytes());
                    out.push(*ftype as u8);
                }
            }
            OpOutcome::Bytes(b) => {
                out.push(4);
                out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                out.extend_from_slice(b);
            }
            OpOutcome::Err(e) => {
                out.push(5);
                out.extend_from_slice(format!("{e:?}").as_bytes());
            }
        }
    }

    /// Scheduler-state fold mixed into the visited fingerprint: two states
    /// with identical file-system content but different program counters
    /// (or different per-thread observations) must not be matched away —
    /// the remaining work and the linearizability obligation differ. The
    /// per-step component is order-insensitive (XOR), so schedules that are
    /// permutations with identical per-thread observations *do* merge.
    fn sched_fold(&self) -> u128 {
        let mut pcs_bytes: Vec<u8> = b"sched-pcs".to_vec();
        for &pc in &self.pcs {
            pcs_bytes.extend_from_slice(&(pc as u64).to_le_bytes());
        }
        let mut acc = mdigest::md5(&pcs_bytes).as_u128();
        let mut per_thread_idx = vec![0u64; self.thread_count()];
        for (step, outcome) in &self.history {
            if step.is_crash() {
                continue;
            }
            let t = step.tid as usize;
            let mut bytes: Vec<u8> = b"step".to_vec();
            bytes.extend_from_slice(&(step.tid as u64).to_le_bytes());
            bytes.extend_from_slice(&per_thread_idx[t].to_le_bytes());
            Self::encode_outcome(&mut bytes, outcome);
            per_thread_idx[t] += 1;
            acc ^= mdigest::md5(&bytes).as_u128();
        }
        acc
    }

    /// The schedule executed so far (without outcomes).
    pub fn schedule(&self) -> ThreadedTrace {
        self.history.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Executes one thread step through the lockstep core, on the thread's
    /// clock lane, then — at terminal states — the linearizability oracle.
    fn apply_step(&mut self, step: &SchedStep) -> Result<(), ApplyOutcome> {
        let t = step.tid as usize;
        // Stale steps (explorer replaying against a restored scheduler that
        // moved on) prune rather than corrupt.
        if t >= self.thread_count()
            || self.pcs[t] >= self.programs[t].len()
            || self.programs[t][self.pcs[t]] != step.op
        {
            return Err(ApplyOutcome::Prune(format!("stale step {step}")));
        }
        let outcome = self.core.execute(step, &step.op, Some(step.tid))?;
        self.core.settle(step)?;
        self.history.push((step.clone(), outcome));
        self.pcs[t] += 1;
        if self.done() {
            self.stats.terminals += 1;
            if let Err(msg) = self.check_linearizable() {
                return Err(self.core.violation(msg));
            }
            let fp = ModelSystem::abstract_state(self);
            self.final_states.insert(fp);
        }
        Ok(())
    }

    /// Wing & Gong linearizability check against a fresh sequential
    /// reference. Atomic steps make each op's invocation point the
    /// response point of its thread predecessor, so op A precedes op B iff
    /// A's history position is before B's *predecessor's* position; the
    /// oracle searches for any linearization respecting that partial order
    /// whose reference execution reproduces every observed outcome,
    /// pruning with checkpoint/restore on the reference.
    fn check_linearizable(&mut self) -> Result<(), String> {
        // Per-thread observation lists and history positions.
        let tc = self.thread_count();
        let mut expected: Vec<Vec<OpOutcome>> = vec![Vec::new(); tc];
        let mut pos: Vec<Vec<i64>> = vec![Vec::new(); tc];
        for (i, (step, outcome)) in self.history.iter().enumerate() {
            if step.is_crash() {
                continue;
            }
            expected[step.tid as usize].push(outcome.clone());
            pos[step.tid as usize].push(i as i64);
        }
        let total: usize = expected.iter().map(|v| v.len()).sum();
        if total == 0 {
            return Ok(());
        }
        let mut reference = CheckpointTarget::new(VeriFs::v2());
        reference
            .pre_op()
            .map_err(|e| format!("linearizability reference mount failed: {e}"))?;
        let exceptions = &self.core.abstraction.exceptions;
        let sort = self.core.abstraction.sort_entries;
        for op in &self.setup {
            execute_with(reference.fs_mut(), op, exceptions, sort);
        }
        let mut lin_pcs = vec![0usize; tc];
        let mut tried = 0u64;
        let found = Self::lin_dfs(
            &mut reference,
            &self.programs,
            &expected,
            &pos,
            &mut lin_pcs,
            0,
            total,
            exceptions,
            sort,
            &mut tried,
        )
        .map_err(|e| format!("linearizability reference failed: {e}"))?;
        self.stats.lin_candidates += tried;
        if found {
            Ok(())
        } else {
            // Number-free so a minimized schedule reproduces the same
            // message byte-for-byte.
            Err(
                "linearizability violation: no sequential execution of the threads' ops \
                 (respecting program order and real-time order) matches every thread's \
                 observed results"
                    .to_string(),
            )
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lin_dfs(
        reference: &mut CheckpointTarget<VeriFs>,
        programs: &[Vec<FsOp>],
        expected: &[Vec<OpOutcome>],
        pos: &[Vec<i64>],
        lin_pcs: &mut [usize],
        placed: usize,
        total: usize,
        exceptions: &[String],
        sort: bool,
        tried: &mut u64,
    ) -> VfsResult<bool> {
        if placed == total {
            return Ok(true);
        }
        let key = placed as u64;
        reference.save_state(key)?;
        for t in 0..programs.len() {
            let k = lin_pcs[t];
            if k >= expected[t].len() {
                continue;
            }
            // Real-time order: a pending op A of another thread precedes
            // this op B iff A's response (its history position) came before
            // B's invocation (B's thread predecessor's position). Placing B
            // first would reorder them against the wall clock.
            let inv = if k == 0 { -1 } else { pos[t][k - 1] };
            let blocked = (0..programs.len())
                .any(|u| u != t && lin_pcs[u] < expected[u].len() && pos[u][lin_pcs[u]] < inv);
            if blocked {
                continue;
            }
            *tried += 1;
            let got = execute_with(reference.fs_mut(), &programs[t][k], exceptions, sort);
            if got == expected[t][k] {
                lin_pcs[t] = k + 1;
                let hit = Self::lin_dfs(
                    reference,
                    programs,
                    expected,
                    pos,
                    lin_pcs,
                    placed + 1,
                    total,
                    exceptions,
                    sort,
                    tried,
                )?;
                lin_pcs[t] = k;
                if hit {
                    let _ = reference.drop_state(key);
                    return Ok(true);
                }
            }
            reference.load_state(key)?;
        }
        let _ = reference.drop_state(key);
        Ok(false)
    }

    /// The crash pseudo-step: power-cut every target between two scheduled
    /// ops and check recovery against the set of *linearizable prefix*
    /// states — every interleaved prefix state since the sync floor, plus
    /// every per-thread cut of the history re-executed sequentially (a
    /// thread's issued-but-unsynced tail may be lost independently of the
    /// others').
    fn apply_crash(&mut self) -> Result<(), ApplyOutcome> {
        self.stats.crashes += 1;
        let pre = self.core.crash_prelude()?;
        let mut allowed: BTreeSet<u128> = self.core.prefix_hashes.iter().copied().collect();
        allowed.insert(pre);
        let lattice = self.cut_lattice_size();
        let capped = lattice > MAX_CRASH_CUTS;
        if !capped {
            match self.crash_cut_states() {
                Ok(cuts) => allowed.extend(cuts),
                Err(e) => {
                    let msg = format!("crash-cut reference execution failed: {e}");
                    return Err(self.core.violation(msg));
                }
            }
        }
        // Past the cap the per-thread cuts are unknown: a recovery outside
        // the window is pruned below instead of rejected here.
        let recovered = self.core.recover(
            |h| capped || allowed.contains(&h),
            |name| {
                format!(
                    "crash-consistency violation: {name} recovered to a state matching no \
                     linearizable prefix of the interleaved history"
                )
            },
        )?;
        if capped && recovered.iter().any(|h| !allowed.contains(&h.as_u128())) {
            self.stats.capped_cuts += 1;
            self.core.unmount_quietly();
            return Err(ApplyOutcome::Prune(format!(
                "crash recovery left the interleaved prefix window and the {lattice}-cut \
                 lattice exceeds MAX_CRASH_CUTS ({MAX_CRASH_CUTS}): per-thread cuts not checked"
            )));
        }
        if recovered.windows(2).any(|w| w[0] != w[1]) {
            self.stats.divergent_recoveries += 1;
            self.core.unmount_quietly();
            return Err(ApplyOutcome::Prune(
                "targets recovered to different (each valid) cut states".into(),
            ));
        }
        self.core.unmount_all("post-crash")?;
        self.stats.crash_recoveries += 1;
        // Post-crash, the scheduler's program counters no longer match the
        // recovered file-system state (a thread's tail may be gone);
        // interleaved exploration does not continue past a verified crash.
        Err(ApplyOutcome::Prune(
            "crash recovery verified; interleaved exploration does not continue past a crash"
                .into(),
        ))
    }

    /// Size of the per-thread cut lattice `Π(pc_t − floor_t + 1)`
    /// (saturating).
    fn cut_lattice_size(&self) -> usize {
        self.pcs
            .iter()
            .zip(&self.floor)
            .fold(1usize, |total, (pc, floor)| {
                total.saturating_mul(pc - floor + 1)
            })
    }

    /// Reference states of every per-thread cut `floor ≤ c ≤ pc`: each
    /// thread's issued ops truncated at its cut, executed in the recorded
    /// schedule order on a fresh reference.
    fn crash_cut_states(&mut self) -> VfsResult<Vec<u128>> {
        let tc = self.thread_count();
        let abstraction = &self.core.abstraction;
        let exceptions = &abstraction.exceptions;
        let sort = abstraction.sort_entries;
        let mut out = Vec::new();
        let mut cut: Vec<usize> = self.floor.clone();
        loop {
            let mut reference = VeriFs::v2();
            reference.mount()?;
            for op in &self.setup {
                execute_with(&mut reference, op, exceptions, sort);
            }
            let mut idx = vec![0usize; tc];
            for (step, _) in &self.history {
                if step.is_crash() {
                    continue;
                }
                let t = step.tid as usize;
                if idx[t] < cut[t] {
                    execute_with(&mut reference, &step.op, exceptions, sort);
                }
                idx[t] += 1;
            }
            out.push(abstract_state(&mut reference, abstraction)?.as_u128());
            // Mixed-radix increment over the cut lattice.
            let mut t = 0;
            loop {
                if t == tc {
                    return Ok(out);
                }
                if cut[t] < self.pcs[t] {
                    cut[t] += 1;
                    break;
                }
                cut[t] = self.floor[t];
                t += 1;
            }
        }
    }
}

impl ModelSystem for ThreadedMcfs {
    type Op = SchedStep;

    fn ops(&mut self) -> Vec<SchedStep> {
        let mut out = Vec::new();
        for (t, prog) in self.programs.iter().enumerate() {
            if self.pcs[t] < prog.len() {
                out.push(SchedStep {
                    tid: t as u16,
                    op: prog[self.pcs[t]].clone(),
                });
            }
        }
        if self.core.crash_exploration {
            out.push(SchedStep::crash());
        }
        out
    }

    fn apply(&mut self, op: &SchedStep) -> ApplyOutcome {
        let applied = if op.is_crash() {
            self.apply_crash()
        } else {
            self.apply_step(op)
        };
        applied.err().unwrap_or(ApplyOutcome::Ok)
    }

    fn abstract_state(&mut self) -> u128 {
        self.core.pure_abstract_state()
            ^ target::opaque_digest_fold(&mut self.core.targets)
            ^ self.sched_fold()
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        let total = target::save_all(&mut self.core.targets, id.0)?;
        let h = self.core.pure_abstract_state();
        self.ckpt_hashes.insert(id.0, h);
        if self.core.crash_exploration {
            // Checkpointing syncs device-backed targets: new sync floor.
            self.core.prefix_hashes = vec![h];
            self.floor = self.pcs.clone();
        }
        self.ckpt.insert(
            id.0,
            SavedSched {
                pcs: self.pcs.clone(),
                history: self.history.clone(),
                prefix: self.core.prefix_hashes.clone(),
                floor: self.floor.clone(),
            },
        );
        Ok(total)
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        self.core.last_hash = None;
        target::load_all(&mut self.core.targets, id.0)?;
        let saved = self
            .ckpt
            .get(&id.0)
            .ok_or_else(|| format!("no scheduler state saved under {id}"))?;
        self.pcs = saved.pcs.clone();
        self.history = saved.history.clone();
        self.core.prefix_hashes = saved.prefix.clone();
        self.floor = saved.floor.clone();
        self.core.last_hash = self
            .ckpt_hashes
            .get(&id.0)
            .map(|h| Digest128::from_bytes(h.to_le_bytes()));
        Ok(())
    }

    fn release(&mut self, id: StateId) {
        target::drop_all(&mut self.core.targets, id.0);
        self.ckpt.remove(&id.0);
        self.ckpt_hashes.remove(&id.0);
    }

    fn pin(&mut self, id: StateId) {
        target::pin_all(&mut self.core.targets, id.0);
    }

    fn unpin(&mut self, id: StateId) {
        target::unpin_all(&mut self.core.targets, id.0);
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        target::merged_store_stats(&self.core.targets)
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.core.crash_exploration.then_some(CrashStats {
            crashes: self.stats.crashes,
            recoveries: self.stats.crash_recoveries,
            divergent_recoveries: self.stats.divergent_recoveries,
            capped_cuts: self.stats.capped_cuts,
        })
    }

    /// Concurrency independence: two steps of *different* threads whose
    /// ops commute under the concurrent effect relation (outcome-sensitive
    /// pairs never do). Same-thread steps are program-ordered and the
    /// crash step conflicts with everything.
    fn independent(&self, a: &SchedStep, b: &SchedStep) -> bool {
        if a.tid == b.tid || a.is_crash() || b.is_crash() {
            return false;
        }
        self.effects.independent_concurrent(&a.op, &b.op)
    }

    /// A source set: close `{first enabled thread}` under "some future op
    /// of thread u conflicts with an in-set thread's next op". Sound
    /// because enabledness is thread-local — a thread outside the set can
    /// never enable or disable an in-set thread's next op, only conflict
    /// with it, and conflicting threads are pulled in. Crash steps disable
    /// the reduction entirely (a crash commutes with nothing).
    fn persistent_set(&mut self, enabled: &[SchedStep]) -> Option<Vec<bool>> {
        if enabled.len() <= 1 || enabled.iter().any(|s| s.is_crash()) {
            return None;
        }
        let mut in_set = vec![false; enabled.len()];
        in_set[0] = true;
        loop {
            let mut changed = false;
            for (j, cand) in enabled.iter().enumerate() {
                if in_set[j] {
                    continue;
                }
                let tj = cand.tid as usize;
                let future = &self.programs[tj][self.pcs[tj]..];
                let conflicts = enabled.iter().enumerate().any(|(i, s)| {
                    in_set[i]
                        && future
                            .iter()
                            .any(|op| !self.effects.independent_concurrent(op, &s.op))
                });
                if conflicts {
                    in_set[j] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if in_set.iter().all(|&b| b) {
            None
        } else {
            Some(in_set)
        }
    }

    fn minimize(
        &mut self,
        trace: &[SchedStep],
        message: &str,
    ) -> Option<(Vec<SchedStep>, ShrinkStats)> {
        if !self.minimize_violations {
            return None;
        }
        let factory = self.factory.clone()?;
        shrink_trace(trace, message, &ShrinkConfig::default(), |candidate| {
            factory(candidate).ok()?.replay_schedule(candidate)
        })
        .map(|o| (o.trace, o.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcheck::{DfsExplorer, ExploreConfig};
    use verifs::BugConfig;

    fn op_create(p: &str) -> FsOp {
        FsOp::CreateFile {
            path: p.into(),
            mode: 0o644,
        }
    }

    fn op_write(p: &str, offset: u64, size: u64, seed: u8) -> FsOp {
        FsOp::WriteFile {
            path: p.into(),
            offset,
            size,
            seed,
        }
    }

    fn op_read(p: &str, offset: u64, size: u64) -> FsOp {
        FsOp::ReadFile {
            path: p.into(),
            offset,
            size,
        }
    }

    fn op_trunc(p: &str, size: u64) -> FsOp {
        FsOp::Truncate {
            path: p.into(),
            size,
        }
    }

    fn clean_pair() -> Vec<Box<dyn CheckedTarget>> {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        vec![
            Box::new(CheckpointTarget::new(a)),
            Box::new(CheckpointTarget::new(b)),
        ]
    }

    fn buggy_single() -> Vec<Box<dyn CheckedTarget>> {
        let mut fs = VeriFs::v2_with_bugs(BugConfig::v2_hole());
        fs.mount().unwrap();
        vec![Box::new(CheckpointTarget::new(fs))]
    }

    fn disjoint_programs() -> Vec<Vec<FsOp>> {
        vec![
            vec![op_create("/a"), op_write("/a", 0, 8, 1)],
            vec![op_create("/b"), op_write("/b", 0, 8, 2)],
        ]
    }

    fn explore(programs: Vec<Vec<FsOp>>, por: bool, por_persistent: bool) -> (BTreeSet<u128>, u64) {
        let mut sys =
            ThreadedMcfs::new(clean_pair(), programs, ThreadedMcfsConfig::default()).unwrap();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 8,
            por,
            por_persistent,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        (sys.final_states().clone(), report.stats.ops_executed)
    }

    #[test]
    fn por_settings_reach_identical_final_states() {
        let (base, full) = explore(disjoint_programs(), false, false);
        assert!(!base.is_empty());
        let mut reduced_best = full;
        for (por, pp) in [(true, false), (false, true), (true, true)] {
            let (states, ops) = explore(disjoint_programs(), por, pp);
            assert_eq!(states, base, "por={por} persistent={pp}");
            assert!(ops <= full, "por={por} persistent={pp}: {ops} > {full}");
            reduced_best = reduced_best.min(ops);
        }
        // Fully disjoint threads: POR must actually cut transitions.
        assert!(
            reduced_best < full,
            "POR never reduced transitions ({full})"
        );
    }

    #[test]
    fn racing_identical_creates_are_outcome_dependent_not_violations() {
        let programs = vec![vec![op_create("/f")], vec![op_create("/f")]];
        let mut sys =
            ThreadedMcfs::new(clean_pair(), programs, ThreadedMcfsConfig::default()).unwrap();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 4,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Both orders run (the ops race — POR must not merge them) and the
        // loser observes EEXIST, so the two schedules are distinct states.
        assert_eq!(sys.interleave_stats().terminals, 2);
        assert_eq!(sys.final_states().len(), 2);
    }

    #[test]
    fn persistent_set_keeps_one_thread_for_disjoint_programs() {
        let mut sys = ThreadedMcfs::new(
            clean_pair(),
            disjoint_programs(),
            ThreadedMcfsConfig::default(),
        )
        .unwrap();
        let enabled = sys.ops();
        assert_eq!(enabled.len(), 2);
        let mask = sys.persistent_set(&enabled).expect("reduction applies");
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn persistent_set_disabled_under_crash_exploration() {
        let cfg = ThreadedMcfsConfig {
            crash_exploration: true,
            ..ThreadedMcfsConfig::default()
        };
        let mut sys = ThreadedMcfs::new(clean_pair(), disjoint_programs(), cfg).unwrap();
        let enabled = sys.ops();
        assert!(enabled.iter().any(|s| s.is_crash()));
        assert!(sys.persistent_set(&enabled).is_none());
    }

    fn hole_schedule() -> ThreadedTrace {
        let t0 = [
            op_create("/f0"),
            op_write("/f0", 0, 40, 1),
            op_trunc("/f0", 1),
            op_write("/f0", 30, 4, 2),
            op_read("/f0", 0, 40),
        ];
        let t1 = [op_create("/b"), FsOp::Stat { path: "/b".into() }];
        let mut sched: ThreadedTrace = t0
            .iter()
            .map(|op| SchedStep {
                tid: 0,
                op: op.clone(),
            })
            .collect();
        for (i, op) in t1.iter().enumerate() {
            sched.insert(
                2 * i + 1,
                SchedStep {
                    tid: 1,
                    op: op.clone(),
                },
            );
        }
        sched
    }

    #[test]
    fn hole_bug_fails_linearizability_and_replays() {
        let sched = hole_schedule();
        let mut sys =
            ThreadedMcfs::from_schedule(buggy_single(), &sched, ThreadedMcfsConfig::default())
                .unwrap();
        let (at, msg) = sys
            .replay_schedule(&sched)
            .expect("the stale-hole read has no sequential witness");
        assert_eq!(at, sched.len() - 1, "violates on the read");
        assert!(msg.contains("linearizability violation"), "{msg}");
        // Byte-identical reproduction on a second fresh harness.
        let mut again =
            ThreadedMcfs::from_schedule(buggy_single(), &sched, ThreadedMcfsConfig::default())
                .unwrap();
        assert_eq!(again.replay_schedule(&sched), Some((at, msg)));
    }

    #[test]
    fn threaded_shrink_drops_fillers_and_keeps_program_order() {
        let sched = hole_schedule();
        let factory = |s: &[SchedStep]| {
            ThreadedMcfs::from_schedule(buggy_single(), s, ThreadedMcfsConfig::default())
        };
        let mut sys = factory(&sched).unwrap();
        let (_, msg) = sys.replay_schedule(&sched).expect("violates");
        let out = shrink_trace(&sched, &msg, &ShrinkConfig::default(), |c| {
            factory(c).ok()?.replay_schedule(c)
        })
        .expect("full schedule reproduces");
        assert!(out.trace.len() < sched.len());
        assert!(out.trace.iter().all(|s| s.tid == 0), "fillers removed");
        // Program order preserved: the minimized schedule is a subsequence
        // of thread 0's program.
        let prog: Vec<FsOp> = sched
            .iter()
            .filter(|s| s.tid == 0)
            .map(|s| s.op.clone())
            .collect();
        let mut cursor = 0;
        for step in &out.trace {
            let at = prog[cursor..]
                .iter()
                .position(|op| *op == step.op)
                .expect("subsequence");
            cursor += at + 1;
        }
        // And the result still reproduces byte-identically.
        let mut fresh = factory(&out.trace).unwrap();
        let (_, msg2) = fresh.replay_schedule(&out.trace).expect("reproduces");
        assert_eq!(msg2, msg);
    }

    /// Which hook a [`Faulty`] target fails once with `EIO`.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Fault {
        TrackState,
        PostOpAfterCrash,
    }

    /// VeriFS2 behind the checkpoint API, failing one `track_state`, or the
    /// first `post_op` after a crash, with `EIO` — a device error the
    /// harness must report rather than swallow.
    struct Faulty {
        inner: CheckpointTarget<VeriFs>,
        fault: Option<Fault>,
        crashed: bool,
    }

    impl Faulty {
        fn pair(fault: Fault) -> Vec<Box<dyn CheckedTarget>> {
            let mut fs = VeriFs::v2();
            fs.mount().unwrap();
            let faulty = Faulty {
                inner: CheckpointTarget::new(fs),
                fault: Some(fault),
                crashed: false,
            };
            let mut targets = clean_pair();
            targets[1] = Box::new(faulty);
            targets
        }

        fn fail(&mut self, fault: Fault) -> VfsResult<()> {
            if self.fault == Some(fault) {
                self.fault = None;
                return Err(Errno::EIO);
            }
            Ok(())
        }
    }

    impl CheckedTarget for Faulty {
        fn name(&self) -> String {
            "faulty".into()
        }
        fn fs_mut(&mut self) -> &mut dyn FileSystem {
            self.inner.fs_mut()
        }
        fn capabilities(&self) -> vfs::FsCapabilities {
            self.inner.capabilities()
        }
        fn strategy(&self) -> &'static str {
            self.inner.strategy()
        }
        fn save_state(&mut self, key: u64) -> VfsResult<usize> {
            self.inner.save_state(key)
        }
        fn load_state(&mut self, key: u64) -> VfsResult<()> {
            self.inner.load_state(key)
        }
        fn drop_state(&mut self, key: u64) -> VfsResult<()> {
            self.inner.drop_state(key)
        }
        fn pre_op(&mut self) -> VfsResult<()> {
            self.inner.pre_op()
        }
        fn post_op(&mut self) -> VfsResult<()> {
            if std::mem::take(&mut self.crashed) {
                self.fail(Fault::PostOpAfterCrash)?;
            }
            self.inner.post_op()
        }
        fn track_state(&mut self) -> VfsResult<()> {
            self.fail(Fault::TrackState)?;
            self.inner.track_state()
        }
        fn supports_crash(&self) -> bool {
            self.inner.supports_crash()
        }
        fn crash_remount(&mut self) -> VfsResult<()> {
            self.crashed = true;
            self.inner.crash_remount()
        }
    }

    /// VeriFS2 behind the checkpoint API whose power cut loses everything
    /// but `survivors`, re-executed on a fresh volume: a file system that
    /// recovers to a chosen per-thread cut.
    struct CutRecovery {
        inner: CheckpointTarget<VeriFs>,
        survivors: Vec<FsOp>,
    }

    impl CheckedTarget for CutRecovery {
        fn name(&self) -> String {
            "cut-recovery".into()
        }
        fn fs_mut(&mut self) -> &mut dyn FileSystem {
            self.inner.fs_mut()
        }
        fn capabilities(&self) -> vfs::FsCapabilities {
            self.inner.capabilities()
        }
        fn strategy(&self) -> &'static str {
            self.inner.strategy()
        }
        fn save_state(&mut self, key: u64) -> VfsResult<usize> {
            self.inner.save_state(key)
        }
        fn load_state(&mut self, key: u64) -> VfsResult<()> {
            self.inner.load_state(key)
        }
        fn drop_state(&mut self, key: u64) -> VfsResult<()> {
            self.inner.drop_state(key)
        }
        fn supports_crash(&self) -> bool {
            true
        }
        fn crash_remount(&mut self) -> VfsResult<()> {
            let mut fs = VeriFs::v2();
            fs.mount()?;
            for op in &self.survivors {
                crate::pool::execute(&mut fs, op, &[]);
            }
            self.inner = CheckpointTarget::new(fs);
            Ok(())
        }
    }

    #[test]
    fn capped_cut_lattice_prunes_a_recovery_outside_the_window() {
        // 34 ops per thread: the cut lattice has 35 × 35 = 1,225 cuts,
        // past the cap, so per-thread cuts are not enumerated.
        let program = |f: &str| {
            let mut ops = vec![op_create(f)];
            ops.extend((0..33).map(|i| op_write(f, i * 8, 8, 1)));
            ops
        };
        let programs = vec![program("/a"), program("/b")];
        // Keeping all of thread 0 and none of thread 1 is a valid cut but
        // no prefix of the alternating schedule; keeping nothing is the
        // window's first state.
        for (survivors, verified) in [(programs[0].clone(), false), (Vec::new(), true)] {
            let targets: Vec<Box<dyn CheckedTarget>> = (0..2)
                .map(|_| {
                    let mut fs = VeriFs::v2();
                    fs.mount().unwrap();
                    Box::new(CutRecovery {
                        inner: CheckpointTarget::new(fs),
                        survivors: survivors.clone(),
                    }) as Box<dyn CheckedTarget>
                })
                .collect();
            let cfg = ThreadedMcfsConfig {
                crash_exploration: true,
                ..ThreadedMcfsConfig::default()
            };
            let mut sys = ThreadedMcfs::new(targets, programs.clone(), cfg).unwrap();
            for (a, b) in programs[0].iter().zip(&programs[1]) {
                for (tid, op) in [(0, a), (1, b)] {
                    let step = SchedStep {
                        tid,
                        op: op.clone(),
                    };
                    assert_eq!(sys.apply(&step), ApplyOutcome::Ok);
                }
            }
            match sys.apply(&SchedStep::crash()) {
                ApplyOutcome::Prune(msg) if verified => {
                    assert!(msg.starts_with("crash recovery verified"), "{msg}")
                }
                ApplyOutcome::Prune(msg) => assert!(
                    msg.contains("the 1225-cut lattice exceeds MAX_CRASH_CUTS (1024)"),
                    "{msg}"
                ),
                other => panic!("a capped lattice must not reject a recovery: {other:?}"),
            }
            let crash = sys.crash_stats().unwrap();
            assert_eq!(crash.crashes, 1);
            assert_eq!(crash.recoveries, u64::from(verified));
            assert_eq!(crash.capped_cuts, u64::from(!verified));
        }
    }

    #[test]
    fn track_state_failures_are_violations() {
        let mut sys = ThreadedMcfs::new(
            Faulty::pair(Fault::TrackState),
            disjoint_programs(),
            ThreadedMcfsConfig::default(),
        )
        .unwrap();
        let step = sys.ops()[0].clone();
        match sys.apply(&step) {
            ApplyOutcome::Violation(msg) => {
                assert_eq!(
                    msg,
                    format!("faulty: state tracking failed: {}", Errno::EIO)
                )
            }
            other => panic!("a failed track_state must be a violation: {other:?}"),
        }
    }

    #[test]
    fn post_crash_unmount_failures_are_violations() {
        let cfg = ThreadedMcfsConfig {
            crash_exploration: true,
            ..ThreadedMcfsConfig::default()
        };
        let mut sys = ThreadedMcfs::new(
            Faulty::pair(Fault::PostOpAfterCrash),
            disjoint_programs(),
            cfg,
        )
        .unwrap();
        let step = sys.ops()[0].clone();
        assert!(matches!(sys.apply(&step), ApplyOutcome::Ok));
        match sys.apply(&SchedStep::crash()) {
            ApplyOutcome::Violation(msg) => assert_eq!(
                msg,
                format!("faulty: post-crash unmount failed: {}", Errno::EIO)
            ),
            other => panic!("a failed post-crash unmount must be a violation: {other:?}"),
        }
        assert_eq!(sys.interleave_stats().crash_recoveries, 0);
    }

    #[test]
    fn three_targets_name_the_minority_suspect() {
        let mut targets = clean_pair();
        let mut buggy = VeriFs::v2_with_bugs(BugConfig::v2_size());
        buggy.mount().unwrap();
        targets.push(Box::new(CheckpointTarget::new(buggy)));
        let program = vec![
            op_create("/f0"),
            op_write("/f0", 0, 10, 1),
            op_write("/f0", 10, 10, 2),
        ];
        let schedule: ThreadedTrace = program
            .iter()
            .map(|op| SchedStep {
                tid: 0,
                op: op.clone(),
            })
            .collect();
        let mut sys =
            ThreadedMcfs::new(targets, vec![program], ThreadedMcfsConfig::default()).unwrap();
        let (at, msg) = sys
            .replay_schedule(&schedule)
            .expect("the size bug diverges");
        assert_eq!(at, 2);
        assert!(
            msg.starts_with("abstract-state discrepancy on t0:"),
            "{msg}"
        );
        assert!(
            msg.contains("majority vote: 2 of 3 agree; suspect(s): verifs2"),
            "{msg}"
        );
    }

    #[test]
    fn crash_step_recovers_to_a_thread_cut() {
        let cfg = ThreadedMcfsConfig {
            crash_exploration: true,
            ..ThreadedMcfsConfig::default()
        };
        let mut sys = ThreadedMcfs::new(clean_pair(), disjoint_programs(), cfg).unwrap();
        let steps = sys.ops();
        let first = steps[0].clone();
        assert!(matches!(sys.apply(&first), ApplyOutcome::Ok));
        match sys.apply(&SchedStep::crash()) {
            ApplyOutcome::Prune(_) => {}
            other => panic!("crash must prune after verifying recovery: {other:?}"),
        }
        assert_eq!(sys.interleave_stats().crashes, 1);
        assert_eq!(sys.interleave_stats().crash_recoveries, 1);
    }
}

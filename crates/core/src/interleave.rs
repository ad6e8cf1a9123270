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
//! the same lockstep core as [`Mcfs`](crate::Mcfs) (the private `lockstep`
//! module), so the targets' outcomes and abstract states are checked, and
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
use vfs::{Errno, VfsResult};

use crate::abstraction::AbstractionConfig;
use crate::effect::EffectIndex;
use crate::lockstep::Lockstep;
use crate::pool::{execute_with, FsOp, OpOutcome};
use crate::shrink::{shrink_trace, ShrinkConfig};
use crate::target::{self, CheckedTarget, CheckpointTarget};

/// The pseudo-thread id of the crash scheduler: a [`SchedStep`] with this
/// tid power-cuts every target between two real steps. Never a valid
/// program thread.
pub const CRASH_TID: u16 = u16::MAX;

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
    /// Reference ops the crash oracle's cut searches have run.
    cut_ops: u64,
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
            effects,
            pcs: vec![0; thread_count],
            history: Vec::new(),
            floor: vec![0; thread_count],
            ckpt: HashMap::new(),
            ckpt_hashes: HashMap::new(),
            final_states: BTreeSet::new(),
            stats: InterleaveStats::default(),
            cut_ops: 0,
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
    /// against, which turns minimization on: violating schedules are
    /// delta-debugged at record time. Without a factory nothing is
    /// minimized.
    #[must_use]
    pub fn with_factory(mut self, factory: Arc<ThreadedHarnessFactory>) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Interleaving-specific counters.
    pub fn interleave_stats(&self) -> InterleaveStats {
        self.stats
    }

    /// Ops the crash oracle has run on its reference while searching the
    /// cut lattice.
    pub fn cut_ops(&self) -> u64 {
        self.cut_ops
    }

    /// Fingerprints of every terminal interleaving reached so far.
    pub fn final_states(&self) -> &BTreeSet<u128> {
        &self.final_states
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
        let reference = Reference::new(&self.setup, &self.core.abstraction)
            .map_err(|e| format!("linearizability reference mount failed: {e}"))?;
        let mut search = LinSearch {
            reference,
            programs: &self.programs,
            expected,
            pos,
            placed: vec![0; tc],
        };
        let found = search
            .dfs(total)
            .map_err(|e| format!("linearizability reference failed: {e}"))?;
        self.stats.lin_candidates += search.reference.ops;
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

    /// The crash pseudo-step: power-cut every target between two scheduled
    /// ops and check recovery against the set of *linearizable prefix*
    /// states — every interleaved prefix state since the sync floor, plus
    /// every per-thread cut of the history re-executed sequentially (a
    /// thread's issued-but-unsynced tail may be lost independently of the
    /// others'). Only recoveries outside the window send the oracle into
    /// the cut lattice, and the search stops once it has found them all, so
    /// a recovery that matches no cut costs the whole lattice.
    fn apply_crash(&mut self) -> Result<(), ApplyOutcome> {
        self.stats.crashes += 1;
        let pre = self.core.crash_prelude()?;
        let mut window: BTreeSet<u128> = self.core.prefix_hashes.iter().copied().collect();
        window.insert(pre);
        let recovered = self.core.recover()?;
        let mut missing: BTreeSet<u128> = recovered
            .iter()
            .map(|h| h.as_u128())
            .filter(|h| !window.contains(h))
            .collect();
        if !missing.is_empty() {
            self.cut_ops += self
                .search_cuts(|h| {
                    missing.remove(&h);
                    missing.is_empty()
                })
                .map_err(|e| {
                    let msg = format!("crash-cut reference execution failed: {e}");
                    self.core.violation(msg)
                })?;
        }
        self.core.judge(
            &recovered,
            |h| !missing.contains(&h),
            |name| {
                format!(
                    "crash-consistency violation: {name} recovered to a state matching no \
                     linearizable prefix of the interleaved history"
                )
            },
        )?;
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

    /// Walks the crash-cut lattice — every per-thread cut
    /// `floor ≤ c ≤ pc`, each thread's issued ops truncated at its cut and
    /// run in the recorded schedule order — depth-first on one checkpointed
    /// reference, so cuts share the ops of their common prefix. At each
    /// step of a thread past its floor the search saves the reference and
    /// branches: the thread runs the op (first), or its cut falls here.
    /// `leaf` gets each cut's abstract state and returns whether to stop.
    /// Returns the reference ops run.
    fn search_cuts(&self, leaf: impl FnMut(u128) -> bool) -> VfsResult<u64> {
        let mut issued = vec![0; self.thread_count()];
        let steps = self
            .history
            .iter()
            .filter(|(step, _)| !step.is_crash())
            .map(|(step, _)| {
                let t = step.tid as usize;
                issued[t] += 1;
                (t, issued[t] > self.floor[t], &step.op)
            })
            .collect();
        let mut search = CutSearch {
            reference: Reference::new(&self.setup, &self.core.abstraction)?,
            steps,
            stopped: vec![false; self.thread_count()],
            leaf,
        };
        search.dfs(0)?;
        Ok(search.reference.ops)
    }
}

/// The sequential model both oracles judge the threads' history against:
/// VeriFS2 behind the checkpoint API, with the setup prologue replayed.
struct Reference<'a> {
    target: CheckpointTarget<VeriFs>,
    abstraction: &'a AbstractionConfig,
    /// Ops run past the setup.
    ops: u64,
}

impl<'a> Reference<'a> {
    fn new(setup: &[FsOp], abstraction: &'a AbstractionConfig) -> VfsResult<Self> {
        let mut reference = Reference {
            target: CheckpointTarget::new(VeriFs::v2()),
            abstraction,
            ops: 0,
        };
        reference.target.pre_op()?;
        for op in setup {
            reference.run(op);
        }
        reference.ops = 0;
        Ok(reference)
    }

    /// Runs `op`, first dropping the cached fingerprints of the paths it
    /// touches, so a later hash re-reads only what changed.
    fn run(&mut self, op: &FsOp) -> OpOutcome {
        self.ops += 1;
        self.target.invalidate_fingerprints(&op.touched_paths());
        let abstraction = self.abstraction;
        execute_with(
            self.target.fs_mut(),
            op,
            &abstraction.exceptions,
            abstraction.sort_entries,
        )
    }
}

/// One Wing & Gong search ([`ThreadedMcfs::check_linearizable`]).
struct LinSearch<'a> {
    reference: Reference<'a>,
    programs: &'a [Vec<FsOp>],
    /// Each thread's observed outcomes, and the history position of each.
    expected: Vec<Vec<OpOutcome>>,
    pos: Vec<Vec<i64>>,
    /// Ops of each thread the current candidate has placed.
    placed: Vec<usize>,
}

impl LinSearch<'_> {
    /// Whether the `left` ops not yet placed have a linearization.
    fn dfs(&mut self, left: usize) -> VfsResult<bool> {
        if left == 0 {
            return Ok(true);
        }
        let key = left as u64;
        self.reference.target.save_state(key)?;
        for t in 0..self.programs.len() {
            let k = self.placed[t];
            if k >= self.expected[t].len() {
                continue;
            }
            // Real-time order: a pending op A of another thread precedes
            // this op B iff A's response (its history position) came before
            // B's invocation (B's thread predecessor's position). Placing B
            // first would reorder them against the wall clock.
            let inv = if k == 0 { -1 } else { self.pos[t][k - 1] };
            let blocked = (0..self.programs.len()).any(|u| {
                let ku = self.placed[u];
                u != t && ku < self.expected[u].len() && self.pos[u][ku] < inv
            });
            if blocked {
                continue;
            }
            if self.reference.run(&self.programs[t][k]) == self.expected[t][k] {
                self.placed[t] = k + 1;
                let hit = self.dfs(left - 1)?;
                self.placed[t] = k;
                if hit {
                    let _ = self.reference.target.drop_state(key);
                    return Ok(true);
                }
            }
            self.reference.target.load_state(key)?;
        }
        let _ = self.reference.target.drop_state(key);
        Ok(false)
    }
}

/// One depth-first walk of the crash-cut lattice
/// ([`ThreadedMcfs::search_cuts`]).
struct CutSearch<'a, F> {
    reference: Reference<'a>,
    /// The history's thread steps: the issuing thread, whether the step
    /// lies past the thread's floor (a cut may fall before it), the op.
    steps: Vec<(usize, bool, &'a FsOp)>,
    /// Threads whose cut the current branch has already placed.
    stopped: Vec<bool>,
    leaf: F,
}

impl<F: FnMut(u128) -> bool> CutSearch<'_, F> {
    /// Walks the cuts below step `at`; true once `leaf` asks to stop.
    fn dfs(&mut self, at: usize) -> VfsResult<bool> {
        let Some(&(t, past_floor, op)) = self.steps.get(at) else {
            let reference = &mut self.reference;
            let state = reference
                .target
                .cached_abstract_state(reference.abstraction)?;
            return Ok((self.leaf)(state.as_u128()));
        };
        if self.stopped[t] {
            return self.dfs(at + 1);
        }
        if !past_floor {
            self.reference.run(op);
            return self.dfs(at + 1);
        }
        let key = at as u64;
        self.reference.target.save_state(key)?;
        self.reference.run(op);
        if self.dfs(at + 1)? {
            return Ok(true);
        }
        self.reference.target.load_state(key)?;
        self.reference.target.drop_state(key)?;
        self.stopped[t] = true;
        let stop = self.dfs(at + 1);
        self.stopped[t] = false;
        stop
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
    use crate::abstraction::abstract_state;
    use modelcheck::{DfsExplorer, ExploreConfig};
    use proptest::prelude::*;
    use verifs::BugConfig;
    use vfs::FileSystem;

    /// Reference states of every per-thread cut `floor ≤ c ≤ pc`, each
    /// replayed from scratch on a fresh reference in mixed-radix order: the
    /// definition [`ThreadedMcfs::search_cuts`] is checked against.
    fn crash_cut_states(sys: &ThreadedMcfs) -> VfsResult<Vec<u128>> {
        let tc = sys.thread_count();
        let abstraction = &sys.core.abstraction;
        let exceptions = &abstraction.exceptions;
        let sort = abstraction.sort_entries;
        let mut out = Vec::new();
        let mut cut: Vec<usize> = sys.floor.clone();
        loop {
            let mut reference = VeriFs::v2();
            reference.mount()?;
            for op in &sys.setup {
                execute_with(&mut reference, op, exceptions, sort);
            }
            let mut idx = vec![0usize; tc];
            for (step, _) in &sys.history {
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
                if cut[t] < sys.pcs[t] {
                    cut[t] += 1;
                    break;
                }
                cut[t] = sys.floor[t];
                t += 1;
            }
        }
    }

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
    fn every_cut_of_a_1225_cut_lattice_is_checked() {
        // 34 ops per thread, run alternately: the cut lattice has
        // 35 × 35 = 1,225 cuts.
        let program = |f: &str| {
            let mut ops = vec![op_create(f)];
            ops.extend((0..33).map(|i| op_write(f, i * 8, 8, 1)));
            ops
        };
        let programs = vec![program("/a"), program("/b")];
        // All of thread 0 and none of thread 1 is a cut but no prefix of
        // the alternating schedule; nothing is the window's first state;
        // thread 0's second write without its first is no cut at all.
        let torn = vec![programs[0][0].clone(), programs[0][2].clone()];
        for (survivors, verified) in [
            (programs[0].clone(), true),
            (Vec::new(), true),
            (torn, false),
        ] {
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
                ApplyOutcome::Violation(msg) if !verified => assert!(
                    msg.starts_with("crash-consistency violation: cut-recovery recovered"),
                    "{msg}"
                ),
                other => panic!("verified = {verified}: {other:?}"),
            }
            let crash = sys.crash_stats().unwrap();
            assert_eq!(crash.crashes, 1);
            assert_eq!(crash.recoveries, u64::from(verified));
            // A recovery no cut reaches costs the whole lattice: one
            // reference op per branch point, 1,224 for 1,225 leaves.
            if !verified {
                assert_eq!(sys.cut_ops(), 1_224);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The depth-first cut search reaches exactly the states of the
        /// from-scratch mixed-radix replay, one leaf per cut, on random
        /// 2–3-thread programs over shared paths whose every thread has a
        /// sync floor above 0.
        #[test]
        fn cut_search_matches_the_mixed_radix_replay(
            lens in prop::collection::vec(2usize..5, 3..4),
            threads in 2usize..4,
            picks in prop::collection::vec(0usize..9, 12..13),
            synced in 1usize..3,
            order in prop::collection::vec(0usize..3, 12..13),
        ) {
            let menu = [
                op_create("/a"),
                op_create("/b"),
                op_write("/a", 0, 8, 1),
                op_write("/b", 4, 8, 2),
                op_trunc("/a", 2),
                FsOp::Unlink { path: "/a".into() },
                FsOp::Mkdir { path: "/d".into(), mode: 0o755 },
                FsOp::Rename { src: "/a".into(), dst: "/d/a".into() },
                FsOp::Rename { src: "/b".into(), dst: "/a".into() },
            ];
            let mut next = picks.iter().cycle();
            let programs: Vec<Vec<FsOp>> = lens[..threads]
                .iter()
                .map(|&n| (0..n).map(|_| menu[*next.next().unwrap()].clone()).collect())
                .collect();
            let cfg = ThreadedMcfsConfig {
                crash_exploration: true,
                ..ThreadedMcfsConfig::default()
            };
            let mut sys = ThreadedMcfs::new(clean_pair(), programs.clone(), cfg).unwrap();
            let mut order = order.iter().cycle();
            let mut issue = |sys: &mut ThreadedMcfs, limit: usize| loop {
                let live: Vec<usize> = (0..threads)
                    .filter(|&t| sys.pcs[t] < limit.min(programs[t].len()))
                    .collect();
                let Some(&t) = live.get(order.next().unwrap() % live.len().max(1)) else {
                    break;
                };
                let step = SchedStep { tid: t as u16, op: programs[t][sys.pcs[t]].clone() };
                prop_assert_eq!(sys.apply(&step), ApplyOutcome::Ok);
            };
            // Checkpointing sets the sync floor at every thread's pc.
            issue(&mut sys, synced);
            sys.checkpoint(StateId(0)).unwrap();
            issue(&mut sys, usize::MAX);
            prop_assert!(sys.floor.iter().all(|&f| f > 0));
            let replayed = crash_cut_states(&sys).unwrap();
            let mut searched = BTreeSet::new();
            let mut leaves = 0;
            let ops = sys
                .search_cuts(|h| {
                    searched.insert(h);
                    leaves += 1;
                    false
                })
                .unwrap();
            prop_assert_eq!(leaves, replayed.len());
            prop_assert_eq!(searched, replayed.into_iter().collect::<BTreeSet<_>>());
            // The floor prefix runs once; past it, one op per branch point.
            let floor_ops: usize = sys.floor.iter().sum();
            prop_assert_eq!(ops as usize, floor_ops + leaves - 1);
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

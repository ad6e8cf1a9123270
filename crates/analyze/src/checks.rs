//! The sanitizers behind the lint codes.
//!
//! Every check is *dynamic* validation of a *static* claim: MC001 executes
//! both orders of every pair the derived (or legacy) independence relation
//! calls independent; MC002 hunts for visited-set fingerprint collisions
//! that a POSIX probe suite can tell apart; MC003 replays identical
//! sequences on two backends and compares errno models; MC004 round-trips
//! checkpoints (API and device-image flavors) and checks the restored
//! state is the checkpointed one; MC005 corrupts derivable metadata in the
//! device image and checks fsck converges without losing reachable data;
//! MC006 swaps the two-thread schedule of every pair the concurrency
//! relation claims independent and compares states *and* per-op results.

use std::collections::HashMap;

use blockdev::DeviceSnapshot;
use mcfs::effect::{heuristic_independent, EffectIndex, EffectProfile};
use mcfs::{abstract_state, execute, AbstractionConfig, FsOp, OpOutcome, PoolConfig};
use modelcheck::{
    encode_snapshot, load_snapshot, run_swarm_persistent, ExploreConfig, ExploreStats, ModelSystem,
    OpCodec, RunSnapshot, StopReason, SwarmConfig, SwarmPersist, SwarmReport, WorkerStrategy,
};
use vfs::{DeviceBacked, Errno, FileSystem, FsCheckpoint, VfsResult};

use crate::report::{Diagnostic, LintCode, Severity};
use mcfs::backends::Backend;

/// Deterministic xorshift64 PRNG: the sanitizers must be reproducible from
/// their seed alone.
pub struct XorShift64(u64);

impl XorShift64 {
    /// Seeded constructor (zero is mapped to a fixed nonzero state).
    pub fn new(seed: u64) -> Self {
        XorShift64(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The state observation the sanitizers compare: the POSIX-observable
/// abstraction hash plus the backend's opaque digest (hidden state such as
/// beyond-EOF residue). Mirrors the harness's visited-set identity.
fn observe(fs: &mut dyn FileSystem) -> (u128, Option<u128>) {
    let h = abstract_state(fs, &AbstractionConfig::default())
        .map(|d| d.as_u128())
        .unwrap_or(u128::MAX);
    (h, fs.opaque_state_digest())
}

/// Applies `ops` to a fresh instance and observes the final state.
fn run_trace(backend: &Backend, ops: &[&FsOp]) -> VfsResult<(u128, Option<u128>)> {
    let mut fs = backend.fresh()?;
    for op in ops {
        let _ = execute(fs.as_mut(), op, &[]);
    }
    Ok(observe(fs.as_mut()))
}

/// Which independence relation MC001 validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// The signature-derived relation ([`mcfs::effect`]); the default POR
    /// driver — must pass on every backend.
    Derived,
    /// The original hand-written path-prefix heuristic; kept so the tests
    /// can demonstrate its unsoundness (hard-link aliasing).
    Heuristic,
}

/// MC001 tuning.
#[derive(Debug, Clone)]
pub struct Mc001Config {
    /// Sampled reachable prefixes per claimed-independent pair.
    pub samples_per_pair: usize,
    /// Maximum prefix length (lengths are drawn uniformly up to this).
    pub prefix_len: usize,
    /// Cap on the number of pairs exercised (`None` = all); heavy backends
    /// sample.
    pub max_pairs: Option<usize>,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Mc001Config {
    fn default() -> Self {
        Mc001Config {
            samples_per_pair: 2,
            prefix_len: 3,
            max_pairs: None,
            seed: 0xc0ff_ee01,
        }
    }
}

/// The pool ops `backend` supports and their effect index under the
/// backend's profile: the relations MC001 and MC006 validate.
fn backend_effects(backend: &Backend, pool_ops: &[FsOp]) -> VfsResult<(Vec<FsOp>, EffectIndex)> {
    let caps = backend.fresh()?.capabilities();
    let ops: Vec<FsOp> = pool_ops
        .iter()
        .filter(|o| o.allowed_by(caps))
        .cloned()
        .collect();
    let kernel_caches = backend.fresh()?.caches_metadata();
    let profile = EffectProfile::from_pool(&ops).with_kernel_caches(kernel_caches);
    let index = EffectIndex::new(&ops, profile);
    Ok((ops, index))
}

/// MC001 — commutation sanitizer. For every pair `relation` claims
/// independent, executes `prefix; a; b` and `prefix; b; a` from sampled
/// reachable prefixes on a fresh backend instance and reports a diagnostic
/// with the replayable sequence if the final states differ.
///
/// # Errors
///
/// Backend construction failures.
pub fn mc001_commutation(
    backend: &Backend,
    pool_ops: &[FsOp],
    relation: Relation,
    cfg: &Mc001Config,
) -> VfsResult<Vec<Diagnostic>> {
    let (ops, index) = backend_effects(backend, pool_ops)?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..ops.len() {
        for j in (i + 1)..ops.len() {
            let claimed = match relation {
                Relation::Derived => index.independent(&ops[i], &ops[j]),
                Relation::Heuristic => heuristic_independent(&ops[i], &ops[j]),
            };
            if claimed {
                pairs.push((i, j));
            }
        }
    }
    let mut rng = XorShift64::new(cfg.seed);
    if let Some(max) = cfg.max_pairs {
        // Deterministic partial Fisher-Yates, then truncate.
        for k in 0..pairs.len().min(max) {
            let pick = k + rng.below(pairs.len() - k);
            pairs.swap(k, pick);
        }
        pairs.truncate(max);
    }
    let mutations: Vec<&FsOp> = ops.iter().filter(|o| o.is_mutation()).collect();
    let mut out = Vec::new();
    for (i, j) in pairs {
        for _ in 0..cfg.samples_per_pair {
            let plen = rng.below(cfg.prefix_len + 1);
            let prefix: Vec<&FsOp> = (0..plen)
                .map(|_| mutations[rng.below(mutations.len())])
                .collect();
            let mut ab = prefix.clone();
            ab.push(&ops[i]);
            ab.push(&ops[j]);
            let mut ba = prefix.clone();
            ba.push(&ops[j]);
            ba.push(&ops[i]);
            let state_ab = run_trace(backend, &ab)?;
            let state_ba = run_trace(backend, &ba)?;
            if state_ab != state_ba {
                out.push(Diagnostic {
                    code: LintCode::Mc001,
                    severity: Severity::Error,
                    backend: backend.name.to_string(),
                    message: format!(
                        "claimed-independent pair does not commute: `{}` vs `{}` \
                         after a {plen}-op prefix (state {:032x}/{:?} vs {:032x}/{:?})",
                        ops[i], ops[j], state_ab.0, state_ab.1, state_ba.0, state_ba.1
                    ),
                    replay: ab.iter().map(|o| o.to_string()).collect(),
                });
                break;
            }
        }
    }
    Ok(out)
}

/// Which claimed concurrency relation MC006 validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcRelation {
    /// The concurrency relation ([`mcfs::effect::independent_concurrent`])
    /// driving the interleaving explorer's partial-order reduction — must
    /// pass on every backend.
    Concurrent,
    /// The sequential state relation, deliberately misused as a concurrency
    /// relation; kept so the tests can demonstrate why the interleaving
    /// explorer must not reuse it (op results are order-sensitive even when
    /// the reached state is not).
    Sequential,
}

/// MC006 tuning.
#[derive(Debug, Clone)]
pub struct Mc006Config {
    /// Random reachable prefixes tried per claimed-independent pair.
    pub samples_per_pair: usize,
    /// Maximum prefix length.
    pub prefix_len: usize,
    /// Cap on the number of claimed-independent pairs examined; `None`
    /// examines every pair, a limit takes a seeded random sample.
    pub max_pairs: Option<usize>,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Mc006Config {
    fn default() -> Self {
        Mc006Config {
            samples_per_pair: 2,
            prefix_len: 3,
            max_pairs: None,
            seed: 0xc0ff_ee06,
        }
    }
}

/// Executes `prefix; first; second` on a fresh instance, returning the
/// final state and the two foreground ops' own outcomes, in that order.
fn run_two_thread(
    backend: &Backend,
    prefix: &[&FsOp],
    first: &FsOp,
    second: &FsOp,
) -> VfsResult<((u128, Option<u128>), OpOutcome, OpOutcome)> {
    let mut fs = backend.fresh()?;
    for op in prefix {
        let _ = execute(fs.as_mut(), op, &[]);
    }
    let o1 = execute(fs.as_mut(), first, &[]);
    let o2 = execute(fs.as_mut(), second, &[]);
    Ok((observe(fs.as_mut()), o1, o2))
}

/// MC006 — interleaving-commutation sanitizer. The thread-interleaving
/// explorer's partial-order reduction collapses the two schedules of a
/// claimed-independent pair into one, so the claim must cover more than
/// MC001's: swapping the order may change neither the reached state **nor
/// either op's own observed result** — each logical thread records the
/// outcome it saw, and a dropped schedule whose outcomes differ would hide
/// a distinct observable history. Unlike MC001, identical pairs (`i == j`,
/// two threads racing the same op) are examined too.
///
/// # Errors
///
/// Backend construction failures.
pub fn mc006_interleave_commutation(
    backend: &Backend,
    pool_ops: &[FsOp],
    relation: ConcRelation,
    cfg: &Mc006Config,
) -> VfsResult<Vec<Diagnostic>> {
    let (ops, index) = backend_effects(backend, pool_ops)?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..ops.len() {
        for j in i..ops.len() {
            let claimed = match relation {
                ConcRelation::Concurrent => index.independent_concurrent(&ops[i], &ops[j]),
                ConcRelation::Sequential => index.independent(&ops[i], &ops[j]),
            };
            if claimed {
                pairs.push((i, j));
            }
        }
    }
    let mut rng = XorShift64::new(cfg.seed);
    if let Some(max) = cfg.max_pairs {
        for k in 0..pairs.len().min(max) {
            let pick = k + rng.below(pairs.len() - k);
            pairs.swap(k, pick);
        }
        pairs.truncate(max);
    }
    let mutations: Vec<&FsOp> = ops.iter().filter(|o| o.is_mutation()).collect();
    let mut out = Vec::new();
    for (i, j) in pairs {
        for _ in 0..cfg.samples_per_pair {
            let plen = rng.below(cfg.prefix_len + 1);
            let prefix: Vec<&FsOp> = (0..plen)
                .map(|_| mutations[rng.below(mutations.len())])
                .collect();
            let (state_ab, a_first, b_second) = run_two_thread(backend, &prefix, &ops[i], &ops[j])?;
            let (state_ba, b_first, a_second) = run_two_thread(backend, &prefix, &ops[j], &ops[i])?;
            // Re-key the swapped run's outcomes by op (= by thread), not by
            // schedule position, before comparing.
            if (&state_ab, &a_first, &b_second) != (&state_ba, &a_second, &b_first) {
                let what = if state_ab == state_ba {
                    "an op's own observed result"
                } else {
                    "the reached state"
                };
                out.push(Diagnostic {
                    code: LintCode::Mc006,
                    severity: Severity::Error,
                    backend: backend.name.to_string(),
                    message: format!(
                        "claimed concurrency-independent pair is schedule-sensitive: \
                         `{}` vs `{}` after a {plen}-op prefix changes {what} \
                         ({a_first:?}/{b_second:?} vs {a_second:?}/{b_first:?})",
                        ops[i], ops[j]
                    ),
                    replay: prefix
                        .iter()
                        .map(|o| o.to_string())
                        .chain([format!("t0: {}", ops[i]), format!("t1: {}", ops[j])])
                        .collect(),
                });
                break;
            }
        }
    }
    Ok(out)
}

/// MC002 tuning.
#[derive(Debug, Clone)]
pub struct Mc002Config {
    /// Enumerate all traces up to this length over the given op set.
    pub max_len: usize,
    /// Hard cap on enumerated traces.
    pub max_traces: usize,
    /// Cap on reported collisions (probing every member of a large bucket
    /// is redundant).
    pub max_findings: usize,
}

impl Default for Mc002Config {
    fn default() -> Self {
        Mc002Config {
            max_len: 3,
            max_traces: 4096,
            max_findings: 4,
        }
    }
}

/// The probe suite MC002 uses to distinguish allegedly-equal states: hole
/// writes into the tail chunk of every pool file (the access pattern that
/// exposed the VeriFS CHUNK-rounding residue), followed by reads, stats
/// and a root listing. Probe outcomes plus the post-probe abstraction hash
/// form the observation.
fn probe_suite(ops: &[FsOp]) -> Vec<FsOp> {
    let mut files: Vec<&str> = Vec::new();
    for op in ops {
        for p in op.touched_paths() {
            if !files.contains(&p) {
                files.push(p);
            }
        }
    }
    let mut probes = Vec::new();
    for f in &files {
        probes.push(FsOp::WriteFile {
            path: (*f).to_string(),
            offset: 30,
            size: 4,
            seed: 7,
        });
        probes.push(FsOp::ReadFile {
            path: (*f).to_string(),
            offset: 0,
            size: 64,
        });
        probes.push(FsOp::Stat {
            path: (*f).to_string(),
        });
    }
    probes.push(FsOp::Getdents { path: "/".into() });
    probes
}

/// MC002 — abstraction-aliasing probe. Enumerates short traces over `ops`,
/// groups the resulting states by their visited-set fingerprint
/// (abstraction hash + opaque digest), and for every collision replays
/// both traces and applies the probe suite: if the probes can tell the
/// states apart, the fingerprint aliases observably distinct states and
/// state-matched exploration would wrongly merge them.
///
/// # Errors
///
/// Backend construction failures.
pub fn mc002_aliasing(
    fresh: &dyn Fn() -> VfsResult<Box<dyn FileSystem>>,
    backend_name: &str,
    ops: &[FsOp],
    cfg: &Mc002Config,
) -> VfsResult<Vec<Diagnostic>> {
    assert!(!ops.is_empty(), "MC002 needs a non-empty op set");
    // Enumerate traces of length 1..=max_len in lexicographic order.
    let mut traces: Vec<Vec<usize>> = Vec::new();
    'outer: for len in 1..=cfg.max_len {
        let mut idx = vec![0usize; len];
        loop {
            traces.push(idx.clone());
            if traces.len() >= cfg.max_traces {
                break 'outer;
            }
            // Odometer increment.
            let mut pos = len;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < ops.len() {
                    break;
                }
                idx[pos] = 0;
                if pos == 0 {
                    break;
                }
            }
            if idx.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    // Fingerprint every trace's final state.
    let mut buckets: HashMap<(u128, Option<u128>), Vec<usize>> = HashMap::new();
    for (t, trace) in traces.iter().enumerate() {
        let mut fs = fresh()?;
        for &i in trace {
            let _ = execute(fs.as_mut(), &ops[i], &[]);
        }
        buckets.entry(observe(fs.as_mut())).or_default().push(t);
    }
    // Probe collisions: replay each colliding trace fresh and compare the
    // probe observations against the bucket's representative.
    let probes = probe_suite(ops);
    let observe_probed = |trace: &[usize]| -> VfsResult<(Vec<OpOutcome>, u128)> {
        let mut fs = fresh()?;
        for &i in trace {
            let _ = execute(fs.as_mut(), &ops[i], &[]);
        }
        let outcomes: Vec<OpOutcome> = probes
            .iter()
            .map(|p| execute(fs.as_mut(), p, &[]))
            .collect();
        Ok((outcomes, observe(fs.as_mut()).0))
    };
    let mut out = Vec::new();
    for members in buckets.values() {
        if members.len() < 2 || out.len() >= cfg.max_findings {
            continue;
        }
        let rep = observe_probed(&traces[members[0]])?;
        for &other in &members[1..] {
            if observe_probed(&traces[other])? != rep {
                let render = |t: &[usize]| {
                    t.iter()
                        .map(|&i| ops[i].to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                };
                let mut replay: Vec<String> = traces[members[0]]
                    .iter()
                    .map(|&i| ops[i].to_string())
                    .collect();
                replay.push("-- vs --".to_string());
                replay.extend(traces[other].iter().map(|&i| ops[i].to_string()));
                replay.push("-- probes --".to_string());
                replay.extend(probes.iter().map(|p| p.to_string()));
                out.push(Diagnostic {
                    code: LintCode::Mc002,
                    severity: Severity::Error,
                    backend: backend_name.to_string(),
                    message: format!(
                        "abstraction aliasing: traces [{}] and [{}] have equal \
                         fingerprints but the probe suite distinguishes them",
                        render(&traces[members[0]]),
                        render(&traces[other]),
                    ),
                    replay,
                });
                break;
            }
        }
    }
    Ok(out)
}

/// MC003 tuning.
#[derive(Debug, Clone)]
pub struct Mc003Config {
    /// Random sequences per backend pair.
    pub sequences: usize,
    /// Ops per sequence.
    pub seq_len: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Mc003Config {
    fn default() -> Self {
        Mc003Config {
            sequences: 40,
            seq_len: 6,
            seed: 0xc0ff_ee03,
        }
    }
}

/// MC003 — errno-model divergence. Replays identical random sequences
/// (capability-intersected) on two backends and compares the *error
/// model*: success-vs-failure and the errno itself at every step. Full
/// outcome comparison is the harness's job; this lint isolates the errno
/// dimension so model divergences show up without a full harness run.
///
/// # Errors
///
/// Backend construction failures.
pub fn mc003_errno_parity(
    a: &Backend,
    b: &Backend,
    pool: &PoolConfig,
    cfg: &Mc003Config,
) -> VfsResult<Vec<Diagnostic>> {
    let caps = a
        .fresh()?
        .capabilities()
        .intersect(b.fresh()?.capabilities());
    let ops: Vec<FsOp> = pool
        .ops()
        .into_iter()
        .filter(|o| o.allowed_by(caps))
        .collect();
    let mut rng = XorShift64::new(cfg.seed);
    let mut out = Vec::new();
    let pair_name = format!("{}/{}", a.name, b.name);
    for _ in 0..cfg.sequences {
        let seq: Vec<&FsOp> = (0..cfg.seq_len)
            .map(|_| &ops[rng.below(ops.len())])
            .collect();
        let mut fa = a.fresh()?;
        let mut fb = b.fresh()?;
        for (step, op) in seq.iter().enumerate() {
            let oa = execute(fa.as_mut(), op, &[]);
            let ob = execute(fb.as_mut(), op, &[]);
            let ea = match &oa {
                OpOutcome::Err(e) => Some(*e),
                _ => None,
            };
            let eb = match &ob {
                OpOutcome::Err(e) => Some(*e),
                _ => None,
            };
            if ea != eb {
                out.push(Diagnostic {
                    code: LintCode::Mc003,
                    severity: Severity::Error,
                    backend: pair_name.clone(),
                    message: format!(
                        "errno divergence at step {step}: `{op}` -> {:?} on {} \
                         but {:?} on {}",
                        ea, a.name, eb, b.name
                    ),
                    replay: seq[..=step].iter().map(|o| o.to_string()).collect(),
                });
                break;
            }
        }
        if out.len() >= 4 {
            break;
        }
    }
    Ok(out)
}

/// MC004 tuning.
#[derive(Debug, Clone)]
pub struct Mc004Config {
    /// Checkpoint/restore round trips.
    pub rounds: usize,
    /// Mutations before the checkpoint (reachable-state variety).
    pub prefix_len: usize,
    /// Mutations between checkpoint and restore.
    pub suffix_len: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Mc004Config {
    fn default() -> Self {
        Mc004Config {
            rounds: 8,
            prefix_len: 4,
            suffix_len: 3,
            seed: 0xc0ff_ee04,
        }
    }
}

fn random_mutations<'p>(
    rng: &mut XorShift64,
    mutations: &[&'p FsOp],
    max_len: usize,
) -> Vec<&'p FsOp> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| mutations[rng.below(mutations.len())])
        .collect()
}

/// MC004 (checkpoint-API flavor) — checkpoint/restore asymmetry. From a
/// random reachable state: checkpoint, observe, mutate, `restore_keep`,
/// observe again (must match), mutate again, `restore`, observe a third
/// time (must still match). Any mismatch means restore does not reproduce
/// the checkpointed state.
///
/// # Errors
///
/// Backend construction/checkpoint failures.
pub fn mc004_checkpoint_symmetry<F: FileSystem + FsCheckpoint>(
    fresh: &dyn Fn() -> VfsResult<F>,
    backend_name: &str,
    pool: &PoolConfig,
    cfg: &Mc004Config,
) -> VfsResult<Vec<Diagnostic>> {
    let ops = pool.ops();
    let caps = fresh()?.capabilities();
    let mutations: Vec<&FsOp> = ops
        .iter()
        .filter(|o| o.is_mutation() && o.allowed_by(caps))
        .collect();
    let mut rng = XorShift64::new(cfg.seed);
    let mut out = Vec::new();
    for round in 0..cfg.rounds {
        let mut fs = fresh()?;
        let prefix = random_mutations(&mut rng, &mutations, cfg.prefix_len);
        for op in &prefix {
            let _ = execute(&mut fs, op, &[]);
        }
        fs.checkpoint(1)?;
        let h0 = observe(&mut fs);
        let suffix1 = random_mutations(&mut rng, &mutations, cfg.suffix_len);
        for op in &suffix1 {
            let _ = execute(&mut fs, op, &[]);
        }
        fs.restore_keep(1)?;
        let h1 = observe(&mut fs);
        let suffix2 = random_mutations(&mut rng, &mutations, cfg.suffix_len);
        for op in &suffix2 {
            let _ = execute(&mut fs, op, &[]);
        }
        fs.restore(1)?;
        let h2 = observe(&mut fs);
        if h1 != h0 || h2 != h0 {
            let mut replay: Vec<String> = prefix.iter().map(|o| o.to_string()).collect();
            replay.push("-- checkpoint(1) --".into());
            replay.extend(suffix1.iter().map(|o| o.to_string()));
            replay.push("-- restore(1) --".into());
            out.push(Diagnostic {
                code: LintCode::Mc004,
                severity: Severity::Error,
                backend: backend_name.to_string(),
                message: format!(
                    "checkpoint/restore asymmetry (round {round}): checkpointed \
                     {h0:?}, restore_keep gave {h1:?}, restore gave {h2:?}"
                ),
                replay,
            });
        }
    }
    Ok(out)
}

/// MC004 (device-image flavor) — for device-backed file systems without a
/// checkpoint API: snapshot the device (unmounted), remount, observe,
/// mutate, restore the image, remount, observe again. The remount after
/// the snapshot makes the baseline itself a post-remount state, so any
/// mismatch is restore infidelity, not unmount lossiness.
///
/// # Errors
///
/// Backend construction/snapshot failures.
pub fn mc004_device_symmetry<F: FileSystem + DeviceBacked>(
    fresh: &dyn Fn() -> VfsResult<F>,
    backend_name: &str,
    pool: &PoolConfig,
    cfg: &Mc004Config,
) -> VfsResult<Vec<Diagnostic>> {
    let ops = pool.ops();
    let caps = fresh()?.capabilities();
    let mutations: Vec<&FsOp> = ops
        .iter()
        .filter(|o| o.is_mutation() && o.allowed_by(caps))
        .collect();
    let mut rng = XorShift64::new(cfg.seed ^ 0xdead_beef);
    let mut out = Vec::new();
    for round in 0..cfg.rounds {
        let mut fs = fresh()?;
        let prefix = random_mutations(&mut rng, &mutations, cfg.prefix_len);
        for op in &prefix {
            let _ = execute(&mut fs, op, &[]);
        }
        fs.unmount()?;
        let snap = fs.snapshot_device()?;
        fs.mount()?;
        let h0 = observe(&mut fs);
        let suffix = random_mutations(&mut rng, &mutations, cfg.suffix_len);
        for op in &suffix {
            let _ = execute(&mut fs, op, &[]);
        }
        fs.unmount()?;
        fs.restore_device(&snap)?;
        fs.mount()?;
        let h1 = observe(&mut fs);
        if h1 != h0 {
            let mut replay: Vec<String> = prefix.iter().map(|o| o.to_string()).collect();
            replay.push("-- snapshot_device / remount --".into());
            replay.extend(suffix.iter().map(|o| o.to_string()));
            replay.push("-- restore_device / remount --".into());
            out.push(Diagnostic {
                code: LintCode::Mc004,
                severity: Severity::Error,
                backend: backend_name.to_string(),
                message: format!(
                    "device snapshot/restore asymmetry (round {round}): \
                     baseline {h0:?} but restored state {h1:?}"
                ),
                replay,
            });
        }
    }
    Ok(out)
}

/// MC005 tuning.
#[derive(Debug, Clone)]
pub struct Mc005Config {
    /// Fresh-volume rounds (each gets its own random prefix).
    pub rounds: usize,
    /// Mutations before the snapshot (reachable-state variety).
    pub prefix_len: usize,
    /// Corrupted-image variants per round.
    pub corruptions: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Mc005Config {
    fn default() -> Self {
        Mc005Config {
            rounds: 4,
            prefix_len: 4,
            corruptions: 2,
            seed: 0xc0ff_ee05,
        }
    }
}

/// Rebuilds a restorable snapshot carrying `img` with `template`'s
/// geometry (the corruptors work on a flat byte image).
fn snapshot_with_bytes(template: &DeviceSnapshot, img: &[u8]) -> Option<DeviceSnapshot> {
    let chunks: Vec<Vec<u8>> = img
        .chunks(template.chunk_size())
        .map(<[u8]>::to_vec)
        .collect();
    DeviceSnapshot::from_chunks(template.block_size(), template.chunk_size(), chunks)
}

/// Derivable-metadata corruptor for the ext layout: scrambles both
/// allocation bitmaps and the superblock free counters (all rebuilt from
/// the inode table and directory tree), fills the journal area with
/// garbage (replay validation must detect and discard it), and sets the
/// dirty flag so repair runs the full scan. No live inode or data block
/// is touched, so a correct fsck recovers every reachable byte.
pub fn ext_derivable_corruptor(img: &mut [u8], rng: &mut XorShift64) {
    let Ok(sb) = fs_ext::layout::SuperBlock::decode(img) else {
        return;
    };
    let bs = sb.block_size as usize;
    // Words 4 and 5: free_blocks / free_inodes.
    for byte in &mut img[16..24] {
        *byte = (rng.next_u64() & 0xff) as u8;
    }
    // Word 7: flags — force the dirty bit on.
    let flags = sb.flags | fs_ext::layout::SB_FLAG_DIRTY;
    img[28..32].copy_from_slice(&flags.to_le_bytes());
    // Blocks 1 and 2: the data and inode allocation bitmaps.
    for byte in &mut img[bs..3 * bs] {
        if rng.next_u64() & 1 == 0 {
            *byte = (rng.next_u64() & 0xff) as u8;
        }
    }
    // The journal area (ext4; empty range on ext2).
    let js = sb.journal_start() as usize * bs;
    let je = (js + sb.journal_blocks as usize * bs).min(img.len());
    for byte in &mut img[js..je] {
        *byte = (rng.next_u64() & 0xff) as u8;
    }
}

/// Derivable-metadata corruptor for JFFS2: programs an undecodable
/// half-written node (valid magic and length, wrong CRC) at the log end
/// of every erase block with room — the torn-program garbage the scanner
/// must quarantine. Only erased space is overwritten, so every live node
/// survives and a correct repair loses nothing.
pub fn jffs2_corrupt_log_tails(img: &mut [u8], erase_block: usize, rng: &mut XorShift64) {
    use fs_jffs2::log;
    const GARBAGE_LEN: usize = 16;
    for blk in img.chunks_mut(erase_block) {
        let mut off = 0;
        while let Ok(Some((_, used))) = log::Node::decode(&blk[off..]) {
            off += used;
        }
        // Only blocks that already hold nodes: torn programs happen at the
        // head of an active log, and leaving the free blocks erased keeps
        // GC room for the scrub pass.
        if off == 0 || off + GARBAGE_LEN > blk.len() || blk[off..].iter().any(|&b| b != 0xff) {
            continue;
        }
        let mut garbage = [0u8; GARBAGE_LEN];
        garbage[..2].copy_from_slice(&log::NODE_MAGIC.to_le_bytes());
        garbage[2] = log::NT_DIRENT;
        garbage[3..7].copy_from_slice(&(GARBAGE_LEN as u32).to_le_bytes());
        for b in &mut garbage[log::HEADER_LEN..] {
            *b = (rng.next_u64() & 0xff) as u8;
        }
        // Store a CRC guaranteed not to match the body.
        let bad_crc = log::node_crc(&garbage[log::HEADER_LEN..]) ^ 0xdead_beef;
        garbage[7..log::HEADER_LEN].copy_from_slice(&bad_crc.to_le_bytes());
        blk[off..off + GARBAGE_LEN].copy_from_slice(&garbage);
    }
}

/// MC005 — repair convergence. From a random reachable state, twice over:
///
/// 1. **Healthy volume**: fsck on a freshly synced volume must report a
///    clean bill and leave the observable state untouched (a repair pass
///    that "fixes" a consistent volume either loses reachable data or
///    mis-models the layout).
/// 2. **Corrupted volume**: `corrupt` scrambles *derivable* metadata only
///    (allocator state, journal garbage, torn log tails) in the device
///    image; fsck must then repair it, reach a fixed point within two
///    runs (the second run reports clean), and recover every reachable
///    byte the corruption left intact.
///
/// # Errors
///
/// Backend construction/snapshot failures.
pub fn mc005_repair_convergence<F: FileSystem + DeviceBacked>(
    fresh: &dyn Fn() -> VfsResult<F>,
    backend_name: &str,
    pool: &PoolConfig,
    corrupt: &dyn Fn(&mut [u8], &mut XorShift64),
    cfg: &Mc005Config,
) -> VfsResult<Vec<Diagnostic>> {
    let ops = pool.ops();
    let caps = fresh()?.capabilities();
    let mutations: Vec<&FsOp> = ops
        .iter()
        .filter(|o| o.is_mutation() && o.allowed_by(caps))
        .collect();
    let mut rng = XorShift64::new(cfg.seed);
    let mut out = Vec::new();
    for round in 0..cfg.rounds {
        let mut fs = fresh()?;
        let prefix = random_mutations(&mut rng, &mutations, cfg.prefix_len);
        for op in &prefix {
            let _ = execute(&mut fs, op, &[]);
        }
        fs.unmount()?;
        let snap = fs.snapshot_device()?;
        fs.mount()?;
        let h0 = observe(&mut fs);
        let mut replay: Vec<String> = prefix.iter().map(|o| o.to_string()).collect();
        replay.push("-- snapshot_device / remount --".into());
        // Phase 1: a consistent volume needs no repairs and loses nothing.
        match fs.fsck() {
            Ok(report) if !report.is_clean() => {
                out.push(Diagnostic {
                    code: LintCode::Mc005,
                    severity: Severity::Error,
                    backend: backend_name.to_string(),
                    message: format!(
                        "fsck \"repaired\" a consistent volume (round {round}): {}",
                        report.fixes.join("; ")
                    ),
                    replay: replay.clone(),
                });
                continue;
            }
            Ok(_) => {}
            Err(e) => {
                out.push(Diagnostic {
                    code: LintCode::Mc005,
                    severity: Severity::Error,
                    backend: backend_name.to_string(),
                    message: format!("fsck failed on a consistent volume (round {round}): {e}"),
                    replay: replay.clone(),
                });
                continue;
            }
        }
        if observe(&mut fs) != h0 {
            out.push(Diagnostic {
                code: LintCode::Mc005,
                severity: Severity::Error,
                backend: backend_name.to_string(),
                message: format!(
                    "fsck changed the observable state of a consistent volume (round {round})"
                ),
                replay: replay.clone(),
            });
            continue;
        }
        // Phase 2: repair of derivable-metadata corruption converges and
        // recovers all reachable data.
        for variant in 0..cfg.corruptions {
            let mut img = snap.to_vec();
            corrupt(&mut img, &mut rng);
            let Some(bad) = snapshot_with_bytes(&snap, &img) else {
                return Err(Errno::EIO);
            };
            fs.unmount()?;
            fs.restore_device(&bad)?;
            let mut replay = replay.clone();
            replay.push(format!(
                "-- corrupt derivable metadata (variant {variant}) --"
            ));
            match fs.fsck() {
                Ok(_) => {}
                Err(e) => {
                    out.push(Diagnostic {
                        code: LintCode::Mc005,
                        severity: Severity::Error,
                        backend: backend_name.to_string(),
                        message: format!(
                            "fsck failed to repair derivable-metadata corruption \
                             (round {round}, variant {variant}): {e}"
                        ),
                        replay,
                    });
                    fs.restore_device(&snap)?;
                    fs.mount()?;
                    continue;
                }
            }
            match fs.fsck() {
                Ok(report) if !report.is_clean() => {
                    out.push(Diagnostic {
                        code: LintCode::Mc005,
                        severity: Severity::Error,
                        backend: backend_name.to_string(),
                        message: format!(
                            "repair is not a fixed point within two runs (round {round}, \
                             variant {variant}): second fsck still fixed: {}",
                            report.fixes.join("; ")
                        ),
                        replay: replay.clone(),
                    });
                }
                Ok(_) => {}
                Err(e) => {
                    out.push(Diagnostic {
                        code: LintCode::Mc005,
                        severity: Severity::Error,
                        backend: backend_name.to_string(),
                        message: format!(
                            "second fsck failed after a successful repair \
                             (round {round}, variant {variant}): {e}"
                        ),
                        replay: replay.clone(),
                    });
                }
            }
            fs.mount()?;
            if observe(&mut fs) != h0 {
                out.push(Diagnostic {
                    code: LintCode::Mc005,
                    severity: Severity::Error,
                    backend: backend_name.to_string(),
                    message: format!(
                        "repair lost reachable user data (round {round}, variant {variant}): \
                         the corruption touched only derivable metadata, but the repaired \
                         volume differs from the pre-corruption state"
                    ),
                    replay,
                });
            }
        }
    }
    Ok(out)
}

/// Configuration for [`mc007_divergence`].
#[derive(Debug, Clone)]
pub struct Mc007Config {
    /// Bounded exploration depth. Kept small: the check needs every run to
    /// stop by frontier exhaustion, not by budget — a budget-capped run
    /// explores a worker-count-dependent prefix and proves nothing.
    pub max_depth: usize,
    /// Fleet-wide op budget (a backstop; exhaustion should come first).
    pub max_ops: u64,
    /// Base PRNG seed; permuted runs shift it, since replay determinism
    /// must not depend on the seed once the space is explored exhaustively.
    pub seed: u64,
    /// Worker fleet sizes to permute across runs (shard counts follow the
    /// worker count inside the swarm's sharded visited set).
    pub workers: Vec<usize>,
    /// Initial visited-capacities to permute (different resize/rehash
    /// schedules must not change what was visited or how it pickles).
    pub capacities: Vec<usize>,
}

impl Default for Mc007Config {
    fn default() -> Self {
        Mc007Config {
            max_depth: 2,
            max_ops: 2_000_000,
            seed: 0x5eed_1e47 ^ 7,
            workers: vec![1, 3],
            capacities: vec![1 << 4, 1 << 10],
        }
    }
}

/// Re-encodes a snapshot in canonical form: the cumulative stats, which
/// depend on the fleet size and table capacity, zeroed, leaving exactly
/// the explored state space and pending frontier. Two equivalent explorations
/// must produce byte-identical canonical pickles.
fn canonical_pickle<Op>(snap: &RunSnapshot<Op>, codec: &dyn OpCodec<Op>) -> Vec<u8>
where
    Op: Clone,
{
    let canon = RunSnapshot {
        visited: snap.visited.clone(),
        frontier: snap.frontier.clone(),
        stats: ExploreStats::default(),
    };
    encode_snapshot(&canon, codec)
}

/// The fleet totals a frontier fleet's order fixes, whatever its size:
/// `[ops_executed, states_new, states_matched, pruned]`.
fn fleet_totals<Op>(report: &SwarmReport<Op>) -> [u64; 4] {
    let mut t = [0; 4];
    for s in report.workers.iter().map(|w| &w.stats) {
        t[0] += s.ops_executed;
        t[1] += s.states_new;
        t[2] += s.states_matched;
        t[3] += s.pruned;
    }
    t
}

/// MC007: the divergence sanitizer. Runs the same bounded exploration
/// under permuted worker-fleet sizes, visited-set capacities, and seeds,
/// pickling each run's final snapshot, and requires every run to visit the
/// identical state set, produce byte-identical canonical snapshot bytes,
/// and reach the same fleet totals (the frontier fleet explores in one
/// breadth-first order at every size). The static taint pass says where
/// nondeterminism *can* enter; this proves whether it *does*.
///
/// # Errors
///
/// Construction errors from the first factory call; `EIO` if a pickled
/// snapshot cannot be written or read back.
pub fn mc007_divergence<S, F>(
    backend: &str,
    factory: &F,
    codec: &(dyn OpCodec<S::Op> + Sync),
    cfg: &Mc007Config,
) -> VfsResult<Vec<Diagnostic>>
where
    S: ModelSystem,
    S::Op: Send + Clone + PartialEq + 'static,
    F: Fn() -> VfsResult<S> + Sync,
{
    // Surface a broken backend as an error here, not as a worker panic.
    drop(factory()?);
    let mut variants: Vec<(usize, usize, u64)> = Vec::new();
    let axis = cfg.workers.len().max(cfg.capacities.len()).max(2);
    for i in 0..axis {
        let w = cfg.workers[i % cfg.workers.len().max(1)].max(1);
        let cap = cfg.capacities[i % cfg.capacities.len().max(1)].max(2);
        variants.push((w, cap, cfg.seed.wrapping_add(i as u64 * 0x9e37)));
    }

    let mut out = Vec::new();
    let mut runs = Vec::new();
    for (i, (workers, capacity, seed)) in variants.iter().enumerate() {
        let label = format!("workers={workers} capacity={capacity} seed={seed:#x}");
        let path = mc007_snapshot_path(backend, i);
        let scfg = SwarmConfig {
            workers: *workers,
            base: ExploreConfig {
                max_depth: cfg.max_depth,
                max_ops: cfg.max_ops,
                // Never truncate the run on a (cross-target) violation:
                // MC003/MC001 own those; this check needs full coverage.
                stop_on_violation: false,
                seed: *seed,
                visited_capacity: *capacity,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        let report = run_swarm_persistent(
            &scfg,
            |_| factory().expect("mc007 factory must build a fresh system"),
            SwarmPersist {
                codec,
                snapshot_path: Some(path.clone()),
                snapshot_every: 0,
                resume: None,
            },
        );
        for w in &report.workers {
            if let StopReason::WorkerPanic(msg) = &w.stop {
                out.push(Diagnostic {
                    code: LintCode::Mc007,
                    severity: Severity::Error,
                    backend: backend.to_string(),
                    message: format!("worker panicked under {label}: {msg}"),
                    replay: Vec::new(),
                });
            }
        }
        if let Some(e) = &report.persist_error {
            let _ = std::fs::remove_file(&path);
            return Err(map_pickle_io(e));
        }
        if !out.is_empty() {
            let _ = std::fs::remove_file(&path);
            return Ok(out);
        }
        let snap = load_snapshot(&path, codec).map_err(|_| Errno::EIO)?;
        let _ = std::fs::remove_file(&path);
        if !snap.frontier.is_empty() {
            out.push(Diagnostic {
                code: LintCode::Mc007,
                severity: Severity::Note,
                backend: backend.to_string(),
                message: format!(
                    "inconclusive: run under {label} hit a budget before exhausting \
                     the bounded space ({} frontier entries pending)",
                    snap.frontier.len()
                ),
                replay: Vec::new(),
            });
        }
        let canon = canonical_pickle(&snap, codec);
        runs.push((label, snap, canon, fleet_totals(&report)));
    }

    let (base_label, base_snap, base_canon, base_totals) = &runs[0];
    for (label, snap, canon, totals) in &runs[1..] {
        if totals != base_totals {
            out.push(Diagnostic {
                code: LintCode::Mc007,
                severity: Severity::Error,
                backend: backend.to_string(),
                message: format!(
                    "fleet totals diverge: [ops_executed, states_new, states_matched, pruned] \
                     {base_totals:?} under {base_label} vs {totals:?} under {label}"
                ),
                replay: Vec::new(),
            });
        }
        if snap.visited != base_snap.visited {
            let first_diff = base_snap
                .visited
                .iter()
                .zip(&snap.visited)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("first divergent entry {:#034x} vs {:#034x}", a.0, b.0))
                .unwrap_or_else(|| "one visited set is a strict prefix".to_string());
            out.push(Diagnostic {
                code: LintCode::Mc007,
                severity: Severity::Error,
                backend: backend.to_string(),
                message: format!(
                    "visited-set divergence: {} states under {base_label} vs {} under \
                     {label}; {first_diff}",
                    base_snap.visited.len(),
                    snap.visited.len()
                ),
                replay: Vec::new(),
            });
        } else if canon != base_canon {
            out.push(Diagnostic {
                code: LintCode::Mc007,
                severity: Severity::Error,
                backend: backend.to_string(),
                message: format!(
                    "canonical snapshot bytes diverge ({} vs {} bytes) between {base_label} \
                     and {label} despite identical visited sets — the pickle encoding \
                     itself is order-sensitive",
                    base_canon.len(),
                    canon.len()
                ),
                replay: Vec::new(),
            });
        }
    }
    Ok(out)
}

/// Maps a persist-layer error message onto an errno for check plumbing.
fn map_pickle_io(_msg: &str) -> Errno {
    Errno::EIO
}

/// A collision-free snapshot path for one MC007 run.
fn mc007_snapshot_path(backend: &str, idx: usize) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mcfs-mc007-{}-{backend}-{idx}-{n}.pkl",
        std::process::id()
    ))
}

/// The mutation ops of `pool` that touch exactly `path` — the focused op
/// set MC002 enumerates over (single-file traces alias most readily).
pub fn single_file_mutations(pool: &PoolConfig, path: &str) -> Vec<FsOp> {
    pool.ops()
        .into_iter()
        .filter(|o| o.is_mutation() && o.touched_paths() == vec![path])
        .collect()
}

#[cfg(test)]
mod mc007_tests {
    use super::*;
    use modelcheck::{ApplyOutcome, ByteReader, PickleError, StateId};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic bounded counter: the clean baseline MC007 must pass.
    struct Counter {
        value: i64,
        epoch: u64,
        store: HashMap<u64, i64>,
    }

    /// When nonzero, every constructed instance gets a fresh epoch that is
    /// folded into the fingerprint — run-order entropy, exactly the bug
    /// class MC007 exists to catch.
    static EPOCH: AtomicU64 = AtomicU64::new(0);

    impl Counter {
        fn fresh(poisoned: bool) -> VfsResult<Self> {
            Ok(Counter {
                value: 0,
                epoch: if poisoned {
                    EPOCH.fetch_add(1, Ordering::Relaxed) + 1
                } else {
                    0
                },
                store: HashMap::new(),
            })
        }
    }

    impl ModelSystem for Counter {
        type Op = i64;
        fn ops(&mut self) -> Vec<i64> {
            vec![1, -1]
        }
        fn apply(&mut self, op: &i64) -> ApplyOutcome {
            let next = self.value + op;
            if !(0..=8).contains(&next) {
                return ApplyOutcome::Prune("out of range".into());
            }
            self.value = next;
            ApplyOutcome::Ok
        }
        fn abstract_state(&mut self) -> u128 {
            (self.value as u128) | ((self.epoch as u128) << 64)
        }
        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.store.insert(id.0, self.value);
            Ok(8)
        }
        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.value = *self.store.get(&id.0).ok_or("missing state")?;
            Ok(())
        }
        fn release(&mut self, id: StateId) {
            self.store.remove(&id.0);
        }
    }

    struct I64Codec;

    impl OpCodec<i64> for I64Codec {
        fn encode_op(&self, op: &i64, out: &mut Vec<u8>) {
            out.extend_from_slice(&op.to_le_bytes());
        }
        fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<i64, PickleError> {
            let mut b = [0u8; 8];
            for slot in &mut b {
                *slot = r.u8()?;
            }
            Ok(i64::from_le_bytes(b))
        }
    }

    #[test]
    fn mc007_is_clean_on_a_deterministic_system() {
        let cfg = Mc007Config {
            max_depth: 4,
            ..Mc007Config::default()
        };
        let diags = mc007_divergence("toy", &|| Counter::fresh(false), &I64Codec, &cfg)
            .expect("check runs");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mc007_flags_run_order_entropy_in_fingerprints() {
        let cfg = Mc007Config {
            max_depth: 3,
            ..Mc007Config::default()
        };
        let diags = mc007_divergence("toy-poisoned", &|| Counter::fresh(true), &I64Codec, &cfg)
            .expect("check runs");
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Error && d.message.contains("divergence")),
            "poisoned fingerprints must diverge across permuted runs: {diags:?}"
        );
    }
}

//! The model-system interface: what a system under test must provide.

use std::fmt;

/// Identifier for a stored concrete state in the system's state store.
///
/// The explorer allocates these; the system maps them to whatever its
/// checkpoint mechanism stores (device images, VeriFS snapshot-pool keys,
/// process images…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u64);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Marker embedded in restore-error messages when the state store evicted
/// the requested checkpoint under memory pressure. Explorers check for it
/// (via [`is_evicted_error`]) to report a budget-driven stop instead of a
/// fatal failure.
pub const EVICTED_MARKER: &str = "[checkpoint-evicted]";

/// Whether a restore error reports an evicted checkpoint rather than a
/// genuine failure.
pub fn is_evicted_error(msg: &str) -> bool {
    msg.contains(EVICTED_MARKER)
}

/// Aggregate statistics of a system's checkpoint store, surfaced into
/// exploration reports when the system maintains a budgeted pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStoreStats {
    /// Snapshots currently resident.
    pub snapshots: usize,
    /// Resident snapshots pinned against eviction.
    pub pinned: usize,
    /// Logical bytes of all resident snapshots (what the memory model sees).
    pub total_bytes: usize,
    /// Bytes of resident snapshots shared with live state or one another.
    pub shared_bytes: usize,
    /// Host bytes uniquely attributable to the store.
    pub resident_bytes: usize,
    /// Snapshots evicted under budget pressure so far.
    pub evictions: u64,
    /// Snapshots inserted so far.
    pub inserts: u64,
    /// Snapshots demoted to the disk spill tier instead of being dropped
    /// (out-of-core checkpoint pool; 0 when spill is disabled).
    pub demotions: u64,
    /// Demoted snapshots promoted back to RAM on access.
    pub promotions: u64,
    /// Bytes currently held by the disk spill tier for demoted snapshots.
    pub spilled_bytes: u64,
}

impl CheckpointStoreStats {
    /// Accumulates another store's stats (a harness sums its targets).
    pub fn merge(&mut self, other: &CheckpointStoreStats) {
        self.snapshots += other.snapshots;
        self.pinned += other.pinned;
        self.total_bytes += other.total_bytes;
        self.shared_bytes += other.shared_bytes;
        self.resident_bytes += other.resident_bytes;
        self.evictions += other.evictions;
        self.inserts += other.inserts;
        self.demotions += other.demotions;
        self.promotions += other.promotions;
        self.spilled_bytes += other.spilled_bytes;
    }
}

/// Statistics of a system's crash-injection machinery (how many crash
/// pseudo-operations ran and how their recoveries fared), surfaced into
/// exploration reports when the system explores crashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Crash pseudo-operations applied.
    pub crashes: u64,
    /// Crashes whose every target recovered to a prefix-consistent state.
    pub recoveries: u64,
    /// Crashes where the targets each recovered validly but to *different*
    /// states (pruned, not a violation: both outcomes are legal).
    pub divergent_recoveries: u64,
    /// Crashes pruned unchecked: a recovery matched no interleaved prefix
    /// and the per-thread cut lattice was too large to enumerate.
    pub capped_cuts: u64,
}

impl CrashStats {
    /// Accumulates another system's stats (swarm workers sum per-shard).
    pub fn merge(&mut self, other: &CrashStats) {
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.divergent_recoveries += other.divergent_recoveries;
        self.capped_cuts += other.capped_cuts;
    }
}

/// Result of applying one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The operation executed (successfully or with an expected error);
    /// exploration continues through the resulting state.
    Ok,
    /// The operation could not be issued in this state (e.g. capability
    /// missing); the branch is pruned without counting a new state.
    Prune(String),
    /// The integrity check failed: the system misbehaved. Exploration
    /// records the trace and (by default) stops.
    Violation(String),
}

/// A system explorable by the checker.
///
/// This is the contract SPIN's `c_track`-embedded C code fulfills in the
/// paper: nondeterministic operations ([`ops`](ModelSystem::ops) +
/// [`apply`](ModelSystem::apply)), an *abstract* state used for
/// visited-state matching ([`abstract_state`](ModelSystem::abstract_state) —
/// the matched `c_track` buffer), and *concrete* checkpoint/restore used for
/// backtracking (the unmatched buffers).
pub trait ModelSystem {
    /// One nondeterministic operation.
    type Op: Clone + PartialEq + fmt::Debug + Send;

    /// Operations enabled in the current state (the `do ... od` entries).
    fn ops(&mut self) -> Vec<Self::Op>;

    /// Executes `op` against the live system.
    fn apply(&mut self, op: &Self::Op) -> ApplyOutcome;

    /// The abstract-state fingerprint of the current state (Algorithm 1's
    /// MD5 in MCFS). Two states with equal fingerprints are treated as the
    /// same state and not re-explored.
    fn abstract_state(&mut self) -> u128;

    /// Saves the current concrete state under `id`, returning its
    /// approximate size in bytes (the memory model charges it).
    ///
    /// # Errors
    ///
    /// A message describing why the checkpoint failed (treated as fatal).
    fn checkpoint(&mut self, id: StateId) -> Result<usize, String>;

    /// Restores the concrete state stored under `id` (which stays stored —
    /// DFS re-enters a parent once per branch).
    ///
    /// # Errors
    ///
    /// A message describing why the restore failed (treated as fatal).
    fn restore(&mut self, id: StateId) -> Result<(), String>;

    /// Drops the state stored under `id`.
    fn release(&mut self, id: StateId);

    /// Pins the state stored under `id` against budget-driven eviction.
    /// DFS pins its backtrack spine — evicting a state the explorer *will*
    /// re-enter guarantees a wasted run. Systems without a budgeted store
    /// ignore this.
    fn pin(&mut self, id: StateId) {
        let _ = id;
    }

    /// Releases an eviction pin taken by [`pin`](ModelSystem::pin).
    fn unpin(&mut self, id: StateId) {
        let _ = id;
    }

    /// Statistics of the system's checkpoint store, if it keeps one.
    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        None
    }

    /// Statistics of the system's crash injection, if it explores crashes.
    fn crash_stats(&self) -> Option<CrashStats> {
        None
    }

    /// Whether two operations commute (their executions from any state reach
    /// the same state in either order). Used by partial-order reduction;
    /// the conservative default disables reduction.
    fn independent(&self, a: &Self::Op, b: &Self::Op) -> bool {
        let _ = (a, b);
        false
    }

    /// A persistent (source) set for the current state: a mask over
    /// `enabled` selecting a subset whose exploration alone suffices to
    /// reach every state reachable through `enabled` (Godefroid-style
    /// dynamic POR). `None` means "expand everything". Explorers consult
    /// this only when [`ExploreConfig::por_persistent`] is set; the
    /// conservative default performs no reduction.
    ///
    /// [`ExploreConfig::por_persistent`]: crate::ExploreConfig::por_persistent
    fn persistent_set(&mut self, enabled: &[Self::Op]) -> Option<Vec<bool>> {
        let _ = enabled;
        None
    }

    /// Minimizes a violating trace, returning the shrunk trace and shrink
    /// statistics when the system supports (and has enabled) counterexample
    /// minimization. Explorers call this at violation-record time; the
    /// default does nothing. Implementations must validate candidates
    /// against *fresh* instances — never the live, already-violated one —
    /// and accept only candidates reproducing `message` exactly.
    fn minimize(
        &mut self,
        trace: &[Self::Op],
        message: &str,
    ) -> Option<(Vec<Self::Op>, crate::ShrinkStats)> {
        let _ = (trace, message);
        None
    }
}

/// A recorded property violation with its reproduction trace.
#[derive(Debug, Clone)]
pub struct Violation<Op> {
    /// The operations from the initial state to the misbehaving one,
    /// inclusive of the final (violating) operation.
    pub trace: Vec<Op>,
    /// Human-readable description from the integrity check.
    pub message: String,
    /// Operations executed before detection (the paper reports
    /// ops-to-detection for each bug found).
    pub ops_executed: u64,
    /// Delta-debugged reproduction trace, when the system minimized the
    /// counterexample ([`ModelSystem::minimize`]). Always a subsequence of
    /// `trace` that reproduces a violation with the same `message` on a
    /// fresh system.
    pub minimized_trace: Option<Vec<Op>>,
    /// Statistics of the minimization that produced `minimized_trace`.
    pub shrink: Option<crate::ShrinkStats>,
}

impl<Op> Violation<Op> {
    /// The best reproduction trace available: the minimized one when
    /// minimization ran, the full recorded trace otherwise.
    pub fn best_trace(&self) -> &[Op] {
        self.minimized_trace.as_deref().unwrap_or(&self.trace)
    }
}

impl<Op: fmt::Debug> fmt::Display for Violation<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "violation after {} ops: {}",
            self.ops_executed, self.message
        )?;
        writeln!(f, "trace ({} ops):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {op:?}", i + 1)?;
        }
        if let Some(min) = &self.minimized_trace {
            match &self.shrink {
                Some(s) => writeln!(
                    f,
                    "minimized trace ({} ops, {} candidates, {} replays):",
                    min.len(),
                    s.candidates_tried,
                    s.replays_run
                )?,
                None => writeln!(f, "minimized trace ({} ops):", min.len())?,
            }
            for (i, op) in min.iter().enumerate() {
                writeln!(f, "  {:>3}. {op:?}", i + 1)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_id_display() {
        assert_eq!(StateId(7).to_string(), "s7");
    }

    #[test]
    fn violation_display_includes_trace() {
        let v = Violation {
            trace: vec!["mkdir", "rmdir"],
            message: "hash mismatch".into(),
            ops_executed: 42,
            minimized_trace: None,
            shrink: None,
        };
        let s = v.to_string();
        assert!(s.contains("42 ops"));
        assert!(s.contains("mkdir"));
        assert!(s.contains("hash mismatch"));
        assert!(!s.contains("minimized"));
        assert_eq!(v.best_trace(), ["mkdir", "rmdir"]);
    }

    #[test]
    fn violation_display_includes_minimized_trace() {
        let v = Violation {
            trace: vec!["mkdir", "stat", "rmdir"],
            message: "hash mismatch".into(),
            ops_executed: 42,
            minimized_trace: Some(vec!["mkdir", "rmdir"]),
            shrink: Some(crate::ShrinkStats {
                ops_before: 3,
                ops_after: 2,
                candidates_tried: 5,
                replays_run: 4,
            }),
        };
        let s = v.to_string();
        assert!(s.contains("minimized trace (2 ops, 5 candidates, 4 replays)"));
        assert_eq!(v.best_trace(), ["mkdir", "rmdir"]);
    }
}

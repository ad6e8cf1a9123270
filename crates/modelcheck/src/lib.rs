//! An explicit-state model checker — the SPIN analogue MCFS drives.
//!
//! The paper uses SPIN for three things, all reimplemented here with the
//! same semantics:
//!
//! 1. **Nondeterministic exploration** of bounded operation sequences:
//!    [`DfsExplorer`] (SPIN's depth-first search) and [`RandomWalk`] (the
//!    long-run soak mode).
//! 2. **Abstract-state matching**: visited states are 128-bit fingerprints
//!    ([`ModelSystem::abstract_state`], MCFS's Algorithm-1 MD5), while
//!    backtracking restores *concrete* states through
//!    [`ModelSystem::checkpoint`]/[`restore`](ModelSystem::restore) — the
//!    matched/unmatched split of SPIN's `c_track`.
//! 3. **Swarm verification** ([`run_swarm`]): parallel diversified searches
//!    sharing a stop flag.
//!
//! Two cross-cutting models make the paper's evaluation reproducible:
//! [`MemoryModel`] (RAM/swap budgets with LRU residency — the source of the
//! Ext4-vs-XFS slowdown and Fig. 3's dynamics) and the [`VisitedSet`]'s
//! hash-table-resize events (Fig. 3's day-3 dip). Both charge their costs to
//! a shared virtual [`blockdev::Clock`].
//!
//! # Examples
//!
//! A tiny two-bit system, exhaustively explored:
//!
//! ```
//! use modelcheck::{ApplyOutcome, DfsExplorer, ExploreConfig, ModelSystem, StateId, StopReason};
//! use std::collections::HashMap;
//!
//! struct TwoBits {
//!     bits: [bool; 2],
//!     store: HashMap<u64, [bool; 2]>,
//! }
//!
//! impl ModelSystem for TwoBits {
//!     type Op = usize; // flip bit i
//!     fn ops(&mut self) -> Vec<usize> {
//!         vec![0, 1]
//!     }
//!     fn apply(&mut self, op: &usize) -> ApplyOutcome {
//!         self.bits[*op] = !self.bits[*op];
//!         ApplyOutcome::Ok
//!     }
//!     fn abstract_state(&mut self) -> u128 {
//!         self.bits[0] as u128 | ((self.bits[1] as u128) << 1)
//!     }
//!     fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
//!         self.store.insert(id.0, self.bits);
//!         Ok(2)
//!     }
//!     fn restore(&mut self, id: StateId) -> Result<(), String> {
//!         self.bits = self.store[&id.0];
//!         Ok(())
//!     }
//!     fn release(&mut self, id: StateId) {
//!         self.store.remove(&id.0);
//!     }
//! }
//!
//! let mut sys = TwoBits { bits: [false; 2], store: HashMap::new() };
//! let report = DfsExplorer::new(ExploreConfig::default()).run(&mut sys);
//! assert_eq!(report.stop, StopReason::Exhausted);
//! assert_eq!(report.stats.states_new, 4); // the full 2-bit state space
//! ```

mod explore;
mod memmodel;
pub mod pickle;
mod shrink;
mod spill;
mod swarm;
mod system;
mod visited;

pub use explore::{
    DfsExplorer, ExploreConfig, ExploreReport, ExploreStats, RandomWalk, StopReason,
};
pub use memmodel::{MemConfig, MemoryModel, OutOfMemory};
pub use pickle::{
    decode_snapshot, encode_snapshot, fnv128, load_snapshot, save_atomic, ByteReader,
    FrontierEntry, OpCodec, PickleError, RunSnapshot, SnapshotWriter, FORMAT_VERSION,
};
pub use shrink::{apply_mask, ddmin_mask, ShrinkStats};
pub use spill::{
    FrontierQueue, FrontierSpill, MemBudget, PageLoc, SpillCtx, SpillFaults, SpillStats,
    SpillStore, PAGE_VERSION,
};
pub use swarm::{
    run_swarm, run_swarm_persistent, SwarmConfig, SwarmPersist, SwarmReport, WorkerStrategy,
};
pub use system::{
    is_evicted_error, ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, StateId,
    Violation, EVICTED_MARKER,
};
pub use visited::{ResizeEvent, ShardedVisited, Visit, VisitedHandle, VisitedSet, BYTES_PER_ENTRY};

#[cfg(test)]
mod golden_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A counter in 0..n with +1/-1 ops; violation at `bad`, if set.
    pub(crate) struct Counter {
        value: i64,
        limit: i64,
        bad: Option<i64>,
        store: HashMap<u64, i64>,
        pub(crate) bytes_per_state: usize,
    }

    impl Counter {
        pub(crate) fn new(limit: i64, bad: Option<i64>) -> Self {
            Counter {
                value: 0,
                limit,
                bad,
                store: HashMap::new(),
                bytes_per_state: 64,
            }
        }
    }

    impl ModelSystem for Counter {
        type Op = i64;

        fn ops(&mut self) -> Vec<i64> {
            vec![1, -1]
        }

        fn apply(&mut self, op: &i64) -> ApplyOutcome {
            let next = self.value + op;
            if next < 0 || next > self.limit {
                return ApplyOutcome::Prune("out of range".into());
            }
            self.value = next;
            if Some(self.value) == self.bad {
                return ApplyOutcome::Violation(format!("hit bad value {}", self.value));
            }
            ApplyOutcome::Ok
        }

        fn abstract_state(&mut self) -> u128 {
            self.value as u128
        }

        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.store.insert(id.0, self.value);
            Ok(self.bytes_per_state)
        }

        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.value = *self.store.get(&id.0).ok_or("missing state")?;
            Ok(())
        }

        fn release(&mut self, id: StateId) {
            self.store.remove(&id.0);
        }
    }

    #[test]
    fn dfs_explores_bounded_space_exhaustively() {
        let mut sys = Counter::new(100, None);
        let cfg = ExploreConfig {
            max_depth: 5,
            ..ExploreConfig::default()
        };
        let report = DfsExplorer::new(cfg).run(&mut sys);
        assert_eq!(report.stop, StopReason::Exhausted);
        // Depth 5 from 0 reaches values 0..=5: six distinct states.
        assert_eq!(report.stats.states_new, 6);
        assert!(report.stats.states_matched > 0, "revisits are matched");
        assert!(report.violations.is_empty());
        assert_eq!(report.stats.max_depth_seen, 5);
    }

    #[test]
    fn dfs_finds_violation_with_reproducible_trace() {
        let mut sys = Counter::new(100, Some(3));
        let cfg = ExploreConfig {
            max_depth: 10,
            ..ExploreConfig::default()
        };
        let report = DfsExplorer::new(cfg).run(&mut sys);
        assert_eq!(report.stop, StopReason::Violation);
        let v = &report.violations[0];
        assert!(v.message.contains("bad value 3"));
        // Replaying the trace on a fresh system reproduces the violation.
        let mut fresh = Counter::new(100, Some(3));
        let mut hit = false;
        for op in &v.trace {
            if let ApplyOutcome::Violation(_) = fresh.apply(op) {
                hit = true;
                break;
            }
        }
        assert!(hit, "trace must reproduce the violation");
    }

    #[test]
    fn op_budget_stops_exploration() {
        let mut sys = Counter::new(1_000_000, None);
        let cfg = ExploreConfig {
            max_depth: 1_000,
            max_ops: 500,
            ..ExploreConfig::default()
        };
        let report = DfsExplorer::new(cfg).run(&mut sys);
        assert_eq!(report.stop, StopReason::OpBudget);
        assert_eq!(report.stats.ops_executed, 500);
    }

    #[test]
    fn state_budget_stops_exploration() {
        let mut sys = Counter::new(1_000_000, None);
        let cfg = ExploreConfig {
            max_depth: 1_000,
            max_states: 50,
            ..ExploreConfig::default()
        };
        let report = DfsExplorer::new(cfg).run(&mut sys);
        assert_eq!(report.stop, StopReason::StateBudget);
        assert_eq!(report.stats.states_new, 50);
    }

    #[test]
    fn oom_stops_exploration() {
        let mut sys = Counter::new(1_000_000, None);
        sys.bytes_per_state = 1 << 20;
        let cfg = ExploreConfig {
            max_depth: 1_000,
            mem: MemConfig {
                ram_bytes: 4 << 20,
                swap_bytes: 4 << 20,
                swap_ns_per_mib: 1000,
            },
            ..ExploreConfig::default()
        };
        let report = DfsExplorer::new(cfg).run(&mut sys);
        assert!(matches!(report.stop, StopReason::OutOfMemory(_)));
    }

    #[test]
    fn random_walk_covers_states_and_stops_on_violation() {
        let mut sys = Counter::new(20, Some(7));
        let cfg = ExploreConfig {
            max_depth: 30,
            max_ops: 100_000,
            seed: 42,
            ..ExploreConfig::default()
        };
        let report = RandomWalk::new(cfg).run(&mut sys);
        assert_eq!(report.stop, StopReason::Violation);
        let v = &report.violations[0];
        // The trace ends at the bad value.
        assert_eq!(v.trace.iter().sum::<i64>(), 7);
    }

    #[test]
    fn random_walk_observer_sees_progress() {
        let mut sys = Counter::new(50, None);
        let cfg = ExploreConfig {
            max_depth: 10,
            max_ops: 2_000,
            seed: 1,
            ..ExploreConfig::default()
        };
        let mut samples = 0u64;
        let report = RandomWalk::new(cfg).run_observed(&mut sys, |s| {
            samples += 1;
            assert!(s.ops_executed <= 2_000);
        });
        assert_eq!(report.stop, StopReason::OpBudget);
        assert!(samples > 0);
    }

    #[test]
    fn clock_accumulates_memory_costs() {
        use blockdev::Clock;
        let clock = Clock::new();
        let mut sys = Counter::new(1_000, None);
        sys.bytes_per_state = 1 << 20; // force swapping
        let cfg = ExploreConfig {
            max_depth: 200,
            max_ops: 5_000,
            mem: MemConfig {
                ram_bytes: 8 << 20,
                swap_bytes: 1 << 30,
                swap_ns_per_mib: 100_000,
            },
            ..ExploreConfig::default()
        };
        let report = DfsExplorer::new(cfg)
            .with_clock(clock.clone())
            .run(&mut sys);
        assert!(report.stats.virtual_ns > 0, "swap charges accrued");
        assert!(report.stats.swap_traffic_bytes > 0);
        assert!(report.stats.ops_per_sec().is_some());
    }

    /// Two independent registers: POR should cut the explored interleavings.
    struct TwoRegs {
        regs: [u8; 2],
        store: HashMap<u64, [u8; 2]>,
    }

    impl ModelSystem for TwoRegs {
        type Op = (usize, u8);

        fn ops(&mut self) -> Vec<(usize, u8)> {
            vec![(0, 1), (1, 1)]
        }

        fn apply(&mut self, op: &(usize, u8)) -> ApplyOutcome {
            // Saturating lattice: each register counts 0..=3 (acyclic, so
            // sleep-set reduction composes soundly with state matching).
            if self.regs[op.0] >= 3 {
                return ApplyOutcome::Prune("saturated".into());
            }
            self.regs[op.0] += op.1;
            ApplyOutcome::Ok
        }

        fn abstract_state(&mut self) -> u128 {
            self.regs[0] as u128 | ((self.regs[1] as u128) << 8)
        }

        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.store.insert(id.0, self.regs);
            Ok(2)
        }

        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.regs = *self.store.get(&id.0).ok_or("missing")?;
            Ok(())
        }

        fn release(&mut self, id: StateId) {
            self.store.remove(&id.0);
        }

        fn independent(&self, a: &(usize, u8), b: &(usize, u8)) -> bool {
            a.0 != b.0 // different registers commute
        }
    }

    #[test]
    fn por_prunes_commuting_interleavings() {
        let cfg = ExploreConfig {
            max_depth: 8,
            ..ExploreConfig::default()
        };
        let baseline = DfsExplorer::new(ExploreConfig {
            por: false,
            ..cfg.clone()
        })
        .run(&mut TwoRegs {
            regs: [0; 2],
            store: HashMap::new(),
        });
        let reduced = DfsExplorer::new(ExploreConfig { por: true, ..cfg }).run(&mut TwoRegs {
            regs: [0; 2],
            store: HashMap::new(),
        });
        assert_eq!(baseline.stop, StopReason::Exhausted);
        assert_eq!(reduced.stop, StopReason::Exhausted);
        assert_eq!(
            baseline.stats.states_new, reduced.stats.states_new,
            "POR must not lose states"
        );
        assert!(
            reduced.stats.ops_executed < baseline.stats.ops_executed,
            "POR must save work: {} vs {}",
            reduced.stats.ops_executed,
            baseline.stats.ops_executed
        );
    }

    #[test]
    fn swarm_finds_violation_and_drains() {
        let cfg = SwarmConfig {
            workers: 4,
            base: ExploreConfig {
                max_depth: 30,
                max_ops: 200_000,
                seed: 7,
                ..ExploreConfig::default()
            },
            shared_visited: false,
            strategies: vec![],
        };
        let report = run_swarm(&cfg, |_| Counter::new(40, Some(11)));
        assert!(report.found_violation());
        assert!(report.violations().next().is_some());
        assert!(report.total_ops() > 0);
        assert!(report.total_states() > 0);
    }

    #[test]
    fn swarm_without_violation_exhausts_budgets() {
        let cfg = SwarmConfig {
            workers: 3,
            base: ExploreConfig {
                max_depth: 5,
                max_ops: 1_000,
                ..ExploreConfig::default()
            },
            shared_visited: false,
            strategies: vec![],
        };
        let report = run_swarm(&cfg, |_| Counter::new(10, None));
        assert!(!report.found_violation());
        assert_eq!(report.workers.len(), 3);
        for w in &report.workers {
            assert_eq!(w.stop, StopReason::OpBudget);
        }
    }

    #[test]
    fn swarm_shared_visited_prunes_cross_worker_duplicates() {
        let base = ExploreConfig {
            max_depth: 8,
            max_ops: 2_000,
            seed: 3,
            ..ExploreConfig::default()
        };
        let private = run_swarm(
            &SwarmConfig {
                workers: 4,
                base: base.clone(),
                shared_visited: false,
                strategies: vec![],
            },
            |_| Counter::new(12, None),
        );
        let shared = run_swarm(
            &SwarmConfig {
                workers: 4,
                base,
                shared_visited: true,
                strategies: vec![],
            },
            |_| Counter::new(12, None),
        );
        // The counter has only 13 reachable states; 4 private workers each
        // rediscover them, the shared fleet discovers each exactly once.
        assert!(private.total_states() > shared.total_states());
        assert!(
            shared.total_states() <= 13,
            "shared swarm must not double-count states: {}",
            shared.total_states()
        );
    }

    /// A system that panics after a few ops in worker 0's configuration —
    /// the fleet must survive and the panic must be recorded.
    struct PanicAfter {
        inner: Counter,
        remaining: Option<u32>,
    }

    impl ModelSystem for PanicAfter {
        type Op = i64;

        fn ops(&mut self) -> Vec<i64> {
            self.inner.ops()
        }

        fn apply(&mut self, op: &i64) -> ApplyOutcome {
            if let Some(n) = &mut self.remaining {
                if *n == 0 {
                    panic!("injected worker fault");
                }
                *n -= 1;
            }
            self.inner.apply(op)
        }

        fn abstract_state(&mut self) -> u128 {
            self.inner.abstract_state()
        }

        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.inner.checkpoint(id)
        }

        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.inner.restore(id)
        }

        fn release(&mut self, id: StateId) {
            self.inner.release(id)
        }
    }

    #[test]
    fn swarm_contains_worker_panics_and_survivors_finish() {
        let cfg = SwarmConfig {
            workers: 4,
            base: ExploreConfig {
                max_depth: 5,
                max_ops: 1_000,
                ..ExploreConfig::default()
            },
            shared_visited: false,
            strategies: vec![],
        };
        let report = run_swarm(&cfg, |idx| PanicAfter {
            inner: Counter::new(10, None),
            remaining: (idx == 0).then_some(3),
        });
        assert_eq!(report.workers.len(), 4);
        let panics: Vec<_> = report.panics().collect();
        assert_eq!(panics.len(), 1, "exactly worker 0 panics");
        assert_eq!(panics[0].0, 0);
        assert!(panics[0].1.contains("injected worker fault"));
        // Survivors ran their full budgets.
        for w in &report.workers[1..] {
            assert_eq!(w.stop, StopReason::OpBudget);
            assert!(w.stats.ops_executed >= 1_000);
        }
    }

    #[test]
    fn swarm_shared_visited_survives_a_panicked_worker() {
        // A worker dying while the fleet shares the visited set must not
        // poison or wedge the shards for the survivors.
        let cfg = SwarmConfig {
            workers: 3,
            base: ExploreConfig {
                max_depth: 6,
                max_ops: 1_500,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![],
        };
        let report = run_swarm(&cfg, |idx| PanicAfter {
            inner: Counter::new(10, None),
            remaining: (idx == 1).then_some(5),
        });
        assert_eq!(report.panics().count(), 1);
        assert!(
            report.workers[0].stats.ops_executed >= 1_500
                || report.workers[2].stats.ops_executed >= 1_500,
            "survivors must keep exploring through the shared set"
        );
    }
}

#[cfg(test)]
mod resume_tests {
    use super::*;
    use std::collections::HashMap;

    struct Grid {
        pos: (i8, i8),
        store: HashMap<u64, (i8, i8)>,
    }

    impl ModelSystem for Grid {
        type Op = (i8, i8);
        fn ops(&mut self) -> Vec<(i8, i8)> {
            vec![(1, 0), (-1, 0), (0, 1), (0, -1)]
        }
        fn apply(&mut self, op: &(i8, i8)) -> ApplyOutcome {
            let next = (self.pos.0 + op.0, self.pos.1 + op.1);
            if next.0.abs() > 6 || next.1.abs() > 6 {
                return ApplyOutcome::Prune("edge".into());
            }
            self.pos = next;
            ApplyOutcome::Ok
        }
        fn abstract_state(&mut self) -> u128 {
            (self.pos.0 as i32 as u32 as u128) | ((self.pos.1 as i32 as u32 as u128) << 32)
        }
        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.store.insert(id.0, self.pos);
            Ok(2)
        }
        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.pos = *self.store.get(&id.0).ok_or("missing")?;
            Ok(())
        }
        fn release(&mut self, id: StateId) {
            self.store.remove(&id.0);
        }
    }

    /// The §7 resumability item: an interrupted run's visited set carries
    /// into the resumed run, which skips known states instead of redoing
    /// the work.
    #[test]
    fn interrupted_run_resumes_without_rework() {
        let mut visited = VisitedSet::new(1 << 12);
        let mut sys = Grid {
            pos: (0, 0),
            store: HashMap::new(),
        };
        // Phase 1: "interrupted" by a small op budget.
        let phase1 = DfsExplorer::new(ExploreConfig {
            max_depth: 6,
            max_ops: 60,
            ..ExploreConfig::default()
        })
        .run_with_visited(&mut sys, &mut visited);
        assert_eq!(phase1.stop, StopReason::OpBudget);
        let after_phase1 = visited.len();
        assert!(after_phase1 > 5);

        // Phase 2: resume (fresh system, same initial state, shared set).
        let mut sys2 = Grid {
            pos: (0, 0),
            store: HashMap::new(),
        };
        let phase2 = DfsExplorer::new(ExploreConfig {
            max_depth: 6,
            max_ops: 100_000,
            ..ExploreConfig::default()
        })
        .run_with_visited(&mut sys2, &mut visited);
        assert_eq!(phase2.stop, StopReason::Exhausted);
        assert!(
            visited.len() > after_phase1,
            "phase 2 extends, not repeats, coverage"
        );
        // A cold full run discovers the same total state count as the two
        // resumed phases combined — nothing was lost across the interruption.
        let mut cold_visited = VisitedSet::new(1 << 12);
        let mut sys3 = Grid {
            pos: (0, 0),
            store: HashMap::new(),
        };
        DfsExplorer::new(ExploreConfig {
            max_depth: 6,
            max_ops: 100_000,
            ..ExploreConfig::default()
        })
        .run_with_visited(&mut sys3, &mut cold_visited);
        assert_eq!(cold_visited.len(), visited.len());
    }

    #[test]
    fn walk_resumes_with_shared_visited() {
        let mut visited = VisitedSet::new(1 << 12);
        let mut sys = Grid {
            pos: (0, 0),
            store: HashMap::new(),
        };
        let cfg = ExploreConfig {
            max_depth: 20,
            max_ops: 500,
            seed: 9,
            ..ExploreConfig::default()
        };
        let r1 = RandomWalk::new(cfg.clone()).run_resumable(&mut sys, &mut visited, |_| {});
        let found1 = r1.stats.states_new;
        let mut sys2 = Grid {
            pos: (0, 0),
            store: HashMap::new(),
        };
        let r2 = RandomWalk::new(ExploreConfig { seed: 10, ..cfg }).run_resumable(
            &mut sys2,
            &mut visited,
            |_| {},
        );
        // The resumed run counts only *new* states beyond phase 1.
        assert_eq!(found1 + r2.stats.states_new, visited.len() as u64);
    }
}

#[cfg(test)]
mod frontier_tests {
    use super::*;
    use std::collections::HashMap;

    /// Bounded 2-D grid (|x|,|y| ≤ 6): 4 move ops, prune at the edge.
    struct Grid {
        pos: (i8, i8),
        store: HashMap<u64, (i8, i8)>,
    }

    impl Grid {
        fn new() -> Self {
            Grid {
                pos: (0, 0),
                store: HashMap::new(),
            }
        }
    }

    impl ModelSystem for Grid {
        type Op = (i8, i8);
        fn ops(&mut self) -> Vec<(i8, i8)> {
            vec![(1, 0), (-1, 0), (0, 1), (0, -1)]
        }
        fn apply(&mut self, op: &(i8, i8)) -> ApplyOutcome {
            let next = (self.pos.0 + op.0, self.pos.1 + op.1);
            if next.0.abs() > 6 || next.1.abs() > 6 {
                return ApplyOutcome::Prune("edge".into());
            }
            self.pos = next;
            ApplyOutcome::Ok
        }
        fn abstract_state(&mut self) -> u128 {
            (self.pos.0 as i32 as u32 as u128) | ((self.pos.1 as i32 as u32 as u128) << 32)
        }
        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.store.insert(id.0, self.pos);
            Ok(2)
        }
        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.pos = *self.store.get(&id.0).ok_or("missing")?;
            Ok(())
        }
        fn release(&mut self, id: StateId) {
            self.store.remove(&id.0);
        }
    }

    /// Wire codec for the grid's `(i8, i8)` ops.
    struct GridCodec;

    impl OpCodec<(i8, i8)> for GridCodec {
        fn encode_op(&self, op: &(i8, i8), out: &mut Vec<u8>) {
            out.push(op.0 as u8);
            out.push(op.1 as u8);
        }
        fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<(i8, i8), PickleError> {
            Ok((r.u8()? as i8, r.u8()? as i8))
        }
    }

    fn dfs_baseline(max_depth: usize) -> u64 {
        DfsExplorer::new(ExploreConfig {
            max_depth,
            max_ops: u64::MAX,
            ..ExploreConfig::default()
        })
        .run(&mut Grid::new())
        .stats
        .states_new
    }

    #[test]
    fn frontier_swarm_matches_single_dfs_coverage() {
        let dfs_states = dfs_baseline(5);
        for workers in [1usize, 4] {
            let cfg = SwarmConfig {
                workers,
                base: ExploreConfig {
                    max_depth: 5,
                    max_ops: u64::MAX,
                    ..ExploreConfig::default()
                },
                shared_visited: true,
                strategies: vec![WorkerStrategy::Dfs],
            };
            let report = run_swarm(&cfg, |_| Grid::new());
            assert_eq!(
                report.total_states(),
                dfs_states,
                "{workers}-worker frontier swarm must cover exactly the DFS state space"
            );
            assert_eq!(report.distinct_states, Some(dfs_states));
            // Every worker ends on frontier exhaustion.
            assert!(report
                .workers
                .iter()
                .all(|w| w.stop == StopReason::Exhausted));
        }
    }

    #[test]
    fn mixed_fleets_are_refused() {
        let cfg = SwarmConfig {
            workers: 3,
            base: ExploreConfig {
                max_depth: 4,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs, WorkerStrategy::Walk],
        };
        let report = run_swarm(&cfg, |_| Grid::new());
        assert_eq!(report.workers.len(), 3);
        for w in &report.workers {
            assert!(
                matches!(&w.stop, StopReason::Fatal(msg) if msg.contains("mixed")),
                "{:?}",
                w.stop
            );
            assert_eq!(w.stats.ops_executed, 0);
        }
    }

    /// A snapshot is a frontier fleet's cut: a persistent walk fleet, named
    /// or by an empty strategy list, is refused before any walk runs.
    #[test]
    fn persistent_walk_fleets_are_refused() {
        for strategies in [vec![WorkerStrategy::Walk], vec![]] {
            let cfg = SwarmConfig {
                workers: 2,
                base: ExploreConfig {
                    max_depth: 4,
                    ..ExploreConfig::default()
                },
                shared_visited: true,
                strategies,
            };
            let report = run_swarm_persistent(
                &cfg,
                |_| Grid::new(),
                SwarmPersist {
                    codec: &GridCodec,
                    snapshot_path: None,
                    snapshot_every: 0,
                    resume: None,
                },
            );
            assert_eq!(report.workers.len(), 2);
            for w in &report.workers {
                assert!(
                    matches!(&w.stop, StopReason::Fatal(msg) if msg.contains("walk fleets are refused")),
                    "{:?}",
                    w.stop
                );
                assert_eq!(w.stats.ops_executed, 0);
            }
        }
    }

    #[test]
    fn frontier_swarm_work_is_split_not_duplicated() {
        let cfg = SwarmConfig {
            workers: 4,
            base: ExploreConfig {
                max_depth: 6,
                max_ops: u64::MAX,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        let report = run_swarm(&cfg, |_| Grid::new());
        let per_worker: Vec<u64> = report.workers.iter().map(|w| w.stats.states_new).collect();
        let total: u64 = per_worker.iter().sum();
        // Sum of per-worker discoveries equals the distinct count: each
        // state was inserted as New exactly once fleet-wide.
        assert_eq!(Some(total), report.distinct_states);
        // Rounds are dealt round-robin, so every worker discovers states
        // whatever the host's scheduling.
        assert!(per_worker.iter().all(|&n| n > 0), "{per_worker:?}");
    }

    #[test]
    fn frontier_swarm_finds_violations() {
        // Reuse the counter shape: a violation a few ops deep.
        struct Bad(Grid);
        impl ModelSystem for Bad {
            type Op = (i8, i8);
            fn ops(&mut self) -> Vec<(i8, i8)> {
                self.0.ops()
            }
            fn apply(&mut self, op: &(i8, i8)) -> ApplyOutcome {
                match self.0.apply(op) {
                    ApplyOutcome::Ok if self.0.pos == (2, 2) => {
                        ApplyOutcome::Violation("reached (2,2)".into())
                    }
                    other => other,
                }
            }
            fn abstract_state(&mut self) -> u128 {
                self.0.abstract_state()
            }
            fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
                self.0.checkpoint(id)
            }
            fn restore(&mut self, id: StateId) -> Result<(), String> {
                self.0.restore(id)
            }
            fn release(&mut self, id: StateId) {
                self.0.release(id)
            }
        }
        let cfg = SwarmConfig {
            workers: 2,
            base: ExploreConfig {
                max_depth: 8,
                max_ops: u64::MAX,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        let report = run_swarm(&cfg, |_| Bad(Grid::new()));
        assert!(report.found_violation());
        let v = report.shortest_violation().expect("violation recorded");
        // The trace genuinely reaches (2,2).
        let sum = v
            .trace
            .iter()
            .fold((0i8, 0i8), |a, op| (a.0 + op.0, a.1 + op.1));
        assert_eq!(sum, (2, 2));
    }

    #[test]
    fn snapshot_resume_reexplores_zero_states() {
        let dir = std::env::temp_dir().join("mcfs-swarm-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.pickle");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted control run.
        let mk_cfg = |max_ops: u64| SwarmConfig {
            workers: 2,
            base: ExploreConfig {
                max_depth: 6,
                max_ops,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        let control = run_swarm(&mk_cfg(u64::MAX), |_| Grid::new());
        let full_states = control.total_states();

        // Phase 1: interrupted by a tight fleet-wide op budget; final
        // snapshot written at the round boundary.
        let phase1 = run_swarm_persistent(
            &mk_cfg(40),
            |_| Grid::new(),
            SwarmPersist {
                codec: &GridCodec,
                snapshot_path: Some(path.clone()),
                snapshot_every: 0,
                resume: None,
            },
        );
        assert!(phase1.persist_error.is_none(), "{:?}", phase1.persist_error);
        assert!(
            phase1.total_states() < full_states,
            "phase 1 must be partial"
        );

        // Phase 2: a fresh "process" resumes from the file.
        let snap = load_snapshot(&path, &GridCodec).expect("snapshot loads");
        assert_eq!(snap.stats.states_new, phase1.total_states());
        let phase2 = run_swarm_persistent(
            &mk_cfg(u64::MAX),
            |_| Grid::new(),
            SwarmPersist {
                codec: &GridCodec,
                snapshot_path: Some(path.clone()),
                snapshot_every: 0,
                resume: Some(snap),
            },
        );

        // Zero re-explored states: everything the baseline knew stays
        // matched, so baseline + newly discovered == final distinct count...
        let resumed_new: u64 = phase2.workers.iter().map(|w| w.stats.states_new).sum();
        assert_eq!(
            phase2.baseline.states_new + resumed_new,
            phase2.total_states(),
            "a previously visited state was re-counted as new"
        );
        // ...and the two-phase life covers exactly what one uninterrupted
        // run covers.
        assert_eq!(phase2.total_states(), full_states);
        assert!(
            phase2.total_replayed() > 0,
            "resume pays (visible) replay overhead, not re-exploration"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn periodic_snapshots_are_loadable_mid_run() {
        let dir = std::env::temp_dir().join("mcfs-swarm-periodic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("periodic.pickle");
        let _ = std::fs::remove_file(&path);
        let cfg = SwarmConfig {
            workers: 2,
            base: ExploreConfig {
                max_depth: 5,
                max_ops: u64::MAX,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        let report = run_swarm_persistent(
            &cfg,
            |_| Grid::new(),
            SwarmPersist {
                codec: &GridCodec,
                snapshot_path: Some(path.clone()),
                snapshot_every: 10,
                resume: None,
            },
        );
        assert!(report.persist_error.is_none());
        let snap = load_snapshot(&path, &GridCodec).expect("final snapshot loads");
        // The final snapshot of an exhausted run: empty frontier, full set.
        assert_eq!(snap.visited.len() as u64, report.total_states());
        assert!(snap.frontier.is_empty());
        assert_eq!(snap.stats.states_new, report.total_states());
        std::fs::remove_file(&path).ok();
    }

    /// A resume whose budgeted load already failed its spill file stops
    /// every worker `Fatal` before a round is dealt: no op runs against a
    /// visited set that can no longer be trusted.
    #[test]
    fn poisoned_resume_stops_before_dealing_a_round() {
        let mut budget = MemBudget::new(4 * BYTES_PER_ENTRY);
        budget.faults.fail_write_at = Some(0);
        let cfg = SwarmConfig {
            workers: 2,
            base: ExploreConfig {
                max_depth: 5,
                max_ops: u64::MAX,
                mem_budget: Some(budget),
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        // Far more entries than the 4-entry hot cache holds, so the load
        // itself evicts, and its first page write fails.
        let snap = RunSnapshot {
            visited: (1..=64u128).map(|k| (k << 100, 1)).collect(),
            frontier: vec![FrontierEntry {
                prefix: Vec::new(),
                sleep: Vec::new(),
            }],
            ..RunSnapshot::empty()
        };
        let report = run_swarm_persistent(
            &cfg,
            |_| Grid::new(),
            SwarmPersist {
                codec: &GridCodec,
                snapshot_path: None,
                snapshot_every: 0,
                resume: Some(snap),
            },
        );
        for w in &report.workers {
            assert!(
                matches!(&w.stop, StopReason::Fatal(msg) if msg.contains("injected EIO")),
                "{:?}",
                w.stop
            );
            assert_eq!(w.stats.ops_executed, 0, "a round ran on a failed set");
        }
    }

    /// Replay-determinism regression: two fresh single-worker runs of the
    /// same configuration must write byte-identical snapshot files. The
    /// visited export streams in fingerprint order and the frontier drains
    /// deterministically, so any byte difference means hash-map iteration
    /// order (or other ambient entropy) leaked into the pickle path —
    /// exactly what `mcfs-lint --source` polices statically.
    #[test]
    fn fresh_single_worker_runs_pickle_identical_bytes() {
        let dir = std::env::temp_dir().join("mcfs-swarm-determinism-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SwarmConfig {
            workers: 1,
            base: ExploreConfig {
                max_depth: 5,
                max_ops: u64::MAX,
                ..ExploreConfig::default()
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        };
        let mut blobs = Vec::new();
        for run in 0..2 {
            let path = dir.join(format!("run{run}.pickle"));
            let _ = std::fs::remove_file(&path);
            let report = run_swarm_persistent(
                &cfg,
                |_| Grid::new(),
                SwarmPersist {
                    codec: &GridCodec,
                    snapshot_path: Some(path.clone()),
                    snapshot_every: 0,
                    resume: None,
                },
            );
            assert!(report.persist_error.is_none(), "{:?}", report.persist_error);
            blobs.push(std::fs::read(&path).expect("snapshot readable"));
            std::fs::remove_file(&path).ok();
        }
        assert!(
            blobs[0] == blobs[1],
            "two fresh runs of the same config produced different snapshot \
             bytes ({} vs {})",
            blobs[0].len(),
            blobs[1].len()
        );
    }
}

#[cfg(test)]
mod more_explorer_tests {
    use super::*;
    use std::collections::HashMap;

    pub(crate) struct MultiBad {
        pub(crate) value: i64,
        pub(crate) store: HashMap<u64, i64>,
    }

    impl ModelSystem for MultiBad {
        type Op = i64;
        fn ops(&mut self) -> Vec<i64> {
            vec![1, 2, 3]
        }
        fn apply(&mut self, op: &i64) -> ApplyOutcome {
            self.value += op;
            if self.value % 5 == 0 {
                return ApplyOutcome::Violation(format!("multiple of five: {}", self.value));
            }
            if self.value > 12 {
                return ApplyOutcome::Prune("too big".into());
            }
            ApplyOutcome::Ok
        }
        fn abstract_state(&mut self) -> u128 {
            self.value as u128
        }
        fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
            self.store.insert(id.0, self.value);
            Ok(8)
        }
        fn restore(&mut self, id: StateId) -> Result<(), String> {
            self.value = *self.store.get(&id.0).ok_or("missing")?;
            Ok(())
        }
        fn release(&mut self, id: StateId) {
            self.store.remove(&id.0);
        }
    }

    #[test]
    fn collect_mode_gathers_every_violation() {
        // stop_on_violation = false: the whole bounded space is searched and
        // every violating transition is recorded.
        let mut sys = MultiBad {
            value: 0,
            store: HashMap::new(),
        };
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 4,
            stop_on_violation: false,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        assert_eq!(report.stop, StopReason::Exhausted);
        assert!(
            report.violations.len() > 3,
            "multiple distinct violating transitions exist: {}",
            report.violations.len()
        );
        for v in &report.violations {
            assert!(v.message.contains("multiple of five"));
            // Each trace sums to a multiple of five.
            assert_eq!(v.trace.iter().sum::<i64>() % 5, 0, "{:?}", v.trace);
        }
    }
}

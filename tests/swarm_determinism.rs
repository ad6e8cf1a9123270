//! The frontier fleet is deterministic. Repeated runs of a 2- or 3-worker
//! fleet give identical per-worker stats, violations and harness clocks,
//! and every fleet's totals equal the 1-worker fleet's — over a toy grid
//! and over the VeriFS pairing. A worker that panics mid-round is retired
//! and its entries are re-dealt, so the fleet still reaches every state.

use std::collections::HashMap;
use std::sync::Mutex;

use blockdev::Clock;
use mcfs::{Mcfs, McfsConfig, PoolConfig, RemountMode};
use modelcheck::{
    run_swarm, ApplyOutcome, ExploreConfig, ExploreStats, ModelSystem, StateId, StopReason,
    SwarmConfig, SwarmReport, WorkerStrategy,
};

/// A bounded 2-D grid (|x|, |y| ≤ 4) with four moves, pruned at the edge.
/// Reaching `(2, 1)` is a violation. With a `fuse`, the system panics once
/// it has applied that many ops.
struct Grid {
    pos: (i8, i8),
    store: HashMap<u64, (i8, i8)>,
    fuse: Option<u32>,
}

impl Grid {
    fn new(fuse: Option<u32>) -> Self {
        Grid {
            pos: (0, 0),
            store: HashMap::new(),
            fuse,
        }
    }
}

impl ModelSystem for Grid {
    type Op = (i8, i8);
    fn ops(&mut self) -> Vec<(i8, i8)> {
        vec![(1, 0), (-1, 0), (0, 1), (0, -1)]
    }
    fn apply(&mut self, op: &(i8, i8)) -> ApplyOutcome {
        if let Some(left) = &mut self.fuse {
            assert!(*left > 0, "injected worker fault");
            *left -= 1;
        }
        let next = (self.pos.0 + op.0, self.pos.1 + op.1);
        if next.0.abs() > 4 || next.1.abs() > 4 {
            return ApplyOutcome::Prune("edge".into());
        }
        self.pos = next;
        if next == (2, 1) {
            return ApplyOutcome::Violation("reached (2, 1)".into());
        }
        ApplyOutcome::Ok
    }
    fn abstract_state(&mut self) -> u128 {
        (self.pos.0 as u8 as u128) | ((self.pos.1 as u8 as u128) << 8)
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
    /// Moves along different axes commute, and neither enables or disables
    /// the other, so sleep sets prune.
    fn independent(&self, a: &(i8, i8), b: &(i8, i8)) -> bool {
        (a.0 == 0) != (b.0 == 0)
    }
}

fn fleet(workers: usize, max_depth: usize) -> SwarmConfig {
    SwarmConfig {
        workers,
        base: ExploreConfig {
            max_depth,
            max_ops: u64::MAX,
            stop_on_violation: false,
            por: true,
            ..ExploreConfig::default()
        },
        shared_visited: true,
        strategies: vec![WorkerStrategy::Dfs],
    }
}

/// Everything a run reports per worker: stats, stop reason, violations as
/// `(ops_executed, trace, message)`, and the harness clock (0 for systems
/// without one).
type Lane<Op> = (ExploreStats, StopReason, Vec<(u64, Vec<Op>, String)>, u64);

fn lanes<Op: Clone>(report: &SwarmReport<Op>, clocks: &[u64]) -> Vec<Lane<Op>> {
    report
        .workers
        .iter()
        .zip(clocks)
        .map(|(w, clock)| {
            let violations = w
                .violations
                .iter()
                .map(|v| (v.ops_executed, v.trace.clone(), v.message.clone()))
                .collect();
            (w.stats.clone(), w.stop.clone(), violations, *clock)
        })
        .collect()
}

/// The fleet totals that must not depend on the worker count.
fn totals<Op>(lanes: &[Lane<Op>]) -> [u64; 4] {
    let mut t = [0; 4];
    for (s, ..) in lanes {
        t[0] += s.ops_executed;
        t[1] += s.states_new;
        t[2] += s.states_matched;
        t[3] += s.pruned;
    }
    t
}

/// Runs `run(workers)` for the 1-worker fleet and three times for 2- and
/// 3-worker fleets, checking repeats and totals.
fn check_determinism<Op: Clone + PartialEq + std::fmt::Debug>(
    run: impl Fn(usize) -> (Option<u64>, Vec<Lane<Op>>),
) {
    let (states, single) = run(1);
    assert!(states.is_some_and(|n| n > 1));
    for workers in [2, 3] {
        let first = run(workers);
        for _ in 1..3 {
            assert!(
                run(workers) == first,
                "a repeated {workers}-worker fleet gave different per-worker results"
            );
        }
        assert_eq!(first.0, states, "{workers} workers reached other states");
        assert_eq!(totals(&first.1), totals(&single), "{workers}-worker totals");
        assert!(
            first.1.iter().all(|(s, ..)| s.ops_executed > 0),
            "every worker of {workers} was dealt entries"
        );
    }
}

#[test]
fn grid_frontier_fleets_are_deterministic() {
    check_determinism(|workers| {
        let report = run_swarm(&fleet(workers, 6), |_| Grid::new(None));
        assert!(report.violations().next().is_some());
        (report.distinct_states, lanes(&report, &vec![0; workers]))
    });
}

#[test]
fn verifs_frontier_fleets_are_deterministic() {
    check_determinism(|workers| {
        let clocks: Mutex<Vec<Option<Clock>>> = Mutex::new(vec![None; workers]);
        let report = run_swarm(&fleet(workers, 3), |idx| {
            let clock = Clock::new();
            clocks.lock().unwrap()[idx] = Some(clock.clone());
            let targets = ["fuse-verifs-v1", "fuse-verifs-v2"]
                .iter()
                .map(|name| mcfs::backends::target(name, RemountMode::PerOp, clock.clone()))
                .collect::<Result<_, _>>()
                .expect("targets");
            let cfg = McfsConfig {
                pool: PoolConfig::small(),
                ..McfsConfig::default()
            };
            Mcfs::with_clock(targets, cfg, clock).expect("harness")
        });
        let readings: Vec<u64> = (clocks.into_inner().unwrap().iter())
            .map(|c| c.as_ref().expect("every worker built a harness").now_ns())
            .collect();
        assert!(!report.found_violation());
        (report.distinct_states, lanes(&report, &readings))
    });
}

#[test]
fn a_worker_panicking_mid_round_is_retired_and_its_entries_redealt() {
    let full = run_swarm(&fleet(1, 6), |_| Grid::new(None)).distinct_states;
    let report = run_swarm(&fleet(3, 6), |idx| Grid::new((idx == 1).then_some(40)));
    let panics: Vec<_> = report.panics().collect();
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert_eq!(panics[0].0, 1);
    assert!(panics[0].1.contains("injected worker fault"));
    assert!(
        report.workers[1].stats.ops_executed > 0,
        "the fault struck mid-round"
    );
    assert_eq!(report.distinct_states, full);
    for w in [&report.workers[0], &report.workers[2]] {
        assert_eq!(w.stop, StopReason::Exhausted);
    }
}

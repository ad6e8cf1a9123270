//! Golden equivalence tests: the full [`ExploreStats`] (virtual time, swap
//! traffic, hit rate, restores, checkpoints) and the violation traces of
//! every explorer on small systems, pinned exactly. Every charge the search
//! makes (memory-model swap and eviction, visited-table resizes, restores)
//! fires in these runs, so any drift in the order or number of charges
//! shows up here.

use std::collections::HashMap;

use blockdev::Clock;

use crate::more_explorer_tests::MultiBad;
use crate::tests::Counter;
use crate::*;

/// [`Counter`] with a partial-order relation: `+1` and `-1` are declared
/// independent, and the persistent set drops `-1` at even values.
struct Reduced(Counter);

impl ModelSystem for Reduced {
    type Op = i64;
    fn ops(&mut self) -> Vec<i64> {
        self.0.ops()
    }
    fn apply(&mut self, op: &i64) -> ApplyOutcome {
        self.0.apply(op)
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
    fn independent(&self, a: &i64, b: &i64) -> bool {
        a != b
    }
    fn persistent_set(&mut self, enabled: &[i64]) -> Option<Vec<bool>> {
        let even = self.0.abstract_state().is_multiple_of(2);
        even.then(|| enabled.iter().map(|op| *op > 0).collect())
    }
}

/// Wire codec for the counters' `i64` ops.
struct I64Codec;

impl OpCodec<i64> for I64Codec {
    fn encode_op(&self, op: &i64, out: &mut Vec<u8>) {
        out.extend_from_slice(&op.to_le_bytes());
    }
    fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<i64, PickleError> {
        Ok(r.u64()? as i64)
    }
}

/// A counter over `0..=30` with 1 MiB states, violating at 12.
fn counter() -> Counter {
    let mut c = Counter::new(30, Some(12));
    c.bytes_per_state = 1 << 20;
    c
}

fn multibad() -> MultiBad {
    MultiBad {
        value: 0,
        store: HashMap::new(),
    }
}

/// Collect-mode bounds with a 4-entry first visited resize and a RAM
/// budget of six counter states, so the spine swaps.
fn cfg(max_depth: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth,
        max_ops: 100_000,
        stop_on_violation: false,
        mem: MemConfig {
            ram_bytes: 6 << 20,
            swap_bytes: 1 << 30,
            swap_ns_per_mib: 100_000,
        },
        visited_capacity: 4,
        ..ExploreConfig::default()
    }
}

/// MultiBad's 8-byte states only swap against a tiny RAM budget that the
/// visited table's own bytes crowd out.
fn multibad_cfg(max_depth: usize) -> ExploreConfig {
    ExploreConfig {
        mem: MemConfig {
            ram_bytes: 400,
            swap_bytes: 1 << 20,
            swap_ns_per_mib: 1 << 30,
        },
        ..cfg(max_depth)
    }
}

/// `(ops_executed, trace)` of every violation, in report order.
fn traces(report: &ExploreReport<i64>) -> Vec<(u64, Vec<i64>)> {
    report
        .violations
        .iter()
        .map(|v| (v.ops_executed, v.trace.clone()))
        .collect()
}

#[test]
fn dfs_with_sleep_sets() {
    let r = DfsExplorer::new(ExploreConfig {
        por: true,
        ..cfg(14)
    })
    .with_clock(Clock::new())
    .run(&mut Reduced(counter()));
    assert_eq!(r.stop, StopReason::Exhausted);
    assert_eq!(
        r.stats,
        ExploreStats {
            ops_executed: 24,
            states_new: 12,
            states_matched: 11,
            pruned: 1,
            checkpoints: 12,
            restores: 12,
            max_depth_seen: 11,
            resize_events: 2,
            peak_memory_bytes: 12583296,
            swap_traffic_bytes: 14680064,
            hit_rate: 0.4166666666666667,
            virtual_ns: 1880000,
            visited_peak_bytes: 576,
            ..ExploreStats::default()
        }
    );
    assert_eq!(traces(&r), [(12, vec![1; 12])]);
}

#[test]
fn dfs_with_persistent_sets() {
    let r = DfsExplorer::new(ExploreConfig {
        por_persistent: true,
        ..cfg(14)
    })
    .with_clock(Clock::new())
    .run(&mut Reduced(counter()));
    assert_eq!(r.stop, StopReason::Exhausted);
    assert_eq!(
        r.stats,
        ExploreStats {
            ops_executed: 18,
            states_new: 12,
            states_matched: 6,
            pruned: 6,
            checkpoints: 12,
            restores: 6,
            max_depth_seen: 11,
            resize_events: 2,
            peak_memory_bytes: 12583296,
            swap_traffic_bytes: 10485760,
            hit_rate: 0.5,
            virtual_ns: 1480000,
            visited_peak_bytes: 576,
            ..ExploreStats::default()
        }
    );
    assert_eq!(traces(&r), [(12, vec![1; 12])]);
}

#[test]
fn dfs_collects_every_violation() {
    let r = DfsExplorer::new(multibad_cfg(5))
        .with_clock(Clock::new())
        .run(&mut multibad());
    assert_eq!(r.stop, StopReason::Exhausted);
    assert_eq!(
        r.stats,
        ExploreStats {
            ops_executed: 63,
            states_new: 11,
            states_matched: 18,
            pruned: 4,
            checkpoints: 21,
            restores: 42,
            max_depth_seen: 5,
            resize_events: 2,
            peak_memory_bytes: 808,
            swap_traffic_bytes: 160,
            hit_rate: 0.8333333333333334,
            virtual_ns: 643840,
            visited_peak_bytes: 528,
            ..ExploreStats::default()
        }
    );
    assert_eq!(
        traces(&r),
        [
            (5, vec![1, 1, 1, 1, 1]),
            (8, vec![1, 1, 1, 2]),
            (14, vec![1, 1, 2, 1]),
            (19, vec![1, 1, 2, 3, 3]),
            (20, vec![1, 1, 3]),
            (23, vec![1, 2, 2]),
            (28, vec![1, 2, 3, 2, 2]),
            (31, vec![1, 2, 3, 3, 1]),
            (35, vec![1, 3, 1]),
            (40, vec![1, 3, 3, 3]),
            (44, vec![2, 3]),
            (47, vec![3, 2]),
            (52, vec![3, 3, 2, 2]),
            (58, vec![3, 3, 3, 1]),
            (63, vec![3, 3, 3, 3, 3]),
        ]
    );
}

#[test]
fn walk_with_spread_restarts_and_backtracking() {
    let mut observed = 0u64;
    let r = RandomWalk::new(ExploreConfig {
        max_ops: 400,
        seed: 5,
        restart_spread: 0.5,
        backtrack_on_match: true,
        retain_states: true,
        ..cfg(12)
    })
    .with_clock(Clock::new())
    .run_observed(&mut counter(), |_| observed += 1);
    assert_eq!(r.stop, StopReason::OpBudget);
    assert_eq!(observed, 400);
    assert_eq!(
        r.stats,
        ExploreStats {
            ops_executed: 400,
            states_new: 30,
            states_matched: 335,
            pruned: 13,
            checkpoints: 30,
            restores: 335,
            max_depth_seen: 7,
            resize_events: 3,
            peak_memory_bytes: 31458048,
            swap_traffic_bytes: 407896064,
            swapped_bytes: 26214400,
            hit_rate: 0.45671641791044776,
            virtual_ns: 40020000,
            visited_peak_bytes: 1440,
            ..ExploreStats::default()
        }
    );
    let expected: Vec<(u64, Vec<i64>)> = [
        (16, 1),
        (35, 1),
        (46, 1),
        (65, 1),
        (68, 1),
        (70, 1),
        (76, -1),
        (89, -1),
        (99, -1),
        (110, -1),
        (113, -1),
        (127, 1),
        (136, 1),
        (145, -1),
        (151, 1),
        (157, -1),
        (165, 1),
        (170, -1),
        (172, 1),
        (195, 1),
        (207, -1),
        (213, 1),
        (217, -1),
    ]
    .into_iter()
    .map(|(ops, op)| (ops, vec![op]))
    .collect();
    assert_eq!(traces(&r), expected);
}

/// Runs a persistent frontier swarm of `workers` DFS workers with both
/// reductions on, returning the report, the FNV-128 of the sorted visited
/// fingerprints and the FNV-128 of the final pickle.
fn frontier_swarm(workers: usize) -> (SwarmReport<i64>, u128, u128) {
    let dir = std::env::temp_dir().join(format!("mcfs-golden-swarm-{workers}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.pickle");
    let report = run_swarm_persistent(
        &SwarmConfig {
            workers,
            base: ExploreConfig {
                por: true,
                por_persistent: true,
                ..cfg(14)
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Dfs],
        },
        |_| Reduced(counter()),
        SwarmPersist {
            codec: &I64Codec,
            snapshot_path: Some(path.clone()),
            snapshot_every: 0,
            resume: None,
        },
    );
    let bytes = std::fs::read(&path).unwrap();
    let snap = load_snapshot(&path, &I64Codec).unwrap();
    std::fs::remove_file(&path).ok();
    let hashes: Vec<u8> = snap
        .visited
        .iter()
        .flat_map(|(h, _)| h.to_le_bytes())
        .collect();
    (report, fnv128(&hashes), fnv128(&bytes))
}

const VISITED_DIGEST: u128 = 0x6cefd381649cf5b6328a78b81eb1448d;

/// The counter's frontier worker: both reductions leave one successor per
/// state, so every round is a single entry, replayed from the root.
fn frontier_worker_stats() -> ExploreStats {
    ExploreStats {
        ops_executed: 18,
        ops_replayed: 66,
        states_new: 12,
        states_matched: 6,
        pruned: 6,
        checkpoints: 13,
        restores: 18,
        max_depth_seen: 11,
        resize_events: 3,
        ..ExploreStats::default()
    }
}

#[test]
fn one_worker_frontier_swarm() {
    let (r, visited, pickle) = frontier_swarm(1);
    assert_eq!(r.distinct_states, Some(12));
    assert_eq!(visited, VISITED_DIGEST);
    assert_eq!(pickle, 0x50415f15c2a0fb67586d129bce452a1a);
    let w = &r.workers[0];
    assert_eq!(w.stop, StopReason::Exhausted);
    assert_eq!(w.stats, frontier_worker_stats());
    assert_eq!(traces(w), [(17, vec![1; 12])]);
}

#[test]
fn two_worker_frontier_swarm() {
    // Rounds are dealt by position, so the split is the same on every run:
    // each round's one entry goes to worker 0, and worker 1, never dealt
    // an entry, never builds its system.
    let (r, visited, _) = frontier_swarm(2);
    assert_eq!(r.distinct_states, Some(12));
    assert_eq!(visited, VISITED_DIGEST);
    let [w0, w1] = &r.workers[..] else {
        panic!("two worker reports")
    };
    assert_eq!(
        (&w0.stop, &w1.stop),
        (&StopReason::Exhausted, &StopReason::Exhausted)
    );
    assert_eq!(w0.stats, frontier_worker_stats());
    assert_eq!(traces(w0), [(17, vec![1; 12])]);
    assert_eq!(w1.stats, ExploreStats::default());
    assert!(w1.violations.is_empty());
}

/// Collect-mode walk bounds for the one-worker walk fleets: 400 ops over
/// the counter, with spread restarts reaching its violation at 12.
fn walk_fleet_cfg() -> ExploreConfig {
    ExploreConfig {
        max_ops: 400,
        seed: 5,
        restart_spread: 0.5,
        ..cfg(14)
    }
}

/// A one-worker all-walk [`run_swarm`] fleet over the counter.
fn walk_fleet(shared_visited: bool) -> SwarmReport<i64> {
    run_swarm(
        &SwarmConfig {
            workers: 1,
            base: walk_fleet_cfg(),
            shared_visited,
            strategies: vec![],
        },
        |_| counter(),
    )
}

/// The walk's violations, each traced from its last (spread) restart.
const WALK_FLEET_TRACES: &[(u64, &[i64])] = &[
    (78, &[1, -1, 1, 1, 1, 1, 1, 1]),
    (80, &[1, -1, 1, 1, 1, 1, 1, 1, -1]),
    (87, &[1]),
    (89, &[1, -1]),
    (91, &[1, 1, -1]),
    (95, &[1, 1, 1, 1, -1, -1]),
    (97, &[1, 1, 1, 1, -1, 1, -1]),
    (101, &[1, 1, 1, 1, -1, 1, -1, -1, 1, 1]),
    (103, &[1, 1, 1, 1, -1, 1, -1, -1, 1, -1, 1]),
    (107, &[1, 1, 1, 1, -1, 1, -1, -1, 1, -1, -1, -1, 1, 1]),
    (151, &[-1]),
    (153, &[-1, 1]),
    (181, &[-1]),
    (215, &[-1, 1, 1, -1, 1, 1]),
    (217, &[-1, 1, 1, -1, 1, -1, 1]),
    (223, &[-1, 1, 1, -1, 1, -1, 1, 1, 1, -1, -1, -1]),
    (228, &[1, 1]),
    (283, &[1, -1, -1, -1, 1, -1, -1, 1, 1, -1, 1, -1, -1, -1]),
    (329, &[1, -1, -1]),
    (331, &[1, -1, -1, 1]),
    (339, &[1, -1, -1, 1, 1, -1, 1, 1, -1, -1, -1]),
];

#[test]
fn one_worker_walk_fleet_with_a_private_set() {
    let r = walk_fleet(false);
    let plain = RandomWalk::new(walk_fleet_cfg()).run(&mut counter());
    assert_eq!(r.distinct_states, None);
    let w = &r.workers[0];
    assert_eq!(w.stop, StopReason::OpBudget);
    assert_eq!(w.stats, plain.stats);
    assert_eq!(traces(w), traces(&plain));
    assert_eq!(
        w.stats,
        ExploreStats {
            ops_executed: 400,
            states_new: 24,
            states_matched: 356,
            checkpoints: 24,
            restores: 27,
            max_depth_seen: 14,
            resize_events: 3,
            peak_memory_bytes: 25166592,
            swap_traffic_bytes: 40894464,
            swapped_bytes: 19922944,
            hit_rate: 0.6296296296296297,
            visited_peak_bytes: 1152,
            ..ExploreStats::default()
        }
    );
    let expected: Vec<(u64, Vec<i64>)> = WALK_FLEET_TRACES
        .iter()
        .map(|(ops, trace)| (*ops, trace.to_vec()))
        .collect();
    assert_eq!(traces(w), expected);
}

#[test]
fn one_worker_walk_fleet_with_a_shared_set() {
    let r = walk_fleet(true);
    let plain = RandomWalk::new(walk_fleet_cfg()).run_resumable(
        &mut counter(),
        &mut ShardedVisited::new(4, 8),
        |_| {},
    );
    assert_eq!(r.distinct_states, Some(plain.stats.states_new));
    let w = &r.workers[0];
    assert_eq!(w.stop, StopReason::OpBudget);
    // The shared set's footprint is reported once, fleet-wide.
    assert_eq!(
        w.stats,
        ExploreStats {
            visited_peak_bytes: 0,
            ..plain.stats.clone()
        }
    );
    assert_eq!(traces(w), traces(&plain));
    assert_eq!(r.visited_peak_bytes, plain.stats.visited_peak_bytes);
}

/// A one-worker persistent `[Walk]` fleet snapshotting every 25 ops, so
/// four rounds each respawn the walk with a derived seed. Backtracking on
/// every match keeps the walk at its root between ops once the depth-3
/// space is saturated, so each round boundary falls between two paths.
#[test]
fn one_worker_persistent_walk_fleet() {
    let dir = std::env::temp_dir().join("mcfs-golden-walk-fleet");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.pickle");
    let r = run_swarm_persistent(
        &SwarmConfig {
            workers: 1,
            base: ExploreConfig {
                max_ops: 100,
                seed: 5,
                backtrack_on_match: true,
                ..cfg(3)
            },
            shared_visited: true,
            strategies: vec![WorkerStrategy::Walk],
        },
        |_| counter(),
        SwarmPersist {
            codec: &I64Codec,
            snapshot_path: Some(path.clone()),
            snapshot_every: 25,
            resume: None,
        },
    );
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(r.distinct_states, Some(4));
    assert_eq!(fnv128(&bytes), 0xae8f3a0a86202f03945d3d06fb986469);
    let w = &r.workers[0];
    assert_eq!(w.stop, StopReason::OpBudget);
    assert_eq!(
        w.stats,
        ExploreStats {
            ops_executed: 100,
            states_new: 4,
            states_matched: 53,
            pruned: 44,
            // One root checkpoint per round, plus the three new states.
            checkpoints: 7,
            restores: 54,
            max_depth_seen: 3,
            resize_events: 2,
            peak_memory_bytes: 4194496,
            hit_rate: 1.0,
            ..ExploreStats::default()
        }
    );
}

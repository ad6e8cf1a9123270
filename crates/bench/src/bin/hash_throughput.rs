//! Measures the two halves of the swarm hot-path optimization, emitting
//! machine-readable JSON:
//!
//! 1. **Incremental abstract-state fingerprinting** — ops/sec of
//!    mutate-then-rehash on a 200-file, depth-6 tree with a full rehash per
//!    operation vs the [`mcfs::FingerprintCache`] incremental path. The
//!    incremental hash folds cached per-path digests and only recomputes
//!    the touched paths, so the per-op cost drops from O(total tree bytes)
//!    to O(touched bytes) + O(tree entries).
//! 2. **The MD5 kernel** under both — ns per 64-byte block over a 1 MiB
//!    buffer, and ns per digest of a 49-byte message (one block after
//!    padding, the size of a typical leaf digest's metadata).
//! 3. **Shared sharded visited set** — duplicate states expanded by a
//!    private-visited-set walk swarm vs one sharing a
//!    [`modelcheck::ShardedVisited`] ([`modelcheck::run_swarm`] both), at
//!    an equal per-worker op budget. Every worker records each abstract
//!    state it sees into one shared set, so the global distinct count (the
//!    union) is exact and `duplicates = Σ states_new − distinct`.
//!
//! Unlike the figure benches this one measures **real** wall-clock time:
//! the fingerprint cache is a genuine CPU optimization, not a modeled cost.
//!
//! Usage: `cargo run --release -p mcfs-bench --bin hash_throughput [iters] [--quick]`
//!
//! `--quick` shrinks the iteration counts to CI-smoke size.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcfs::{
    abstract_state, abstract_state_cached, AbstractionConfig, CheckedTarget, CheckpointTarget,
    FingerprintCache, FsOp, Mcfs, McfsConfig, PoolConfig,
};
use modelcheck::{
    run_swarm, ApplyOutcome, CheckpointStoreStats, ExploreConfig, ModelSystem, StateId, SwarmConfig,
};
use verifs::VeriFs;
use vfs::{FileMode, FileSystem, OpenFlags};

/// Files in the benchmark tree (acceptance: 200).
const TREE_FILES: usize = 200;
/// Path depth of every file (acceptance: 6 components).
const TREE_DEPTH: usize = 6;
/// Bytes of content per file.
const FILE_BYTES: usize = 2048;

/// Builds a VeriFS2 holding `TREE_FILES` files, each at depth `TREE_DEPTH`,
/// and returns the file paths.
fn build_tree() -> (VeriFs, Vec<String>) {
    mcfs_bench::verifs_tree(TREE_FILES, TREE_DEPTH, FILE_BYTES)
}

/// One benchmark mutation: rewrite a slice of file `i % TREE_FILES`.
fn mutate(fs: &mut VeriFs, paths: &[String], i: usize) {
    let path = &paths[i % paths.len()];
    let fd = fs
        .open(path, OpenFlags::write_only(), FileMode::REG_DEFAULT)
        .expect("open");
    fs.write(fd, &[i as u8; 32]).expect("write");
    fs.close(fd).expect("close");
}

struct HashBench {
    full_ops_per_sec: f64,
    incremental_ops_per_sec: f64,
    speedup: f64,
    hashes_agree: bool,
}

struct Md5Bench {
    block_ns: f64,
    one_block_digest_ns: f64,
}

fn bench_md5(quick: bool) -> Md5Bench {
    let buf: Vec<u8> = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
    let passes = if quick { 8 } else { 32 };
    let mut sink = 0u128;
    let start = Instant::now();
    for _ in 0..passes {
        sink ^= mdigest::md5(std::hint::black_box(&buf)).as_u128();
    }
    let block_ns = start.elapsed().as_nanos() as f64 / (passes * buf.len() / 64) as f64;

    let digests = if quick { 100_000 } else { 400_000 };
    let start = Instant::now();
    for i in 0..digests {
        let off = i % 64;
        sink ^= mdigest::md5(std::hint::black_box(&buf[off..off + 49])).as_u128();
    }
    let one_block_digest_ns = start.elapsed().as_nanos() as f64 / digests as f64;
    std::hint::black_box(sink);
    Md5Bench {
        block_ns,
        one_block_digest_ns,
    }
}

fn bench_hashing(iters: usize) -> HashBench {
    let cfg = AbstractionConfig::default();

    // Full rehash: the pre-optimization behavior, O(tree bytes) per op.
    let (mut fs, paths) = build_tree();
    let mut full_hashes = Vec::with_capacity(iters);
    let start = Instant::now();
    for i in 0..iters {
        mutate(&mut fs, &paths, i);
        full_hashes.push(abstract_state(&mut fs, &cfg).expect("hash"));
    }
    let full_elapsed = start.elapsed();

    // Incremental: invalidate the touched path, reuse every other digest.
    let (mut fs, paths) = build_tree();
    let mut cache = FingerprintCache::new();
    let _ = abstract_state_cached(&mut fs, &cfg, &mut cache).expect("warm-up hash");
    let mut incr_hashes = Vec::with_capacity(iters);
    let start = Instant::now();
    for i in 0..iters {
        cache.invalidate_op(&mut fs, &[&paths[i % paths.len()]]);
        mutate(&mut fs, &paths, i);
        incr_hashes.push(abstract_state_cached(&mut fs, &cfg, &mut cache).expect("hash"));
    }
    let incr_elapsed = start.elapsed();

    let full_ops_per_sec = iters as f64 / full_elapsed.as_secs_f64().max(1e-9);
    let incremental_ops_per_sec = iters as f64 / incr_elapsed.as_secs_f64().max(1e-9);
    HashBench {
        full_ops_per_sec,
        incremental_ops_per_sec,
        speedup: incremental_ops_per_sec / full_ops_per_sec,
        hashes_agree: full_hashes == incr_hashes,
    }
}

/// An [`Mcfs`] wrapper that records every abstract state the explorer
/// observes into a set every worker shares, which is then the union: the
/// exact global distinct count.
struct Recording {
    inner: Mcfs,
    seen: Arc<Mutex<HashSet<u128>>>,
}

impl ModelSystem for Recording {
    type Op = FsOp;

    fn ops(&mut self) -> Vec<FsOp> {
        self.inner.ops()
    }

    fn apply(&mut self, op: &FsOp) -> ApplyOutcome {
        self.inner.apply(op)
    }

    fn abstract_state(&mut self) -> u128 {
        let h = self.inner.abstract_state();
        self.seen.lock().expect("seen set").insert(h);
        h
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

    fn pin(&mut self, id: StateId) {
        self.inner.pin(id)
    }

    fn unpin(&mut self, id: StateId) {
        self.inner.unpin(id)
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        self.inner.checkpoint_store_stats()
    }

    fn independent(&self, a: &FsOp, b: &FsOp) -> bool {
        self.inner.independent(a, b)
    }
}

fn build_harness() -> Mcfs {
    let mut a = VeriFs::v2();
    a.mount().expect("mount");
    let mut b = VeriFs::v2();
    b.mount().expect("mount");
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(a)),
        Box::new(CheckpointTarget::new(b)),
    ];
    Mcfs::new(
        targets,
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
    )
    .expect("harness")
}

struct SwarmDedup {
    states_expanded: u64,
    distinct_states: u64,
    duplicate_states: u64,
}

/// Runs `workers` diversified random walks at an equal per-worker budget,
/// either each with a private visited set or all sharing one sharded set.
fn swarm_dedup(shared: bool, workers: usize, budget: u64) -> SwarmDedup {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let report = run_swarm(
        &SwarmConfig {
            workers,
            base: ExploreConfig {
                max_depth: 5,
                max_ops: budget,
                visited_capacity: 1 << 12,
                seed: 100,
                ..ExploreConfig::default()
            },
            shared_visited: shared,
            strategies: Vec::new(),
        },
        |_| Recording {
            inner: build_harness(),
            seen: Arc::clone(&seen),
        },
    );
    if let Some((idx, msg)) = report.panics().next() {
        panic!("swarm worker {idx} panicked: {msg}");
    }
    let states_expanded: u64 = report.workers.iter().map(|w| w.stats.states_new).sum();
    let distinct_states = seen.lock().expect("seen set").len() as u64;
    SwarmDedup {
        states_expanded,
        distinct_states,
        duplicate_states: states_expanded.saturating_sub(distinct_states),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let iters: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if quick { 80 } else { 240 });
    let hash = bench_hashing(iters);
    let md5 = bench_md5(quick);

    let workers = 4;
    let budget = if quick { 600 } else { 1_500 };
    let private = swarm_dedup(false, workers, budget);
    let shared = swarm_dedup(true, workers, budget);

    println!("{{");
    println!("  \"hash_throughput\": {{");
    println!("    \"tree_files\": {TREE_FILES},");
    println!("    \"tree_depth\": {TREE_DEPTH},");
    println!("    \"file_bytes\": {FILE_BYTES},");
    println!("    \"iterations\": {iters},");
    println!(
        "    \"full_rehash_ops_per_sec\": {:.1},",
        hash.full_ops_per_sec
    );
    println!(
        "    \"incremental_ops_per_sec\": {:.1},",
        hash.incremental_ops_per_sec
    );
    println!("    \"speedup\": {:.2},", hash.speedup);
    println!("    \"hashes_agree\": {}", hash.hashes_agree);
    println!("  }},");
    println!("  \"md5\": {{");
    println!("    \"block_ns\": {:.1},", md5.block_ns);
    println!(
        "    \"one_block_digest_ns\": {:.1}",
        md5.one_block_digest_ns
    );
    println!("  }},");
    println!("  \"swarm_dedup\": {{");
    println!("    \"workers\": {workers},");
    println!("    \"ops_budget_per_worker\": {budget},");
    for (label, r, comma) in [("private", &private, ","), ("shared_sharded", &shared, "")] {
        println!("    \"{label}\": {{");
        println!("      \"states_expanded\": {},", r.states_expanded);
        println!("      \"distinct_states\": {},", r.distinct_states);
        println!("      \"duplicate_states\": {}", r.duplicate_states);
        println!("    }}{comma}");
    }
    println!("  }}");
    println!("}}");

    assert!(
        hash.hashes_agree,
        "incremental and full hashing must agree on every iteration"
    );
    assert!(
        hash.speedup >= 5.0,
        "incremental fingerprinting must be >= 5x full rehash (got {:.2}x)",
        hash.speedup
    );
    assert!(
        shared.duplicate_states < private.duplicate_states,
        "the shared sharded set must expand strictly fewer duplicates \
         (shared {} vs private {})",
        shared.duplicate_states,
        private.duplicate_states
    );
}

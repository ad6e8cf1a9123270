//! Design-choice ablations called out in DESIGN.md.
//!
//! 1. **Abstract-state matching vs raw-state matching** (§3.3): hashing the
//!    noisy attributes (atime) makes nearly every state unique — the state
//!    explosion the abstraction function exists to prevent.
//! 2. **Partial-order reduction**: path-disjoint operations commute, so
//!    sleep sets prune redundant interleavings.
//! 3. **Swarm verification** (§7): more diversified workers find a seeded
//!    bug sooner in aggregate.
//! 4. **VFS-level checkpointing** (§7 future work): kernel file systems with
//!    checkpoint/restore support vs the remount workaround.
//!
//! Output: one table per ablation, then JSON (also written to
//! `BENCH_ablation.json`).
//!
//! Usage: `cargo run --release -p mcfs-bench --bin ablation [ops]`

use blockdev::Clock;
use mcfs::{CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig};
use mcfs_bench::{BenchArgs, BenchReport, Row};
use modelcheck::{run_swarm, DfsExplorer, ExploreConfig, SwarmConfig};
use verifs::{BugConfig, VeriFs};
use vfs::FileSystem;

fn verifs_harness(atime_noise: bool, clock: Clock, bugs: BugConfig) -> Mcfs {
    // Bare VeriFS instances (no FUSE): the ablation isolates the matching
    // strategy, so attribute-cache timing must not perturb the hashes.
    let mut a = VeriFs::v2();
    a.mount().expect("mount");
    let mut b = VeriFs::v2_with_bugs(bugs);
    b.mount().expect("mount");
    let targets: Vec<Box<dyn CheckedTarget>> = vec![
        Box::new(CheckpointTarget::new(a)),
        Box::new(CheckpointTarget::new(b)),
    ];
    let mut cfg = McfsConfig {
        pool: PoolConfig::small(),
        ..McfsConfig::default()
    };
    cfg.abstraction.include_atime = atime_noise;
    Mcfs::with_clock(targets, cfg, clock).expect("harness")
}

fn main() {
    let args = BenchArgs::parse("ablation [ops]");
    let budget = args.count_or(2_000);
    let mut out = BenchReport::new("ablation", args.quick);
    out.params(Row::new().count("budget_ops", budget));

    // 1. Abstraction ablation: include atime in the hash (≈ hashing raw
    //    state) and watch deduplication collapse. A single file system is
    //    explored directly so only the matching strategy varies (§3.3).
    let mut rows = Vec::new();
    for (label, noisy) in [
        ("abstract state (Algorithm 1)", false),
        ("raw state (atime hashed)", true),
    ] {
        struct Single {
            fs: VeriFs,
            ops: Vec<mcfs::FsOp>,
            noisy: bool,
        }
        impl modelcheck::ModelSystem for Single {
            type Op = mcfs::FsOp;
            fn ops(&mut self) -> Vec<mcfs::FsOp> {
                self.ops.clone()
            }
            fn apply(&mut self, op: &mcfs::FsOp) -> modelcheck::ApplyOutcome {
                mcfs::execute(&mut self.fs, op, &[]);
                modelcheck::ApplyOutcome::Ok
            }
            fn abstract_state(&mut self) -> u128 {
                let cfg = mcfs::AbstractionConfig {
                    include_atime: self.noisy,
                    ..mcfs::AbstractionConfig::default()
                };
                mcfs::abstract_state(&mut self.fs, &cfg)
                    .map(|d| d.as_u128())
                    .unwrap_or(u128::MAX)
            }
            fn checkpoint(&mut self, id: modelcheck::StateId) -> Result<usize, String> {
                use vfs::FsCheckpoint;
                self.fs.checkpoint(id.0).map_err(|e| e.to_string())?;
                Ok(self.fs.state_bytes())
            }
            fn restore(&mut self, id: modelcheck::StateId) -> Result<(), String> {
                use vfs::FsCheckpoint;
                self.fs.restore_keep(id.0).map_err(|e| e.to_string())
            }
            fn release(&mut self, id: modelcheck::StateId) {
                use vfs::FsCheckpoint;
                let _ = self.fs.discard(id.0);
            }
        }
        let mut fs = VeriFs::v2();
        fs.mount().expect("mount");
        let mut single = Single {
            fs,
            ops: PoolConfig::small().ops(),
            noisy,
        };
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 3,
            max_ops: budget,
            ..ExploreConfig::default()
        })
        .run(&mut single);
        let dedup = report.stats.states_matched as f64 / report.stats.ops_executed.max(1) as f64;
        rows.push(
            Row::new()
                .str("matching", label)
                .count("ops", report.stats.ops_executed)
                .count("states", report.stats.states_new)
                .num("matched", dedup)
                .str("stop", format!("{:?}", report.stop)),
        );
    }
    out.table("matching", "Ablation: abstract vs raw state matching", rows);

    // 2. Partial-order reduction on the harness's path-disjoint ops.
    let mut rows = Vec::new();
    for por in [false, true] {
        let clock = Clock::new();
        let mut harness = verifs_harness(false, clock.clone(), BugConfig::none());
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 3,
            max_ops: budget * 4,
            por,
            stop_on_violation: true,
            ..ExploreConfig::default()
        })
        .with_clock(clock)
        .run(&mut harness);
        rows.push(
            Row::new()
                .flag("por", por)
                .count("ops", report.stats.ops_executed)
                .count("states", report.stats.states_new)
                .count("pruned", report.stats.pruned),
        );
    }
    out.table("por", "Ablation: partial-order reduction", rows);

    // 3. Swarm scaling on a seeded bug.
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let cfg = SwarmConfig {
            workers,
            base: ExploreConfig {
                max_depth: 12,
                max_ops: 60_000,
                seed: 11,
                ..ExploreConfig::default()
            },
            shared_visited: false,
            strategies: vec![],
        };
        let report = run_swarm(&cfg, |_| {
            verifs_harness(
                false,
                Clock::new(),
                BugConfig {
                    v2_size_only_on_capacity_growth: true,
                    ..BugConfig::default()
                },
            )
        });
        rows.push(
            Row::new()
                .count("workers", workers as u64)
                .flag("found", report.found_violation())
                .opt_count(
                    "first_detection_ops",
                    report.violations().map(|v| v.ops_executed).min(),
                )
                .count("total_ops", report.total_ops()),
        );
    }
    out.table("swarm", "Ablation: swarm workers on a seeded bug", rows);

    // 4. VFS-level checkpointing (§7 future work) vs the remount strategy
    //    for the same kernel-file-system pairing.
    {
        use blockdev::LatencyModel;
        use mcfs::{ImageTarget, RemountMode, RemountTarget};
        let run = |vfs_api: bool| -> f64 {
            let clock = Clock::new();
            let e2 = mcfs_bench::ext_on(
                fs_ext::ExtConfig::ext2(),
                LatencyModel::ram(),
                clock.clone(),
            )
            .expect("format");
            let e4 = mcfs_bench::ext_on(
                fs_ext::ExtConfig::ext4(),
                LatencyModel::ram(),
                clock.clone(),
            )
            .expect("format");
            let targets: Vec<Box<dyn CheckedTarget>> = if vfs_api {
                vec![
                    Box::new(ImageTarget::vfs(e2).with_clock(clock.clone())),
                    Box::new(ImageTarget::vfs(e4).with_clock(clock.clone())),
                ]
            } else {
                vec![
                    Box::new(RemountTarget::new(e2, RemountMode::PerOp).with_clock(clock.clone())),
                    Box::new(RemountTarget::new(e4, RemountMode::PerOp).with_clock(clock.clone())),
                ]
            };
            let mut harness = Mcfs::with_clock(
                targets,
                McfsConfig {
                    pool: PoolConfig::small(),
                    ..McfsConfig::default()
                },
                clock.clone(),
            )
            .expect("harness");
            let start = clock.now_ns();
            let report = DfsExplorer::new(ExploreConfig {
                max_depth: 4,
                max_ops: budget,
                ..ExploreConfig::default()
            })
            .with_clock(clock.clone())
            .run(&mut harness);
            report.stats.ops_executed as f64 * 1e9 / (clock.now_ns() - start).max(1) as f64
        };
        let remount = run(false);
        let vfs_api = run(true);
        out.table(
            "checkpointing",
            "Ablation: VFS-level checkpointing (what §7 hopes to gain)",
            vec![
                Row::new()
                    .str("strategy", "ext2-vs-ext4: remount workaround")
                    .rate("ops", remount)
                    .num("vs_remount", 1.0),
                Row::new()
                    .str("strategy", "ext2-vs-ext4: VFS-level checkpoint API")
                    .rate("ops", vfs_api)
                    .num("vs_remount", vfs_api / remount),
            ],
        );
    }
    out.finish();
}

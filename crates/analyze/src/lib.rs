//! Static-analysis layer for the MCFS harness: the lint registry behind
//! `mcfs-lint`.
//!
//! The harness's soundness rests on three inferred artifacts: the
//! signature-derived independence relation driving partial-order reduction
//! ([`mcfs::effect`]), the abstraction function collapsing concrete states
//! into visited-set fingerprints, and the checkpoint machinery replaying
//! exploration prefixes. Each is *derived* from the op pool and backend
//! capabilities rather than hand-audited per backend, so this crate
//! validates the derivations dynamically:
//!
//! - **MC001** (unsound independence): every claimed-independent pair is
//!   executed in both orders from sampled reachable states.
//! - **MC002** (abstraction aliasing): fingerprint collisions are probed
//!   with a POSIX op suite that must not distinguish them.
//! - **MC003** (errno-model divergence): identical sequences must fail
//!   identically across backends.
//! - **MC004** (checkpoint/restore asymmetry): restoring a checkpoint must
//!   reproduce the checkpointed fingerprint.
//! - **MC005** (repair non-convergence): fsck on a volume whose *derivable*
//!   metadata was corrupted must reach a fixed point within two runs and
//!   recover every reachable byte.
//! - **MC006** (unsound concurrency independence): every pair the
//!   interleaving explorer's POR relation claims independent is run under
//!   both two-thread schedules; the reached state *and* each op's own
//!   observed result must agree.
//! - **MC007** (replay nondeterminism): the same bounded exploration runs
//!   under permuted worker-fleet sizes, visited-set capacities and seeds;
//!   every run must visit the identical state set and pickle to
//!   byte-identical canonical snapshot bytes. Its static half lives in
//!   [`source`]: a taint pass over the workspace source that flags ambient
//!   entropy (hash-container iteration, wall clocks, `RandomState`, raw
//!   thread spawns, pointer identity, `enumerate()` slot indices) reaching
//!   fingerprint/wire sinks, with `// mcfs-lint: allow(MC007, reason)`
//!   suppressions keeping intentional uses auditable.
//!
//! [`run_registry`] runs every code across the workspace backends and
//! returns a [`report::LintReport`] renderable as text or SARIF-style
//! JSON. The `mcfs-lint` binary (in the bench crate) is a thin CLI over
//! it; CI runs `mcfs-lint --quick` as a smoke gate.

#![warn(missing_docs)]

pub mod checks;
pub mod report;
pub mod source;

pub use checks::{
    ext_derivable_corruptor, jffs2_corrupt_log_tails, mc001_commutation, mc002_aliasing,
    mc003_errno_parity, mc004_checkpoint_symmetry, mc004_device_symmetry, mc005_repair_convergence,
    mc006_interleave_commutation, mc007_divergence, single_file_mutations, ConcRelation,
    Mc001Config, Mc002Config, Mc003Config, Mc004Config, Mc005Config, Mc006Config, Mc007Config,
    Relation, XorShift64,
};
pub use report::{Diagnostic, LintCode, LintReport, Severity};
pub use source::{run_source, SourceFinding, SourceKind, SourceOptions, SourceReport};

use blockdev::{Clock, LatencyModel};
use fs_ext::ExtConfig;
use fusesim::FuseMount;
use mcfs::backends::{self, ext_on, jffs2_on, mounted, xfs_on};
use mcfs::{Mcfs, McfsConfig, PoolConfig, RemountMode};
use verifs::VeriFs;
use vfs::VfsResult;

/// Registry run options.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Quick mode: light backends only plus one device-backed
    /// representative, smaller sample counts — the CI smoke gate.
    pub quick: bool,
    /// Base PRNG seed for all sampled checks.
    pub seed: u64,
    /// Restrict to these codes (`None` = all).
    pub codes: Option<Vec<LintCode>>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            quick: false,
            seed: 0x5eed_1e47,
            codes: None,
        }
    }
}

impl LintOptions {
    fn enabled(&self, code: LintCode) -> bool {
        self.codes.as_ref().is_none_or(|cs| cs.contains(&code))
    }
}

/// Converts a check-runner error into a diagnostic so a backend that fails
/// to construct shows up as a finding instead of aborting the run.
fn check_failure(code: LintCode, backend: &str, err: vfs::Errno) -> Diagnostic {
    Diagnostic {
        code,
        severity: Severity::Error,
        backend: backend.to_string(),
        message: format!("check failed to run: {err}"),
        replay: Vec::new(),
    }
}

/// Runs the full lint registry and collects every finding.
pub fn run_registry(opts: &LintOptions) -> LintReport {
    let backend_list = if opts.quick {
        backends::quick()
    } else {
        backends::all()
    };
    let pool = PoolConfig::small();
    let pool_ops = pool.ops();
    let mut report = LintReport {
        backends: backend_list.iter().map(|b| b.name.to_string()).collect(),
        ..LintReport::default()
    };

    // MC001: validate the derived independence relation on every backend.
    if opts.enabled(LintCode::Mc001) {
        for b in &backend_list {
            let cfg = Mc001Config {
                samples_per_pair: if b.heavy { 1 } else { 2 },
                max_pairs: if b.heavy { Some(80) } else { None },
                seed: opts.seed ^ 1,
                ..Mc001Config::default()
            };
            report.checks_run += 1;
            match mc001_commutation(b, &pool_ops, Relation::Derived, &cfg) {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => report
                    .diagnostics
                    .push(check_failure(LintCode::Mc001, b.name, e)),
            }
        }
    }

    // MC006: validate the stricter concurrency independence relation that
    // drives the thread-interleaving explorer's POR — swapping the
    // two-thread schedule of a claimed-independent pair must change
    // neither the reached state nor either op's own observed result.
    if opts.enabled(LintCode::Mc006) {
        for b in &backend_list {
            let cfg = Mc006Config {
                samples_per_pair: if b.heavy { 1 } else { 2 },
                max_pairs: if b.heavy { Some(80) } else { None },
                seed: opts.seed ^ 6,
                ..Mc006Config::default()
            };
            report.checks_run += 1;
            match mc006_interleave_commutation(b, &pool_ops, ConcRelation::Concurrent, &cfg) {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => report
                    .diagnostics
                    .push(check_failure(LintCode::Mc006, b.name, e)),
            }
        }
    }

    // MC002: probe fingerprint collisions over single-file traces. The
    // in-memory backends get the exhaustive length-3 enumeration; the
    // device-backed ones are capped harder since every trace reformats.
    if opts.enabled(LintCode::Mc002) {
        let ops = single_file_mutations(&pool, "/f0");
        for b in &backend_list {
            let cfg = Mc002Config {
                max_len: if b.heavy { 2 } else { 3 },
                ..Mc002Config::default()
            };
            report.checks_run += 1;
            let fresh = || b.fresh();
            match mc002_aliasing(&fresh, b.name, &ops, &cfg) {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => report
                    .diagnostics
                    .push(check_failure(LintCode::Mc002, b.name, e)),
            }
        }
    }

    // MC003: errno parity between the reference implementation and each
    // on-disk backend.
    if opts.enabled(LintCode::Mc003) {
        let reference = &backend_list[1]; // verifs-v2
        for b in &backend_list {
            if b.name == reference.name {
                continue;
            }
            let cfg = Mc003Config {
                sequences: if b.heavy { 20 } else { 40 },
                seed: opts.seed ^ 3,
                ..Mc003Config::default()
            };
            report.checks_run += 1;
            match mc003_errno_parity(reference, b, &pool, &cfg) {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => {
                    let name = format!("{}/{}", reference.name, b.name);
                    report
                        .diagnostics
                        .push(check_failure(LintCode::Mc003, &name, e));
                }
            }
        }
    }

    // MC004: checkpoint symmetry on the checkpoint-API backends, device
    // snapshot symmetry on the device-backed ones.
    if opts.enabled(LintCode::Mc004) {
        let cfg = Mc004Config {
            rounds: if opts.quick { 6 } else { 10 },
            seed: opts.seed ^ 4,
            ..Mc004Config::default()
        };
        report.checks_run += 1;
        match mc004_checkpoint_symmetry(&|| mounted(VeriFs::v2()), "verifs-v2", &pool, &cfg) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc004, "verifs-v2", e)),
        }
        report.checks_run += 1;
        match mc004_checkpoint_symmetry(
            &|| mounted(FuseMount::new(VeriFs::v2())),
            "fuse-verifs-v2",
            &pool,
            &cfg,
        ) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc004, "fuse-verifs-v2", e)),
        }
        report.checks_run += 1;
        match mc004_device_symmetry(
            &|| {
                mounted(ext_on(
                    ExtConfig::ext2(),
                    LatencyModel::ram(),
                    Clock::new(),
                )?)
            },
            "ext2",
            &pool,
            &cfg,
        ) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc004, "ext2", e)),
        }
        if !opts.quick {
            report.checks_run += 1;
            match mc004_device_symmetry(
                &|| mounted(xfs_on(LatencyModel::ram(), Clock::new())?),
                "xfs",
                &pool,
                &cfg,
            ) {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => report
                    .diagnostics
                    .push(check_failure(LintCode::Mc004, "xfs", e)),
            }
            report.checks_run += 1;
            match mc004_device_symmetry(&|| mounted(jffs2_on(Clock::new())?), "jffs2", &pool, &cfg)
            {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => report
                    .diagnostics
                    .push(check_failure(LintCode::Mc004, "jffs2", e)),
            }
        }
    }

    // MC007: replay-determinism divergence — the same bounded exploration
    // under permuted worker/capacity/seed configurations must visit the
    // identical state set and pickle identically. Run on the checkpoint-API
    // pairing and the remount pairing so both state-tracking paths are
    // covered.
    if opts.enabled(LintCode::Mc007) {
        let cfg = Mc007Config {
            seed: opts.seed ^ 7,
            ..Mc007Config::default()
        };
        report.checks_run += 1;
        match mc007_divergence(
            "verifs",
            &|| mc007_pair(["verifs-v1", "verifs-v2"], &pool),
            &mcfs::FsOpCodec,
            &cfg,
        ) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc007, "verifs", e)),
        }
        report.checks_run += 1;
        match mc007_divergence(
            "ext2",
            &|| mc007_pair(["ext2", "ext4"], &pool),
            &mcfs::FsOpCodec,
            &cfg,
        ) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc007, "ext2", e)),
        }
    }

    // MC005: repair convergence on the fsck-capable on-disk backends,
    // against corruptors that scramble only derivable metadata.
    if opts.enabled(LintCode::Mc005) {
        let cfg = Mc005Config {
            rounds: if opts.quick { 2 } else { 4 },
            seed: opts.seed ^ 5,
            ..Mc005Config::default()
        };
        report.checks_run += 1;
        match mc005_repair_convergence(
            &|| {
                mounted(ext_on(
                    ExtConfig::ext2(),
                    LatencyModel::ram(),
                    Clock::new(),
                )?)
            },
            "ext2",
            &pool,
            &ext_derivable_corruptor,
            &cfg,
        ) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc005, "ext2", e)),
        }
        if !opts.quick {
            report.checks_run += 1;
            match mc005_repair_convergence(
                &|| {
                    mounted(ext_on(
                        ExtConfig::ext4(),
                        LatencyModel::ram(),
                        Clock::new(),
                    )?)
                },
                "ext4",
                &pool,
                &ext_derivable_corruptor,
                &cfg,
            ) {
                Ok(ds) => report.diagnostics.extend(ds),
                Err(e) => report
                    .diagnostics
                    .push(check_failure(LintCode::Mc005, "ext4", e)),
            }
        }
        report.checks_run += 1;
        match mc005_repair_convergence(
            &|| mounted(jffs2_on(Clock::new())?),
            "jffs2",
            &pool,
            &|img, rng| jffs2_corrupt_log_tails(img, backends::JFFS2_ERASE_BLOCK, rng),
            &cfg,
        ) {
            Ok(ds) => report.diagnostics.extend(ds),
            Err(e) => report
                .diagnostics
                .push(check_failure(LintCode::Mc005, "jffs2", e)),
        }
    }

    report
}

/// The two-backend remount-per-op harness the MC007 divergence check
/// explores; the factory runs once per swarm worker per round.
fn mc007_pair(names: [&str; 2], pool: &PoolConfig) -> VfsResult<Mcfs> {
    let clock = Clock::new();
    let targets = names
        .iter()
        .map(|name| backends::target(name, RemountMode::PerOp, clock.clone()))
        .collect::<VfsResult<_>>()?;
    Mcfs::new(
        targets,
        McfsConfig {
            pool: pool.clone(),
            ..McfsConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs::FsOp;
    use vfs::FileSystem;

    /// The acceptance criterion: MC002 fires on the historical VeriFS
    /// (hole writes skip zeroing, residue digest off — the CHUNK-rounding
    /// aliasing) and stays clean on the fixed v2.
    #[test]
    fn mc002_fires_on_historical_verifs_and_is_clean_on_fixed() {
        let pool = PoolConfig::small();
        let ops = single_file_mutations(&pool, "/f0");
        let cfg = Mc002Config::default();

        let ds = mc002_aliasing(
            &backends::historical_verifs,
            "verifs-historical",
            &ops,
            &cfg,
        )
        .expect("historical backend runs");
        assert!(
            ds.iter().any(|d| d.code == LintCode::Mc002),
            "CHUNK-rounding aliasing must be caught on the historical backend"
        );
        assert!(
            !ds[0].replay.is_empty(),
            "diagnostic carries a replayable trace"
        );

        let fixed = backends::quick()[1]; // verifs-v2
        let ds =
            mc002_aliasing(&|| fixed.fresh(), fixed.name, &ops, &cfg).expect("fixed backend runs");
        assert!(ds.is_empty(), "fixed v2 must be alias-free: {ds:?}");
    }

    /// The old path-prefix heuristic calls hard-link-aliased pairs
    /// independent; the commutation sanitizer catches that, while the
    /// derived relation passes on the same op set.
    #[test]
    fn mc001_catches_heuristic_hardlink_unsoundness() {
        let backend = backends::quick()[1]; // verifs-v2
        let ops = vec![
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::Hardlink {
                src: "/f0".into(),
                dst: "/f1".into(),
            },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 0,
            },
            FsOp::WriteFile {
                path: "/f1".into(),
                offset: 0,
                size: 10,
                seed: 1,
            },
        ];
        let cfg = Mc001Config {
            samples_per_pair: 256,
            prefix_len: 3,
            max_pairs: None,
            seed: 7,
        };
        let ds = mc001_commutation(&backend, &ops, Relation::Heuristic, &cfg)
            .expect("heuristic run completes");
        assert!(
            ds.iter().any(|d| d.code == LintCode::Mc001),
            "heuristic must be caught treating aliased truncate/write as independent"
        );

        let ds = mc001_commutation(&backend, &ops, Relation::Derived, &cfg)
            .expect("derived run completes");
        assert!(ds.is_empty(), "derived relation must be sound: {ds:?}");
    }

    /// MC006's teeth: the *sequential* relation is observably unsound as a
    /// concurrency relation — stat/truncate commute state-wise but the
    /// stat's result flips with the schedule, and two threads racing the
    /// same create swap who sees `Ok` and who sees `EEXIST`. The real
    /// concurrency relation must stay clean on the same op set.
    #[test]
    fn mc006_catches_sequential_relation_used_concurrently() {
        let backend = backends::quick()[1]; // verifs-v2
        let ops = vec![
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::Stat { path: "/f0".into() },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 5,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 0,
                size: 10,
                seed: 1,
            },
        ];
        let cfg = Mc006Config {
            samples_per_pair: 64,
            prefix_len: 3,
            max_pairs: None,
            seed: 7,
        };
        let ds = mc006_interleave_commutation(&backend, &ops, ConcRelation::Sequential, &cfg)
            .expect("sequential run completes");
        assert!(
            ds.iter().any(|d| d.code == LintCode::Mc006),
            "the sequential relation must be caught hiding order-sensitive results"
        );

        let ds = mc006_interleave_commutation(&backend, &ops, ConcRelation::Concurrent, &cfg)
            .expect("concurrent run completes");
        assert!(ds.is_empty(), "concurrency relation must be sound: {ds:?}");
    }

    /// The quick registry on the fixed workspace is clean — the CI gate.
    #[test]
    fn quick_registry_is_clean_on_workspace() {
        let report = run_registry(&LintOptions {
            quick: true,
            ..LintOptions::default()
        });
        assert!(
            !report.has_errors(),
            "quick registry must pass:\n{}",
            report.render_human()
        );
        assert!(report.checks_run >= 9, "all four codes ran");
    }

    #[test]
    fn code_filter_limits_checks() {
        let report = run_registry(&LintOptions {
            quick: true,
            codes: Some(vec![LintCode::Mc003]),
            ..LintOptions::default()
        });
        assert!(report.diagnostics.iter().all(|d| d.code == LintCode::Mc003));
        assert!(report.checks_run < 9);
    }

    /// MC005's teeth: corruption that destroys *non*-derivable metadata
    /// (the inode table) is unrepairable data loss, and the convergence
    /// check must flag it rather than let fsck silently "succeed".
    #[test]
    fn mc005_flags_unrepairable_data_loss() {
        let destroy_inode_table = |img: &mut [u8], _rng: &mut XorShift64| {
            let sb = fs_ext::layout::SuperBlock::decode(img).unwrap();
            let bs = sb.block_size as usize;
            let start = sb.inode_table_start() as usize * bs;
            let end = start + sb.inode_table_blocks() as usize * bs;
            for b in &mut img[start..end] {
                *b = 0;
            }
        };
        let cfg = Mc005Config {
            rounds: 6,
            prefix_len: 5,
            corruptions: 1,
            seed: 0x5eed_1e47 ^ 5,
        };
        let ds = mc005_repair_convergence(
            &|| {
                // Pre-populate so every round has reachable data to lose.
                let mut fs = fs_ext::ext2_on_ram(backends::EXT_DEVICE_BYTES)?;
                fs.mount()?;
                let fd = fs.create("/keep", vfs::FileMode::REG_DEFAULT)?;
                fs.write(fd, b"reachable")?;
                fs.close(fd)?;
                Ok(fs)
            },
            "ext2",
            &PoolConfig::small(),
            &destroy_inode_table,
            &cfg,
        )
        .expect("check runs");
        assert!(
            ds.iter().any(|d| d.code == LintCode::Mc005),
            "wiping the inode table must surface as an MC005 finding"
        );
    }
}

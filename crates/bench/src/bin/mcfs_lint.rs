//! `mcfs-lint` — run the harness-soundness lint registry and the
//! source-level determinism analyzer.
//!
//! Dynamic mode (default) validates the inferred artifacts the model
//! checker's results depend on: the signature-derived independence
//! relation (MC001), the visited-set abstraction (MC002), cross-backend
//! errno models (MC003), checkpoint/restore fidelity (MC004), fsck repair
//! convergence (MC005), the interleaving explorer's concurrency
//! independence relation (MC006), and replay determinism under permuted
//! swarm configurations (MC007). See the `analyze` crate docs.
//!
//! Static mode (`--source [ROOT]`) runs the MC007 taint pass over the
//! workspace source instead: unordered iteration, wall clocks,
//! `RandomState`, raw thread spawns, pointer identity and `enumerate()`
//! slot indices reaching fingerprint/wire sinks, with
//! `// mcfs-lint: allow(MC007, reason)` suppressions.
//!
//! Usage:
//!
//! ```text
//! mcfs-lint [--quick] [--json] [--code MC00N]... [--seed N] [--list]
//!           [--source [ROOT]] [--deny MC00N]... [--allow MC00N]...
//!           [--bench-out PATH]
//! ```
//!
//! Exit status contract (stable — CI depends on it):
//!
//! ```text
//! 0  clean (or every finding suppressed / `--allow`ed)
//! 1  unsuppressed findings
//! 2  usage or internal error
//! ```

use analyze::{run_registry, LintCode, LintOptions, LintReport, Severity, SourceOptions};
use mcfs_bench::{BenchReport, Row};

fn usage() -> &'static str {
    "usage: mcfs-lint [--quick] [--json] [--code MC00N]... [--seed N] [--list]\n\
     \x20                [--source [ROOT]] [--deny MC00N]... [--allow MC00N]...\n\
     \x20                [--bench-out PATH]"
}

fn parse_code(raw: &str) -> LintCode {
    LintCode::parse(raw).unwrap_or_else(|| {
        eprintln!("unknown lint code `{raw}` (try --list)");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for c in LintCode::ALL {
            println!("{c}  {}", c.description());
        }
        return;
    }
    let mut codes: Vec<LintCode> = Vec::new();
    let mut allow: Vec<LintCode> = Vec::new();
    let mut seed: u64 = LintOptions::default().seed;
    let mut source_root: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--code" | "--deny" | "--allow" => {
                let flag = args[i].clone();
                i += 1;
                let raw = args.get(i).unwrap_or_else(|| {
                    eprintln!("{flag} needs an argument (MC001..MC007)");
                    std::process::exit(2);
                });
                let code = parse_code(raw);
                match flag.as_str() {
                    "--allow" => allow.push(code),
                    // `--deny` is the default for every code; accepting it
                    // explicitly keeps CI invocations forward-compatible.
                    "--deny" => allow.retain(|c| *c != code),
                    _ => codes.push(code),
                }
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer argument");
                    std::process::exit(2);
                });
            }
            "--source" => {
                // Optional ROOT operand: the next arg if it isn't a flag.
                let next = args.get(i + 1);
                if let Some(n) = next.filter(|n| !n.starts_with("--")) {
                    source_root = Some(n.clone());
                    i += 1;
                } else {
                    source_root = Some(".".to_string());
                }
            }
            "--bench-out" => {
                i += 1;
                bench_out = Some(
                    args.get(i)
                        .unwrap_or_else(|| {
                            eprintln!("--bench-out needs a path argument");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            "--quick" | "--json" => {}
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let started = std::time::Instant::now();
    let report = if let Some(root) = &source_root {
        let sr = analyze::run_source(&SourceOptions::new(root)).unwrap_or_else(|e| {
            eprintln!("mcfs-lint: source analysis failed: {e}");
            std::process::exit(2);
        });
        LintReport {
            checks_run: sr.files_scanned,
            source: sr.findings,
            ..LintReport::default()
        }
    } else {
        let opts = LintOptions {
            quick,
            seed,
            codes: if codes.is_empty() { None } else { Some(codes) },
        };
        run_registry(&opts)
    };
    let wall_ns = started.elapsed().as_nanos() as u64;

    if let Some(path) = &bench_out {
        let unsuppressed = report
            .source
            .iter()
            .filter(|f| f.suppressed.is_none())
            .count();
        let errors = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let mut out = BenchReport::new("lint", quick);
        out.params(
            Row::new()
                .str(
                    "mode",
                    if source_root.is_some() {
                        "source"
                    } else {
                        "dynamic"
                    },
                )
                .ms("wall", wall_ns)
                .count("checks_run", report.checks_run as u64)
                .count(
                    "findings",
                    (report.diagnostics.len() + report.source.len()) as u64,
                )
                .count("unsuppressed", unsuppressed as u64)
                .count("suppressed", (report.source.len() - unsuppressed) as u64)
                .count("dynamic_errors", errors as u64),
        );
        if let Err(e) = out.write(path) {
            eprintln!("mcfs-lint: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }

    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_sarif_json());
    } else {
        print!("{}", report.render_human());
    }

    let gating_dynamic = report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error && !allow.contains(&d.code));
    let gating_source =
        !allow.contains(&LintCode::Mc007) && report.source.iter().any(|f| f.suppressed.is_none());
    if gating_dynamic || gating_source {
        std::process::exit(1);
    }
}

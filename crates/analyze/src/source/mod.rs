//! Source-level replay-determinism analysis (`mcfs-lint --source`).
//!
//! The dynamic sanitizers (MC001–MC006) and the MC007 divergence check
//! prove that a *particular* bounded exploration was deterministic; this
//! module statically finds the places where nondeterminism *could* enter:
//! hash-container iteration feeding fingerprints or the pickle wire
//! format, wall-clock reads outside the virtual clock, `RandomState`,
//! raw thread spawns, pointer-identity hashing, and `enumerate()` slot
//! indices leaking into digests (the PR 6 inode-keyed residue-digest bug
//! class).
//!
//! Intentional uses stay auditable through suppressions:
//!
//! ```text
//! // mcfs-lint: allow(MC007, joins are deterministic barriers)
//! std::thread::scope(|s| { ... })
//! ```
//!
//! A suppression comment matches on the same line, the line directly
//! above, or (within a few lines) above the enclosing `fn` declaration to
//! cover the whole function. `// mcfs-lint: allow-file(MC007, reason)`
//! suppresses a whole file. Suppressed findings are still reported (and
//! land in SARIF `suppressions` records) — they just don't gate.

pub mod lexer;
pub mod taint;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lexer::Comment;
pub use taint::SourceKind;

/// Options for a source scan.
#[derive(Debug, Clone)]
pub struct SourceOptions {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Crate directory names under `crates/` to skip entirely. Defaults to
    /// the vendored dependency shims (whose internals we don't control)
    /// and `bench` (wall-clock timing is its job).
    pub skip_crates: Vec<String>,
}

impl SourceOptions {
    /// Default options rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        SourceOptions {
            root: root.into(),
            skip_crates: ["rand", "proptest", "parking_lot", "bench"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

/// A parsed `// mcfs-lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line of the comment.
    pub line: u32,
    /// Lint code the directive names (e.g. `MC007`).
    pub code: String,
    /// Free-form justification (may be empty, but shouldn't be).
    pub reason: String,
    /// Whether this is an `allow-file` directive.
    pub file_level: bool,
}

/// One source-analysis finding with suppression state resolved.
#[derive(Debug, Clone)]
pub struct SourceFinding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which source pattern fired.
    pub kind: SourceKind,
    /// Enclosing function (empty at module scope).
    pub func: String,
    /// Human-readable description.
    pub message: String,
    /// Justification from the matching suppression, if any.
    pub suppressed: Option<String>,
}

/// Result of scanning a workspace.
#[derive(Debug, Clone, Default)]
pub struct SourceReport {
    /// All findings, suppressed ones included, sorted by (file, line, kind).
    pub findings: Vec<SourceFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total suppression directives seen.
    pub suppressions_seen: usize,
}

impl SourceReport {
    /// Findings not covered by a suppression — these gate.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &SourceFinding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Whether any unsuppressed finding exists.
    pub fn has_findings(&self) -> bool {
        self.unsuppressed().next().is_some()
    }
}

/// Parses a suppression directive out of a comment, if present.
pub fn parse_suppression(c: &Comment) -> Option<Suppression> {
    let t = c.text.trim();
    let rest = t.strip_prefix("mcfs-lint:")?.trim_start();
    let (file_level, rest) = match rest.strip_prefix("allow-file(") {
        Some(r) => (true, r),
        None => (false, rest.strip_prefix("allow(")?),
    };
    let body = rest.split(')').next()?;
    let (code, reason) = match body.split_once(',') {
        Some((c, r)) => (c.trim(), r.trim()),
        None => (body.trim(), ""),
    };
    if code.is_empty() {
        return None;
    }
    Some(Suppression {
        line: c.line,
        code: code.to_ascii_uppercase(),
        reason: reason.to_string(),
        file_level,
    })
}

/// Scans one file's source text: taint findings with suppressions applied.
/// `rel` is the path recorded on findings. Returns the findings plus the
/// number of suppression directives seen.
pub fn scan_source(rel: &str, src: &str, code: &str) -> (Vec<SourceFinding>, usize) {
    let (toks, comments) = lexer::lex(src);
    let raw = taint::scan_tokens(&toks);
    let sups: Vec<Suppression> = comments.iter().filter_map(parse_suppression).collect();
    let findings = raw
        .into_iter()
        .map(|r| {
            let suppressed = sups
                .iter()
                .filter(|s| s.code == code)
                .find(|s| {
                    s.file_level
                        || s.line == r.line
                        || s.line + 1 == r.line
                        || (s.line <= r.fn_decl_line && s.line + 4 > r.fn_decl_line)
                })
                .map(|s| {
                    if s.reason.is_empty() {
                        "(no reason given)".to_string()
                    } else {
                        s.reason.clone()
                    }
                });
            SourceFinding {
                file: rel.to_string(),
                line: r.line,
                kind: r.kind,
                func: r.func,
                message: r.message,
                suppressed,
            }
        })
        .collect();
    (findings, sups.len())
}

/// Runs the analyzer over every first-party crate under `opts.root`.
pub fn run_source(opts: &SourceOptions) -> std::io::Result<SourceReport> {
    let mut files: BTreeSet<PathBuf> = BTreeSet::new();
    let root_src = opts.root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut files)?;
    }
    let crates_dir = opts.root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for krate in entries {
            let name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if opts.skip_crates.iter().any(|s| s == name) {
                continue;
            }
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    let mut report = SourceReport::default();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(&opts.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let (findings, sups) = scan_source(&rel, &src, "MC007");
        report.findings.extend(findings);
        report.suppressions_seen += sups;
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.kind).cmp(&(&b.file, b.line, b.kind)));
    Ok(report)
}

/// Recursively collects `.rs` files, skipping test/bench/example trees.
fn collect_rs_files(dir: &Path, out: &mut BTreeSet<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name, "tests" | "benches" | "examples") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.insert(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_parses_code_and_reason() {
        let c = Comment {
            line: 7,
            text: " mcfs-lint: allow(MC007, joins are deterministic)".to_string(),
        };
        let s = parse_suppression(&c).unwrap();
        assert_eq!(s.code, "MC007");
        assert_eq!(s.reason, "joins are deterministic");
        assert!(!s.file_level);
        assert_eq!(s.line, 7);
    }

    #[test]
    fn file_level_suppression_parses() {
        let c = Comment {
            line: 1,
            text: " mcfs-lint: allow-file(mc007, generated)".to_string(),
        };
        let s = parse_suppression(&c).unwrap();
        assert!(s.file_level);
        assert_eq!(s.code, "MC007");
    }

    #[test]
    fn ordinary_comments_are_not_suppressions() {
        for text in [
            " just a comment",
            " mcfs-lint: deny(MC007)",
            " allow(MC007)",
        ] {
            let c = Comment {
                line: 1,
                text: text.to_string(),
            };
            assert!(parse_suppression(&c).is_none(), "{text}");
        }
    }

    #[test]
    fn same_line_and_line_above_suppressions_apply() {
        let src = r#"
            fn digest(m: &HashMap<u64, u64>) -> u64 {
                let mut acc = 0;
                // mcfs-lint: allow(MC007, xor fold is order-insensitive)
                for (k, v) in m.iter() { acc ^= k ^ v; }
                acc
            }
        "#;
        let (findings, sups) = scan_source("x.rs", src, "MC007");
        assert_eq!(sups, 1);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].suppressed.is_some());
        assert_eq!(
            findings[0].suppressed.as_deref(),
            Some("xor fold is order-insensitive")
        );
    }

    #[test]
    fn fn_level_suppression_covers_whole_body() {
        let src = r#"
            // mcfs-lint: allow(MC007, audited: fold is commutative)
            fn digest(m: &HashMap<u64, u64>) -> u64 {
                let mut acc = 0;
                for (k, v) in m.iter() { acc ^= k ^ v; }
                acc
            }
        "#;
        let (findings, _) = scan_source("x.rs", src, "MC007");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].suppressed.is_some());
    }

    #[test]
    fn unrelated_code_suppression_does_not_apply() {
        let src = r#"
            fn digest(m: &HashMap<u64, u64>) -> u64 {
                let mut acc = 0;
                // mcfs-lint: allow(MC001, wrong code)
                for (k, v) in m.iter() { acc ^= k ^ v; }
                acc
            }
        "#;
        let (findings, _) = scan_source("x.rs", src, "MC007");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].suppressed.is_none());
    }

    #[test]
    fn file_level_suppression_covers_everything() {
        let src = r#"
            // mcfs-lint: allow-file(MC007, fixture)
            fn digest(m: &HashMap<u64, u64>) -> u64 {
                let t = Instant::now();
                let mut acc = 0;
                for (k, v) in m.iter() { acc ^= k ^ v; }
                acc
            }
        "#;
        let (findings, _) = scan_source("x.rs", src, "MC007");
        assert!(findings.len() >= 2);
        assert!(findings.iter().all(|f| f.suppressed.is_some()));
    }

    /// The workspace itself must lint clean: every remaining finding is an
    /// audited in-source suppression. This is the same gate CI runs via
    /// `mcfs-lint --source`, kept in tier-1 so a nondeterminism regression
    /// fails `cargo test` even before the lint job runs.
    #[test]
    fn workspace_is_clean_under_source_analysis() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let report = run_source(&SourceOptions::new(&root)).expect("workspace scan");
        assert!(report.files_scanned > 30, "scan found the workspace");
        let unsuppressed: Vec<_> = report.unsuppressed().collect();
        assert!(
            unsuppressed.is_empty(),
            "unsuppressed nondeterminism findings in the workspace: {unsuppressed:#?}"
        );
        assert!(
            report.findings.iter().any(|f| f.suppressed.is_some()),
            "the audited suppression baseline should be visible to the scan"
        );
    }
}

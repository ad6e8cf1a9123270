//! The lint registry's diagnostics: stable codes, severities, and human /
//! SARIF-style JSON rendering.

use std::fmt;

/// Stable diagnostic codes. Codes are append-only: a published code never
/// changes meaning, so CI gates and suppressions stay valid across
/// versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// Unsound independence: a pair the POR relation claims independent
    /// reached different abstract states under the two orders.
    Mc001,
    /// Abstraction aliasing: two states with equal visited-set fingerprints
    /// are observably distinct under a probe suite.
    Mc002,
    /// Errno-model divergence: the same op sequence yields different error
    /// codes on two backends.
    Mc003,
    /// Checkpoint/restore asymmetry: restoring a checkpoint does not
    /// reproduce the checkpointed state.
    Mc004,
    /// Repair non-convergence: fsck on a (possibly corrupted) volume does
    /// not reach a fixed point within two runs, or strictly loses
    /// reachable user data relative to what the corruption left intact.
    Mc005,
    /// Unsound *concurrency* independence: a pair the interleaving
    /// relation claims independent changes the reached state or either
    /// op's own observed result when the two-thread schedule is swapped.
    Mc006,
    /// Replay nondeterminism: ambient entropy (unordered iteration, wall
    /// clocks, `RandomState`, raw threads, pointer identity) can reach a
    /// fingerprint/wire sink (static taint finding), or two explorations
    /// under permuted worker/shard/seed configurations diverged in their
    /// visited sets or canonical snapshot bytes (dynamic finding).
    Mc007,
}

impl LintCode {
    /// All registered codes, in order.
    pub const ALL: [LintCode; 7] = [
        LintCode::Mc001,
        LintCode::Mc002,
        LintCode::Mc003,
        LintCode::Mc004,
        LintCode::Mc005,
        LintCode::Mc006,
        LintCode::Mc007,
    ];

    /// The stable identifier (`MC001` ...).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::Mc001 => "MC001",
            LintCode::Mc002 => "MC002",
            LintCode::Mc003 => "MC003",
            LintCode::Mc004 => "MC004",
            LintCode::Mc005 => "MC005",
            LintCode::Mc006 => "MC006",
            LintCode::Mc007 => "MC007",
        }
    }

    /// One-line rule description (SARIF `shortDescription`).
    pub fn description(self) -> &'static str {
        match self {
            LintCode::Mc001 => {
                "unsound independence: a claimed-independent op pair does not commute"
            }
            LintCode::Mc002 => {
                "abstraction aliasing: equal fingerprints, observably distinct states"
            }
            LintCode::Mc003 => "errno-model divergence across backends",
            LintCode::Mc004 => "checkpoint/restore asymmetry",
            LintCode::Mc005 => {
                "repair non-convergence: fsck is not a two-run fixed point or loses reachable data"
            }
            LintCode::Mc006 => {
                "unsound concurrency independence: swapping a claimed-independent \
                 two-thread schedule changes the state or an observed result"
            }
            LintCode::Mc007 => {
                "replay nondeterminism: ambient entropy reaches a fingerprint/wire \
                 sink, or permuted-config explorations diverge"
            }
        }
    }

    /// Parses `MC001`-style identifiers (case-insensitive).
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity, in decreasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A soundness hole: exploration results cannot be trusted.
    Error,
    /// Suspicious but possibly benign (e.g. a known model divergence).
    Warning,
    /// Informational (e.g. a check was skipped for a backend).
    Note,
}

impl Severity {
    /// SARIF `level` value.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One finding, with enough context to replay it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule code.
    pub code: LintCode,
    /// Severity.
    pub severity: Severity,
    /// Backend (or backend pair) the finding was observed on.
    pub backend: String,
    /// Human-readable description of the finding.
    pub message: String,
    /// Replayable op sequence (rendered with [`std::fmt::Display`]) that
    /// reproduces the finding from a fresh file system.
    pub replay: Vec<String>,
}

/// The result of a registry run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
    /// Source-analysis findings (`--source`), suppressed ones included.
    pub source: Vec<crate::source::SourceFinding>,
    /// Number of individual checks executed (code × backend).
    pub checks_run: usize,
    /// Backends the registry exercised.
    pub backends: Vec<String>,
}

impl LintReport {
    /// Whether any finding is [`Severity::Error`] or any source finding is
    /// unsuppressed.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
            || self.source.iter().any(|f| f.suppressed.is_none())
    }

    /// Terminal rendering: one block per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}] {}: {}\n",
                match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                    Severity::Note => "note",
                },
                d.code,
                d.backend,
                d.message
            ));
            if !d.replay.is_empty() {
                out.push_str("  replay:\n");
                for op in &d.replay {
                    out.push_str(&format!("    {op}\n"));
                }
            }
        }
        for f in &self.source {
            match &f.suppressed {
                Some(reason) => out.push_str(&format!(
                    "note[MC007] {}:{}: {} (suppressed: {reason})\n",
                    f.file, f.line, f.message
                )),
                None => out.push_str(&format!(
                    "error[MC007] {}:{}: {}\n",
                    f.file, f.line, f.message
                )),
            }
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
            + self
                .source
                .iter()
                .filter(|f| f.suppressed.is_none())
                .count();
        out.push_str(&format!(
            "{} check(s) on {} backend(s): {} finding(s), {} error(s)\n",
            self.checks_run,
            self.backends.len(),
            self.diagnostics.len() + self.source.len(),
            errors
        ));
        out
    }

    /// SARIF-style JSON (schema subset: tool driver with rules, results
    /// with ruleId/level/message, replay under `properties`, source
    /// findings with `locations` and in-source `suppressions` records).
    pub fn to_sarif_json(&self) -> String {
        let mut rules = String::new();
        for (i, c) in LintCode::ALL.iter().enumerate() {
            if i > 0 {
                rules.push(',');
            }
            rules.push_str(&format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                c,
                json_escape(c.description())
            ));
        }
        let mut results = String::new();
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            let mut replay = String::new();
            for (j, op) in d.replay.iter().enumerate() {
                if j > 0 {
                    replay.push(',');
                }
                replay.push_str(&format!("\"{}\"", json_escape(op)));
            }
            results.push_str(&format!(
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\
                 \"properties\":{{\"backend\":\"{}\",\"replay\":[{}]}}}}",
                d.code,
                d.severity.sarif_level(),
                json_escape(&d.message),
                json_escape(&d.backend),
                replay
            ));
        }
        for f in &self.source {
            if !results.is_empty() {
                results.push(',');
            }
            let suppressions = match &f.suppressed {
                Some(reason) => format!(
                    ",\"suppressions\":[{{\"kind\":\"inSource\",\
                     \"justification\":\"{}\"}}]",
                    json_escape(reason)
                ),
                None => String::new(),
            };
            results.push_str(&format!(
                "{{\"ruleId\":\"MC007\",\"level\":\"{}\",\
                 \"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\
                 \"artifactLocation\":{{\"uri\":\"{}\"}},\
                 \"region\":{{\"startLine\":{}}}}}}}],\
                 \"properties\":{{\"kind\":\"{}\",\"function\":\"{}\"}}{}}}",
                if f.suppressed.is_some() {
                    "note"
                } else {
                    "error"
                },
                json_escape(&f.message),
                json_escape(&f.file),
                f.line,
                f.kind.as_str(),
                json_escape(&f.func),
                suppressions
            ));
        }
        format!(
            "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":\
             {{\"name\":\"mcfs-lint\",\"rules\":[{rules}]}}}},\
             \"results\":[{results}]}}]}}"
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_are_stable() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.as_str()), Some(c));
        }
        assert_eq!(LintCode::parse("mc002"), Some(LintCode::Mc002));
        assert_eq!(LintCode::parse("MC999"), None);
    }

    #[test]
    fn sarif_json_is_escaped_and_structured() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                code: LintCode::Mc001,
                severity: Severity::Error,
                backend: "verifs-v2".into(),
                message: "pair \"a\" vs b\ndiverged".into(),
                replay: vec!["create_file(/f0, 0644)".into()],
            }],
            source: Vec::new(),
            checks_run: 1,
            backends: vec!["verifs-v2".into()],
        };
        let json = report.to_sarif_json();
        assert!(json.contains("\"ruleId\":\"MC001\""));
        assert!(json.contains("\\\"a\\\""), "quotes escaped: {json}");
        assert!(json.contains("\\n"), "newlines escaped");
        assert!(json.contains("\"level\":\"error\""));
        assert!(report.has_errors());
    }

    /// Pins the SARIF surface CI and editors consume: schema/version
    /// fields, the full MC001–MC007 rule catalogue, source-finding
    /// locations, and in-source suppression records.
    #[test]
    fn sarif_snapshot_covers_rules_locations_and_suppressions() {
        let report = LintReport {
            diagnostics: Vec::new(),
            source: vec![
                crate::source::SourceFinding {
                    file: "crates/x/src/lib.rs".into(),
                    line: 12,
                    kind: crate::source::SourceKind::UnorderedIter,
                    func: "digest".into(),
                    message: "iterates a hash container".into(),
                    suppressed: None,
                },
                crate::source::SourceFinding {
                    file: "crates/x/src/lib.rs".into(),
                    line: 40,
                    kind: crate::source::SourceKind::ThreadSpawn,
                    func: "run".into(),
                    message: "raw thread spawn".into(),
                    suppressed: Some("joins in worker order".into()),
                },
            ],
            checks_run: 1,
            backends: Vec::new(),
        };
        let json = report.to_sarif_json();
        assert!(json.contains("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(json.contains("\"version\":\"2.1.0\""));
        for code in LintCode::ALL {
            assert!(
                json.contains(&format!("\"id\":\"{code}\"")),
                "rule {code} missing from catalogue"
            );
        }
        assert!(json.contains("\"ruleId\":\"MC007\""));
        assert!(json.contains(
            "\"artifactLocation\":{\"uri\":\"crates/x/src/lib.rs\"},\
             \"region\":{\"startLine\":12}"
        ));
        assert!(json.contains("\"kind\":\"unordered-iter\""));
        // The unsuppressed finding gates; the suppressed one is a note
        // carrying its justification.
        assert!(json.contains("\"level\":\"error\""));
        assert!(json.contains(
            "\"suppressions\":[{\"kind\":\"inSource\",\
             \"justification\":\"joins in worker order\"}]"
        ));
        assert!(json.contains("\"level\":\"note\""));
        assert!(report.has_errors(), "unsuppressed source finding gates");
    }

    #[test]
    fn suppressed_only_report_does_not_gate() {
        let report = LintReport {
            diagnostics: Vec::new(),
            source: vec![crate::source::SourceFinding {
                file: "a.rs".into(),
                line: 1,
                kind: crate::source::SourceKind::AmbientTime,
                func: "f".into(),
                message: "m".into(),
                suppressed: Some("audited".into()),
            }],
            checks_run: 1,
            backends: Vec::new(),
        };
        assert!(!report.has_errors());
        let text = report.render_human();
        assert!(text.contains("suppressed: audited"), "{text}");
    }

    #[test]
    fn human_rendering_includes_replay_and_summary() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                code: LintCode::Mc004,
                severity: Severity::Warning,
                backend: "ext2".into(),
                message: "asymmetry".into(),
                replay: vec!["truncate(/f0, 10)".into()],
            }],
            source: Vec::new(),
            checks_run: 3,
            backends: vec!["ext2".into()],
        };
        let text = report.render_human();
        assert!(text.contains("warning[MC004] ext2"));
        assert!(text.contains("truncate(/f0, 10)"));
        assert!(text.contains("3 check(s)"));
        assert!(!report.has_errors());
    }
}

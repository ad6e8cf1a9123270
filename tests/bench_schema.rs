//! Every committed `BENCH_<name>.json` follows the one bench-report schema
//! (`mcfs_bench::BenchReport`): it opens with `"bench": "<name>"` and
//! `"quick"`, rates end in `_per_s`, and virtual time is `virtual_ms`.

use std::path::Path;

/// The benches whose reports are committed: one per bench binary.
const BENCHES: [&str; 16] = [
    "ablation",
    "bug_detection",
    "crash",
    "false_positives",
    "fig2",
    "fig3",
    "fsck",
    "hash",
    "interleave",
    "lint",
    "oocore",
    "remount",
    "shrink",
    "snapshot",
    "soak",
    "swarm",
];

fn committed_reports() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut reports: Vec<(String, String)> = std::fs::read_dir(root)
        .expect("repository root")
        .filter_map(|entry| {
            let name = entry.expect("directory entry").file_name();
            let name = name.to_str()?;
            let bench = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            let text = std::fs::read_to_string(root.join(name)).expect("readable report");
            Some((bench.to_string(), text))
        })
        .collect();
    reports.sort();
    reports
}

#[test]
fn every_bench_binary_has_a_committed_report() {
    let names: Vec<String> = committed_reports().into_iter().map(|(b, _)| b).collect();
    assert_eq!(names, BENCHES);
}

#[test]
fn committed_reports_open_with_their_bench_name_and_mode() {
    for (bench, text) in committed_reports() {
        let head = format!("{{\n  \"bench\": \"{bench}\",\n  \"quick\": ");
        assert!(
            text.starts_with(&head),
            "BENCH_{bench}.json must open with {head:?}"
        );
    }
}

#[test]
fn committed_reports_use_one_unit_vocabulary() {
    for (bench, text) in committed_reports() {
        for old in ["_per_sec\"", "\"virtual_ns\""] {
            assert!(
                !text.contains(old),
                "BENCH_{bench}.json has a {old} key: rates end in _per_s, \
                 virtual time is virtual_ms"
            );
        }
    }
}

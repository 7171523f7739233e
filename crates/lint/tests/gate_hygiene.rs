//! The gate's self-checks: a `--rules` subset scan reports only its rules,
//! dead suppressions fail the build, and stale baseline entries fail the
//! build. Each test scans a tiny synthetic workspace under
//! `CARGO_TARGET_TMPDIR`.

use adas_lint::{scan_workspace_with, Baseline, Rule, ScanOptions, Severity};
use std::fs;
use std::path::PathBuf;

/// Creates a fresh workspace directory named after the calling test.
fn temp_ws(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/openadas/src")).expect("mkdir");
    dir
}

#[test]
fn subset_scans_report_only_their_rules() {
    let ws = temp_ws("subset_scans");
    fs::create_dir_all(ws.join("crates/platform/src")).expect("mkdir");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "fn helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\npub fn fine() {}\n",
    )
    .expect("write");
    fs::write(
        ws.join("crates/platform/src/lib.rs"),
        "pub static mut TICKS: u64 = 0;\n\
         pub struct Harness { buf: Vec<u64> }\n\
         impl Harness {\n\
             pub fn step(&mut self) { self.buf.push(1); }\n\
         }\n",
    )
    .expect("write");

    let subset = ScanOptions {
        rules: vec![Rule::UnitSafety],
    };
    let narrow = scan_workspace_with(&ws, None, &subset).expect("subset scan");
    assert!(
        narrow.active.iter().all(|d| d.rule == Rule::UnitSafety),
        "a subset scan reports only the requested rules: {:?}",
        narrow.active
    );

    let full = scan_workspace_with(&ws, None, &ScanOptions::default()).expect("full scan");
    for (rule, what) in [
        (Rule::PanicFreedom, "the planted unwrap"),
        (Rule::SharedStateDeterminism, "the planted static mut"),
        (Rule::AllocFreedom, "the planted hot-path push"),
    ] {
        assert!(
            full.active.iter().any(|d| d.rule == rule),
            "a full scan finds {what}: {:?}",
            full.active
        );
    }
}

#[test]
fn dead_suppression_fails_the_gate_as_a_warning() {
    let ws = temp_ws("dead_suppression");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "// adas-lint: allow(R2, reason = \"the unwrap this excused was removed\")\npub fn fine() {}\n",
    )
    .expect("write");

    let report = scan_workspace_with(&ws, None, &ScanOptions::default()).expect("scan");
    assert!(report.active.is_empty(), "{:?}", report.active);
    assert_eq!(report.dead_suppressions.len(), 1, "{:?}", report.dead_suppressions);
    let d = &report.dead_suppressions[0];
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 2, "a standalone allow is anchored at the line it applies to");
    assert!(d.message.contains("dead suppression"), "{d:?}");
    assert!(!report.is_clean(), "a dead allow must fail the gate");

    // A suppression that absorbs its finding is counted, not reported.
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "// adas-lint: allow(R2, reason = \"bounded by construction\")\nfn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )
    .expect("write");
    let report = scan_workspace_with(&ws, None, &ScanOptions::default()).expect("scan");
    assert!(report.dead_suppressions.is_empty(), "{:?}", report.dead_suppressions);
    assert_eq!(report.suppressed, 1);
    assert!(report.is_clean());
}

#[test]
fn stale_baseline_entry_fails_the_gate() {
    let ws = temp_ws("stale_baseline");
    fs::write(ws.join("crates/openadas/src/lib.rs"), "pub fn fine() {}\n").expect("write");

    let baseline = Baseline::parse(
        "R2\tcrates/openadas/src/lib.rs\tlet gone = removed.unwrap();\n",
    )
    .expect("baseline parses");
    let report = scan_workspace_with(&ws, Some(baseline), &ScanOptions::default()).expect("scan");
    assert!(report.active.is_empty(), "{:?}", report.active);
    assert_eq!(report.unused_baseline.len(), 1, "{:?}", report.unused_baseline);
    assert!(
        !report.is_clean(),
        "a baseline entry whose site is gone must fail until it is removed"
    );
}

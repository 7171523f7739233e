//! The gate's self-checks: the facts cache may change wall-time but never
//! results, dead suppressions fail the build, and stale baseline entries
//! fail the build. Each test scans a tiny synthetic workspace under
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

fn opts(cache_dir: Option<PathBuf>, use_cache: bool) -> ScanOptions {
    ScanOptions {
        use_cache,
        cache_dir,
        ..ScanOptions::default()
    }
}

#[test]
fn cache_changes_wall_time_never_results() {
    let ws = temp_ws("cache_equivalence");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "fn helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\npub fn fine() {}\n",
    )
    .expect("write");
    let cache = ws.join("lint-cache");

    let cold = scan_workspace_with(&ws, None, &opts(Some(cache.clone()), true)).expect("cold");
    let warm = scan_workspace_with(&ws, None, &opts(Some(cache.clone()), true)).expect("warm");
    let uncached = scan_workspace_with(&ws, None, &opts(None, false)).expect("uncached");

    assert_eq!(cold.cache_hits, 0, "first scan populates the cache");
    assert_eq!(warm.cache_hits, warm.files_scanned, "second scan hits it");
    assert_eq!(uncached.cache_hits, 0);

    let render = |r: &adas_lint::ScanReport| -> Vec<String> {
        r.active.iter().map(|d| d.render_human()).collect()
    };
    assert_eq!(render(&cold), render(&warm), "cache must not change results");
    assert_eq!(render(&cold), render(&uncached));
    assert!(
        cold.active.iter().any(|d| d.rule == Rule::PanicFreedom),
        "the planted unwrap is found either way: {:?}",
        cold.active
    );
}

#[test]
fn editing_a_file_invalidates_only_its_entry() {
    let ws = temp_ws("cache_invalidation");
    let lib = ws.join("crates/openadas/src/lib.rs");
    let other = ws.join("crates/openadas/src/steady.rs");
    fs::write(&lib, "fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n").expect("write");
    fs::write(&other, "pub fn untouched() {}\n").expect("write");
    let cache = ws.join("lint-cache");
    let o = opts(Some(cache), true);

    let first = scan_workspace_with(&ws, None, &o).expect("scan");
    assert_eq!(first.active.len(), 1, "{:?}", first.active);

    // Fix the violation; only the edited file recomputes.
    fs::write(&lib, "fn f(v: Option<u8>) -> u8 {\n    v.unwrap_or(0)\n}\n").expect("write");
    let second = scan_workspace_with(&ws, None, &o).expect("scan");
    assert!(second.active.is_empty(), "{:?}", second.active);
    assert_eq!(
        second.cache_hits,
        second.files_scanned - 1,
        "the unchanged file stays cached"
    );
}

#[test]
fn cache_entries_are_keyed_by_rule_set() {
    // Regression test: cached per-file facts are filtered to the active rule
    // set before they are stored, so a cache populated by a subset scan must
    // never satisfy a full scan. The scan key folds the rule-set fingerprint
    // into the content hash; a shared cache dir therefore keeps the scans
    // independent.
    let ws = temp_ws("cache_rule_set_key");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "fn helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\npub fn fine() {}\n",
    )
    .expect("write");
    let cache = ws.join("lint-cache");

    // Populate the cache with a scan that does NOT run R2 (panic-freedom).
    let subset = ScanOptions {
        rules: vec![Rule::UnitSafety],
        ..opts(Some(cache.clone()), true)
    };
    let narrow = scan_workspace_with(&ws, None, &subset).expect("subset scan");
    assert!(
        narrow.active.iter().all(|d| d.rule == Rule::UnitSafety),
        "subset scan must only report requested rules: {:?}",
        narrow.active
    );

    // A full scan over the same cache dir must still see the unwrap: its
    // scan key differs, so the narrow entry cannot be (wrongly) reused.
    let full = scan_workspace_with(&ws, None, &opts(Some(cache), true)).expect("full scan");
    assert_eq!(full.cache_hits, 0, "full scan must not reuse subset entries");
    assert!(
        full.active.iter().any(|d| d.rule == Rule::PanicFreedom),
        "the planted unwrap must survive a warm subset cache: {:?}",
        full.active
    );
}

#[test]
fn concurrency_facts_are_part_of_the_scan_key() {
    // Same regression for the concurrency layer: a subset scan that skips
    // R12–R14 has no reason to store lock events or allocation facts, so
    // its entries must never satisfy a scan that needs them. The rule-set
    // fingerprint folds the R12–R14 tables into the scan key, which keeps
    // the two caches disjoint.
    let ws = temp_ws("cache_concurrency_key");
    fs::create_dir_all(ws.join("crates/platform/src")).expect("mkdir");
    fs::write(
        ws.join("crates/platform/src/lib.rs"),
        "pub static mut TICKS: u64 = 0;\n\
         pub struct Harness { buf: Vec<u64> }\n\
         impl Harness {\n\
             pub fn step(&mut self) { self.buf.push(1); }\n\
         }\n",
    )
    .expect("write");
    let cache = ws.join("lint-cache");

    // Populate the cache with a scan that runs none of R12–R14.
    let subset = ScanOptions {
        rules: vec![Rule::UnitSafety],
        ..opts(Some(cache.clone()), true)
    };
    let narrow = scan_workspace_with(&ws, None, &subset).expect("subset scan");
    assert!(
        narrow.active.is_empty(),
        "the planted violations are invisible to the subset: {:?}",
        narrow.active
    );

    // The full scan must recompute and see both planted violations.
    let full = scan_workspace_with(&ws, None, &opts(Some(cache), true)).expect("full scan");
    assert_eq!(full.cache_hits, 0, "full scan must not reuse subset entries");
    assert!(
        full.active.iter().any(|d| d.rule == Rule::SharedStateDeterminism),
        "the planted static mut must survive a warm subset cache: {:?}",
        full.active
    );
    assert!(
        full.active.iter().any(|d| d.rule == Rule::AllocFreedom),
        "the planted hot-path allocation must survive a warm subset cache: {:?}",
        full.active
    );
}

#[test]
fn dead_suppression_fails_the_gate_as_a_warning() {
    let ws = temp_ws("dead_suppression");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "// adas-lint: allow(R2, reason = \"the unwrap this excused was removed\")\npub fn fine() {}\n",
    )
    .expect("write");

    let report = scan_workspace_with(&ws, None, &opts(None, false)).expect("scan");
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
    let report = scan_workspace_with(&ws, None, &opts(None, false)).expect("scan");
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
    let report = scan_workspace_with(&ws, Some(baseline), &opts(None, false)).expect("scan");
    assert!(report.active.is_empty(), "{:?}", report.active);
    assert_eq!(report.unused_baseline.len(), 1, "{:?}", report.unused_baseline);
    assert!(
        !report.is_clean(),
        "a baseline entry whose site is gone must fail until it is removed"
    );
}

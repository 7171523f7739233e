//! `adas-lint` — workspace-native safety-invariant static analysis.
//!
//! The paper this workspace reproduces (Zhou et al., DSN 2022) shows that
//! ADAS attacks succeed precisely by keeping corrupted values *inside* the
//! safety-check envelope, so the reproduction's own safety layer, unit
//! handling, and determinism guarantees are machine-checked rather than
//! convention-checked. Fourteen rules run over every workspace `.rs` file:
//!
//! | Rule | Name                  | Invariant                                            |
//! |------|-----------------------|------------------------------------------------------|
//! | R1   | `unit-safety`         | public APIs use `units::` newtypes, not raw `f64`    |
//! | R2   | `panic-freedom`       | no `unwrap`/`expect`/`panic!`/indexing in safety path|
//! | R3   | `actuator-containment`| actuator command writes only in designated modules   |
//! | R4   | `float-hygiene`       | no float `==`, no NaN-unchecked `partial_cmp`        |
//! | R5   | `determinism`         | no wall clock / entropy RNGs outside the bench rig   |
//! | R6   | `taint-flow`          | attack values clamped at birth, sinks only via the   |
//! |      |                       | `Injector` choke point, no ADAS→attack back-flow     |
//! | R7   | `transitive-panic`    | no call path from `Harness::step` reaches a panic    |
//! | R8   | `enum-exhaustiveness` | no `_ =>` arms over safety-critical enums            |
//! | R9   | `envelope-soundness`  | values at actuator encode sinks provably inside the  |
//! |      |                       | physical limits (interval abstract interpretation)   |
//! | R10  | `threshold-consistency`| gate/IDS/escalation constants mutually consistent,  |
//! |      |                       | config constructors reproduce them bit-for-bit       |
//! | R11  | `clamp-hygiene`       | no inverted/dead clamps, no NaN reaching actuation   |
//! | R12  | `lock-discipline`     | acyclic lock order, no guards across pool boundaries,|
//! |      |                       | condvar waits in predicate loops, poisoning policy   |
//! | R13  | `alloc-freedom`       | steady-state tick roots reach no allocating std API  |
//! | R14  | `shared-state-determinism` | no `static mut`, no env-latching `OnceLock`,    |
//! |      |                       | campaign merges by index, never completion order     |
//!
//! The analysis is layered: the **lexical** layer (R1–R5, R8) runs over
//! masked lines; the **taint/callgraph** layer (R6/R7) over a parsed
//! symbol table and cross-file call graph ([`parser`], [`symbols`],
//! [`callgraph`], [`taint`]); the **numeric** layer (R9–R11) does interval
//! abstract interpretation over a lowered IR ([`ir`], [`interval`],
//! [`absint`]); and the **concurrency/alloc** layer (R12–R14) builds a
//! lock-order graph and a may-allocate closure over the same call graph
//! ([`locks`], [`allocpath`]). Every scan is a fresh scan: each file is
//! tokenized and parsed once, in parallel across cores, and nothing is
//! carried over from an earlier run.
//!
//! Findings can be acknowledged two ways: an inline
//! `// adas-lint: allow(<rule>, reason = "…")` comment for sites that are
//! correct by construction, or the checked-in `lint-baseline.txt` for
//! grandfathered code. Both are themselves checked: a suppression that
//! absorbs nothing and a baseline entry whose site is gone each fail the
//! gate. The `tests/lint_clean.rs` integration test runs the scan under
//! `cargo test`.

#![forbid(unsafe_code)]
#![deny(clippy::float_cmp)]

pub mod absint;
pub mod allocpath;
pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod interval;
pub mod ir;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod scope;
pub mod symbols;
pub mod taint;
pub mod tokenizer;

pub use baseline::{Baseline, BaselineEntry};
pub use diag::{Diagnostic, Rule, Severity, ALL_RULES};
pub use scope::{classify, FileInfo, FileKind};

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use platform::experiment::RunnerConfig;

/// Directories never scanned: build output, vendored dep shims (not our
/// code), VCS internals, and the lint's own deliberately-violating test
/// fixtures.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", ".github", "fixtures"];

/// Knobs for a workspace scan.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Active rules; findings for other rules are not computed or
    /// reported.
    pub rules: Vec<Rule>,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            rules: ALL_RULES.to_vec(),
        }
    }
}

impl ScanOptions {
    /// Whether every rule is active (subset scans skip the dead-suppression
    /// and stale-baseline checks, which only a full scan can judge).
    fn full_rule_set(&self) -> bool {
        ALL_RULES.iter().all(|r| self.rules.contains(r))
    }

    fn semantic_active(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r,
                Rule::EnvelopeSoundness | Rule::ThresholdConsistency | Rule::ClampHygiene
            )
        })
    }

    fn concurrency_active(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r,
                Rule::LockDiscipline | Rule::AllocFreedom | Rule::SharedStateDeterminism
            )
        })
    }
}

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Error findings that survived inline suppressions and the baseline.
    pub active: Vec<Diagnostic>,
    /// Findings absorbed by the baseline file.
    pub baselined: usize,
    /// Findings absorbed by inline `allow` comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Baseline entries that matched nothing (stale).
    pub unused_baseline: Vec<BaselineEntry>,
    /// Inline suppressions that absorbed nothing (dead), as warnings.
    pub dead_suppressions: Vec<Diagnostic>,
    /// GraphViz rendering of the R12 lock-order graph (empty when the
    /// concurrency layer did not run).
    pub lock_order_dot: String,
}

impl ScanReport {
    /// Whether the scan should gate the build: any active finding, dead
    /// suppression, or stale baseline entry fails.
    pub fn is_clean(&self) -> bool {
        self.active.is_empty() && self.dead_suppressions.is_empty() && self.unused_baseline.is_empty()
    }
}

/// Scans one source text as if it lived at `rel_path`. Per-file rules only
/// (R1–R5, R8); inline suppressions are honored, no baseline. This is the
/// entry point single-file tests use to prove rules fire.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let info = classify(rel_path);
    let file = tokenizer::tokenize(source);
    let facts = parser::parse(&file);
    let mut out = rules::local_rules(&info, &file, &facts);
    out.retain(|d| !file.is_suppressed(d.line, d.rule));
    out
}

/// Scans an in-memory multi-file set through the same pipeline as
/// [`scan_workspace_with`], with every rule active, the permissive crate
/// closure (every crate sees every other — there are no manifests to
/// consult), and no baseline. Returns the active findings: inline
/// suppressions are honored, and dead suppressions are not reported. This
/// is how the fixture tests drive the workspace rules without a workspace
/// on disk.
pub fn scan_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let texts = sources
        .iter()
        .map(|(rel, text)| (rel.to_string(), text.to_string()))
        .collect();
    scan_texts(texts, None, None, &ScanOptions::default()).active
}

/// Collects every scannable `.rs` file under `root`, workspace-relative,
/// sorted for deterministic output.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans the whole workspace with every rule active.
pub fn scan_workspace(root: &Path, baseline: Option<Baseline>) -> io::Result<ScanReport> {
    scan_workspace_with(root, baseline, &ScanOptions::default())
}

/// Scans the whole workspace: reads every file [`collect_files`] finds,
/// resolves each crate's dependency closure from the manifests, and runs
/// the scan pipeline over them.
pub fn scan_workspace_with(
    root: &Path,
    baseline: Option<Baseline>,
    opts: &ScanOptions,
) -> io::Result<ScanReport> {
    let texts = collect_files(root)?
        .into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel))?;
            Ok((rel, source))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let deps = symbols::workspace_deps(root);
    Ok(scan_texts(texts, Some(&deps), baseline, opts))
}

/// The scan pipeline over `(workspace-relative path, source)` pairs:
/// per-file rules in parallel, then the cross-file analyses over the
/// merged facts, then suppression/baseline resolution with dead-entry
/// detection. `deps` is each crate's dependency closure; `None` lets every
/// crate see every other.
fn scan_texts(
    texts: Vec<(String, String)>,
    deps: Option<&HashMap<String, Vec<String>>>,
    mut baseline: Option<Baseline>,
    opts: &ScanOptions,
) -> ScanReport {
    let sem_active = opts.semantic_active();

    // Phase 1: per-file analysis — tokenize/parse/local rules, plus the
    // semantic IR lowering over the same tokens. Pure per-file work, so it
    // fans out. The pool's jobs are `'static`, so the closure owns its
    // inputs.
    type PerFile = (FileInfo, rules::FileAnalysis, Option<absint::SemFile>);
    let n = texts.len();
    let texts: Arc<[(String, String)]> = texts.into();
    let active = opts.rules.clone();
    let analyze = move |i: usize| -> PerFile {
        let (rel, source) = &texts[i];
        let info = classify(rel);
        let (mut a, src) = rules::analyze_file(&info, source);
        a.raw_diags.retain(|d| active.contains(&d.rule));
        let sem = (sem_active && scope::needs_ir(&info)).then(|| {
            absint::SemFile::new(
                rel.clone(),
                src,
                scope::r9_applies(&info),
                scope::r11_applies(&info),
            )
        });
        (info, a, sem)
    };
    let workers = RunnerConfig::default().worker_count(n);
    let results: Vec<PerFile> = platform::pool::run_indexed(workers, n, analyze);

    let mut report = ScanReport {
        files_scanned: n,
        ..ScanReport::default()
    };
    let mut files: Vec<(FileInfo, parser::FileFacts)> = Vec::with_capacity(n);
    let mut analyses: Vec<rules::FileAnalysis> = Vec::with_capacity(n);
    let mut semfiles: Vec<absint::SemFile> = Vec::new();
    for (info, mut a, sem) in results {
        files.push((info, std::mem::take(&mut a.facts)));
        analyses.push(a);
        semfiles.extend(sem);
    }

    // Phase 2: workspace rules over the merged facts.
    let table = symbols::SymbolTable::build(&files, deps);
    let graph = callgraph::CallGraph::build(&files, &table);
    let mut workspace_diags = taint::r6_taint_flow(&table, &graph);
    workspace_diags.extend(callgraph::r7_transitive_panic_freedom(&table, &graph));
    if sem_active {
        workspace_diags.extend(absint::semantic_rules(&semfiles));
    }
    if opts.concurrency_active() {
        let (conc, lock_graph) = locks::concurrency_rules(&files, &table, &graph);
        workspace_diags.extend(conc);
        workspace_diags.extend(allocpath::r13_alloc_freedom(&files, &table, &graph));
        report.lock_order_dot = lock_graph.to_dot();
    }
    workspace_diags.retain(|d| opts.rules.contains(&d.rule));

    // Phase 3: suppression and baseline resolution, tracking which
    // suppressions actually earned their keep.
    let mut sites: Vec<(String, rules::SuppressionSite, bool)> = Vec::new();
    let mut sites_by_file: HashMap<&str, Vec<usize>> = HashMap::new();
    for ((info, _), a) in files.iter().zip(&analyses) {
        for s in &a.suppressions {
            sites_by_file
                .entry(info.rel.as_str())
                .or_default()
                .push(sites.len());
            sites.push((info.rel.clone(), s.clone(), false));
        }
    }

    let mut candidates: Vec<Diagnostic> = analyses
        .into_iter()
        .flat_map(|a| a.raw_diags)
        .collect();
    candidates.extend(workspace_diags);
    for d in candidates {
        let mut absorbed = false;
        if let Some(idxs) = sites_by_file.get(d.file.as_str()) {
            for &i in idxs {
                let (_, site, used) = &mut sites[i];
                if site.line == d.line && (site.rules.is_empty() || site.rules.contains(&d.rule)) {
                    *used = true;
                    absorbed = true;
                    break;
                }
            }
        }
        if absorbed {
            report.suppressed += 1;
        } else if baseline.as_mut().is_some_and(|b| b.matches(&d)) {
            report.baselined += 1;
        } else {
            report.active.push(d);
        }
    }

    // Only a full scan can call a suppression dead or a baseline entry
    // stale: under `--rules` subsets, a finding the entry absorbs may
    // simply not have been computed this run.
    let full = opts.full_rule_set();
    for (file, site, used) in sites {
        if used || !full {
            continue;
        }
        let claimed = if site.rules.is_empty() {
            "all rules".to_string()
        } else {
            site.rules
                .iter()
                .map(|r| r.id())
                .collect::<Vec<_>>()
                .join(", ")
        };
        report.dead_suppressions.push(Diagnostic {
            // A blanket allow has no single rule to attribute; R2 is the
            // rule suppressions most commonly excuse.
            rule: site.rules.first().copied().unwrap_or(Rule::PanicFreedom),
            severity: Severity::Warning,
            file,
            line: site.line,
            snippet: format!("adas-lint: allow({claimed})"),
            message: format!(
                "dead suppression: the inline allow for {claimed} absorbs no \
                 finding — the code it excused is gone; remove the comment"
            ),
        });
    }

    if let Some(b) = baseline {
        if full {
            report.unused_baseline = b.unused();
        }
    }
    report
        .active
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .dead_suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Default baseline location: `lint-baseline.txt` at the workspace root.
pub fn default_baseline_path(root: &Path) -> PathBuf {
    root.join("lint-baseline.txt")
}

/// Loads the baseline at `path`; a missing file is an empty baseline.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    match fs::read_to_string(path) {
        Ok(text) => Baseline::parse(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Locates the workspace root from the lint crate's own manifest dir —
/// used by the integration tests so `cargo test` works from any directory.
pub fn workspace_root_from_manifest(manifest_dir: &str) -> PathBuf {
    Path::new(manifest_dir)
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_source_fires_on_injected_violation() {
        let d = scan_source(
            "crates/openadas/src/injected.rs",
            "pub fn set(&mut self, speed: f64) { self.v.unwrap(); }\n",
        );
        assert!(d.iter().any(|d| d.rule == Rule::UnitSafety));
        assert!(d.iter().any(|d| d.rule == Rule::PanicFreedom));
    }

    #[test]
    fn scan_sources_runs_cross_file_rules() {
        let d = scan_sources(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { helper(); } }\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn helper() { danger(); }\npub fn danger() { panic!(\"boom\"); }\n",
            ),
        ]);
        assert!(
            d.iter().any(|d| d.rule == Rule::TransitivePanic
                && d.message.contains("Harness::step → helper → danger")),
            "{d:?}"
        );
    }

    #[test]
    fn workspace_root_resolution() {
        let root = workspace_root_from_manifest("/a/b/crates/lint");
        assert_eq!(root, Path::new("/a/b"));
    }
}

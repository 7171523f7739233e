//! The repository benchmark: three workloads through the production entry
//! points, end-to-end metrics from untraced runs, and per-layer metrics
//! from a separate traced run. See `perfbench/README.md`.

pub mod daemon;
pub mod e2e;
pub mod layers;
pub mod replica;
pub mod stats;
pub mod workloads;

use std::path::Path;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks: name and, for a failed one, why.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Operations attempted (simulations; for the daemon also jobs).
    pub attempted: u64,
    /// Operations that failed or were refused, retried or quarantined.
    pub failed: u64,
    /// Free-form notes for the human-readable output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a check; `Err` carries the reason it failed.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.checks.push((name.to_string(), result));
    }

    /// Records a check that two values are equal.
    pub fn check_eq<T: PartialEq>(&mut self, name: &str, got: &T, want: &T, what: &str) {
        let result = if got == want {
            Ok(())
        } else {
            Err(format!("{what} differ"))
        };
        self.check(name, result);
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Worker threads for every parallel pass: at most two, fewer on a
/// smaller machine.
pub fn workers() -> usize {
    platform::experiment::detected_cores().min(2)
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str], root: &Path) -> Option<String> {
    let parent = root.parent().unwrap_or(root);
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        // Never look for a repository above the checkout.
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| first_line(&String::from_utf8_lossy(&out.stdout)))
}

/// The machine fingerprint stored with every result: cores, CPU model,
/// compiler, source revision and the 1-minute load average at start.
pub fn fingerprint(root: &Path) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("cores", platform::experiment::detected_cores().to_string()),
        ("cpu", cpu),
        (
            "rustc",
            command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".to_string()),
        ),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"], root)
                .unwrap_or_else(|| "unknown".to_string()),
        ),
        ("load_1m", load),
    ]
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

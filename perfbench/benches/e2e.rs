//! Untraced runs: the end-to-end metrics and the output checks.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use platform::defense_campaign::{plan_defense_campaign, run_defense_campaign_with};
use platform::experiment::{run_campaign_cells, run_parallel_with, RunnerConfig};
use platform::{BatchHarness, TraceConfig};

use crate::daemon::{json_number, run_job, Client, Daemon, JobRun};
use crate::stats::median;
use crate::workloads::{
    attack_plan, attack_report, defense_config, job_bodies, job_spec, without_cores, Workload,
};
use crate::{peak_rss_mb, workers, Outcome};

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 11;

/// Everything a run needs to know.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; 0 selects the committed reference seeds.
    pub seed: u64,
    /// How long the timed section runs, at least one job.
    pub seconds: f64,
    /// The checkout root: reference reports are read from here and every
    /// file the run writes goes under `perfbench/` in it.
    pub root: PathBuf,
    /// The `campaignd` binary.
    pub daemon_bin: PathBuf,
}

impl RunArgs {
    /// This process's daemon state directories live under here; `main`
    /// removes it when the run ends.
    pub fn state_root(&self) -> PathBuf {
        self.root
            .join("perfbench/state")
            .join(std::process::id().to_string())
    }

    /// A fresh daemon state directory for this run.
    pub fn state_dir(&self, tag: &str) -> PathBuf {
        self.state_root().join(tag)
    }

    fn reference(&self, name: &str) -> Result<String, String> {
        std::fs::read_to_string(self.root.join(name))
            .map_err(|e| format!("cannot read {name}: {e}"))
    }
}

/// Spawns the pool workers every parallel pass uses.
pub fn warm_pool() {
    let w = workers();
    platform::pool::run_indexed(w, w, |i| i);
}

/// What an in-process campaign does before its first simulation: builds
/// the workload's plan and spawns the pool workers. The set-up probe.
pub fn prepare(workload: Workload, seed: u64) {
    match workload {
        Workload::AttackMatrix => drop(attack_plan(seed)),
        Workload::DefenseMatrix => drop(plan_defense_campaign(&defense_config(seed))),
        Workload::CampaigndJobs => drop(job_bodies(seed)),
    }
    warm_pool();
}

/// Spawns this binary in probe mode `SETUP_SAMPLES` times; each sample is
/// the time from spawn until the child reports it is ready.
fn in_process_setups(args: &RunArgs) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args([
                    "--probe",
                    args.workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn the set-up probe: {e}"))?;
            let mut line = String::new();
            let read =
                BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
            let ready = start.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| format!("probe wait: {e}"))?;
            match (read, status.success(), line.trim()) {
                (Ok(_), true, "ready") => Ok(ready),
                _ => Err(format!("set-up probe failed: {status}, {line:?}")),
            }
        })
        .collect()
}

/// Runs `job` back to back until `seconds` have passed, at least once.
/// Returns each job's latency and output, and the total elapsed seconds.
fn timed<T>(seconds: f64, mut job: impl FnMut() -> T) -> (Vec<(f64, T)>, f64) {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = job();
        runs.push((t.elapsed().as_secs_f64(), out));
    }
    (runs, start.elapsed().as_secs_f64())
}

fn end_to_end(
    o: &mut Outcome,
    sims: u64,
    elapsed: f64,
    latencies: &[f64],
    setups: &[f64],
    peak_mb: Option<f64>,
) {
    o.metric("sims_per_s", sims as f64 / elapsed, "1/s");
    o.metric(
        "job_latency_p50_s",
        median(latencies).unwrap_or(f64::NAN),
        "s",
    );
    o.metric("setup_s", median(setups).unwrap_or(f64::NAN), "s");
    o.metric("peak_rss_mb", peak_mb.unwrap_or(f64::NAN), "MiB");
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    o.notes.push(format!(
        "{sims} sims in {elapsed:.3} s; {} job latencies (s): {}; {} set-ups (s): {}",
        latencies.len(),
        list(latencies),
        setups.len(),
        list(setups)
    ));
}

/// Keeps the first job's output and checks each later one against it,
/// dropping it, so the timed section's memory does not grow with the
/// number of jobs it fits.
struct SameAsFirst<T> {
    first: Option<T>,
    jobs: usize,
    differs: Option<usize>,
}

impl<T: PartialEq> SameAsFirst<T> {
    fn new() -> Self {
        Self {
            first: None,
            jobs: 0,
            differs: None,
        }
    }

    fn see(&mut self, output: T) {
        match &self.first {
            None => self.first = Some(output),
            Some(first) if self.differs.is_none() && *first != output => {
                self.differs = Some(self.jobs);
            }
            Some(_) => {}
        }
        self.jobs += 1;
    }

    fn verdict(&self) -> Result<(), String> {
        match self.differs {
            None => Ok(()),
            Some(i) => Err(format!("job {i} differs from job 0")),
        }
    }
}

/// One untraced run of the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload {
        Workload::AttackMatrix => attack_matrix(args),
        Workload::DefenseMatrix => defense_matrix(args),
        Workload::CampaigndJobs => campaignd_jobs(args),
    }
}

fn attack_matrix(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let setups = in_process_setups(args)?;
    let specs = attack_plan(args.seed);
    warm_pool();
    let pool = RunnerConfig::with_workers(workers());
    let mut outputs = SameAsFirst::new();
    let (runs, elapsed) = timed(args.seconds, || {
        let results = run_parallel_with(pool, &specs);
        let report = attack_report(&results);
        outputs.see((results, report));
    });
    let peak = peak_rss_mb("/proc/self/status");
    let sims = (runs.len() * specs.len()) as u64;
    let latencies: Vec<f64> = runs.iter().map(|(l, _)| *l).collect();
    end_to_end(&mut o, sims, elapsed, &latencies, &setups, peak);
    o.attempted = sims;

    o.check("pool_jobs_identical", outputs.verdict());
    let (first, _) = outputs.first.as_ref().expect("at least one job");
    let serial = run_parallel_with(RunnerConfig::with_workers(1), &specs);
    o.check_eq(
        "serial_equals_pool",
        &serial,
        first,
        "serial and pool results",
    );
    let mut batch = BatchHarness::new();
    for s in &specs {
        batch.admit(s.harness_config(TraceConfig::disabled()));
    }
    let batched = batch.run();
    o.check_eq(
        "batch_equals_pool",
        &batched,
        first,
        "batched and pool results",
    );
    Ok(o)
}

fn defense_matrix(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let setups = in_process_setups(args)?;
    let cfg = defense_config(args.seed);
    warm_pool();
    let pool = RunnerConfig::with_workers(workers());
    let mut outputs = SameAsFirst::new();
    let (runs, elapsed) = timed(args.seconds, || {
        let report = run_defense_campaign_with(pool, &cfg);
        outputs.see(report.to_json());
        report.total_runs
    });
    let peak = peak_rss_mb("/proc/self/status");
    let sims: u64 = runs.iter().map(|(_, n)| n).sum();
    let latencies: Vec<f64> = runs.iter().map(|(l, _)| *l).collect();
    end_to_end(&mut o, sims, elapsed, &latencies, &setups, peak);
    o.attempted = sims;

    o.check("pool_jobs_identical", outputs.verdict());
    let first = outputs.first.as_ref().expect("at least one job");
    let single = run_defense_campaign_with(RunnerConfig::with_workers(1), &cfg).to_json();
    o.check_eq(
        "single_worker_report",
        &single,
        first,
        "single-worker and pool reports",
    );
    if args.seed == 0 {
        let reference = args.reference("BENCH_defense.json")?;
        o.check_eq(
            "matches_BENCH_defense",
            &without_cores(first),
            &without_cores(&reference),
            "report and BENCH_defense.json",
        );
    }
    Ok(o)
}

/// Runs every job body once, in order, against a running daemon.
pub fn job_sequence(client: &mut Client, bodies: &[String]) -> Result<Vec<JobRun>, String> {
    bodies.iter().map(|body| run_job(client, body)).collect()
}

/// The in-process report and wall seconds of each job body, run through
/// the campaign runner with the daemon's worker count.
pub fn in_process_jobs(bodies: &[String]) -> Result<Vec<(String, f64)>, String> {
    let pool = RunnerConfig::with_workers(workers());
    bodies
        .iter()
        .map(|body| {
            let start = Instant::now();
            let spec = job_spec(body)?;
            let results = run_campaign_cells(pool, spec.plan(), |cell| cell.run());
            let report = spec.report(&results);
            Ok((report, start.elapsed().as_secs_f64()))
        })
        .collect()
}

/// Reads the daemon's `/stats` and checks that it computed exactly the
/// planned cells, with no retry or quarantine. Returns the stats body.
pub fn check_stats(o: &mut Outcome, client: &mut Client, planned: u64) -> Result<String, String> {
    let stats = client.call("GET", "/stats", "")?.text();
    let done = json_number(&stats, "cells_done").unwrap_or(-1.0);
    o.check(
        "daemon_cells_done",
        if done == planned as f64 {
            Ok(())
        } else {
            Err(format!("/stats cells_done {done}, planned {planned}"))
        },
    );
    let retried = json_number(&stats, "retries").unwrap_or(0.0)
        + json_number(&stats, "quarantined").unwrap_or(0.0);
    o.failed += retried as u64;
    Ok(stats)
}

/// Checks every daemon report against the in-process report of the same
/// body and, at seed 0, the resilience report against the committed one.
pub fn check_reports(
    o: &mut Outcome,
    args: &RunArgs,
    jobs: &[JobRun],
    in_process: &[(String, f64)],
) -> Result<(), String> {
    let mismatched: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(i, job)| job.report != in_process[i % in_process.len()].0)
        .map(|(i, _)| i)
        .collect();
    o.check(
        "daemon_equals_in_process",
        if mismatched.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "jobs {mismatched:?} differ from the in-process reports"
            ))
        },
    );
    if args.seed == 0 {
        let reference = args.reference("BENCH_resilience.json")?;
        o.check_eq(
            "matches_BENCH_resilience",
            &without_cores(&in_process[0].0),
            &without_cores(&reference),
            "resilience report and BENCH_resilience.json",
        );
    }
    Ok(())
}

fn campaignd_jobs(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let w = workers();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_SAMPLES {
        let (d, ready) = Daemon::spawn(&args.daemon_bin, &args.state_dir(&format!("s{i}")), w)?;
        setups.push(ready);
        if let Some(previous) = daemon.replace(d) {
            stop(previous)?;
        }
    }
    let daemon = daemon.expect("at least one set-up sample");
    let bodies = job_bodies(args.seed);
    let mut client = Client::new(daemon.addr);
    let mut error = None;
    let (sequences, elapsed) = timed(args.seconds, || {
        job_sequence(&mut client, &bodies).unwrap_or_else(|e| {
            error.get_or_insert(e);
            Vec::new()
        })
    });
    if let Some(e) = error {
        return Err(e);
    }
    let jobs: Vec<JobRun> = sequences.into_iter().flat_map(|(_, seq)| seq).collect();
    let cells: u64 = jobs.iter().map(|j| j.cells).sum();
    check_stats(&mut o, &mut client, cells)?;
    let peak = daemon.peak_rss_mb();
    stop(daemon)?;

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    end_to_end(&mut o, cells, elapsed, &latencies, &setups, peak);
    o.attempted += jobs.len() as u64 + cells;
    o.failed += jobs.iter().map(|j| j.failed_ops).sum::<u64>();
    let in_process = in_process_jobs(&bodies)?;
    check_reports(&mut o, args, &jobs, &in_process)?;
    Ok(o)
}

/// Stops a daemon and removes its state directory.
pub fn stop(daemon: Daemon) -> Result<(), String> {
    let dir = daemon.state_dir.clone();
    daemon.shutdown()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

//! The traced run: per-layer metrics, kept apart from the end-to-end runs.
//!
//! Four parts, each timed from outside the crates it measures:
//!
//! 1. The staged replica (see [`crate::replica`]) replays a fixed subset
//!    of the workload on one thread, alternating with untraced
//!    `Harness::run` on the same configs, and checks that both end the
//!    same way.
//! 2. Serial, pool and batched passes over the workload's layer plan.
//! 3. The workload's report step.
//! 4. For `campaignd_jobs`, one job sequence through a fresh daemon next
//!    to the same jobs in-process. On the in-process workloads no daemon
//!    runs and the `campaignd.*` metrics read 0.

use std::time::Instant;

use platform::experiment::{run_campaign_cells, RunnerConfig};
use platform::{BatchHarness, Harness, HarnessConfig, SimResult};

use crate::daemon::{json_number, Client, Daemon};
use crate::e2e::{check_reports, check_stats, in_process_jobs, job_sequence, stop, RunArgs};
use crate::replica::{span_cost_ns, EndState, Replica, Stage, StageProfile};
use crate::stats::{median, quantile};
use crate::workloads::{
    attack_report, defense_config, job_bodies, job_spec, layer_configs, replica_configs, Workload,
};
use crate::{workers, Outcome};

/// Bound on |stage self-time sum / untraced ns per tick − 1|. The replica
/// is a separate copy of the tick loop, compiled into another binary and
/// run with timestamps in between; it must still account for the
/// untraced tick's time to within this share.
pub const STAGE_SUM_BOUND: f64 = 0.25;

/// Share of `--seconds` the replica keeps replaying for.
const REPLICA_SHARE: f64 = 0.4;

fn run_cell(cfg: &HarnessConfig) -> SimResult {
    Harness::new(*cfg).run()
}

/// One traced run of the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    replica_stages(&mut o, args);
    let serial = runner_passes(&mut o, args);
    report_step(&mut o, args, &serial)?;
    if args.workload == Workload::CampaigndJobs {
        service(&mut o, args)?;
    } else {
        for name in [
            "campaignd.submit_ms",
            "campaignd.first_cell_ms",
            "campaignd.report_ms",
        ] {
            o.metric(name, 0.0, "ms");
        }
        o.metric("campaignd.overhead_share", 0.0, "ratio");
        o.metric("campaignd.wal_bytes_per_cell", 0.0, "B");
        o.metric("campaignd.cell_ms_mean", 0.0, "ms");
        o.notes
            .push("campaignd.* read 0: no daemon on this workload".to_string());
    }
    Ok(o)
}

/// Part 1: the staged replica against untraced `Harness::run`.
fn replica_stages(o: &mut Outcome, args: &RunArgs) {
    let configs = replica_configs(args.workload, args.seed);
    let span_cost = span_cost_ns(15);
    let mut profile = StageProfile::default();
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let mut harness_new_us = Vec::new();
    let mut drifted = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < args.seconds * REPLICA_SHARE {
        for (i, cfg) in configs.iter().enumerate() {
            // Alternate which side runs first so neither always finds the
            // caches warmed by the other.
            let replica_first = (pass + i) % 2 == 1;
            let mut replayed = None;
            if replica_first {
                replayed = Some(replay(cfg, &mut traced_ns));
            }
            let t = Instant::now();
            let harness = Harness::new(*cfg);
            harness_new_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let result = harness.run();
            untraced_ns += t.elapsed().as_nanos();
            let (end, p) = replayed.unwrap_or_else(|| replay(cfg, &mut traced_ns));
            if end != EndState::of(&result) {
                drifted.push(i);
            }
            profile.absorb(&p);
        }
        pass += 1;
    }
    let sims = configs.len() * pass;
    o.attempted += 2 * sims as u64;
    drifted.sort_unstable();
    drifted.dedup();
    o.check(
        "replica_matches_harness",
        if drifted.is_empty() {
            Ok(())
        } else {
            Err(format!("replica end state drifted on configs {drifted:?}"))
        },
    );

    let ticks = profile.ticks as f64;
    let self_ns: Vec<f64> = Stage::ALL
        .iter()
        .map(|&s| profile.self_ns(s, span_cost) / ticks)
        .collect();
    let stage_sum: f64 = self_ns.iter().sum();
    for (stage, ns) in Stage::ALL.iter().zip(&self_ns) {
        o.metric(format!("{}.ns_per_tick", stage.metric()), *ns, "ns");
        o.metric(format!("{}.share", stage.metric()), ns / stage_sum, "ratio");
    }
    let untraced = untraced_ns as f64 / ticks;
    let sum_share = stage_sum / untraced;
    o.check(
        "stage_sum_matches_untraced",
        if (sum_share - 1.0).abs() <= STAGE_SUM_BOUND {
            Ok(())
        } else {
            Err(format!(
                "stage self-times sum to {stage_sum:.1} ns/tick, untraced {untraced:.1} \
(bound ±{STAGE_SUM_BOUND})"
            ))
        },
    );
    o.metric("platform.untraced.ns_per_tick", untraced, "ns");
    o.metric("trace.stage_sum_share", sum_share, "ratio");
    o.metric(
        "trace.overhead_share",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
        "ratio",
    );
    o.metric("trace.span_cost_ns", span_cost, "ns");
    o.metric(
        "platform.harness_new_us",
        median(&harness_new_us).unwrap_or(f64::NAN),
        "us",
    );
    o.metric(
        "core.frames_rewritten_per_tick",
        profile.frames_rewritten as f64 / ticks,
        "count",
    );
    o.metric(
        "msgbus.publishes_per_tick",
        profile.publishes as f64 / ticks,
        "count",
    );
    o.metric(
        "canbus.frames_per_tick",
        profile.frames as f64 / ticks,
        "count",
    );
    o.metric(
        "platform.frozen_tick_share",
        profile.frozen_ticks as f64 / ticks,
        "ratio",
    );
    o.metric(
        "platform.disengaged_tick_share",
        profile.disengaged_ticks as f64 / ticks,
        "ratio",
    );
    o.notes.push(format!(
        "replica: {} configs x {pass} passes, span cost {span_cost:.1} ns",
        configs.len()
    ));
}

fn replay(cfg: &HarnessConfig, traced_ns: &mut u128) -> (EndState, StageProfile) {
    let replica = Replica::new(*cfg);
    let t = Instant::now();
    let out = replica.run();
    *traced_ns += t.elapsed().as_nanos();
    out
}

/// Part 2: serial, pool and batched passes over the layer plan. Returns
/// the serial results.
fn runner_passes(o: &mut Outcome, args: &RunArgs) -> Vec<SimResult> {
    let plan = layer_configs(args.workload, args.seed);
    let n = plan.len() as f64;
    let w = workers();
    o.attempted += 3 * plan.len() as u64;

    let t = Instant::now();
    let serial = run_campaign_cells(RunnerConfig::with_workers(1), plan.clone(), run_cell);
    let serial_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let timed = run_campaign_cells(RunnerConfig::with_workers(w), plan.clone(), |cfg| {
        let t = Instant::now();
        let result = run_cell(cfg);
        (result, t.elapsed().as_secs_f64())
    });
    let pool_s = t.elapsed().as_secs_f64();
    let cell_s: Vec<f64> = timed.iter().map(|(_, s)| *s).collect();
    let pooled: Vec<SimResult> = timed.into_iter().map(|(r, _)| r).collect();
    o.check_eq(
        "pool_equals_serial",
        &pooled,
        &serial,
        "pool and serial results",
    );

    let t = Instant::now();
    let mut batch = BatchHarness::new();
    for cfg in &plan {
        batch.admit(*cfg);
    }
    let fast = batch.fast_lanes();
    let batched = batch.run();
    let batch_s = t.elapsed().as_secs_f64();
    o.check_eq(
        "batch_equals_serial",
        &batched,
        &serial,
        "batched and serial results",
    );

    o.metric("platform.serial.sims_per_s", n / serial_s, "1/s");
    o.metric(
        "platform.pool.efficiency",
        serial_s / (w as f64 * pool_s),
        "ratio",
    );
    o.metric(
        "platform.pool.busy_share",
        cell_s.iter().sum::<f64>() / (w as f64 * pool_s),
        "ratio",
    );
    o.metric(
        "platform.cell.p50_ms",
        1e3 * quantile(&cell_s, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    o.metric(
        "platform.cell.p90_ms",
        1e3 * quantile(&cell_s, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    o.metric("platform.batch.sims_per_s", n / batch_s, "1/s");
    o.metric("platform.batch.fast_lane_share", fast as f64 / n, "ratio");
    o.notes
        .push(format!("runner passes: {} sims, {w} workers", plan.len()));
    serial
}

/// Part 3: the report step. The attack matrix aggregates and summarises
/// the layer plan's results (its whole plan); the defense matrix runs its
/// campaign once and renders the JSON, the only report step it exposes;
/// the daemon jobs aggregate and render each job in-process.
fn report_step(o: &mut Outcome, args: &RunArgs, serial: &[SimResult]) -> Result<(), String> {
    let seconds = match args.workload {
        Workload::AttackMatrix => {
            let t = Instant::now();
            std::hint::black_box(attack_report(serial));
            t.elapsed().as_secs_f64()
        }
        Workload::DefenseMatrix => {
            let pool = RunnerConfig::with_workers(workers());
            let report = platform::defense_campaign::run_defense_campaign_with(
                pool,
                &defense_config(args.seed),
            );
            o.attempted += report.total_runs;
            let t = Instant::now();
            std::hint::black_box(report.to_json());
            t.elapsed().as_secs_f64()
        }
        Workload::CampaigndJobs => {
            let mut offset = 0;
            let mut seconds = 0.0;
            for body in job_bodies(args.seed) {
                let spec = job_spec(&body)?;
                let n = spec.plan().len();
                let t = Instant::now();
                std::hint::black_box(spec.report(&serial[offset..offset + n]));
                seconds += t.elapsed().as_secs_f64();
                offset += n;
            }
            seconds
        }
    };
    o.metric("platform.report_ms", seconds * 1e3, "ms");
    Ok(())
}

/// Part 4: one job sequence through a fresh daemon, against the same jobs
/// in-process.
fn service(o: &mut Outcome, args: &RunArgs) -> Result<(), String> {
    let bodies = job_bodies(args.seed);
    let (daemon, _) = Daemon::spawn(&args.daemon_bin, &args.state_dir("traced"), workers())?;
    let mut client = Client::new(daemon.addr);
    let jobs = job_sequence(&mut client, &bodies)?;
    let cells: u64 = jobs.iter().map(|j| j.cells).sum();
    let stats = check_stats(o, &mut client, cells)?;
    let wal_bytes: u64 = std::fs::read_dir(&daemon.state_dir)
        .map_err(|e| format!("cannot list the daemon state: {e}"))?
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    stop(daemon)?;
    o.attempted += jobs.len() as u64 + cells;
    o.failed += jobs.iter().map(|j| j.failed_ops).sum::<u64>();

    let in_process = in_process_jobs(&bodies)?;
    check_reports(o, args, &jobs, &in_process)?;
    let daemon_s: f64 = jobs.iter().map(|j| j.latency_s).sum();
    let local_s: f64 = in_process.iter().map(|(_, s)| s).sum();
    let ms = |xs: Vec<f64>| 1e3 * median(&xs).unwrap_or(f64::NAN);
    o.metric(
        "campaignd.submit_ms",
        ms(jobs.iter().map(|j| j.submit_s).collect()),
        "ms",
    );
    o.metric(
        "campaignd.first_cell_ms",
        ms(jobs.iter().map(|j| j.first_cell_s).collect()),
        "ms",
    );
    o.metric(
        "campaignd.report_ms",
        ms(jobs.iter().map(|j| j.report_s).collect()),
        "ms",
    );
    o.metric(
        "campaignd.overhead_share",
        (daemon_s - local_s) / daemon_s,
        "ratio",
    );
    o.metric(
        "campaignd.wal_bytes_per_cell",
        wal_bytes as f64 / cells as f64,
        "B",
    );
    let cell_mean = json_number(&stats, "mean").unwrap_or(f64::NAN);
    o.metric("campaignd.cell_ms_mean", cell_mean * 1e3, "ms");
    o.notes.push(format!(
        "daemon: {} jobs, {cells} cells, {daemon_s:.3} s against {local_s:.3} s in-process; \
per-job medians",
        jobs.len()
    ));
    Ok(())
}

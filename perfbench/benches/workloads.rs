//! The three workloads: what each plans, how its report is rendered, and
//! which simulations stand for it in the traced run.

use attack_core::{AttackType, StrategyKind};
use campaignd::spec::{CellSpec, JobSpec};
use driving_sim::Scenario;
use platform::defense_campaign::{
    plan_defense_campaign, threat_matrix, DefenseCampaignConfig, POLICIES,
};
use platform::experiment::{mix_seed, plan_attack_campaign, CampaignConfig, RunSpec};
use platform::metrics::StrategyAggregate;
use platform::{HarnessConfig, SimResult, TraceConfig};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Context-Aware scheduling over all six attack types × S1–S4 × gaps.
    AttackMatrix,
    /// The `BENCH_defense.json` campaign: 4 postures × 25 threats × S1–S4.
    DefenseMatrix,
    /// A spawned `campaignd` daemon driven over loopback HTTP.
    CampaigndJobs,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::AttackMatrix,
        Workload::DefenseMatrix,
        Workload::CampaigndJobs,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttackMatrix => "attack_matrix",
            Workload::DefenseMatrix => "defense_matrix",
            Workload::CampaigndJobs => "campaignd_jobs",
        }
    }

    /// The workload with the given name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The attack matrix's repetitions per (scenario, gap) cell: 6 types × 12
/// cells × 5 = 360 simulations per campaign.
pub const ATTACK_REPS: u32 = 5;
/// Base seed of the attack matrix at seed 0 (the paper campaign's).
pub const ATTACK_BASE_SEED: u64 = 0x5AFE;
/// Base seed of the defense matrix at seed 0 (`BENCH_defense.json`'s).
pub const DEFENSE_BASE_SEED: u64 = 0xD3F3;
/// Base seed of every daemon job at seed 0 (`BENCH_resilience.json`'s).
pub const JOB_BASE_SEED: u64 = 7;
/// Repetitions of each daemon attack job: 12 cells × 6 = 72 cells.
pub const JOB_ATTACK_REPS: u32 = 6;

/// A workload base seed: the committed default at `--seed 0`, otherwise
/// the default mixed with the seed.
pub fn base_seed(default: u64, seed: u64) -> u64 {
    if seed == 0 {
        default
    } else {
        mix_seed(default, &[seed])
    }
}

/// The attack matrix's campaign configuration.
pub fn attack_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        reps: ATTACK_REPS,
        base_seed: base_seed(ATTACK_BASE_SEED, seed),
        ..CampaignConfig::paper(StrategyKind::ContextAware)
    }
}

/// The attack matrix's plan, attack type by attack type.
pub fn attack_plan(seed: u64) -> Vec<RunSpec> {
    let cfg = attack_config(seed);
    AttackType::ALL
        .into_iter()
        .flat_map(|t| plan_attack_campaign(&cfg, t))
        .collect()
}

/// The attack matrix's report: one Table IV-style summary per attack type.
pub fn attack_report(results: &[SimResult]) -> String {
    let per_type = results.len() / AttackType::ALL.len();
    AttackType::ALL
        .into_iter()
        .zip(results.chunks(per_type.max(1)))
        .map(|(t, chunk)| {
            let agg = StrategyAggregate::from_results(t.label(), chunk);
            platform::report::summarize(&agg) + "\n"
        })
        .collect()
}

/// The defense matrix's campaign configuration (one repetition, as in
/// `BENCH_defense.json`).
pub fn defense_config(seed: u64) -> DefenseCampaignConfig {
    DefenseCampaignConfig::new(base_seed(DEFENSE_BASE_SEED, seed), 1)
}

/// The request bodies the daemon client submits, in order: the canonical
/// resilience job, then one Context-Aware attack job per attack type.
pub fn job_bodies(seed: u64) -> Vec<String> {
    let base = base_seed(JOB_BASE_SEED, seed);
    let mut bodies = vec![format!(
        "{{\"kind\": \"resilience\", \"base_seed\": {base}, \"reps\": 1}}"
    )];
    for attack in AttackType::ALL {
        bodies.push(format!(
            "{{\"kind\": \"attack\", \"strategy\": \"context_aware\", \"attack\": \"{}\", \
\"base_seed\": {base}, \"reps\": {JOB_ATTACK_REPS}}}",
            attack_token(attack)
        ));
    }
    bodies
}

fn attack_token(attack: AttackType) -> &'static str {
    match attack {
        AttackType::Acceleration => "acceleration",
        AttackType::Deceleration => "deceleration",
        AttackType::SteeringLeft => "steering_left",
        AttackType::SteeringRight => "steering_right",
        AttackType::AccelerationSteering => "acceleration_steering",
        AttackType::DecelerationSteering => "deceleration_steering",
    }
}

/// The job spec the daemon parses from `body`, parsed the same way.
pub fn job_spec(body: &str) -> Result<JobSpec, String> {
    campaignd::wire::parse_object(body.as_bytes()).and_then(|obj| JobSpec::from_object(&obj))
}

fn cell_config(cell: &CellSpec) -> HarnessConfig {
    match cell {
        CellSpec::Attack(spec) => spec.harness_config(TraceConfig::disabled()),
        CellSpec::Resilience(spec) => spec.harness_config(),
    }
}

/// Every simulation of one pass of the workload, as harness configs.
pub fn full_configs(workload: Workload, seed: u64) -> Vec<HarnessConfig> {
    match workload {
        Workload::AttackMatrix => attack_plan(seed)
            .iter()
            .map(|s| s.harness_config(TraceConfig::disabled()))
            .collect(),
        Workload::DefenseMatrix => plan_defense_campaign(&defense_config(seed))
            .iter()
            .map(|s| s.harness_config())
            .collect(),
        Workload::CampaigndJobs => job_bodies(seed)
            .iter()
            .map(|b| job_spec(b).expect("the benchmark's job bodies parse"))
            .flat_map(|spec| spec.plan())
            .map(|cell| cell_config(&cell))
            .collect(),
    }
}

/// The simulations the traced run's pool and batch passes run: the whole
/// pass, except for the defense matrix, where it is every (posture,
/// threat) pair in three of its twelve scenario cells.
pub fn layer_configs(workload: Workload, seed: u64) -> Vec<HarnessConfig> {
    let all = full_configs(workload, seed);
    match workload {
        Workload::DefenseMatrix => stride_by_cell(&all, Scenario::matrix().len(), &[0, 5, 10]),
        Workload::AttackMatrix | Workload::CampaigndJobs => all,
    }
}

/// The simulations the staged replica replays: one per campaign cell,
/// with the scenario cell rotating so every scenario appears.
pub fn replica_configs(workload: Workload, seed: u64) -> Vec<HarnessConfig> {
    let all = full_configs(workload, seed);
    let scenarios = Scenario::matrix().len();
    match workload {
        // 6 attack types × 12 scenario cells × 5 reps: keep rep 0.
        Workload::AttackMatrix => all.iter().step_by(ATTACK_REPS as usize).copied().collect(),
        // 100 (posture, threat) cells × 12 scenario cells.
        Workload::DefenseMatrix => {
            let cells = POLICIES.len() * threat_matrix().len();
            (0..cells)
                .map(|c| all[c * scenarios + c % scenarios])
                .collect()
        }
        // 18 fault cells × 12 scenarios, then 6 attack jobs × 24 cells.
        Workload::CampaigndJobs => {
            let resilience =
                all.len() - AttackType::ALL.len() * scenarios * JOB_ATTACK_REPS as usize;
            let mut picked: Vec<HarnessConfig> = (0..resilience / scenarios)
                .map(|c| all[c * scenarios + c % scenarios])
                .collect();
            picked.extend(
                all[resilience..]
                    .iter()
                    .step_by(JOB_ATTACK_REPS as usize)
                    .copied(),
            );
            picked
        }
    }
}

/// Keeps, from each run of `cell` consecutive configs, the given offsets.
fn stride_by_cell(all: &[HarnessConfig], cell: usize, offsets: &[usize]) -> Vec<HarnessConfig> {
    all.chunks(cell)
        .flat_map(|chunk| offsets.iter().filter_map(|&o| chunk.get(o).copied()))
        .collect()
}

/// A report with its `"cores"` header line removed, for comparison with
/// a report written on another machine.
pub fn without_cores(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"cores\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

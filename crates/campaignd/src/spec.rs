//! Job payloads: the bench campaigns, re-expressed as service jobs.
//!
//! A job is a campaign the platform layer already knows how to plan — an
//! attack sweep ([`platform::experiment::plan_attack_campaign`]) or a
//! fault-resilience sweep ([`platform::resilience::plan_resilience_campaign`])
//! — plus the supervision-only chaos knobs the robustness tests use to
//! inject cell panics and delays. The knobs live in the *spec* (and its
//! canonical encoding, and thus the job id) because a resumed daemon must
//! re-apply them; they never change the simulation results, only how many
//! attempts it takes to produce them.

use attack_core::{AttackType, StrategyKind};
use defense::DefensePolicy;
use driving_sim::Scenario;
use faultinj::FaultKind;
use platform::experiment::{detected_cores, plan_attack_campaign, CampaignConfig, RunSpec};
use platform::resilience::{
    aggregate_resilience_results, plan_resilience_campaign, ResilienceConfig, ResilienceSpec,
    INTENSITIES,
};
use platform::{HarnessConfig, SimResult, TraceConfig};

use crate::wire::{Object, Value};

/// Which campaign family the job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One attack type under one scheduling strategy, no defense
    /// (the Table IV shape).
    Attack {
        /// Scheduling strategy.
        strategy: StrategyKind,
        /// The attack type swept over the scenario matrix.
        attack: AttackType,
    },
    /// The full fault × intensity × scenario sweep under one defense
    /// policy (the `BENCH_resilience.json` shape).
    Resilience {
        /// Defense deployment for every run.
        defense: DefensePolicy,
    },
}

/// Supervision-only fault injection, applied per cell index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosKnobs {
    /// `(cell index, k)`: the cell's first `k` attempts panic before the
    /// real simulation runs. Exercises retry and (for `k` past the
    /// attempt budget) quarantine.
    pub panic_cells: Vec<(usize, u32)>,
    /// `(cell index, milliseconds)`: every attempt at the cell sleeps
    /// first. Widens kill/overload windows in the chaos tests.
    pub delay_cells: Vec<(usize, u64)>,
}

impl ChaosKnobs {
    /// Panic budget for a cell (0 = never panics).
    pub fn panics_for(&self, idx: usize) -> u32 {
        self.panic_cells
            .iter()
            .find(|(i, _)| *i == idx)
            .map_or(0, |(_, k)| *k)
    }

    /// Injected delay for a cell, in milliseconds.
    pub fn delay_for(&self, idx: usize) -> u64 {
        self.delay_cells
            .iter()
            .find(|(i, _)| *i == idx)
            .map_or(0, |(_, ms)| *ms)
    }
}

/// The most cells one job may plan. [`JobSpec::from_object`] rejects a
/// larger job, so a submission can never make the daemon build (and
/// `--resume` rebuild) an unbounded plan. It is about seven times the
/// paper's largest campaign, Random-ST+DUR's 14,400 runs.
pub const MAX_JOB_CELLS: u64 = 100_000;

/// A submitted job: campaign family, seeding, and chaos knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Campaign family and its parameters.
    pub kind: JobKind,
    /// Base seed every run seed derives from.
    pub base_seed: u64,
    /// Repetitions per campaign cell.
    pub reps: u32,
    /// Supervision-layer fault injection.
    pub chaos: ChaosKnobs,
}

/// One planned cell of a job.
#[derive(Debug, Clone, Copy)]
pub enum CellSpec {
    /// An attack-campaign run.
    Attack(RunSpec),
    /// A resilience-campaign run.
    Resilience(ResilienceSpec),
}

impl CellSpec {
    /// The harness configuration of the cell (untraced).
    pub fn harness_config(&self) -> HarnessConfig {
        match self {
            CellSpec::Attack(spec) => spec.harness_config(TraceConfig::disabled()),
            CellSpec::Resilience(spec) => spec.harness_config(),
        }
    }

    /// Executes the cell, through [`platform::simulate`].
    pub fn run(&self) -> SimResult {
        platform::simulate(self.harness_config())
    }
}

fn strategy_token(s: StrategyKind) -> &'static str {
    match s {
        StrategyKind::RandomStDur => "random_st_dur",
        StrategyKind::RandomSt => "random_st",
        StrategyKind::RandomDur => "random_dur",
        StrategyKind::ContextAware => "context_aware",
    }
}

fn parse_strategy(token: &str) -> Option<StrategyKind> {
    StrategyKind::ALL
        .into_iter()
        .find(|&s| strategy_token(s) == token)
}

fn attack_token(a: AttackType) -> &'static str {
    match a {
        AttackType::Acceleration => "acceleration",
        AttackType::Deceleration => "deceleration",
        AttackType::SteeringLeft => "steering_left",
        AttackType::SteeringRight => "steering_right",
        AttackType::AccelerationSteering => "acceleration_steering",
        AttackType::DecelerationSteering => "deceleration_steering",
    }
}

fn parse_attack(token: &str) -> Option<AttackType> {
    AttackType::ALL.into_iter().find(|&a| attack_token(a) == token)
}

fn parse_defense(token: &str) -> Option<DefensePolicy> {
    [
        DefensePolicy::Off,
        DefensePolicy::Observe,
        DefensePolicy::Degrade,
        DefensePolicy::FailSafe,
    ]
    .into_iter()
    .find(|d| d.label() == token)
}

fn pairs_field(obj: &Object, key: &str) -> Result<Vec<(u64, u64)>, String> {
    match obj.get(key) {
        None => Ok(Vec::new()),
        Some(Value::Pairs(pairs)) => Ok(pairs.clone()),
        Some(_) => Err(format!("'{key}' must be an array of [int, int] pairs")),
    }
}

fn uint_field(obj: &Object, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Value::UInt(n)) => Ok(*n),
        Some(_) => Err(format!("'{key}' must be a non-negative integer")),
    }
}

fn str_field<'a>(obj: &'a Object, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

impl JobSpec {
    /// Builds a spec from a parsed submission object; the error string is
    /// what the client sees in the 400 body.
    pub fn from_object(obj: &Object) -> Result<Self, String> {
        let kind = match str_field(obj, "kind")? {
            Some("attack") => {
                let strategy = str_field(obj, "strategy")?
                    .and_then(parse_strategy)
                    .ok_or("'strategy' must be one of random_st_dur|random_st|random_dur|context_aware")?;
                let attack = str_field(obj, "attack")?
                    .and_then(parse_attack)
                    .ok_or("'attack' must name one of the six attack types")?;
                JobKind::Attack { strategy, attack }
            }
            Some("resilience") => {
                let defense = match str_field(obj, "defense")? {
                    None => DefensePolicy::Degrade,
                    Some(token) => parse_defense(token)
                        .ok_or("'defense' must be one of off|observe|degrade|fail_safe")?,
                };
                JobKind::Resilience { defense }
            }
            _ => return Err("'kind' must be \"attack\" or \"resilience\"".to_string()),
        };
        let reps = u32::try_from(uint_field(obj, "reps", 1)?.max(1))
            .map_err(|_| "'reps' out of range".to_string())?;
        let chaos = ChaosKnobs {
            panic_cells: pairs_field(obj, "panic_cells")?
                .into_iter()
                .map(|(i, k)| (i as usize, k.min(u64::from(u32::MAX)) as u32))
                .collect(),
            delay_cells: pairs_field(obj, "delay_cells")?
                .into_iter()
                .map(|(i, ms)| (i as usize, ms))
                .collect(),
        };
        let spec = Self {
            kind,
            base_seed: uint_field(obj, "base_seed", 7)?,
            reps,
            chaos,
        };
        let cells = spec.cell_count();
        if cells > MAX_JOB_CELLS {
            return Err(format!(
                "job has {cells} cells, more than the {MAX_JOB_CELLS} a job may have"
            ));
        }
        Ok(spec)
    }

    /// The number of cells [`plan`](Self::plan) expands to, computed
    /// without building the plan.
    pub fn cell_count(&self) -> u64 {
        let per_rep = match self.kind {
            // `plan` uses `CampaignConfig::smoke`: one draw per repetition.
            JobKind::Attack { .. } => Scenario::matrix().len(),
            JobKind::Resilience { .. } => {
                FaultKind::ALL.len() * INTENSITIES.len() * Scenario::matrix().len()
            }
        };
        per_rep as u64 * u64::from(self.reps)
    }

    /// Canonical single-line encoding: deterministic field order, parses
    /// back via [`from_object`](Self::from_object). This string — not the
    /// client's original body — is what the manifest records and the job
    /// id hashes, so resubmitting a semantically identical job reproduces
    /// the same identity.
    pub fn canonical(&self) -> String {
        let kind_fields = match self.kind {
            JobKind::Attack { strategy, attack } => format!(
                "\"kind\": \"attack\", \"strategy\": \"{}\", \"attack\": \"{}\"",
                strategy_token(strategy),
                attack_token(attack)
            ),
            JobKind::Resilience { defense } => format!(
                "\"kind\": \"resilience\", \"defense\": \"{}\"",
                defense.label()
            ),
        };
        let pairs = |cells: &[(usize, u64)]| {
            let items: Vec<String> = cells.iter().map(|(i, v)| format!("[{i}, {v}]")).collect();
            format!("[{}]", items.join(", "))
        };
        let panics: Vec<(usize, u64)> = self
            .chaos
            .panic_cells
            .iter()
            .map(|&(i, k)| (i, u64::from(k)))
            .collect();
        format!(
            "{{{kind_fields}, \"base_seed\": {}, \"reps\": {}, \"panic_cells\": {}, \"delay_cells\": {}}}",
            self.base_seed,
            self.reps,
            pairs(&panics),
            pairs(&self.chaos.delay_cells),
        )
    }

    /// Expands the job into its plan-ordered cell list.
    pub fn plan(&self) -> Vec<CellSpec> {
        match self.kind {
            JobKind::Attack { strategy, attack } => {
                let cfg = CampaignConfig {
                    base_seed: self.base_seed,
                    ..CampaignConfig::smoke(strategy, self.reps)
                };
                plan_attack_campaign(&cfg, attack)
                    .into_iter()
                    .map(CellSpec::Attack)
                    .collect()
            }
            JobKind::Resilience { defense } => {
                let cfg = ResilienceConfig::new(self.base_seed, self.reps).with_defense(defense);
                plan_resilience_campaign(&cfg)
                    .into_iter()
                    .map(CellSpec::Resilience)
                    .collect()
            }
        }
    }

    /// Renders the final report from the complete plan-ordered results.
    ///
    /// Resilience jobs emit exactly [`platform::resilience::ResilienceReport::to_json`]
    /// — the `BENCH_resilience.json` shape the chaos test asserts
    /// byte-identity on. Attack jobs emit a compact Table IV-shaped
    /// aggregate.
    pub fn report(&self, results: &[SimResult]) -> String {
        match self.kind {
            JobKind::Resilience { defense } => {
                let cfg = ResilienceConfig::new(self.base_seed, self.reps).with_defense(defense);
                aggregate_resilience_results(&cfg, results).to_json()
            }
            JobKind::Attack { strategy, attack } => {
                let hazardous = results.iter().filter(|r| r.hazardous()).count();
                let accidents = results.iter().filter(|r| r.accident.is_some()).count();
                let silent = results.iter().filter(|r| r.hazard_without_alert()).count();
                let tth: Vec<f64> = results
                    .iter()
                    .filter_map(|r| r.tth.map(|t| t.secs()))
                    .collect();
                let mean_tth = if tth.is_empty() {
                    "null".to_string()
                } else {
                    format!("{:.3}", tth.iter().sum::<f64>() / tth.len() as f64)
                };
                format!(
                    "{{\n  \"bench\": \"campaign\",\n  \"kind\": \"attack\",\n  \
\"strategy\": \"{}\",\n  \"attack\": \"{}\",\n  \"base_seed\": {},\n  \
\"reps_per_cell\": {},\n  \"cores\": {},\n  \"total_runs\": {},\n  \
\"hazardous_runs\": {},\n  \"accident_runs\": {},\n  \
\"hazard_no_alert_runs\": {},\n  \"mean_tth_s\": {}\n}}\n",
                    strategy.label(),
                    attack.label(),
                    self.base_seed,
                    self.reps,
                    detected_cores(),
                    results.len(),
                    hazardous,
                    accidents,
                    silent,
                    mean_tth,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_object;

    #[test]
    fn canonical_round_trips() {
        let obj = parse_object(
            br#"{"kind": "resilience", "defense": "fail_safe", "base_seed": 11,
                "reps": 2, "panic_cells": [[3, 1]], "delay_cells": [[0, 250]]}"#,
        )
        .unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        let canonical = spec.canonical();
        let reparsed = JobSpec::from_object(&parse_object(canonical.as_bytes()).unwrap()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(canonical, reparsed.canonical());
    }

    #[test]
    fn defaults_and_errors() {
        let obj = parse_object(br#"{"kind": "resilience"}"#).unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        assert_eq!(spec.base_seed, 7);
        assert_eq!(spec.reps, 1);
        assert_eq!(spec.kind, JobKind::Resilience { defense: DefensePolicy::Degrade });

        let bad = parse_object(br#"{"kind": "nope"}"#).unwrap();
        assert!(JobSpec::from_object(&bad).is_err());
        let bad = parse_object(br#"{"kind": "attack", "strategy": "x", "attack": "acceleration"}"#)
            .unwrap();
        assert!(JobSpec::from_object(&bad).is_err());
    }

    #[test]
    fn attack_plan_matches_platform_planner() {
        let obj = parse_object(
            br#"{"kind": "attack", "strategy": "context_aware",
                "attack": "steering_right", "base_seed": 5, "reps": 1}"#,
        )
        .unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        let plan = spec.plan();
        let cfg = CampaignConfig {
            base_seed: 5,
            ..CampaignConfig::smoke(StrategyKind::ContextAware, 1)
        };
        let reference = plan_attack_campaign(&cfg, AttackType::SteeringRight);
        assert_eq!(plan.len(), reference.len());
        for (cell, want) in plan.iter().zip(&reference) {
            match cell {
                CellSpec::Attack(got) => assert_eq!(got.seed, want.seed),
                CellSpec::Resilience(_) => panic!("attack plan produced resilience cell"),
            }
        }
    }

    #[test]
    fn resilience_report_is_the_bench_shape() {
        let obj = parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        let results: Vec<SimResult> = spec.plan().iter().take(0).map(CellSpec::run).collect();
        let report = spec.report(&results);
        assert!(report.contains("\"bench\": \"resilience\""));
        assert!(report.ends_with("}\n"));
    }

    #[test]
    fn cells_match_the_scalar_harness() {
        // `CellSpec::run` goes through `platform::simulate`, which runs
        // attack and faulted resilience cells alike on the fused tick.
        // Both must equal the scalar oracle.
        for body in [
            &br#"{"kind": "attack", "strategy": "context_aware", "attack": "acceleration_steering", "base_seed": 3}"#[..],
            br#"{"kind": "attack", "strategy": "random_dur", "attack": "deceleration", "base_seed": 4}"#,
            br#"{"kind": "resilience", "defense": "off", "base_seed": 5}"#,
        ] {
            let spec = JobSpec::from_object(&parse_object(body).unwrap()).unwrap();
            for cell in spec.plan().iter().step_by(7) {
                let oracle = platform::Harness::new(cell.harness_config()).run();
                assert_eq!(cell.run(), oracle, "{cell:?}");
            }
        }
    }

    #[test]
    fn cell_count_is_the_plan_length_and_caps_the_job() {
        for body in [
            &br#"{"kind": "attack", "strategy": "random_st", "attack": "acceleration", "reps": 3}"#[..],
            br#"{"kind": "resilience", "reps": 2}"#,
        ] {
            let spec = JobSpec::from_object(&parse_object(body).unwrap()).unwrap();
            assert_eq!(spec.cell_count(), spec.plan().len() as u64);
        }
        let huge = parse_object(br#"{"kind": "resilience", "reps": 4294967295}"#).unwrap();
        let err = JobSpec::from_object(&huge).unwrap_err();
        assert!(err.contains(&MAX_JOB_CELLS.to_string()), "{err}");
        let attack_job = |reps: u64| {
            let body = format!(
                r#"{{"kind": "attack", "strategy": "random_st", "attack": "acceleration", "reps": {reps}}}"#
            );
            JobSpec::from_object(&parse_object(body.as_bytes()).unwrap())
        };
        let most = MAX_JOB_CELLS / 12;
        assert_eq!(attack_job(most).unwrap().cell_count(), most * 12);
        assert!(attack_job(most + 1).is_err());
    }

    #[test]
    fn chaos_knob_lookup() {
        let knobs = ChaosKnobs {
            panic_cells: vec![(3, 2)],
            delay_cells: vec![(0, 100)],
        };
        assert_eq!(knobs.panics_for(3), 2);
        assert_eq!(knobs.panics_for(4), 0);
        assert_eq!(knobs.delay_for(0), 100);
        assert_eq!(knobs.delay_for(3), 0);
    }
}

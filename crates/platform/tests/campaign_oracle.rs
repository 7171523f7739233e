//! Every campaign spec against the scalar oracle.
//!
//! A spec's `run()` goes through [`platform::simulate`], which runs an
//! untraced config as a `FusedLane` and a traced one on the scalar
//! `Harness`. These tests pin that entry point to
//! `Harness::new(spec.harness_config(..)).run()` for every spec type, so
//! the campaign runners' own serial-vs-pool checks (which now compare the
//! fused path with itself) keep a scalar reference. campaignd's
//! `CellSpec` is pinned the same way in its own crate (`spec.rs`).

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use defense::DefensePolicy;
use driver_model::DriverConfig;
use driving_sim::{Scenario, ScenarioId};
use platform::defense_campaign::{threat_matrix, DefenseSpec, POLICIES};
use platform::experiment::{
    mix_seed, plan_attack_campaign, plan_no_attack_campaign, run_parallel_with, CampaignConfig,
    RunSpec, RunnerConfig,
};
use platform::resilience::{plan_resilience_campaign, ResilienceConfig, ResilienceSpec};
use platform::{BatchHarness, FusedLane, Harness, HarnessConfig, SimResult, TraceConfig};
use units::Distance;

fn oracle(cfg: HarnessConfig) -> SimResult {
    Harness::new(cfg).run()
}

/// Every `stride`-th cell of one attack type's smoke campaign.
fn attack_cells(cfg: &CampaignConfig, attack: AttackType, stride: usize) -> Vec<RunSpec> {
    plan_attack_campaign(cfg, attack)
        .into_iter()
        .step_by(stride)
        .collect()
}

fn assert_run_specs_match(specs: &[RunSpec]) -> Vec<SimResult> {
    specs
        .iter()
        .map(|spec| {
            let got = spec.run();
            assert_eq!(
                got,
                oracle(spec.harness_config(TraceConfig::disabled())),
                "{spec:?}"
            );
            got
        })
        .collect()
}

#[test]
fn run_spec_matches_the_scalar_harness_under_every_strategy() {
    let mut specs = Vec::new();
    for (strategy, attack) in StrategyKind::ALL.into_iter().zip([
        AttackType::Acceleration,
        AttackType::SteeringLeft,
        AttackType::DecelerationSteering,
        AttackType::SteeringRight,
    ]) {
        specs.extend(attack_cells(&CampaignConfig::smoke(strategy, 1), attack, 2));
    }
    assert!(specs
        .iter()
        .all(|s| BatchHarness::fast_eligible(&s.harness_config(TraceConfig::disabled()))));
    let results = assert_run_specs_match(&specs);
    assert!(
        results.iter().any(|r| r.frames_rewritten > 0),
        "at least one run injected, so the fused MITM path was compared"
    );
}

#[test]
fn fused_collision_and_takeover_shortcuts_match_the_scalar_harness() {
    // Cells chosen so both fused-lane shortcuts run: a fixed steer-right
    // attack on an inattentive driver ends in a collision (the Retired
    // fast-forward), and a fixed deceleration attack is noticed by an
    // alert driver, who takes over (the Disengaged regime).
    let cell = |attack_type, driver, scenario, seed| RunSpec {
        attack: Some(AttackConfig {
            attack_type,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        }),
        scenario,
        seed,
        driver,
        panda_enabled: false,
        defense: DefensePolicy::Off,
    };
    let s1 = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let s2 = Scenario::new(ScenarioId::S2, Distance::meters(100.0));
    let mut specs = Vec::new();
    for seed in 0..4 {
        specs.push(cell(AttackType::SteeringRight, DriverConfig::inattentive(), s2, seed));
        specs.push(cell(AttackType::Deceleration, DriverConfig::alert(), s1, seed));
    }
    assert!(specs
        .iter()
        .all(|s| FusedLane::new(s.harness_config(TraceConfig::disabled())).is_some()));
    let results = assert_run_specs_match(&specs);
    assert!(
        results.iter().any(|r| r.accident.is_some()),
        "a fused run collided, so the Retired fast-forward was compared"
    );
    assert!(
        results.iter().any(|r| r.driver_engaged.is_some()),
        "a fused run was taken over, so the Disengaged regime was compared"
    );
}

#[test]
fn run_spec_matches_the_scalar_harness_attack_free_panda_and_inattentive() {
    let mut specs: Vec<RunSpec> = plan_no_attack_campaign(1, 7, DriverConfig::alert())
        .into_iter()
        .step_by(3)
        .collect();

    let mut panda = CampaignConfig::smoke(StrategyKind::ContextAware, 1);
    panda.panda_enabled = true;
    let panda_cells = attack_cells(&panda, AttackType::Acceleration, 4);
    assert!(panda_cells
        .iter()
        .all(|s| FusedLane::new(s.harness_config(TraceConfig::disabled())).is_some()));
    specs.extend(panda_cells);

    let mut inattentive = CampaignConfig::smoke(StrategyKind::ContextAware, 1);
    inattentive.driver = DriverConfig::inattentive();
    specs.extend(attack_cells(&inattentive, AttackType::Deceleration, 4));

    assert_run_specs_match(&specs);
}

#[test]
fn defense_spec_matches_the_scalar_harness_for_every_posture_and_threat() {
    let threats = threat_matrix();
    let scenarios = Scenario::matrix();
    let mut fused = 0;
    for (ti, &threat) in threats.iter().enumerate() {
        for policy in POLICIES {
            let spec = DefenseSpec {
                policy,
                threat,
                scenario: scenarios[ti % scenarios.len()],
                seed: mix_seed(0xD3F3, &[ti as u64, 0, 0]),
            };
            fused += usize::from(BatchHarness::fast_eligible(&spec.harness_config()));
            assert_eq!(spec.run(), oracle(spec.harness_config()), "{spec:?}");
        }
    }
    // Every posture against every threat: faults, gates, the IDS and the
    // detectors all ride the fused tick.
    assert_eq!(fused, threats.len() * POLICIES.len());
}

#[test]
fn resilience_spec_matches_the_scalar_harness() {
    let degrade = plan_resilience_campaign(&ResilienceConfig::new(7, 1));
    let undefended =
        plan_resilience_campaign(&ResilienceConfig::new(7, 1).with_defense(DefensePolicy::Off));
    // One cell per (fault kind, intensity) under each deployment, the
    // scenario cell rotating.
    let cells = Scenario::matrix().len();
    let picked = |plan: &[ResilienceSpec], shift: usize| {
        (0..plan.len() / cells)
            .map(|c| plan[c * cells + (c + shift) % cells])
            .collect::<Vec<_>>()
    };
    // Every resilience cell, faulted and defended alike, rides the fused
    // tick.
    assert!(degrade
        .iter()
        .chain(&undefended)
        .all(|s| BatchHarness::fast_eligible(&s.harness_config())));
    for spec in picked(&degrade, 0).iter().chain(&picked(&undefended, 5)) {
        assert_eq!(spec.run(), oracle(spec.harness_config()), "{spec:?}");
    }
}

#[test]
fn two_worker_pool_matches_the_scalar_harness() {
    let cfg = CampaignConfig::smoke(StrategyKind::ContextAware, 1);
    let specs = plan_attack_campaign(&cfg, AttackType::AccelerationSteering);
    let pooled = run_parallel_with(RunnerConfig::with_workers(2), &specs);
    let scalar: Vec<SimResult> = specs
        .iter()
        .map(|s| oracle(s.harness_config(TraceConfig::disabled())))
        .collect();
    assert_eq!(pooled, scalar);
}

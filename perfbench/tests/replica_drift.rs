use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use perfbench::replica::{EndState, Replica, Stage};
use platform::{DefensePolicy, Harness, HarnessConfig};
use units::Distance;

fn attacked(attack_type: AttackType, id: ScenarioId, seed: u64) -> HarnessConfig {
    let attack = AttackConfig {
        attack_type,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed,
        ..AttackConfig::default()
    };
    HarnessConfig::with_attack(Scenario::new(id, Distance::meters(70.0)), seed, attack)
}

fn faulted(kind: FaultKind, policy: DefensePolicy, seed: u64) -> HarnessConfig {
    let spec = FaultSpec::window(kind, FaultTarget::All, 500, 2000).with_intensity(1.0);
    HarnessConfig::no_attack(Scenario::new(ScenarioId::S2, Distance::meters(50.0)), seed)
        .with_faults(FaultSchedule::single(spec))
        .with_defense(policy)
}

#[test]
fn replica_ends_like_the_harness() {
    let mut panda = attacked(AttackType::Acceleration, ScenarioId::S1, 5);
    panda.panda_enabled = true;
    let configs = [
        attacked(AttackType::Acceleration, ScenarioId::S1, 5),
        attacked(AttackType::SteeringRight, ScenarioId::S2, 3).with_defense(DefensePolicy::Observe),
        attacked(AttackType::Deceleration, ScenarioId::S3, 8).with_defense(DefensePolicy::FailSafe),
        faulted(FaultKind::CanBusOff, DefensePolicy::Degrade, 11),
        faulted(FaultKind::SensorLatency, DefensePolicy::FailSafe, 12),
        panda,
    ];
    for cfg in configs {
        let (end, profile) = Replica::new(cfg).run();
        assert_eq!(end, EndState::of(&Harness::new(cfg).run()));
        assert_eq!(profile.ticks, units::STEPS_PER_SIM);
    }
}

#[test]
fn drift_check_sees_a_different_run() {
    let (end, _) = Replica::new(attacked(AttackType::Acceleration, ScenarioId::S1, 5)).run();
    let other = Harness::new(attacked(AttackType::Deceleration, ScenarioId::S1, 5)).run();
    assert_ne!(end, EndState::of(&other));
}

#[test]
fn idle_layers_take_no_spans() {
    let cfg = HarnessConfig::no_attack(Scenario::new(ScenarioId::S1, Distance::meters(70.0)), 1);
    let (_, profile) = Replica::new(cfg).run();
    for idle in [
        Stage::Faults,
        Stage::Observe,
        Stage::Mitm,
        Stage::Ids,
        Stage::Detectors,
    ] {
        assert_eq!(profile.spans[idle as usize], 0, "{idle:?}");
    }
    assert!(profile.spans[Stage::Adas as usize] > 0);
}

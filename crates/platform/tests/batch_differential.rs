//! Differential property tests: the scalar [`Harness`] is the bit-exactness
//! oracle for [`simulate`] and the [`BatchHarness`] run list.
//!
//! Two proptest blocks pin the two paths separately, so coverage of both
//! does not depend on what the RNG happens to draw:
//!
//! * **Fused** — attack-free or attacked, untraced, fault-free, no
//!   detectors: [`FusedLane::new`] must accept every such config, and
//!   `simulate` must produce the scalar's [`SimResult`] bit for bit.
//! * **Faulted** — fault schedules and attached detectors, traced or not:
//!   `FusedLane::new` must refuse exactly the traced configs, and
//!   `simulate` must still match a standalone scalar run either way.
//!
//! Each case also pushes two runs with different seeds into one run list,
//! so its push-order bookkeeping is exercised, not just single runs.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use platform::{
    simulate, BatchHarness, DefensePolicy, FusedLane, Harness, HarnessConfig, HazardParams,
    SimResult, TraceConfig,
};
use proptest::prelude::*;

fn base_config(scenario_i: usize, seed: u64, driver_alert: bool) -> HarnessConfig {
    HarnessConfig {
        scenario: Scenario::matrix()[scenario_i % Scenario::matrix().len()],
        seed,
        attack: None,
        driver: if driver_alert {
            DriverConfig::alert()
        } else {
            DriverConfig::inattentive()
        },
        panda_enabled: false,
        defense: DefensePolicy::Off,
        hazard_params: HazardParams::default(),
        trace: TraceConfig::disabled(),
        faults: FaultSchedule::empty(),
    }
}

fn attack(type_i: usize, strat_i: usize, strategic: bool, seed: u64) -> AttackConfig {
    AttackConfig {
        attack_type: AttackType::ALL[type_i % AttackType::ALL.len()],
        strategy: StrategyKind::ALL[strat_i % StrategyKind::ALL.len()],
        value_mode: if strategic {
            ValueMode::Strategic
        } else {
            ValueMode::Fixed
        },
        seed,
        ..AttackConfig::default()
    }
}

fn fault_schedule(kind_i: usize, intensity: f64, start: u64, duration: u64) -> FaultSchedule {
    let spec = FaultSpec::window(
        FaultKind::ALL[kind_i % FaultKind::ALL.len()],
        FaultTarget::All,
        start,
        duration,
    )
    .with_intensity(intensity);
    FaultSchedule::single(spec)
}

/// Runs every config through `simulate` and through one shared run list,
/// asserting both reproduce the scalar oracle, the list in push order.
fn assert_matches_scalar(configs: &[HarnessConfig]) {
    let oracle: Vec<SimResult> = configs.iter().map(|&cfg| Harness::new(cfg).run()).collect();
    for (&cfg, want) in configs.iter().zip(&oracle) {
        assert_eq!(&simulate(cfg), want, "simulate must match the scalar oracle");
    }
    let mut batch = BatchHarness::new();
    for &cfg in configs {
        batch.admit(cfg);
    }
    assert_eq!(batch.run(), oracle, "the run list must keep push order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused runs: untraced, fault-free, undetected — attacked or clean —
    /// must route onto the fused tick and still reproduce the scalar
    /// oracle bit for bit.
    #[test]
    fn fast_lanes_match_the_scalar_oracle(
        scenario_i in 0..12usize,
        seed in any::<u64>(),
        driver_alert in any::<bool>(),
        atk in proptest::option::of((0..6usize, 0..4usize, any::<bool>(), any::<u64>())),
        scenario_j in 0..12usize,
        seed_b in any::<u64>(),
    ) {
        let mut a = base_config(scenario_i, seed, driver_alert);
        a.attack = atk.map(|(t, s, v, sd)| attack(t, s, v, sd));
        // A second clean run in the same run list, with its own seed.
        let b = base_config(scenario_j, seed_b, !driver_alert);

        prop_assert!(FusedLane::new(a).is_some(), "run a must take the fused tick");
        prop_assert!(FusedLane::new(b).is_some(), "run b must take the fused tick");
        let mut probe = BatchHarness::new();
        probe.admit(a);
        probe.admit(b);
        prop_assert_eq!(probe.fast_lanes(), 2);

        assert_matches_scalar(&[a, b]);
    }

    /// Faulted runs: fault windows and attached detectors ride the fused
    /// tick unless the run is traced, which takes the scalar harness —
    /// results identical to a standalone scalar run either way, even mixed
    /// into one run list with a fused run.
    #[test]
    fn exact_lanes_match_the_scalar_oracle_with_traces(
        scenario_i in 0..12usize,
        seed in any::<u64>(),
        atk in proptest::option::of((0..6usize, 0..4usize, any::<bool>(), any::<u64>())),
        kind_i in 0..9usize,
        intensity in 0.05..1.0f64,
        start in 100..1000u64,
        duration in 100..2000u64,
        traced in any::<bool>(),
        observed in any::<bool>(),
    ) {
        let mut exact = base_config(scenario_i, seed, true);
        exact.attack = atk.map(|(t, s, v, sd)| attack(t, s, v, sd));
        exact.faults = fault_schedule(kind_i, intensity, start, duration);
        if traced {
            exact.trace = TraceConfig::enabled(256);
        }
        if observed {
            exact.defense = DefensePolicy::Observe;
        }
        // A fused run sharing the run list: mixing the two paths must
        // keep push order intact.
        let fast = base_config(scenario_i + 1, seed ^ 0x9E37_79B9, true);

        prop_assert_eq!(
            FusedLane::new(exact).is_none(),
            traced,
            "a traced run takes the scalar harness"
        );
        prop_assert!(FusedLane::new(fast).is_some());
        let mut probe = BatchHarness::new();
        probe.admit(exact);
        probe.admit(fast);
        prop_assert_eq!(probe.exact_lanes(), usize::from(traced));
        prop_assert_eq!(probe.fast_lanes(), 2 - usize::from(traced));

        assert_matches_scalar(&[exact, fast]);
    }
}

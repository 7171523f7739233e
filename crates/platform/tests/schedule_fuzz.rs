//! Deterministic fuzz smoke for the fused tick against the scalar oracle.
//!
//! Same philosophy as campaignd's `wal_fuzz.rs`: no external fuzzer, just
//! a fixed-seed splitmix64 stream. Each round draws one untraced config
//! that mixes everything a campaign cell can carry — an attack (type,
//! strategy, value mode) or none, up to [`MAX_FAULTS`] fault specs of
//! random kind, target, window, intensity and delay, a defense posture,
//! Panda on or off, and the driver — and checks that [`simulate`] (the
//! fused tick) reproduces `Harness::new(cfg).run()` bit for bit. The whole
//! draw then runs through `run_campaign_cells` on two workers, which must
//! return the serial results in plan order.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget, MAX_FAULTS};
use platform::defense_campaign::POLICIES;
use platform::experiment::{run_campaign_cells, RunnerConfig};
use platform::{simulate, FusedLane, Harness, HarnessConfig, SimResult};

/// Rounds per run: sized to stay well under ten seconds in the debug test
/// profile on a 2-vCPU box.
const ROUNDS: usize = 32;

/// splitmix64, restated locally (same generator as `units::mix`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fault_spec(rng: &mut Rng) -> FaultSpec {
    let kind = rng.pick(&FaultKind::ALL);
    let target = rng.pick(&[
        FaultTarget::Gps,
        FaultTarget::Camera,
        FaultTarget::Radar,
        FaultTarget::All,
    ]);
    // Windows anywhere in the 5,000-tick run, some running past its end;
    // delays up to past the engine's 256-tick history ring (clamped).
    let start = rng.below(5_000) as u64;
    let duration = 1 + rng.below(2_500) as u64;
    FaultSpec::window(kind, target, start, duration)
        .with_intensity(rng.unit())
        .with_delay(1 + rng.below(300) as u32)
}

fn config(rng: &mut Rng) -> HarnessConfig {
    let scenario = rng.pick(&Scenario::matrix());
    let mut cfg = HarnessConfig::no_attack(scenario, rng.next());
    if rng.below(4) != 0 {
        cfg.attack = Some(AttackConfig {
            attack_type: rng.pick(&AttackType::ALL),
            strategy: rng.pick(&StrategyKind::ALL),
            value_mode: if rng.coin() {
                ValueMode::Strategic
            } else {
                ValueMode::Fixed
            },
            seed: rng.next(),
            ..AttackConfig::default()
        });
    }
    let mut faults = FaultSchedule::empty();
    for _ in 0..rng.below(MAX_FAULTS + 1) {
        faults.add(fault_spec(rng));
    }
    cfg.faults = faults;
    cfg.defense = rng.pick(&POLICIES);
    cfg.panda_enabled = rng.coin();
    cfg.driver = if rng.coin() {
        DriverConfig::alert()
    } else {
        DriverConfig::inattentive()
    };
    cfg
}

#[test]
fn fused_tick_matches_the_scalar_harness_on_random_schedules() {
    let mut rng = Rng(0x5EED_F00D_CAFE_0017);
    let configs: Vec<HarnessConfig> = (0..ROUNDS).map(|_| config(&mut rng)).collect();

    let mut serial: Vec<SimResult> = Vec::with_capacity(configs.len());
    for cfg in &configs {
        assert!(FusedLane::new(*cfg).is_some(), "an untraced config is fused: {cfg:?}");
        let fused = simulate(*cfg);
        assert_eq!(fused, Harness::new(*cfg).run(), "{cfg:?}");
        serial.push(fused);
    }

    let pooled = run_campaign_cells(RunnerConfig::with_workers(2), configs.clone(), |cfg| {
        simulate(*cfg)
    });
    assert_eq!(pooled, serial, "two workers return the serial results in plan order");

    // The draw really exercised what it claims to mix.
    assert!(configs.iter().any(|c| c.faults.len() >= 3));
    assert!(configs.iter().any(|c| c.panda_enabled && c.attack.is_some()));
    assert!(serial.iter().any(|r| r.faults_injected > 0));
    assert!(serial.iter().any(|r| r.frames_rewritten > 0));
    assert!(serial.iter().any(|r| r.degraded_ticks > 0));
}

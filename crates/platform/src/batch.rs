//! The fused tick: one campaign run stepped without the message bus.
//!
//! A [`FusedLane`] owns one run's components as plain fields and steps
//! them in the scalar pipeline order (sample → attacker → ADAS →
//! actuation → driver → physics → hazards). Per-tick math is the scalar
//! component code, bit for bit — the scalar [`Harness`] is the oracle and
//! a fused run must equal it exactly (`SimResult` for `SimResult`).
//!
//! # Regimes
//!
//! A config qualifies for the fused tick when it is untraced, carries no
//! fault schedule, attaches no detectors and leaves Panda off
//! ([`BatchHarness::fast_eligible`]). Such a run moves through three
//! regimes, each provably bit-equivalent to the scalar tick:
//!
//! - **Full**: the whole pipeline runs, fused — sensors feed the ADAS and
//!   the attacker directly (the harness publishes at most one message per
//!   stream per tick, so newest-wins draining and a direct feed are
//!   identical), and actuator frames are only materialized on ticks the
//!   attacker actively rewrites; other ticks advance the CAN rolling
//!   counters and quantize the command through the same DBC round trip
//!   the wire would apply.
//! - **Disengaged**: the driver has taken over (permanent — the driver
//!   model never hands back control), the attack is halted (latched off),
//!   and the disengaged ADAS emits a default command, no alerts and no
//!   frames, so sensing and control are dead computation; only the
//!   driver, physics and hazard bookkeeping still run.
//! - **Retired**: a collision froze the world; a scalar run spends its
//!   remaining ticks advancing only the clock, which the lane fast-
//!   forwards in one burst at the moment of collision.
//!
//! Any other config runs on the scalar [`Harness`]; [`simulate`] picks
//! the path.

use attack_core::{AttackEngine, Observations};
use driver_model::{Driver, Observation};
use driving_sim::{ActuatorCommand, SensorSuite, World, RADAR_RANGE};
use msgbus::schema::{CarControl, CarState};
use msgbus::Bus;
use openadas::{Adas, AdasOutput, CommandEncoder, DegradationState};
use units::Tick;

use crate::{Harness, HarnessConfig, HazardDetector, SimResult};

/// Where a fused lane is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Pre-takeover, pre-collision: the whole pipeline runs.
    Full,
    /// The driver took over: sensing and control are dead computation.
    Disengaged,
    /// Collision: the world has been fast-forwarded to the end of the run.
    Retired,
}

/// One simulation run on the fused tick: the scalar components minus the
/// message bus, Panda, faults, detectors and the flight recorder, none of
/// which an eligible config uses.
#[derive(Debug)]
pub struct FusedLane {
    config: HarnessConfig,
    world: World,
    sensors: SensorSuite,
    adas: Adas,
    attacker: Option<AttackEngine>,
    driver: Driver,
    hazards: HazardDetector,
    actuator: CommandEncoder,
    out: AdasOutput,
    /// Previous tick's `carState` — what the attacker's eavesdropper would
    /// have drained this tick (`None` before tick 1).
    car: Option<CarState>,
    regime: Regime,
    last_cmd: CarControl,
    alert_events: u64,
    ever_disengaged: bool,
    degraded_ticks: u64,
    failsafe_ticks: u64,
    first_degraded: Option<Tick>,
    first_failsafe: Option<Tick>,
}

impl FusedLane {
    /// Wires up a fused run, or `None` when the config is not
    /// [`BatchHarness::fast_eligible`].
    pub fn new(config: HarnessConfig) -> Option<Self> {
        if !BatchHarness::fast_eligible(&config) {
            return None;
        }
        Some(Self {
            world: World::new(config.scenario, config.seed),
            sensors: SensorSuite::new(config.seed),
            // The ADAS and the attacker each get a private idle bus:
            // nothing publishes on it and the fused tick never drains it.
            adas: Adas::new(&Bus::new(), config.scenario.cruise_speed),
            // Same seed derivation as the scalar harness.
            attacker: config.attack.map(|mut a| {
                a.seed = a.seed.wrapping_add(config.seed);
                AttackEngine::new(&Bus::new(), a)
            }),
            driver: Driver::new(config.driver),
            hazards: HazardDetector::new(config.hazard_params),
            actuator: CommandEncoder::new(),
            // Room for one cycle's three actuator frames: the lane first
            // encodes frames when its attack starts injecting, mid-run,
            // and that tick must not allocate (`tests/alloc.rs`).
            out: AdasOutput {
                frames: Vec::with_capacity(3),
                ..AdasOutput::default()
            },
            car: None,
            regime: Regime::Full,
            last_cmd: CarControl::default(),
            alert_events: 0,
            ever_disengaged: false,
            degraded_ticks: 0,
            failsafe_ticks: 0,
            first_degraded: None,
            first_failsafe: None,
            config,
        })
    }

    /// Whether the run has completed its 5,000 ticks.
    pub fn finished(&self) -> bool {
        self.world.finished()
    }

    /// Advances one control cycle.
    pub fn step(&mut self) {
        let tick = self.world.now();
        let cmd = match self.regime {
            Regime::Full => self.full_command(tick),
            Regime::Disengaged => self.disengaged_command(tick),
            Regime::Retired => return,
        };

        // Physics, then hazards over the stepped world.
        self.world.step(cmd);
        self.hazards.step(&self.world);
        if self.world.collision().is_some() {
            // A collision ends the run physically; the frozen world only
            // advances its clock from here, so run it out in one burst —
            // the same number of `World::step` calls as the scalar run.
            self.regime = Regime::Retired;
            while !self.world.finished() {
                self.world.step(ActuatorCommand::default());
            }
        } else if self.ever_disengaged {
            self.regime = Regime::Disengaged;
        }
    }

    /// Runs to completion and returns the result.
    pub fn run(mut self) -> SimResult {
        while !self.finished() {
            self.step();
        }
        self.result()
    }

    /// A full-pipeline tick up to the physics step — the same sequence as
    /// scalar [`Harness::step`] stages 1–7 — returning the command the
    /// world executes.
    fn full_command(&mut self, tick: Tick) -> ActuatorCommand {
        // Sensors sample ground truth.
        let frame = self.sensors.sample(&self.world);

        // The attacker eavesdrops and matches contexts. The synthesized
        // observations are exactly what its bus taps would drain: this
        // tick's sensor samples plus the previous tick's `carState`.
        let encode = match self.attacker.as_mut() {
            // A dormant engine can never inject again; skipping its
            // observe/decide cycle is unobservable.
            Some(att) if !att.dormant(tick) => {
                let obs = Observations {
                    gps: Some(frame.gps),
                    lane: Some(frame.lane),
                    radar: Some(frame.radar),
                    car_state: self.car,
                };
                att.observe_with(tick, &obs);
                att.is_active()
            }
            _ => false,
        };

        // The ADAS control cycle, bus-free. Frames are only materialized
        // when the attacker injects this tick.
        let out = &mut self.out;
        let cycle = self
            .adas
            .step_direct(tick, &frame.gps, &frame.lane, &frame.radar, encode, out);
        self.alert_events += out.new_alerts.len() as u64;

        // Degradation bookkeeping. Without faults or detectors the ladder
        // never leaves Nominal, but the accounting is kept identical to
        // the scalar harness rather than assumed away.
        match out.degradation {
            DegradationState::Nominal => {}
            DegradationState::FailSafe => {
                self.degraded_ticks += 1;
                self.failsafe_ticks += 1;
                self.first_degraded.get_or_insert(tick);
                self.first_failsafe.get_or_insert(tick);
            }
            DegradationState::DegradedAlcOff | DegradationState::DegradedAccOff => {
                self.degraded_ticks += 1;
                self.first_degraded.get_or_insert(tick);
            }
        }

        // Man-in-the-middle and actuator-side decode. On injection ticks
        // the real frames were encoded and the attack rewrites them in
        // flight; otherwise the quantized command is exactly what the
        // decoder would have produced (`None` holds the last command, the
        // empty-batch behaviour).
        let cmd = if encode {
            if let Some(att) = self.attacker.as_mut() {
                att.process_frames_in_place(tick, &mut out.frames);
            }
            self.actuator.decode_actuators(&out.frames, self.last_cmd)
        } else {
            cycle.quantized.unwrap_or(self.last_cmd)
        };
        self.last_cmd = cmd;
        self.car = Some(cycle.car);

        // The driver watches the executed behaviour and any alert.
        let alert = !out.new_alerts.is_empty();
        let driver_cmd = self.drive(tick, cmd, alert);
        if driver_cmd.is_some() && !self.ever_disengaged {
            self.adas.disengage();
            if let Some(att) = self.attacker.as_mut() {
                att.halt(tick);
            }
            self.ever_disengaged = true;
        }
        driver_cmd.unwrap_or(ActuatorCommand {
            accel: cmd.accel,
            steer: cmd.steer,
        })
    }

    /// A post-takeover tick: the held actuator command and the world's
    /// truth feed the engaged driver; everything upstream is skipped.
    fn disengaged_command(&mut self, tick: Tick) -> ActuatorCommand {
        let cmd = self.last_cmd;
        // The disengaged ADAS commands a clamped default: saturation and
        // FCW alerts cannot fire, and without faults the ladder stays
        // Nominal — no alert ticks.
        self.drive(tick, cmd, false).unwrap_or(ActuatorCommand {
            accel: cmd.accel,
            steer: cmd.steer,
        })
    }

    /// Steps the driver model on the executed command; `Some` is the
    /// driver's own command once they have taken over.
    fn drive(&mut self, tick: Tick, cmd: CarControl, adas_alert: bool) -> Option<ActuatorCommand> {
        let ego = self.world.ego();
        let gap = self.world.gap();
        let obs = Observation {
            speed: ego.speed(),
            v_cruise: self.config.scenario.cruise_speed,
            accel_cmd: cmd.accel,
            steer_cmd: cmd.steer,
            adas_alert,
            lane_offset: ego.d(),
            lead_gap: (gap.raw() > 0.0 && gap < RADAR_RANGE).then_some(gap),
        };
        self.driver.step(tick, &obs).map(|d| ActuatorCommand {
            accel: d.accel,
            steer: d.steer,
        })
    }

    /// The run's [`SimResult`] so far, mirroring the scalar
    /// `Harness::result_so_far` field for field (a fused run carries no
    /// fault engine, detectors or Panda, so those fields are their
    /// constructor values).
    pub fn result(&self) -> SimResult {
        let attacker = self.attacker.as_ref();
        let first_any = self.hazards.first_any();
        let attack_activated = attacker.and_then(|a| a.timeline().activated_at());
        let tth = match (attack_activated, first_any) {
            (Some(_), Some((h, _))) => attacker.and_then(|a| a.timeline().tth(h)),
            _ => None,
        };
        SimResult {
            seed: self.config.seed,
            first_hazard: first_any.map(|(t, k)| (t.time(), k)),
            hazard_kinds: self.hazards.kinds(),
            accident: self.hazards.accident().map(|(t, k)| (t.time(), k)),
            alert_events: self.alert_events,
            fcw_events: self.adas.fcw_events(),
            lane_invasions: self.world.lane_invasions(),
            duration: self.world.now().time(),
            attack_activated: attack_activated.map(Tick::time),
            tth,
            driver_noticed: self.driver.noticed_at().map(Tick::time),
            driver_engaged: self.driver.engaged_at().map(Tick::time),
            frames_rewritten: attacker.map_or(0, AttackEngine::frames_rewritten),
            panda_blocked: 0,
            invariant_detected: None,
            monitor_detected: None,
            degraded_ticks: self.degraded_ticks,
            failsafe_ticks: self.failsafe_ticks,
            first_degraded: self.first_degraded.map(Tick::time),
            first_failsafe: self.first_failsafe.map(Tick::time),
            recovery_latency: None,
            faults_injected: 0,
            ids_detected: None,
            gate_rejections: self.adas.gate_rejections(),
        }
    }
}

/// Runs one simulation: the campaign entry point every spec's `run()`
/// calls.
///
/// A [`BatchHarness::fast_eligible`] config runs as a [`FusedLane`], any
/// other config on the scalar [`Harness`]; both are bit-identical to
/// `Harness::new(config).run()`, which stays the oracle. Campaigns fan
/// cells out over the pool one run per task; stepping several runs in
/// lockstep measured no consistent gain (DESIGN.md, "Which path a
/// campaign cell takes").
pub fn simulate(config: HarnessConfig) -> SimResult {
    match FusedLane::new(config) {
        Some(lane) => lane.run(),
        None => Harness::new(config).run(),
    }
}

/// A run list executed one run at a time on the calling thread.
///
/// Push each run's [`HarnessConfig`]; [`run`](Self::run) sends every one
/// through [`simulate`] and returns one [`SimResult`] per run in push
/// order, bit-identical to running each config through the scalar
/// harness. Benchmarks use it for a single-threaded pass over a workload.
#[derive(Debug, Default)]
pub struct BatchHarness {
    configs: Vec<HarnessConfig>,
}

impl BatchHarness {
    /// An empty run list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a config qualifies for the fused tick. Traced runs, fault
    /// schedules, attached detectors and Panda checks take the scalar
    /// [`Harness`] instead.
    pub fn fast_eligible(config: &HarnessConfig) -> bool {
        !config.trace.enabled
            && config.faults.is_empty()
            && !config.defense.detectors_attached()
            && !config.panda_enabled
    }

    /// Adds one run. (Named `admit`, not `push`: workspace convention
    /// reserves std container method names for std semantics so the
    /// lint's name-based call graph stays precise.)
    pub fn admit(&mut self, config: HarnessConfig) {
        self.configs.push(config);
    }

    /// Runs that take the fused tick.
    pub fn fast_lanes(&self) -> usize {
        self.configs.iter().filter(|c| Self::fast_eligible(c)).count()
    }

    /// Runs that take the scalar harness.
    pub fn exact_lanes(&self) -> usize {
        self.configs.len() - self.fast_lanes()
    }

    /// Runs every config to completion; results are in push order.
    pub fn run(self) -> Vec<SimResult> {
        self.configs.into_iter().map(simulate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
    use driving_sim::{Scenario, ScenarioId};
    use units::Distance;

    fn scenario(id: ScenarioId, gap: f64) -> Scenario {
        Scenario::new(id, Distance::meters(gap))
    }

    fn attack(attack_type: AttackType, strategy: StrategyKind, value_mode: ValueMode) -> AttackConfig {
        AttackConfig {
            attack_type,
            strategy,
            value_mode,
            ..AttackConfig::default()
        }
    }

    #[test]
    fn fused_matches_scalar_attack_free() {
        for (s, gap, seed) in [
            (ScenarioId::S1, 70.0, 3),
            (ScenarioId::S2, 100.0, 4),
            (ScenarioId::S4, 50.0, 5),
        ] {
            let cfg = HarnessConfig::no_attack(scenario(s, gap), seed);
            let lane = FusedLane::new(cfg).expect("attack-free runs are eligible");
            assert_eq!(lane.run(), Harness::new(cfg).run());
        }
    }

    #[test]
    fn fused_matches_scalar_under_attack() {
        let mut rewritten = 0;
        for (i, (t, v)) in [
            (AttackType::Acceleration, ValueMode::Strategic),
            (AttackType::Deceleration, ValueMode::Fixed),
            (AttackType::SteeringRight, ValueMode::Fixed),
            (AttackType::AccelerationSteering, ValueMode::Strategic),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = HarnessConfig::with_attack(
                scenario(ScenarioId::S1, 70.0),
                5 + i as u64,
                attack(t, StrategyKind::ContextAware, v),
            );
            let lane = FusedLane::new(cfg).expect("attacked runs are eligible");
            let result = lane.run();
            assert_eq!(result, Harness::new(cfg).run());
            rewritten += result.frames_rewritten;
        }
        assert!(rewritten > 0, "at least one run saw live injection");
    }

    #[test]
    fn ineligible_configs_take_the_scalar_harness() {
        let mut cfg = HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 9);
        cfg.panda_enabled = true;
        assert!(FusedLane::new(cfg).is_none());
        let mut batch = BatchHarness::new();
        batch.admit(cfg);
        assert_eq!(batch.fast_lanes(), 0);
        assert_eq!(batch.exact_lanes(), 1);
        assert_eq!(batch.run(), vec![Harness::new(cfg).run()]);
    }

    #[test]
    fn mixed_run_list_keeps_push_order() {
        let fast = HarnessConfig::no_attack(scenario(ScenarioId::S2, 100.0), 11);
        let mut exact = HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 12);
        exact.defense = crate::DefensePolicy::Observe;
        let mut batch = BatchHarness::new();
        batch.admit(fast);
        batch.admit(exact);
        batch.admit(fast);
        assert_eq!(batch.fast_lanes(), 2);
        assert_eq!(batch.exact_lanes(), 1);
        let expected = vec![
            Harness::new(fast).run(),
            Harness::new(exact).run(),
            Harness::new(fast).run(),
        ];
        assert_eq!(batch.run(), expected);
    }
}

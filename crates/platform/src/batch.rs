//! The fused tick: one campaign run stepped without the message bus.
//!
//! A [`FusedLane`] owns one run's components and steps them through the
//! same stage methods as the scalar [`Harness`], in the same order
//! (sample → faults → attacker → ADAS → MITM → CAN faults → IDS → Panda →
//! decode → detectors → driver → physics → hazards). Per-tick math is the
//! scalar component code, bit for bit — the scalar [`Harness`] is the
//! oracle and a fused run must equal it exactly (`SimResult` for
//! `SimResult`).
//!
//! # Regimes
//!
//! Every untraced config runs on the fused tick
//! ([`BatchHarness::fast_eligible`]): fault schedules, the defense
//! postures and Panda are optional fields of the lane. A run moves through
//! three regimes, each provably bit-equivalent to the scalar tick:
//!
//! - **Full**: the whole pipeline runs, fused — the sensors' publish plan
//!   (the fault engine's, or the nominal one) feeds the ADAS and the
//!   attacker directly (the harness publishes at most one message per
//!   stream per tick, so newest-wins draining and a direct feed are
//!   identical). Actuator frames are only materialized on ticks where
//!   something inspects the wire: the attacker injects, a CAN fault window
//!   is open, the IDS is attached or Panda is on. Other ticks advance the
//!   CAN rolling counters and quantize the command through the same DBC
//!   round trip the wire would apply.
//! - **Disengaged**: the driver has taken over (permanent — the driver
//!   model never hands back control), the attack is halted (latched off),
//!   and the disengaged ADAS emits a default command, no alerts and no
//!   frames, so sensing and control are dead computation; only the
//!   driver, physics and hazard bookkeeping still run. Only a lane with no
//!   fault engine and no detectors settles here: faults keep moving the
//!   degradation ladder and its counters after a takeover, and the
//!   detectors keep watching.
//! - **Retired**: a collision froze the world; a scalar run spends its
//!   remaining ticks advancing only the clock, which the lane fast-
//!   forwards in one burst at the moment of collision.
//!
//! A traced config runs on the scalar [`Harness`], whose recorder reads
//! the bus; [`simulate`] picks the path.

use attack_core::Observations;
use driving_sim::ActuatorCommand;
use msgbus::schema::CarState;
use msgbus::Bus;
use openadas::AdasOutput;
use units::Tick;

use crate::harness::RunParts;
use crate::{Harness, HarnessConfig, SimResult};

/// Where a fused lane is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// The whole pipeline runs.
    Full,
    /// The driver took over: sensing and control are dead computation.
    Disengaged,
    /// Collision: the world has been fast-forwarded to the end of the run.
    Retired,
}

/// One simulation run on the fused tick: the scalar components minus the
/// message bus and the flight recorder.
#[derive(Debug)]
pub struct FusedLane {
    parts: RunParts,
    out: AdasOutput,
    /// Previous tick's `carState` — what the attacker's eavesdropper would
    /// have drained this tick (`None` before tick 1).
    car: Option<CarState>,
    regime: Regime,
}

impl FusedLane {
    /// Wires up a fused run, or `None` when the config is not
    /// [`BatchHarness::fast_eligible`] (it is traced).
    pub fn new(config: HarnessConfig) -> Option<Self> {
        if !BatchHarness::fast_eligible(&config) {
            return None;
        }
        Some(Self {
            // The ADAS and the attacker tap a private idle bus: nothing
            // publishes on it and the fused tick never drains it.
            parts: RunParts::new(config, &Bus::new()),
            // Room for one cycle's three actuator frames and its alerts (at
            // most two debounced ones, a forced rung and a ladder step): a
            // lane may first encode frames or raise an alert mid-run, and
            // that tick must not allocate (`tests/alloc.rs`).
            out: AdasOutput {
                frames: Vec::with_capacity(3),
                new_alerts: Vec::with_capacity(4),
                ..AdasOutput::default()
            },
            car: None,
            regime: Regime::Full,
        })
    }

    /// Whether the run has completed its 5,000 ticks.
    pub fn finished(&self) -> bool {
        self.parts.world.finished()
    }

    /// Advances one control cycle.
    pub fn step(&mut self) {
        let tick = self.parts.world.now();
        let cmd = match self.regime {
            Regime::Full => self.full_command(tick),
            Regime::Disengaged => {
                // The disengaged ADAS decodes to the held command and
                // raises no alerts; see the module docs.
                let held = self.parts.last_cmd;
                self.parts.drive(tick, held, false)
            }
            Regime::Retired => return,
        };

        let parts = &mut self.parts;
        parts.advance(cmd);
        if parts.world.collision().is_some() {
            // A collision ends the run physically; the frozen world only
            // advances its clock from here, so run it out in one burst —
            // the same number of `World::step` calls as the scalar run.
            self.regime = Regime::Retired;
            while !parts.world.finished() {
                parts.world.step(ActuatorCommand::default());
            }
        } else if parts.ever_disengaged && parts.faults.is_none() && parts.ids.is_none() {
            // The IDS, the gates and the other detectors attach together.
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

    /// A full-pipeline tick up to the physics step — the same stages as
    /// scalar [`Harness::step`] 1–7 — returning the command the world
    /// executes.
    fn full_command(&mut self, tick: Tick) -> ActuatorCommand {
        let parts = &mut self.parts;
        let (frame, plan) = parts.sense(tick);

        // The attacker eavesdrops and matches contexts. The synthesized
        // observations are exactly what its bus taps would drain: this
        // tick's planned sensor messages plus the previous tick's
        // `carState`.
        let injecting = match parts.attacker.as_mut() {
            // A dormant engine can never inject again; skipping its
            // observe/decide cycle is unobservable.
            Some(att) if !att.dormant(tick) => {
                let obs = Observations {
                    gps: plan.gps.map(|(_, g)| g),
                    lane: plan.lane.map(|(_, l)| l),
                    radar: plan.radar.map(|(_, r)| r),
                    car_state: self.car,
                };
                att.observe_with(tick, &obs);
                att.is_active()
            }
            _ => false,
        };

        // The ADAS control cycle, bus-free. Frames are materialized only
        // when something downstream inspects the wire this tick.
        let encode = injecting
            || parts.ids.is_some()
            || parts.config.panda_enabled
            || parts.faults.as_ref().is_some_and(|f| f.can_fault_active(tick));
        let out = &mut self.out;
        let cycle = parts.adas.step_direct(
            tick,
            plan.gps.as_ref().map(|(t, g)| (*t, g)),
            plan.lane.as_ref().map(|(t, l)| (*t, l)),
            plan.radar.as_ref().map(|(t, r)| (*t, r)),
            encode,
            out,
        );
        parts.account(tick, out);

        // Man-in-the-middle and delivery. On encoded ticks the real frames
        // take the scalar path; otherwise nothing would touch them, and
        // the quantized command is exactly what the decoder would have
        // produced (`None` holds the last command, the empty-batch
        // behaviour).
        let cmd = if encode {
            if injecting {
                if let Some(att) = parts.attacker.as_mut() {
                    att.process_frames_in_place(tick, &mut out.frames);
                }
            }
            parts.deliver(tick, out)
        } else {
            cycle.quantized.unwrap_or(parts.last_cmd)
        };
        parts.last_cmd = cmd;
        self.car = Some(cycle.car);

        parts.watch(tick, out.control, &frame, cmd);
        parts.drive(tick, cmd, !out.new_alerts.is_empty())
    }

    /// The run's [`SimResult`] so far, field for field the scalar
    /// `Harness::result_so_far`.
    pub fn result(&self) -> SimResult {
        self.parts.result()
    }
}

/// Runs one simulation: the campaign entry point every spec's `run()`
/// calls.
///
/// An untraced config runs as a [`FusedLane`], a traced one on the scalar
/// [`Harness`]; both are bit-identical to
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

    /// Whether a config runs on the fused tick: every untraced one. A
    /// traced run takes the scalar [`Harness`], whose recorder reads the
    /// bus.
    pub fn fast_eligible(config: &HarnessConfig) -> bool {
        !config.trace.enabled
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
        let cfg = HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 9)
            .traced(crate::TraceConfig::enabled(64));
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
        let exact = HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 12)
            .traced(crate::TraceConfig::enabled(64));
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

//! A staged replica of `platform::Harness::step`, timed from outside.
//!
//! The replica wires the same components the harness wires, from their
//! public constructors, and calls the same public stage functions in the
//! same order. Between stages it takes one `Instant` timestamp; the span
//! from one timestamp to the next is charged to the stage that ran in it.
//! A stage whose component is not attached (no attacker, no fault engine,
//! no detectors) takes no timestamp and is charged nothing, so an idle
//! layer reads exactly zero.
//!
//! Every span also contains one `Instant::now()` call. [`span_cost_ns`]
//! measures that cost and [`StageProfile::self_ns`] subtracts it.
//!
//! The replica is only useful while it stays the same program as the
//! harness. [`EndState`] captures the parts of a run's outcome that any
//! drift would change, and the benchmark compares it with `Harness::run`
//! on every simulation it replays.

use std::hint::black_box;
use std::time::Instant;

use attack_core::AttackEngine;
use defense::{
    CanIds, ContextMonitor, ContextObservation, ControlInvariantDetector, DefensePolicy, IdsConfig,
    IdsVerdict,
};
use driver_model::{Driver, Observation};
use driving_sim::{ActuatorCommand, SensorSuite, World, RADAR_RANGE};
use faultinj::FaultEngine;
use msgbus::schema::CarControl;
use msgbus::{Bus, Payload};
use openadas::{Adas, AdasOutput, CommandEncoder, DegradationState, GateConfig, PandaSafety};
use platform::{AccidentKind, HarnessConfig, HazardDetector, HazardKind, SimResult};
use units::{Seconds, Tick};

/// The numbered stages of `Harness::step`, named by the crate that owns
/// the code each one runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// 1. Sensor sampling and the sensor publishes onto the bus.
    Sensors,
    /// 1. and 4b. Sensor-side and CAN-side fault injection.
    Faults,
    /// 2. The attacker's eavesdrop and context match.
    Observe,
    /// 3. `Adas::step_into`: gates, control, degradation, CAN encode.
    Adas,
    /// 4. The attacker's man-in-the-middle frame rewrite.
    Mitm,
    /// 4c. The CAN IDS and the defense policy's reaction to it.
    Ids,
    /// 5. Panda firmware checks.
    Panda,
    /// 6. Actuator-side decode of the delivered frames.
    Decode,
    /// 6b. The control-invariant detector and the context monitor.
    Detectors,
    /// 7. The driver model, including its takeover.
    Driver,
    /// 8. Vehicle physics (also the whole of a post-collision tick).
    Physics,
    /// 8. Hazard bookkeeping.
    Hazard,
}

impl Stage {
    /// Every stage, in tick order.
    pub const ALL: [Stage; 12] = [
        Stage::Sensors,
        Stage::Faults,
        Stage::Observe,
        Stage::Adas,
        Stage::Mitm,
        Stage::Ids,
        Stage::Panda,
        Stage::Decode,
        Stage::Detectors,
        Stage::Driver,
        Stage::Physics,
        Stage::Hazard,
    ];

    /// The metric prefix: `<crate>[.<stage>]`.
    pub fn metric(self) -> &'static str {
        match self {
            Stage::Sensors => "driving-sim.sensors",
            Stage::Faults => "faultinj",
            Stage::Observe => "core.observe",
            Stage::Adas => "openadas.adas",
            Stage::Mitm => "core.mitm",
            Stage::Ids => "defense.ids",
            Stage::Panda => "openadas.panda",
            Stage::Decode => "openadas.decode",
            Stage::Detectors => "defense.detectors",
            Stage::Driver => "driver-model",
            Stage::Physics => "driving-sim.physics",
            Stage::Hazard => "platform.hazard",
        }
    }
}

/// Time and work counts accumulated over replayed ticks.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    /// Raw span nanoseconds per stage, indexed like [`Stage::ALL`].
    pub span_ns: [u64; 12],
    /// Spans taken per stage.
    pub spans: [u64; 12],
    /// Ticks replayed.
    pub ticks: u64,
    /// Ticks after a collision froze the world.
    pub frozen_ticks: u64,
    /// Live ticks after the driver took over.
    pub disengaged_ticks: u64,
    /// Messages published on the bus.
    pub publishes: u64,
    /// CAN frames the ADAS emitted.
    pub frames: u64,
    /// CAN frames the attacker rewrote.
    pub frames_rewritten: u64,
}

impl StageProfile {
    /// Adds another profile into this one.
    pub fn absorb(&mut self, other: &StageProfile) {
        for i in 0..self.span_ns.len() {
            self.span_ns[i] += other.span_ns[i];
            self.spans[i] += other.spans[i];
        }
        self.ticks += other.ticks;
        self.frozen_ticks += other.frozen_ticks;
        self.disengaged_ticks += other.disengaged_ticks;
        self.publishes += other.publishes;
        self.frames += other.frames;
        self.frames_rewritten += other.frames_rewritten;
    }

    /// A stage's self time in nanoseconds: its spans minus the timestamp
    /// cost each span contains.
    pub fn self_ns(&self, stage: Stage, span_cost_ns: f64) -> f64 {
        let i = stage as usize;
        self.span_ns[i] as f64 - self.spans[i] as f64 * span_cost_ns
    }
}

/// The parts of a run's outcome the drift check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct EndState {
    /// First hazard (time and kind).
    pub first_hazard: Option<(Seconds, HazardKind)>,
    /// Every hazard kind that occurred.
    pub hazard_kinds: Vec<HazardKind>,
    /// The accident, if any.
    pub accident: Option<(Seconds, AccidentKind)>,
    /// When the driver took over.
    pub driver_engaged: Option<Seconds>,
    /// ADAS alert events.
    pub alert_events: u64,
    /// CAN frames rewritten by the attacker.
    pub frames_rewritten: u64,
    /// Ticks the ADAS spent degraded.
    pub degraded_ticks: u64,
    /// When the CAN IDS alarmed.
    pub ids_detected: Option<Seconds>,
}

impl EndState {
    /// The same fields of a harness result.
    pub fn of(result: &SimResult) -> Self {
        Self {
            first_hazard: result.first_hazard,
            hazard_kinds: result.hazard_kinds.clone(),
            accident: result.accident,
            driver_engaged: result.driver_engaged,
            alert_events: result.alert_events,
            frames_rewritten: result.frames_rewritten,
            degraded_ticks: result.degraded_ticks,
            ids_detected: result.ids_detected,
        }
    }
}

/// The cost of one empty span, in nanoseconds: the median over `rounds`
/// of the mean span charged by back-to-back [`charge`] calls with no
/// stage between them.
pub fn span_cost_ns(rounds: usize) -> f64 {
    const CALLS: u32 = 20_000;
    let samples: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let mut profile = StageProfile::default();
            let mut mark = Instant::now();
            for _ in 0..CALLS {
                charge(black_box(&mut profile), Stage::Panda, &mut mark);
            }
            profile.span_ns[Stage::Panda as usize] as f64 / f64::from(CALLS)
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Charges the span since `*mark` to `stage` and moves the mark.
#[inline(always)]
fn charge(profile: &mut StageProfile, stage: Stage, mark: &mut Instant) {
    let now = Instant::now();
    let i = stage as usize;
    profile.span_ns[i] += (now - *mark).as_nanos() as u64;
    profile.spans[i] += 1;
    *mark = now;
}

/// One simulation assembled the way `Harness::new` assembles it.
pub struct Replica {
    config: HarnessConfig,
    bus: Bus,
    world: World,
    sensors: SensorSuite,
    adas: Adas,
    attacker: Option<AttackEngine>,
    driver: Driver,
    panda: PandaSafety,
    actuator_side: CommandEncoder,
    hazards: HazardDetector,
    invariant: Option<ControlInvariantDetector>,
    monitor: Option<ContextMonitor>,
    ids: Option<CanIds>,
    faults: Option<FaultEngine>,
    last_cmd: CarControl,
    alert_events: u64,
    ever_disengaged: bool,
    degraded_ticks: u64,
    adas_out: AdasOutput,
    profile: StageProfile,
}

impl Replica {
    /// Wires up a run.
    pub fn new(config: HarnessConfig) -> Self {
        let bus = Bus::new();
        let attacker = config.attack.map(|mut a| {
            a.seed = a.seed.wrapping_add(config.seed);
            AttackEngine::new(&bus, a)
        });
        let detectors = config.defense.detectors_attached();
        let adas = if detectors {
            let gates = if config.defense.acts() {
                GateConfig::enforcing()
            } else {
                GateConfig::observing()
            };
            Adas::with_gates(&bus, config.scenario.cruise_speed, gates)
        } else {
            Adas::new(&bus, config.scenario.cruise_speed)
        };
        Self {
            world: World::new(config.scenario, config.seed),
            sensors: SensorSuite::new(config.seed),
            adas,
            attacker,
            driver: Driver::new(config.driver),
            panda: PandaSafety::new(config.panda_enabled),
            actuator_side: CommandEncoder::new(),
            hazards: HazardDetector::new(config.hazard_params),
            invariant: detectors.then(ControlInvariantDetector::default),
            monitor: detectors.then(ContextMonitor::default),
            ids: detectors.then(|| CanIds::new(IdsConfig::default())),
            faults: (!config.faults.is_empty())
                .then(|| FaultEngine::new(config.seed, config.faults)),
            last_cmd: CarControl::default(),
            alert_events: 0,
            ever_disengaged: false,
            degraded_ticks: 0,
            adas_out: AdasOutput::default(),
            profile: StageProfile::default(),
            bus,
            config,
        }
    }

    /// Runs to completion; returns the end state and the stage profile.
    pub fn run(mut self) -> (EndState, StageProfile) {
        let published_before = self.bus.published_count();
        while !self.world.finished() {
            self.step();
        }
        self.profile.publishes = self.bus.published_count() - published_before;
        self.profile.frames_rewritten = self
            .attacker
            .as_ref()
            .map_or(0, AttackEngine::frames_rewritten);
        let end = EndState {
            first_hazard: self.hazards.first_any().map(|(t, k)| (t.time(), k)),
            hazard_kinds: self.hazards.kinds(),
            accident: self.hazards.accident().map(|(t, k)| (t.time(), k)),
            driver_engaged: self.driver.engaged_at().map(Tick::time),
            alert_events: self.alert_events,
            frames_rewritten: self.profile.frames_rewritten,
            degraded_ticks: self.degraded_ticks,
            ids_detected: self
                .ids
                .as_ref()
                .and_then(CanIds::detected_at)
                .map(Tick::time),
        };
        (end, self.profile)
    }

    /// One control cycle, stage for stage as `Harness::step` runs it.
    fn step(&mut self) {
        let tick = self.world.now();
        self.profile.ticks += 1;
        let mut mark = Instant::now();

        if self.world.collision().is_some() {
            self.world.step(ActuatorCommand::default());
            charge(&mut self.profile, Stage::Physics, &mut mark);
            self.profile.frozen_ticks += 1;
            return;
        }
        if self.ever_disengaged {
            self.profile.disengaged_ticks += 1;
        }

        // 1. Sensors (with the fault engine's sensor stage, if attached).
        let frame = match self.faults.as_mut() {
            Some(eng) => {
                let mut frame = self.sensors.sample(&self.world);
                charge(&mut self.profile, Stage::Sensors, &mut mark);
                let plan = eng.apply_sensors(tick, &mut frame);
                charge(&mut self.profile, Stage::Faults, &mut mark);
                if let Some((stamp, gps)) = plan.gps {
                    self.bus.publish(stamp, Payload::GpsLocationExternal(gps));
                }
                if let Some((stamp, lane)) = plan.lane {
                    self.bus.publish(stamp, Payload::ModelV2(lane));
                }
                if let Some((stamp, radar)) = plan.radar {
                    self.bus.publish(stamp, Payload::RadarState(radar));
                }
                frame
            }
            None => self.sensors.publish(&self.bus, tick, &self.world),
        };
        charge(&mut self.profile, Stage::Sensors, &mut mark);

        // 2. Eavesdrop and context match.
        if let Some(att) = self.attacker.as_mut() {
            att.observe(tick);
            charge(&mut self.profile, Stage::Observe, &mut mark);
        }

        // 3. ADAS control cycle, then the degradation tick count.
        let mut out = std::mem::take(&mut self.adas_out);
        self.adas.step_into(tick, &mut out);
        self.alert_events += out.new_alerts.len() as u64;
        if out.degradation != DegradationState::Nominal {
            self.degraded_ticks += 1;
        }
        self.profile.frames += out.frames.len() as u64;
        charge(&mut self.profile, Stage::Adas, &mut mark);

        // 4. Man-in-the-middle.
        if let Some(att) = self.attacker.as_mut() {
            att.process_frames_in_place(tick, &mut out.frames);
            charge(&mut self.profile, Stage::Mitm, &mut mark);
        }

        // 4b. CAN-layer faults.
        if let Some(eng) = self.faults.as_mut() {
            eng.apply_can(tick, &mut out.frames);
            charge(&mut self.profile, Stage::Faults, &mut mark);
        }

        // 4c. CAN IDS and the policy's reaction.
        if let Some(ids) = self.ids.as_mut() {
            let verdict = ids.observe(tick, &out.frames, out.engaged);
            match self.config.defense {
                DefensePolicy::Off | DefensePolicy::Observe => {}
                DefensePolicy::Degrade => {
                    if verdict == IdsVerdict::Alarm {
                        self.adas
                            .request_degradation(DegradationState::DegradedAccOff);
                    }
                }
                DefensePolicy::FailSafe => {
                    if verdict == IdsVerdict::Alarm || out.degradation != DegradationState::Nominal
                    {
                        self.adas.request_degradation(DegradationState::FailSafe);
                    }
                }
            }
            charge(&mut self.profile, Stage::Ids, &mut mark);
        }

        // 5. Panda checks.
        out.frames.retain(|f| self.panda.check(f).passed());
        charge(&mut self.profile, Stage::Panda, &mut mark);

        // 6. Actuator-side decode.
        let cmd = self
            .actuator_side
            .decode_actuators(&out.frames, self.last_cmd);
        self.last_cmd = cmd;
        charge(&mut self.profile, Stage::Decode, &mut mark);

        // 6b. Detectors.
        if self.invariant.is_some() || self.monitor.is_some() {
            if let Some(inv) = self.invariant.as_mut() {
                inv.step(
                    tick,
                    out.control.accel,
                    out.control.steer,
                    frame.gps.speed,
                    frame.lane.lateral_offset().raw(),
                );
            }
            if let Some(mon) = self.monitor.as_mut() {
                let half_width = self.world.ego().params().width / 2.0;
                let v = frame.gps.speed;
                let obs = ContextObservation {
                    v_ego: v,
                    hwt: frame
                        .radar
                        .lead
                        .and_then(|l| (v.mps() > 0.5).then(|| l.d_rel / v)),
                    rs: frame.radar.lead.map(|l| v - l.v_lead),
                    d_left: frame.lane.left_line - half_width,
                    d_right: frame.lane.right_line - half_width,
                };
                mon.check(tick, &obs, cmd.accel, cmd.steer);
            }
            charge(&mut self.profile, Stage::Detectors, &mut mark);
        }

        // 7. Driver.
        let obs = Observation {
            speed: self.world.ego().speed(),
            v_cruise: self.config.scenario.cruise_speed,
            accel_cmd: cmd.accel,
            steer_cmd: cmd.steer,
            adas_alert: !out.new_alerts.is_empty(),
            lane_offset: self.world.ego().d(),
            lead_gap: {
                let gap = self.world.gap();
                (gap.raw() > 0.0 && gap < RADAR_RANGE).then_some(gap)
            },
        };
        let final_cmd = match self.driver.step(tick, &obs) {
            Some(d) => {
                if !self.ever_disengaged {
                    self.adas.disengage();
                    if let Some(att) = self.attacker.as_mut() {
                        att.halt(tick);
                    }
                    self.ever_disengaged = true;
                }
                ActuatorCommand {
                    accel: d.accel,
                    steer: d.steer,
                }
            }
            None => ActuatorCommand {
                accel: cmd.accel,
                steer: cmd.steer,
            },
        };
        charge(&mut self.profile, Stage::Driver, &mut mark);

        // 8. Physics and hazards.
        self.world.step(final_cmd);
        charge(&mut self.profile, Stage::Physics, &mut mark);
        self.hazards.step(&self.world);
        charge(&mut self.profile, Stage::Hazard, &mut mark);

        self.adas_out = out;
    }
}

//! One lock-step simulation run: ADAS + simulator + driver + attack engine.
//!
//! The data flow per 10 ms tick mirrors the paper's Fig. 5:
//!
//! ```text
//! sensors ──publish──▶ msgbus ──▶ ADAS ──CAN frames──▶ [attack engine MITM]
//!                        ▲                                    │
//!                        └── attacker eavesdrops        [Panda checks]
//!                                                             ▼
//! hazard detector ◀── world.step(cmd) ◀── driver override? ◀── actuators
//! ```

use attack_core::{AttackConfig, AttackEngine};
use defense::{
    CanIds, ContextMonitor, ContextObservation, ControlInvariantDetector, DefensePolicy,
    IdsConfig, IdsVerdict,
};
use driver_model::{Driver, DriverConfig, DriverPhase, Observation};
use driving_sim::{ActuatorCommand, Scenario, SensorFrame, SensorSuite, World, RADAR_RANGE};
use faultinj::{FaultEngine, FaultSchedule, PublishPlan};
use msgbus::schema::CarControl;
use msgbus::{Bus, Payload};
use openadas::{Adas, AdasOutput, CommandEncoder, DegradationState, GateConfig, PandaSafety};
use units::{Seconds, Tick};

use crate::trace::{
    DegradationCode, DriverPhaseCode, IdsCode, TickRecord, TraceConfig, TraceRecorder,
};
use crate::{AccidentKind, HazardDetector, HazardKind, HazardParams};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// The driving scenario.
    pub scenario: Scenario,
    /// Seed for sensor noise and the attack's random draws.
    pub seed: u64,
    /// The attack to mount, if any.
    pub attack: Option<AttackConfig>,
    /// The simulated driver.
    pub driver: DriverConfig,
    /// Whether Panda-style firmware checks gate the actuator frames. The
    /// paper's CARLA setup leaves them disabled.
    pub panda_enabled: bool,
    /// How the defense stack is deployed: which detectors attach
    /// (control-invariant, context monitor, plausibility gates, CAN IDS)
    /// and whether their verdicts act on the vehicle. `Off` reproduces the
    /// paper's undefended ADAS; `Observe` is the old record-only
    /// `defenses_enabled` mode; `Degrade`/`FailSafe` make detections force
    /// the degradation ladder.
    pub defense: DefensePolicy,
    /// Hazard detection thresholds.
    pub hazard_params: HazardParams,
    /// Flight-recorder settings. Disabled by default; when disabled the
    /// harness allocates no recorder and pays only one branch per tick.
    pub trace: TraceConfig,
    /// Deterministic fault schedule. Empty by default; when empty the
    /// harness attaches no fault engine and the sensor/CAN paths are
    /// bit-identical to a fault-free build.
    pub faults: FaultSchedule,
}

impl HarnessConfig {
    /// An attack-free run with an alert driver.
    pub fn no_attack(scenario: Scenario, seed: u64) -> Self {
        Self {
            scenario,
            seed,
            attack: None,
            driver: DriverConfig::alert(),
            panda_enabled: false,
            defense: DefensePolicy::Off,
            hazard_params: HazardParams::default(),
            trace: TraceConfig::disabled(),
            faults: FaultSchedule::empty(),
        }
    }

    /// An attacked run with an alert driver.
    pub fn with_attack(scenario: Scenario, seed: u64, attack: AttackConfig) -> Self {
        Self {
            attack: Some(attack),
            ..Self::no_attack(scenario, seed)
        }
    }

    /// The same run with the flight recorder attached.
    pub fn traced(self, trace: TraceConfig) -> Self {
        Self { trace, ..self }
    }

    /// The same run with a fault schedule attached.
    pub fn with_faults(self, faults: FaultSchedule) -> Self {
        Self { faults, ..self }
    }

    /// The same run with the given defense policy.
    pub fn with_defense(self, defense: DefensePolicy) -> Self {
        Self { defense, ..self }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Seed of the run.
    pub seed: u64,
    /// First hazard (time and kind), if any.
    pub first_hazard: Option<(Seconds, HazardKind)>,
    /// All hazard kinds that occurred.
    pub hazard_kinds: Vec<HazardKind>,
    /// The accident, if one occurred.
    pub accident: Option<(Seconds, AccidentKind)>,
    /// ADAS alert events raised during the run.
    pub alert_events: u64,
    /// Forward-collision-warning events (Observation 2 expects zero).
    pub fcw_events: u64,
    /// Lane-invasion events.
    pub lane_invasions: u64,
    /// Simulated duration.
    pub duration: Seconds,
    /// When the attack first injected (`t_a`), if it did.
    pub attack_activated: Option<Seconds>,
    /// Time-to-hazard: first hazard − activation.
    pub tth: Option<Seconds>,
    /// When the driver noticed an anomaly/alert (`t_d`).
    pub driver_noticed: Option<Seconds>,
    /// When the driver took over (`t_ex`).
    pub driver_engaged: Option<Seconds>,
    /// CAN frames rewritten by the attack.
    pub frames_rewritten: u64,
    /// Frames blocked by Panda checks (when enabled).
    pub panda_blocked: u64,
    /// When the control-invariant detector alarmed (defenses enabled only).
    pub invariant_detected: Option<Seconds>,
    /// When the context-aware command monitor alarmed (defenses enabled
    /// only).
    pub monitor_detected: Option<Seconds>,
    /// Ticks the ADAS spent in any degraded (non-nominal) state.
    pub degraded_ticks: u64,
    /// Ticks the ADAS spent in the fail-safe state.
    pub failsafe_ticks: u64,
    /// When the ADAS first left the nominal state.
    pub first_degraded: Option<Seconds>,
    /// When the ADAS first entered the fail-safe state.
    pub first_failsafe: Option<Seconds>,
    /// Time from the scheduled end of the last fault to the return to
    /// nominal (None: never degraded, never recovered, or no schedule).
    pub recovery_latency: Option<Seconds>,
    /// Fault injections performed by the fault engine.
    pub faults_injected: u64,
    /// When the CAN IDS first alarmed (detectors attached only).
    pub ids_detected: Option<Seconds>,
    /// Readings withheld (or, under `Observe`, merely flagged) by the
    /// perception plausibility gates over the whole run.
    pub gate_rejections: u64,
}

impl SimResult {
    /// Whether any hazard occurred.
    pub fn hazardous(&self) -> bool {
        self.first_hazard.is_some()
    }

    /// Whether any ADAS alert was raised.
    pub fn alerted(&self) -> bool {
        self.alert_events > 0
    }

    /// The paper's "Hazards & no Alerts" criterion.
    pub fn hazard_without_alert(&self) -> bool {
        self.hazardous() && !self.alerted()
    }

    /// Whether a specific hazard kind occurred.
    pub fn has_hazard(&self, kind: HazardKind) -> bool {
        self.hazard_kinds.contains(&kind)
    }
}

/// One run's components and counters, stepped stage by stage. The scalar
/// [`Harness`] and the fused [`FusedLane`](crate::FusedLane) both own one
/// and call the same stage methods, so the two ticks differ only in how
/// readings reach the ADAS and the attacker (the message bus or a direct
/// feed) and in when actuator frames are materialized.
#[derive(Debug)]
pub(crate) struct RunParts {
    pub(crate) config: HarnessConfig,
    pub(crate) world: World,
    sensors: SensorSuite,
    pub(crate) adas: Adas,
    pub(crate) attacker: Option<AttackEngine>,
    driver: Driver,
    panda: Option<PandaSafety>,
    actuator: CommandEncoder,
    hazards: HazardDetector,
    invariant: Option<ControlInvariantDetector>,
    monitor: Option<ContextMonitor>,
    pub(crate) ids: Option<CanIds>,
    pub(crate) faults: Option<FaultEngine>,
    pub(crate) last_cmd: CarControl,
    alert_events: u64,
    pub(crate) ever_disengaged: bool,
    degraded_ticks: u64,
    failsafe_ticks: u64,
    first_degraded: Option<Tick>,
    first_failsafe: Option<Tick>,
    recovered_at: Option<Tick>,
}

impl RunParts {
    /// Wires up a run whose ADAS and attacker tap `bus`.
    pub(crate) fn new(config: HarnessConfig, bus: &Bus) -> Self {
        // The attacker must subscribe before the ADAS so it sees the same
        // traffic from the start (subscription order does not matter for
        // delivery, only for realism of the deployment story).
        let attacker = config.attack.map(|mut a| {
            a.seed = a.seed.wrapping_add(config.seed);
            AttackEngine::new(bus, a)
        });
        // With detectors attached the ADAS carries plausibility gates; the
        // gates only *withhold* readings under an acting policy, otherwise
        // they observe and count. With `Off` the construction is exactly
        // the undefended baseline, bit for bit.
        let detectors = config.defense.detectors_attached();
        let adas = if detectors {
            let gates = if config.defense.acts() {
                GateConfig::enforcing()
            } else {
                GateConfig::observing()
            };
            Adas::with_gates(bus, config.scenario.cruise_speed, gates)
        } else {
            Adas::new(bus, config.scenario.cruise_speed)
        };
        Self {
            world: World::new(config.scenario, config.seed),
            sensors: SensorSuite::new(config.seed),
            adas,
            attacker,
            driver: Driver::new(config.driver),
            panda: config.panda_enabled.then(|| PandaSafety::new(true)),
            actuator: CommandEncoder::new(),
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
            failsafe_ticks: 0,
            first_degraded: None,
            first_failsafe: None,
            recovered_at: None,
            config,
        }
    }

    /// Stage 1: the sensors sample ground truth. With a fault engine
    /// attached the sample is mutated first (stuck-at, noise, latency) and
    /// the IPC stage can drop or delay per-stream messages; without one the
    /// plan is the sample itself, stamped at `tick`. Each planned message
    /// carries its *sample* stamp: a latency or bus-delay replay arrives
    /// stamped with the tick it was sampled at, so the ADAS staleness
    /// watchdog sees its true age instead of a forged fresh timestamp.
    pub(crate) fn sense(&mut self, tick: Tick) -> (SensorFrame, PublishPlan) {
        let mut frame = self.sensors.sample(&self.world);
        let plan = match self.faults.as_mut() {
            Some(eng) => eng.apply_sensors(tick, &mut frame),
            None => PublishPlan::nominal(tick, &frame),
        };
        (frame, plan)
    }

    /// Stage 3b: counts the cycle's alerts and keeps the degradation
    /// bookkeeping for the resilience metrics.
    pub(crate) fn account(&mut self, tick: Tick, out: &AdasOutput) {
        self.alert_events += out.new_alerts.len() as u64;
        match out.degradation {
            DegradationState::Nominal => {
                if self.recovered_at.is_none() && self.first_degraded.is_some() {
                    let fault_over = self
                        .faults
                        .as_ref()
                        .and_then(FaultEngine::last_fault_end)
                        .is_some_and(|end| tick.index() >= end);
                    if fault_over {
                        self.recovered_at = Some(tick);
                    }
                }
            }
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
    }

    /// Stages 4b–6: the frames the man in the middle let through, on their
    /// way to the actuators. Returns the command the actuator side decodes;
    /// invalid or missing frames hold the last command.
    pub(crate) fn deliver(&mut self, tick: Tick, out: &mut AdasOutput) -> CarControl {
        // 4b. Fault injection at the CAN layer: bus-off, frame drops and
        // un-repaired bit flips (a flipped frame fails its checksum at the
        // actuator and is rejected there — unlike the attack engine, the
        // fault engine does not forge valid frames).
        if let Some(eng) = self.faults.as_mut() {
            eng.apply_can(tick, &mut out.frames);
        }

        // 4c. CAN IDS watches the frames as delivered — after the MITM and
        // any bus fault, before the receivers. Under an acting policy an
        // alarm forces the degradation ladder; the request lands at the top
        // of the *next* control cycle (one-tick actuation delay, like a
        // real supervisor task).
        let ids_verdict = match self.ids.as_mut() {
            Some(ids) => ids.observe(tick, &out.frames, out.engaged),
            None => IdsVerdict::Nominal,
        };
        match self.config.defense {
            DefensePolicy::Off | DefensePolicy::Observe => {}
            DefensePolicy::Degrade => {
                if ids_verdict == IdsVerdict::Alarm {
                    self.adas
                        .request_degradation(DegradationState::DegradedAccOff);
                }
            }
            DefensePolicy::FailSafe => {
                if ids_verdict == IdsVerdict::Alarm
                    || out.degradation != DegradationState::Nominal
                {
                    self.adas.request_degradation(DegradationState::FailSafe);
                }
            }
        }

        // 5. Firmware safety checks (disabled in the paper's setup).
        if let Some(panda) = self.panda.as_mut() {
            out.frames.retain(|f| panda.check(f).passed());
        }

        // 6. Actuator-side decode.
        self.actuator.decode_actuators(&out.frames, self.last_cmd)
    }

    /// Stage 6b: the §V defenses observe the boundary. The invariant
    /// detector compares the *issued* command with the measured response;
    /// the context monitor judges the *executed* command in context.
    pub(crate) fn watch(
        &mut self,
        tick: Tick,
        issued: CarControl,
        frame: &SensorFrame,
        cmd: CarControl,
    ) {
        if let Some(inv) = self.invariant.as_mut() {
            inv.step(
                tick,
                issued.accel,
                issued.steer,
                frame.gps.speed,
                frame.lane.lateral_offset().raw(),
            );
        }
        if let Some(mon) = self.monitor.as_mut() {
            let half_width = self.world.ego().params().width / 2.0;
            let v = frame.gps.speed;
            let obs = ContextObservation {
                v_ego: v,
                hwt: frame.radar.lead.and_then(|l| {
                    (v.mps() > 0.5).then(|| l.d_rel / v)
                }),
                rs: frame.radar.lead.map(|l| v - l.v_lead),
                d_left: frame.lane.left_line - half_width,
                d_right: frame.lane.right_line - half_width,
            };
            mon.check(tick, &obs, cmd.accel, cmd.steer);
        }
    }

    /// Stage 7: the driver watches the executed command and any alert. On
    /// the first takeover the ADAS disengages and the attack halts. Returns
    /// the command the world executes.
    pub(crate) fn drive(&mut self, tick: Tick, cmd: CarControl, adas_alert: bool) -> ActuatorCommand {
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
        match self.driver.step(tick, &obs) {
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
        }
    }

    /// Stage 8: physics, then hazard bookkeeping over the stepped world.
    pub(crate) fn advance(&mut self, cmd: ActuatorCommand) {
        self.world.step(cmd);
        self.hazards.step(&self.world);
    }

    /// Snapshot of the result at the current point in the run.
    pub(crate) fn result(&self) -> SimResult {
        let attacker = self.attacker.as_ref();
        let first_any = self.hazards.first_any();
        let attack_activated = attacker.and_then(|a| a.timeline().activated_at());
        let tth = match (attack_activated, first_any) {
            (Some(_), Some((h, _))) => attacker.and_then(|a| a.timeline().tth(h)),
            _ => None,
        };
        let last_fault_end = self.faults.as_ref().and_then(FaultEngine::last_fault_end);
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
            panda_blocked: self.panda_blocked(),
            invariant_detected: self
                .invariant
                .as_ref()
                .and_then(ControlInvariantDetector::detected_at)
                .map(Tick::time),
            monitor_detected: self
                .monitor
                .as_ref()
                .and_then(ContextMonitor::detected_at)
                .map(Tick::time),
            degraded_ticks: self.degraded_ticks,
            failsafe_ticks: self.failsafe_ticks,
            first_degraded: self.first_degraded.map(Tick::time),
            first_failsafe: self.first_failsafe.map(Tick::time),
            recovery_latency: self.recovered_at.and_then(|at| {
                last_fault_end.map(|end| Tick::new(at.index().saturating_sub(end)).time())
            }),
            faults_injected: self.faults_injected(),
            ids_detected: self
                .ids
                .as_ref()
                .and_then(CanIds::detected_at)
                .map(Tick::time),
            gate_rejections: self.adas.gate_rejections(),
        }
    }

    fn panda_blocked(&self) -> u64 {
        self.panda.as_ref().map_or(0, PandaSafety::blocked_count)
    }

    fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultEngine::faults_injected)
    }
}

/// A single assembled simulation on the message bus: the scalar tick, and
/// the bit-exactness oracle for the fused one.
pub struct Harness {
    parts: RunParts,
    bus: Bus,
    recorder: Option<TraceRecorder>,
    /// ADAS output buffers, handed to [`Adas::step_into`] and taken back
    /// every tick so the steady-state loop never touches the heap.
    adas_out: AdasOutput,
}

impl Harness {
    /// Wires up a run.
    pub fn new(config: HarnessConfig) -> Self {
        let bus = Bus::new();
        Self {
            parts: RunParts::new(config, &bus),
            bus,
            recorder: config.trace.enabled.then(|| TraceRecorder::new(config.trace)),
            adas_out: AdasOutput::default(),
        }
    }

    /// The world (ground truth), for inspection.
    pub fn world(&self) -> &World {
        &self.parts.world
    }

    /// The message bus (e.g. to attach extra eavesdroppers).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The attack engine, if one is mounted.
    pub fn attacker(&self) -> Option<&AttackEngine> {
        self.parts.attacker.as_ref()
    }

    /// Whether the run has completed its 5,000 ticks.
    pub fn finished(&self) -> bool {
        self.parts.world.finished()
    }

    /// Advances one control cycle; returns the tick that was executed.
    pub fn step(&mut self) -> Tick {
        let tick = self.parts.world.now();

        // A collision ends the run physically: the world is frozen and the
        // control stack no longer does anything meaningful, so only the
        // clock advances (keeping run durations comparable).
        if self.parts.world.collision().is_some() {
            self.parts.world.step(ActuatorCommand::default());
            self.capture_tick(tick, None, ActuatorCommand::default());
            return tick;
        }

        // 1. Sensors sample ground truth and publish the plan.
        let (frame, plan) = self.parts.sense(tick);
        if let Some((stamp, gps)) = plan.gps {
            self.bus.publish(stamp, Payload::GpsLocationExternal(gps));
        }
        if let Some((stamp, lane)) = plan.lane {
            self.bus.publish(stamp, Payload::ModelV2(lane));
        }
        if let Some((stamp, radar)) = plan.radar {
            self.bus.publish(stamp, Payload::RadarState(radar));
        }

        // 2. The attacker eavesdrops and matches contexts.
        if let Some(att) = self.parts.attacker.as_mut() {
            att.observe(tick);
        }

        // 3. The ADAS runs its control cycle and emits actuator frames. The
        // output buffers are owned by the harness and reused every tick.
        let mut out = std::mem::take(&mut self.adas_out);
        self.parts.adas.step_into(tick, &mut out);
        self.parts.account(tick, &out);

        // 4. Man-in-the-middle: the attack rewrites frames in flight.
        if let Some(att) = self.parts.attacker.as_mut() {
            att.process_frames_in_place(tick, &mut out.frames);
        }

        // 4b–6. CAN faults, IDS, Panda, actuator-side decode.
        let cmd = self.parts.deliver(tick, &mut out);
        self.parts.last_cmd = cmd;

        // 6b–8. Defenses, driver, physics and hazards.
        self.parts.watch(tick, out.control, &frame, cmd);
        let final_cmd = self.parts.drive(tick, cmd, !out.new_alerts.is_empty());
        self.parts.advance(final_cmd);

        // 9. Flight recorder: snapshot the executed cycle (no-op when off).
        self.capture_tick(tick, Some(&out), final_cmd);

        // Hand the output buffers back for the next tick.
        self.adas_out = out;
        tick
    }

    /// Snapshots the tick that just executed into the recorder, if one is
    /// attached. `out` is `None` on post-collision frozen ticks.
    fn capture_tick(&mut self, tick: Tick, out: Option<&AdasOutput>, applied: ActuatorCommand) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let p = &self.parts;
        let ego = p.world.ego();
        let lead = p.world.lead();
        let v = ego.speed().mps();
        let raw_gap = p.world.gap().raw();
        // Same visibility window the driver model uses: a lead beyond
        // [`RADAR_RANGE`] (or behind) is "no lead".
        let gap = if raw_gap > 0.0 && raw_gap < RADAR_RANGE.raw() {
            raw_gap
        } else {
            f64::NAN
        };
        let hwt = if v > 0.5 { gap / v } else { f64::NAN };
        rec.record(TickRecord {
            tick: tick.index(),
            ego_s: ego.s().raw(),
            ego_d: ego.d().raw(),
            ego_v: v,
            ego_a: ego.accel().raw(),
            ego_steer_deg: ego.steer().degrees(),
            lead_s: lead.s().raw(),
            lead_v: lead.speed().mps(),
            gap,
            hwt,
            engaged: out.is_some_and(|o| o.engaged),
            acc_desired: out.map_or(0.0, |o| o.acc.desired.raw()),
            acc_cmd: out.map_or(0.0, |o| o.acc.command.raw()),
            alc_desired_deg: out.map_or(0.0, |o| o.alc.desired.degrees()),
            alc_cmd_deg: out.map_or(0.0, |o| o.alc.command.degrees()),
            alc_saturated: out.is_some_and(|o| o.alc.saturated),
            cmd_accel: p.last_cmd.accel.raw(),
            cmd_steer_deg: p.last_cmd.steer.degrees(),
            applied_accel: applied.accel.raw(),
            applied_steer_deg: applied.steer.degrees(),
            bus_published: self.bus.published_by_topic(),
            attack_active: p.attacker.as_ref().is_some_and(AttackEngine::is_active),
            frames_rewritten: p.attacker.as_ref().map_or(0, AttackEngine::frames_rewritten),
            panda_blocked: p.panda_blocked(),
            alert_events: p.alert_events,
            driver_phase: match p.driver.phase() {
                DriverPhase::Monitoring => DriverPhaseCode::Monitoring,
                DriverPhase::Reacting { .. } => DriverPhaseCode::Reacting,
                DriverPhase::Engaged { .. } => DriverPhaseCode::Engaged,
            },
            hazard_mask: p.hazards.mask(),
            h3_streak: p.hazards.h3_streak(),
            collided: p.world.collision().is_some(),
            fault_mask: p.faults.as_ref().map_or(0, FaultEngine::active_mask),
            faults_injected: p.faults_injected(),
            degradation: match p.adas.degradation() {
                DegradationState::Nominal => DegradationCode::Nominal,
                DegradationState::DegradedAlcOff => DegradationCode::AlcOff,
                DegradationState::DegradedAccOff => DegradationCode::AccOff,
                DegradationState::FailSafe => DegradationCode::FailSafe,
            },
            gate_rejections: p.adas.gate_rejections(),
            ids: match p.ids.as_ref().map_or(IdsVerdict::Nominal, CanIds::verdict) {
                IdsVerdict::Nominal => IdsCode::Nominal,
                IdsVerdict::Suspicious => IdsCode::Suspicious,
                IdsVerdict::Alarm => IdsCode::Alarm,
            },
        });
    }

    /// Runs to completion and returns the result.
    pub fn run(mut self) -> SimResult {
        while !self.finished() {
            self.step();
        }
        self.result_so_far()
    }

    /// Runs to completion and returns the result together with the flight
    /// recorder (None when tracing was disabled).
    pub fn run_traced(mut self) -> (SimResult, Option<TraceRecorder>) {
        while !self.finished() {
            self.step();
        }
        let result = self.result_so_far();
        (result, self.recorder)
    }

    /// The flight recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Detaches the flight recorder, leaving the harness untraced.
    pub fn take_recorder(&mut self) -> Option<TraceRecorder> {
        self.recorder.take()
    }

    /// The newest `n` trace ticks as an aligned table, for diagnostics and
    /// assertion messages. Explains itself when tracing is off.
    pub fn trace_tail(&self, n: usize) -> String {
        match self.recorder.as_ref() {
            Some(rec) => rec.tail_table(n),
            None => "(trace recorder disabled; enable HarnessConfig.trace to capture ticks)"
                .to_string(),
        }
    }

    /// Snapshot of the result at the current point in the run.
    pub fn result_so_far(&self) -> SimResult {
        self.parts.result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack_core::{AttackType, StrategyKind, ValueMode};
    use driving_sim::ScenarioId;
    use units::Distance;

    fn scenario(id: ScenarioId, gap: f64) -> Scenario {
        Scenario::new(id, Distance::meters(gap))
    }

    #[test]
    fn attack_free_run_is_hazard_free() {
        let result = Harness::new(HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 3)).run();
        assert!(!result.hazardous(), "got {:?}", result.first_hazard);
        assert!(result.accident.is_none());
        assert_eq!(result.fcw_events, 0);
        assert!(result.driver_engaged.is_none(), "driver never takes over");
        assert_eq!(result.duration, units::SIM_DURATION);
    }

    #[test]
    fn context_aware_acceleration_attack_causes_forward_hazard() {
        let attack = AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            ..AttackConfig::default()
        };
        let result =
            Harness::new(HarnessConfig::with_attack(scenario(ScenarioId::S1, 70.0), 5, attack))
                .run();
        assert!(result.attack_activated.is_some(), "context arises in S1");
        assert!(result.has_hazard(HazardKind::H1), "got {:?}", result.hazard_kinds);
        assert!(result.tth.is_some());
        assert!(result.frames_rewritten > 0);
    }

    #[test]
    fn strategic_attack_is_not_noticed_by_driver() {
        let attack = AttackConfig {
            attack_type: AttackType::Deceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            ..AttackConfig::default()
        };
        let result =
            Harness::new(HarnessConfig::with_attack(scenario(ScenarioId::S1, 70.0), 8, attack))
                .run();
        if result.attack_activated.is_some() {
            assert!(
                result.driver_engaged.is_none(),
                "strategic values stay inside the driver's thresholds"
            );
        }
    }

    #[test]
    fn fixed_deceleration_attack_is_noticed() {
        let attack = AttackConfig {
            attack_type: AttackType::Deceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        let result =
            Harness::new(HarnessConfig::with_attack(scenario(ScenarioId::S1, 70.0), 8, attack))
                .run();
        if let Some(t_a) = result.attack_activated {
            let noticed = result.driver_noticed.expect("-4 m/s^2 is an anomaly");
            assert!(noticed >= t_a);
            let engaged = result.driver_engaged.expect("engages 2.5 s later");
            assert!((engaged.secs() - noticed.secs() - 2.5).abs() < 0.02);
        }
    }

    #[test]
    fn steering_right_attack_reaches_the_guardrail() {
        let attack = AttackConfig {
            attack_type: AttackType::SteeringRight,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        // Try a few seeds: the trigger needs the wander to reach the right
        // edge, which is the common case but not guaranteed per-run.
        let mut hazardous = 0;
        for seed in 0..5 {
            let result = Harness::new(HarnessConfig::with_attack(
                scenario(ScenarioId::S2, 100.0),
                seed,
                attack,
            ))
            .run();
            // A trigger late in the run may not have time to finish; count
            // the ones that do (the campaign-level rate is ~99%).
            if result.attack_activated.is_some() && result.hazardous() {
                assert!(result.has_hazard(HazardKind::H3), "{:?}", result.hazard_kinds);
                hazardous += 1;
            }
        }
        assert!(hazardous > 0, "right-edge attacks cause H3 in some of 5 runs");
    }

    #[test]
    fn panda_blocks_fixed_attack_values() {
        let attack = AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        let mut cfg = HarnessConfig::with_attack(scenario(ScenarioId::S1, 70.0), 5, attack);
        cfg.panda_enabled = true;
        let result = Harness::new(cfg).run();
        if result.attack_activated.is_some() {
            assert!(result.panda_blocked > 0, "2.4 m/s^2 exceeds the firmware limit");
        }
    }

    #[test]
    fn same_seed_reproduces_identical_results() {
        let attack = AttackConfig {
            attack_type: AttackType::AccelerationSteering,
            strategy: StrategyKind::RandomSt,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        let cfg = HarnessConfig::with_attack(scenario(ScenarioId::S3, 50.0), 99, attack);
        let a = Harness::new(cfg).run();
        let b = Harness::new(cfg).run();
        assert_eq!(a, b);
    }
}

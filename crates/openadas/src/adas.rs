//! The assembled ADAS: one object consuming sensor messages and producing
//! actuator CAN frames each 10 ms control cycle.

use canbus::CanFrame;
use msgbus::schema::{AlertKind, CarControl, CarState, ControlsState, GpsLocation, LaneModel, RadarState};
use msgbus::{Bus, Envelope, Payload, Subscriber, Topic};
use units::{Accel, Speed, Tick};

use crate::acc::AccOutput;
use crate::alc::AlcOutput;
use crate::degradation::{FAILSAFE_BRAKE, GENTLE_BRAKE};
use crate::plausibility::STALE_AFTER_TICKS;
use crate::safety;
use crate::{
    AccController, AlcController, AlertManager, CarStateEstimator, CommandEncoder,
    DegradationMonitor, DegradationState, GateConfig, LaneProcessor, LeadTracker,
    PerceptionGates,
};

/// Everything the ADAS produced in one control cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct AdasOutput {
    /// The high-level command (also published as `carControl`).
    pub control: CarControl,
    /// The actuator CAN frames (empty when disengaged).
    pub frames: Vec<CanFrame>,
    /// Alerts newly raised this cycle.
    pub new_alerts: Vec<AlertKind>,
    /// Whether the ADAS is engaged.
    pub engaged: bool,
    /// Longitudinal controller internals (desired vs. commanded).
    pub acc: AccOutput,
    /// Lateral controller internals (desired vs. commanded, saturation).
    pub alc: AlcOutput,
    /// Where the ADAS sits on the degradation ladder this cycle.
    pub degradation: DegradationState,
}

impl Default for AdasOutput {
    fn default() -> Self {
        Self {
            control: CarControl::default(),
            // adas-lint: allow(R13, reason = "capacity-0 placeholder — Vec::new never touches the heap; live outputs recycle their buffers through step_into")
            frames: Vec::new(),
            // adas-lint: allow(R13, reason = "capacity-0 placeholder — Vec::new never touches the heap; live outputs recycle their buffers through step_into")
            new_alerts: Vec::new(),
            engaged: false,
            acc: AccOutput {
                desired: Accel::ZERO,
                command: Accel::ZERO,
            },
            alc: AlcOutput {
                desired: units::Angle::ZERO,
                command: units::Angle::ZERO,
                saturated: false,
            },
            degradation: DegradationState::Nominal,
        }
    }
}

/// The OpenPilot-style ADAS process.
///
/// Subscribes to the sensor topics on construction, consumes the latest
/// sample of each per [`Adas::step`], and publishes `carState`, `carControl`
/// and `controlsState` back onto the bus — the exact surface the paper's
/// attacker eavesdrops on.
#[derive(Debug)]
pub struct Adas {
    bus: Bus,
    gps_sub: Subscriber,
    model_sub: Subscriber,
    radar_sub: Subscriber,
    state: CarStateEstimator,
    lanes: LaneProcessor,
    leads: LeadTracker,
    acc: AccController,
    alc: AlcController,
    alerts: AlertManager,
    degradation: DegradationMonitor,
    encoder: CommandEncoder,
    last_control: CarControl,
    /// Plausibility gates vetting each reading before fusion; `None` for
    /// the legacy watchdog-only configuration.
    gates: Option<PerceptionGates>,
    /// A rung an external detector asked to force before the next cycle.
    pending_force: Option<DegradationState>,
    /// Drain scratch, reused every cycle so steady-state ticks stay
    /// allocation-free.
    scratch: Vec<Envelope>,
}

impl Adas {
    /// Creates an ADAS engaged at the given cruise set-speed, subscribed to
    /// the sensor topics of `bus`.
    pub fn new(bus: &Bus, v_cruise: Speed) -> Self {
        Self {
            bus: bus.clone(),
            gps_sub: bus.subscribe(&[Topic::GpsLocationExternal]),
            model_sub: bus.subscribe(&[Topic::ModelV2]),
            radar_sub: bus.subscribe(&[Topic::RadarState]),
            state: CarStateEstimator::new(v_cruise),
            lanes: LaneProcessor::new(),
            leads: LeadTracker::new(),
            acc: AccController::new(),
            alc: AlcController::new(),
            alerts: AlertManager::new(),
            degradation: DegradationMonitor::new(),
            encoder: CommandEncoder::new(),
            last_control: CarControl::default(),
            gates: None,
            pending_force: None,
            scratch: Vec::new(),
        }
    }

    /// Like [`Adas::new`], but with plausibility gates vetting every sensor
    /// reading before the estimators fuse it (the `Observe`/`Degrade`/
    /// `FailSafe` defense policies).
    pub fn with_gates(bus: &Bus, v_cruise: Speed, cfg: GateConfig) -> Self {
        let mut adas = Self::new(bus, v_cruise);
        adas.gates = Some(PerceptionGates::new(cfg));
        adas
    }

    /// Asks the degradation ladder to escalate to at least `target` at the
    /// start of the next cycle (e.g. on a CAN-IDS alarm). Escalate-only and
    /// edge-triggered; the caller re-requests each tick while the evidence
    /// persists, and recovery runs through the normal hysteresis.
    pub fn request_degradation(&mut self, target: DegradationState) {
        self.pending_force = Some(match self.pending_force.take() {
            Some(prev) if prev.rank() >= target.rank() => prev,
            _ => target,
        });
    }

    /// Total sensor readings the plausibility gates flagged implausible
    /// (counted in observe mode too; 0 without gates).
    pub fn gate_rejections(&self) -> u64 {
        self.gates.as_ref().map_or(0, PerceptionGates::rejections)
    }

    /// Whether the ADAS is engaged.
    pub fn engaged(&self) -> bool {
        self.state.engaged()
    }

    /// Disengages lateral and longitudinal control (driver override). The
    /// ADAS keeps publishing state but stops commanding the actuators.
    pub fn disengage(&mut self) {
        self.state.disengage();
    }

    /// Total alert events raised so far.
    pub fn alert_events(&self) -> u64 {
        self.alerts.total_events()
    }

    /// Total FCW events raised so far (expected to remain zero, Observation 2).
    pub fn fcw_events(&self) -> u64 {
        self.alerts.fcw_events()
    }

    /// Where the ADAS currently sits on the degradation ladder.
    pub fn degradation(&self) -> DegradationState {
        self.degradation.state()
    }

    /// Runs one control cycle: drains sensor messages, updates estimators,
    /// computes ACC + ALC, raises alerts, publishes state and returns the
    /// actuator frames.
    pub fn step(&mut self, tick: Tick) -> AdasOutput {
        let mut out = AdasOutput::default();
        self.step_into(tick, &mut out);
        out
    }

    /// Allocation-free variant of [`step`](Self::step): overwrites `out`,
    /// reusing its `frames` and `new_alerts` buffers. A caller that hands the
    /// same [`AdasOutput`] back every cycle pays for the buffers once and
    /// then runs the whole control loop without touching the heap.
    pub fn step_into(&mut self, tick: Tick, out: &mut AdasOutput) {
        // Latest-sample-wins, like a real 100 Hz control loop: every drained
        // message goes through the same per-stream ingest as the bus-free
        // entry, and the last admitted one decides freshness.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut gps = Ingest::default();
        self.gps_sub.drain_into(&mut scratch);
        for env in &scratch {
            if let Payload::GpsLocationExternal(reading) = env.payload() {
                gps.absorb(self.ingest_gps(tick, env.tick(), reading));
            }
        }
        let mut cam = Ingest::default();
        self.model_sub.drain_into(&mut scratch);
        for env in &scratch {
            if let Payload::ModelV2(reading) = env.payload() {
                cam.absorb(self.ingest_lane(tick, env.tick(), reading));
            }
        }
        let mut radar = Ingest::default();
        self.radar_sub.drain_into(&mut scratch);
        for env in &scratch {
            if let Payload::RadarState(reading) = env.payload() {
                radar.absorb(self.ingest_radar(tick, env.tick(), reading));
            }
        }
        self.scratch = scratch;
        self.finish_cycle(tick, gps, cam, radar, Emit::Bus, out);
    }

    /// Bus-free control cycle for the fused tick: the caller hands each
    /// stream's `(sample tick, reading)` directly — `None` for a message
    /// lost this tick — exactly as a fault engine's publish plan (or the
    /// nominal plan) would have put them on the bus. The harness publishes
    /// at most one message per stream per tick, so latest-sample-wins
    /// draining and this direct feed see identical readings; gate
    /// admission, the staleness stamp and estimator coasting are the same
    /// per-stream code [`step_into`](Self::step_into) runs.
    ///
    /// With `encode_frames` the actuator frames are produced as usual
    /// (someone inspects the wire this cycle); without it the encoder's
    /// rolling counters still advance and the returned
    /// [`DirectCycle::quantized`] carries the command the actuator side
    /// would have decoded.
    pub fn step_direct(
        &mut self,
        tick: Tick,
        gps: Option<(Tick, &GpsLocation)>,
        lane: Option<(Tick, &LaneModel)>,
        radar: Option<(Tick, &RadarState)>,
        encode_frames: bool,
        out: &mut AdasOutput,
    ) -> DirectCycle {
        let gps = Ingest::of(gps.and_then(|(stamp, r)| self.ingest_gps(tick, stamp, r)));
        let cam = Ingest::of(lane.and_then(|(stamp, r)| self.ingest_lane(tick, stamp, r)));
        let radar = Ingest::of(radar.and_then(|(stamp, r)| self.ingest_radar(tick, stamp, r)));
        self.finish_cycle(
            tick,
            gps,
            cam,
            radar,
            Emit::Direct {
                encode: encode_frames,
            },
            out,
        )
    }

    /// One `gpsLocationExternal` reading sampled at `stamp`: `None` when
    /// the gates reject it, otherwise whether it counts as fresh. A reading
    /// whose sample stamp lags the current tick by more than
    /// STALE_AFTER_TICKS is replayed history — it still updates the
    /// estimator (it is the freshest content available) but does not count
    /// as fresh, so the watchdog sees through a latency fault republishing
    /// old readings.
    fn ingest_gps(&mut self, tick: Tick, stamp: Tick, gps: &GpsLocation) -> Option<bool> {
        let admitted = match self.gates.as_mut() {
            Some(g) => g.admit_gps(tick, gps, &self.state),
            None => true,
        };
        admitted.then(|| {
            self.state.update(gps, self.last_control.steer);
            tick - stamp <= STALE_AFTER_TICKS
        })
    }

    /// One `modelV2` reading; see [`ingest_gps`](Self::ingest_gps).
    fn ingest_lane(&mut self, tick: Tick, stamp: Tick, lane: &LaneModel) -> Option<bool> {
        let admitted = match self.gates.as_mut() {
            Some(g) => g.admit_lane(tick, lane),
            None => true,
        };
        admitted.then(|| {
            self.lanes.update(lane);
            tick - stamp <= STALE_AFTER_TICKS
        })
    }

    /// One `radarState` reading; see [`ingest_gps`](Self::ingest_gps).
    fn ingest_radar(&mut self, tick: Tick, stamp: Tick, radar: &RadarState) -> Option<bool> {
        let admitted = match self.gates.as_mut() {
            Some(g) => g.admit_radar(tick, radar, &self.leads),
            None => true,
        };
        admitted.then(|| {
            self.leads.update(radar);
            tick - stamp <= STALE_AFTER_TICKS
        })
    }

    /// Everything downstream of sensor ingestion — the control cycle shared
    /// by [`step_into`](Self::step_into) and [`step_direct`](Self::step_direct),
    /// so the two entry points cannot drift apart.
    fn finish_cycle(
        &mut self,
        tick: Tick,
        gps: Ingest,
        cam: Ingest,
        radar: Ingest,
        emit: Emit,
        out: &mut AdasOutput,
    ) -> DirectCycle {
        // Coast the estimators through the outage: lane confidence decays,
        // the lead track holds-then-invalidates instead of freezing stale.
        // A gate-rejected reading coasts like silence; a stale-but-admitted
        // reading already updated the estimator and must not double-advance.
        if !cam.updated {
            self.lanes.coast();
        }
        if !radar.updated {
            self.leads.coast();
        }
        // An externally requested rung (CAN IDS alarm under an acting
        // policy) lands before the watchdogs step, so this cycle's control
        // authority already reflects it.
        let forced_alert = self
            .pending_force
            .take()
            .and_then(|target| self.degradation.force(target));
        let degradation_alert = self.degradation.step(gps.fresh, cam.fresh, radar.fresh);
        let degradation = self.degradation.state();

        let car = self.state.state();
        let lead = self.leads.lead();
        let engaged = self.state.engaged();

        let acc_out = self.acc.control(&car, lead.as_ref());
        let lane_est = self.lanes.estimate();
        let alc_out = self.alc.control(&lane_est);

        let control = if engaged {
            // Fail-closed authority: ACC output is replaced by a fixed
            // brake on the degraded rungs, and steering authority scales
            // with lane confidence (exactly 1.0 while the camera is
            // healthy, so nominal runs are bit-identical).
            let accel = match degradation {
                DegradationState::Nominal | DegradationState::DegradedAlcOff => acc_out.command,
                DegradationState::DegradedAccOff => GENTLE_BRAKE,
                DegradationState::FailSafe => FAILSAFE_BRAKE,
            };
            CarControl {
                accel,
                steer: alc_out.command * lane_est.confidence,
            }
        } else {
            CarControl::default()
        };
        // Terminal envelope: every path into the encoder passes this clamp
        // (the invariant adas-lint R9 proves). No-op on the nominal path —
        // ACC and ALC outputs are already clamped tighter upstream.
        let control = safety::envelope_clamp(control);
        self.last_control = control;

        let brake = control.accel.min(Accel::ZERO);
        self.alerts
            .step_into(engaged && alc_out.saturated, brake, &mut out.new_alerts);
        if let Some(kind) = forced_alert {
            // adas-lint: allow(R13, reason = "append into the caller's cleared, capacity-retaining output buffer (≤1 per cycle) — amortized after the first cycles")
            out.new_alerts.push(kind);
        }
        if let Some(kind) = degradation_alert {
            // adas-lint: allow(R13, reason = "append into the caller's cleared, capacity-retaining output buffer (≤1 per cycle) — amortized after the first cycles")
            out.new_alerts.push(kind);
        }

        let mut quantized = None;
        match emit {
            Emit::Bus => {
                // Publish the internal state the attacker can observe.
                // Cloning an empty alert list is allocation-free, and alert
                // ticks are rare.
                self.bus.publish(tick, Payload::CarState(car));
                self.bus.publish(tick, Payload::CarControl(control));
                self.bus.publish(
                    tick,
                    Payload::ControlsState(ControlsState {
                        engaged,
                        alerts: out.new_alerts.clone(),
                    }),
                );
                // Fail safe: if a command somehow escapes its clamp, send no
                // frames at all (actuators hold/coast) rather than panicking
                // mid-drive.
                if !engaged || self.encoder.encode_into(&control, &mut out.frames).is_err() {
                    out.frames.clear();
                }
            }
            Emit::Direct { encode: true } => {
                if !engaged || self.encoder.encode_into(&control, &mut out.frames).is_err() {
                    out.frames.clear();
                }
            }
            Emit::Direct { encode: false } => {
                // No one on this lane inspects the wire this cycle: skip the
                // frame bytes but keep counter parity and quantization, so
                // the actuator sees bit-identical commands either way. An
                // encode-path error maps to `None` — hold the last command,
                // exactly what an empty frame batch decodes to.
                out.frames.clear();
                if engaged {
                    quantized = self.encoder.quantize_cycle(&control).ok();
                }
            }
        }

        out.control = control;
        out.engaged = engaged;
        out.acc = acc_out;
        out.alc = alc_out;
        out.degradation = degradation;
        DirectCycle { car, quantized }
    }
}

/// Where one control cycle's outputs go: onto the bus and the wire (the
/// scalar harness), or straight back to the caller (the fused tick).
enum Emit {
    /// Publish `carState`/`carControl`/`controlsState` and encode frames.
    Bus,
    /// Skip the bus; encode frames only when someone will inspect them.
    Direct {
        /// Whether to materialize actuator frames this cycle.
        encode: bool,
    },
}

/// What one sensor stream delivered to a control cycle.
#[derive(Debug, Clone, Copy, Default)]
struct Ingest {
    /// A reading passed the gates and updated the estimator.
    updated: bool,
    /// The last admitted reading was fresh. A tick with no message at all
    /// is a module-level outage, distinct from a message reporting "no
    /// detection".
    fresh: bool,
}

impl Ingest {
    /// A stream that delivered at most one reading, with its ingest result
    /// (`None`: lost or gate-rejected).
    fn of(admitted: Option<bool>) -> Self {
        Self {
            updated: admitted.is_some(),
            fresh: admitted.unwrap_or(false),
        }
    }

    /// Folds in one more reading: the last admitted one wins.
    fn absorb(&mut self, admitted: Option<bool>) {
        if admitted.is_some() {
            *self = Self::of(admitted);
        }
    }
}

/// What a bus-free control cycle produced beyond the [`AdasOutput`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DirectCycle {
    /// The `carState` the cycle would have published (the attacker's tap).
    pub car: CarState,
    /// The command the actuator side would decode this cycle when frames
    /// were skipped (`None`: hold the last command — disengaged, a real
    /// frame batch was encoded instead, or the encode path errored).
    pub quantized: Option<CarControl>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgbus::schema::{GpsLocation, LaneModel, LeadTrack, RadarState};
    use units::{Angle, Distance};

    fn publish_sensors(bus: &Bus, tick: Tick, v: f64, offset: f64, lead: Option<(f64, f64)>) {
        bus.publish(
            tick,
            Payload::GpsLocationExternal(GpsLocation {
                speed: Speed::from_mps(v),
                bearing: Angle::ZERO,
            }),
        );
        let half = 1.85;
        bus.publish(
            tick,
            Payload::ModelV2(LaneModel {
                left_line: Distance::meters(half - offset),
                right_line: Distance::meters(half + offset),
                lane_width: Distance::meters(3.7),
                curvature: 1.0 / 800.0,
            }),
        );
        bus.publish(
            tick,
            Payload::RadarState(RadarState {
                lead: lead.map(|(d, vl)| LeadTrack {
                    d_rel: Distance::meters(d),
                    v_lead: Speed::from_mps(vl),
                    a_lead: Accel::ZERO,
                }),
            }),
        );
    }

    #[test]
    fn cruise_without_lead_accelerates_to_set_speed() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        let mut out = None;
        for i in 0..50 {
            publish_sensors(&bus, Tick::new(i), 20.0, 0.0, None);
            out = Some(adas.step(Tick::new(i)));
        }
        let out = out.unwrap();
        assert!(out.engaged);
        assert!(out.control.accel.mps2() > 1.0, "well below set speed");
        assert_eq!(out.frames.len(), 3);
    }

    #[test]
    fn brakes_for_slow_lead() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        for i in 0..50 {
            publish_sensors(&bus, Tick::new(i), 26.8, 0.0, Some((25.0, 15.6)));
            adas.step(Tick::new(i));
        }
        publish_sensors(&bus, Tick::new(50), 26.8, 0.0, Some((25.0, 15.6)));
        let out = adas.step(Tick::new(50));
        assert!(out.control.accel.mps2() < -1.0, "got {}", out.control.accel);
    }

    #[test]
    fn steers_back_toward_centre() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        for i in 0..100 {
            publish_sensors(&bus, Tick::new(i), 26.8, -0.5, None);
            adas.step(Tick::new(i));
        }
        publish_sensors(&bus, Tick::new(100), 26.8, -0.5, None);
        let out = adas.step(Tick::new(100));
        // Right of centre on a left curve: definitely steering left.
        assert!(out.control.steer.degrees() > 0.2, "got {}", out.control.steer);
    }

    #[test]
    fn disengage_stops_frames_but_not_state() {
        let bus = Bus::new();
        let mut state_sub = bus.subscribe(&[Topic::CarState]);
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        publish_sensors(&bus, Tick::ZERO, 26.8, 0.0, None);
        adas.disengage();
        let out = adas.step(Tick::ZERO);
        assert!(!out.engaged);
        assert!(out.frames.is_empty());
        assert_eq!(out.control, CarControl::default());
        assert_eq!(state_sub.drain().len(), 1, "state still published");
    }

    #[test]
    fn publishes_control_topics_every_cycle() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::CarControl, Topic::ControlsState]);
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        publish_sensors(&bus, Tick::ZERO, 26.8, 0.0, None);
        adas.step(Tick::ZERO);
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn sustained_offset_saturates_and_alerts() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        let mut alerted = false;
        for i in 0..500 {
            // A 6 m offset (two lanes out) demands far more steering than
            // the limit, sustained well past the alert debounce.
            publish_sensors(&bus, Tick::new(i), 26.8, 6.0, None);
            let out = adas.step(Tick::new(i));
            if out.new_alerts.contains(&AlertKind::SteerSaturated) {
                alerted = true;
            }
        }
        assert!(alerted, "steerSaturated raised for a large sustained offset");
        assert_eq!(adas.fcw_events(), 0);
    }
}

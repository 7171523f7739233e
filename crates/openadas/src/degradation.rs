//! Graceful degradation: staleness watchdogs and the fail-safe ladder.
//!
//! Every tick the ADAS notes which sensor streams delivered a message. A
//! stream that stays silent trips a per-stream watchdog, and the
//! [`DegradationMonitor`] walks a one-way ladder —
//! Nominal → Degraded (ALC off / ACC off) → FailSafe controlled stop —
//! escalating immediately but recovering only after a full hysteresis
//! window of healthy input, so a flapping sensor cannot flap the ADAS.
//!
//! The ladder is *fail-closed*: losing the radar or GPS disables
//! longitudinal control into a gentle brake (better to slow behind a lead
//! we can no longer see than to accelerate at it — the lead tracker's
//! 0.3 s coast window is longer than [`DEGRADE_AFTER`], so braking starts
//! while the last confirmed track is still held); losing the camera
//! disables lane-keeping as the lane confidence decays; losing a stream
//! persistently, or both perception streams at once, commands a firm
//! controlled stop that still passes the Panda safety filter.

use msgbus::schema::AlertKind;
use units::{limits, Accel};

/// Consecutive silent ticks (0.25 s) before a stream is declared stale and
/// the ADAS degrades. Deliberately shorter than the lead tracker's
/// `MAX_DROPOUT` coast window (0.3 s) so degradation braking begins while
/// the coasted lead estimate is still valid.
pub const DEGRADE_AFTER: u32 = limits::DEGRADE_AFTER_TICKS;

/// Consecutive silent ticks (1.5 s) of any single stream before the ADAS
/// gives up on it returning and commands a fail-safe stop.
pub const FAILSAFE_AFTER: u32 = limits::FAILSAFE_AFTER_TICKS;

/// Consecutive all-streams-healthy ticks (1 s) required to leave any
/// degraded state. Recovery is only ever to [`DegradationState::Nominal`]
/// and only after this full window — the no-flapping hysteresis.
pub const RECOVERY_TICKS: u32 = limits::RECOVERY_TICKS;

/// Longitudinal command while ACC is off (m/s²): a gentle brake, far above
/// the FCW trigger threshold, that sheds speed while the driver is alerted.
pub const GENTLE_BRAKE: Accel = Accel::from_mps2(limits::GENTLE_BRAKE_MPS2);

/// Longitudinal command during a fail-safe stop (m/s²): a firm controlled
/// stop that stays inside the Panda safety envelope (hard-brake limit
/// −3.5 m/s²) and below the FCW threshold.
pub const FAILSAFE_BRAKE: Accel = Accel::from_mps2(limits::FAILSAFE_BRAKE_MPS2);

/// Where the ADAS sits on the degradation ladder.
///
/// Deliberately *exhaustive* (adas-lint R8): every consumer must name every
/// rung — a new degradation mode silently lumped into a `_ =>` arm is a
/// safety bug, not a convenience.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegradationState {
    /// All sensor streams healthy; full ACC + ALC authority.
    #[default]
    Nominal,
    /// Camera stale: lane-keeping is off (confidence decays to zero);
    /// ACC continues on radar + GPS.
    DegradedAlcOff,
    /// Radar or GPS stale: adaptive cruise is off and the ADAS commands
    /// [`GENTLE_BRAKE`]; lane-keeping continues on the camera.
    DegradedAccOff,
    /// Persistent input loss: controlled stop at [`FAILSAFE_BRAKE`] until
    /// the driver takes over or every stream recovers for the full
    /// hysteresis window.
    FailSafe,
}

impl DegradationState {
    /// Severity rank, 0 (nominal) to 3 (fail-safe). The monitor only moves
    /// up in rank instantly; moving down requires full recovery.
    pub fn rank(self) -> u8 {
        match self {
            DegradationState::Nominal => 0,
            DegradationState::DegradedAlcOff => 1,
            DegradationState::DegradedAccOff => 2,
            DegradationState::FailSafe => 3,
        }
    }

    /// Snake-case name used in traces and `BENCH_resilience.json`.
    pub fn label(self) -> &'static str {
        match self {
            DegradationState::Nominal => "nominal",
            DegradationState::DegradedAlcOff => "degraded_alc_off",
            DegradationState::DegradedAccOff => "degraded_acc_off",
            DegradationState::FailSafe => "fail_safe",
        }
    }
}

/// Per-stream staleness watchdogs plus the ladder state machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationMonitor {
    state: DegradationState,
    gps_stale: u32,
    cam_stale: u32,
    radar_stale: u32,
    fresh_streak: u32,
}

impl DegradationMonitor {
    /// A monitor starting in [`DegradationState::Nominal`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The current ladder state.
    pub fn state(&self) -> DegradationState {
        self.state
    }

    /// Advances the watchdogs one tick with this tick's per-stream message
    /// arrival flags. Returns the alert to raise when the state *escalates*
    /// (edge-triggered); recovery is silent.
    pub fn step(&mut self, gps_fresh: bool, cam_fresh: bool, radar_fresh: bool) -> Option<AlertKind> {
        bump(&mut self.gps_stale, gps_fresh);
        bump(&mut self.cam_stale, cam_fresh);
        bump(&mut self.radar_stale, radar_fresh);
        if gps_fresh && cam_fresh && radar_fresh {
            self.fresh_streak = self.fresh_streak.saturating_add(1);
        } else {
            self.fresh_streak = 0;
        }

        let target = self.target();
        if target.rank() > self.state.rank() {
            // Escalate instantly — staleness is evidence, freshness is hope.
            self.state = target;
            return Some(match self.state {
                DegradationState::FailSafe => AlertKind::FailSafeStop,
                DegradationState::DegradedAlcOff | DegradationState::DegradedAccOff => {
                    AlertKind::AdasDegraded
                }
                // Unreachable: rank() > means the target is above Nominal.
                DegradationState::Nominal => AlertKind::AdasDegraded,
            });
        }
        if self.state != DegradationState::Nominal
            && target == DegradationState::Nominal
            && self.fresh_streak >= RECOVERY_TICKS
        {
            // Recovery is all-or-nothing: no partial de-escalation, so a
            // half-healed sensor set cannot ping-pong between rungs.
            self.state = DegradationState::Nominal;
        }
        None
    }

    /// Forces the ladder up to `target` (e.g. on a CAN-IDS alarm under an
    /// acting defense policy). Escalate-only and
    /// edge-triggered like [`Self::step`]: a target at or below the current
    /// rung is a no-op, and the alert is returned exactly once per
    /// escalation. Recovery still goes through the normal hysteresis path —
    /// a forced rung is held by the caller re-forcing it while the evidence
    /// persists, not by the monitor latching it.
    pub fn force(&mut self, target: DegradationState) -> Option<AlertKind> {
        if target.rank() <= self.state.rank() {
            return None;
        }
        self.state = target;
        // Restart the hysteresis clock: without this, a force landing while
        // every stream is healthy (a CAN-side alarm — the sensors are fine,
        // the bus is not) would recover on the very next step() because the
        // fresh streak is already saturated, and the caller re-forcing each
        // alarm tick would flap the rung and spam the alert edge.
        self.fresh_streak = 0;
        Some(match self.state {
            DegradationState::FailSafe => AlertKind::FailSafeStop,
            DegradationState::DegradedAlcOff | DegradationState::DegradedAccOff => {
                AlertKind::AdasDegraded
            }
            // Unreachable: rank() > means the target is above Nominal.
            DegradationState::Nominal => AlertKind::AdasDegraded,
        })
    }

    /// The rung the current watchdog counters call for, ignoring hysteresis.
    fn target(&self) -> DegradationState {
        let gps = self.gps_stale >= DEGRADE_AFTER;
        let cam = self.cam_stale >= DEGRADE_AFTER;
        let radar = self.radar_stale >= DEGRADE_AFTER;
        let persistent = self.gps_stale >= FAILSAFE_AFTER
            || self.cam_stale >= FAILSAFE_AFTER
            || self.radar_stale >= FAILSAFE_AFTER;
        if persistent || (cam && (radar || gps)) {
            DegradationState::FailSafe
        } else if radar || gps {
            DegradationState::DegradedAccOff
        } else if cam {
            DegradationState::DegradedAlcOff
        } else {
            DegradationState::Nominal
        }
    }
}

/// Resets the counter on a fresh message, saturating-increments otherwise.
fn bump(counter: &mut u32, fresh: bool) {
    *counter = if fresh { 0 } else { counter.saturating_add(1) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_stays_nominal_on_healthy_input() {
        let mut m = DegradationMonitor::new();
        for _ in 0..1000 {
            assert_eq!(m.step(true, true, true), None);
            assert_eq!(m.state(), DegradationState::Nominal);
        }
    }

    #[test]
    fn radar_loss_degrades_acc_then_fails_safe() {
        let mut m = DegradationMonitor::new();
        let mut alerts = Vec::new();
        for t in 0..(FAILSAFE_AFTER + 10) {
            if let Some(a) = m.step(true, true, false) {
                alerts.push((t, a));
            }
        }
        assert_eq!(
            alerts,
            vec![
                (DEGRADE_AFTER - 1, AlertKind::AdasDegraded),
                (FAILSAFE_AFTER - 1, AlertKind::FailSafeStop),
            ],
            "edge-triggered alerts at each escalation"
        );
        assert_eq!(m.state(), DegradationState::FailSafe);
    }

    #[test]
    fn camera_loss_only_disables_alc() {
        let mut m = DegradationMonitor::new();
        for _ in 0..DEGRADE_AFTER {
            m.step(true, false, true);
        }
        assert_eq!(m.state(), DegradationState::DegradedAlcOff);
    }

    #[test]
    fn both_perception_streams_lost_is_failsafe_fast() {
        let mut m = DegradationMonitor::new();
        for _ in 0..DEGRADE_AFTER {
            m.step(true, false, false);
        }
        assert_eq!(m.state(), DegradationState::FailSafe, "camera+radar loss");
    }

    #[test]
    fn acc_off_outranks_alc_off() {
        let mut m = DegradationMonitor::new();
        for _ in 0..DEGRADE_AFTER {
            m.step(true, true, false);
        }
        assert_eq!(m.state(), DegradationState::DegradedAccOff);
        // Camera dropping too now escalates to FailSafe (both perception
        // streams stale), not sideways.
        for _ in 0..DEGRADE_AFTER {
            m.step(true, false, false);
        }
        assert_eq!(m.state(), DegradationState::FailSafe);
    }

    #[test]
    fn recovery_requires_full_hysteresis_window() {
        let mut m = DegradationMonitor::new();
        for _ in 0..(DEGRADE_AFTER + 5) {
            m.step(true, true, false);
        }
        assert_eq!(m.state(), DegradationState::DegradedAccOff);
        // One tick short of the window: still degraded.
        for _ in 0..(RECOVERY_TICKS - 1) {
            m.step(true, true, true);
        }
        assert_eq!(m.state(), DegradationState::DegradedAccOff);
        // The final tick completes recovery, silently.
        assert_eq!(m.step(true, true, true), None);
        assert_eq!(m.state(), DegradationState::Nominal);
    }

    #[test]
    fn flapping_sensor_cannot_flap_the_state() {
        let mut m = DegradationMonitor::new();
        for _ in 0..(DEGRADE_AFTER + 5) {
            m.step(true, true, false);
        }
        let mut transitions = 0;
        let mut prev = m.state();
        // Radar alternating healthy/silent every 50 ticks: the fresh streak
        // never reaches RECOVERY_TICKS, so the state must hold.
        for t in 0..2000 {
            m.step(true, true, (t / 50) % 2 == 0);
            if m.state() != prev {
                transitions += 1;
                prev = m.state();
            }
        }
        assert_eq!(transitions, 0, "hysteresis swallows the flapping");
        assert_eq!(m.state(), DegradationState::DegradedAccOff);
    }

    #[test]
    fn force_is_escalate_only_and_edge_triggered() {
        let mut m = DegradationMonitor::new();
        assert_eq!(
            m.force(DegradationState::DegradedAccOff),
            Some(AlertKind::AdasDegraded)
        );
        assert_eq!(m.state(), DegradationState::DegradedAccOff);
        // Re-forcing the same rung is silent; forcing below is a no-op.
        assert_eq!(m.force(DegradationState::DegradedAccOff), None);
        assert_eq!(m.force(DegradationState::DegradedAlcOff), None);
        assert_eq!(m.state(), DegradationState::DegradedAccOff);
        assert_eq!(m.force(DegradationState::FailSafe), Some(AlertKind::FailSafeStop));
        assert_eq!(m.state(), DegradationState::FailSafe);
    }

    #[test]
    fn forced_rung_recovers_through_normal_hysteresis() {
        let mut m = DegradationMonitor::new();
        m.force(DegradationState::FailSafe);
        // Healthy streams and no re-forcing: the full hysteresis window
        // later, the ladder is back to nominal.
        for _ in 0..RECOVERY_TICKS {
            m.step(true, true, true);
        }
        assert_eq!(m.state(), DegradationState::Nominal);
    }

    #[test]
    fn failsafe_recovers_only_via_nominal() {
        let mut m = DegradationMonitor::new();
        for _ in 0..(FAILSAFE_AFTER + 1) {
            m.step(true, true, false);
        }
        assert_eq!(m.state(), DegradationState::FailSafe);
        for _ in 0..RECOVERY_TICKS {
            m.step(true, true, true);
        }
        assert_eq!(m.state(), DegradationState::Nominal, "no intermediate rungs");
    }
}

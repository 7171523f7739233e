//! Alert generation: `steerSaturated` and the Forward Collision Warning.

use msgbus::schema::AlertKind;
use units::Accel;

/// Sustained saturation (in 10 ms ticks) required before the
/// `steerSaturated` alert fires: 1.75 s. OpenPilot debounces this alert so
/// transient saturation during normal corrections stays silent; only a
/// controller that is pinned at its limit for seconds alerts the driver.
const SATURATION_TICKS: u32 = 175;

/// Brake threshold beyond which the FCW fires. The paper observes the FCW is
/// tied to the brake output exceeding OpenPilot's safety threshold — and
/// since both the ADAS clamp (−3.5 m/s²) and the attacker's values (≥ −4)
/// stay inside it, the warning never activates during the attacks
/// (Observation 2).
const FCW_BRAKE_THRESHOLD: Accel = Accel::from_mps2(-4.0);

/// Debounces raw controller conditions into driver-visible alert events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertManager {
    saturation_streak: u32,
    saturation_active: bool,
    total_events: u64,
    fcw_events: u64,
}

impl AlertManager {
    /// Creates a manager with no active alerts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total alert events raised so far.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Total FCW events raised so far (the paper's experiments expect this
    /// to stay at zero).
    pub fn fcw_events(&self) -> u64 {
        self.fcw_events
    }

    /// Feeds this cycle's conditions; returns the alerts *newly raised* this
    /// cycle (edge-triggered).
    pub fn step(&mut self, steer_saturated: bool, brake_command: Accel) -> Vec<AlertKind> {
        // adas-lint: allow(R13, reason = "allocating convenience wrapper — steady-state callers hold a buffer and use step_into")
        let mut raised = Vec::new();
        self.step_into(steer_saturated, brake_command, &mut raised);
        raised
    }

    /// Allocation-free variant of [`step`](Self::step): clears `raised` and
    /// appends this cycle's newly raised alerts, reusing the buffer's
    /// capacity across control cycles.
    pub fn step_into(
        &mut self,
        steer_saturated: bool,
        brake_command: Accel,
        raised: &mut Vec<AlertKind>,
    ) {
        raised.clear();

        if steer_saturated {
            self.saturation_streak += 1;
            if self.saturation_streak >= SATURATION_TICKS && !self.saturation_active {
                self.saturation_active = true;
                self.total_events += 1;
                // adas-lint: allow(R13, reason = "append into the caller's cleared, capacity-retaining buffer (≤1 per tick) — amortized after the first cycles")
                raised.push(AlertKind::SteerSaturated);
            }
        } else {
            self.saturation_streak = 0;
            self.saturation_active = false;
        }

        if brake_command < FCW_BRAKE_THRESHOLD {
            self.fcw_events += 1;
            self.total_events += 1;
            // adas-lint: allow(R13, reason = "append into the caller's cleared, capacity-retaining buffer (≤1 per tick) — amortized after the first cycles")
            raised.push(AlertKind::ForwardCollisionWarning);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_requires_sustained_condition() {
        let mut m = AlertManager::new();
        for _ in 0..SATURATION_TICKS - 1 {
            assert!(m.step(true, Accel::ZERO).is_empty());
        }
        let raised = m.step(true, Accel::ZERO);
        assert_eq!(raised, vec![AlertKind::SteerSaturated]);
        // Holding the condition does not re-raise.
        assert!(m.step(true, Accel::ZERO).is_empty());
        assert_eq!(m.total_events(), 1);
    }

    #[test]
    fn blips_reset_the_streak() {
        let mut m = AlertManager::new();
        for _ in 0..40 {
            m.step(true, Accel::ZERO);
        }
        m.step(false, Accel::ZERO);
        for _ in 0..40 {
            assert!(m.step(true, Accel::ZERO).is_empty());
        }
        assert_eq!(m.total_events(), 0);
    }

    #[test]
    fn saturation_can_re_fire_after_recovery() {
        let mut m = AlertManager::new();
        for _ in 0..SATURATION_TICKS {
            m.step(true, Accel::ZERO);
        }
        m.step(false, Accel::ZERO);
        for _ in 0..SATURATION_TICKS {
            m.step(true, Accel::ZERO);
        }
        assert_eq!(m.total_events(), 2);
    }

    #[test]
    fn fcw_fires_only_beyond_threshold() {
        let mut m = AlertManager::new();
        // The ADAS clamp (-3.5) and the loosest attack value (-4.0) both stay
        // inside the threshold: no FCW — the paper's Observation 2.
        assert!(m.step(false, Accel::from_mps2(-3.5)).is_empty());
        assert!(m.step(false, Accel::from_mps2(-4.0)).is_empty());
        assert_eq!(m.fcw_events(), 0);
        // Only a command beyond -4 would fire it.
        let raised = m.step(false, Accel::from_mps2(-4.5));
        assert_eq!(raised, vec![AlertKind::ForwardCollisionWarning]);
        assert_eq!(m.fcw_events(), 1);
    }
}

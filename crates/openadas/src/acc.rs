//! Adaptive Cruise Control: the longitudinal planner/controller.

use msgbus::schema::CarState;
use units::{Accel, Distance, Seconds, Speed};

use crate::radar::LeadEstimate;
use crate::SafetyLimits;

/// Longitudinal control output, before and after the safety clamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccOutput {
    /// The raw desired acceleration (used for FCW-style checks).
    pub desired: Accel,
    /// The clamped command sent toward the actuators.
    pub command: Accel,
}

/// A constant-time-headway ACC.
///
/// Gains follow the usual CTH form `a = k_gap (gap − gap*) + k_rel (v_lead −
/// v_ego)` with `gap* = d_min + T v_ego`; the cruise branch is a simple
/// proportional speed controller. The gentle gains intentionally allow a
/// small speed overshoot when catching up to a slower lead — the transient
/// window (`RS ≤ 0` while `HWT` is still large) that the paper's rule 2
/// exploits to trigger Deceleration attacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccController {
    /// Desired time headway.
    pub time_headway: Seconds,
    /// Standstill gap.
    pub min_gap: Distance,
    /// Gain on the gap error.
    pub k_gap: f64,
    /// Gain on the relative speed.
    pub k_rel: f64,
    /// Gain on the cruise speed error.
    pub k_cruise: f64,
    limits: SafetyLimits,
}

impl Default for AccController {
    fn default() -> Self {
        Self {
            time_headway: Seconds::new(2.2),
            min_gap: Distance::meters(4.0),
            k_gap: 0.08,
            k_rel: 0.65,
            k_cruise: 0.4,
            limits: SafetyLimits::strict(),
        }
    }
}

impl AccController {
    /// Creates the default controller (OpenPilot-like gains, strict output
    /// envelope).
    pub fn new() -> Self {
        Self::default()
    }

    /// The desired following gap at a given ego speed.
    pub fn desired_gap(&self, v_ego: Speed) -> Distance {
        self.min_gap + v_ego * self.time_headway
    }

    /// Computes the longitudinal command for this cycle.
    pub fn control(&self, car: &CarState, lead: Option<&LeadEstimate>) -> AccOutput {
        let v = car.v_ego;
        // Cruise branch: proportional to the set-speed error, comfort-limited.
        let cruise_err = car.v_cruise.mps() - v.mps();
        let a_cruise = (self.k_cruise * cruise_err).clamp(-1.5, 2.0);

        let desired = match lead {
            Some(l) => {
                let gap_err = l.d_rel.raw() - self.desired_gap(v).raw();
                let closing = v.mps() - l.v_lead.mps();
                let a_follow = if gap_err > 0.0 {
                    // Far regime: brake only as hard as physics requires to
                    // match the lead's speed at the desired gap
                    // (`a = −Δv² / 2 Δd`); below a comfort threshold, ignore
                    // the lead entirely. This late, demand-shaped braking is
                    // also what lets the ego briefly undershoot the lead's
                    // speed as it settles — the `RS ≤ 0` window rule 2 of the
                    // context table waits for.
                    let a_req = if closing > 0.0 {
                        -closing * closing / (2.0 * gap_err)
                    } else {
                        f64::INFINITY
                    };
                    if a_req < -0.5 {
                        a_req
                    } else {
                        a_cruise
                    }
                } else {
                    // Near regime: linear regulation around the desired gap.
                    self.k_gap * gap_err - self.k_rel * closing + 0.5 * l.a_lead.mps2()
                };
                a_cruise.min(a_follow)
            }
            None => a_cruise,
        };
        let desired = Accel::from_mps2(desired);
        AccOutput {
            desired,
            command: self.limits.clamp_accel(desired),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;
    use units::Angle;

    fn car(v_mph: f64, cruise_mph: f64) -> CarState {
        CarState {
            v_ego: Speed::from_mph(v_mph),
            a_ego: Accel::ZERO,
            steering_angle: Angle::ZERO,
            v_cruise: Speed::from_mph(cruise_mph),
            cruise_enabled: true,
        }
    }

    fn lead(d: f64, v_mph: f64) -> LeadEstimate {
        LeadEstimate {
            d_rel: Distance::meters(d),
            v_lead: Speed::from_mph(v_mph),
            a_lead: Accel::ZERO,
        }
    }

    #[test]
    fn cruises_toward_set_speed() {
        let acc = AccController::new();
        let out = acc.control(&car(50.0, 60.0), None);
        assert!(out.command.mps2() > 0.5, "accelerates when under set-speed");
        let out = acc.control(&car(65.0, 60.0), None);
        assert!(out.command.mps2() < -0.5, "brakes when over set-speed");
    }

    #[test]
    fn holds_set_speed_at_steady_state() {
        let acc = AccController::new();
        let out = acc.control(&car(60.0, 60.0), None);
        assert!(out.command.mps2().abs() < 0.05);
    }

    #[test]
    fn brakes_for_close_slow_lead() {
        let acc = AccController::new();
        // 60 mph, lead at 30 m doing 35 mph: well inside the desired gap.
        let out = acc.control(&car(60.0, 60.0), Some(&lead(30.0, 35.0)));
        assert!(out.command.mps2() < -2.0, "firm braking, got {}", out.command);
        assert!(out.command.mps2() >= -3.5, "inside the envelope");
    }

    #[test]
    fn desired_can_exceed_command_when_demand_is_extreme() {
        let acc = AccController::new();
        // Emergency-grade situation: 10 m gap at 25 mph closing speed.
        let out = acc.control(&car(60.0, 60.0), Some(&lead(10.0, 35.0)));
        assert!(out.desired < out.command, "raw demand below the clamp");
        assert_eq!(out.command.mps2(), -3.5);
    }

    #[test]
    fn far_lead_does_not_override_cruise() {
        let acc = AccController::new();
        let out = acc.control(&car(55.0, 60.0), Some(&lead(140.0, 50.0)));
        assert!(out.command.mps2() > 0.0, "keeps accelerating toward cruise");
    }

    #[test]
    fn follows_lead_near_desired_gap() {
        let acc = AccController::new();
        // At the desired gap with matched speeds the command is ~zero.
        let v = Speed::from_mph(35.0);
        let gap = acc.desired_gap(v);
        let out = acc.control(&car(35.0, 60.0), Some(&lead(gap.raw(), 35.0)));
        assert!(out.command.mps2().abs() < 0.1);
    }

    #[test]
    fn command_always_within_strict_envelope() {
        let acc = AccController::new();
        for v in [0.0, 20.0, 40.0, 60.0, 80.0] {
            for l in [
                None,
                Some(lead(5.0, 0.0)),
                Some(lead(50.0, 35.0)),
                Some(lead(120.0, 70.0)),
            ] {
                let out = acc.control(&car(v, 60.0), l.as_ref());
                assert!(out.command.mps2() <= 2.0);
                assert!(out.command.mps2() >= -3.5);
            }
        }
    }
}

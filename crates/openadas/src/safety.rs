//! The ADAS output safety envelope.
//!
//! Two nested envelopes exist in the paper (Table III):
//!
//! * the **software limits** OpenPilot's control code enforces on its own
//!   outputs — `accel ≤ 2.4 m/s²`, `brake ≥ −4.0 m/s²`, `|steer| ≤ 0.5°`.
//!   The *fixed* attack values sit exactly at these limits, so they pass the
//!   software checks;
//! * the **strict limits** used by the Panda firmware checks, the driver's
//!   anomaly perception, and the strategic value corruption —
//!   `accel ≤ 2.0 m/s²`, `brake ≥ −3.5 m/s²`, `|steer| ≤ 0.25°`, plus
//!   `speed ≤ 1.1 × v_cruise`.

use msgbus::schema::CarControl;
use units::{limits, Accel, Angle, Speed};

/// A set of actuator-output limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyLimits {
    /// Maximum commanded acceleration.
    pub accel_max: Accel,
    /// Strongest commanded deceleration (negative).
    pub brake_min: Accel,
    /// Maximum commanded road-wheel steering magnitude.
    pub steer_max: Angle,
    /// Speed ceiling as a multiple of the cruise set-speed.
    pub overspeed_factor: f64,
}

impl SafetyLimits {
    /// OpenPilot's software output limits (Table III footnote 1), sourced
    /// from the canonical [`units::limits`] module.
    pub fn software() -> Self {
        Self {
            accel_max: Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2),
            brake_min: Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2),
            steer_max: Angle::from_degrees(limits::SW_STEER_MAX_DEG),
            overspeed_factor: limits::SW_OVERSPEED_FACTOR,
        }
    }

    /// The strict envelope: Panda-style firmware checks, the driver's
    /// anomaly thresholds, and the strategic corruption limits (Table III
    /// footnote 2 and Eq. 1).
    pub fn strict() -> Self {
        Self {
            accel_max: Accel::from_mps2(limits::STRICT_ACCEL_MAX_MPS2),
            brake_min: Accel::from_mps2(limits::STRICT_BRAKE_MIN_MPS2),
            steer_max: Angle::from_degrees(limits::STRICT_STEER_MAX_DEG),
            overspeed_factor: limits::STRICT_OVERSPEED_FACTOR,
        }
    }

    /// Clamps a longitudinal command into the envelope.
    pub fn clamp_accel(&self, a: Accel) -> Accel {
        a.clamp(self.brake_min, self.accel_max)
    }

    /// Clamps a steering command into the envelope.
    pub fn clamp_steer(&self, s: Angle) -> Angle {
        s.clamp(-self.steer_max, self.steer_max)
    }

    /// Whether a longitudinal command is *within* the envelope (boundary
    /// values pass — the reason fixed attack values evade the software
    /// checks).
    pub fn accel_ok(&self, a: Accel) -> bool {
        a <= self.accel_max && a >= self.brake_min
    }

    /// Whether a steering command is within the envelope.
    pub fn steer_ok(&self, s: Angle) -> bool {
        s.abs() <= self.steer_max
    }

    /// Whether a speed is within the overspeed ceiling for a given cruise
    /// set-speed.
    pub fn speed_ok(&self, v: Speed, v_cruise: Speed) -> bool {
        v.mps() <= v_cruise.mps() * self.overspeed_factor
    }
}

/// The final output envelope: clamps an assembled control command into the
/// software limits immediately before it reaches the CAN encoder.
///
/// This is the stage adas-lint R9 anchors its proof on — the bounds are
/// spelled as literals from the canonical [`units::limits`] module so the
/// abstract interpreter can verify that everything flowing into
/// `CommandEncoder::encode_into` lies inside the physical plant limits. On
/// the nominal path the clamp is a no-op (the ACC command is already
/// strict-clamped and the ALC command software-clamped), but it converts
/// "every upstream stage behaved" from an assumption into a local
/// invariant.
pub fn envelope_clamp(control: CarControl) -> CarControl {
    CarControl {
        accel: control.accel.clamp(
            Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2),
            Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2),
        ),
        steer: control.steer.clamp(
            Angle::from_degrees(-limits::SW_STEER_MAX_DEG),
            Angle::from_degrees(limits::SW_STEER_MAX_DEG),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_is_tighter_than_software() {
        let sw = SafetyLimits::software();
        let st = SafetyLimits::strict();
        assert!(st.accel_max < sw.accel_max);
        assert!(st.brake_min > sw.brake_min);
        assert!(st.steer_max < sw.steer_max);
    }

    #[test]
    fn fixed_attack_values_pass_software_but_fail_strict() {
        // Table III: fixed = (2.4, -4.0, 0.5 deg); strategic = (2.0, -3.5, 0.25 deg).
        let sw = SafetyLimits::software();
        let st = SafetyLimits::strict();
        assert!(sw.accel_ok(Accel::from_mps2(2.4)));
        assert!(sw.accel_ok(Accel::from_mps2(-4.0)));
        assert!(sw.steer_ok(Angle::from_degrees(0.5)));
        assert!(!st.accel_ok(Accel::from_mps2(2.4)));
        assert!(!st.accel_ok(Accel::from_mps2(-4.0)));
        assert!(!st.steer_ok(Angle::from_degrees(0.5)));
    }

    #[test]
    fn strategic_values_pass_both() {
        for limits in [SafetyLimits::software(), SafetyLimits::strict()] {
            assert!(limits.accel_ok(Accel::from_mps2(2.0)));
            assert!(limits.accel_ok(Accel::from_mps2(-3.5)));
            assert!(limits.steer_ok(Angle::from_degrees(0.25)));
            assert!(limits.steer_ok(Angle::from_degrees(-0.25)));
        }
    }

    #[test]
    fn clamping() {
        let st = SafetyLimits::strict();
        assert_eq!(st.clamp_accel(Accel::from_mps2(5.0)), Accel::from_mps2(2.0));
        assert_eq!(st.clamp_accel(Accel::from_mps2(-9.0)), Accel::from_mps2(-3.5));
        assert_eq!(
            st.clamp_steer(Angle::from_degrees(1.0)),
            Angle::from_degrees(0.25)
        );
    }

    #[test]
    fn overspeed_check() {
        let st = SafetyLimits::strict();
        let cruise = Speed::from_mph(60.0);
        assert!(st.speed_ok(Speed::from_mph(65.9), cruise));
        assert!(!st.speed_ok(Speed::from_mph(66.1), cruise));
    }
}

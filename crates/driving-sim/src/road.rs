//! Road geometry in road-aligned (Frenet) coordinates.
//!
//! Longitudinal position `s` runs along the lane centreline; lateral position
//! `d` is the signed offset from the centre of the ego lane, positive to the
//! left. The paper's track is a gentle left-curved highway segment with a
//! guardrail close to the right of the ego lane and a neighbouring lane (plus
//! a farther guardrail) on the left.

use units::Distance;

/// Static road description.
#[derive(Debug, Clone, PartialEq)]
pub struct Road {
    lane_width: Distance,
    /// Piecewise-constant curvature profile: `(start_s_m, kappa_per_m)`,
    /// sorted by start. Positive curvature turns left.
    curvature_profile: Vec<(f64, f64)>,
    right_guardrail: Distance,
    left_guardrail: Distance,
}

impl Default for Road {
    /// The paper's track: 3.7 m lanes on a gentle left curve (R = 2.5 km).
    /// The ego
    /// travels in the rightmost lane with a guardrail only 0.75 m beyond its
    /// right line; two more lanes extend to the left before the median
    /// guardrail. The asymmetry is the root of the paper's Observation 5
    /// detail: rightward departures hit something almost immediately,
    /// leftward ones cross survivable lanes first.
    fn default() -> Self {
        Self {
            lane_width: Distance::meters(3.7),
            curvature_profile: vec![(0.0, 1.0 / 2500.0)],
            right_guardrail: Distance::meters(-(3.7 / 2.0 + 0.75)),
            left_guardrail: Distance::meters(3.7 / 2.0 + 2.0 * 3.7 + 0.75),
        }
    }
}

impl Road {
    /// Creates a road with an explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if the curvature profile is empty or does not start at `s = 0`.
    // adas-lint: allow(R1, reason = "curvature profile entries are (s in m, kappa in 1/m); units:: has no curvature newtype")
    pub fn new(
        lane_width: Distance,
        curvature_profile: Vec<(f64, f64)>,
        right_guardrail: Distance,
        left_guardrail: Distance,
    ) -> Self {
        assert!(
            curvature_profile.first().is_some_and(|(s, _)| s.abs() < 1e-9),
            "curvature profile must start at s = 0"
        );
        Self {
            lane_width,
            curvature_profile,
            right_guardrail,
            left_guardrail,
        }
    }

    /// A perfectly straight variant, useful in tests.
    pub fn straight() -> Self {
        Self {
            curvature_profile: vec![(0.0, 0.0)],
            ..Self::default()
        }
    }

    /// Lane width.
    pub fn lane_width(&self) -> Distance {
        self.lane_width
    }

    /// Road curvature at longitudinal position `s` (1/m, positive = left).
    // adas-lint: allow(R1, reason = "curvature in 1/m (positive = left); units:: has no curvature newtype")
    pub fn curvature(&self, s: Distance) -> f64 {
        let s = s.raw();
        self.curvature_profile
            .iter()
            .rev()
            .find(|(start, _)| s >= *start)
            .map_or(0.0, |(_, k)| *k)
    }

    /// Lateral position of the ego lane's left line.
    pub fn left_line(&self) -> Distance {
        self.lane_width / 2.0
    }

    /// Lateral position of the ego lane's right line.
    pub fn right_line(&self) -> Distance {
        -(self.lane_width / 2.0)
    }

    /// Lateral position of the right guardrail (negative: right of centre).
    pub fn right_guardrail(&self) -> Distance {
        self.right_guardrail
    }

    /// Lateral position of the left guardrail (beyond the neighbour lane).
    pub fn left_guardrail(&self) -> Distance {
        self.left_guardrail
    }

    /// Distance from a car edge position to the nearest guardrail; negative
    /// when the edge has penetrated the rail.
    pub fn guardrail_clearance(&self, left_edge: Distance, right_edge: Distance) -> Distance {
        let left_clear = self.left_guardrail - left_edge;
        let right_clear = right_edge - self.right_guardrail;
        left_clear.min(right_clear)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_track() {
        let road = Road::default();
        assert_eq!(road.lane_width(), Distance::meters(3.7));
        assert!(road.curvature(Distance::meters(500.0)) > 0.0, "left curve");
        // The right rail is much closer than the left one.
        assert!(road.right_guardrail().raw().abs() < road.left_guardrail().raw());
    }

    #[test]
    fn lane_lines_are_symmetric() {
        let road = Road::default();
        assert_eq!(road.left_line(), -road.right_line());
        assert_eq!(road.left_line(), Distance::meters(1.85));
    }

    #[test]
    fn piecewise_curvature_lookup() {
        let road = Road::new(
            Distance::meters(3.7),
            vec![(0.0, 0.0), (100.0, 0.002), (300.0, -0.001)],
            Distance::meters(-2.6),
            Distance::meters(6.3),
        );
        assert_eq!(road.curvature(Distance::meters(50.0)), 0.0);
        assert_eq!(road.curvature(Distance::meters(100.0)), 0.002);
        assert_eq!(road.curvature(Distance::meters(299.0)), 0.002);
        assert_eq!(road.curvature(Distance::meters(1e6)), -0.001);
    }

    #[test]
    #[should_panic(expected = "curvature profile must start at s = 0")]
    fn profile_must_start_at_zero() {
        let _ = Road::new(
            Distance::meters(3.7),
            vec![(10.0, 0.0)],
            Distance::meters(-2.6),
            Distance::meters(6.3),
        );
    }

    #[test]
    fn guardrail_clearance_signs() {
        let road = Road::default();
        // Car centred in lane, 1.82 m wide.
        let clear = road.guardrail_clearance(Distance::meters(0.91), Distance::meters(-0.91));
        assert!(clear.raw() > 0.0);
        // Car pushed far right: right edge beyond the rail.
        let clear = road.guardrail_clearance(Distance::meters(-1.8), Distance::meters(-3.0));
        assert!(clear.raw() < 0.0);
    }
}

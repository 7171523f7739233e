//! Traffic in the left neighbour lane.
//!
//! The paper's CARLA scenes contain "other reference vehicles" (Fig. 6a),
//! and its accident class A3 explicitly includes "collision with … other
//! vehicles in the neighboring lane". A steady convoy in the left lane makes
//! leftward lane departures dangerous the same way: an ego that blunders
//! across the left line at speed has a good chance of clipping a convoy
//! member, while a slow, shallow incursion usually slots into a gap.

use units::{Distance, Seconds, Speed};

/// An infinite, evenly-spaced convoy cruising in the left neighbour lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborTraffic {
    /// Lateral position of the convoy's lane centre.
    pub lane_center: Distance,
    /// Bumper-to-bumper spacing between consecutive members.
    pub spacing: Distance,
    /// Convoy speed.
    pub speed: Speed,
    /// Longitudinal phase of the convoy pattern at `t = 0`.
    pub phase: Distance,
    /// Member vehicle length.
    pub length: Distance,
    /// Member vehicle width.
    pub width: Distance,
}

impl NeighborTraffic {
    /// The paper-like default: 40 mph convoy every 45 m in the left lane,
    /// with a per-run phase derived from the seed.
    pub fn standard(seed: u64) -> Self {
        Self {
            lane_center: Distance::meters(3.7),
            spacing: Distance::meters(45.0),
            speed: Speed::from_mph(40.0),
            phase: Distance::meters((seed % 45) as f64),
            length: Distance::meters(4.7),
            width: Distance::meters(1.82),
        }
    }

    /// Longitudinal position of the convoy member nearest to `s` at time `t`.
    pub fn nearest_member(&self, t: Seconds, s: Distance) -> Distance {
        let travelled = self.phase.raw() + self.speed.mps() * t.secs();
        let rel = s.raw() - travelled;
        let k = (rel / self.spacing.raw()).round();
        Distance::meters(travelled + k * self.spacing.raw())
    }

    /// Longitudinal position of the nearest convoy member strictly ahead of
    /// `s` at time `t`.
    pub fn member_ahead(&self, t: Seconds, s: Distance) -> Distance {
        let nearest = self.nearest_member(t, s);
        if nearest > s {
            nearest
        } else {
            nearest + self.spacing
        }
    }

    /// Whether a car at `(s, d)` with the given footprint overlaps a convoy
    /// member at time `t`.
    pub fn collides(
        &self,
        t: Seconds,
        s: Distance,
        d: Distance,
        car_length: Distance,
        car_width: Distance,
    ) -> bool {
        let lateral = (d - self.lane_center).abs() < (car_width + self.width) / 2.0;
        if !lateral {
            return false;
        }
        let member = self.nearest_member(t, s);
        (member - s).abs() < (car_length + self.length) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic() -> NeighborTraffic {
        NeighborTraffic::standard(0)
    }

    #[test]
    fn nearest_member_is_within_half_spacing() {
        let t = traffic();
        for s in [0.0, 10.0, 44.9, 100.0, 1234.5] {
            let m = t.nearest_member(Seconds::new(3.0), Distance::meters(s));
            assert!((m.raw() - s).abs() <= 22.5 + 1e-9, "s={s} m={m}");
        }
    }

    #[test]
    fn convoy_moves_forward() {
        let t = traffic();
        let a = t.nearest_member(Seconds::new(0.0), Distance::ZERO);
        let b = t.nearest_member(Seconds::new(1.0), Distance::ZERO);
        // The member pattern shifted by v*dt (modulo spacing).
        let v = t.speed.mps();
        let shift = (b.raw() - a.raw() - v).rem_euclid(t.spacing.raw());
        assert!(shift.abs() < 1e-9 || (shift - t.spacing.raw()).abs() < 1e-9);
    }

    #[test]
    fn no_collision_from_own_lane() {
        let t = traffic();
        // Ego centred in its own lane never overlaps laterally.
        for s in 0..100 {
            assert!(!t.collides(
                Seconds::new(s as f64 * 0.5),
                Distance::meters(s as f64 * 3.0),
                Distance::ZERO,
                Distance::meters(4.7),
                Distance::meters(1.82),
            ));
        }
    }

    #[test]
    fn collision_requires_both_overlaps() {
        let t = traffic();
        let member = t.nearest_member(Seconds::new(0.0), Distance::ZERO);
        // In the neighbour lane, longitudinally aligned with a member: hit.
        assert!(t.collides(
            Seconds::new(0.0),
            member,
            Distance::meters(3.7),
            Distance::meters(4.7),
            Distance::meters(1.82),
        ));
        // Longitudinally between members: no hit.
        let gap_centre = member + Distance::meters(22.5);
        assert!(!t.collides(
            Seconds::new(0.0),
            gap_centre,
            Distance::meters(3.7),
            Distance::meters(4.7),
            Distance::meters(1.82),
        ));
    }

    #[test]
    fn phase_depends_on_seed() {
        let a = NeighborTraffic::standard(1);
        let b = NeighborTraffic::standard(20);
        assert_ne!(a.phase, b.phase);
    }
}

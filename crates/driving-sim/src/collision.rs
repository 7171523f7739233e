//! Collision and lane-invasion detection (CARLA's collision and
//! `lane_invasion` sensors).

use units::Distance;

use crate::Road;

/// What the ego vehicle collided with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollisionKind {
    /// Rear-ended the lead vehicle (the paper's accident A1).
    LeadVehicle,
    /// Contacted a guardrail or road-side object (accident A3).
    Guardrail,
    /// Collided with a vehicle in the neighbouring lane (also accident A3).
    NeighborVehicle,
}

/// Edge-triggered lane-invasion counter.
///
/// CARLA emits one `lane_invasion` event when a tire touches a lane marking;
/// re-triggering requires returning fully inside the lane first. The paper
/// counts these per second (0.46/s even without attacks, Observation 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneInvasionTracker {
    invading: bool,
    events: u64,
}

/// Hysteresis margin: the car must come this far back inside the lane before
/// another invasion can be counted.
const REARM_MARGIN: Distance = Distance::meters(0.05);

impl LaneInvasionTracker {
    /// Creates a tracker with no events.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total invasion events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the car is currently touching or across a lane line.
    pub fn is_invading(&self) -> bool {
        self.invading
    }

    /// Updates the tracker with the car's current edges; returns `true` when
    /// a new invasion event fires this step.
    pub fn step(&mut self, left_edge: Distance, right_edge: Distance, road: &Road) -> bool {
        let outside = left_edge > road.left_line() || right_edge < road.right_line();
        let fully_inside = left_edge < road.left_line() - REARM_MARGIN
            && right_edge > road.right_line() + REARM_MARGIN;
        match (self.invading, outside, fully_inside) {
            (false, true, _) => {
                self.invading = true;
                self.events += 1;
                true
            }
            (true, _, true) => {
                self.invading = false;
                false
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(d: f64, width: f64) -> (Distance, Distance) {
        (
            Distance::meters(d + width / 2.0),
            Distance::meters(d - width / 2.0),
        )
    }

    #[test]
    fn centred_car_never_invades() {
        let road = Road::default();
        let mut tracker = LaneInvasionTracker::new();
        let (l, r) = edges(0.0, 1.82);
        for _ in 0..100 {
            assert!(!tracker.step(l, r, &road));
        }
        assert_eq!(tracker.events(), 0);
    }

    #[test]
    fn crossing_fires_once_until_rearmed() {
        let road = Road::default();
        let mut tracker = LaneInvasionTracker::new();
        // Lane half-width 1.85, car half-width 0.91: invasion at |d| > 0.94.
        let (l, r) = edges(1.0, 1.82);
        assert!(tracker.step(l, r, &road), "first touch fires");
        assert!(!tracker.step(l, r, &road), "holding does not re-fire");
        // Not yet re-armed at the boundary.
        let (l, r) = edges(0.93, 1.82);
        assert!(!tracker.step(l, r, &road));
        assert!(tracker.is_invading(), "needs the margin to re-arm");
        // Fully inside re-arms; next crossing fires again.
        let (l, r) = edges(0.0, 1.82);
        assert!(!tracker.step(l, r, &road));
        let (l, r) = edges(-1.0, 1.82);
        assert!(tracker.step(l, r, &road), "right-side crossing fires too");
        assert_eq!(tracker.events(), 2);
    }

    #[test]
    fn oscillation_near_line_counts_each_full_crossing() {
        let road = Road::default();
        let mut tracker = LaneInvasionTracker::new();
        let mut count = 0;
        for cycle in 0..5 {
            let (l, r) = edges(1.2, 1.82);
            if tracker.step(l, r, &road) {
                count += 1;
            }
            let (l, r) = edges(0.0, 1.82);
            tracker.step(l, r, &road);
            let _ = cycle;
        }
        assert_eq!(count, 5);
        assert_eq!(tracker.events(), 5);
    }
}

//! The paper's driving scenarios (§IV-A).
//!
//! "The Ego vehicle, cruising at 60 mph from 50, 70, or 100 meters away,
//! approaches a lead vehicle with different behaviors."

use units::{Distance, Seconds, Speed};

use crate::LeadBehavior;

/// The three initial gaps to the lead vehicle used in every experiment.
pub const INITIAL_GAPS: [f64; 3] = [50.0, 70.0, 100.0];

/// The four lead-vehicle behaviours of §IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// Lead cruises at 35 mph.
    S1,
    /// Lead cruises at 50 mph.
    S2,
    /// Lead slows from 50 mph to 35 mph.
    S3,
    /// Lead accelerates from 35 mph to 50 mph.
    S4,
}

impl ScenarioId {
    /// All four scenarios.
    pub const ALL: [ScenarioId; 4] = [ScenarioId::S1, ScenarioId::S2, ScenarioId::S3, ScenarioId::S4];

    /// The lead behaviour of this scenario. Speed changes start at t = 10 s,
    /// well after the ADAS has settled into following.
    pub fn lead_behavior(self) -> LeadBehavior {
        match self {
            ScenarioId::S1 => LeadBehavior::Cruise(Speed::from_mph(35.0)),
            ScenarioId::S2 => LeadBehavior::Cruise(Speed::from_mph(50.0)),
            ScenarioId::S3 => LeadBehavior::ChangeSpeed {
                from: Speed::from_mph(50.0),
                to: Speed::from_mph(35.0),
                at: Seconds::new(10.0),
            },
            ScenarioId::S4 => LeadBehavior::ChangeSpeed {
                from: Speed::from_mph(35.0),
                to: Speed::from_mph(50.0),
                at: Seconds::new(10.0),
            },
        }
    }

    /// Short label as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioId::S1 => "S1",
            ScenarioId::S2 => "S2",
            ScenarioId::S3 => "S3",
            ScenarioId::S4 => "S4",
        }
    }
}

/// A fully-specified driving scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Which lead behaviour to run.
    pub id: ScenarioId,
    /// Initial gap from ego front bumper to lead rear bumper.
    pub initial_gap: Distance,
    /// Ego cruise set-speed (60 mph in all paper experiments).
    pub cruise_speed: Speed,
    /// Ego initial lateral offset. The paper initialises the ego "to a lane
    /// closer to the right guardrail": slightly right of centre.
    pub initial_lateral_offset: Distance,
}

impl Scenario {
    /// Creates a scenario with the paper's defaults (60 mph cruise, slight
    /// right offset).
    pub fn new(id: ScenarioId, initial_gap: Distance) -> Self {
        Self {
            id,
            initial_gap,
            cruise_speed: Speed::from_mph(60.0),
            initial_lateral_offset: Distance::meters(-0.25),
        }
    }

    /// The 12 scenario × gap combinations of the paper's experiment matrix.
    pub fn matrix() -> Vec<Scenario> {
        ScenarioId::ALL
            .into_iter()
            .flat_map(|id| {
                INITIAL_GAPS
                    .into_iter()
                    .map(move |g| Scenario::new(id, Distance::meters(g)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_twelve_entries() {
        let m = Scenario::matrix();
        assert_eq!(m.len(), 12);
        // All distinct.
        for (i, a) in m.iter().enumerate() {
            for b in &m[i + 1..] {
                assert!(a.id != b.id || a.initial_gap != b.initial_gap);
            }
        }
    }

    #[test]
    fn scenario_speeds_match_paper() {
        assert_eq!(
            ScenarioId::S1.lead_behavior().initial_speed(),
            Speed::from_mph(35.0)
        );
        assert_eq!(
            ScenarioId::S2.lead_behavior().initial_speed(),
            Speed::from_mph(50.0)
        );
        assert_eq!(
            ScenarioId::S3.lead_behavior().target_speed(Seconds::new(100.0)),
            Speed::from_mph(35.0)
        );
        assert_eq!(
            ScenarioId::S4.lead_behavior().target_speed(Seconds::new(100.0)),
            Speed::from_mph(50.0)
        );
    }

    #[test]
    fn defaults_follow_paper() {
        let s = Scenario::new(ScenarioId::S1, Distance::meters(50.0));
        assert_eq!(s.cruise_speed, Speed::from_mph(60.0));
        assert!(s.initial_lateral_offset.raw() < 0.0, "starts right of centre");
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = ScenarioId::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["S1", "S2", "S3", "S4"]);
    }
}

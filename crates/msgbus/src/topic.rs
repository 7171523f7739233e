//! Event-stream names, mirroring the Cereal services the paper eavesdrops on.

use std::fmt;

/// The event streams published on the [`Bus`](crate::Bus).
///
/// Names follow the Cereal services from the paper's §III-C: the attacker
/// subscribes to `gpsLocationExternal` (ego speed), `modelV2` (lane-line
/// positions) and `radarState` (lead relative speed/distance); the ADAS
/// additionally publishes its fused car state, its actuator outputs and its
/// controls/alert state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Topic {
    /// Ego speed and bearing from the GPS module (`gpsLocationExternal`).
    GpsLocationExternal,
    /// Lane-line positions from the perception model (`modelV2`).
    ModelV2,
    /// Lead-vehicle track from the radar module (`radarState`).
    RadarState,
    /// Fused vehicle state used by the planner (`carState`).
    CarState,
    /// High-level actuator command issued by the controller (`carControl`).
    CarControl,
    /// Controller status and active alerts (`controlsState`).
    ControlsState,
}

impl Topic {
    /// Number of defined topics (the length of [`Topic::ALL`]).
    pub const COUNT: usize = 6;

    /// All defined topics.
    pub const ALL: [Topic; 6] = [
        Topic::GpsLocationExternal,
        Topic::ModelV2,
        Topic::RadarState,
        Topic::CarState,
        Topic::CarControl,
        Topic::ControlsState,
    ];

    /// Dense index of the topic within [`Topic::ALL`], for per-topic
    /// counter arrays.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(msgbus::Topic::ALL[msgbus::Topic::RadarState.index()],
    ///            msgbus::Topic::RadarState);
    /// ```
    pub const fn index(self) -> usize {
        match self {
            Topic::GpsLocationExternal => 0,
            Topic::ModelV2 => 1,
            Topic::RadarState => 2,
            Topic::CarState => 3,
            Topic::CarControl => 4,
            Topic::ControlsState => 5,
        }
    }

    /// The Cereal-style service name of the topic.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(msgbus::Topic::ModelV2.service_name(), "modelV2");
    /// ```
    pub fn service_name(self) -> &'static str {
        match self {
            Topic::GpsLocationExternal => "gpsLocationExternal",
            Topic::ModelV2 => "modelV2",
            Topic::RadarState => "radarState",
            Topic::CarState => "carState",
            Topic::CarControl => "carControl",
            Topic::ControlsState => "controlsState",
        }
    }

    /// Parses a Cereal service name back into a topic.
    ///
    /// # Examples
    ///
    /// ```
    /// use msgbus::Topic;
    /// assert_eq!(Topic::from_service_name("radarState"), Some(Topic::RadarState));
    /// assert_eq!(Topic::from_service_name("bogus"), None);
    /// ```
    pub fn from_service_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.service_name() == name)
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.service_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_names_round_trip() {
        for t in Topic::ALL {
            assert_eq!(Topic::from_service_name(t.service_name()), Some(t));
        }
    }

    #[test]
    fn unknown_service_name_is_none() {
        assert_eq!(Topic::from_service_name("modelV3"), None);
        assert_eq!(Topic::from_service_name(""), None);
    }

    #[test]
    fn all_topics_unique() {
        for (i, a) in Topic::ALL.iter().enumerate() {
            for b in &Topic::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_matches_service_name() {
        assert_eq!(format!("{}", Topic::CarControl), "carControl");
    }
}

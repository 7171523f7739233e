//! Autonomous Emergency Braking.
//!
//! The paper's §II-A notes that OpenPilot-class deployments also ship AEB in
//! the car's own firmware, and §V lists it among the mechanisms *not*
//! engaged in the CARLA evaluation. This module implements the standard
//! time-to-collision trigger so the repository can ablate it: AEB acts on
//! the *radar* measurement directly, downstream of the corrupted command
//! path, so a forward-collision attack must now outrun the firmware too.

use msgbus::schema::RadarState;
use units::{Accel, Seconds, Speed};

/// AEB state per control cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AebState {
    /// No imminent collision.
    Inactive,
    /// TTC below the warning threshold.
    Warning,
    /// TTC below the braking threshold: full braking commanded.
    Braking,
}

/// A time-to-collision-based emergency braking function.
///
/// `TTC = gap / closing speed`; below [`AebConfig::warn_ttc`] a warning is
/// latched, below [`AebConfig::brake_ttc`] the brake request overrides
/// whatever the (possibly corrupted) longitudinal command says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AebConfig {
    /// TTC threshold for the warning stage.
    pub warn_ttc: Seconds,
    /// TTC threshold for autonomous braking.
    pub brake_ttc: Seconds,
    /// Brake strength applied during AEB (firmware-level, beyond the ADAS
    /// comfort envelope).
    pub brake: Accel,
}

impl Default for AebConfig {
    fn default() -> Self {
        Self {
            warn_ttc: Seconds::new(2.6),
            brake_ttc: Seconds::new(1.4),
            brake: Accel::from_mps2(-6.0),
        }
    }
}

/// The AEB function. Feed it the radar and ego speed each cycle; it returns
/// an overriding brake command while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aeb {
    config: AebConfig,
    state: AebState,
    activations: u64,
}

impl Default for Aeb {
    fn default() -> Self {
        Self::new(AebConfig::default())
    }
}

impl Aeb {
    /// Creates an AEB function.
    pub fn new(config: AebConfig) -> Self {
        Self {
            config,
            state: AebState::Inactive,
            activations: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> AebState {
        self.state
    }

    /// Number of distinct braking activations so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Time-to-collision for a radar sample, if a closing lead exists.
    pub fn ttc(radar: &RadarState, v_ego: Speed) -> Option<Seconds> {
        let lead = radar.lead?;
        let closing = v_ego.mps() - lead.v_lead.mps();
        (closing > 0.5).then(|| Seconds::new(lead.d_rel.raw() / closing))
    }

    /// Advances one cycle; returns the overriding brake command while the
    /// braking stage is active.
    pub fn step(&mut self, radar: &RadarState, v_ego: Speed) -> Option<Accel> {
        let ttc = Self::ttc(radar, v_ego);
        let next = match ttc {
            Some(t) if t <= self.config.brake_ttc => AebState::Braking,
            Some(t) if t <= self.config.warn_ttc => AebState::Warning,
            _ => {
                // Braking latches until the threat clears entirely.
                if self.state == AebState::Braking && ttc.is_some() {
                    AebState::Braking
                } else {
                    AebState::Inactive
                }
            }
        };
        if next == AebState::Braking && self.state != AebState::Braking {
            self.activations += 1;
        }
        self.state = next;
        (self.state == AebState::Braking).then_some(self.config.brake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgbus::schema::LeadTrack;
    use units::Distance;

    fn radar(gap: f64, v_lead: f64) -> RadarState {
        RadarState {
            lead: Some(LeadTrack {
                d_rel: Distance::meters(gap),
                v_lead: Speed::from_mps(v_lead),
                a_lead: Accel::ZERO,
            }),
        }
    }

    #[test]
    fn ttc_requires_closing() {
        let v = Speed::from_mps(20.0);
        assert!(Aeb::ttc(&radar(50.0, 25.0), v).is_none(), "opening gap");
        let ttc = Aeb::ttc(&radar(50.0, 10.0), v).unwrap();
        assert!((ttc.secs() - 5.0).abs() < 1e-9);
        assert!(Aeb::ttc(&RadarState { lead: None }, v).is_none());
    }

    #[test]
    fn state_ladder() {
        let mut aeb = Aeb::default();
        let v = Speed::from_mps(20.0);
        assert_eq!(aeb.step(&radar(100.0, 10.0), v), None);
        assert_eq!(aeb.state(), AebState::Inactive);
        // TTC 2.0 s: warning.
        assert_eq!(aeb.step(&radar(20.0, 10.0), v), None);
        assert_eq!(aeb.state(), AebState::Warning);
        // TTC 1.0 s: braking.
        let brake = aeb.step(&radar(10.0, 10.0), v).unwrap();
        assert_eq!(brake, Accel::from_mps2(-6.0));
        assert_eq!(aeb.activations(), 1);
    }

    #[test]
    fn braking_latches_until_threat_clears() {
        let mut aeb = Aeb::default();
        let v = Speed::from_mps(20.0);
        aeb.step(&radar(10.0, 10.0), v);
        assert_eq!(aeb.state(), AebState::Braking);
        // TTC recovers above the brake threshold but the lead still closes:
        // stay braking (no pumping).
        aeb.step(&radar(30.0, 10.0), v);
        assert_eq!(aeb.state(), AebState::Braking);
        // Threat gone entirely: release.
        aeb.step(&radar(30.0, 25.0), v);
        assert_eq!(aeb.state(), AebState::Inactive);
        assert_eq!(aeb.activations(), 1, "one continuous activation");
    }

    #[test]
    fn reactivation_counts() {
        let mut aeb = Aeb::default();
        let v = Speed::from_mps(20.0);
        aeb.step(&radar(10.0, 10.0), v);
        aeb.step(&radar(30.0, 25.0), v); // clears
        aeb.step(&radar(8.0, 10.0), v); // again
        assert_eq!(aeb.activations(), 2);
    }
}

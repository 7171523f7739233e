//! The six attack types of the paper's Table II and their component actions.

/// Which way a steering attack pushes the car.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteerDirection {
    /// Toward the neighbouring lane (positive steering angle).
    Left,
    /// Toward the nearby guardrail (negative steering angle).
    Right,
}

impl SteerDirection {
    /// Sign of the steering angle for this direction.
    pub fn sign(self) -> f64 {
        match self {
            SteerDirection::Left => 1.0,
            SteerDirection::Right => -1.0,
        }
    }
}

/// An elementary unsafe control action (the `u₁..u₄` of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackAction {
    /// `u₁`: maximum gas, zero brake.
    Accelerate,
    /// `u₂`: maximum brake, zero gas.
    Decelerate,
    /// `u₃` / `u₄`: steer toward a lane edge.
    Steer(SteerDirection),
}

/// The attack types of Table II: each experiment injects faults into one
/// output variable or a combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackType {
    /// Corrupt gas (max) and brake (zero).
    Acceleration,
    /// Corrupt brake (max) and gas (zero).
    Deceleration,
    /// Corrupt the steering angle toward the left.
    SteeringLeft,
    /// Corrupt the steering angle toward the right.
    SteeringRight,
    /// Corrupt gas and steering together.
    AccelerationSteering,
    /// Corrupt brake and steering together.
    DecelerationSteering,
}

impl AttackType {
    /// All six types, in the paper's table order.
    pub const ALL: [AttackType; 6] = [
        AttackType::Acceleration,
        AttackType::Deceleration,
        AttackType::SteeringLeft,
        AttackType::SteeringRight,
        AttackType::AccelerationSteering,
        AttackType::DecelerationSteering,
    ];

    /// Whether this type corrupts the longitudinal command, and in which
    /// direction (`Some(Accelerate)` / `Some(Decelerate)`).
    pub fn longitudinal(self) -> Option<AttackAction> {
        match self {
            AttackType::Acceleration | AttackType::AccelerationSteering => {
                Some(AttackAction::Accelerate)
            }
            AttackType::Deceleration | AttackType::DecelerationSteering => {
                Some(AttackAction::Decelerate)
            }
            AttackType::SteeringLeft | AttackType::SteeringRight => None,
        }
    }

    /// Whether this type corrupts steering. Pure steering types have a fixed
    /// direction; combined types choose per-context (`None` direction here).
    pub fn steering(self) -> Option<Option<SteerDirection>> {
        match self {
            AttackType::SteeringLeft => Some(Some(SteerDirection::Left)),
            AttackType::SteeringRight => Some(Some(SteerDirection::Right)),
            AttackType::AccelerationSteering | AttackType::DecelerationSteering => Some(None),
            AttackType::Acceleration | AttackType::Deceleration => None,
        }
    }

    /// The type's position in [`AttackType::ALL`] — the paper's table order.
    ///
    /// Infallible by construction (a `match`, not a scan), so it cannot
    /// alias an unmapped type to 0 the way a fallback-on-`position()` did;
    /// adding a variant without extending this is a compile error. Campaign
    /// seed derivation depends on these exact values staying stable.
    pub const fn index(self) -> usize {
        match self {
            AttackType::Acceleration => 0,
            AttackType::Deceleration => 1,
            AttackType::SteeringLeft => 2,
            AttackType::SteeringRight => 3,
            AttackType::AccelerationSteering => 4,
            AttackType::DecelerationSteering => 5,
        }
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            AttackType::Acceleration => "Acceleration",
            AttackType::Deceleration => "Deceleration",
            AttackType::SteeringLeft => "Steering-Left",
            AttackType::SteeringRight => "Steering-Right",
            AttackType::AccelerationSteering => "Acceleration-Steering",
            AttackType::DecelerationSteering => "Deceleration-Steering",
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    #[test]
    fn component_breakdown_matches_table_ii() {
        use AttackAction::*;
        assert_eq!(AttackType::Acceleration.longitudinal(), Some(Accelerate));
        assert_eq!(AttackType::Acceleration.steering(), None);
        assert_eq!(AttackType::Deceleration.longitudinal(), Some(Decelerate));
        assert_eq!(
            AttackType::SteeringLeft.steering(),
            Some(Some(SteerDirection::Left))
        );
        assert_eq!(AttackType::SteeringLeft.longitudinal(), None);
        assert_eq!(
            AttackType::AccelerationSteering.longitudinal(),
            Some(Accelerate)
        );
        assert_eq!(AttackType::AccelerationSteering.steering(), Some(None));
        assert_eq!(
            AttackType::DecelerationSteering.longitudinal(),
            Some(Decelerate)
        );
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = AttackType::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Acceleration",
                "Deceleration",
                "Steering-Left",
                "Steering-Right",
                "Acceleration-Steering",
                "Deceleration-Steering"
            ]
        );
    }

    #[test]
    fn index_matches_position_in_all() {
        for (i, t) in AttackType::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i, "{t:?}");
        }
    }

    #[test]
    fn steer_direction_signs() {
        assert_eq!(SteerDirection::Left.sign(), 1.0);
        assert_eq!(SteerDirection::Right.sign(), -1.0);
    }
}

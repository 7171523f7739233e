//! The discrete simulation clock.
//!
//! The paper runs OpenPilot+CARLA in lockstep: "A single simulation of
//! OpenPilot contains 5000 time-steps, each step lasts about 10 ms, which in
//! total equals 50 seconds" (§IV). Every component in this workspace advances
//! on the same [`Tick`].

use std::fmt;
use std::ops::{Add, Sub};

use crate::Seconds;

/// Length of one control cycle: 10 ms.
pub const DT: Seconds = Seconds::new(0.01);

/// Number of control cycles in one simulation run.
pub const STEPS_PER_SIM: u64 = 5_000;

/// Total simulated duration of one run: 50 s.
pub const SIM_DURATION: Seconds = Seconds::new(50.0);

/// A discrete simulation step index.
///
/// # Examples
///
/// ```
/// use units::{Tick, DT};
///
/// let t = Tick::new(250);
/// assert_eq!(t.time().secs(), 2.5);
/// assert_eq!(Tick::from_time(units::Seconds::new(2.5)), t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The first tick of a simulation.
    pub const ZERO: Self = Self(0);

    /// Creates a tick from a raw step index.
    #[inline]
    pub const fn new(step: u64) -> Self {
        Self(step)
    }

    /// The raw step index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The simulated wall-clock time of this tick.
    #[inline]
    pub fn time(self) -> Seconds {
        Seconds::new(self.0 as f64 * DT.secs())
    }

    /// The tick closest to (not after) the given simulated time.
    #[inline]
    pub fn from_time(t: Seconds) -> Self {
        Self((t.secs() / DT.secs()).round().max(0.0) as u64)
    }

    /// The next tick.
    #[inline]
    pub fn next(self) -> Self {
        Self(self.0 + 1)
    }

    /// Elapsed time since `earlier`. Saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Tick) -> Seconds {
        Seconds::new(self.0.saturating_sub(earlier.0) as f64 * DT.secs())
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tick {} (t={:.2}s)", self.0, self.time().secs())
    }
}

impl Add<u64> for Tick {
    type Output = Self;
    #[inline]
    fn add(self, rhs: u64) -> Self {
        Self(self.0 + rhs)
    }
}

impl Sub for Tick {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Self) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

/// A stepping clock that owns the current [`Tick`] of a simulation run.
///
/// # Examples
///
/// ```
/// use units::SimClock;
///
/// let mut clock = SimClock::new();
/// assert_eq!(clock.now().index(), 0);
/// clock.step();
/// assert_eq!(clock.now().index(), 1);
/// assert!(!clock.finished());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimClock {
    now: Tick,
}

impl SimClock {
    /// Creates a clock at tick zero.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current tick.
    #[inline]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Advances the clock by one control cycle and returns the new tick.
    #[inline]
    pub fn step(&mut self) -> Tick {
        self.now = self.now.next();
        self.now
    }

    /// Whether the standard 5,000-step run has completed.
    #[inline]
    pub fn finished(&self) -> bool {
        self.now.index() >= STEPS_PER_SIM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_time_round_trip() {
        for step in [0u64, 1, 250, 4999, 5000] {
            let t = Tick::new(step);
            assert_eq!(Tick::from_time(t.time()), t);
        }
    }

    #[test]
    fn sim_duration_consistent() {
        assert!((Tick::new(STEPS_PER_SIM).time().secs() - SIM_DURATION.secs()).abs() < 1e-9);
    }

    #[test]
    fn since_saturates() {
        let a = Tick::new(100);
        let b = Tick::new(350);
        assert!((b.since(a).secs() - 2.5).abs() < 1e-12);
        assert_eq!(a.since(b), Seconds::new(0.0));
    }

    #[test]
    fn clock_runs_to_completion() {
        let mut clock = SimClock::new();
        let mut steps = 0;
        while !clock.finished() {
            clock.step();
            steps += 1;
        }
        assert_eq!(steps, STEPS_PER_SIM);
        assert_eq!(clock.now().time(), SIM_DURATION);
    }

    #[test]
    fn tick_arithmetic() {
        let t = Tick::new(10);
        assert_eq!(t + 5, Tick::new(15));
        assert_eq!(Tick::new(15) - t, 5);
        assert_eq!(t - Tick::new(15), 0, "subtraction saturates");
        assert_eq!(t.next(), Tick::new(11));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Tick::new(250)), "tick 250 (t=2.50s)");
    }
}

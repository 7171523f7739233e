//! Step 3 of the attack: activation-time and duration selection —
//! the four strategies of the paper's Table III.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use units::{Seconds, Tick};

/// The attack strategies compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Start ~ U[5, 40] s, duration ~ U[0.5, 2.5] s (first baseline).
    RandomStDur,
    /// Start ~ U[5, 40] s, duration fixed at the 2.5 s average driver
    /// reaction time (second baseline).
    RandomSt,
    /// Context-inferred start, duration ~ U[0.5, 2.5] s (third baseline).
    RandomDur,
    /// Context-inferred start; runs for as long as the critical context
    /// holds (the paper's strategy).
    ContextAware,
}

impl StrategyKind {
    /// All strategies, in the paper's table order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::RandomStDur,
        StrategyKind::RandomSt,
        StrategyKind::RandomDur,
        StrategyKind::ContextAware,
    ];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::RandomStDur => "Random-ST+DUR",
            StrategyKind::RandomSt => "Random-ST",
            StrategyKind::RandomDur => "Random-DUR",
            StrategyKind::ContextAware => "Context-Aware",
        }
    }

    /// Whether the strategy's start time is context-inferred.
    pub fn context_started(self) -> bool {
        matches!(self, StrategyKind::RandomDur | StrategyKind::ContextAware)
    }
}

/// Decides, each tick, whether the attack should be firing.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackScheduler {
    kind: StrategyKind,
    /// Random start (random-start strategies), drawn at construction.
    random_start: Tick,
    /// Drawn duration, where applicable.
    duration: Option<Seconds>,
    /// First tick at which the attack actually fired.
    started: Option<Tick>,
    /// Whether a Context-Aware burst has already run to completion.
    completed: bool,
    /// Latched off (driver engaged).
    halted: bool,
}

impl AttackScheduler {
    /// Creates a scheduler with an explicit start and duration, bypassing
    /// the random draws. Used for parameter-space sweeps (the paper's
    /// Fig. 8), where start time and duration are the swept variables.
    pub fn fixed_window(start: Seconds, duration: Seconds) -> Self {
        Self {
            kind: StrategyKind::RandomStDur,
            random_start: Tick::from_time(start),
            duration: Some(duration),
            started: None,
            completed: false,
            halted: false,
        }
    }

    /// Creates a scheduler, drawing any random parameters from `seed`.
    pub fn new(kind: StrategyKind, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Uniform [5, 40] s start, [0.5, 2.5] s duration (Table III).
        let random_start = Tick::from_time(Seconds::new(rng.gen_range(5.0..40.0)));
        let random_duration = Seconds::new(rng.gen_range(0.5..2.5));
        let duration = match kind {
            StrategyKind::RandomStDur | StrategyKind::RandomDur => Some(random_duration),
            StrategyKind::RandomSt => Some(Seconds::new(2.5)),
            StrategyKind::ContextAware => None,
        };
        Self {
            kind,
            random_start,
            duration,
            started: None,
            completed: false,
            halted: false,
        }
    }

    /// The strategy in use.
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// The drawn duration, if the strategy has one.
    pub fn duration(&self) -> Option<Seconds> {
        self.duration
    }

    /// The drawn random start (meaningful for random-start strategies).
    pub fn random_start(&self) -> Tick {
        self.random_start
    }

    /// When the attack first fired, if it has.
    pub fn started(&self) -> Option<Tick> {
        self.started
    }

    /// Latches the scheduler off — the attack engine stops as soon as the
    /// driver engages (paper §IV-B).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Whether the scheduler has been halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the scheduler can never fire again at or after `tick`:
    /// halted, a completed Context-Aware burst, or a random window wholly
    /// in the past. Pure — [`Self::update`] mutates nothing once this is
    /// true, so a caller may skip the whole observe/decide cycle without
    /// affecting any observable behaviour.
    pub fn exhausted(&self, tick: Tick) -> bool {
        if self.halted {
            return true;
        }
        match self.kind {
            StrategyKind::RandomStDur | StrategyKind::RandomSt => match self.duration {
                Some(dur) => tick >= self.random_start && tick.since(self.random_start) >= dur,
                None => true, // fail-closed dormant forever
            },
            StrategyKind::RandomDur => match (self.started, self.duration) {
                (None, _) => false,
                (Some(start), Some(dur)) => tick.since(start) >= dur,
                (Some(_), None) => true,
            },
            StrategyKind::ContextAware => self.completed,
        }
    }

    /// Returns whether the attack fires at `tick`, given whether the target
    /// context currently matches.
    pub fn update(&mut self, tick: Tick, context_active: bool) -> bool {
        if self.halted {
            return false;
        }
        let active = match self.kind {
            // Fail closed: a random strategy without a drawn duration is a
            // construction bug, and the scheduler sits on the per-tick
            // control path — the attack stays dormant rather than panicking
            // the loop.
            StrategyKind::RandomStDur | StrategyKind::RandomSt => match self.duration {
                Some(dur) => tick >= self.random_start && tick.since(self.random_start) < dur,
                None => false,
            },
            StrategyKind::RandomDur => match (self.started, self.duration) {
                (None, _) => context_active,
                (Some(start), Some(dur)) => tick.since(start) < dur,
                (Some(_), None) => false,
            },
            // One burst per run: the engine launches at the first critical
            // context and runs while it holds; re-arming after the burst
            // would both raise the detection surface (a car that brakes in
            // waves is obviously faulty) and waste the element of surprise.
            StrategyKind::ContextAware => {
                if self.completed {
                    false
                } else {
                    if self.started.is_some() && !context_active {
                        self.completed = true;
                    }
                    !self.completed && context_active
                }
            }
        };
        if active && self.started.is_none() {
            self.started = Some(tick);
        }
        active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_window(s: &mut AttackScheduler, ticks: u64, context: bool) -> Vec<u64> {
        (0..ticks)
            .filter(|&i| s.update(Tick::new(i), context))
            .collect()
    }

    #[test]
    fn random_st_dur_window_is_within_bounds() {
        for seed in 0..50 {
            let mut s = AttackScheduler::new(StrategyKind::RandomStDur, seed);
            let active = run_window(&mut s, 5000, false);
            assert!(!active.is_empty());
            let start = active[0] as f64 * 0.01;
            let dur = active.len() as f64 * 0.01;
            assert!((5.0..40.0).contains(&start), "seed {seed}: start {start}");
            assert!((0.45..2.55).contains(&dur), "seed {seed}: duration {dur}");
            // Contiguous window.
            assert_eq!(active.last().unwrap() - active[0] + 1, active.len() as u64);
        }
    }

    #[test]
    fn random_st_has_fixed_2_5s_duration() {
        let mut s = AttackScheduler::new(StrategyKind::RandomSt, 3);
        let active = run_window(&mut s, 5000, false);
        assert_eq!(active.len(), 250, "2.5 s at 10 ms per tick");
    }

    #[test]
    fn random_dur_starts_with_context() {
        let mut s = AttackScheduler::new(StrategyKind::RandomDur, 9);
        // No context, never fires.
        assert!(run_window(&mut s, 1000, false).is_empty());
        // Context appears at tick 1000: fires immediately, for the drawn
        // duration, even after context disappears.
        assert!(s.update(Tick::new(1000), true));
        assert_eq!(s.started(), Some(Tick::new(1000)));
        let dur_ticks = (s.duration().unwrap().secs() / 0.01).ceil() as u64;
        let mut active = 1;
        for i in 1001..5000 {
            if s.update(Tick::new(i), false) {
                active += 1;
            }
        }
        assert_eq!(active, dur_ticks);
    }

    #[test]
    fn context_aware_is_a_single_burst() {
        let mut s = AttackScheduler::new(StrategyKind::ContextAware, 1);
        assert!(!s.update(Tick::new(0), false));
        assert!(s.update(Tick::new(1), true));
        assert!(s.update(Tick::new(2), true));
        assert!(!s.update(Tick::new(3), false), "stops when context exits");
        assert!(
            !s.update(Tick::new(4), true),
            "one burst per run: no re-arming after completion"
        );
        assert_eq!(s.started(), Some(Tick::new(1)));
    }

    #[test]
    fn exhausted_matches_update_going_quiet_forever() {
        // Random window: exhausted exactly once the window has passed.
        let mut s = AttackScheduler::new(StrategyKind::RandomSt, 7);
        let active = run_window(&mut s, 5000, false);
        let last = *active.last().unwrap();
        assert!(!s.exhausted(Tick::new(last)), "still firing");
        assert!(s.exhausted(Tick::new(last + 1)), "window passed");
        assert!(!s.exhausted(Tick::new(0)), "window still ahead");

        // Context-Aware: exhausted only after the burst completes.
        let mut s = AttackScheduler::new(StrategyKind::ContextAware, 1);
        assert!(!s.exhausted(Tick::new(0)), "may still trigger");
        assert!(s.update(Tick::new(1), true));
        assert!(!s.exhausted(Tick::new(2)), "burst running");
        assert!(!s.update(Tick::new(2), false));
        assert!(s.exhausted(Tick::new(3)), "one burst per run");

        // Halt is terminal for every strategy.
        let mut s = AttackScheduler::new(StrategyKind::RandomDur, 3);
        s.halt();
        assert!(s.exhausted(Tick::new(0)));
    }

    #[test]
    fn halt_latches_off() {
        let mut s = AttackScheduler::new(StrategyKind::ContextAware, 1);
        assert!(s.update(Tick::new(0), true));
        s.halt();
        for i in 1..100 {
            assert!(!s.update(Tick::new(i), true));
        }
        assert!(s.halted());
    }

    #[test]
    fn same_seed_same_draws() {
        let a = AttackScheduler::new(StrategyKind::RandomStDur, 42);
        let b = AttackScheduler::new(StrategyKind::RandomStDur, 42);
        assert_eq!(a.random_start(), b.random_start());
        assert_eq!(a.duration(), b.duration());
        let c = AttackScheduler::new(StrategyKind::RandomStDur, 43);
        assert!(a.random_start() != c.random_start() || a.duration() != c.duration());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = StrategyKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Random-ST+DUR", "Random-ST", "Random-DUR", "Context-Aware"]
        );
    }
}

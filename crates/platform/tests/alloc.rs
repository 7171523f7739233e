//! Proves mechanically that after warm-up `Harness::step`, and the fused
//! `FusedLane::step` every untraced campaign cell runs on — attacked,
//! faulted or defended — perform **zero heap allocations** on a
//! steady-state (no-trace, no-collision) tick.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counting is
//! armed only around the measured window so test-harness bookkeeping and
//! warm-up growth (msgbus ring, encoder counter map, reused frame/alert
//! buffers reaching their high-water capacity) are excluded — exactly the
//! once-per-run costs the hot-path overhaul amortizes away.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use platform::{DefensePolicy, FusedLane, Harness, HarnessConfig};
use units::Distance;

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// An integration test is a separate crate, so the workspace lib crates'
// `#![forbid(unsafe_code)]` does not apply; the unsafety is confined to
// delegating to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Single test so the global counters see exactly one measured window per
/// harness (plain, fault-injected, fused and defended fused, armed back
/// to back).
#[test]
fn steady_state_tick_does_not_touch_the_heap() {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let cfg = HarnessConfig::no_attack(scenario, 3);
    let mut harness = Harness::new(cfg);

    // A second harness with the fault engine active through the whole
    // measured window: degradation escalation (and its alerts) happens
    // during warm-up, so the window exercises the faulted sensor path,
    // the CAN fault pass and the fail-safe control branch at steady state.
    let faulted_cfg = HarnessConfig::no_attack(scenario, 3).with_faults(FaultSchedule::single(
        FaultSpec::window(FaultKind::SensorDropout, FaultTarget::All, 50, 20_000),
    ));
    let mut faulted = Harness::new(faulted_cfg);

    // A fused lane, the path `platform::simulate` takes for an
    // eligible campaign cell, under a Context-Aware attack that matches
    // its context and starts injecting inside the measured window
    // (activation at tick 918, rewriting frames through tick 1500), so
    // the window covers the attacker's context match, the in-flight
    // rewrite and the frame decode of the fused tick.
    let attack = AttackConfig {
        attack_type: AttackType::Acceleration,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed: 2,
        ..AttackConfig::default()
    };
    let attacked_cfg = HarnessConfig::with_attack(Scenario::matrix()[1], 2, attack);
    let mut fused =
        FusedLane::new(attacked_cfg).expect("an attacked, untraced cell is fast-eligible");
    let mut oracle = Harness::new(attacked_cfg);

    // Two defended fused lanes. A fail-safe posture whose CAN bit-flip
    // window opens inside the measured window: from tick 800 the lane
    // encodes frames through the fault pass, the IDS alarms on bad
    // checksums and the policy forces the fail-safe rung (and its alert).
    // And the record-only posture under the injecting attack above: gates,
    // IDS and detectors watch every tick of the live rewrite.
    let failsafe_cfg = HarnessConfig::no_attack(scenario, 3)
        .with_defense(DefensePolicy::FailSafe)
        .with_faults(FaultSchedule::single(
            FaultSpec::window(FaultKind::CanBitFlip, FaultTarget::All, 800, 300)
                .with_intensity(0.5),
        ));
    let mut failsafe = FusedLane::new(failsafe_cfg).expect("an untraced cell is fused");
    let mut observed = FusedLane::new(attacked_cfg.with_defense(DefensePolicy::Observe))
        .expect("an untraced cell is fused");

    // Warm-up: let every reused buffer reach its high-water mark (the
    // encoder's counter map fills on the first engaged tick; the msgbus
    // ring and the drain scratch buffers stabilize within a few ticks).
    for _ in 0..500 {
        harness.step();
        faulted.step();
        fused.step();
        oracle.step();
        failsafe.step();
        observed.step();
    }
    let frames_before = oracle.attacker().map_or(0, |a| a.frames_rewritten());
    let (failsafe_before, observed_before) = (failsafe.result(), observed.result());

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..1_000 {
        harness.step();
        faulted.step();
        fused.step();
        failsafe.step();
        observed.step();
    }
    ARMED.store(false, Ordering::SeqCst);
    let (failsafe_after, observed_after) = (failsafe.result(), observed.result());

    // The scalar twin, stepped outside the armed window, shows the
    // attack really injected during it.
    for _ in 0..1_000 {
        oracle.step();
    }
    let frames_after = oracle.attacker().map_or(0, |a| a.frames_rewritten());
    assert_eq!(frames_before, 0, "the attack starts inside the window");
    assert!(
        frames_after > 500,
        "the attack injects through the window ({frames_after} frames)"
    );
    assert!(oracle.result_so_far().accident.is_none());

    // The defended lanes' counters show each scenario happened inside the
    // window.
    assert_eq!(failsafe_before.faults_injected, 0, "the bit flips start inside the window");
    assert!(failsafe_after.faults_injected > 0, "{failsafe_after:?}");
    assert!(failsafe_after.ids_detected.is_some(), "{failsafe_after:?}");
    assert!(failsafe_after.first_failsafe.is_some(), "{failsafe_after:?}");
    assert!(failsafe_after.accident.is_none(), "{failsafe_after:?}");
    assert_eq!(observed_before.frames_rewritten, 0);
    assert!(
        observed_after.frames_rewritten > 500,
        "the attack injects under observation ({observed_after:?})"
    );
    assert!(observed_after.accident.is_none(), "{observed_after:?}");

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state Harness::step and FusedLane::step must not \
         allocate, with or without fault injection, defenses or an \
         injecting attack ({allocs} allocs, {reallocs} reallocs over 1000 ticks)"
    );
}

//! Steady-state allocation discipline of the pooled trial loop.
//!
//! The pooled Monte-Carlo pipeline (substrate rebuild + `TrialWorkspace`)
//! promises that after a warm-up pass every trial runs without touching
//! the allocator. This test installs `emerge-obs`'s counting
//! `#[global_allocator]` (legal here: integration tests are their own
//! crate roots) and asserts the promise literally: a second, identical
//! pass over the share_8x3 analytic cell performs **zero** heap
//! allocations.
//!
//! The count is per thread. The trials run on the test's own thread, so
//! the measured window sees every allocation they make and none made by
//! tests running in parallel on sibling threads.
//!
//! Warm-up is an identical pass over the same trial range, so every
//! pooled buffer reaches the exact capacity the measured pass needs —
//! the same steady state a bench shard reaches after its first trials.
//!
//! The plain factory loop is the fault-plane loop under an empty plan,
//! so arming that plan around a world must not allocate either.

use emerge_core::config::SchemeParams;
use emerge_core::faults::FaultySubstrate;
use emerge_core::montecarlo::{
    run_protocol_trial_range_pooled, ProtocolMcResults, ProtocolTrialSpec, TrialWorkspace,
};
use emerge_core::protocol::AttackMode;
use emerge_core::substrate::{AnalyticSubstrate, HolderSubstrate, OverlayConfig};
use emerge_faults::{FaultPlan, RecoveryPolicy};
use emerge_obs::alloccount::{allocations, CountingAllocator};
use emerge_obs::collector::{install, take};
use emerge_obs::Collector;
use emerge_sim::time::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_share_trials_allocate_nothing() {
    const TRIALS: usize = 20;
    let spec = ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 2,
            l: 3,
            n: 8,
            m: vec![4, 4],
        },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    };
    let config = OverlayConfig {
        n_nodes: 2_000,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    };
    let mut substrate = AnalyticSubstrate::build(config, 0);
    let mut ws = TrialWorkspace::new();

    // Two warm-up passes: the first grows the workspace buffers and fills
    // the substrate's timeline pool; the second runs with the pool's
    // stationary hand-out cycle (a cold pool serves trials in a slightly
    // different order than a seeded one), topping up the last capacities.
    // From the third pass on, the buffer-demand mapping repeats exactly.
    let mut warm = ProtocolMcResults::default();
    for _ in 0..2 {
        warm = run_protocol_trial_range_pooled(
            &spec,
            0,
            TRIALS,
            0xB45E,
            &mut substrate,
            |s, seed| s.rebuild(seed),
            &mut ws,
        )
        .expect("warm-up trials");
    }

    // Measured pass: identical trials, zero allocations allowed.
    let before = allocations();
    let steady = run_protocol_trial_range_pooled(
        &spec,
        0,
        TRIALS,
        0xB45E,
        &mut substrate,
        |s, seed| s.rebuild(seed),
        &mut ws,
    )
    .expect("steady-state trials");
    let allocated = allocations() - before;

    assert_eq!(
        steady.fingerprint, warm.fingerprint,
        "the measured pass must rerun the exact warm-up trials"
    );
    assert_eq!(
        allocated, 0,
        "steady-state pooled trials must not touch the allocator \
         ({allocated} allocation(s) across {TRIALS} trials)"
    );
}

/// The same promise with telemetry enabled: an installed `emerge-obs`
/// collector records every phase span, counter increment and ring entry
/// into preallocated storage, so steady-state trials stay at zero
/// allocations even while fully instrumented. This is the property that
/// lets a sweep worker run every unit under a collector.
#[test]
fn steady_state_share_trials_allocate_nothing_with_metrics_enabled() {
    const TRIALS: usize = 20;
    let spec = ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 2,
            l: 3,
            n: 8,
            m: vec![4, 4],
        },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    };
    let config = OverlayConfig {
        n_nodes: 2_000,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    };

    // The collector preallocates its registry and trace ring here, before
    // the measured window opens. (Thread-local, so the plain variant of
    // this test running on a sibling thread stays uninstrumented.)
    let previous = install(Collector::new());

    let mut substrate = AnalyticSubstrate::build(config, 0);
    let mut ws = TrialWorkspace::new();
    let mut warm = ProtocolMcResults::default();
    for _ in 0..2 {
        warm = run_protocol_trial_range_pooled(
            &spec,
            0,
            TRIALS,
            0xB45E,
            &mut substrate,
            |s, seed| s.rebuild(seed),
            &mut ws,
        )
        .expect("warm-up trials");
    }

    let before = allocations();
    let steady = run_protocol_trial_range_pooled(
        &spec,
        0,
        TRIALS,
        0xB45E,
        &mut substrate,
        |s, seed| s.rebuild(seed),
        &mut ws,
    )
    .expect("steady-state trials");
    let allocated = allocations() - before;

    // The instrumentation actually fired during the measured window.
    let snapshot = take().expect("collector installed above").snapshot();
    if let Some(prev) = previous {
        install(prev);
    }
    assert_eq!(
        snapshot.counter("trial.execute.calls"),
        Some(3 * TRIALS as u64),
        "every pass's trials must be span-counted"
    );
    assert!(
        snapshot.counter("package.seal.bytes").unwrap_or(0) > 0,
        "seal volume must be metered"
    );

    assert_eq!(
        steady.fingerprint, warm.fingerprint,
        "the measured pass must rerun the exact warm-up trials"
    );
    assert_eq!(
        allocated, 0,
        "steady-state pooled trials with metrics enabled must not touch \
         the allocator ({allocated} allocation(s) across {TRIALS} trials)"
    );
}

#[test]
fn warm_empty_plan_wrapper_allocates_nothing() {
    const WORLDS: u64 = 8;
    let config = OverlayConfig {
        n_nodes: 200,
        malicious_fraction: 0.2,
        mean_lifetime: Some(4_000),
        horizon: 100_000,
    };
    let plan = FaultPlan::none();
    let warm = FaultySubstrate::new(
        AnalyticSubstrate::build(config, WORLDS),
        plan.arm(WORLDS),
        RecoveryPolicy::default(),
    );
    // Each world samples the slot's churn timeline (lazily, allocating)
    // before the window opens, so the window sees only the wrapper.
    let at = SimTime::from_ticks(50_000);
    let mut worlds: Vec<AnalyticSubstrate> = (0..WORLDS)
        .map(|seed| {
            let world = AnalyticSubstrate::build(config, seed);
            let _ = world.generation_at(seed as usize, at);
            world
        })
        .collect();
    let mut wrapped = Vec::with_capacity(worlds.len());

    // Measured window: arm the empty plan around each world and read the
    // tenant through the wrapper, as every plain trial does.
    let before = allocations();
    for (seed, world) in worlds.drain(..).enumerate() {
        let faulty = FaultySubstrate::new(world, plan.arm(seed as u64), RecoveryPolicy::default());
        let _ = faulty.generation_at(seed, at);
        wrapped.push(faulty);
    }
    let allocated = allocations() - before;

    assert_eq!(wrapped.len() as u64, WORLDS);
    assert_eq!(warm.fault_stats().disruptions, 0);
    assert_eq!(
        allocated, 0,
        "arming an empty plan must not touch the allocator \
         ({allocated} allocation(s) across {WORLDS} wrappers)"
    );
}

//! The sharded Monte-Carlo engine's core guarantee: partitioning a trial
//! batch into contiguous ranges and running them on worker threads
//! through the one driver, `emerge_sim::shard::run_sharded`, produces a
//! `ProtocolMcResults` identical to the serial run, fingerprint included,
//! for every scheme and thread count — under injected faults too.
//! Sharding and threading change wall-clock time only.
//!
//! This is what licenses the benchmark ledger's check that its 2-thread
//! pass equals its 1-thread pass, and it is the invariant CI's
//! `EMERGE_MC_THREADS` matrix guards.

use emerge_bench::parallel::mc_threads;
use proptest::prelude::*;
use self_emerging_data::core::config::{SchemeKind, SchemeParams};
use self_emerging_data::core::faults::{
    run_faulted_trial_range, run_faulted_trials, FaultyMcResults,
};
use self_emerging_data::core::montecarlo::{
    run_protocol_trial_range, run_protocol_trials, ProtocolMcResults, ProtocolTrialSpec,
};
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::core::substrate::{AnalyticSubstrate, HolderSubstrate, OverlayConfig};
use self_emerging_data::faults::{FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
use self_emerging_data::sim::shard::run_sharded;
use self_emerging_data::sim::time::{SimDuration, SimTime};

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn params_for(kind: SchemeKind) -> SchemeParams {
    match kind {
        SchemeKind::Central => SchemeParams::Central,
        SchemeKind::Disjoint => SchemeParams::Disjoint { k: 2, l: 3 },
        SchemeKind::Joint => SchemeParams::Joint { k: 2, l: 3 },
        SchemeKind::Share => SchemeParams::Share {
            k: 2,
            l: 3,
            n: 5,
            m: vec![3, 3],
        },
    }
}

fn spec_for(kind: SchemeKind, attack: AttackMode) -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: params_for(kind),
        emerging_period: SimDuration::from_ticks(6_000),
        attack,
    }
}

fn world(n: usize, p: f64) -> OverlayConfig {
    OverlayConfig {
        n_nodes: n,
        malicious_fraction: p,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

/// `trials` of `spec` through the one driver on `threads` workers.
fn run_threaded<S: HolderSubstrate>(
    spec: &ProtocolTrialSpec,
    trials: usize,
    seed: u64,
    threads: usize,
    factory: impl Fn(u64) -> S + Sync,
) -> ProtocolMcResults {
    run_sharded(trials, threads, |first, count| {
        run_protocol_trial_range(spec, first, count, seed, &factory)
    })
    .unwrap()
}

/// Faulted form of [`run_threaded`] on the analytic substrate.
fn run_faulted_threaded(
    spec: &ProtocolTrialSpec,
    plan: &FaultPlan,
    trials: usize,
    seed: u64,
    threads: usize,
    cfg: OverlayConfig,
) -> FaultyMcResults {
    run_sharded(trials, threads, |first, count| {
        run_faulted_trial_range(
            spec,
            plan,
            RecoveryPolicy::default(),
            first,
            count,
            seed,
            |s| AnalyticSubstrate::build(cfg, s),
        )
    })
    .unwrap()
}

/// Exact equality on the fingerprint and every counter-valued field; the
/// floating-point moments of the message summary merge via parallel
/// Welford and agree up to rounding.
fn assert_identical(label: &str, serial: &ProtocolMcResults, sharded: &ProtocolMcResults) {
    assert_eq!(
        serial.fingerprint, sharded.fingerprint,
        "{label}: fingerprint"
    );
    assert_eq!(serial.released, sharded.released, "{label}: released");
    assert_eq!(serial.clean, sharded.clean, "{label}: clean");
    assert_eq!(
        serial.reconstructed_early, sharded.reconstructed_early,
        "{label}: reconstructed_early"
    );
    assert_eq!(
        serial.messages.count(),
        sharded.messages.count(),
        "{label}: message count"
    );
    assert_eq!(
        serial.messages.min(),
        sharded.messages.min(),
        "{label}: min"
    );
    assert_eq!(
        serial.messages.max(),
        sharded.messages.max(),
        "{label}: max"
    );
    assert!(
        (serial.messages.mean() - sharded.messages.mean()).abs() < 1e-9,
        "{label}: message mean"
    );
}

#[test]
fn sharded_matches_serial_for_all_schemes() {
    for kind in SchemeKind::ALL {
        let spec = spec_for(kind, AttackMode::ReleaseAhead);
        let cfg = world(150, 0.3);
        let serial =
            run_protocol_trials(&spec, 12, 9, |s| AnalyticSubstrate::build(cfg, s)).unwrap();
        // The deployment thread count (EMERGE_MC_THREADS or the
        // available parallelism) must agree too, whatever it is.
        for threads in SHARD_COUNTS.into_iter().chain([mc_threads()]) {
            let sharded = run_threaded(&spec, 12, 9, threads, |s| AnalyticSubstrate::build(cfg, s));
            assert_identical(&format!("{kind}/{threads} threads"), &serial, &sharded);
        }
    }
}

/// A non-trivial schedule mixing three fault kinds over the protocol's
/// active window (emerging period 6k ticks, so faults run [500, 5500)).
fn storm_plan(seed: u64) -> FaultPlan {
    let window = |kind| FaultEvent {
        from: SimTime::from_ticks(500),
        to: SimTime::from_ticks(5_500),
        kind,
    };
    FaultPlan::new(
        seed,
        vec![
            window(FaultKind::LossBurst { loss_ppm: 200_000 }),
            window(FaultKind::CrashRestart { crash_ppm: 150_000 }),
            window(FaultKind::ChurnStorm { churn_ppm: 100_000 }),
        ],
    )
}

#[test]
fn faulted_sharded_matches_serial() {
    let plan = storm_plan(41);
    for kind in [SchemeKind::Joint, SchemeKind::Share] {
        let spec = spec_for(kind, AttackMode::ReleaseAhead);
        let cfg = world(150, 0.3);
        let serial =
            run_faulted_trials(&spec, &plan, 12, 9, |s| AnalyticSubstrate::build(cfg, s)).unwrap();
        for threads in SHARD_COUNTS {
            let sharded = run_faulted_threaded(&spec, &plan, 12, 9, threads, cfg);
            assert_identical(
                &format!("{kind}/faulted/{threads} threads"),
                &serial.base,
                &sharded.base,
            );
            assert_eq!(
                serial.fault_fingerprint, sharded.fault_fingerprint,
                "{kind}/faulted/{threads} threads: fault fingerprint"
            );
            assert_eq!(serial.degraded, sharded.degraded);
            assert_eq!(serial.clean_of_faults, sharded.clean_of_faults);
            assert_eq!(serial.disrupted, sharded.disrupted);
            assert_eq!(serial.disruptions.count(), sharded.disruptions.count());
        }
        assert!(
            serial.disrupted.successes() > 0,
            "{kind}: the storm must actually disrupt"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form over seeds, trial counts, attacks and malicious
    /// rates: sharded == serial for every scheme and thread count, on the
    /// fast substrate.
    #[test]
    fn sharded_equals_serial_property(
        seed in 0u64..10_000,
        trials in 1usize..20,
        attack_idx in 0usize..3,
        p in 0.0f64..0.5,
    ) {
        let attack = [AttackMode::Passive, AttackMode::ReleaseAhead, AttackMode::Drop][attack_idx];
        let cfg = world(120, p);
        for kind in SchemeKind::ALL {
            let spec = spec_for(kind, attack);
            let serial = run_protocol_trials(&spec, trials, seed, |s| {
                AnalyticSubstrate::build(cfg, s)
            })
            .unwrap();
            for threads in SHARD_COUNTS {
                let sharded = run_threaded(&spec, trials, seed, threads, |s| {
                    AnalyticSubstrate::build(cfg, s)
                });
                prop_assert_eq!(serial.fingerprint, sharded.fingerprint,
                    "{} with {} threads, {} trials", kind, threads, trials);
                prop_assert_eq!(serial.released, sharded.released);
                prop_assert_eq!(serial.clean, sharded.clean);
                prop_assert_eq!(serial.reconstructed_early, sharded.reconstructed_early);
            }
        }
    }

    /// Property form under injected faults: for any plan seed and trial
    /// count, sharded faulted runs merge to the serial faulted run on
    /// both fingerprints and the degraded/clean partition.
    #[test]
    fn faulted_sharded_equals_serial_property(
        plan_seed in 0u64..10_000,
        mc_seed in 0u64..10_000,
        trials in 1usize..16,
    ) {
        let spec = spec_for(SchemeKind::Share, AttackMode::ReleaseAhead);
        let cfg = world(120, 0.2);
        let plan = storm_plan(plan_seed);
        let serial = run_faulted_trials(&spec, &plan, trials, mc_seed, |s| {
            AnalyticSubstrate::build(cfg, s)
        })
        .unwrap();
        for threads in SHARD_COUNTS {
            let sharded = run_faulted_threaded(&spec, &plan, trials, mc_seed, threads, cfg);
            prop_assert_eq!(serial.base.fingerprint, sharded.base.fingerprint,
                "plan seed {} with {} threads, {} trials", plan_seed, threads, trials);
            prop_assert_eq!(serial.fault_fingerprint, sharded.fault_fingerprint);
            prop_assert_eq!(serial.degraded, sharded.degraded);
            prop_assert_eq!(serial.clean_of_faults, sharded.clean_of_faults);
            prop_assert_eq!(serial.disrupted, sharded.disrupted);
        }
    }
}

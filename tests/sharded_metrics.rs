//! The sharded Monte-Carlo guarantee, extended to telemetry: wrapping a
//! range call in `emerge_bench::profile::profiled` gives every worker
//! shard of `emerge_sim::shard::run_sharded` its own `emerge-obs`
//! collector, and the driver merges results and snapshots in shard
//! order. Every counter-valued metric (span call counts, DHT resolves,
//! AEAD seal volume, contract transition events, degraded successes)
//! must come out identical to the single-threaded run for any thread
//! count — the same invariant `tests/sharded_montecarlo.rs` pins for
//! trial outcomes, checked here with `emerge_sim::shard::metrics_digest`
//! over the counter section.
//!
//! (Timing histograms are exempt: they hold wall-clock nanoseconds,
//! which no two runs reproduce. Their *counts* still merge exactly and
//! are compared.)

use emerge_bench::profile::{collected, profiled};
use proptest::prelude::*;
use self_emerging_data::contract::mc::{run_bonded_trial_range, run_bonded_trial_range_faulted};
use self_emerging_data::contract::release::BondedSpec;
use self_emerging_data::contract::substrate::{ContractConfig, ContractSubstrate};
use self_emerging_data::core::config::{SchemeKind, SchemeParams};
use self_emerging_data::core::faults::run_faulted_trial_range;
use self_emerging_data::core::montecarlo::{
    run_protocol_trial_range, run_protocol_trial_range_pooled, ProtocolMcResults,
    ProtocolTrialSpec, TrialWorkspace,
};
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::core::substrate::{AnalyticSubstrate, OverlayConfig};
use self_emerging_data::faults::{RecoveryPolicy, Scenario};
use self_emerging_data::obs::MetricsSnapshot;
use self_emerging_data::sim::shard::{metrics_digest, run_sharded, Merge};
use self_emerging_data::sim::time::SimDuration;
use self_emerging_data::{SelfEmergingSystem, SendRequest};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn share_spec() -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 2,
            l: 3,
            n: 6,
            m: vec![3, 3],
        },
        emerging_period: SimDuration::from_ticks(6_000),
        attack: AttackMode::ReleaseAhead,
    }
}

fn world(p: f64) -> OverlayConfig {
    OverlayConfig {
        n_nodes: 150,
        malicious_fraction: p,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

/// `trials` through the one driver on `threads` workers, each shard's
/// `range(first_trial, count)` call under its own collector.
fn profiled_run<R, E>(
    trials: usize,
    threads: usize,
    range: impl Fn(usize, usize) -> Result<R, E> + Sync,
) -> (R, MetricsSnapshot)
where
    R: Merge + Default + Send,
    E: std::fmt::Debug + Send,
{
    run_sharded(trials, threads, |first, count| {
        profiled(|| range(first, count))
    })
    .unwrap()
}

/// The pooled share pipeline, profiled: each shard builds one substrate
/// and one workspace.
fn pooled_profiled(
    spec: &ProtocolTrialSpec,
    trials: usize,
    seed: u64,
    threads: usize,
) -> (ProtocolMcResults, MetricsSnapshot) {
    profiled_run(trials, threads, |first, count| {
        let mut substrate = AnalyticSubstrate::build(world(0.3), 0);
        run_protocol_trial_range_pooled(
            spec,
            first,
            count,
            seed,
            &mut substrate,
            |s, world_seed| s.rebuild(world_seed),
            &mut TrialWorkspace::new(),
        )
    })
}

fn contract(n_nodes: usize, malicious_fraction: f64, seed: u64) -> ContractSubstrate {
    let cfg = OverlayConfig {
        n_nodes,
        malicious_fraction,
        ..OverlayConfig::default()
    };
    ContractSubstrate::build(ContractConfig::over(cfg), seed)
}

/// Counters and histogram counts must match exactly; histogram sums
/// (wall-clock time) are exempt.
fn assert_telemetry_identical(label: &str, serial: &MetricsSnapshot, sharded: &MetricsSnapshot) {
    assert_eq!(serial.counters, sharded.counters, "{label}: counters");
    assert_eq!(
        metrics_digest(serial),
        metrics_digest(sharded),
        "{label}: metrics digest"
    );
    assert_eq!(
        serial.histograms.len(),
        sharded.histograms.len(),
        "{label}: histogram set"
    );
    for (s, t) in serial.histograms.iter().zip(&sharded.histograms) {
        assert_eq!(s.name, t.name, "{label}: histogram name");
        assert_eq!(s.count, t.count, "{label}: {} count", s.name);
    }
}

#[test]
fn pooled_profiled_telemetry_is_thread_count_invariant() {
    let spec = share_spec();
    let trials = 12;
    let outcome_reference = run_protocol_trial_range(&spec, 0, trials, 9, |s| {
        AnalyticSubstrate::build(world(0.3), s)
    })
    .unwrap();

    let (serial_results, serial_telemetry) = pooled_profiled(&spec, trials, 9, 1);
    assert_eq!(serial_results.fingerprint, outcome_reference.fingerprint);

    // The expected per-trial counters actually landed.
    let trials_u64 = trials as u64;
    for phase in [
        "trial.world_rebuild",
        "trial.paths",
        "trial.package_build",
        "trial.execute",
    ] {
        assert_eq!(
            serial_telemetry.counter(&format!("{phase}.calls")),
            Some(trials_u64),
            "{phase}: one span per trial"
        );
    }
    // The tracked seal-volume counter attributes to the build phase.
    let sealed = serial_telemetry
        .counter("trial.package_build.sealed_bytes")
        .unwrap_or(0);
    assert!(sealed > 0, "package build seals AEAD bytes");
    assert_eq!(serial_telemetry.counter("package.seal.bytes"), Some(sealed));
    assert!(
        serial_telemetry
            .counter("dht.analytic.resolves")
            .unwrap_or(0)
            > 0
    );

    for threads in THREAD_COUNTS {
        let (results, telemetry) = pooled_profiled(&spec, trials, 9, threads);
        assert_eq!(
            results.fingerprint, serial_results.fingerprint,
            "{threads} threads: fingerprint"
        );
        assert_telemetry_identical(
            &format!("pooled/{threads} threads"),
            &serial_telemetry,
            &telemetry,
        );
    }
}

#[test]
fn allocating_profiled_telemetry_matches_across_schemes_and_threads() {
    for kind in SchemeKind::ALL {
        let params = match kind {
            SchemeKind::Central => SchemeParams::Central,
            SchemeKind::Disjoint => SchemeParams::Disjoint { k: 2, l: 3 },
            SchemeKind::Joint => SchemeParams::Joint { k: 2, l: 3 },
            SchemeKind::Share => SchemeParams::Share {
                k: 2,
                l: 3,
                n: 5,
                m: vec![3, 3],
            },
        };
        let spec = ProtocolTrialSpec {
            params,
            emerging_period: SimDuration::from_ticks(6_000),
            attack: AttackMode::Drop,
        };
        let allocating_profiled = |threads| {
            profiled_run(10, threads, |first, count| {
                run_protocol_trial_range(&spec, first, count, 17, |s| {
                    AnalyticSubstrate::build(world(0.25), s)
                })
            })
        };
        let (serial_results, serial_telemetry) = allocating_profiled(1);
        assert_eq!(
            serial_telemetry.counter("trial.execute.calls"),
            Some(10),
            "{kind}: execute span per trial"
        );
        for threads in THREAD_COUNTS {
            let (results, telemetry) = allocating_profiled(threads);
            assert_eq!(results.fingerprint, serial_results.fingerprint);
            assert_telemetry_identical(
                &format!("{kind}/{threads} threads"),
                &serial_telemetry,
                &telemetry,
            );
        }
    }
}

#[test]
fn bonded_profiled_telemetry_is_thread_count_invariant() {
    let spec = BondedSpec::new(6, 4, SimDuration::from_ticks(1_000));
    let bonded_profiled = |threads| {
        profiled_run(11, threads, |first, count| {
            run_bonded_trial_range(&spec, first, count, 3, |s| contract(100, 0.4, s))
        })
    };
    let (serial_results, serial_telemetry) = bonded_profiled(1);
    assert_eq!(
        serial_telemetry.counter("trial.bonded_release.calls"),
        Some(11)
    );
    // Every trial opens one deposit and commits every holder.
    assert_eq!(serial_telemetry.counter("contract.open"), Some(11));
    assert_eq!(serial_telemetry.counter("contract.commit"), Some(11 * 6));
    for threads in THREAD_COUNTS {
        let (results, telemetry) = bonded_profiled(threads);
        assert_eq!(results.fingerprint, serial_results.fingerprint);
        assert_telemetry_identical(
            &format!("bonded/{threads} threads"),
            &serial_telemetry,
            &telemetry,
        );
    }
}

#[test]
fn degraded_success_counter_matches_the_degraded_rate_on_both_engines() {
    // Every release despite an injected disruption must land on the
    // `faults.degraded_success` counter, whichever engine ran the trial,
    // and the counter must merge across shards like the rate does.
    const COUNTER: &str = "faults.degraded_success";
    let storm = Scenario::CrashStorm.plan(200_000, 7_000, 7);
    let bonded_spec = BondedSpec::new(6, 4, SimDuration::from_ticks(1_000));
    for threads in [1usize, 2] {
        let (protocol, telemetry) = profiled_run(40, threads, |first, count| {
            run_faulted_trial_range(
                &share_spec(),
                &storm,
                RecoveryPolicy::default(),
                first,
                count,
                5,
                |s| AnalyticSubstrate::build(world(0.3), s),
            )
        });
        assert!(protocol.degraded.successes() > 0, "the storm must degrade");
        assert_eq!(
            telemetry.counter(COUNTER),
            Some(protocol.degraded.successes()),
            "protocol engine, {threads} threads"
        );

        let (bonded, telemetry) = profiled_run(40, threads, |first, count| {
            run_bonded_trial_range_faulted(&bonded_spec, &storm, first, count, 31, |s| {
                contract(80, 0.0, s)
            })
        });
        assert!(bonded.degraded.successes() > 0, "the crashes must degrade");
        assert_eq!(
            telemetry.counter(COUNTER),
            Some(bonded.degraded.successes()),
            "bonded engine, {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form over seeds and trial counts: the pooled profiled
    /// driver's counter telemetry is thread-count invariant.
    #[test]
    fn pooled_telemetry_digest_property(
        seed in 0u64..10_000,
        trials in 1usize..16,
    ) {
        let spec = share_spec();
        let (serial_results, serial_telemetry) = pooled_profiled(&spec, trials, seed, 1);
        for threads in THREAD_COUNTS {
            let (results, telemetry) = pooled_profiled(&spec, trials, seed, threads);
            prop_assert_eq!(results.fingerprint, serial_results.fingerprint);
            prop_assert_eq!(&telemetry.counters, &serial_telemetry.counters);
            prop_assert_eq!(metrics_digest(&telemetry), metrics_digest(&serial_telemetry));
        }
    }
}

#[test]
fn a_send_records_no_trial_phase_spans() {
    // `SelfEmergingSystem::run_to_release` runs the trial stages through
    // the trial loops' scheme dispatch, but a send is not a Monte-Carlo
    // trial: the `trial.*` phase spans stay empty while the layers below
    // still record.
    for scheme in SchemeKind::ALL {
        let ((), telemetry) = collected(|| {
            let mut system = SelfEmergingSystem::new(
                OverlayConfig {
                    n_nodes: 256,
                    ..OverlayConfig::default()
                },
                17,
            );
            let mut handle = system
                .send(SendRequest {
                    message: b"sealed until noon".to_vec(),
                    emerging_period: SimDuration::from_ticks(6_000),
                    scheme,
                    target_resilience: 0.99,
                    expected_malicious_rate: 0.1,
                })
                .unwrap();
            system.run_to_release(&mut handle);
            assert_eq!(system.receive(&handle).unwrap(), b"sealed until noon");
        });
        for phase in [
            "trial.world_rebuild",
            "trial.paths",
            "trial.package_build",
            "trial.execute",
        ] {
            assert_eq!(
                telemetry.counter(&format!("{phase}.calls")),
                None,
                "{scheme}: {phase}"
            );
        }
        assert!(
            telemetry
                .counter("dht.analytic.resolves")
                .is_some_and(|resolves| resolves > 0),
            "{scheme}: the collector recorded nothing"
        );
    }
}

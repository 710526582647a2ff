//! The sharded Monte-Carlo guarantee, extended to telemetry: the
//! profiled drivers install one `emerge-obs` collector per worker shard
//! and merge the snapshots in shard order, and every counter-valued
//! metric (span call counts, DHT resolves, AEAD seal volume, contract
//! transition events) must come out identical to the single-threaded
//! run for any thread count — the same invariant
//! `tests/sharded_montecarlo.rs` pins for trial outcomes, checked here
//! with `emerge_sim::shard::metrics_digest` over the counter section.
//!
//! (Timing histograms are exempt: they hold wall-clock nanoseconds,
//! which no two runs reproduce. Their *counts* still merge exactly and
//! are compared.)

use emerge_bench::mc::{
    run_bonded_trials_profiled, run_protocol_trials_pooled_profiled, run_protocol_trials_profiled,
};
use proptest::prelude::*;
use self_emerging_data::core::config::{SchemeKind, SchemeParams};
use self_emerging_data::core::montecarlo::{run_protocol_trials, ProtocolTrialSpec};
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::core::substrate::{AnalyticSubstrate, OverlayConfig};
use self_emerging_data::obs::MetricsSnapshot;
use self_emerging_data::sim::shard::metrics_digest;
use self_emerging_data::sim::time::SimDuration;

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
    let cfg = world(0.3);
    let trials = 12;
    let outcome_reference =
        run_protocol_trials(&spec, trials, 9, |s| AnalyticSubstrate::build(cfg, s)).unwrap();

    let (serial_results, serial_telemetry) = run_protocol_trials_pooled_profiled(
        &spec,
        trials,
        9,
        1,
        || AnalyticSubstrate::build(cfg, 0),
        |s, seed| s.rebuild(seed),
    )
    .unwrap();
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
    assert!(serial_telemetry.counter("package.seal.bytes").unwrap_or(0) > 0);
    assert!(
        serial_telemetry
            .counter("dht.analytic.resolves")
            .unwrap_or(0)
            > 0
    );

    for threads in THREAD_COUNTS {
        let (results, telemetry) = run_protocol_trials_pooled_profiled(
            &spec,
            trials,
            9,
            threads,
            || AnalyticSubstrate::build(cfg, 0),
            |s, seed| s.rebuild(seed),
        )
        .unwrap();
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
        let cfg = world(0.25);
        let (serial_results, serial_telemetry) =
            run_protocol_trials_profiled(&spec, 10, 17, 1, |s| AnalyticSubstrate::build(cfg, s))
                .unwrap();
        assert_eq!(
            serial_telemetry.counter("trial.execute.calls"),
            Some(10),
            "{kind}: execute span per trial"
        );
        for threads in THREAD_COUNTS {
            let (results, telemetry) = run_protocol_trials_profiled(&spec, 10, 17, threads, |s| {
                AnalyticSubstrate::build(cfg, s)
            })
            .unwrap();
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
    use self_emerging_data::contract::release::BondedSpec;
    use self_emerging_data::contract::substrate::{ContractConfig, ContractSubstrate};

    let spec = BondedSpec::new(6, 4, SimDuration::from_ticks(1_000));
    let factory = |s| {
        ContractSubstrate::build(
            ContractConfig::over(OverlayConfig {
                n_nodes: 100,
                malicious_fraction: 0.4,
                ..OverlayConfig::default()
            }),
            s,
        )
    };
    let (serial_results, serial_telemetry) =
        run_bonded_trials_profiled(&spec, 11, 3, 1, factory).unwrap();
    assert_eq!(
        serial_telemetry.counter("trial.bonded_release.calls"),
        Some(11)
    );
    // Every trial opens one deposit and commits every holder.
    assert_eq!(serial_telemetry.counter("contract.open"), Some(11));
    assert_eq!(serial_telemetry.counter("contract.commit"), Some(11 * 6));
    for threads in THREAD_COUNTS {
        let (results, telemetry) =
            run_bonded_trials_profiled(&spec, 11, 3, threads, factory).unwrap();
        assert_eq!(results.fingerprint, serial_results.fingerprint);
        assert_telemetry_identical(
            &format!("bonded/{threads} threads"),
            &serial_telemetry,
            &telemetry,
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
        let cfg = world(0.3);
        let (serial_results, serial_telemetry) = run_protocol_trials_pooled_profiled(
            &spec, trials, seed, 1,
            || AnalyticSubstrate::build(cfg, 0),
            |s, w| s.rebuild(w),
        ).unwrap();
        for threads in THREAD_COUNTS {
            let (results, telemetry) = run_protocol_trials_pooled_profiled(
                &spec, trials, seed, threads,
                || AnalyticSubstrate::build(cfg, 0),
                |s, w| s.rebuild(w),
            ).unwrap();
            prop_assert_eq!(results.fingerprint, serial_results.fingerprint);
            prop_assert_eq!(&telemetry.counters, &serial_telemetry.counters);
            prop_assert_eq!(metrics_digest(&telemetry), metrics_digest(&serial_telemetry));
        }
    }
}

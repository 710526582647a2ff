//! Reproducibility guarantees: everything in this repository is
//! deterministic given a seed — world construction, protocol execution,
//! Monte-Carlo estimates and whole figure tables.

use emerge_bench::figures::run_cell;
use emerge_bench::mc_threads;
use self_emerging_data::core::config::{SchemeKind, SchemeParams};
use self_emerging_data::core::emergence::{SelfEmergingSystem, SendRequest};
use self_emerging_data::core::montecarlo::{run_model_trial_range, TrialSpec};
use self_emerging_data::dht::{AnalyticSubstrate, OverlayConfig};
use self_emerging_data::sim::shard::run_sharded;
use self_emerging_data::sim::time::SimDuration;

#[test]
fn overlay_construction_is_bit_stable() {
    let config = OverlayConfig {
        n_nodes: 500,
        malicious_fraction: 0.2,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    };
    let a = AnalyticSubstrate::build(config, 123);
    let b = AnalyticSubstrate::build(config, 123);
    for slot in 0..500 {
        assert_eq!(a.generations(slot), b.generations(slot), "slot {slot}");
    }
}

#[test]
fn protocol_reports_are_identical_across_runs() {
    let run = || {
        let mut system = SelfEmergingSystem::new(
            OverlayConfig {
                n_nodes: 200,
                malicious_fraction: 0.3,
                ..OverlayConfig::default()
            },
            777,
        );
        system.set_attack_mode(self_emerging_data::core::protocol::AttackMode::ReleaseAhead);
        let mut handle = system
            .send(SendRequest {
                message: b"deterministic".to_vec(),
                emerging_period: SimDuration::from_ticks(5_000),
                scheme: SchemeKind::Joint,
                target_resilience: 0.99,
                expected_malicious_rate: 0.3,
            })
            .unwrap();
        system.run_to_release(&mut handle);
        let report = handle.report.unwrap();
        (
            report.messages_sent,
            report.released.clone(),
            report.adversary_reconstruction.clone(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn montecarlo_estimates_are_exact_replicas() {
    let spec = TrialSpec {
        params: SchemeParams::Share {
            k: 3,
            l: 6,
            n: 50,
            m: vec![20; 5],
        },
        population: 2_000,
        p: 0.25,
        alpha: Some(2.0),
        unavailability: 0.1,
    };
    let run = || {
        run_sharded(400, mc_threads(), |first, count| {
            run_model_trial_range(&spec, first, count, 31337)
        })
        .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.release_resilience.successes(),
        b.release_resilience.successes()
    );
    assert_eq!(a.drop_resilience.successes(), b.drop_resilience.successes());
    assert_eq!(
        a.strict_release_resilience.successes(),
        b.strict_release_resilience.successes()
    );
}

#[test]
fn different_seeds_give_different_worlds() {
    let config = OverlayConfig {
        n_nodes: 100,
        ..OverlayConfig::default()
    };
    let a = AnalyticSubstrate::build(config, 1);
    let b = AnalyticSubstrate::build(config, 2);
    let same = (0..100)
        .filter(|&s| a.initial(s).id == b.initial(s).id)
        .count();
    assert_eq!(same, 0, "different seeds must give disjoint ID sets");
}

#[test]
fn figure_cells_are_reproducible() {
    // The figure tables the emerge-bench binaries regenerate depend on
    // this: a figure cell, sharded over the binaries' worker count,
    // equals the same trials as one serial range.
    let spec = TrialSpec::new(SchemeParams::Joint { k: 4, l: 8 }, 10_000, 0.3);
    let r1 = run_cell(&spec, 200, 0x6A ^ 0x03).unwrap();
    let r2 = run_model_trial_range(&spec, 0, 200, 0x6A ^ 0x03).unwrap();
    assert_eq!(r1.release_resilience, r2.release_resilience);
    assert_eq!(r1.drop_resilience, r2.drop_resilience);
    assert_eq!(r1.r_min(), r2.r_min());
}

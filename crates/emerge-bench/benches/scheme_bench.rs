//! Criterion benches for the key-routing schemes: path construction,
//! package generation, full protocol runs, and Monte-Carlo throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use emerge_bench::parallel::mc_threads;
use emerge_contract::economy::HolderStrategy;
use emerge_contract::mc::run_bonded_trials;
use emerge_contract::release::BondedSpec;
use emerge_contract::substrate::{ContractConfig, ContractSubstrate};
use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{
    run_protocol_trial_range, run_protocol_trials, run_trials, ProtocolTrialSpec, TrialSpec,
};
use emerge_core::package::{build_keyed_packages, build_share_packages, KeySchedule};
use emerge_core::path::construct_paths;
use emerge_core::protocol::{execute_keyed, execute_share, AttackMode, RunConfig};
use emerge_crypto::keys::SymmetricKey;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::overlay::OverlayConfig;
use emerge_sim::shard::run_sharded;
use emerge_sim::time::{SimDuration, SimTime};

fn overlay(n: usize) -> AnalyticSubstrate {
    AnalyticSubstrate::build(
        OverlayConfig {
            n_nodes: n,
            ..OverlayConfig::default()
        },
        11,
    )
}

fn bench_path_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_construction");
    let ov = overlay(2_000);
    let seed = SymmetricKey::from_bytes([3; 32]);
    for (k, l) in [(2usize, 3usize), (5, 10), (10, 20)] {
        let params = SchemeParams::Joint { k, l };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{k}x{l}")),
            &params,
            |b, params| {
                b.iter(|| construct_paths(&ov, black_box(params), &seed).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_package_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("package_generation");
    let ov = overlay(2_000);
    let seed = SymmetricKey::from_bytes([4; 32]);
    let schedule = KeySchedule::new(seed.clone());

    let keyed = SchemeParams::Joint { k: 5, l: 10 };
    let plan = construct_paths(&ov, &keyed, &seed).unwrap();
    group.bench_function("keyed_5x10", |b| {
        b.iter(|| build_keyed_packages(&plan, &keyed, &schedule, black_box(b"secret")).unwrap());
    });

    let share = SchemeParams::Share {
        k: 3,
        l: 5,
        n: 15,
        m: vec![8, 8, 8, 9],
    };
    let plan = construct_paths(&ov, &share, &seed).unwrap();
    group.bench_function("share_15x5", |b| {
        b.iter(|| build_share_packages(&plan, &share, &schedule, black_box(b"secret")).unwrap());
    });

    // Deep chain (l = 12): the shape the flat format unlocked.
    let deep = SchemeParams::Share {
        k: 3,
        l: 12,
        n: 16,
        m: vec![8; 11],
    };
    let plan = construct_paths(&ov, &deep, &seed).unwrap();
    group.bench_function("share_16x12_deep", |b| {
        b.iter(|| build_share_packages(&plan, &deep, &schedule, black_box(b"secret")).unwrap());
    });
    group.finish();
}

fn bench_protocol_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_run");
    group.sample_size(20);
    let config = RunConfig {
        ts: SimTime::ZERO,
        emerging_period: SimDuration::from_ticks(10_000),
        attack: AttackMode::Passive,
    };
    let seed = SymmetricKey::from_bytes([5; 32]);
    let schedule = KeySchedule::new(seed.clone());

    let keyed = SchemeParams::Joint { k: 5, l: 10 };
    {
        let ov = overlay(2_000);
        let plan = construct_paths(&ov, &keyed, &seed).unwrap();
        let pkgs = build_keyed_packages(&plan, &keyed, &schedule, b"secret").unwrap();
        group.bench_function("joint_5x10", |b| {
            b.iter_batched(
                || overlay(2_000),
                |mut ov| execute_keyed(&mut ov, &plan, &keyed, &pkgs, black_box(&config)).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }

    let share = SchemeParams::Share {
        k: 3,
        l: 5,
        n: 15,
        m: vec![8, 8, 8, 9],
    };
    {
        let ov = overlay(2_000);
        let plan = construct_paths(&ov, &share, &seed).unwrap();
        let pkgs = build_share_packages(&plan, &share, &schedule, b"secret").unwrap();
        group.bench_function("share_15x5", |b| {
            b.iter_batched(
                || overlay(2_000),
                |mut ov| execute_share(&mut ov, &plan, &share, &pkgs, black_box(&config)).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }

    // Deep chain on the analytic substrate: twelve just-in-time key
    // release hops, the regime the flat package format makes affordable.
    let deep = SchemeParams::Share {
        k: 3,
        l: 12,
        n: 16,
        m: vec![8; 11],
    };
    {
        let world_cfg = OverlayConfig {
            n_nodes: 2_000,
            ..OverlayConfig::default()
        };
        let world = AnalyticSubstrate::build(world_cfg, 11);
        let seed = SymmetricKey::from_bytes([5; 32]);
        let schedule = KeySchedule::new(seed.clone());
        let plan = construct_paths(&world, &deep, &seed).unwrap();
        let pkgs = build_share_packages(&plan, &deep, &schedule, b"secret").unwrap();
        group.bench_function("share_16x12_deep_analytic", |b| {
            b.iter_batched(
                || AnalyticSubstrate::build(world_cfg, 11),
                |mut w| execute_share(&mut w, &plan, &deep, &pkgs, black_box(&config)).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_montecarlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("montecarlo_100_trials");
    group.sample_size(10);
    for (label, params, alpha) in [
        ("joint_no_churn", SchemeParams::Joint { k: 5, l: 12 }, None),
        (
            "joint_churn_a3",
            SchemeParams::Joint { k: 5, l: 12 },
            Some(3.0),
        ),
        (
            "share_churn_a3",
            SchemeParams::Share {
                k: 5,
                l: 12,
                n: 833,
                m: vec![350; 11],
            },
            Some(3.0),
        ),
    ] {
        let spec = TrialSpec {
            params,
            population: 10_000,
            p: 0.2,
            alpha,
            unavailability: 0.0,
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
            b.iter(|| run_trials(black_box(spec), 100, 42).unwrap());
        });
    }
    group.finish();
}

fn bench_protocol_montecarlo_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_mc_sharded_20_trials");
    group.sample_size(10);
    let spec = ProtocolTrialSpec {
        params: SchemeParams::Joint { k: 4, l: 8 },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    };
    let world = OverlayConfig {
        n_nodes: 2_000,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    };
    let mut thread_counts = vec![1usize];
    if mc_threads() > 1 {
        thread_counts.push(mc_threads());
    }
    for threads in thread_counts {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}_threads")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_sharded(20, threads, |first, count| {
                        run_protocol_trial_range(black_box(&spec), first, count, 42, |s| {
                            AnalyticSubstrate::build(world, s)
                        })
                    })
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_contract_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("contract_substrate_20_trials");
    group.sample_size(10);
    let world = OverlayConfig {
        n_nodes: 2_000,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    };

    // The four-scheme wire protocol on the contract substrate: the cost
    // of the chain layer relative to the bare analytic substrate is the
    // delta against protocol_mc_sharded's joint cell.
    let spec = ProtocolTrialSpec {
        params: SchemeParams::Joint { k: 4, l: 8 },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    };
    group.bench_function("joint_4x8_wire", |b| {
        b.iter(|| {
            run_protocol_trials(black_box(&spec), 20, 42, |s| {
                ContractSubstrate::build(ContractConfig::over(world), s)
            })
            .unwrap()
        });
    });

    // The contract-native bonded release: escrow, commit, reveal, slash
    // and claim with real Shamir shares per trial.
    let bonded = BondedSpec {
        n: 24,
        m: 16,
        emerging_period: SimDuration::from_ticks(8_000),
        reveal_window_blocks: 1,
        strategy: HolderStrategy::Rational {
            withhold_bribe: 100,
            early_reveal_bribe: 100,
        },
    };
    group.bench_function("bonded_24x16_rational", |b| {
        b.iter(|| {
            run_bonded_trials(black_box(&bonded), 20, 42, |s| {
                ContractSubstrate::build(ContractConfig::over(world), s)
            })
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_path_construction,
    bench_package_generation,
    bench_protocol_run,
    bench_montecarlo,
    bench_protocol_montecarlo_sharded,
    bench_contract_substrate
);
criterion_main!(benches);

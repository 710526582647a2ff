//! Phase-timing probe for the pooled share_40x5 analytic trial loop.
//!
//! The zero-allocation pipeline is instrumented with `emerge-obs` spans
//! (world rebuild, path construction, package build, pooled execution);
//! this example installs a collector around the public pooled runner and
//! prints the per-phase breakdown those spans record — the same
//! collection and extraction path `montecarlo_baseline --profile` uses,
//! so a perf session can see where a trial's budget goes before reaching
//! for `perf record`.
//!
//! The `allocs` column is live because this binary installs the counting
//! allocator: after the pool's cold first pass, the steady state should
//! attribute (close to) zero allocations to every phase.

use emerge_bench::profile::{collected, phase_stats, render_phase_table};
use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{run_protocol_trial_range_pooled, ProtocolTrialSpec, TrialWorkspace};
use emerge_core::protocol::AttackMode;
use emerge_core::substrate::{AnalyticSubstrate, OverlayConfig};
use emerge_obs::alloccount::CountingAllocator;
use emerge_obs::Stopwatch;
use emerge_sim::time::SimDuration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let spec = ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 3,
            l: 5,
            n: 40,
            m: vec![18, 18, 18, 20],
        },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    };
    let config = OverlayConfig {
        n_nodes: 10_000,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    };
    let trials = 1000usize;

    let mut substrate = AnalyticSubstrate::build(config, 0);
    let mut ws = TrialWorkspace::new();
    let watch = Stopwatch::start();
    let (result, telemetry) = collected(|| {
        run_protocol_trial_range_pooled(
            &spec,
            0,
            trials,
            0xB45E,
            &mut substrate,
            |s, seed| s.rebuild(seed),
            &mut ws,
        )
    });
    let wall = watch.elapsed_secs();
    let results = result.expect("share_40x5 pooled run");

    println!("trials        {trials}");
    println!(
        "total         {:.3} s  ({:.1} trials/s, fingerprint {:#018x})",
        wall,
        trials as f64 / wall,
        results.fingerprint
    );
    println!();
    print!("{}", render_phase_table(&phase_stats(&telemetry), wall));
}

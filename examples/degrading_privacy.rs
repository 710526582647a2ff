//! The paper's "privacy requirements that degrade over time" scenario
//! (Section I, citing Koufogiannis et al.): personal records are highly
//! sensitive now but may be released at increasing levels of detail as
//! time passes — implemented as a ladder of self-emerging messages with
//! staggered release times, under churn.
//!
//! ```sh
//! cargo run --example degrading_privacy --release
//! ```
//!
//! Because the emerging periods span multiple node lifetimes, this example
//! uses the key-share routing scheme — the only one whose resilience
//! survives long horizons (Figure 7) — and shows the releases arriving on
//! schedule despite continuous node death and replacement.

use emerge_core::config::SchemeKind;
use emerge_core::emergence::{SelfEmergingSystem, SendRequest};
use emerge_core::error::EmergeError;
use emerge_dht::overlay::OverlayConfig;
use emerge_sim::time::SimDuration;

fn main() -> Result<(), EmergeError> {
    // Mean node lifetime 20_000 ticks; the longest release below is 3x
    // that (the paper's α = 3 churn regime).
    let tlife: u64 = 20_000;
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 350,
            malicious_fraction: 0.05,
            mean_lifetime: Some(tlife),
            horizon: 10 * tlife,
        },
        555,
    );

    println!("== degrading privacy: staggered medical-record release ==");
    println!("mean node lifetime: {tlife} ticks\n");

    // The disclosure ladder: coarser data earlier, finer data later.
    let ladder: [(&str, &[u8], u64); 3] = [
        (
            "aggregate statistics",
            b"2026 cohort: 12% condition prevalence",
            tlife / 2, // α = 0.5
        ),
        (
            "coarse individual record",
            b"patient 0x2a: condition class B, region NW",
            tlife, // α = 1
        ),
        (
            "full individual record",
            b"patient 0x2a: full genome pointer + clinical notes",
            3 * tlife, // α = 3 — the hard case of Figure 7(c)
        ),
    ];

    let mut handles = Vec::new();
    for (label, record, period) in &ladder {
        let handle = system.send(SendRequest {
            message: record.to_vec(),
            emerging_period: SimDuration::from_ticks(*period),
            scheme: SchemeKind::Share,
            target_resilience: 0.99,
            expected_malicious_rate: 0.05,
        })?;
        println!(
            "sealed {label:<28} release at t={:<7} (α = {:.1})",
            handle.release_time,
            *period as f64 / tlife as f64
        );
        handles.push((*label, handle));
    }

    println!();
    // Releases happen in ladder order; each run advances the shared clock.
    for (label, handle) in &mut handles {
        system.run_to_release(handle);
        match system.receive(handle) {
            Ok(record) => println!(
                "t={:<7} emerged {label:<28} {:?}",
                handle.release_time,
                String::from_utf8_lossy(&record)
            ),
            Err(e) => println!(
                "t={:<7} LOST    {label:<28} ({e}) — churn won this round",
                handle.release_time
            ),
        }
    }

    println!(
        "\nthe share scheme delivered across {}x the mean node lifetime: \
         keys were never parked on any node longer than one holding period.",
        ladder.last().unwrap().2 / tlife
    );
    Ok(())
}

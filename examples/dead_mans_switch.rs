//! A dead-man's switch: the canonical timed-release application. A
//! journalist seals source material that must surface automatically
//! unless she periodically renews the embargo — here modelled as a chain
//! of self-emerging messages where each renewal supersedes the previous
//! release.
//!
//! ```sh
//! cargo run --example dead_mans_switch --release
//! ```
//!
//! The adversary actively tries to destroy the material (drop attack with
//! 15% of the DHT) — exactly the scenario where the centralized design
//! would fail and the share scheme shines.

use emerge_core::config::SchemeKind;
use emerge_core::emergence::{SelfEmergingSystem, SendRequest};
use emerge_core::protocol::AttackMode;
use emerge_dht::overlay::OverlayConfig;
use emerge_sim::time::SimDuration;

const DOSSIER: &[u8] = b"ledger copies: offshore accounts 44-1337, witnesses A,B";
const EMBARGO_PERIOD: u64 = 10_000;

fn main() {
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 500,
            malicious_fraction: 0.15,
            ..OverlayConfig::default()
        },
        0xDEAD,
    );
    // The powerful interested party wants the dossier gone.
    system.set_attack_mode(AttackMode::Drop);

    println!("== dead man's switch ==");
    println!(
        "dossier sealed into a {}-node DHT; 15% of nodes try to destroy it\n",
        system.substrate().n_nodes()
    );

    // The journalist renews twice, then "misses" the third renewal.
    let mut released_payload = None;
    for epoch in 0..3 {
        let mut handle = system
            .send(SendRequest {
                message: DOSSIER.to_vec(),
                emerging_period: SimDuration::from_ticks(EMBARGO_PERIOD),
                scheme: SchemeKind::Share,
                target_resilience: 0.999,
                expected_malicious_rate: 0.15,
            })
            .expect("send");
        println!(
            "epoch {epoch}: dossier re-sealed, would emerge at {} (cost {} holders)",
            handle.release_time,
            handle.params.node_cost()
        );

        system.run_to_release(&mut handle);
        match system.receive(&handle) {
            Ok(payload) => {
                if epoch < 2 {
                    println!(
                        "epoch {epoch}: journalist checked in — emerged copy superseded, re-sealing\n"
                    );
                } else {
                    println!("epoch {epoch}: no check-in — the switch fires\n");
                    released_payload = Some(payload);
                }
            }
            Err(e) => {
                println!("epoch {epoch}: ADVERSARY WON — dossier destroyed ({e})\n");
            }
        }
    }

    match released_payload {
        Some(payload) => {
            assert_eq!(payload, DOSSIER);
            println!(
                "the material surfaced intact despite the drop campaign:\n  {:?}",
                String::from_utf8_lossy(&payload)
            );
        }
        None => println!(
            "the switch failed — the figure binaries (README: Build, test, run) tabulate how often"
        ),
    }
}

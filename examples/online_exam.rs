//! The paper's online-examination scenario (Section I): exam questions are
//! distributed encrypted ahead of time and must only become readable at
//! the exam start, even though some participants control DHT nodes and
//! actively try to (a) leak the questions early and (b) destroy them.
//!
//! ```sh
//! cargo run --example online_exam --release
//! ```
//!
//! Runs the same exam release under all four schemes against both attacks
//! at 20% malicious nodes and prints who survives.

use emerge_core::config::SchemeKind;
use emerge_core::emergence::{SelfEmergingSystem, SendRequest};
use emerge_core::protocol::AttackMode;
use emerge_dht::overlay::OverlayConfig;
use emerge_sim::time::SimDuration;

const EXAM: &[u8] = b"Q1: Prove Lemma 1. Q2: Derive equation (3). Q3: Why onions?";
const MALICIOUS_RATE: f64 = 0.20;

fn main() {
    println!("== online exam timed release ==");
    println!(
        "exam sealed; malicious student nodes: {:.0}%",
        MALICIOUS_RATE * 100.0
    );
    println!();
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>12}",
        "scheme", "cost", "leaked early?", "destroyed?", "exam held?"
    );

    for (i, scheme) in SchemeKind::ALL.into_iter().enumerate() {
        // Fresh deterministic world per scheme so runs are comparable.
        let build = |seed_offset: u64, attack: AttackMode| {
            let mut system = SelfEmergingSystem::new(
                OverlayConfig {
                    n_nodes: 400,
                    malicious_fraction: MALICIOUS_RATE,
                    ..OverlayConfig::default()
                },
                9000 + i as u64 * 10 + seed_offset,
            );
            system.set_attack_mode(attack);
            let mut handle = system
                .send(SendRequest {
                    message: EXAM.to_vec(),
                    emerging_period: SimDuration::from_ticks(8_000),
                    scheme,
                    target_resilience: 0.99,
                    expected_malicious_rate: MALICIOUS_RATE,
                })
                .expect("send");
            system.run_to_release(&mut handle);
            (system, handle)
        };

        // Release-ahead attempt: cheating students try to read the exam
        // before the start time.
        let (_sys_r, handle_r) = build(0, AttackMode::ReleaseAhead);
        let leaked = handle_r
            .report
            .as_ref()
            .and_then(|r| r.adversary_reconstruction.as_ref())
            .map_or_else(|| "no".into(), |(at, _)| format!("yes, at {at}"));

        // Drop attempt: saboteurs try to destroy the exam.
        let (mut sys_d, handle_d) = build(1, AttackMode::Drop);
        let received = sys_d.receive(&handle_d);
        let destroyed = if received.is_ok() { "no" } else { "yes" };
        let held = match &received {
            Ok(m) if m == EXAM => "yes",
            _ => "NO",
        };

        println!(
            "{:<10} {:>8} {:>14} {:>14} {:>12}",
            handle_r.params.kind().label(),
            handle_r.params.node_cost(),
            leaked,
            destroyed,
            held
        );
    }

    println!();
    println!(
        "notes: 'leaked early' uses the wire-level STRICT adversary — any\n\
         reconstruction before tr counts, including a malicious terminal\n\
         holder peeking one holding period early (the paper's closed forms\n\
         only count reconstruction at ts; ablation B of emerge-bench's\n\
         `ablations` binary compares the two). The disjoint scheme tops\n\
         out near R≈0.88 at p=0.2, so some worlds leak at ts —\n\
         exactly why the paper moves to the joint and share schemes."
    );
}

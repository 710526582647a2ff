//! End-to-end integration tests: the full send → DHT routing → emerge →
//! receive pipeline across crates, schemes, attack modes and churn.

use self_emerging_data::core::config::SchemeKind;
use self_emerging_data::core::emergence::{SelfEmergingSystem, SendRequest};
use self_emerging_data::core::error::EmergeError;
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::dht::overlay::OverlayConfig;
use self_emerging_data::sim::time::SimDuration;

fn request(scheme: SchemeKind, message: &[u8], period: u64, p: f64) -> SendRequest {
    SendRequest {
        message: message.to_vec(),
        emerging_period: SimDuration::from_ticks(period),
        scheme,
        target_resilience: 0.99,
        expected_malicious_rate: p,
    }
}

#[test]
fn every_scheme_delivers_in_a_clean_network() {
    for (i, scheme) in SchemeKind::ALL.into_iter().enumerate() {
        let mut system = SelfEmergingSystem::new(
            OverlayConfig {
                n_nodes: 300,
                ..OverlayConfig::default()
            },
            7000 + i as u64,
        );
        let mut handle = system
            .send(request(scheme, b"integration payload", 9_000, 0.0))
            .expect("send");
        system.run_to_release(&mut handle);
        assert_eq!(
            system.receive(&handle).expect("receive"),
            b"integration payload",
            "scheme {scheme}"
        );
        // The key emerged exactly at tr.
        let report = handle.report.as_ref().unwrap();
        assert_eq!(report.released.as_ref().unwrap().0, handle.release_time);
        assert!(report.adversary_reconstruction.is_none());
    }
}

#[test]
fn messages_stay_sealed_until_release_time() {
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 200,
            ..OverlayConfig::default()
        },
        42,
    );
    let handle = system
        .send(request(SchemeKind::Share, b"sealed", 5_000, 0.0))
        .unwrap();
    for _ in 0..3 {
        assert!(matches!(
            system.receive(&handle),
            Err(EmergeError::NotYetReleased { .. })
        ));
    }
}

#[test]
fn share_scheme_survives_combined_attack_and_churn() {
    // 10% droppers plus node lifetimes comparable to the emerging period.
    let tlife = 30_000u64;
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 400,
            malicious_fraction: 0.10,
            mean_lifetime: Some(tlife),
            horizon: 5 * tlife,
        },
        99,
    );
    system.set_attack_mode(AttackMode::Drop);
    let mut handle = system
        .send(request(SchemeKind::Share, b"resilient", tlife, 0.10))
        .unwrap();
    system.run_to_release(&mut handle);
    assert_eq!(
        system.receive(&handle).expect("share must survive"),
        b"resilient"
    );
}

#[test]
fn centralized_scheme_fails_against_full_compromise() {
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 100,
            malicious_fraction: 1.0,
            ..OverlayConfig::default()
        },
        3,
    );
    system.set_attack_mode(AttackMode::Drop);
    let mut handle = system
        .send(request(SchemeKind::Central, b"doomed", 4_000, 0.0))
        .unwrap();
    system.run_to_release(&mut handle);
    assert!(matches!(
        system.receive(&handle),
        Err(EmergeError::KeyLost { .. })
    ));
}

#[test]
fn release_ahead_on_full_compromise_recovers_real_plaintext() {
    for scheme in [SchemeKind::Joint, SchemeKind::Share] {
        let mut system = SelfEmergingSystem::new(
            OverlayConfig {
                n_nodes: 150,
                malicious_fraction: 1.0,
                ..OverlayConfig::default()
            },
            4,
        );
        system.set_attack_mode(AttackMode::ReleaseAhead);
        let mut handle = system
            .send(request(scheme, b"stolen goods", 6_000, 0.0))
            .unwrap();
        system.run_to_release(&mut handle);
        let report = handle.report.as_ref().unwrap();
        let (at, _key) = report
            .adversary_reconstruction
            .as_ref()
            .unwrap_or_else(|| panic!("{scheme}: full compromise must reconstruct"));
        assert!(
            *at < handle.release_time,
            "{scheme}: reconstruction must be early"
        );
    }
}

#[test]
fn passive_adversaries_never_disrupt_delivery() {
    for p in [0.2, 0.5, 0.9] {
        let mut system = SelfEmergingSystem::new(
            OverlayConfig {
                n_nodes: 250,
                malicious_fraction: p,
                ..OverlayConfig::default()
            },
            (p * 100.0) as u64,
        );
        let mut handle = system
            .send(request(
                SchemeKind::Joint,
                b"carried faithfully",
                6_000,
                0.1,
            ))
            .unwrap();
        system.run_to_release(&mut handle);
        assert_eq!(
            system
                .receive(&handle)
                .expect("passive nodes follow protocol"),
            b"carried faithfully"
        );
    }
}

#[test]
fn multiple_sends_share_one_overlay() {
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 300,
            ..OverlayConfig::default()
        },
        11,
    );
    let mut handles: Vec<_> = (0..5)
        .map(|i| {
            system
                .send(request(
                    SchemeKind::Disjoint,
                    format!("message-{i}").as_bytes(),
                    4_000 + i * 500,
                    0.05,
                ))
                .expect("send")
        })
        .collect();
    for (i, handle) in handles.iter_mut().enumerate() {
        system.run_to_release(handle);
        assert_eq!(
            system.receive(handle).unwrap(),
            format!("message-{i}").into_bytes()
        );
    }
}

#[test]
fn large_messages_roundtrip() {
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 200,
            ..OverlayConfig::default()
        },
        12,
    );
    let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let mut handle = system
        .send(request(SchemeKind::Joint, &big, 3_000, 0.02))
        .unwrap();
    system.run_to_release(&mut handle);
    assert_eq!(system.receive(&handle).unwrap(), big);
}

#[test]
fn cloud_blob_is_ciphertext_not_plaintext() {
    let mut system = SelfEmergingSystem::new(
        OverlayConfig {
            n_nodes: 150,
            ..OverlayConfig::default()
        },
        13,
    );
    let secret_text = b"do not store me in the clear";
    let handle = system
        .send(request(SchemeKind::Central, secret_text, 2_000, 0.0))
        .unwrap();
    // The cloud has exactly one blob and it does not contain the plaintext.
    assert_eq!(system.cloud().len(), 1);
    let _ = handle;
}

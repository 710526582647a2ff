//! Golden-fingerprint regression gate for the crypto hot path.
//!
//! The batch rewrite of the share-scheme crypto (slice-wise GF(256),
//! block-wise ChaCha20, memoized key schedules) promises to change **not a
//! single output byte**: packages, protocol reports and therefore the
//! Monte-Carlo trial fingerprints must stay bit-identical. These constants
//! were recorded on the pre-refactor scalar implementation; any accidental
//! byte change in packaging or crypto — a reordered RNG draw, a different
//! HKDF label, a nonce derivation tweak — fails this suite loudly instead
//! of silently invalidating every recorded baseline.
//!
//! If a change is *supposed* to alter the wire format, re-record the
//! constants in the same commit and say so in the commit message.
//!
//! **Share format v2** (the flat segment table that replaced the nested
//! column bundles): re-pinned and confirmed *unchanged*. The trial digest covers holder slots and the protocol
//! report — released secret/time, failure, adversary reconstruction,
//! message counts — and the flattening alters only the sealing topology
//! of the package, not one byte of delivered key material or one message
//! of executor behaviour (v1 and v2 reports agreed field by field; the
//! frozen-digest tests in `emerge_core::protocol` recorded that agreement
//! before v1 was retired). A fingerprint change here after a packaging
//! edit therefore still means real protocol behaviour drifted.

use self_emerging_data::core::config::SchemeParams;
use self_emerging_data::core::montecarlo::{run_protocol_trials, ProtocolTrialSpec};
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::core::substrate::{AnalyticSubstrate, OverlayConfig};
use self_emerging_data::sim::time::SimDuration;

const SEED: u64 = 0x601D;
const TRIALS: usize = 6;

fn world_config() -> OverlayConfig {
    OverlayConfig {
        n_nodes: 150,
        malicious_fraction: 0.4,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

fn spec(params: SchemeParams, attack: AttackMode) -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params,
        emerging_period: SimDuration::from_ticks(3_000),
        attack,
    }
}

/// The four schemes, each under the attack mode that exercises the most
/// crypto (release-ahead does real adversarial reconstruction).
fn cells() -> Vec<(&'static str, ProtocolTrialSpec)> {
    vec![
        (
            "central",
            spec(SchemeParams::Central, AttackMode::ReleaseAhead),
        ),
        (
            "disjoint_3x4",
            spec(
                SchemeParams::Disjoint { k: 3, l: 4 },
                AttackMode::ReleaseAhead,
            ),
        ),
        (
            "joint_3x4",
            spec(SchemeParams::Joint { k: 3, l: 4 }, AttackMode::ReleaseAhead),
        ),
        (
            "share_6x4",
            spec(
                SchemeParams::Share {
                    k: 2,
                    l: 4,
                    n: 6,
                    m: vec![3, 3, 4],
                },
                AttackMode::ReleaseAhead,
            ),
        ),
    ]
}

/// `(cell, analytic fingerprint)` recorded on the pre-refactor scalar
/// crypto implementation.
const GOLDEN: [(&str, u64); 4] = [
    ("central", 0xf797fb5bccacbd79),
    ("disjoint_3x4", 0x201cca94b1bc19ef),
    ("joint_3x4", 0x351113e1538c07ec),
    ("share_6x4", 0x5ba8a8bfb3db9121),
];

#[test]
fn analytic_fingerprints_match_golden() {
    for (name, spec) in cells() {
        let r = run_protocol_trials(&spec, TRIALS, SEED, |s| {
            AnalyticSubstrate::build(world_config(), s)
        })
        .unwrap();
        let (_, expected) = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every cell has a golden entry");
        assert_eq!(
            r.fingerprint, *expected,
            "{name}: fingerprint {:#018x} != golden {:#018x} — a crypto or \
             packaging byte changed",
            r.fingerprint, expected
        );
    }
}

//! Layered ("onion") packaging for self-emerging key routing.
//!
//! Following Reed/Syverson/Goldschlag onion routing as used by the paper,
//! the sender wraps the secret in `l` encryption layers. The holder at hop
//! `j` peels exactly one layer with its column key `K_j`, revealing:
//!
//! * a per-hop **payload** (next-hop IDs, Shamir shares to forward, hold
//!   durations — whatever the scheme puts there), and
//! * the **inner onion** to forward to the next hop.
//!
//! The innermost layer carries the core payload (the protected secret key of
//! the self-emerging message). Layers are sealed with ChaCha20-Poly1305, so
//! a holder cannot see *or undetectably modify* anything beneath its own
//! layer.
//!
//! One loop seals layers ([`build_onion_into`]) and one parser opens them
//! ([`peel_in_place`]), both on caller-owned buffers; [`build_onion`],
//! [`peel`] and [`peel_core`] run them on fresh ones.
//!
//! ```
//! use emerge_crypto::keys::SymmetricKey;
//! use emerge_crypto::onion::{build_onion, peel, Peeled};
//!
//! # fn main() -> Result<(), emerge_crypto::CryptoError> {
//! let k1 = SymmetricKey::from_bytes([1u8; 32]);
//! let k2 = SymmetricKey::from_bytes([2u8; 32]);
//! let onion = build_onion(&[(&k1, b"hop-1 data"), (&k2, b"hop-2 data")], b"the secret");
//!
//! let Peeled::Intermediate { payload, inner } = peel(&k1, &onion)? else { panic!() };
//! assert_eq!(payload, b"hop-1 data");
//! let Peeled::Core { payload } = peel(&k2, &inner)? else { panic!() };
//! assert_eq!(payload, b"the secret");
//! # Ok(())
//! # }
//! ```

use crate::aead;
use crate::error::CryptoError;
use crate::keys::SymmetricKey;
use crate::wire::Reader;

/// Domain separation string authenticated with every onion layer.
const ONION_AAD: &[u8] = b"emerge-onion-v1";
/// Marks a layer that contains a further onion beneath it.
const TAG_INTERMEDIATE: u8 = 1;
/// Marks the innermost layer.
const TAG_CORE: u8 = 0;

/// The result of peeling one onion layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Peeled {
    /// An intermediate layer: per-hop payload plus the onion to forward.
    Intermediate {
        /// Data addressed to this hop's holder.
        payload: Vec<u8>,
        /// The remaining onion, to forward to the next hop.
        inner: Vec<u8>,
    },
    /// The innermost layer: the protected core payload.
    Core {
        /// The core data (the self-emerging secret key).
        payload: Vec<u8>,
    },
}

/// Builds an onion with the given layers (outermost first) around `core`.
///
/// Layer `j` is decryptable with `layers[j].0`; peeling it yields
/// `layers[j].1` as the per-hop payload. Peeling the final layer yields
/// `core`. This is [`build_onion_into`] into fresh buffers.
///
/// # Panics
///
/// Panics if `layers` is empty: the result would be unencrypted.
pub fn build_onion(layers: &[(&SymmetricKey, &[u8])], core: &[u8]) -> Vec<u8> {
    let mut onion = Vec::new();
    build_onion_into(layers.iter().copied(), core, &mut onion, &mut Vec::new());
    onion
}

/// Peels one layer of `onion` with `key`: [`peel_in_place`] on a copy.
///
/// # Errors
///
/// Returns [`CryptoError::AuthenticationFailed`] for a wrong key or a
/// tampered layer, and [`CryptoError::Malformed`] /
/// [`CryptoError::InvalidLength`] for structurally invalid plaintext.
pub fn peel(key: &SymmetricKey, onion: &[u8]) -> Result<Peeled, CryptoError> {
    let mut rest = onion.to_vec();
    let mut payload = Vec::new();
    Ok(match peel_in_place(key, &mut rest, &mut payload)? {
        LayerKind::Intermediate => Peeled::Intermediate {
            payload,
            inner: rest,
        },
        LayerKind::Core => Peeled::Core { payload: rest },
    })
}

/// Peels the innermost layer, returning both the final hop payload and the
/// core. Use this when the terminal holder needs its hop payload too.
///
/// # Errors
///
/// Same contract as [`peel`], plus [`CryptoError::Malformed`] when the
/// layer is an intermediate one.
pub fn peel_core(key: &SymmetricKey, onion: &[u8]) -> Result<(Vec<u8>, Vec<u8>), CryptoError> {
    let mut core = onion.to_vec();
    let mut payload = Vec::new();
    match peel_in_place(key, &mut core, &mut payload)? {
        LayerKind::Core => Ok((payload, core)),
        LayerKind::Intermediate => Err(CryptoError::Malformed(
            "expected core onion layer, found intermediate",
        )),
    }
}

/// Which kind of layer [`peel_in_place`] uncovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// An intermediate layer; the buffer now holds the inner onion.
    Intermediate,
    /// The innermost layer; the buffer now holds the core payload.
    Core,
}

/// Peels one layer of the onion in `onion` in place: the one layer
/// parser.
///
/// On success the hop payload is copied into `payload` (cleared first) and
/// `onion` is rewritten to hold the inner onion (for
/// [`LayerKind::Intermediate`]) or the core payload (for
/// [`LayerKind::Core`]) — so repeated calls walk the whole path with two
/// reused buffers and no allocation once their capacities are warm.
///
/// # Errors
///
/// Same contract as [`peel`]; on an authentication error `onion` is left
/// unmodified.
pub fn peel_in_place(
    key: &SymmetricKey,
    onion: &mut Vec<u8>,
    payload: &mut Vec<u8>,
) -> Result<LayerKind, CryptoError> {
    let nonce = key.derive_nonce(b"onion-layer");
    aead::open_in_place(key, &nonce, onion, ONION_AAD)?;
    // Parse spans first, then rearrange the buffer; layout is
    // tag(1) | len(4) payload | len(4) inner-or-core.
    let (kind, payload_span, rest_span) = {
        let mut r = Reader::new(onion);
        let tag = r.get_u8()?;
        let kind = match tag {
            TAG_CORE => LayerKind::Core,
            TAG_INTERMEDIATE => LayerKind::Intermediate,
            _ => return Err(CryptoError::Malformed("unknown onion layer tag")),
        };
        let p_len = r.get_u32()? as usize;
        let p_start = r.position();
        r.get_raw(p_len)?;
        let rest_len = r.get_u32()? as usize;
        let rest_start = r.position();
        r.get_raw(rest_len)?;
        r.expect_end()?;
        (
            kind,
            p_start..p_start + p_len,
            rest_start..rest_start + rest_len,
        )
    };
    payload.clear();
    payload.extend_from_slice(&onion[payload_span]);
    let rest_len = rest_span.len();
    onion.copy_within(rest_span, 0);
    onion.truncate(rest_len);
    Ok(kind)
}

/// Builds an onion into caller-owned buffers: the one layer-sealing
/// loop.
///
/// `layers` yields each layer's key and hop payload, outermost first, as
/// for [`build_onion`]; the loop walks it from the innermost layer out,
/// so callers that hold keys and payloads apart zip them instead of
/// building a layer list. `onion` receives the finished onion; `scratch`
/// is layer plaintext scratch. Both are cleared and reused, so a warm
/// caller allocates nothing.
///
/// # Panics
///
/// Panics if `layers` is empty, like [`build_onion`].
pub fn build_onion_into<'a>(
    layers: impl DoubleEndedIterator<Item = (&'a SymmetricKey, &'a [u8])> + ExactSizeIterator,
    core: &[u8],
    onion: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
) {
    // LINT-WAIVER(panic): documented # Panics precondition on the onion layer arguments
    assert!(
        layers.len() != 0,
        "an onion needs at least one layer key; refusing to emit plaintext"
    );
    // The innermost layer wraps the core; every other layer wraps the
    // onion built so far. Plaintext ping-pongs through `scratch`.
    onion.clear();
    onion.extend_from_slice(core);
    let mut tag = TAG_CORE;
    for (key, payload) in layers.rev() {
        scratch.clear();
        scratch.push(tag);
        scratch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        scratch.extend_from_slice(payload);
        scratch.extend_from_slice(&(onion.len() as u32).to_le_bytes());
        scratch.extend_from_slice(onion);
        let nonce = key.derive_nonce(b"onion-layer");
        aead::seal_in_place(key, &nonce, scratch, ONION_AAD);
        std::mem::swap(onion, scratch);
        tag = TAG_INTERMEDIATE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::from_bytes([b; 32])
    }

    #[test]
    fn three_layer_roundtrip() {
        let keys = [key(1), key(2), key(3)];
        let onion = build_onion(
            &[
                (&keys[0], b"to hop 1"),
                (&keys[1], b"to hop 2"),
                (&keys[2], b"to hop 3"),
            ],
            b"core secret",
        );

        let Peeled::Intermediate { payload, inner } = peel(&keys[0], &onion).unwrap() else {
            panic!("expected intermediate");
        };
        assert_eq!(payload, b"to hop 1");

        let Peeled::Intermediate { payload, inner } = peel(&keys[1], &inner).unwrap() else {
            panic!("expected intermediate");
        };
        assert_eq!(payload, b"to hop 2");

        let (hop_payload, core) = peel_core(&keys[2], &inner).unwrap();
        assert_eq!(hop_payload, b"to hop 3");
        assert_eq!(core, b"core secret");
    }

    #[test]
    fn single_layer_onion() {
        let k = key(9);
        let onion = build_onion(&[(&k, b"only hop")], b"secret");
        match peel(&k, &onion).unwrap() {
            Peeled::Core { payload } => assert_eq!(payload, b"secret"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_key_cannot_peel() {
        let onion = build_onion(&[(&key(1), b""), (&key(2), b"")], b"secret");
        assert_eq!(
            peel(&key(2), &onion),
            Err(CryptoError::AuthenticationFailed),
            "inner key must not open the outer layer"
        );
        assert_eq!(
            peel(&key(7), &onion),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn skipping_a_layer_fails() {
        // An adversary holding K2 and K3 but not K1 cannot shortcut: the
        // outer layer hides the inner ciphertext entirely.
        let keys = [key(1), key(2), key(3)];
        let onion = build_onion(
            &[(&keys[0], b""), (&keys[1], b""), (&keys[2], b"")],
            b"secret",
        );
        assert!(peel(&keys[1], &onion).is_err());
        assert!(peel(&keys[2], &onion).is_err());
    }

    #[test]
    fn tampered_layer_rejected() {
        let k = key(4);
        let mut onion = build_onion(&[(&k, b"p")], b"secret");
        let mid = onion.len() / 2;
        onion[mid] ^= 0xFF;
        assert_eq!(peel(&k, &onion), Err(CryptoError::AuthenticationFailed));
    }

    #[test]
    fn peel_core_rejects_intermediate_layer() {
        let keys = [key(1), key(2)];
        let onion = build_onion(&[(&keys[0], b""), (&keys[1], b"")], b"secret");
        assert!(matches!(
            peel_core(&keys[0], &onion),
            Err(CryptoError::Malformed(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least one layer key")]
    fn empty_layers_panics() {
        let _ = build_onion(&[], b"secret");
    }

    #[test]
    fn in_place_build_and_peel_match_allocating_forms() {
        let keys = [key(1), key(2), key(3)];
        let layer_refs: [(&SymmetricKey, &[u8]); 3] = [
            (&keys[0], b"to hop 1"),
            (&keys[1], b"to hop 2"),
            (&keys[2], b"to hop 3"),
        ];
        let reference = build_onion(&layer_refs, b"core secret");
        // Dirty both buffers with another onion first: reuse must not
        // leak state into the next build.
        let mut onion = Vec::new();
        let mut scratch = Vec::new();
        build_onion_into(
            [(&keys[2], &b"other"[..])].into_iter(),
            &[7; 300],
            &mut onion,
            &mut scratch,
        );
        build_onion_into(
            layer_refs.iter().copied(),
            b"core secret",
            &mut onion,
            &mut scratch,
        );
        assert_eq!(onion, reference);

        let mut payload = Vec::new();
        assert_eq!(
            peel_in_place(&keys[0], &mut onion, &mut payload).unwrap(),
            LayerKind::Intermediate
        );
        assert_eq!(payload, b"to hop 1");
        assert_eq!(
            peel_in_place(&keys[1], &mut onion, &mut payload).unwrap(),
            LayerKind::Intermediate
        );
        assert_eq!(payload, b"to hop 2");
        assert_eq!(
            peel_in_place(&keys[2], &mut onion, &mut payload).unwrap(),
            LayerKind::Core
        );
        assert_eq!(payload, b"to hop 3");
        assert_eq!(onion, b"core secret");

        // Wrong key leaves the onion untouched.
        let mut sealed = build_onion(&layer_refs, b"core secret");
        let before = sealed.clone();
        assert!(peel_in_place(&keys[1], &mut sealed, &mut payload).is_err());
        assert_eq!(sealed, before);
    }

    #[test]
    fn replicated_onions_are_identical() {
        // The disjoint scheme sends the same onion down k paths; building it
        // twice must give byte-identical packages (deterministic nonces).
        let keys = [key(1), key(2)];
        let a = build_onion(&[(&keys[0], b"x"), (&keys[1], b"y")], b"core");
        let b = build_onion(&[(&keys[0], b"x"), (&keys[1], b"y")], b"core");
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn arbitrary_payload_roundtrip(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..5),
            core in proptest::collection::vec(any::<u8>(), 0..60),
        ) {
            let keys: Vec<SymmetricKey> =
                (0..payloads.len()).map(|i| key(i as u8 + 1)).collect();
            let layer_refs: Vec<(&SymmetricKey, &[u8])> = keys
                .iter()
                .zip(payloads.iter())
                .map(|(k, p)| (k, p.as_slice()))
                .collect();
            let mut onion = build_onion(&layer_refs, &core);

            for (i, k) in keys.iter().enumerate() {
                if i + 1 == keys.len() {
                    let (hp, c) = peel_core(k, &onion).unwrap();
                    prop_assert_eq!(&hp, &payloads[i]);
                    prop_assert_eq!(&c, &core);
                } else {
                    match peel(k, &onion).unwrap() {
                        Peeled::Intermediate { payload, inner } => {
                            prop_assert_eq!(&payload, &payloads[i]);
                            onion = inner;
                        }
                        Peeled::Core { .. } => prop_assert!(false, "core too early"),
                    }
                }
            }
        }
    }
}

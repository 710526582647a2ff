//! Key material newtypes shared across the system.

use crate::hkdf::Hkdf;
use rand::{CryptoRng, RngCore};
use std::fmt;

/// Length of a symmetric key in bytes.
pub const KEY_LEN: usize = 32;

/// A 256-bit symmetric key.
///
/// Deliberately does not implement `Display`, and its `Debug` output is
/// redacted so keys do not leak into logs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SymmetricKey([u8; KEY_LEN]);

impl SymmetricKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SymmetricKey(bytes)
    }

    /// Samples a fresh uniformly random key from `rng`.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        SymmetricKey(bytes)
    }

    /// Derives a labelled sub-key via HKDF. Used to build the per-column
    /// onion keys and nonces from one sender seed.
    pub fn derive(&self, label: &[u8]) -> SymmetricKey {
        let hk = Hkdf::from_prk(self.0);
        SymmetricKey(hk.expand_key(label))
    }

    /// Derives a 12-byte nonce bound to `label`.
    ///
    /// Runs on every AEAD seal/open and onion peel, so the
    /// `label || "/nonce"` info string is composed on the stack for the
    /// short labels the schemes use (falling back to a heap concat only
    /// for oversized labels).
    pub fn derive_nonce(&self, label: &[u8]) -> [u8; 12] {
        const SUFFIX: &[u8] = b"/nonce";
        let hk = Hkdf::from_prk(self.0);
        let mut nonce = [0u8; 12];
        let mut info = [0u8; 64];
        if label.len() + SUFFIX.len() <= info.len() {
            info[..label.len()].copy_from_slice(label);
            info[label.len()..label.len() + SUFFIX.len()].copy_from_slice(SUFFIX);
            hk.expand_into(&info[..label.len() + SUFFIX.len()], &mut nonce);
        } else {
            hk.expand_into(&[label, SUFFIX].concat(), &mut nonce);
        }
        nonce
    }

    /// Views the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }

    /// Extracts the raw key bytes.
    pub fn into_bytes(self) -> [u8; KEY_LEN] {
        self.0
    }
}

impl fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymmetricKey(<redacted>)")
    }
}

impl From<[u8; KEY_LEN]> for SymmetricKey {
    fn from(bytes: [u8; KEY_LEN]) -> Self {
        SymmetricKey(bytes)
    }
}

/// One Shamir share of a secret, tagged with its evaluation index.
///
/// Index `x` must be non-zero (x = 0 would be the secret itself).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct KeyShare {
    /// Evaluation point in GF(256), 1..=255.
    pub index: u8,
    /// One byte of share data per byte of secret.
    pub data: Vec<u8>,
}

impl KeyShare {
    /// Creates a share from its parts.
    pub fn new(index: u8, data: Vec<u8>) -> Self {
        KeyShare { index, data }
    }
}

impl fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyShare {{ index: {}, data: <{} bytes redacted> }}",
            self.index,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn debug_redacts_key_material() {
        let key = SymmetricKey::from_bytes([0xAB; 32]);
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("ab"), "debug output leaked key bytes: {dbg}");
        let share = KeyShare::new(3, vec![0xCD; 8]);
        let dbg = format!("{share:?}");
        assert!(!dbg.contains("cd"), "debug output leaked share bytes");
        assert!(dbg.contains("index: 3"));
    }

    #[test]
    fn generate_is_seed_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(1234);
        let mut rng2 = StdRng::seed_from_u64(1234);
        assert_eq!(
            SymmetricKey::generate(&mut rng1).into_bytes(),
            SymmetricKey::generate(&mut rng2).into_bytes()
        );
    }

    #[test]
    fn derive_is_label_separated() {
        let key = SymmetricKey::from_bytes([7u8; 32]);
        assert_ne!(key.derive(b"a").into_bytes(), key.derive(b"b").into_bytes());
        assert_eq!(key.derive(b"a").into_bytes(), key.derive(b"a").into_bytes());
    }

    #[test]
    fn oversized_label_nonce_matches_heap_reference() {
        // Labels longer than the stack buffer take the concat fallback;
        // both paths must derive the same nonce as the plain HKDF expand.
        let key = SymmetricKey::from_bytes([7u8; 32]);
        for len in [1usize, 57, 58, 59, 100] {
            let label = vec![b'x'; len];
            let hk = Hkdf::from_prk(*key.as_bytes());
            let okm = hk.expand(&[label.as_slice(), b"/nonce"].concat(), 12);
            assert_eq!(&key.derive_nonce(&label)[..], &okm[..], "label len {len}");
        }
    }

    #[test]
    fn nonce_differs_from_key_derivation() {
        let key = SymmetricKey::from_bytes([7u8; 32]);
        let nonce = key.derive_nonce(b"column-1");
        let key2 = key.derive(b"column-1");
        assert_ne!(&key2.as_bytes()[..12], &nonce[..]);
    }
}

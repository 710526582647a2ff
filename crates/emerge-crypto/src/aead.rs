//! ChaCha20-Poly1305 AEAD (RFC 8439 section 2.8).
//!
//! This is the authenticated encryption used for every onion layer and for
//! the cloud-stored payload of a self-emerging message. Decryption is
//! all-or-nothing: any tampering with ciphertext or associated data yields
//! [`CryptoError::AuthenticationFailed`].
//!
//! Each direction has one implementation, in place on a caller's buffer
//! ([`seal_in_place`], [`open_in_place`]); [`seal`] and [`open`] run it on
//! a fresh copy.
//!
//! ```
//! use emerge_crypto::aead::{seal, open};
//! use emerge_crypto::keys::SymmetricKey;
//!
//! # fn main() -> Result<(), emerge_crypto::CryptoError> {
//! let key = SymmetricKey::from_bytes([9u8; 32]);
//! let nonce = [1u8; 12];
//! let ct = seal(&key, &nonce, b"secret", b"aad");
//! assert_eq!(open(&key, &nonce, &ct, b"aad")?, b"secret");
//! assert!(open(&key, &nonce, &ct, b"tampered-aad").is_err());
//! # Ok(())
//! # }
//! ```

use crate::chacha20::{chacha20_block, ChaCha20, NONCE_LEN};
use crate::error::CryptoError;
use crate::hmac::verify_tag;
use crate::keys::SymmetricKey;
use crate::poly1305::{Poly1305, TAG_LEN};
use emerge_obs::metrics::CounterId;

/// Number of AEAD seal operations (any caller, this thread's collector).
pub static SEAL_CALLS: CounterId = CounterId::new("crypto.aead.seal.calls");
/// Total plaintext bytes sealed by AEAD operations.
pub static SEAL_BYTES: CounterId = CounterId::new("crypto.aead.seal.bytes");
/// Number of AEAD open operations (successful verifications only).
pub static OPEN_CALLS: CounterId = CounterId::new("crypto.aead.open.calls");
/// Total plaintext bytes recovered by AEAD open operations.
pub static OPEN_BYTES: CounterId = CounterId::new("crypto.aead.open.bytes");
/// Number of AEAD opens rejected (bad tag or truncated input).
pub static OPEN_REJECTS: CounterId = CounterId::new("crypto.aead.open.rejects");

/// The ciphertext expansion added by the authentication tag.
pub const OVERHEAD: usize = TAG_LEN;

/// Encrypts `plaintext` under `key`/`nonce`, authenticating `aad` as well.
///
/// Returns `ciphertext || 16-byte tag`.
pub fn seal(key: &SymmetricKey, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    // Reserve for the tag up front: `plaintext.to_vec()` sizes the buffer
    // exactly, so appending the tag later would reallocate and copy the
    // whole ciphertext again — measurable at the share scheme's
    // hundreds-of-KB-per-trial seal volume.
    let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
    out.extend_from_slice(plaintext);
    seal_in_place(key, nonce, &mut out, aad);
    out
}

/// Encrypts the plaintext already sitting in `buf` and appends the 16-byte
/// tag, leaving `buf` exactly as [`seal`] would have returned it: the one
/// seal path.
///
/// The in-place form lets pooled callers reuse one buffer across trials:
/// once `buf`'s capacity covers `len + OVERHEAD` no allocation occurs.
pub fn seal_in_place(key: &SymmetricKey, nonce: &[u8; NONCE_LEN], buf: &mut Vec<u8>, aad: &[u8]) {
    SEAL_CALLS.incr();
    SEAL_BYTES.add(buf.len() as u64);
    ChaCha20::new(key.as_bytes(), nonce, 1).apply_keystream(buf);
    let tag = compute_tag(key, nonce, buf, aad);
    buf.extend_from_slice(&tag);
}

/// Decrypts and verifies `ciphertext` (as produced by [`seal`]):
/// [`open_in_place`] on a copy.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if the input is shorter than the
/// tag, and [`CryptoError::AuthenticationFailed`] if verification fails.
pub fn open(
    key: &SymmetricKey,
    nonce: &[u8; NONCE_LEN],
    ciphertext: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut out = ciphertext.to_vec();
    open_in_place(key, nonce, &mut out, aad)?;
    Ok(out)
}

/// Verifies and decrypts the ciphertext sitting in `buf` in place,
/// truncating the tag, so `buf` ends up holding the plaintext: the one
/// open path, allocation-free for pooled buffers. The tag is verified
/// *before* any decryption touches the bytes.
///
/// # Errors
///
/// Same contract as [`open`]. On error `buf` is left unmodified.
pub fn open_in_place(
    key: &SymmetricKey,
    nonce: &[u8; NONCE_LEN],
    buf: &mut Vec<u8>,
    aad: &[u8],
) -> Result<(), CryptoError> {
    if buf.len() < TAG_LEN {
        OPEN_REJECTS.incr();
        return Err(CryptoError::InvalidLength {
            context: "AEAD ciphertext",
            expected: TAG_LEN,
            actual: buf.len(),
        });
    }
    let body_len = buf.len() - TAG_LEN;
    let expected = compute_tag(key, nonce, &buf[..body_len], aad);
    if !verify_tag(&expected, &buf[body_len..]) {
        OPEN_REJECTS.incr();
        return Err(CryptoError::AuthenticationFailed);
    }
    buf.truncate(body_len);
    ChaCha20::new(key.as_bytes(), nonce, 1).apply_keystream(buf);
    OPEN_CALLS.incr();
    OPEN_BYTES.add(body_len as u64);
    Ok(())
}

/// RFC 8439 Poly1305 message framing: aad, ciphertext (both zero-padded to
/// 16 bytes) followed by their lengths as 64-bit little-endian integers.
fn compute_tag(
    key: &SymmetricKey,
    nonce: &[u8; NONCE_LEN],
    ciphertext: &[u8],
    aad: &[u8],
) -> [u8; TAG_LEN] {
    // One-time Poly1305 key = first 32 bytes of ChaCha20 block 0.
    let block0 = chacha20_block(key.as_bytes(), nonce, 0);
    let mut otk = [0u8; 32];
    otk.copy_from_slice(&block0[..32]);

    let mut mac = Poly1305::new(&otk);
    let zeros = [0u8; 16];
    mac.update(aad);
    if !aad.len().is_multiple_of(16) {
        mac.update(&zeros[..16 - aad.len() % 16]);
    }
    mac.update(ciphertext);
    if !ciphertext.len().is_multiple_of(16) {
        mac.update(&zeros[..16 - ciphertext.len() % 16]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 section 2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key_bytes: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let key = SymmetricKey::from_bytes(key_bytes);
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

        let sealed = seal(&key, &nonce, plaintext, &aad);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

        let opened = open(&key, &nonce, &sealed, &aad).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = SymmetricKey::from_bytes([1u8; 32]);
        let nonce = [2u8; 12];
        let mut sealed = seal(&key, &nonce, b"payload", b"");
        sealed[0] ^= 0x01;
        assert_eq!(
            open(&key, &nonce, &sealed, b""),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_tag_rejected() {
        let key = SymmetricKey::from_bytes([1u8; 32]);
        let nonce = [2u8; 12];
        let mut sealed = seal(&key, &nonce, b"payload", b"");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(
            open(&key, &nonce, &sealed, b""),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let key = SymmetricKey::from_bytes([1u8; 32]);
        let wrong = SymmetricKey::from_bytes([2u8; 32]);
        let nonce = [0u8; 12];
        let sealed = seal(&key, &nonce, b"payload", b"aad");
        assert!(open(&wrong, &nonce, &sealed, b"aad").is_err());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let key = SymmetricKey::from_bytes([1u8; 32]);
        let sealed = seal(&key, &[0u8; 12], b"payload", b"");
        assert!(open(&key, &[1u8; 12], &sealed, b"").is_err());
    }

    #[test]
    fn truncated_input_is_length_error() {
        let key = SymmetricKey::from_bytes([1u8; 32]);
        let err = open(&key, &[0u8; 12], &[0u8; 5], b"").unwrap_err();
        assert!(matches!(err, CryptoError::InvalidLength { .. }));
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = SymmetricKey::from_bytes([1u8; 32]);
        let nonce = [0u8; 12];
        let sealed = seal(&key, &nonce, b"", b"just-aad");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&key, &nonce, &sealed, b"just-aad").unwrap(), b"");
    }

    #[test]
    fn in_place_forms_match_allocating_forms() {
        let key = SymmetricKey::from_bytes([8u8; 32]);
        let nonce = [4u8; 12];
        for len in [0usize, 1, 15, 16, 17, 333, 4096] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
            let sealed = seal(&key, &nonce, &plain, b"aad");
            let mut buf = plain.clone();
            seal_in_place(&key, &nonce, &mut buf, b"aad");
            assert_eq!(buf, sealed);
            open_in_place(&key, &nonce, &mut buf, b"aad").unwrap();
            assert_eq!(buf, plain);
        }
        // A failed in-place open leaves the buffer untouched.
        let mut tampered = seal(&key, &nonce, b"payload", b"aad");
        tampered[0] ^= 1;
        let before = tampered.clone();
        assert_eq!(
            open_in_place(&key, &nonce, &mut tampered, b"aad"),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(tampered, before);
    }

    #[test]
    fn large_payload_roundtrip() {
        let key = SymmetricKey::from_bytes([5u8; 32]);
        let nonce = [6u8; 12];
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let sealed = seal(&key, &nonce, &payload, b"big");
        assert_eq!(open(&key, &nonce, &sealed, b"big").unwrap(), payload);
    }
}

//! # emerge-crypto
//!
//! From-scratch cryptographic substrate for the self-emerging data system
//! (Li & Palanisamy, ICDCS 2017).
//!
//! The paper treats its ciphers as ideal primitives; this crate supplies
//! concrete, dependency-free implementations so that the whole system can be
//! exercised end-to-end:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4)
//! * [`hmac`] — HMAC-SHA256 (RFC 2104)
//! * [`hkdf`] — HKDF (RFC 5869)
//! * [`chacha20`] — ChaCha20 stream cipher (RFC 8439)
//! * [`poly1305`] — Poly1305 one-time authenticator (RFC 8439)
//! * [`aead`] — ChaCha20-Poly1305 AEAD (RFC 8439)
//! * [`gf256`] — arithmetic in GF(2^8) with the AES polynomial
//! * [`shamir`] — Shamir `(m, n)` threshold secret sharing over GF(2^8)
//! * [`commitments`] — hash commitments making reconstruction robust to
//!   share pollution
//! * [`onion`] — the layered onion packaging used by the key-routing schemes
//! * [`wire`] — small length-prefixed serialization helpers
//!
//! Everything here is written for clarity and determinism first; it is more
//! than fast enough for the simulation workloads in this repository (the
//! benchmark ledger's traced run, `bench/`, times the AEAD, Shamir and
//! ChaCha20 primitives).
//!
//! # Example
//!
//! ```
//! use emerge_crypto::aead::{seal, open};
//! use emerge_crypto::keys::SymmetricKey;
//!
//! # fn main() -> Result<(), emerge_crypto::CryptoError> {
//! let key = SymmetricKey::from_bytes([7u8; 32]);
//! let nonce = [0u8; 12];
//! let ct = seal(&key, &nonce, b"attack at dawn", b"header");
//! let pt = open(&key, &nonce, &ct, b"header")?;
//! assert_eq!(pt, b"attack at dawn");
//! # Ok(())
//! # }
//! ```

// Unsafe code is denied crate-wide; the only exemptions are the
// runtime-dispatched hardware kernels (`sha256::shani`, `gf256::gfni`,
// `chacha20::avx512`), which carry scoped `allow(unsafe_code)` and are
// each pinned bit-identical to their portable safe implementation by a
// property test.
#![deny(unsafe_code)]
// Inside those kernels, every unsafe operation must sit in an explicit
// `unsafe {}` block with its own `// SAFETY:` justification — an
// `unsafe fn` signature alone does not discharge the obligation.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod commitments;
pub mod error;
pub mod gf256;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod onion;
pub mod poly1305;
pub mod sha256;
pub mod shamir;
pub mod wire;

pub use error::CryptoError;
pub use keys::{KeyShare, SymmetricKey};

//! Crypto-layer rates, measured by the traced run at the sizes the share
//! packaging uses: AEAD on 4 KiB headers and 64 KiB segments, an
//! 18-of-40 Shamir split of a 32-byte key, and the ChaCha20 keystream.

use std::hint::black_box;
use std::time::{Duration, Instant};

use emerge_crypto::aead;
use emerge_crypto::chacha20::ChaCha20;
use emerge_crypto::keys::SymmetricKey;
use emerge_crypto::shamir;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;

/// Length of one timed repetition.
const REP: Duration = Duration::from_millis(20);
/// Repetitions per rate; the median is reported.
const REPS: usize = 5;

/// Median operations per second of `op` over [`REPS`] repetitions.
fn ops_per_sec(mut op: impl FnMut()) -> f64 {
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut n = 0u64;
            while start.elapsed() < REP {
                op();
                n += 1;
            }
            n as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// The crypto layer's rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct CryptoRates {
    /// AEAD seal of 4 KiB, MB/s.
    pub seal_4k: f64,
    /// AEAD seal of 64 KiB, MB/s.
    pub seal_64k: f64,
    /// AEAD open of 4 KiB, MB/s.
    pub open_4k: f64,
    /// AEAD open of 64 KiB, MB/s.
    pub open_64k: f64,
    /// 18-of-40 splits of a 32-byte secret per second.
    pub shamir_split_per_s: f64,
    /// ChaCha20 keystream over 64 KiB, MB/s.
    pub chacha20: f64,
}

/// Measures every rate (about 0.6 s).
pub fn measure() -> CryptoRates {
    let key = SymmetricKey::from_bytes([1u8; 32]);
    let nonce = [9u8; 12];
    let mb_s = |bytes: usize, ops: f64| ops * bytes as f64 / 1e6;
    let mut rates = CryptoRates::default();
    for (size, seal, open) in [
        (4 * 1024, &mut rates.seal_4k, &mut rates.open_4k),
        (64 * 1024, &mut rates.seal_64k, &mut rates.open_64k),
    ] {
        let plaintext = vec![0x55u8; size];
        *seal = mb_s(
            size,
            ops_per_sec(|| {
                black_box(aead::seal(&key, &nonce, black_box(&plaintext), b"aad"));
            }),
        );
        let sealed = aead::seal(&key, &nonce, &plaintext, b"aad");
        *open = mb_s(
            size,
            ops_per_sec(|| {
                black_box(aead::open(&key, &nonce, black_box(&sealed), b"aad").ok());
            }),
        );
    }
    let secret = [0x2Au8; 32];
    let mut rng = StdRng::seed_from_u64(7);
    rates.shamir_split_per_s = ops_per_sec(|| {
        black_box(shamir::split(black_box(&secret), 18, 40, &mut rng).ok());
    });
    let mut buf = vec![0u8; 64 * 1024];
    rates.chacha20 = mb_s(
        buf.len(),
        ops_per_sec(|| {
            ChaCha20::new(key.as_bytes(), &nonce, 0).apply_keystream(black_box(&mut buf));
        }),
    );
    rates
}

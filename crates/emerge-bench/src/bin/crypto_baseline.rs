//! Records the crypto-kernel throughput baseline to `BENCH_crypto.json`
//! (first CLI arg overrides the path).
//!
//! Measures the batched hot-path kernels the Monte-Carlo share cell leans
//! on — slice-wise GF(256), slab Shamir split/combine, block-wise
//! ChaCha20, AEAD seal/open at header and bundle sizes, the memoized
//! key schedule, and the whole share-package build (with
//! `share_package_seal_bytes_v2_40x5` recording the AEAD seal volume per
//! build) — each alongside its pre-refactor shape where one still
//! exists, so the before/after ratio stays visible in the recorded
//! numbers. Later PRs diff against the committed file the
//! same way they diff `BENCH_montecarlo.json`.
//!
//! Environment: `EMERGE_CRYPTO_SAMPLE_MS` (default 300) sets the minimum
//! sampling window per operation.

use emerge_bench::report::{render_crypto_report, validate_json, CryptoMeasurement};
use emerge_core::config::SchemeParams;
use emerge_core::package::{build_share_packages, take_sealed_byte_count, KeySchedule};
use emerge_core::path::construct_paths;
use emerge_crypto::chacha20::ChaCha20;
use emerge_crypto::gf256;
use emerge_crypto::keys::SymmetricKey;
use emerge_crypto::{aead, shamir};
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::overlay::OverlayConfig;
use emerge_obs::{Collector, Stopwatch};
use emerge_sim::rng::SeedSource;

fn sample_ms() -> u64 {
    std::env::var("EMERGE_CRYPTO_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Runs `op` repeatedly for at least the sampling window and records it.
fn measure<F: FnMut()>(
    out: &mut Vec<CryptoMeasurement>,
    op: &str,
    bytes_per_iter: usize,
    mut f: F,
) {
    // Warm up lazily built tables outside the timed window.
    f();
    let window_secs = sample_ms() as f64 / 1e3;
    let watch = Stopwatch::start();
    let mut iters = 0usize;
    // Check the clock once per batch, not per iteration: a clock read
    // costs tens of nanoseconds and would otherwise be billed to the
    // nanosecond-scale kernels.
    const BATCH: usize = 64;
    while watch.elapsed_secs() < window_secs {
        for _ in 0..BATCH {
            f();
        }
        iters += BATCH;
    }
    let m = CryptoMeasurement {
        op: op.into(),
        iters,
        seconds: watch.elapsed_secs(),
        bytes_per_iter,
    };
    if bytes_per_iter > 0 {
        eprintln!(
            "{op}: {:.1} ops/sec, {:.1} MB/s",
            m.ops_per_sec(),
            m.mb_per_sec()
        );
    } else {
        eprintln!("{op}: {:.1} ops/sec", m.ops_per_sec());
    }
    out.push(m);
}

fn main() {
    // The seal-volume counter (`package.seal.bytes`) records into the
    // thread's telemetry collector; without one installed,
    // `take_sealed_byte_count` would read 0 and the
    // `share_package_seal_bytes_*` ops below would record no volume.
    emerge_obs::collector::install(Collector::new());
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_crypto.json".into());
    let mut ms = Vec::new();

    // GF(256) slice kernels vs the scalar loop they replaced.
    let src: Vec<u8> = (0..1024).map(|i| (i * 31 + 1) as u8).collect();
    let mut buf = src.clone();
    measure(&mut ms, "gf256_mul_slice_assign_1KiB", 1024, || {
        gf256::mul_slice_assign(std::hint::black_box(&mut buf), 0x53);
    });
    let mut acc = vec![0u8; 1024];
    measure(&mut ms, "gf256_mul_acc_slice_1KiB", 1024, || {
        gf256::mul_acc_slice(std::hint::black_box(&mut acc), &src, 0x53);
    });
    let mut sbuf = src.clone();
    measure(&mut ms, "gf256_mul_scalar_loop_1KiB", 1024, || {
        for byte in &mut sbuf {
            *byte = gf256::mul(std::hint::black_box(*byte), 0x53);
        }
    });

    // Shamir at the Monte-Carlo share cell's own shape: 32-byte keys,
    // 20-of-40.
    let secret = [0xC3u8; 32];
    let mut rng = SeedSource::new(7).stream("crypto-baseline");
    measure(&mut ms, "shamir_split_20of40_32B", 32, || {
        // LINT-WAIVER(panic): splitting a 32-byte secret 20-of-40 is a valid hardcoded parameterization
        std::hint::black_box(shamir::split(&secret, 20, 40, &mut rng).unwrap());
    });
    // The packaging hot path's actual shape: one slab split for all 40
    // row keys of a column (kilobyte-wide GF(256) kernels instead of
    // 32-byte ones).
    let secrets: Vec<[u8; 32]> = (0..40).map(|i| [i as u8 + 1; 32]).collect();
    let views: Vec<&[u8]> = secrets.iter().map(|s| s.as_slice()).collect();
    measure(
        &mut ms,
        "shamir_split_many_40keys_20of40_32B",
        40 * 32,
        || {
            // LINT-WAIVER(panic): splitting fixed 32-byte views 20-of-40 is a valid hardcoded parameterization
            std::hint::black_box(shamir::split_many(&views, 20, 40, &mut rng).unwrap());
        },
    );
    // LINT-WAIVER(panic): splitting a 32-byte secret 20-of-40 is a valid hardcoded parameterization
    let shares = shamir::split(&secret, 20, 40, &mut rng).unwrap();
    measure(&mut ms, "shamir_combine_20of40_32B", 32, || {
        // LINT-WAIVER(panic): combining 20 honest shares from the split above cannot fail
        std::hint::black_box(shamir::combine(&shares, 20).unwrap());
    });

    // ChaCha20 keystream over a bundle-sized buffer.
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut stream_buf = vec![0u8; 256 * 1024];
    measure(&mut ms, "chacha20_keystream_256KiB", 256 * 1024, || {
        ChaCha20::new(&key, &nonce, 0).apply_keystream(std::hint::black_box(&mut stream_buf));
    });

    // AEAD at the two sizes the share scheme uses: per-row headers
    // (~4 KiB) and sealed inner bundles (~256 KiB).
    let skey = SymmetricKey::from_bytes([1u8; 32]);
    for (label_seal, label_open, size) in [
        ("aead_seal_4KiB", "aead_open_4KiB", 4 * 1024usize),
        ("aead_seal_256KiB", "aead_open_256KiB", 256 * 1024),
    ] {
        let plaintext = vec![0x55u8; size];
        measure(&mut ms, label_seal, size, || {
            std::hint::black_box(aead::seal(&skey, &nonce, &plaintext, b"aad"));
        });
        let sealed = aead::seal(&skey, &nonce, &plaintext, b"aad");
        measure(&mut ms, label_open, size, || {
            // LINT-WAIVER(panic): opening a box sealed immediately above with the same key, nonce and aad
            std::hint::black_box(aead::open(&skey, &nonce, &sealed, b"aad").unwrap());
        });
    }

    // Share packaging at the Monte-Carlo cell's shape (40 rows × 5
    // columns): total AEAD plaintext bytes sealed per build call.
    // `bytes_per_iter` is the measured seal volume — the quantity the flat
    // format v2 reduced from O(l²·n) to O(l·n) — and the op throughput
    // doubles as a build benchmark.
    {
        let world = AnalyticSubstrate::build(
            OverlayConfig {
                n_nodes: 2_000,
                ..OverlayConfig::default()
            },
            7,
        );
        let params = SchemeParams::Share {
            k: 3,
            l: 5,
            n: 40,
            m: vec![18, 18, 18, 20],
        };
        let sender = SymmetricKey::from_bytes([0x2A; 32]);
        // LINT-WAIVER(panic): the hardcoded world and params form a valid share plan by construction
        let plan = construct_paths(&world, &params, &sender).expect("share plan");

        let _ = take_sealed_byte_count();
        build_share_packages(&plan, &params, &KeySchedule::new(sender.clone()), b"s")
            // LINT-WAIVER(panic): packages built from the valid hardcoded plan above cannot fail
            .expect("v2 build");
        let v2_bytes = take_sealed_byte_count() as usize;
        measure(
            &mut ms,
            "share_package_seal_bytes_v2_40x5",
            v2_bytes,
            || {
                let schedule = KeySchedule::new(sender.clone());
                std::hint::black_box(
                    // LINT-WAIVER(panic): packages built from the valid hardcoded plan above cannot fail
                    build_share_packages(&plan, &params, &schedule, b"s").unwrap(),
                );
            },
        );
        let _ = take_sealed_byte_count();
        eprintln!("  seal volume per build: {v2_bytes} bytes");
    }

    // Key schedule: first-request derivation vs the memoized steady state.
    let seed = SymmetricKey::from_bytes([0x42u8; 32]);
    measure(&mut ms, "key_schedule_row_key_uncached", 0, || {
        std::hint::black_box(KeySchedule::new(seed.clone()).row_key(17, 3));
    });
    let schedule = KeySchedule::new(seed.clone());
    measure(&mut ms, "key_schedule_row_key_memoized", 0, || {
        std::hint::black_box(schedule.row_key(17, 3));
    });
    measure(&mut ms, "derive_format_label", 0, || {
        std::hint::black_box(seed.derive(format!("row-key/{}/{}", 17, 3).as_bytes()));
    });

    let json = render_crypto_report(&ms);
    if let Err((pos, msg)) = validate_json(&json) {
        eprintln!("error: generated report is not valid JSON at byte {pos}: {msg}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}

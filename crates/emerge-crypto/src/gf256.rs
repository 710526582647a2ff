//! Arithmetic in GF(2^8) with the AES reduction polynomial
//! `x^8 + x^4 + x^3 + x + 1` (0x11b).
//!
//! This field underlies the Shamir secret sharing in [`crate::shamir`].
//! Scalar multiplication uses log/antilog tables over the generator 3,
//! built once at first use. The two slice kernels that sharing runs,
//! [`horner_step_slice`] (split) and [`mul_acc_slice`] (combine), use the
//! GFNI `gf2p8mul` instruction where the CPU has it and otherwise a
//! branchless xtime ladder with no data-dependent loads, which LLVM
//! auto-vectorizes to full SIMD width. The property suite compares both
//! paths against scalar [`mul`].

use std::sync::OnceLock;

/// Multiplication lookup tables: `exp[i] = g^i`, `log[x] = i` with `g = 3`.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            // Multiply x by the generator 3 = x + 1: x*3 = x*2 ^ x.
            let x2 = x << 1;
            let x2 = if x2 & 0x100 != 0 { x2 ^ 0x11b } else { x2 };
            x = (x2 ^ x) & 0xff;
        }
        // Duplicate so that exp[a + b] needs no modular reduction for
        // a, b <= 254.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Lane width of the branchless slice kernels. 64 bytes fills one AVX-512
/// register or two AVX2 registers per operation.
const GF_CHUNK: usize = 64;

/// Computes `scalar * cur[i]` for a whole chunk with the branchless
/// xtime ladder, XOR-accumulating into `acc`.
///
/// Eight fixed iterations of mask-select and conditional-reduce, all
/// expressible as byte-wise AND/XOR/shift — the shape LLVM auto-vectorizes
/// into full-width SIMD. Unlike a table walk this issues **no
/// data-dependent loads**, which both avoids the vectorizer's slow-gather
/// lowering on wide targets and runs at a few tenths of a cycle per byte.
/// The arithmetic is the textbook GF(2^8) double-and-add, so results are
/// bit-identical to the log/antilog [`mul`] (the property suite compares
/// them).
#[inline(always)]
fn mul_acc_chunk(acc: &mut [u8; GF_CHUNK], cur: &mut [u8; GF_CHUNK], scalar: u8) {
    let mut s = scalar;
    loop {
        let select = (s & 1).wrapping_neg(); // 0xFF where this bit of scalar is set
        for (a, c) in acc.iter_mut().zip(cur.iter()) {
            *a ^= c & select;
        }
        s >>= 1;
        if s == 0 {
            break;
        }
        // cur *= x, reduced by 0x11b when the high bit falls off.
        for c in cur.iter_mut() {
            let hi = (*c >> 7).wrapping_neg(); // 0xFF where reduction is needed
            *c = (*c << 1) ^ (hi & 0x1b);
        }
    }
}

/// Accumulates `scalar * src` into `dst`: `dst[i] ^= mul(src[i], scalar)`.
///
/// This is the Lagrange slice-accumulate at the heart of batched
/// [`crate::shamir::combine`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], scalar: u8) {
    // LINT-WAIVER(panic): documented # Panics contract: slice lengths must match
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_acc_slice requires equal-length slices"
    );
    match scalar {
        0 => {}
        1 => add_slice_assign(dst, src),
        _ => {
            #[cfg(target_arch = "x86_64")]
            if gfni::available() {
                // SAFETY: `available()` just confirmed via cpuid the GFNI and
                // AVX-512 F/BW features the kernel's `#[target_feature]`
                // requires; slices pass through unchanged, so the kernel's
                // bounds contract is the safe signature's own.
                #[allow(unsafe_code)]
                unsafe {
                    gfni::mul_acc_slice(dst, src, scalar);
                };
                return;
            }
            mul_acc_slice_ladder(dst, src, scalar);
        }
    }
}

/// Portable chunk-ladder body of [`mul_acc_slice`] — the fallback on CPUs
/// without GFNI and the bit-identity oracle for the GFNI path.
fn mul_acc_slice_ladder(dst: &mut [u8], src: &[u8], scalar: u8) {
    for (dchunk, schunk) in dst.chunks_mut(GF_CHUNK).zip(src.chunks(GF_CHUNK)) {
        let n = dchunk.len();
        let mut cur = [0u8; GF_CHUNK];
        cur[..n].copy_from_slice(schunk);
        let mut acc = [0u8; GF_CHUNK];
        mul_acc_chunk(&mut acc, &mut cur, scalar);
        for (d, a) in dchunk.iter_mut().zip(acc.iter()) {
            *d ^= a;
        }
    }
}

/// Fused Horner step: `acc[i] = row[i] ^ mul(acc[i], scalar)` for all
/// `i`, in one chunk pass.
///
/// The Shamir share evaluation's inner loop is exactly this recurrence;
/// fusing it halves the memory passes of a separate multiply-then-add
/// (the accumulator is read, laddered, combined with the row, and
/// written once). The property suite pins it to scalar [`mul`] and
/// [`add`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn horner_step_slice(acc: &mut [u8], row: &[u8], scalar: u8) {
    // LINT-WAIVER(panic): documented # Panics contract: slice lengths must match
    assert_eq!(
        acc.len(),
        row.len(),
        "horner_step_slice requires equal-length slices"
    );
    match scalar {
        0 => acc.copy_from_slice(row),
        1 => add_slice_assign(acc, row),
        _ => {
            #[cfg(target_arch = "x86_64")]
            if gfni::available() {
                // SAFETY: `available()` just confirmed via cpuid the GFNI and
                // AVX-512 F/BW features the kernel's `#[target_feature]`
                // requires; slices pass through unchanged, so the kernel's
                // bounds contract is the safe signature's own.
                #[allow(unsafe_code)]
                unsafe {
                    gfni::horner_step_slice(acc, row, scalar);
                };
                return;
            }
            horner_step_slice_ladder(acc, row, scalar);
        }
    }
}

/// Portable chunk-ladder body of [`horner_step_slice`] — the fallback on
/// CPUs without GFNI and the bit-identity oracle for the GFNI path.
fn horner_step_slice_ladder(acc: &mut [u8], row: &[u8], scalar: u8) {
    for (achunk, rchunk) in acc.chunks_mut(GF_CHUNK).zip(row.chunks(GF_CHUNK)) {
        let n = achunk.len();
        let mut cur = [0u8; GF_CHUNK];
        cur[..n].copy_from_slice(achunk);
        let mut out = [0u8; GF_CHUNK];
        out[..n].copy_from_slice(rchunk);
        mul_acc_chunk(&mut out, &mut cur, scalar);
        achunk.copy_from_slice(&out[..n]);
    }
}

/// XORs `src` into `dst` (slice form of [`add`]).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_slice_assign(dst: &mut [u8], src: &[u8]) {
    // LINT-WAIVER(panic): documented # Panics contract: slice lengths must match
    assert_eq!(
        dst.len(),
        src.len(),
        "add_slice_assign requires equal-length slices"
    );
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Lagrange basis coefficients at x = 0 for the evaluation points `xs`:
/// `weights[i] = L_i(0) = prod_{j != i} x_j / (x_j - x_i)`.
///
/// Written into a caller-held buffer (cleared first), so one weights
/// vector serves every share set of a run. Computing the weights **once
/// per share set** (instead of once per byte, as the naive
/// [`interpolate_at_zero`] loop does) turns interpolation of an s-byte
/// secret from `O(s * m^2)` field ops into `O(m^2 + s * m)`. The
/// per-weight arithmetic is identical to the scalar path, so results are
/// bit-for-bit the same.
///
/// # Panics
///
/// Panics if any `x_i` is repeated (division by zero).
pub fn lagrange_weights_at_zero_into(xs: &[u8], weights: &mut Vec<u8>) {
    weights.clear();
    weights.reserve(xs.len());
    for (i, &xi) in xs.iter().enumerate() {
        let mut num = 1u8;
        let mut den = 1u8;
        for (j, &xj) in xs.iter().enumerate() {
            if i == j {
                continue;
            }
            num = mul(num, xj);
            den = mul(den, sub(xj, xi));
        }
        weights.push(div(num, den));
    }
}

/// The GF(2^8) slice kernels on the x86 GFNI extension.
///
/// `gf2p8mul` multiplies bytes in GF(2^8) reduced by the AES polynomial
/// `x^8 + x^4 + x^3 + x + 1` (0x11b) — precisely this module's field — so
/// one 512-bit instruction replaces the eight-iteration xtime ladder over
/// a 64-byte chunk. Tails shorter than a vector use AVX-512BW byte masks,
/// keeping every load and store in bounds. The ladder kernels stay as the
/// portable fallback and the bit-identity oracles
/// (`gfni_matches_ladder_kernels`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // hardware intrinsics; bit-identity pinned by test
mod gfni {
    use std::arch::x86_64::*;

    /// Whether the running CPU has GFNI plus the AVX-512 F/BW width and
    /// byte-masking this path compiles against. Each
    /// `is_x86_feature_detected!` answer is cached by std.
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
    }

    /// `dst[i] ^= src[i] * scalar` over the field. Lengths must match
    /// (checked by the safe dispatcher).
    ///
    /// # Safety
    ///
    /// The caller must have confirmed [`available`] on this CPU.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub unsafe fn mul_acc_slice(dst: &mut [u8], src: &[u8], scalar: u8) {
        // SAFETY: caller upholds the `available()` contract (GFNI + AVX-512 F/BW
        // confirmed by cpuid) and the safe dispatcher checked `dst.len() == src.len()`.
        // Unaligned `loadu`/`storeu` forms throughout; 64-lane full vectors only
        // while `i + 64 <= dst.len()`, and the tail's `(1 << rem) - 1` mask keeps
        // every masked lane from touching memory past either slice.
        unsafe {
            debug_assert_eq!(dst.len(), src.len());
            let vs = _mm512_set1_epi8(scalar as i8);
            let mut i = 0;
            while i + 64 <= dst.len() {
                let d = dst.as_mut_ptr().add(i);
                let s = src.as_ptr().add(i);
                let prod = _mm512_gf2p8mul_epi8(_mm512_loadu_epi8(s.cast()), vs);
                _mm512_storeu_epi8(
                    d.cast(),
                    _mm512_xor_si512(_mm512_loadu_epi8(d.cast()), prod),
                );
                i += 64;
            }
            let rem = dst.len() - i;
            if rem > 0 {
                let mask: __mmask64 = (1u64 << rem) - 1;
                let d = dst.as_mut_ptr().add(i);
                let s = src.as_ptr().add(i);
                let prod = _mm512_gf2p8mul_epi8(_mm512_maskz_loadu_epi8(mask, s.cast()), vs);
                let acc = _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, d.cast()), prod);
                _mm512_mask_storeu_epi8(d.cast(), mask, acc);
            }
        }
    }

    /// `acc[i] = row[i] ^ acc[i] * scalar` over the field (the fused
    /// Horner step). Lengths must match (checked by the safe dispatcher).
    ///
    /// # Safety
    ///
    /// The caller must have confirmed [`available`] on this CPU.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub unsafe fn horner_step_slice(acc: &mut [u8], row: &[u8], scalar: u8) {
        // SAFETY: caller upholds the `available()` contract (GFNI + AVX-512 F/BW
        // confirmed by cpuid) and the safe dispatcher checked `acc.len() == row.len()`.
        // Unaligned `loadu`/`storeu` forms throughout; 64-lane full vectors only
        // while `i + 64 <= acc.len()`, and the tail's `(1 << rem) - 1` mask keeps
        // every masked lane from touching memory past either slice.
        unsafe {
            debug_assert_eq!(acc.len(), row.len());
            let vs = _mm512_set1_epi8(scalar as i8);
            let mut i = 0;
            while i + 64 <= acc.len() {
                let a = acc.as_mut_ptr().add(i);
                let r = row.as_ptr().add(i);
                let prod = _mm512_gf2p8mul_epi8(_mm512_loadu_epi8(a.cast()), vs);
                _mm512_storeu_epi8(
                    a.cast(),
                    _mm512_xor_si512(_mm512_loadu_epi8(r.cast()), prod),
                );
                i += 64;
            }
            let rem = acc.len() - i;
            if rem > 0 {
                let mask: __mmask64 = (1u64 << rem) - 1;
                let a = acc.as_mut_ptr().add(i);
                let r = row.as_ptr().add(i);
                let prod = _mm512_gf2p8mul_epi8(_mm512_maskz_loadu_epi8(mask, a.cast()), vs);
                let out = _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, r.cast()), prod);
                _mm512_mask_storeu_epi8(a.cast(), mask, out);
            }
        }
    }
}

/// Adds two field elements (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts two field elements (identical to addition in GF(2^8)).
#[inline]
pub fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    // LINT-WAIVER(panic): documented # Panics contract: division by zero is a caller bug
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let diff = 255 + t.log[a as usize] as usize - t.log[b as usize] as usize;
    t.exp[diff]
}

/// Evaluates the polynomial with coefficients `coeffs` (constant term first)
/// at point `x`, via Horner's rule.
pub fn poly_eval(coeffs: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coeffs.iter().rev() {
        acc = add(mul(acc, x), c);
    }
    acc
}

/// Lagrange interpolation at x = 0 given distinct points `(x_i, y_i)`.
///
/// Returns the constant term of the unique degree < points.len() polynomial
/// through the points — i.e. the Shamir secret byte.
///
/// # Panics
///
/// Panics if any `x_i` is repeated (division by zero) or any `x_i == 0` is
/// combined with another point at the same x.
pub fn interpolate_at_zero(points: &[(u8, u8)]) -> u8 {
    let mut acc = 0u8;
    for (i, &(xi, yi)) in points.iter().enumerate() {
        // Lagrange basis L_i(0) = prod_{j != i} x_j / (x_j - x_i).
        let mut num = 1u8;
        let mut den = 1u8;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            num = mul(num, xj);
            den = mul(den, sub(xj, xi));
        }
        acc = add(acc, mul(yi, div(num, den)));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mul_known_values() {
        // Classic AES examples.
        assert_eq!(mul(0x57, 0x83), 0xc1);
        assert_eq!(mul(0x57, 0x13), 0xfe);
        assert_eq!(mul(2, 0x80), 0x1b);
        assert_eq!(mul(1, 0xff), 0xff);
        assert_eq!(mul(0, 0xff), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = div(3, 0);
    }

    #[test]
    fn poly_eval_constant_and_linear() {
        assert_eq!(poly_eval(&[0x42], 0x99), 0x42);
        // p(x) = 5 + 3x at x=2: 5 ^ mul(3,2) = 5 ^ 6 = 3.
        assert_eq!(poly_eval(&[5, 3], 2), 3);
        // At x = 0 only the constant term remains.
        assert_eq!(poly_eval(&[7, 11, 13], 0), 7);
    }

    #[test]
    fn interpolation_recovers_constant_term() {
        // p(x) = 0x2a + 0x0fx + 0x80x^2
        let coeffs = [0x2a, 0x0f, 0x80];
        let points: Vec<(u8, u8)> = [1u8, 2, 3]
            .iter()
            .map(|&x| (x, poly_eval(&coeffs, x)))
            .collect();
        assert_eq!(interpolate_at_zero(&points), 0x2a);
    }

    proptest! {
        #[test]
        fn mul_commutative(a: u8, b: u8) {
            prop_assert_eq!(mul(a, b), mul(b, a));
        }

        #[test]
        fn mul_associative(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }

        #[test]
        fn distributive(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn one_is_identity(a: u8) {
            prop_assert_eq!(mul(a, 1), a);
        }

        #[test]
        fn add_self_is_zero(a: u8) {
            prop_assert_eq!(add(a, a), 0);
        }

        #[test]
        fn div_inverts_mul(a: u8, b in 1u8..) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        #[test]
        fn horner_step_matches_separate_mul_then_add(
            acc in proptest::collection::vec(any::<u8>(), 0..200),
            scalar: u8,
            row_seed: u8,
        ) {
            let row: Vec<u8> = (0..acc.len())
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(row_seed))
                .collect();
            let expected: Vec<u8> = acc
                .iter()
                .zip(&row)
                .map(|(&a, &r)| add(mul(a, scalar), r))
                .collect();
            let mut got = acc;
            horner_step_slice(&mut got, &row, scalar);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn mul_acc_slice_matches_scalar_loop(
            dst_full: [u8; 64],
            src_full: [u8; 64],
            len in 0usize..=64,
            scalar: u8,
        ) {
            let (dst, src) = (&dst_full[..len], &src_full[..len]);
            let expected: Vec<u8> = dst
                .iter()
                .zip(src)
                .map(|(&d, &s)| add(d, mul(s, scalar)))
                .collect();
            let mut got = dst.to_vec();
            mul_acc_slice(&mut got, src, scalar);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn add_slice_assign_is_xor(
            dst_full: [u8; 64],
            src_full: [u8; 64],
            len in 0usize..=64,
        ) {
            let (dst, src) = (&dst_full[..len], &src_full[..len]);
            let expected: Vec<u8> =
                dst.iter().zip(src).map(|(&d, &s)| d ^ s).collect();
            let mut got = dst.to_vec();
            add_slice_assign(&mut got, src);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn weights_reproduce_interpolation(
            coeffs in proptest::collection::vec(any::<u8>(), 1..6),
            ys in proptest::collection::vec(any::<u8>(), 0..10),
        ) {
            // Interpolating with precomputed weights must equal the
            // per-byte scalar interpolation for every secret byte.
            let m = coeffs.len();
            let xs: Vec<u8> = (1..=m as u8).collect();
            let mut weights = Vec::new();
            lagrange_weights_at_zero_into(&xs, &mut weights);
            for &extra in &ys {
                let mut c = coeffs.clone();
                c[0] = extra; // vary the constant term
                let points: Vec<(u8, u8)> =
                    xs.iter().map(|&x| (x, poly_eval(&c, x))).collect();
                let scalar = interpolate_at_zero(&points);
                let batched = points
                    .iter()
                    .zip(&weights)
                    .fold(0u8, |acc, (&(_, y), &w)| add(acc, mul(y, w)));
                prop_assert_eq!(batched, scalar);
            }
        }

        /// The ladder bodies match the public dispatchers (which pick the
        /// GFNI kernels where the CPU has them) across chunk-spanning
        /// lengths and ragged tails — this is the test that keeps both
        /// the hardware path and the portable oracle honest on one host.
        #[test]
        fn gfni_matches_ladder_kernels(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            other_seed: u8,
            scalar in 2u8.., // 0/1 short-circuit before either kernel
        ) {
            let other: Vec<u8> = (0..data.len())
                .map(|i| (i as u8).wrapping_mul(97).wrapping_add(other_seed))
                .collect();

            let mut a = data.clone();
            mul_acc_slice(&mut a, &other, scalar);
            let mut b = data.clone();
            mul_acc_slice_ladder(&mut b, &other, scalar);
            prop_assert_eq!(&a, &b);

            let mut a = data.clone();
            horner_step_slice(&mut a, &other, scalar);
            let mut b = data;
            horner_step_slice_ladder(&mut b, &other, scalar);
            prop_assert_eq!(&a, &b);
        }

        #[test]
        fn interpolation_from_any_three_of_five(seed in any::<[u8; 3]>()) {
            let coeffs = [seed[0], seed[1], seed[2]];
            let all: Vec<(u8, u8)> = (1u8..=5).map(|x| (x, poly_eval(&coeffs, x))).collect();
            // Every 3-subset of 5 points recovers the same constant term.
            for i in 0..5 {
                for j in (i + 1)..5 {
                    for k in (j + 1)..5 {
                        let pts = [all[i], all[j], all[k]];
                        prop_assert_eq!(interpolate_at_zero(&pts), seed[0]);
                    }
                }
            }
        }
    }
}

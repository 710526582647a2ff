//! Shamir `(m, n)` threshold secret sharing over GF(2^8) (Shamir, CACM 1979).
//!
//! The key-share routing scheme (Section III-D of the paper) splits each
//! onion decryption key into `n` shares such that any `m` reconstruct it and
//! any `m − 1` reveal nothing. Sharing is byte-wise: byte `i` of the secret
//! is the constant term of an independent random polynomial of degree
//! `m − 1`, and share `x` carries the evaluations at point `x`.
//!
//! ```
//! use emerge_crypto::shamir::{split, combine};
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), emerge_crypto::CryptoError> {
//! let mut rng = StdRng::seed_from_u64(42);
//! let shares = split(b"the onion key", 3, 5, &mut rng)?;
//! // Any three shares reconstruct the secret.
//! let secret = combine(&shares[1..4], 3)?;
//! assert_eq!(secret, b"the onion key");
//! # Ok(())
//! # }
//! ```

use crate::error::CryptoError;
use crate::gf256;
use crate::keys::KeyShare;
use rand::RngCore;

/// Maximum number of shares supported by GF(256) sharing.
pub const MAX_SHARES: usize = 255;

/// Splits `secret` into `n` shares with reconstruction threshold `m`.
///
/// Share indices are `1..=n`; an empty secret yields `n` empty shares.
/// This is [`ShareSlab::split_flat`] over a single secret, so the shares
/// and the RNG stream position match a slab split of the same bytes.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidParameters`] if `m == 0`, `m > n`, or
/// `n > 255`.
pub fn split<R: RngCore>(
    secret: &[u8],
    m: usize,
    n: usize,
    rng: &mut R,
) -> Result<Vec<KeyShare>, CryptoError> {
    let mut slab = ShareSlab::new();
    slab.split_flat(secret, secret.len(), m, n, rng)?;
    // One secret: the share-major slab is `n` runs of `len` bytes.
    let len = secret.len();
    Ok((1..=n)
        .map(|x| KeyShare::new(x as u8, slab.data[(x - 1) * len..x * len].to_vec()))
        .collect())
}

/// A reusable share slab: the one Shamir split kernel.
///
/// [`ShareSlab::split_flat`] takes the secrets as one concatenated byte
/// string and writes every share into an internal slab that is recycled
/// across calls — after the first call at a given shape, splitting
/// allocates nothing. [`split`] is this kernel over one secret.
#[derive(Debug, Default, Clone)]
pub struct ShareSlab {
    /// Share-major slab: share `x` of secret `s` lives at
    /// `[(x-1)·count·len + s·len ..][..len]`.
    data: Vec<u8>,
    /// Coefficient rows, reused across calls (grown to the largest `m`).
    rows: Vec<Vec<u8>>,
    /// Per-byte coefficient draw scratch.
    coeffs: Vec<u8>,
    count: usize,
    len: usize,
    n: usize,
}

impl ShareSlab {
    /// Creates an empty slab; buffers grow on first use and are then
    /// recycled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the `secrets.len() / len` concatenated `len`-byte secrets
    /// in `secrets` into `n` shares each with threshold `m`, replacing
    /// the slab's previous contents.
    ///
    /// Each secret's shares and RNG draws are those of a [`split`] of that
    /// secret alone, secret after secret (the property suite pins both
    /// against the byte-at-a-time reference). The gain is in the
    /// evaluation: one Horner walk over the `count × len` coefficient slab
    /// runs kilobyte-wide slice kernels instead of many 32-byte ones. The
    /// share builder calls this once per column to split all `n`
    /// next-column row keys.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameters`] if `m == 0`, `m > n`,
    /// `n > 255`, or `secrets` is not a whole number of `len`-byte
    /// secrets.
    pub fn split_flat<R: RngCore>(
        &mut self,
        secrets: &[u8],
        len: usize,
        m: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<(), CryptoError> {
        if m == 0 {
            return Err(CryptoError::InvalidParameters("threshold m must be >= 1"));
        }
        if m > n {
            return Err(CryptoError::InvalidParameters(
                "threshold m cannot exceed share count n",
            ));
        }
        if n > MAX_SHARES {
            return Err(CryptoError::InvalidParameters(
                "GF(256) sharing supports at most 255 shares",
            ));
        }
        if len == 0 {
            if !secrets.is_empty() {
                return Err(CryptoError::InvalidParameters(
                    "zero-length secrets cannot carry bytes",
                ));
            }
        } else if !secrets.len().is_multiple_of(len) {
            return Err(CryptoError::InvalidParameters(
                "flat secrets must be a whole number of len-byte secrets",
            ));
        }
        let count = secrets.len().checked_div(len).unwrap_or(0);
        let total = secrets.len();
        self.count = count;
        self.len = len;
        self.n = n;

        // One polynomial per secret byte, stored as a coefficient slab:
        // `rows[j][s*len + i]` is coefficient `j` of byte `i` of secret
        // `s`, so each degree is a contiguous slice and share evaluation
        // becomes slice-wise Horner. Row 0 is the secrets themselves.
        //
        // The random rows are drawn with the byte-at-a-time call sequence
        // of the reference split (one `fill_bytes` of m-1 coefficients per
        // secret byte, then single-byte redraws while the leading
        // coefficient is zero), so the RNG stream — and therefore every
        // package ever derived from a seed — is unchanged.
        while self.rows.len() < m {
            self.rows.push(Vec::new());
        }
        for row in &mut self.rows[..m] {
            row.clear();
            row.resize(total, 0);
        }
        self.rows[0].copy_from_slice(secrets);
        if m > 1 {
            self.coeffs.clear();
            self.coeffs.resize(m - 1, 0);
            for s in 0..count {
                for i in 0..len {
                    rng.fill_bytes(&mut self.coeffs);
                    // The leading coefficient must be non-zero for the
                    // polynomial to have true degree m-1; a zero leading
                    // coefficient would weaken the threshold by one.
                    while self.coeffs[m - 2] == 0 {
                        let mut b = [0u8; 1];
                        rng.fill_bytes(&mut b);
                        self.coeffs[m - 2] = b[0];
                    }
                    for (row, &c) in self.rows[1..m].iter_mut().zip(self.coeffs.iter()) {
                        row[s * len + i] = c;
                    }
                }
            }
        }

        // One slab-wide Horner per share point, evaluated directly into
        // the share region so no per-share vectors exist at all.
        self.data.clear();
        self.data.resize(n * total, 0);
        let rows = &self.rows;
        for x in 1..=n as u8 {
            let region = &mut self.data[(x as usize - 1) * total..x as usize * total];
            region.copy_from_slice(&rows[m - 1]);
            for row in rows[..m - 1].iter().rev() {
                gf256::horner_step_slice(region, row, x);
            }
        }
        Ok(())
    }

    /// The bytes of share `x` (1-based) of secret `secret_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `secret_idx` or `x` is out of range for the last split.
    pub fn share(&self, secret_idx: usize, x: u8) -> &[u8] {
        // LINT-WAIVER(panic): documented # Panics contract: share coordinates must be in range for the split
        assert!(secret_idx < self.count && x >= 1 && x as usize <= self.n);
        let base = (x as usize - 1) * self.count * self.len + secret_idx * self.len;
        &self.data[base..base + self.len]
    }

    /// Number of secrets in the last split.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Reconstructs the secret from at least `m` shares.
///
/// Extra shares beyond `m` are ignored: the first `m` distinct indices
/// are used, and only their lengths must agree. It runs the same
/// reconstruction body as [`combine_slab_cached_into`], reading each
/// share where it lies.
///
/// # Errors
///
/// * [`CryptoError::InvalidParameters`] if `m == 0`.
/// * [`CryptoError::NotEnoughShares`] if fewer than `m` distinct-index
///   shares are supplied.
/// * [`CryptoError::MalformedShare`] if a share has index 0, or the share
///   lengths disagree.
pub fn combine(shares: &[KeyShare], m: usize) -> Result<Vec<u8>, CryptoError> {
    let mut secret = Vec::new();
    combine_into(
        shares.iter().map(|s| s.index),
        |pos| &shares[pos].data,
        m,
        &mut WeightCache::default(),
        &mut secret,
    )?;
    Ok(secret)
}

/// Reconstructs a secret from shares stored in a flat slab, writing into
/// a caller-owned buffer, with a caller-held [`WeightCache`]: the
/// reconstruction hot loop's form, allocation-free once warm.
///
/// `indices[i]` is the share index of the `len`-byte share at
/// `data[i*len..][..len]`. The first `m` distinct-index shares are used,
/// exactly as [`combine`] selects them, and the output bytes are
/// bit-identical. `out` is cleared and overwritten.
///
/// # Errors
///
/// [`CryptoError::InvalidLength`] if `data` is not `indices.len()` shares
/// of `len` bytes; otherwise the same contract as [`combine`].
pub fn combine_slab_cached_into(
    indices: &[u8],
    data: &[u8],
    len: usize,
    m: usize,
    cache: &mut WeightCache,
    out: &mut Vec<u8>,
) -> Result<(), CryptoError> {
    let expected = indices.len().saturating_mul(len);
    if data.len() != expected {
        return Err(CryptoError::InvalidLength {
            context: "share slab",
            expected,
            actual: data.len(),
        });
    }
    combine_into(
        indices.iter().copied(),
        |pos| &data[pos * len..(pos + 1) * len],
        m,
        cache,
        out,
    )
}

/// The one reconstruction body: picks the first `m` distinct indices
/// from `indices`, reads share `pos` through `share`, and accumulates
/// `λ_i·share_i` into `out` with the Lagrange weights computed once per
/// index set. The field arithmetic is identical to per-byte
/// interpolation, so the secret is bit-for-bit the same.
fn combine_into<'a>(
    indices: impl Iterator<Item = u8>,
    share: impl Fn(usize) -> &'a [u8],
    m: usize,
    cache: &mut WeightCache,
    out: &mut Vec<u8>,
) -> Result<(), CryptoError> {
    if m == 0 {
        return Err(CryptoError::InvalidParameters("threshold m must be >= 1"));
    }
    let mut seen = [false; 256];
    let mut chosen = [0usize; MAX_SHARES];
    let mut xs = [0u8; MAX_SHARES];
    let mut picked = 0usize;
    for (pos, x) in indices.enumerate() {
        if x == 0 {
            return Err(CryptoError::MalformedShare("share index 0 is reserved"));
        }
        if !seen[x as usize] {
            seen[x as usize] = true;
            chosen[picked] = pos;
            xs[picked] = x;
            picked += 1;
            if picked == m {
                break;
            }
        }
    }
    if picked < m {
        return Err(CryptoError::NotEnoughShares {
            threshold: m,
            supplied: picked,
        });
    }
    let len = share(chosen[0]).len();
    if chosen[..m].iter().any(|&pos| share(pos).len() != len) {
        return Err(CryptoError::MalformedShare("share lengths disagree"));
    }
    let weights = cache.weights_for(&xs[..m]);
    out.clear();
    out.resize(len, 0);
    for (&pos, &w) in chosen[..m].iter().zip(weights.iter()) {
        gf256::mul_acc_slice(out, share(pos), w);
    }
    Ok(())
}

/// A one-entry memo of the Lagrange-at-zero weight vector, keyed by the
/// share-index set.
///
/// The protocol executor reconstructs a different 32-byte key for every
/// holder of a column, but all of them carry shares from the *same*
/// surviving sender rows — identical index sets, identical weights. With
/// the weights memoized, the `O(m²)` basis computation runs once per
/// distinct index set instead of once per reconstruction, leaving only
/// the `O(m·len)` accumulate per key. Reconstructed secrets are
/// bit-identical (weights depend only on the indices).
#[derive(Debug, Clone, Default)]
pub struct WeightCache {
    xs: Vec<u8>,
    weights: Vec<u8>,
}

impl WeightCache {
    /// The weights for `xs`, recomputed only when `xs` differs from the
    /// previous call's.
    fn weights_for(&mut self, xs: &[u8]) -> &[u8] {
        if self.xs != xs {
            // Recomputing into the retained buffer keeps a warm cache
            // allocation-free even across index-set changes (different
            // trials see different survivor sets).
            gf256::lagrange_weights_at_zero_into(xs, &mut self.weights);
            self.xs.clear();
            self.xs.extend_from_slice(xs);
        }
        &self.weights
    }
}

/// The pre-slab byte-at-a-time implementation, kept verbatim as the
/// bit-identity oracle for the batched kernels.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn split<R: RngCore>(
        secret: &[u8],
        m: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<KeyShare>, CryptoError> {
        if m == 0 {
            return Err(CryptoError::InvalidParameters("threshold m must be >= 1"));
        }
        if m > n {
            return Err(CryptoError::InvalidParameters(
                "threshold m cannot exceed share count n",
            ));
        }
        if n > MAX_SHARES {
            return Err(CryptoError::InvalidParameters(
                "GF(256) sharing supports at most 255 shares",
            ));
        }
        let mut shares: Vec<KeyShare> = (1..=n as u8)
            .map(|x| KeyShare::new(x, Vec::with_capacity(secret.len())))
            .collect();
        let mut coeffs = vec![0u8; m];
        for &byte in secret {
            coeffs[0] = byte;
            if m > 1 {
                let tail = &mut coeffs[1..];
                rng.fill_bytes(tail);
                while tail[m - 2] == 0 {
                    let mut b = [0u8; 1];
                    rng.fill_bytes(&mut b);
                    tail[m - 2] = b[0];
                }
            }
            for share in &mut shares {
                share.data.push(gf256::poly_eval(&coeffs, share.index));
            }
        }
        Ok(shares)
    }

    pub fn combine(shares: &[KeyShare], m: usize) -> Result<Vec<u8>, CryptoError> {
        if m == 0 {
            return Err(CryptoError::InvalidParameters("threshold m must be >= 1"));
        }
        let mut seen = [false; 256];
        let mut distinct: Vec<&KeyShare> = Vec::with_capacity(m);
        for share in shares {
            if share.index == 0 {
                return Err(CryptoError::MalformedShare("share index 0 is reserved"));
            }
            if !seen[share.index as usize] {
                seen[share.index as usize] = true;
                distinct.push(share);
                if distinct.len() == m {
                    break;
                }
            }
        }
        if distinct.len() < m {
            return Err(CryptoError::NotEnoughShares {
                threshold: m,
                supplied: distinct.len(),
            });
        }
        let len = distinct[0].data.len();
        if distinct.iter().any(|s| s.data.len() != len) {
            return Err(CryptoError::MalformedShare("share lengths disagree"));
        }
        let mut secret = Vec::with_capacity(len);
        let mut points = vec![(0u8, 0u8); m];
        for byte_idx in 0..len {
            for (slot, share) in points.iter_mut().zip(distinct.iter()) {
                *slot = (share.index, share.data[byte_idx]);
            }
            secret.push(gf256::interpolate_at_zero(&points));
        }
        Ok(secret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEAD_BEEF)
    }

    #[test]
    fn basic_roundtrip() {
        let mut r = rng();
        let shares = split(b"hello shamir", 3, 5, &mut r).unwrap();
        assert_eq!(shares.len(), 5);
        assert_eq!(combine(&shares, 3).unwrap(), b"hello shamir");
    }

    #[test]
    fn exactly_threshold_shares_suffice() {
        let mut r = rng();
        let shares = split(b"secret", 4, 7, &mut r).unwrap();
        let subset = &shares[3..7];
        assert_eq!(combine(subset, 4).unwrap(), b"secret");
    }

    #[test]
    fn below_threshold_fails() {
        let mut r = rng();
        let shares = split(b"secret", 4, 7, &mut r).unwrap();
        let err = combine(&shares[..3], 4).unwrap_err();
        assert_eq!(
            err,
            CryptoError::NotEnoughShares {
                threshold: 4,
                supplied: 3
            }
        );
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let mut r = rng();
        let shares = split(b"secret", 3, 5, &mut r).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone(), shares[0].clone()];
        assert!(matches!(
            combine(&dup, 3),
            Err(CryptoError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn one_of_one_sharing_is_the_secret_degenerate_case() {
        let mut r = rng();
        let shares = split(b"x", 1, 1, &mut r).unwrap();
        // With m = 1 the polynomial is constant: the share IS the secret.
        assert_eq!(shares[0].data, b"x");
        assert_eq!(combine(&shares, 1).unwrap(), b"x");
    }

    #[test]
    fn m_zero_rejected() {
        let mut r = rng();
        assert!(matches!(
            split(b"s", 0, 3, &mut r),
            Err(CryptoError::InvalidParameters(_))
        ));
        assert!(matches!(
            combine(&[], 0),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn m_greater_than_n_rejected() {
        let mut r = rng();
        assert!(matches!(
            split(b"s", 4, 3, &mut r),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn too_many_shares_rejected() {
        let mut r = rng();
        assert!(matches!(
            split(b"s", 2, 256, &mut r),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn index_zero_share_rejected() {
        let bad = vec![KeyShare::new(0, vec![1, 2, 3])];
        assert!(matches!(
            combine(&bad, 1),
            Err(CryptoError::MalformedShare(_))
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut r = rng();
        let mut shares = split(b"abcd", 2, 3, &mut r).unwrap();
        shares[1].data.pop();
        assert!(matches!(
            combine(&shares[..2], 2),
            Err(CryptoError::MalformedShare(_))
        ));
    }

    #[test]
    fn empty_secret_roundtrip() {
        let mut r = rng();
        let shares = split(b"", 2, 3, &mut r).unwrap();
        assert_eq!(combine(&shares, 2).unwrap(), b"");
    }

    #[test]
    fn shares_past_the_first_m_distinct_are_not_consulted() {
        // A duplicate before the m-th distinct index and anything after
        // it are ignored, even with another length or the reserved index.
        let mut r = rng();
        let shares = split(b"secret", 2, 3, &mut r).unwrap();
        let mut short_dup = shares[0].clone();
        short_dup.data.pop();
        let mixed = vec![
            shares[0].clone(),
            short_dup,
            shares[1].clone(),
            KeyShare::new(0, vec![1]),
            KeyShare::new(3, vec![]),
        ];
        assert_eq!(combine(&mixed, 2).unwrap(), b"secret");
        assert_eq!(reference::combine(&mixed, 2).unwrap(), b"secret");
    }

    #[test]
    fn short_slab_is_a_length_error() {
        // Two indices claim 2 × 32 bytes, but the slab holds 40.
        let mut out = Vec::new();
        assert!(matches!(
            combine_slab_cached_into(
                &[1, 2],
                &[0; 40],
                32,
                2,
                &mut WeightCache::default(),
                &mut out
            ),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn shares_leak_nothing_individually() {
        // Statistical smoke test: a single share of two different secrets
        // should not let us distinguish them by simple equality patterns.
        // (Real secrecy is information-theoretic by construction; here we
        // just confirm shares differ from the secret bytes.)
        let mut r = rng();
        let secret = [0u8; 64];
        let shares = split(&secret, 2, 3, &mut r).unwrap();
        for share in &shares {
            assert_ne!(share.data, secret.to_vec());
        }
    }

    proptest! {
        /// The slab split is bit-identical to the pre-refactor scalar
        /// split: same shares AND same RNG stream position afterwards.
        #[test]
        fn slab_split_matches_scalar_reference(
            secret in proptest::collection::vec(any::<u8>(), 0..64),
            m in 1usize..8,
            extra in 0usize..6,
            seed: u64,
        ) {
            let n = m + extra;
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let fast = split(&secret, m, n, &mut fast_rng).unwrap();
            let reference = reference::split(&secret, m, n, &mut ref_rng).unwrap();
            prop_assert_eq!(fast.len(), reference.len());
            for (f, r) in fast.iter().zip(&reference) {
                prop_assert_eq!(f.index, r.index);
                prop_assert_eq!(&f.data, &r.data);
            }
            // Both implementations must leave the RNG at the same point:
            // a stream drift would silently desynchronize every later
            // draw in a key schedule.
            prop_assert_eq!(fast_rng.next_u64(), ref_rng.next_u64());
        }

        /// The weight-based combine is bit-identical to per-byte Lagrange
        /// interpolation, including with extra and duplicate shares.
        #[test]
        fn batched_combine_matches_scalar_reference(
            secret in proptest::collection::vec(any::<u8>(), 0..64),
            m in 1usize..8,
            extra in 0usize..6,
            dup_first: bool,
            seed: u64,
        ) {
            let n = m + extra;
            let mut r = StdRng::seed_from_u64(seed);
            let mut shares = split(&secret, m, n, &mut r).unwrap();
            if dup_first {
                shares.insert(0, shares[0].clone());
            }
            prop_assert_eq!(
                combine(&shares, m).unwrap(),
                reference::combine(&shares, m).unwrap()
            );
        }

        /// A multi-secret slab split is bit-identical to sequential
        /// byte-at-a-time reference splits — same share bytes AND same RNG
        /// stream position — and a reused slab behaves exactly like a
        /// fresh one.
        #[test]
        fn share_slab_matches_sequential_reference_splits(
            count in 0usize..6,
            len in 1usize..40,
            m in 1usize..8,
            extra in 0usize..6,
            seed: u64,
        ) {
            let n = m + extra;
            let secrets: Vec<Vec<u8>> = (0..count)
                .map(|s| (0..len).map(|i| (s * 131 + i * 7 + 1) as u8).collect())
                .collect();
            let flat: Vec<u8> = secrets.concat();

            let mut ref_rng = StdRng::seed_from_u64(seed);
            let reference: Vec<Vec<KeyShare>> = secrets
                .iter()
                .map(|s| reference::split(s, m, n, &mut ref_rng).unwrap())
                .collect();

            // Dirty the slab with a different shape first: reuse must not
            // leak state between splits.
            let mut slab = ShareSlab::new();
            let mut warm_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            slab.split_flat(&[7u8; 24], 8, 2.min(n), 3.max(n), &mut warm_rng).unwrap();

            let mut slab_rng = StdRng::seed_from_u64(seed);
            slab.split_flat(&flat, len, m, n, &mut slab_rng).unwrap();
            prop_assert_eq!(slab.count(), count);
            for (s, shares) in reference.iter().enumerate() {
                for share in shares {
                    prop_assert_eq!(slab.share(s, share.index), &share.data[..]);
                }
            }
            prop_assert_eq!(slab_rng.next_u64(), ref_rng.next_u64());
        }

        /// The slab combine is bit-identical to per-byte Lagrange
        /// interpolation, including its duplicate-index handling and
        /// first-m-distinct selection.
        #[test]
        fn combine_slab_matches_scalar_reference(
            secret in proptest::collection::vec(any::<u8>(), 1..48),
            m in 1usize..8,
            extra in 0usize..6,
            dup_first: bool,
            seed: u64,
        ) {
            let n = m + extra;
            let mut r = StdRng::seed_from_u64(seed);
            let mut shares = split(&secret, m, n, &mut r).unwrap();
            if dup_first {
                shares.insert(0, shares[0].clone());
            }
            let indices: Vec<u8> = shares.iter().map(|s| s.index).collect();
            let data: Vec<u8> = shares.iter().flat_map(|s| s.data.clone()).collect();
            let mut cache = WeightCache::default();
            let mut out = Vec::new();
            combine_slab_cached_into(&indices, &data, secret.len(), m, &mut cache, &mut out)
                .unwrap();
            prop_assert_eq!(&out, &reference::combine(&shares, m).unwrap());
            // Under-threshold errors match too.
            if m > 1 {
                let short = m - 1;
                let e_slab = combine_slab_cached_into(
                    &indices[..short], &data[..short * secret.len()],
                    secret.len(), m, &mut cache, &mut out,
                );
                prop_assert_eq!(
                    e_slab.unwrap_err(),
                    reference::combine(&shares[..short], m).unwrap_err()
                );
            }
        }

        #[test]
        fn roundtrip_any_secret(
            secret in proptest::collection::vec(any::<u8>(), 0..64),
            m in 1usize..6,
            extra in 0usize..4,
            seed: u64,
        ) {
            let n = m + extra;
            let mut r = StdRng::seed_from_u64(seed);
            let shares = split(&secret, m, n, &mut r).unwrap();
            prop_assert_eq!(combine(&shares, m).unwrap(), secret.clone());
            // Reconstruction from the LAST m shares also works.
            prop_assert_eq!(combine(&shares[n - m..], m).unwrap(), secret);
        }

        #[test]
        fn any_m_subset_reconstructs(seed: u64) {
            let mut r = StdRng::seed_from_u64(seed);
            let secret = b"threshold property";
            let (m, n) = (3usize, 6usize);
            let shares = split(secret, m, n, &mut r).unwrap();
            for i in 0..n {
                for j in (i + 1)..n {
                    for k in (j + 1)..n {
                        let subset = [shares[i].clone(), shares[j].clone(), shares[k].clone()];
                        prop_assert_eq!(combine(&subset, m).unwrap(), secret.to_vec());
                    }
                }
            }
        }

        #[test]
        fn below_threshold_is_not_the_secret(seed: u64) {
            // m-1 shares interpolated as if they were an (m-1)-sharing must
            // not (except with negligible probability) yield the secret.
            let mut r = StdRng::seed_from_u64(seed);
            let secret = vec![0xA5u8; 32];
            let shares = split(&secret, 3, 5, &mut r).unwrap();
            let wrong = combine(&shares[..2], 2).unwrap();
            prop_assert_ne!(wrong, secret);
        }
    }
}

//! Package generation (Section III's "package generation scheme").
//!
//! Builds the actual byte-level packages the sender hands to the first
//! column of holders at `ts`:
//!
//! * **Keyed schemes** (disjoint/joint): one onion per row whose layer `j`
//!   is sealed with the column key `K_j`; the keys themselves are
//!   pre-assigned to the column holders at `ts` (that is the scheme's
//!   defining weakness under churn). Layer payloads carry the next-hop
//!   addresses.
//! * **Share scheme**: a flat [`SharePackage`] (**format v2**) — one
//!   segment per column, each segment holding that column's `n`
//!   row-key-sealed headers and sealed *once* under a bundle key — plus a
//!   separate core onion sealed with per-column core keys and processed
//!   by the first `k` rows. Header payloads embed the shares each holder
//!   must forward to the next column.
//!
//! ## The flat segment table (format v2)
//!
//! ```text
//! SharePackage := u8 version (= 2) ‖ segment table (u16 count = l)
//!   segment 0 :  headers[0..n]                      (plaintext table)
//!   segment 1 :  AEAD_{C_0}( headers[0..n] )
//!   segment 2 :  AEAD_{C_1}( headers[0..n] )
//!   …
//!   segment l-1: AEAD_{C_{l-2}}( headers[0..n] )
//!
//!   headers[r] of column j := AEAD_{K_{r,j}}( ShareLayerPayload )
//!   payload of column j < l-1 carries: next hops, row-key shares,
//!     core-key share, and the bundle key C_j that opens segment j+1.
//! ```
//!
//! The predecessor format (v1, since retired) nested the columns:
//! column `j`'s bundle contained the *sealed* bundle of column `j+1`, so
//! sealing the package re-encrypted every deeper column's bytes once per
//! enclosing column — `O(l²·n)` AEAD byte volume for an `O(l·n)`
//! payload. Flatness fixes the volume without weakening
//! the scheme, because the nesting never carried the security argument:
//! what stops a column-`j` holder from reading ahead is that segment
//! `j+1` is sealed under `C_j`, and `C_j` only reaches the holder inside
//! its own row-key-sealed header — whose row key `K_{r,j}` is itself
//! delivered just-in-time as Shamir shares from column `j-1`. The
//! one-hop-ahead key-release chain is preserved verbatim; each column's
//! bytes are simply sealed once instead of `j` times, and the executor
//! forwards the remaining still-sealed segments instead of re-wrapped
//! nests. Same confidentiality and ordering invariant, `O(l·n)` seal and
//! open volume, and the `n`-wide transit redundancy of Figure 5 (every
//! holder of a column carries the same blob) is untouched.
//!
//! All keys derive from the sender's seed via HKDF labels, so package
//! generation is deterministic given the seed. Decrypted header payloads,
//! Shamir share values and key schedules were bit-identical between v1
//! and v2 — only the sealing topology changed — and the frozen-digest
//! tests in this module and in [`crate::protocol`] keep them pinned.

use crate::config::SchemeParams;
use crate::error::EmergeError;
use crate::path::PathPlan;
use emerge_crypto::hkdf::Hkdf;
use emerge_crypto::keys::{KeyShare, SymmetricKey};
use emerge_crypto::onion::build_onion;
use emerge_crypto::shamir;
use emerge_crypto::wire::{Reader, Writer};
use emerge_crypto::CryptoError;
use emerge_dht::id::{NodeId, ID_LEN};
use emerge_obs::metrics::CounterId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::HashMap;

/// Instrumented seal hook: total AEAD plaintext bytes sealed by the
/// share-packaging code (headers and segments), recorded into the
/// thread's `emerge-obs` collector. Drives the seal-volume regression
/// test (the package must be `Θ(l·n)`) and the per-phase
/// `trial.package_build.sealed_bytes` attribution that a profiled run
/// collects.
pub static SEALED_BYTES: CounterId = CounterId::new("package.seal.bytes");

/// Every AEAD seal in this module (headers and segments) reports its
/// plaintext length here.
fn record_sealed(plaintext_len: usize) {
    SEALED_BYTES.add(plaintext_len as u64);
}

/// Returns the total AEAD plaintext bytes sealed by share packaging
/// since the previous call, and resets the counter — take-semantics over
/// the [`SEALED_BYTES`] metric in the current thread's `emerge-obs`
/// collector (always 0 when no collector is installed).
///
/// Install a collector, then call this immediately before and read it
/// immediately after a [`build_share_packages`] call to attribute the
/// volume to that call.
pub fn take_sealed_byte_count() -> u64 {
    SEALED_BYTES.take()
}

/// Discriminates the four derived-key families in [`DerivedKeys`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyKind {
    Column,
    Core,
    Row,
    Bundle,
}

impl KeyKind {
    fn prefix(self) -> &'static str {
        match self {
            KeyKind::Column => "column-key",
            KeyKind::Core => "core-key",
            KeyKind::Row => "row-key",
            KeyKind::Bundle => "bundle-key",
        }
    }
}

/// Memoized HKDF derivations of one send operation.
///
/// Package generation asks for the same keys at several call sites —
/// splitting a row key into shares and sealing that row's header are
/// independent requests for `K_{r,j}`, and the builder, the executor
/// test paths and the delivered `col0` material all re-ask. Each label
/// is HKDF-derived exactly once per [`KeySchedule`]; later requests are
/// a hash-map hit.
#[derive(Debug, Clone, Default)]
struct DerivedKeys {
    keys: HashMap<(KeyKind, usize, usize), SymmetricKey>,
}

/// Longest label: `row-key` plus two `/`-prefixed 20-digit indices.
const MAX_LABEL: usize = 64;

/// Stack-buffer writer for derivation labels like `row-key/3/7`.
/// Byte-identical to the `format!` it replaces, without the per-call
/// heap allocation.
struct LabelWriter {
    buf: [u8; MAX_LABEL],
    len: usize,
}

impl LabelWriter {
    fn new(prefix: &'static str) -> Self {
        let mut w = LabelWriter {
            buf: [0; MAX_LABEL],
            len: 0,
        };
        w.buf[..prefix.len()].copy_from_slice(prefix.as_bytes());
        w.len = prefix.len();
        w
    }

    /// Appends `/` followed by `value` in decimal, exactly as
    /// `format!("/{value}")` renders it.
    fn push_segment(&mut self, value: usize) {
        self.buf[self.len] = b'/';
        self.len += 1;
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut v = value;
        loop {
            i -= 1;
            // LINT-WAIVER(wire): v % 10 is always a single decimal digit
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let d = &digits[i..];
        self.buf[self.len..self.len + d.len()].copy_from_slice(d);
        self.len += d.len();
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Deterministic key derivation for a send operation.
///
/// All keys derive from the sender's seed via HKDF labels; each label is
/// derived once and memoized in a `DerivedKeys` cache, so repeated
/// requests (the share scheme asks for every row key twice: once to
/// split, once to seal) cost a lookup, not an HKDF run.
#[derive(Debug, Clone)]
pub struct KeySchedule {
    seed: SymmetricKey,
    /// Prepared HKDF expander over the seed: `hk.expand(label)` is
    /// `seed.derive(label)` with the HMAC keying paid once per schedule
    /// instead of once per derivation.
    hk: Hkdf,
    cache: RefCell<DerivedKeys>,
}

impl KeySchedule {
    /// Creates a schedule from the sender's seed.
    pub fn new(seed: SymmetricKey) -> Self {
        let hk = Hkdf::from_prk(*seed.as_bytes());
        KeySchedule {
            seed,
            hk,
            cache: RefCell::new(DerivedKeys::default()),
        }
    }

    /// Derives (or fetches) the key for `(kind, row, col)`; `row` is only
    /// part of the label for [`KeyKind::Row`].
    fn derived(&self, kind: KeyKind, row: usize, col: usize) -> SymmetricKey {
        if let Some(key) = self.cache.borrow().keys.get(&(kind, row, col)) {
            return key.clone();
        }
        let mut label = LabelWriter::new(kind.prefix());
        if kind == KeyKind::Row {
            label.push_segment(row);
        }
        label.push_segment(col);
        let key = SymmetricKey::from_bytes(self.hk.expand_key(label.as_bytes()));
        self.cache
            .borrow_mut()
            .keys
            .insert((kind, row, col), key.clone());
        key
    }

    /// Column key `K_j` (keyed schemes) — shared by all rows of column
    /// `col`.
    pub fn column_key(&self, col: usize) -> SymmetricKey {
        self.derived(KeyKind::Column, 0, col)
    }

    /// Core-onion key for column `col` (share scheme).
    pub fn core_key(&self, col: usize) -> SymmetricKey {
        self.derived(KeyKind::Core, 0, col)
    }

    /// Row-onion key `K_{r,j}` (share scheme).
    pub fn row_key(&self, row: usize, col: usize) -> SymmetricKey {
        self.derived(KeyKind::Row, row, col)
    }

    /// Bundle key `C_j` protecting the inner bundle of column `col`
    /// (share scheme). Revealed inside every column-`col` header so any
    /// one honest holder can unwrap and relay the next bundle.
    pub fn bundle_key(&self, col: usize) -> SymmetricKey {
        self.derived(KeyKind::Bundle, 0, col)
    }

    /// Deterministic RNG for the Shamir polynomials.
    fn shamir_rng(&self) -> StdRng {
        StdRng::from_seed(self.seed.derive(b"shamir-polynomials").into_bytes())
    }

    /// Rebinds the schedule to a new seed, reusing the memo table's
    /// storage: equivalent to `*self = KeySchedule::new(seed)` but the
    /// map keeps its capacity, so a warm per-shard schedule re-derives
    /// without allocating.
    pub fn reset(&mut self, seed: SymmetricKey) {
        self.hk = Hkdf::from_prk(*seed.as_bytes());
        self.seed = seed;
        self.cache.borrow_mut().keys.clear();
    }
}

/// Per-hop payload of a keyed-scheme onion layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedLayerPayload {
    /// Addresses of the holders to forward the remaining onion to
    /// (empty at the terminal column: next stop is the receiver).
    pub next_hops: Vec<NodeId>,
}

impl KeyedLayerPayload {
    /// Serializes the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // LINT-WAIVER(wire): hop counts are bounded by MAX_SHARES = 255, far below u16::MAX
        w.put_u16(self.next_hops.len() as u16);
        for id in &self.next_hops {
            w.put_raw(id.as_bytes());
        }
        w.into_bytes()
    }

    /// Parses a payload.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let count = r.get_u16()? as usize;
        let mut next_hops = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = r.get_raw(ID_LEN)?;
            let mut id = [0u8; ID_LEN];
            id.copy_from_slice(raw);
            next_hops.push(NodeId::from_bytes(id));
        }
        r.expect_end()?;
        Ok(KeyedLayerPayload { next_hops })
    }
}

/// Packages for the disjoint/joint schemes.
#[derive(Debug, Clone)]
pub struct KeyedPackages {
    /// One onion per row (`rows` entries).
    pub onions: Vec<Vec<u8>>,
    /// `K_j` per column, pre-assigned to every holder of that column at
    /// `ts`.
    pub column_keys: Vec<SymmetricKey>,
}

/// Builds the keyed-scheme packages.
///
/// For the disjoint scheme each row's onion routes along its own row; for
/// the joint scheme every layer lists the entire next column, producing
/// the column-complete forwarding pattern of Figure 4.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for non-keyed `params` or a
/// `plan` whose shape does not match them.
pub fn build_keyed_packages(
    plan: &PathPlan,
    params: &SchemeParams,
    schedule: &KeySchedule,
    secret: &[u8],
) -> Result<KeyedPackages, EmergeError> {
    let joint = match params {
        SchemeParams::Disjoint { .. } => false,
        SchemeParams::Joint { .. } => true,
        _ => {
            return Err(EmergeError::InvalidParameters(
                "keyed packages require the disjoint or joint scheme".into(),
            ))
        }
    };
    plan.check_shape(params)?;
    let (rows, cols) = (plan.rows, plan.cols);
    let column_keys: Vec<SymmetricKey> = (0..cols).map(|c| schedule.column_key(c)).collect();

    let mut onions = Vec::with_capacity(rows);
    for row in 0..rows {
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(cols);
        for col in 0..cols {
            let next_hops = if col + 1 == cols {
                Vec::new()
            } else if joint {
                (0..rows)
                    .map(|r| plan.targets[r * cols + col + 1])
                    .collect()
            } else {
                vec![plan.targets[row * cols + col + 1]]
            };
            payloads.push(KeyedLayerPayload { next_hops }.to_bytes());
        }
        let layers: Vec<(&SymmetricKey, &[u8])> = column_keys
            .iter()
            .zip(payloads.iter())
            .map(|(k, p)| (k, p.as_slice()))
            .collect();
        onions.push(build_onion(&layers, secret));
    }

    Ok(KeyedPackages {
        onions,
        column_keys,
    })
}

/// Per-holder payload inside a column bundle header.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareLayerPayload {
    /// Next-column holder addresses (all `n` rows; empty at the last
    /// column).
    pub next_hops: Vec<NodeId>,
    /// Shares (all with this row's index) of each next-column row key,
    /// ordered by target row. Empty at the last column.
    pub row_key_shares: Vec<KeyShare>,
    /// This row's share of the next column's core key.
    pub core_key_share: Option<KeyShare>,
    /// The bundle key `C_j` unlocking this column's inner bundle (absent
    /// at the last column).
    pub bundle_key: Option<SymmetricKey>,
}

impl ShareLayerPayload {
    /// Exact serialized size, for pre-sizing buffers.
    fn encoded_len(&self) -> usize {
        let shares: usize = self
            .row_key_shares
            .iter()
            .map(|s| 1 + 4 + s.data.len())
            .sum();
        2 + self.next_hops.len() * ID_LEN
            + 2
            + shares
            + 1
            + self
                .core_key_share
                .as_ref()
                .map_or(0, |s| 1 + 4 + s.data.len())
            + 1
            + if self.bundle_key.is_some() { 32 } else { 0 }
    }

    /// Serializes the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Serializes the payload into `w` (a reusable scratch buffer in the
    /// package builder's hot loop).
    fn encode_into(&self, w: &mut Writer) {
        // LINT-WAIVER(wire): hop counts are bounded by MAX_SHARES = 255, far below u16::MAX
        w.put_u16(self.next_hops.len() as u16);
        for id in &self.next_hops {
            w.put_raw(id.as_bytes());
        }
        // LINT-WAIVER(wire): share counts are bounded by MAX_SHARES = 255, far below u16::MAX
        w.put_u16(self.row_key_shares.len() as u16);
        for s in &self.row_key_shares {
            w.put_u8(s.index);
            w.put_bytes(&s.data);
        }
        match &self.core_key_share {
            Some(s) => {
                w.put_u8(1).put_u8(s.index);
                w.put_bytes(&s.data);
            }
            None => {
                w.put_u8(0);
            }
        }
        match &self.bundle_key {
            Some(k) => {
                w.put_u8(1).put_raw(k.as_bytes());
            }
            None => {
                w.put_u8(0);
            }
        }
    }

    /// Parses a payload.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let hop_count = r.get_u16()? as usize;
        let mut next_hops = Vec::with_capacity(hop_count);
        for _ in 0..hop_count {
            let raw = r.get_raw(ID_LEN)?;
            let mut id = [0u8; ID_LEN];
            id.copy_from_slice(raw);
            next_hops.push(NodeId::from_bytes(id));
        }
        let share_count = r.get_u16()? as usize;
        let mut row_key_shares = Vec::with_capacity(share_count);
        for _ in 0..share_count {
            let index = r.get_u8()?;
            let data = r.get_bytes()?.to_vec();
            row_key_shares.push(KeyShare::new(index, data));
        }
        let core_key_share = match r.get_u8()? {
            0 => None,
            1 => {
                let index = r.get_u8()?;
                let data = r.get_bytes()?.to_vec();
                Some(KeyShare::new(index, data))
            }
            _ => return Err(CryptoError::Malformed("bad core-share flag")),
        };
        let bundle_key = match r.get_u8()? {
            0 => None,
            1 => {
                let raw = r.get_raw(32)?;
                let mut kb = [0u8; 32];
                kb.copy_from_slice(raw);
                Some(SymmetricKey::from_bytes(kb))
            }
            _ => return Err(CryptoError::Malformed("bad bundle-key flag")),
        };
        r.expect_end()?;
        Ok(ShareLayerPayload {
            next_hops,
            row_key_shares,
            core_key_share,
            bundle_key,
        })
    }
}

/// Writes the wire form of a *terminal* (last-column) header payload: no
/// next hops, no shares, no keys. Byte-identical to encoding an empty
/// [`ShareLayerPayload`] (pinned by test).
fn encode_terminal_payload(w: &mut Writer) {
    w.put_u16(0); // next hops
    w.put_u16(0); // row-key shares
    w.put_u8(0); // no core share
    w.put_u8(0); // no bundle key
}

/// The flat share package (format v2): `l` column segments, delivered in
/// full to every first-column holder at `ts`.
///
/// `segments[0]` is column 0's plaintext header table (those holders' row
/// keys are handed over directly at `ts`, exactly like v1's outermost
/// bundle travelled unsealed); `segments[j]` for `j ≥ 1` is column `j`'s
/// header table sealed **once** under the bundle key `C_{j-1}`, which
/// column-`j-1` headers release one hop ahead of use.
///
/// Every holder of a column carries the same package tail; any one honest
/// holder suffices to relay it onward, which gives the share scheme its
/// `n`-wide transit redundancy (the paper's "three remaining onions"
/// replication in Figure 5, in linear instead of exponential size).
#[derive(Debug, Clone, PartialEq)]
pub struct SharePackage {
    /// `segments[col]` is that column's header table: plaintext at
    /// `col == 0`, sealed under `C_{col-1}` otherwise. Each decoded
    /// header opens with `K_{r,col}` and parses to a
    /// [`ShareLayerPayload`].
    pub segments: Vec<Vec<u8>>,
}

/// Wire version tag of [`SharePackage`] (the flat segment-table format).
pub const SHARE_FORMAT_VERSION: u8 = 2;

impl SharePackage {
    /// Serializes the package: the version byte followed by the
    /// length-prefixed segment table.
    pub fn to_bytes(&self) -> Vec<u8> {
        let total: usize = self.segments.iter().map(|s| 4 + s.len()).sum();
        let mut w = Writer::with_capacity(1 + 2 + total);
        w.put_u8(SHARE_FORMAT_VERSION);
        w.put_table(&self.segments);
        w.into_bytes()
    }

    /// Parses a package.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] on a wrong version tag, an empty segment
    /// table, truncation, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        if r.get_u8()? != SHARE_FORMAT_VERSION {
            return Err(CryptoError::Malformed("unsupported share-package version"));
        }
        let segments = r.get_table()?;
        if segments.is_empty() {
            return Err(CryptoError::Malformed("share package with no segments"));
        }
        r.expect_end()?;
        Ok(SharePackage { segments })
    }
}

/// Packages for the key-share routing scheme (flat format v2).
#[derive(Debug, Clone)]
pub struct SharePackages {
    /// The serialized flat [`SharePackage`] (segment table), delivered to
    /// every first-column holder at `ts`.
    pub package: Vec<u8>,
    /// The core onion (processed by rows `0..k`).
    pub core_onion: Vec<u8>,
    /// Column-0 row keys, handed to each first-column holder directly at
    /// `ts` (no storage period, so no sharing needed — Figure 5's `K_1`,
    /// `K_{3,1}`).
    pub col0_row_keys: Vec<SymmetricKey>,
    /// Column-0 core key for the onion rows.
    pub col0_core_key: SymmetricKey,
}

impl Default for SharePackages {
    /// An empty package set, as the reusable output slot of
    /// [`build_share_packages_into`] (the zero key is overwritten by
    /// every build).
    fn default() -> Self {
        SharePackages {
            package: Vec::new(),
            core_onion: Vec::new(),
            col0_row_keys: Vec::new(),
            col0_core_key: SymmetricKey::from_bytes([0u8; 32]),
        }
    }
}

/// Domain-separation label for format-v2 header seals.
const HEADER_AAD: &[u8] = b"emerge-share-header-v2";
/// Domain-separation label for format-v2 segment seals.
const SEGMENT_AAD: &[u8] = b"emerge-share-segment-v2";

/// Fixed nonce for format-v2 header seals.
///
/// Every row key `K_{r,j}` is an HKDF-derived single-use value that seals
/// exactly one header, so a constant nonce can never repeat a
/// `(key, nonce)` pair — the property RFC 8439 actually requires. v1
/// spent an HKDF-HMAC run per seal *and* per open deriving a nonce from
/// the key; at a few hundred AEAD operations per protocol run that was a
/// measurable slice of the trial, bought no security, and is dropped in
/// v2. (Role separation lives in the AAD labels and in the nonce bytes
/// themselves.)
const HEADER_NONCE: [u8; 12] = *b"emerge-hdr-2";
/// Fixed nonce for format-v2 segment seals (bundle keys `C_j` are
/// likewise single-use: each seals exactly one segment).
const SEGMENT_NONCE: [u8; 12] = *b"emerge-seg-2";

/// Opens a header and parses its full payload — the reference parser the
/// executor's [`open_header_into`] + [`visit_executor_payload`] path is
/// checked against.
///
/// # Errors
///
/// Returns a [`CryptoError`] for a wrong key or tampered header.
pub fn open_header(key: &SymmetricKey, header: &[u8]) -> Result<ShareLayerPayload, CryptoError> {
    let plain = emerge_crypto::aead::open(key, &HEADER_NONCE, header, HEADER_AAD)?;
    ShareLayerPayload::from_bytes(&plain)
}

/// Decodes a column's header table (the plaintext column-0 segment, or
/// the output of [`open_segment`] on a sealed one).
///
/// # Errors
///
/// Returns a [`CryptoError`] on truncation or trailing bytes.
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<Vec<u8>>, CryptoError> {
    let mut r = Reader::new(bytes);
    let headers = r.get_table()?;
    r.expect_end()?;
    Ok(headers)
}

/// A decoded header table backed by its single segment buffer: headers
/// are spans into `blob` instead of per-header copies. This is what the
/// protocol executor holds and forwards; both buffers are recycled
/// across columns and trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentHeaders {
    blob: Vec<u8>,
    /// `(offset, len)` of each header inside `blob`.
    spans: Vec<(u32, u32)>,
}

impl SegmentHeaders {
    /// Number of headers in the table.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table has no headers.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The sealed header of `row`, if the table has that many rows.
    pub fn get(&self, row: usize) -> Option<&[u8]> {
        let &(off, len) = self.spans.get(row)?;
        Some(&self.blob[off as usize..off as usize + len as usize])
    }
}

/// Parses the outer segment table of a serialized [`SharePackage`] into
/// `(offset, len)` spans over `bytes`, reusing `spans`' capacity.
///
/// Pooled counterpart of [`SharePackage::from_bytes`] for the executor
/// hot path: the segments stay in the caller's buffer instead of being
/// copied into per-segment `Vec`s.
///
/// # Errors
///
/// Identical to [`SharePackage::from_bytes`].
pub fn parse_share_segment_spans(
    bytes: &[u8],
    spans: &mut Vec<(u32, u32)>,
) -> Result<(), CryptoError> {
    spans.clear();
    let mut r = Reader::new(bytes);
    if r.get_u8()? != SHARE_FORMAT_VERSION {
        return Err(CryptoError::Malformed("unsupported share-package version"));
    }
    let count = r.get_u16()? as usize;
    for _ in 0..count {
        let len = r.get_u32()?;
        // LINT-WAIVER(wire): the reader position is bounded by the u32-framed package length
        let start = r.position() as u32;
        r.get_raw(len as usize)?;
        spans.push((start, len));
    }
    if spans.is_empty() {
        return Err(CryptoError::Malformed("share package with no segments"));
    }
    r.expect_end()?;
    Ok(())
}

/// Parses `blob` as a header table, writing spans into `spans`.
fn parse_header_spans(blob: &[u8], spans: &mut Vec<(u32, u32)>) -> Result<(), CryptoError> {
    spans.clear();
    let mut r = Reader::new(blob);
    let count = r.get_u16()? as usize;
    for _ in 0..count {
        let len = r.get_u32()?;
        // LINT-WAIVER(wire): the reader position is bounded by the u32-framed package length
        let start = r.position() as u32;
        r.get_raw(len as usize)?;
        spans.push((start, len));
    }
    r.expect_end()?;
    Ok(())
}

/// Decodes a plaintext header table into a reusable [`SegmentHeaders`],
/// recycling both its blob and span buffers — the same wire format as
/// [`decode_segment`], without copying each header out.
///
/// # Errors
///
/// Returns a [`CryptoError`] on truncation or trailing bytes.
pub fn decode_segment_headers_into(
    bytes: &[u8],
    out: &mut SegmentHeaders,
) -> Result<(), CryptoError> {
    out.blob.clear();
    out.blob.extend_from_slice(bytes);
    parse_header_spans(&out.blob, &mut out.spans)
}

/// Opens a sealed column segment into a reusable [`SegmentHeaders`] —
/// the allocation-free counterpart of [`open_segment`].
///
/// # Errors
///
/// Identical to [`open_segment`]. On error `out` is left with an empty
/// span table.
pub fn open_segment_headers_into(
    key: &SymmetricKey,
    sealed: &[u8],
    out: &mut SegmentHeaders,
) -> Result<(), CryptoError> {
    out.spans.clear();
    out.blob.clear();
    out.blob.extend_from_slice(sealed);
    emerge_crypto::aead::open_in_place(key, &SEGMENT_NONCE, &mut out.blob, SEGMENT_AAD)?;
    parse_header_spans(&out.blob, &mut out.spans)
}

/// Opens a sealed header into a reusable plaintext buffer (the decrypt
/// step of [`open_header`]); parse the result with
/// [`visit_executor_payload`].
///
/// # Errors
///
/// Returns a [`CryptoError`] for a wrong key or tampered header.
pub fn open_header_into(
    key: &SymmetricKey,
    header: &[u8],
    plain: &mut Vec<u8>,
) -> Result<(), CryptoError> {
    plain.clear();
    plain.extend_from_slice(header);
    emerge_crypto::aead::open_in_place(key, &HEADER_NONCE, plain, HEADER_AAD)
}

/// The non-share fields of an executor payload: the core-key share (as
/// `(index, bytes)`) and the next column's bundle key.
pub type ExecutorPayloadTail<'a> = (Option<(u8, &'a [u8])>, Option<SymmetricKey>);

/// Walks an opened executor payload without copying: `on_share` is called
/// once per next-column row-key share, in target-row order, with
/// `(target_row, share_index, share_bytes)`. Returns the core-key share
/// and the bundle key. The next-hop list is length-checked and skipped:
/// the executor forwards by grid position. Pinned equal to the matching
/// fields of [`ShareLayerPayload::from_bytes`] by test.
///
/// # Errors
///
/// Returns a [`CryptoError`] on a malformed payload, exactly where
/// [`ShareLayerPayload::from_bytes`] does.
pub fn visit_executor_payload<'a>(
    plain: &'a [u8],
    mut on_share: impl FnMut(usize, u8, &'a [u8]),
) -> Result<ExecutorPayloadTail<'a>, CryptoError> {
    let mut r = Reader::new(plain);
    let hop_count = r.get_u16()? as usize;
    r.get_raw(hop_count * ID_LEN)?;
    let share_count = r.get_u16()? as usize;
    for target in 0..share_count {
        let index = r.get_u8()?;
        let data = r.get_bytes()?;
        on_share(target, index, data);
    }
    let core_key_share = match r.get_u8()? {
        0 => None,
        1 => {
            let index = r.get_u8()?;
            let data = r.get_bytes()?;
            Some((index, data))
        }
        _ => return Err(CryptoError::Malformed("bad core-share flag")),
    };
    let bundle_key = match r.get_u8()? {
        0 => None,
        1 => {
            let raw = r.get_raw(32)?;
            let mut kb = [0u8; 32];
            kb.copy_from_slice(raw);
            Some(SymmetricKey::from_bytes(kb))
        }
        _ => return Err(CryptoError::Malformed("bad bundle-key flag")),
    };
    r.expect_end()?;
    Ok((core_key_share, bundle_key))
}

/// Opens a sealed column segment into its header table.
///
/// # Errors
///
/// Returns a [`CryptoError`] for a wrong key, a tampered segment, or a
/// plaintext that does not decode as a header table.
pub fn open_segment(key: &SymmetricKey, sealed: &[u8]) -> Result<Vec<Vec<u8>>, CryptoError> {
    let plain = emerge_crypto::aead::open(key, &SEGMENT_NONCE, sealed, SEGMENT_AAD)?;
    decode_segment(&plain)
}

/// Builds the share-scheme packages per Section III-D, in the flat
/// format v2: fresh output and scratch buffers filled by
/// [`build_share_packages_into`].
///
/// # Errors
///
/// Identical to [`build_share_packages_into`].
pub fn build_share_packages(
    plan: &PathPlan,
    params: &SchemeParams,
    schedule: &KeySchedule,
    secret: &[u8],
) -> Result<SharePackages, EmergeError> {
    let mut out = SharePackages::default();
    build_share_packages_into(
        plan,
        params,
        schedule,
        secret,
        &mut out,
        &mut PackageScratch::new(),
    )?;
    Ok(out)
}

/// Writes the wire form of a non-terminal header payload straight from a
/// share slab, without materializing a [`ShareLayerPayload`]. Share `row`
/// of every split carries index `row + 1`. Byte-identical to the struct
/// encoder (pinned by test).
fn encode_payload_slab(
    w: &mut Writer,
    next_hops: &[NodeId],
    row_shares: &shamir::ShareSlab,
    row: usize,
    core_share: &[u8],
    bundle_key: &SymmetricKey,
) {
    // LINT-WAIVER(wire): hop counts are bounded by MAX_SHARES = 255, far below u16::MAX
    w.put_u16(next_hops.len() as u16);
    for id in next_hops {
        w.put_raw(id.as_bytes());
    }
    // LINT-WAIVER(wire): row < n <= MAX_SHARES = 255, so row + 1 fits a u8
    let x = (row + 1) as u8;
    // LINT-WAIVER(wire): share counts are bounded by MAX_SHARES = 255, far below u16::MAX
    w.put_u16(row_shares.count() as u16);
    for target in 0..row_shares.count() {
        w.put_u8(x);
        w.put_bytes(row_shares.share(target, x));
    }
    w.put_u8(1).put_u8(x);
    w.put_bytes(core_share);
    w.put_u8(1).put_raw(bundle_key.as_bytes());
}

/// Reusable scratch for [`build_share_packages_into`]: the share slabs,
/// serialization buffers and key lists live here across trials, so a
/// warm builder performs zero heap allocations.
#[derive(Debug, Default)]
pub struct PackageScratch {
    /// Per-column row-key share slabs (columns `1..l`).
    row_slabs: Vec<shamir::ShareSlab>,
    /// Per-column core-key share slabs (columns `1..l`).
    core_slabs: Vec<shamir::ShareSlab>,
    /// Concatenated next-column row keys fed to the slab split.
    keys_flat: Vec<u8>,
    /// Header payload serialization scratch.
    payload: Writer,
    /// One sealed header.
    header: Vec<u8>,
    /// One column segment being assembled (and sealed in place).
    segment: Vec<u8>,
    /// Next-column hop addresses of the current column.
    next_hops: Vec<NodeId>,
    /// The per-column core keys for the core onion.
    core_keys: Vec<SymmetricKey>,
    /// Onion layer ping-pong buffer.
    onion_scratch: Vec<u8>,
}

impl PackageScratch {
    /// Creates an empty scratch; every buffer grows to its steady-state
    /// size on the first build and is then recycled.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Builds the share-scheme packages per Section III-D into caller-owned
/// output and scratch buffers; a warm call allocates nothing.
///
/// The secret travels in a core onion sealed with per-column core keys;
/// routing metadata and the just-in-time key shares travel in the flat
/// [`SharePackage`] segment table, one independently sealed segment per
/// column, each segment holding that column's row-key-sealed headers.
/// Both the core keys and the row keys of column `j ≥ 1` are
/// `(m_j, n)`-shared and delivered one hop ahead of use. Total AEAD seal
/// volume is `Θ(l·n)`: each column's bytes are sealed exactly once.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for non-share `params`, a
/// `plan` whose shape does not match them, or `n` beyond GF(256)
/// sharing, and propagates [`EmergeError::Crypto`] from the Shamir
/// layer.
pub fn build_share_packages_into(
    plan: &PathPlan,
    params: &SchemeParams,
    schedule: &KeySchedule,
    secret: &[u8],
    out: &mut SharePackages,
    scratch: &mut PackageScratch,
) -> Result<(), EmergeError> {
    let (_k, l, n, m) = match params {
        SchemeParams::Share { k, l, n, m } => (*k, *l, *n, m),
        _ => {
            return Err(EmergeError::InvalidParameters(
                "share packages require the share scheme".into(),
            ))
        }
    };
    if n > shamir::MAX_SHARES {
        // LINT-WAIVER(alloc): error construction is a cold path outside the per-trial loop
        return Err(EmergeError::InvalidParameters(format!(
            "wire-level GF(256) sharing supports at most {} rows, got {n} \
             (the analysis/Monte-Carlo engines have no such limit)",
            shamir::MAX_SHARES
        )));
    }
    plan.check_shape(params)?;

    let mut rng = schedule.shamir_rng();

    // Shares of every column's keys (columns 1..l), split into recycled
    // slabs with the exact RNG draw order of `split_many` + `split`.
    while scratch.row_slabs.len() < l - 1 {
        scratch.row_slabs.push(shamir::ShareSlab::new());
        scratch.core_slabs.push(shamir::ShareSlab::new());
    }
    for col in 1..l {
        let threshold = m[col - 1];
        scratch.keys_flat.clear();
        for r in 0..n {
            scratch
                .keys_flat
                .extend_from_slice(schedule.row_key(r, col).as_bytes());
        }
        scratch.row_slabs[col - 1].split_flat(&scratch.keys_flat, 32, threshold, n, &mut rng)?;
        let core = schedule.core_key(col);
        scratch.core_slabs[col - 1].split_flat(core.as_bytes(), 32, threshold, n, &mut rng)?;
    }

    // Assemble the package wire form directly: version byte, u16 segment
    // count, then each column segment length-prefixed — identical to
    // `SharePackage::to_bytes` over the column segments.
    out.package.clear();
    out.package.push(SHARE_FORMAT_VERSION);
    // LINT-WAIVER(wire): l was validated against MAX_SHARES = 255, far below u16::MAX
    out.package.extend_from_slice(&(l as u16).to_le_bytes());
    for col in 0..l {
        let last = col + 1 == l;
        let bundle_key = (!last).then(|| schedule.bundle_key(col));
        scratch.next_hops.clear();
        if !last {
            scratch
                .next_hops
                .extend((0..n).map(|r| plan.targets[r * l + col + 1]));
        }
        let segment = &mut scratch.segment;
        segment.clear();
        // LINT-WAIVER(wire): n was validated against MAX_SHARES = 255, far below u16::MAX
        segment.extend_from_slice(&(n as u16).to_le_bytes());
        for row in 0..n {
            scratch.payload.clear();
            if let Some(bk) = &bundle_key {
                // Column `col`'s headers deliver shares of column
                // `col + 1`'s keys: slab `col` (slabs are indexed by
                // target column minus one).
                encode_payload_slab(
                    &mut scratch.payload,
                    &scratch.next_hops,
                    &scratch.row_slabs[col],
                    row,
                    // LINT-WAIVER(wire): row < n <= MAX_SHARES = 255, so row + 1 fits a u8
                    scratch.core_slabs[col].share(0, (row + 1) as u8),
                    bk,
                );
            } else {
                encode_terminal_payload(&mut scratch.payload);
            }
            record_sealed(scratch.payload.len());
            scratch.header.clear();
            scratch.header.extend_from_slice(scratch.payload.as_slice());
            emerge_crypto::aead::seal_in_place(
                &schedule.row_key(row, col),
                &HEADER_NONCE,
                &mut scratch.header,
                HEADER_AAD,
            );
            // LINT-WAIVER(wire): a sealed header spans at most 255 shares, orders of magnitude below u32::MAX
            segment.extend_from_slice(&(scratch.header.len() as u32).to_le_bytes());
            segment.extend_from_slice(&scratch.header);
        }
        if col != 0 {
            // Sealed once, under the key the previous column's headers
            // release one hop ahead (column 0 travels unsealed).
            record_sealed(segment.len());
            emerge_crypto::aead::seal_in_place(
                &schedule.bundle_key(col - 1),
                &SEGMENT_NONCE,
                segment,
                SEGMENT_AAD,
            );
        }
        out.package
            // LINT-WAIVER(wire): a segment holds at most 255 bounded rows, far below u32::MAX
            .extend_from_slice(&(segment.len() as u32).to_le_bytes());
        out.package.extend_from_slice(segment);
    }

    // Core onion: sealed with the per-column core keys; payloads empty.
    scratch.core_keys.clear();
    scratch
        .core_keys
        .extend((0..l).map(|c| schedule.core_key(c)));
    emerge_crypto::onion::build_onion_empty_into(
        &scratch.core_keys,
        secret,
        &mut out.core_onion,
        &mut scratch.onion_scratch,
    );

    out.col0_row_keys.clear();
    out.col0_row_keys
        .extend((0..n).map(|r| schedule.row_key(r, 0)));
    out.col0_core_key = schedule.core_key(0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::construct_paths;
    use emerge_crypto::onion::{peel, peel_core, Peeled};
    use emerge_dht::{AnalyticSubstrate, OverlayConfig};
    use emerge_sim::shard::TrialDigest;
    use rand::RngCore;

    fn overlay(n: usize) -> AnalyticSubstrate {
        AnalyticSubstrate::build(
            OverlayConfig {
                n_nodes: n,
                ..OverlayConfig::default()
            },
            7,
        )
    }

    fn schedule() -> KeySchedule {
        KeySchedule::new(SymmetricKey::from_bytes([0x42; 32]))
    }

    #[test]
    fn label_writer_matches_the_format_macro() {
        for (row, col) in [
            (0usize, 0usize),
            (1, 9),
            (10, 10),
            (12345, 678),
            (usize::MAX, usize::MAX),
        ] {
            let mut w = LabelWriter::new("row-key");
            w.push_segment(row);
            w.push_segment(col);
            assert_eq!(w.as_bytes(), format!("row-key/{row}/{col}").as_bytes());
        }
        let mut w = LabelWriter::new("bundle-key");
        w.push_segment(42);
        assert_eq!(w.as_bytes(), b"bundle-key/42");
    }

    #[test]
    fn memoized_derivations_match_explicit_labels() {
        // The cache and the stack label writer must not change a single
        // derived byte relative to the original format!-based derivation.
        let seed = SymmetricKey::from_bytes([0x42; 32]);
        let s = KeySchedule::new(seed.clone());
        assert_eq!(
            s.row_key(5, 11).into_bytes(),
            seed.derive(b"row-key/5/11").into_bytes()
        );
        assert_eq!(
            s.column_key(3).into_bytes(),
            seed.derive(b"column-key/3").into_bytes()
        );
        assert_eq!(
            s.core_key(0).into_bytes(),
            seed.derive(b"core-key/0").into_bytes()
        );
        assert_eq!(
            s.bundle_key(7).into_bytes(),
            seed.derive(b"bundle-key/7").into_bytes()
        );
        // A second ask is a cache hit and returns the same key.
        assert_eq!(
            s.row_key(5, 11).into_bytes(),
            seed.derive(b"row-key/5/11").into_bytes()
        );
    }

    #[test]
    fn key_schedule_labels_are_separated() {
        let s = schedule();
        assert_ne!(s.column_key(0).into_bytes(), s.column_key(1).into_bytes());
        assert_ne!(s.column_key(0).into_bytes(), s.core_key(0).into_bytes());
        assert_ne!(
            s.row_key(0, 1).into_bytes(),
            s.row_key(1, 0).into_bytes(),
            "row/col must not be confusable"
        );
    }

    #[test]
    fn keyed_payload_roundtrip() {
        let p = KeyedLayerPayload {
            next_hops: vec![NodeId::from_name(b"a"), NodeId::from_name(b"b")],
        };
        assert_eq!(KeyedLayerPayload::from_bytes(&p.to_bytes()).unwrap(), p);
        let empty = KeyedLayerPayload { next_hops: vec![] };
        assert_eq!(
            KeyedLayerPayload::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn share_payload_roundtrip() {
        let p = ShareLayerPayload {
            next_hops: vec![NodeId::from_name(b"x")],
            row_key_shares: vec![KeyShare::new(3, vec![1; 32]), KeyShare::new(3, vec![2; 32])],
            core_key_share: Some(KeyShare::new(3, vec![9; 32])),
            bundle_key: Some(SymmetricKey::from_bytes([7; 32])),
        };
        assert_eq!(ShareLayerPayload::from_bytes(&p.to_bytes()).unwrap(), p);
        let bare = ShareLayerPayload {
            next_hops: vec![],
            row_key_shares: vec![],
            core_key_share: None,
            bundle_key: None,
        };
        assert_eq!(
            ShareLayerPayload::from_bytes(&bare.to_bytes()).unwrap(),
            bare
        );
    }

    #[test]
    fn share_package_roundtrip() {
        let p = SharePackage {
            segments: vec![vec![1, 2, 3], Vec::new(), vec![9; 400]],
        };
        assert_eq!(SharePackage::from_bytes(&p.to_bytes()).unwrap(), p);
        let single = SharePackage {
            segments: vec![vec![0; 8]],
        };
        assert_eq!(
            SharePackage::from_bytes(&single.to_bytes()).unwrap(),
            single
        );
    }

    #[test]
    fn share_package_rejects_bad_version_emptiness_and_trailing() {
        let p = SharePackage {
            segments: vec![vec![1, 2, 3]],
        };
        let mut wrong_version = p.to_bytes();
        wrong_version[0] = 1;
        assert!(SharePackage::from_bytes(&wrong_version).is_err());

        let empty = SharePackage {
            segments: Vec::new(),
        };
        assert!(SharePackage::from_bytes(&empty.to_bytes()).is_err());

        let mut trailing = p.to_bytes();
        trailing.push(0);
        assert!(SharePackage::from_bytes(&trailing).is_err());

        assert!(SharePackage::from_bytes(&[]).is_err());
    }

    #[test]
    fn joint_onion_peels_hop_by_hop() {
        let ov = overlay(100);
        let params = SchemeParams::Joint { k: 2, l: 3 };
        let plan = construct_paths(&ov, &params, &SymmetricKey::from_bytes([9; 32])).unwrap();
        let sched = schedule();
        let pkgs = build_keyed_packages(&plan, &params, &sched, b"THE-SECRET").unwrap();
        assert_eq!(pkgs.onions.len(), 2);
        assert_eq!(pkgs.column_keys.len(), 3);

        let mut onion = pkgs.onions[0].clone();
        for col in 0..2 {
            let Peeled::Intermediate { payload, inner } =
                peel(&pkgs.column_keys[col], &onion).unwrap()
            else {
                panic!("expected intermediate at column {col}");
            };
            let parsed = KeyedLayerPayload::from_bytes(&payload).unwrap();
            // Joint: the payload lists the whole next column.
            assert_eq!(parsed.next_hops.len(), 2);
            assert_eq!(parsed.next_hops[0], plan.targets[col + 1]); // row 0
            assert_eq!(parsed.next_hops[1], plan.targets[3 + col + 1]); // row 1
            onion = inner;
        }
        let (last_payload, secret) = peel_core(&pkgs.column_keys[2], &onion).unwrap();
        let parsed = KeyedLayerPayload::from_bytes(&last_payload).unwrap();
        assert!(parsed.next_hops.is_empty());
        assert_eq!(secret, b"THE-SECRET");
    }

    #[test]
    fn disjoint_onion_routes_along_its_own_row() {
        let ov = overlay(100);
        let params = SchemeParams::Disjoint { k: 2, l: 3 };
        let plan = construct_paths(&ov, &params, &SymmetricKey::from_bytes([9; 32])).unwrap();
        let sched = schedule();
        let pkgs = build_keyed_packages(&plan, &params, &sched, b"s").unwrap();

        let Peeled::Intermediate { payload, .. } =
            peel(&pkgs.column_keys[0], &pkgs.onions[1]).unwrap()
        else {
            panic!("expected intermediate");
        };
        let parsed = KeyedLayerPayload::from_bytes(&payload).unwrap();
        assert_eq!(parsed.next_hops, vec![plan.targets[3 + 1]]); // row 1, col 1
    }

    #[test]
    fn wrong_scheme_rejected() {
        let ov = overlay(50);
        let params = SchemeParams::Joint { k: 2, l: 2 };
        let plan = construct_paths(&ov, &params, &SymmetricKey::from_bytes([1; 32])).unwrap();
        let err =
            build_keyed_packages(&plan, &SchemeParams::Central, &schedule(), b"s").unwrap_err();
        assert!(matches!(err, EmergeError::InvalidParameters(_)));
    }

    #[test]
    fn keyed_builder_rejects_a_plan_of_another_shape() {
        let ov = overlay(100);
        let seed = SymmetricKey::from_bytes([4; 32]);
        let plan = construct_paths(&ov, &SchemeParams::Joint { k: 3, l: 3 }, &seed).unwrap();
        let err = build_keyed_packages(
            &plan,
            &SchemeParams::Joint { k: 2, l: 3 },
            &schedule(),
            b"s",
        )
        .unwrap_err();
        assert!(matches!(err, EmergeError::InvalidParameters(_)));
    }

    #[test]
    fn share_builder_rejects_a_plan_of_another_shape() {
        let ov = overlay(100);
        let seed = SymmetricKey::from_bytes([4; 32]);
        let share = |n: usize, l: usize| SchemeParams::Share {
            k: 2,
            l,
            n,
            m: vec![3; l - 1],
        };
        let short_thresholds = SchemeParams::Share {
            k: 2,
            l: 3,
            n: 5,
            m: vec![3],
        };
        for (plan_shape, params) in [
            (share(5, 3), share(5, 4)),
            (share(5, 4), share(5, 3)),
            (share(6, 3), share(5, 3)),
            (share(5, 3), short_thresholds),
        ] {
            let plan = construct_paths(&ov, &plan_shape, &seed).unwrap();
            let err = build_share_packages(&plan, &params, &schedule(), b"s").unwrap_err();
            assert!(
                matches!(err, EmergeError::InvalidParameters(_)),
                "{plan_shape:?} plan, {params:?}"
            );
        }
    }

    #[test]
    fn share_packages_reconstruct_with_threshold_shares() {
        let ov = overlay(100);
        let params = SchemeParams::Share {
            k: 2,
            l: 3,
            n: 5,
            m: vec![3, 3],
        };
        let plan = construct_paths(&ov, &params, &SymmetricKey::from_bytes([5; 32])).unwrap();
        let sched = schedule();
        let pkgs = build_share_packages(&plan, &params, &sched, b"CORE-SECRET").unwrap();
        assert_eq!(pkgs.col0_row_keys.len(), 5);

        // Open each column-0 header with the directly delivered row key
        // and collect the shares for column 1.
        let package = SharePackage::from_bytes(&pkgs.package).unwrap();
        assert_eq!(package.segments.len(), 3, "one segment per column");
        let headers0 = decode_segment(&package.segments[0]).unwrap();
        assert_eq!(headers0.len(), 5);
        let mut payloads = Vec::new();
        for (row, header) in headers0.iter().enumerate() {
            payloads.push(open_header(&pkgs.col0_row_keys[row], header).unwrap());
        }

        // Any 3 of the 5 shares reconstruct row 2's column-1 key.
        let target_row = 2usize;
        let shares: Vec<KeyShare> = payloads
            .iter()
            .take(3)
            .map(|p| p.row_key_shares[target_row].clone())
            .collect();
        let recovered = shamir::combine(&shares, 3).unwrap();
        assert_eq!(recovered, sched.row_key(target_row, 1).as_bytes());

        // Two shares are not enough.
        assert!(shamir::combine(&shares[..2], 3).is_err());

        // Core key reconstructs the same way and peels the core onion.
        let core_shares: Vec<KeyShare> = payloads
            .iter()
            .skip(1)
            .take(3)
            .map(|p| p.core_key_share.clone().unwrap())
            .collect();
        let core_key_bytes = shamir::combine(&core_shares, 3).unwrap();
        let mut kb = [0u8; 32];
        kb.copy_from_slice(&core_key_bytes);
        let core_key_1 = SymmetricKey::from_bytes(kb);

        let Peeled::Intermediate { inner, .. } =
            peel(&pkgs.col0_core_key, &pkgs.core_onion).unwrap()
        else {
            panic!("core onion must have 3 layers");
        };
        let Peeled::Intermediate { inner, .. } = peel(&core_key_1, &inner).unwrap() else {
            panic!("layer 1 must peel with the reconstructed key");
        };
        let (_, secret) = peel_core(&sched.core_key(2), &inner).unwrap();
        assert_eq!(secret, b"CORE-SECRET");
    }

    #[test]
    fn share_segments_unwrap_column_by_column() {
        let ov = overlay(100);
        let params = SchemeParams::Share {
            k: 2,
            l: 3,
            n: 4,
            m: vec![2, 2],
        };
        let sender = SymmetricKey::from_bytes([8; 32]);
        let plan = construct_paths(&ov, &params, &sender).unwrap();
        let sched = schedule();
        let pkgs = build_share_packages(&plan, &params, &sched, b"s").unwrap();

        let package = SharePackage::from_bytes(&pkgs.package).unwrap();
        let headers0 = decode_segment(&package.segments[0]).unwrap();
        let payload0 = open_header(&pkgs.col0_row_keys[0], &headers0[0]).unwrap();
        let bk0 = payload0.bundle_key.expect("column 0 carries a bundle key");
        let headers1 = open_segment(&bk0, &package.segments[1]).unwrap();
        assert_eq!(headers1.len(), 4);

        // Column 1 headers open with the (derivable) row keys.
        let payload1 = open_header(&sched.row_key(1, 1), &headers1[1]).unwrap();
        let bk1 = payload1.bundle_key.expect("column 1 carries a bundle key");
        let headers2 = open_segment(&bk1, &package.segments[2]).unwrap();

        // A column's bundle key opens only its own successor segment:
        // jumping ahead with the wrong key fails authentication.
        assert!(open_segment(&bk0, &package.segments[2]).is_err());

        // Terminal headers carry an empty payload.
        let payload2 = open_header(&sched.row_key(3, 2), &headers2[3]).unwrap();
        assert!(payload2.next_hops.is_empty());
        assert!(payload2.row_key_shares.is_empty());
        assert!(payload2.bundle_key.is_none());
    }

    /// Runs `f` with a fresh `emerge-obs` collector installed on this
    /// thread (restoring any previous one), so the sealed-byte counter
    /// is live and isolated from other tests.
    fn with_obs_collector<R>(f: impl FnOnce() -> R) -> R {
        let prev = emerge_obs::collector::install(emerge_obs::Collector::new());
        let r = f();
        match prev {
            Some(p) => {
                emerge_obs::collector::install(p);
            }
            None => {
                emerge_obs::collector::take();
            }
        }
        r
    }

    #[test]
    fn reused_package_scratch_matches_one_shot_builds_and_frozen_digest() {
        // One scratch and output set serves builds of different shapes
        // and seeds; every build must be byte-identical to a one-shot
        // build (packages, onion, delivered col-0 keys) and report the
        // same sealed-byte volume. The bytes digest to the value recorded
        // against the retired allocating builder.
        const FROZEN: u64 = 0xad5c_5055_c1f1_6322;
        let mut digest = TrialDigest::new();
        let ov = overlay(120);
        let shapes = [
            (2usize, 3usize, 4usize, vec![2usize, 2]),
            (1, 2, 5, vec![3]),
            (2, 3, 4, vec![2, 3]),
            (2, 3, 4, vec![2, 2]), // repeat of shape 0, different seed below
        ];
        let mut out = SharePackages::default();
        let mut scratch = PackageScratch::new();
        for (i, (k, l, n, m)) in shapes.iter().enumerate() {
            let params = SchemeParams::Share {
                k: *k,
                l: *l,
                n: *n,
                m: m.clone(),
            };
            let sender = SymmetricKey::from_bytes([10 + i as u8; 32]);
            let plan = construct_paths(&ov, &params, &sender).unwrap();
            let sched = KeySchedule::new(sender);

            let (reference, ref_sealed, pooled_sealed) = with_obs_collector(|| {
                take_sealed_byte_count();
                let reference = build_share_packages(&plan, &params, &sched, b"CORE").unwrap();
                let ref_sealed = take_sealed_byte_count();
                build_share_packages_into(&plan, &params, &sched, b"CORE", &mut out, &mut scratch)
                    .unwrap();
                let pooled_sealed = take_sealed_byte_count();
                (reference, ref_sealed, pooled_sealed)
            });

            assert_eq!(out.package, reference.package);
            assert_eq!(out.core_onion, reference.core_onion);
            assert_eq!(out.col0_row_keys, reference.col0_row_keys);
            assert_eq!(
                out.col0_core_key.as_bytes(),
                reference.col0_core_key.as_bytes()
            );
            assert_eq!(pooled_sealed, ref_sealed);
            eat_packages(&mut digest, &reference);
            digest.eat(&ref_sealed.to_le_bytes());
        }
        assert_eq!(digest.finish(), FROZEN, "share packages drifted");
    }

    /// Folds every byte of `pkgs` into `d`, length-prefixed.
    fn eat_packages(d: &mut TrialDigest, pkgs: &SharePackages) {
        for bytes in [&pkgs.package, &pkgs.core_onion] {
            d.eat(&(bytes.len() as u64).to_le_bytes());
            d.eat(bytes);
        }
        for key in &pkgs.col0_row_keys {
            d.eat(key.as_bytes());
        }
        d.eat(pkgs.col0_core_key.as_bytes());
    }

    #[test]
    fn share_key_material_matches_frozen_digest() {
        // Walk the package column by column with the full parsers and
        // digest every decrypted header payload (next hops, Shamir share
        // values, core shares, bundle keys) plus the delivered col-0
        // material. The constant was recorded while the nested v1 format
        // delivered the same payloads byte for byte.
        const FROZEN: u64 = 0xd33e_d585_d487_6371;
        let (params, plan, sched) = share_setup(5, 4);
        let pkgs = build_share_packages(&plan, &params, &sched, b"SECRET").unwrap();
        let package = SharePackage::from_bytes(&pkgs.package).unwrap();
        assert_eq!(package.segments.len(), 4);
        let mut digest = TrialDigest::new();
        eat_packages(&mut digest, &pkgs);
        for col in 0..4 {
            let headers = if col == 0 {
                decode_segment(&package.segments[0]).unwrap()
            } else {
                open_segment(&sched.bundle_key(col - 1), &package.segments[col]).unwrap()
            };
            assert_eq!(headers.len(), 5, "column {col}");
            for (row, header) in headers.iter().enumerate() {
                let payload = open_header(&sched.row_key(row, col), header).unwrap();
                assert_eq!(payload.bundle_key.is_some(), col + 1 < 4);
                digest.eat(&payload.to_bytes());
            }
        }
        assert_eq!(digest.finish(), FROZEN, "delivered key material drifted");
    }

    #[test]
    fn key_schedule_reset_matches_fresh_schedule() {
        let mut warm = KeySchedule::new(SymmetricKey::from_bytes([1; 32]));
        // Populate the memo table under the first seed.
        let _ = warm.row_key(3, 2);
        let _ = warm.bundle_key(1);
        warm.reset(SymmetricKey::from_bytes([9; 32]));
        let fresh = KeySchedule::new(SymmetricKey::from_bytes([9; 32]));
        assert_eq!(
            warm.row_key(3, 2).into_bytes(),
            fresh.row_key(3, 2).into_bytes()
        );
        assert_eq!(
            warm.core_key(0).into_bytes(),
            fresh.core_key(0).into_bytes()
        );
        assert_eq!(warm.shamir_rng().next_u64(), fresh.shamir_rng().next_u64());
    }

    #[test]
    fn share_share_indices_match_sender_row() {
        let ov = overlay(60);
        let params = SchemeParams::Share {
            k: 1,
            l: 2,
            n: 4,
            m: vec![2],
        };
        let plan = construct_paths(&ov, &params, &SymmetricKey::from_bytes([6; 32])).unwrap();
        let pkgs = build_share_packages(&plan, &params, &schedule(), b"x").unwrap();
        let package = SharePackage::from_bytes(&pkgs.package).unwrap();
        let headers0 = decode_segment(&package.segments[0]).unwrap();
        for (row, header) in headers0.iter().enumerate() {
            let parsed = open_header(&pkgs.col0_row_keys[row], header).unwrap();
            for s in &parsed.row_key_shares {
                assert_eq!(s.index as usize, row + 1, "share index must be the row");
            }
            assert_eq!(parsed.next_hops.len(), 4);
        }
    }

    #[test]
    fn oversized_share_grid_rejected_at_wire_level() {
        let ov = overlay(60);
        let params = SchemeParams::Share {
            k: 2,
            l: 2,
            n: 300,
            m: vec![100],
        };
        // construct_paths would also fail (not enough nodes); validate the
        // package-level guard directly with a fabricated plan.
        let plan = crate::path::PathPlan {
            rows: 300,
            cols: 2,
            slots: (0..600).collect(),
            targets: vec![NodeId::ZERO; 600],
        };
        let _ = ov;
        let err = build_share_packages(&plan, &params, &schedule(), b"s").unwrap_err();
        assert!(matches!(err, EmergeError::InvalidParameters(_)));
    }

    #[test]
    fn packages_are_deterministic() {
        let ov = overlay(80);
        let params = SchemeParams::Joint { k: 2, l: 2 };
        let seed = SymmetricKey::from_bytes([3; 32]);
        let plan = construct_paths(&ov, &params, &seed).unwrap();
        let sched = KeySchedule::new(seed);
        let a = build_keyed_packages(&plan, &params, &sched, b"s").unwrap();
        let b = build_keyed_packages(&plan, &params, &sched, b"s").unwrap();
        assert_eq!(a.onions, b.onions);
    }

    #[test]
    fn executor_parse_is_a_projection_of_the_full_parse() {
        let key = SymmetricKey::from_bytes([0x66; 32]);
        let seal = |plain: &[u8]| emerge_crypto::aead::seal(&key, &HEADER_NONCE, plain, HEADER_AAD);
        let mut plain = Vec::new();
        for payload in [
            ShareLayerPayload {
                next_hops: vec![NodeId::from_name(b"a"), NodeId::from_name(b"b")],
                row_key_shares: vec![KeyShare::new(2, vec![1; 32]), KeyShare::new(2, vec![2; 32])],
                core_key_share: Some(KeyShare::new(2, vec![9; 32])),
                bundle_key: Some(SymmetricKey::from_bytes([7; 32])),
            },
            ShareLayerPayload {
                next_hops: Vec::new(),
                row_key_shares: Vec::new(),
                core_key_share: None,
                bundle_key: None,
            },
        ] {
            let bytes = payload.to_bytes();
            let sealed = seal(&bytes);
            let full = open_header(&key, &sealed).unwrap();
            open_header_into(&key, &sealed, &mut plain).unwrap();
            let mut shares = Vec::new();
            let (core, bundle_key) = visit_executor_payload(&plain, |target, index, data| {
                assert_eq!(target, shares.len(), "shares arrive in target-row order");
                shares.push(KeyShare::new(index, data.to_vec()));
            })
            .unwrap();
            assert_eq!(shares, full.row_key_shares);
            assert_eq!(
                core.map(|(index, data)| KeyShare::new(index, data.to_vec())),
                full.core_key_share
            );
            assert_eq!(bundle_key, full.bundle_key);
            // Every truncation is malformed to both parsers.
            for end in 0..bytes.len() {
                assert!(ShareLayerPayload::from_bytes(&bytes[..end]).is_err());
                assert!(visit_executor_payload(&bytes[..end], |_, _, _| {}).is_err());
            }
        }
        // Same failure on a tampered header.
        let mut sealed = seal(b"xx");
        sealed[0] ^= 1;
        assert!(open_header(&key, &sealed).is_err());
        assert!(open_header_into(&key, &sealed, &mut plain).is_err());
    }

    #[test]
    fn payload_encoders_match_the_struct_encoder() {
        // Terminal payload.
        let empty = ShareLayerPayload {
            next_hops: Vec::new(),
            row_key_shares: Vec::new(),
            core_key_share: None,
            bundle_key: None,
        };
        let mut w = Writer::new();
        encode_terminal_payload(&mut w);
        assert_eq!(w.as_slice(), empty.to_bytes());

        // Non-terminal payload, straight from a share slab: two 32-byte
        // target-row keys split 2-of-3.
        let keys: Vec<u8> = (0..64).collect();
        let mut slab = shamir::ShareSlab::new();
        slab.split_flat(&keys, 32, 2, 3, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let next_hops = vec![NodeId::from_name(b"h0"), NodeId::from_name(b"h1")];
        let core = [9u8; 32];
        let bk = SymmetricKey::from_bytes([5; 32]);
        for row in 0..3 {
            let x = row as u8 + 1;
            let payload = ShareLayerPayload {
                next_hops: next_hops.clone(),
                row_key_shares: (0..slab.count())
                    .map(|target| KeyShare::new(x, slab.share(target, x).to_vec()))
                    .collect(),
                core_key_share: Some(KeyShare::new(x, core.to_vec())),
                bundle_key: Some(bk.clone()),
            };
            let mut w = Writer::new();
            encode_payload_slab(&mut w, &next_hops, &slab, row, &core, &bk);
            assert_eq!(w.as_slice(), payload.to_bytes(), "row {row}");
        }
    }

    /// Builds a share plan+schedule for an `n × l` grid on a fixed world.
    fn share_setup(n: usize, l: usize) -> (SchemeParams, PathPlan, KeySchedule) {
        let params = SchemeParams::Share {
            k: 2,
            l,
            n,
            m: vec![(n / 2).max(1); l - 1],
        };
        let ov = overlay(600);
        let seed = SymmetricKey::from_bytes([0x31; 32]);
        let plan = construct_paths(&ov, &params, &seed).unwrap();
        (params, plan, KeySchedule::new(seed))
    }

    /// Seal volume attributed to one build call via the instrumented hook
    /// (runs under its own obs collector; the counter reads 0 without one).
    fn sealed_bytes_of<F: FnOnce()>(build: F) -> u64 {
        with_obs_collector(|| {
            let _ = take_sealed_byte_count(); // discard any residue
            build();
            take_sealed_byte_count()
        })
    }

    #[test]
    fn seal_volume_is_linear_in_l() {
        // Doubling the chain depth at fixed n must no more than ~double
        // the sealed bytes (Θ(l·n)); the retired nested v1 format grew
        // them ~quadratically (Σ_j j·segment ≈ l²/2).
        let n = 6;
        let volume = |l: usize| {
            let (params, plan, sched) = share_setup(n, l);
            sealed_bytes_of(|| {
                build_share_packages(&plan, &params, &sched, b"s").unwrap();
            })
        };
        let (short, long) = (volume(6), volume(12));
        let ratio = long as f64 / short as f64;
        assert!(
            ratio < 2.4,
            "seal volume must grow linearly in l: {short} -> {long} ({ratio:.2}x for 2x depth)"
        );
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Arbitrary bytes never panic the package parser.
            #[test]
            fn random_bytes_never_panic_the_parser(
                bytes in proptest::collection::vec(any::<u8>(), 0..300)
            ) {
                let _ = SharePackage::from_bytes(&bytes);
                let _ = decode_segment(&bytes);
            }

            /// Single-byte corruptions of a valid package either parse to
            /// a (different) structurally valid table or error cleanly —
            /// no panics, no unbounded allocation.
            #[test]
            fn mutated_packages_parse_or_error_cleanly(
                pos in 0usize..200,
                xor in 1u8..=255,
                truncate in 0usize..40,
            ) {
                let p = SharePackage {
                    segments: vec![vec![1u8; 30], vec![2u8; 60], vec![3u8; 90]],
                };
                let mut bytes = p.to_bytes();
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
                let keep = bytes.len().saturating_sub(truncate % bytes.len());
                let _ = SharePackage::from_bytes(&bytes[..keep]);
            }

            /// A corrupted sealed segment never opens.
            #[test]
            fn corrupted_segments_fail_authentication(pos_seed: usize, xor in 1u8..=255) {
                let key = SymmetricKey::from_bytes([0x77; 32]);
                let mut table = Writer::new();
                table.put_table(&[vec![5u8; 40], vec![6u8; 40]]);
                let mut sealed =
                    emerge_crypto::aead::seal(&key, &SEGMENT_NONCE, table.as_slice(), SEGMENT_AAD);
                prop_assert!(open_segment(&key, &sealed).is_ok());
                let pos = pos_seed % sealed.len();
                sealed[pos] ^= xor;
                prop_assert!(open_segment(&key, &sealed).is_err());
            }
        }
    }
}

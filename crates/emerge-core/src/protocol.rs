//! The package transmission protocol (Section III): hop-by-hop execution
//! of a send operation on the simulated DHT, with real onions, real
//! shares, churn, and optional attacks.
//!
//! A run is a loop over hop deadlines: packages arrive at column `c` at
//! `t_c = ts + c·th`, rest for one holding period, and move at
//! `t_{c+1}`; the terminal holders release at `tr`. Holders peel with keys they were
//! pre-assigned (keyed schemes) or just reconstructed from shares (share
//! scheme). Malicious holders behave according to the [`AttackMode`]:
//! under [`AttackMode::Drop`] they withhold everything; under
//! [`AttackMode::ReleaseAhead`] they cooperate outwardly while copying all
//! material into the adversary's ledger, which then attempts a *real*
//! cryptographic reconstruction of the secret.

use crate::config::SchemeParams;
use crate::error::EmergeError;
use crate::package::{
    decode_segment_headers_into, keyed_route_width, open_header_into, open_segment_headers_into,
    parse_share_segment_spans, visit_executor_payload, KeyedPackages, SegmentHeaders,
    SharePackages,
};
use crate::path::PathPlan;
use crate::substrate::HolderSubstrate;
use emerge_crypto::keys::SymmetricKey;
use emerge_crypto::onion::{peel_in_place, LayerKind};
use emerge_crypto::shamir;
use emerge_crypto::CryptoError;
use emerge_sim::time::{SimDuration, SimTime};

/// Adversarial posture of the malicious nodes during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackMode {
    /// Malicious nodes behave exactly like honest ones.
    Passive,
    /// Malicious nodes copy everything they see to the adversary, who
    /// tries to reconstruct the secret key before `tr`.
    ReleaseAhead,
    /// Malicious nodes silently discard all packages.
    Drop,
}

/// Run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Start time `ts`.
    pub ts: SimTime,
    /// Emerging period `T = tr − ts`.
    pub emerging_period: SimDuration,
    /// Malicious node behaviour.
    pub attack: AttackMode,
}

/// The outcome of one protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The secret and instant of legitimate release, if it happened.
    pub released: Option<(SimTime, Vec<u8>)>,
    /// Why the key failed to emerge (drop attack, churn starvation, ...).
    pub failure: Option<String>,
    /// The instant the adversary reconstructed the secret, with the
    /// reconstructed bytes, if the release-ahead attack succeeded.
    pub adversary_reconstruction: Option<(SimTime, Vec<u8>)>,
    /// Messages the run pushed through the simulated network.
    pub messages_sent: u64,
}

impl RunReport {
    /// Whether the key emerged exactly as intended: released at `tr` and
    /// never reconstructed early.
    pub fn clean_emergence(&self, tr: SimTime) -> bool {
        matches!(&self.released, Some((at, _)) if *at == tr)
            && self.adversary_reconstruction.is_none()
    }
}

/// Executes a keyed-scheme (disjoint/joint) run: a fresh report filled
/// by the keyed executor.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for non-keyed `params`, a
/// plan or packages whose shape does not match them, or joint rows that
/// do not carry one identical onion, and propagates crypto failures.
pub fn execute_keyed<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    params: &SchemeParams,
    packages: &KeyedPackages,
    config: &RunConfig,
) -> Result<RunReport, EmergeError> {
    let mut report = PooledRunReport::default();
    run_keyed(substrate, plan, params, packages, config, &mut report)?;
    Ok(report.to_report())
}

/// The keyed executor: onions arrive at column `c` at `ts + c·th`, rest
/// for one holding period and move on; the terminal holders release at
/// `tr`. Writes the outcome into `out`.
///
/// The unit of state is the route (see
/// [`crate::package::build_keyed_packages`]): every holder of a route's
/// column holds the same bytes, so the executor keeps one onion per
/// route, counts the column's surviving holders, and peels once per
/// route and column. The joint rows must therefore carry identical
/// onions; packages whose joint rows differ are
/// [`EmergeError::InvalidParameters`].
pub(crate) fn run_keyed<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    params: &SchemeParams,
    packages: &KeyedPackages,
    config: &RunConfig,
    out: &mut PooledRunReport,
) -> Result<(), EmergeError> {
    let joint = match params {
        SchemeParams::Disjoint { .. } => false,
        SchemeParams::Joint { .. } => true,
        _ => {
            return Err(EmergeError::InvalidParameters(
                "execute_keyed requires disjoint or joint parameters".into(),
            ))
        }
    };
    plan.check_shape(params)?;
    let (rows, cols) = (plan.rows, plan.cols);
    if packages.onions.len() != rows || packages.column_keys.len() != cols {
        return Err(EmergeError::InvalidParameters(
            "keyed packages do not match the path plan".into(),
        ));
    }
    let width = keyed_route_width(joint, rows);
    if packages
        .onions
        .chunks(width)
        .any(|route| route.iter().any(|onion| *onion != route[0]))
    {
        return Err(EmergeError::InvalidParameters(
            "the rows of a keyed route must carry one identical onion".into(),
        ));
    }
    let th = config.emerging_period / cols as u64;
    let ts = config.ts;
    let tr = ts + config.emerging_period;
    out.clear();

    // Onion in flight per route at the current column.
    let mut held: Vec<Option<Vec<u8>>> = packages
        .onions
        .iter()
        .step_by(width)
        .cloned()
        .map(Some)
        .collect();
    let mut payload = Vec::new();
    let mut messages = rows as u64; // initial deliveries from the sender
    let mut terminal_count = 0u64;

    // Adversary ledger: earliest acquisition time of each column key.
    let mut adv_key_time: Vec<Option<SimTime>> = vec![None; cols];
    if config.attack == AttackMode::ReleaseAhead {
        // Pre-assigned keys leak from any malicious tenant during the
        // half-open storage window [ts, arrival(col)), or from the tenant
        // occupying the slot at the arrival instant itself — that tenant
        // is the peeler, so it necessarily holds the column key.
        for (col, key_time) in adv_key_time.iter_mut().enumerate() {
            let arrival = ts + th * col as u64;
            for row in 0..rows {
                let slot = plan.slot(row, col);
                let leak = substrate
                    .first_malicious_exposure(slot, ts, arrival)
                    .or_else(|| {
                        substrate
                            .generation_at(slot, arrival)
                            .malicious
                            .then_some(arrival)
                    });
                if let Some(t) = leak {
                    *key_time = Some(match *key_time {
                        Some(prev) if prev <= t => prev,
                        _ => t,
                    });
                }
            }
        }
    }
    // The adversary's best onion copy: the earliest instant it could
    // peel it to the core before `tr`, the column it was taken at, and
    // its bytes.
    let mut adv_best: Option<(SimTime, usize)> = None;
    let mut adv_copy = Vec::new();

    let mut now = ts;
    for col in 0..cols {
        let depart = now + th;
        for (route, in_flight) in held.iter_mut().enumerate() {
            let Some(onion) = in_flight else {
                continue;
            };
            let holders = route * width..(route + 1) * width;
            // Release-ahead adversary copies the (pre-peel) onion on any
            // malicious contact during the stay; the copy pays off once
            // every key from this column on has leaked as well.
            if config.attack == AttackMode::ReleaseAhead {
                let when = holders
                    .clone()
                    .filter_map(|row| {
                        substrate.first_malicious_exposure(plan.slot(row, col), now, depart)
                    })
                    .min()
                    .and_then(|contact| {
                        adv_key_time[col..]
                            .iter()
                            .try_fold(contact, |when, leak| leak.map(|t| when.max(t)))
                    });
                if let Some(when) =
                    when.filter(|&w| w < tr && adv_best.is_none_or(|(best, _)| w < best))
                {
                    adv_best = Some((when, col));
                    adv_copy.clone_from(onion);
                }
            }
            // Drop attack: any malicious tenant during the stay destroys
            // that holder's copy (replication cannot resurrect what a
            // malicious node refuses to hand over).
            let survivors = holders
                .filter(|&row| {
                    config.attack != AttackMode::Drop
                        || !substrate.any_malicious_exposure(plan.slot(row, col), now, depart)
                })
                .count() as u64;
            if survivors == 0 {
                *in_flight = None;
                continue;
            }
            // Peel this layer with the pre-assigned column key; each
            // survivor forwards the inner onion to the route's next
            // column, and a single survivor feeds all of it.
            match peel_in_place(&packages.column_keys[col], onion, &mut payload)? {
                LayerKind::Intermediate => messages += survivors * width as u64,
                LayerKind::Core => {
                    if terminal_count == 0 {
                        out.released_secret.extend_from_slice(onion);
                    }
                    terminal_count += survivors;
                    *in_flight = None;
                }
            }
        }
        now = depart;
    }

    // Release at `tr`.
    if terminal_count > 0 {
        out.released_at = Some(tr);
        messages += terminal_count;
    } else {
        out.failure = Some("no terminal holder delivered the secret");
    }

    // Adversary reconstruction: really peel the best copy with the leaked
    // column keys.
    if let Some((when, col0)) = adv_best {
        for key in &packages.column_keys[col0..] {
            if peel_in_place(key, &mut adv_copy, &mut payload)? == LayerKind::Core {
                out.adversary_at = Some(when);
                out.adversary_secret.extend_from_slice(&adv_copy);
                break;
            }
        }
        if out.adversary_at.is_none() {
            return Err(EmergeError::Crypto(CryptoError::Malformed(
                "keyed onion must peel to a core",
            )));
        }
    }

    out.messages_sent = messages;
    Ok(())
}

/// Executes a key-share routing run: fresh buffers and report filled by
/// [`execute_share_pooled`].
///
/// # Errors
///
/// Identical to [`execute_share_pooled`].
pub fn execute_share<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    params: &SchemeParams,
    packages: &SharePackages,
    config: &RunConfig,
) -> Result<RunReport, EmergeError> {
    let mut report = PooledRunReport::default();
    execute_share_pooled(
        substrate,
        plan,
        params,
        packages,
        config,
        &mut ShareExecScratch::default(),
        &mut report,
    )?;
    Ok(report.to_report())
}

/// Executes the centralized scheme, writing its outcome into `out`: one
/// holder stores the secret for the whole period. A plan that is not a
/// single holder is [`EmergeError::InvalidParameters`].
pub(crate) fn run_central<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    secret: &[u8],
    config: &RunConfig,
    out: &mut PooledRunReport,
) -> Result<(), EmergeError> {
    plan.check_shape(&SchemeParams::Central)?;
    let slot = plan.slot(0, 0);
    let ts = config.ts;
    let tr = ts + config.emerging_period;

    let exposed = substrate.any_malicious_exposure(slot, ts, tr);
    out.clear();
    out.messages_sent = 2;
    match config.attack {
        AttackMode::Drop if exposed => {
            out.failure = Some("central holder destroyed the key");
        }
        AttackMode::ReleaseAhead if exposed => {
            let t = substrate
                .first_malicious_exposure(slot, ts, tr)
                // LINT-WAIVER(panic): first_malicious_exposure is Some exactly when exposure was reported
                .expect("exposure implies a first exposure");
            out.adversary_at = Some(t);
            out.adversary_secret.extend_from_slice(secret);
            out.released_at = Some(tr);
            out.released_secret.extend_from_slice(secret);
        }
        _ => {
            out.released_at = Some(tr);
            out.released_secret.extend_from_slice(secret);
        }
    }
    Ok(())
}

/// The outcome of one protocol run in reusable buffers: the facts of a
/// [`RunReport`] without per-run allocations, written by every executor.
/// The secret buffers are only meaningful when the matching `_at` field
/// is `Some`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PooledRunReport {
    /// Instant of legitimate release, if it happened.
    pub released_at: Option<SimTime>,
    /// The released secret (valid when `released_at` is `Some`).
    pub released_secret: Vec<u8>,
    /// Why the key failed to emerge, if it did not.
    pub failure: Option<&'static str>,
    /// Instant of early adversary reconstruction, if the attack won.
    pub adversary_at: Option<SimTime>,
    /// The adversary's bytes (valid when `adversary_at` is `Some`).
    pub adversary_secret: Vec<u8>,
    /// Messages the run pushed through the simulated network.
    pub messages_sent: u64,
}

impl PooledRunReport {
    /// Whether the key emerged exactly as intended (see
    /// [`RunReport::clean_emergence`]).
    pub fn clean_emergence(&self, tr: SimTime) -> bool {
        self.released_at == Some(tr) && self.adversary_at.is_none()
    }

    /// Empties every field, keeping the buffers' capacity.
    fn clear(&mut self) {
        self.released_at = None;
        self.released_secret.clear();
        self.failure = None;
        self.adversary_at = None;
        self.adversary_secret.clear();
        self.messages_sent = 0;
    }

    /// Copies out an allocating [`RunReport`], for one-shot callers.
    pub fn to_report(&self) -> RunReport {
        RunReport {
            released: self
                .released_at
                .map(|at| (at, self.released_secret.clone())),
            failure: self.failure.map(String::from),
            adversary_reconstruction: self
                .adversary_at
                .map(|at| (at, self.adversary_secret.clone())),
            messages_sent: self.messages_sent,
        }
    }
}

/// Fixed-stride slab of 32-byte key shares: `buckets` rows, each holding
/// up to `stride` `(index, share)` pairs in arrival order; reset is an
/// `O(buckets)` count clear, never a free.
#[derive(Debug, Default)]
struct ShareBank {
    counts: Vec<u16>,
    idx: Vec<u8>,
    data: Vec<u8>,
    stride: usize,
}

impl ShareBank {
    fn reset(&mut self, buckets: usize, stride: usize) {
        self.stride = stride;
        self.counts.clear();
        self.counts.resize(buckets, 0);
        let need = buckets * stride;
        if self.idx.len() < need {
            self.idx.resize(need, 0);
        }
        if self.data.len() < need * 32 {
            self.data.resize(need * 32, 0);
        }
    }

    fn push(&mut self, bucket: usize, index: u8, share: &[u8]) {
        debug_assert_eq!(share.len(), 32);
        let c = self.counts[bucket] as usize;
        debug_assert!(c < self.stride, "share bank bucket overflow");
        let at = bucket * self.stride + c;
        self.idx[at] = index;
        self.data[at * 32..at * 32 + 32].copy_from_slice(share);
        self.counts[bucket] = (c + 1) as u16;
    }

    /// `(indices, data)` of one bucket, in push order.
    fn bucket(&self, bucket: usize) -> (&[u8], &[u8]) {
        let c = self.counts[bucket] as usize;
        let at = bucket * self.stride;
        (&self.idx[at..at + c], &self.data[at * 32..(at + c) * 32])
    }
}

/// Reusable buffers for [`execute_share_pooled`]: held per shard and
/// recycled across trials. After a per-shape warmup trial, a run touches
/// none of the allocator.
#[derive(Debug, Default)]
pub struct ShareExecScratch {
    /// Segment spans over the serialized package.
    seg_spans: Vec<(u32, u32)>,
    /// The current column's opened header table.
    cur_headers: SegmentHeaders,
    /// The next column's opened header table.
    next_headers: SegmentHeaders,
    /// Row-key shares held by the current column's rows.
    cur_key: ShareBank,
    /// Row-key shares being delivered to the next column.
    next_key: ShareBank,
    /// Core-key shares held by the current column's onion rows.
    cur_core: ShareBank,
    /// Core-key shares being delivered to the next column.
    next_core: ShareBank,
    /// The core onion as held by the current column's onion rows.
    cur_core_onion: Vec<u8>,
    /// The peeled core onion being forwarded to the next column.
    next_core_onion: Vec<u8>,
    /// Per-hop onion payload sink (validated, discarded).
    onion_payload: Vec<u8>,
    /// Opened header payload plaintext.
    plain: Vec<u8>,
    /// Reconstructed 32-byte key output.
    key_out: Vec<u8>,
    /// First terminal core secret of the run.
    terminal_secret: Vec<u8>,
    /// Adversary core-share ledger, bucketed by column.
    adv_core: ShareBank,
    /// Adversary's copy of the column-0 core onion (peeled in place
    /// during reconstruction).
    adv_onion: Vec<u8>,
    /// Lagrange-weight memo shared by every reconstruction of the run.
    weight_cache: shamir::WeightCache,
}

/// Combines a `ShareBank` bucket into a 32-byte symmetric key; too few
/// shares is `None`, not an error.
fn combine_key_slab(
    indices: &[u8],
    data: &[u8],
    m: usize,
    cache: &mut shamir::WeightCache,
    out: &mut Vec<u8>,
) -> Result<Option<SymmetricKey>, EmergeError> {
    match shamir::combine_slab_cached_into(indices, data, 32, m, cache, out) {
        Ok(()) => {
            let mut kb = [0u8; 32];
            kb.copy_from_slice(out);
            Ok(Some(SymmetricKey::from_bytes(kb)))
        }
        Err(CryptoError::NotEnoughShares { .. }) => Ok(None),
        Err(e) => Err(EmergeError::Crypto(e)),
    }
}

/// Executes a key-share routing run into reusable buffers; after a
/// per-shape warmup run it touches none of the allocator.
///
/// Column `c`'s holders reconstruct their row keys from the shares
/// column `c - 1` forwarded, open their headers, fan the next column's
/// shares out, and relay the still-sealed package tail and the core
/// onion. A holder whose tenant dies mid-hold takes its shares with it;
/// the opaque package and onion blobs are re-homed by replication and
/// still move. Per-column state (header table, core onion) is held once
/// per column: every holder of a column receives identical bytes from
/// any forwarder, so one copy and one core-onion peel serve the column.
///
/// Key shares must be 32 bytes, as [`crate::package::build_share_packages`]
/// emits them; a share of any other length could not rebuild a 32-byte
/// key and is rejected.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for non-share `params`, a
/// plan or packages whose shape does not match them, or a malformed
/// package, and propagates crypto failures.
pub fn execute_share_pooled<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    params: &SchemeParams,
    packages: &SharePackages,
    config: &RunConfig,
    scratch: &mut ShareExecScratch,
    out: &mut PooledRunReport,
) -> Result<(), EmergeError> {
    let (k, l, n, m) = match params {
        SchemeParams::Share { k, l, n, m } => (*k, *l, *n, m),
        _ => {
            return Err(EmergeError::InvalidParameters(
                "execute_share requires share parameters".into(),
            ))
        }
    };
    plan.check_shape(params)?;
    if packages.col0_row_keys.len() != n {
        return Err(EmergeError::InvalidParameters(
            "share packages do not match the path plan".into(),
        ));
    }
    let th = config.emerging_period / l as u64;
    let ts = config.ts;
    let tr = ts + config.emerging_period;

    parse_share_segment_spans(&packages.package, &mut scratch.seg_spans)?;
    if scratch.seg_spans.len() != l {
        // LINT-WAIVER(alloc): error construction is a cold path; valid packages never reach it
        return Err(EmergeError::InvalidParameters(format!(
            "share package has {} segments for an l = {l} run",
            scratch.seg_spans.len()
        )));
    }
    let (off0, len0) = scratch.seg_spans[0];
    decode_segment_headers_into(
        &packages.package[off0 as usize..(off0 + len0) as usize],
        &mut scratch.cur_headers,
    )?;

    // Column-0 state: every row holds the header table and its direct
    // row key; rows `0..k` additionally hold the core onion and core key.
    let mut cur_has_headers = true;
    let mut cur_has_core_onion = true;
    scratch.cur_core_onion.clear();
    scratch
        .cur_core_onion
        .extend_from_slice(&packages.core_onion);
    scratch.cur_key.reset(n, n);
    scratch.cur_core.reset(n, n);
    scratch.adv_core.reset(l, n);

    out.clear();

    let mut messages = n as u64;
    let mut terminal_count: u64 = 0;
    let mut adv_has_onion0 = false;
    let mut adv_direct_core_key: Option<SymmetricKey> = None;

    let mut now = ts;
    for col in 0..l {
        let depart = now + th;
        let forwarding = col + 1 < l;
        if forwarding {
            scratch.next_key.reset(n, n);
            scratch.next_core.reset(n, n);
        }
        let mut next_has_headers = false;
        let mut next_has_core_onion = false;
        // Per-column memo of the opened next segment: every holder of a
        // column carries the same table, so the memo key reduces to the
        // bundle key.
        let mut opened_next_key: Option<SymmetricKey> = None;
        // Per-column memo of the core-onion peel: every acting onion row
        // reconstructs the same core key and holds the same onion bytes,
        // so one peel serves the column.
        let mut core_kind: Option<LayerKind> = None;

        for row in 0..n {
            let slot = plan.slot(row, col);
            let tenant = *substrate.generation_at(slot, now);

            // Reconstruct this holder's row key.
            let row_key = if col == 0 {
                // LINT-WAIVER(alloc): SymmetricKey is a 32-byte array wrapper, so clone is a stack copy
                Some(packages.col0_row_keys[row].clone())
            } else {
                let (idx, data) = scratch.cur_key.bucket(row);
                if idx.len() >= m[col - 1] {
                    combine_key_slab(
                        idx,
                        data,
                        m[col - 1],
                        &mut scratch.weight_cache,
                        &mut scratch.key_out,
                    )?
                } else {
                    None
                }
            };
            let Some(row_key) = row_key else {
                continue; // starved: cannot act this hop
            };
            if !cur_has_headers {
                continue; // no honest forwarder upstream delivered
            }
            if scratch.cur_headers.get(row).is_none() {
                return Err(EmergeError::InvalidParameters(
                    "segment is missing this row's header".into(),
                ));
            }

            // Malicious receiver leaks its direct material.
            if config.attack == AttackMode::ReleaseAhead && tenant.malicious && col == 0 && row < k
            {
                scratch.adv_onion.clear();
                scratch.adv_onion.extend_from_slice(&scratch.cur_core_onion);
                adv_has_onion0 = true;
                // LINT-WAIVER(alloc): SymmetricKey is a 32-byte array wrapper, so clone is a stack copy
                adv_direct_core_key = Some(packages.col0_core_key.clone());
            }

            // Drop attack: malicious tenants withhold everything.
            if config.attack == AttackMode::Drop && tenant.malicious {
                continue;
            }
            // Churn: a dying tenant takes its *shares* with it; opaque
            // package/onion blobs are re-homed by replication and move.
            let survivor = substrate.generation_at(slot, depart).spawn == tenant.spawn;

            // Open this row's header and fan its shares straight into
            // the next column's slab.
            // LINT-WAIVER(panic): rows were bounds-checked against cur_headers at the top of the loop
            let header = scratch.cur_headers.get(row).expect("checked above");
            open_header_into(&row_key, header, &mut scratch.plain).map_err(EmergeError::Crypto)?;
            let mut bad_share = false;
            let next_key = &mut scratch.next_key;
            let (core_share, bundle_key) =
                visit_executor_payload(&scratch.plain, |target, index, share| {
                    if share.len() != 32 {
                        bad_share = true;
                    } else if survivor && forwarding && target < n {
                        next_key.push(target, index, share);
                        messages += 1;
                    }
                })
                .map_err(EmergeError::Crypto)?;
            if bad_share || core_share.is_some_and(|(_, s)| s.len() != 32) {
                return Err(EmergeError::InvalidParameters(
                    "pooled executor requires 32-byte key shares".into(),
                ));
            }
            if survivor && forwarding {
                if let Some((index, share)) = core_share {
                    for bucket in 0..k {
                        scratch.next_core.push(bucket, index, share);
                    }
                }
            }

            // Adversary copies the payload's onward core share.
            if config.attack == AttackMode::ReleaseAhead && tenant.malicious && col + 1 < l {
                if let Some((index, share)) = core_share {
                    scratch.adv_core.push(col + 1, index, share);
                }
            }

            // Open the next column's segment for relay (once per column).
            let forwards_headers = match &bundle_key {
                Some(bk) if col + 1 < l => {
                    if opened_next_key.as_ref() != Some(bk) {
                        let (off, len) = scratch.seg_spans[col + 1];
                        open_segment_headers_into(
                            bk,
                            &packages.package[off as usize..(off + len) as usize],
                            &mut scratch.next_headers,
                        )
                        .map_err(EmergeError::Crypto)?;
                        // LINT-WAIVER(alloc): SymmetricKey is a 32-byte array wrapper, so clone is a stack copy
                        opened_next_key = Some(bk.clone());
                    }
                    true
                }
                _ => false,
            };

            // Onion rows also process the core onion.
            let mut has_inner = false;
            let mut has_core_secret = false;
            if row < k && cur_has_core_onion {
                let core_key = if col == 0 {
                    // LINT-WAIVER(alloc): SymmetricKey is a 32-byte array wrapper, so clone is a stack copy
                    Some(packages.col0_core_key.clone())
                } else {
                    let (idx, data) = scratch.cur_core.bucket(row);
                    if idx.len() >= m[col - 1] {
                        combine_key_slab(
                            idx,
                            data,
                            m[col - 1],
                            &mut scratch.weight_cache,
                            &mut scratch.key_out,
                        )?
                    } else {
                        None
                    }
                };
                if let Some(core_key) = core_key {
                    if core_kind.is_none() {
                        scratch.next_core_onion.clear();
                        scratch
                            .next_core_onion
                            .extend_from_slice(&scratch.cur_core_onion);
                        let kind = peel_in_place(
                            &core_key,
                            &mut scratch.next_core_onion,
                            &mut scratch.onion_payload,
                        )
                        .map_err(EmergeError::Crypto)?;
                        core_kind = Some(kind);
                        if kind == LayerKind::Core {
                            scratch.terminal_secret.clear();
                            scratch
                                .terminal_secret
                                .extend_from_slice(&scratch.next_core_onion);
                        }
                    }
                    match core_kind {
                        Some(LayerKind::Intermediate) => has_inner = true,
                        Some(LayerKind::Core) => has_core_secret = true,
                        None => {}
                    }
                }
            }

            if col + 1 == l {
                if has_core_secret {
                    terminal_count += 1;
                }
                continue;
            }

            // Forward the column-uniform material (shares were already
            // fanned out above).
            if forwards_headers && !next_has_headers {
                next_has_headers = true;
                messages += n as u64;
            }
            if has_inner && !next_has_core_onion {
                next_has_core_onion = true;
                messages += k as u64;
            }
        }

        if forwarding {
            std::mem::swap(&mut scratch.cur_key, &mut scratch.next_key);
            std::mem::swap(&mut scratch.cur_core, &mut scratch.next_core);
            std::mem::swap(&mut scratch.cur_headers, &mut scratch.next_headers);
            std::mem::swap(&mut scratch.cur_core_onion, &mut scratch.next_core_onion);
            cur_has_headers = next_has_headers;
            cur_has_core_onion = next_has_core_onion;
            now = depart;
        }
    }

    // Release at `tr`.
    if terminal_count > 0 {
        out.released_at = Some(tr);
        out.released_secret
            .extend_from_slice(&scratch.terminal_secret);
        messages += terminal_count;
    } else {
        out.failure = Some("no terminal onion row reconstructed the secret");
    }

    // Adversary reconstruction (strict quorum chain, real crypto).
    if config.attack == AttackMode::ReleaseAhead && adv_has_onion0 {
        if let Some(core_key0) = adv_direct_core_key {
            let mut when = ts;
            for col in 0..l {
                let key = if col == 0 {
                    // LINT-WAIVER(alloc): SymmetricKey is a 32-byte array wrapper, so clone is a stack copy
                    Some(core_key0.clone())
                } else {
                    let (idx, data) = scratch.adv_core.bucket(col);
                    if idx.len() >= m[col - 1] {
                        when =
                            when.max(ts + (config.emerging_period / l as u64) * (col as u64 - 1));
                        combine_key_slab(
                            idx,
                            data,
                            m[col - 1],
                            &mut scratch.weight_cache,
                            &mut scratch.key_out,
                        )?
                    } else {
                        None
                    }
                };
                let Some(key) = key else {
                    break;
                };
                let kind = peel_in_place(&key, &mut scratch.adv_onion, &mut scratch.onion_payload)
                    .map_err(EmergeError::Crypto)?;
                if col + 1 == l && kind != LayerKind::Core {
                    return Err(EmergeError::Crypto(CryptoError::Malformed(
                        "expected core onion layer, found intermediate",
                    )));
                }
                if kind == LayerKind::Core {
                    if when < tr {
                        out.adversary_at = Some(when);
                        out.adversary_secret.extend_from_slice(&scratch.adv_onion);
                    }
                    break;
                }
            }
        }
    }

    out.messages_sent = messages;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{build_keyed_packages, build_share_packages, KeySchedule};
    use crate::path::construct_paths;
    use crate::substrate::{AnalyticSubstrate, OverlayConfig};
    use emerge_sim::shard::TrialDigest;

    const SECRET: &[u8] = b"THE SELF-EMERGING SECRET KEY 32B";

    fn overlay_with(n: usize, p: f64, seed: u64) -> AnalyticSubstrate {
        AnalyticSubstrate::build(
            OverlayConfig {
                n_nodes: n,
                malicious_fraction: p,
                ..OverlayConfig::default()
            },
            seed,
        )
    }

    fn run_config(attack: AttackMode) -> RunConfig {
        RunConfig {
            ts: SimTime::from_ticks(0),
            emerging_period: SimDuration::from_ticks(3000),
            attack,
        }
    }

    fn keyed_setup(
        params: &SchemeParams,
        p: f64,
        seed: u64,
    ) -> (AnalyticSubstrate, PathPlan, KeyedPackages) {
        let overlay = overlay_with(100, p, seed);
        let sender_seed = SymmetricKey::from_bytes([seed as u8; 32]);
        let plan = construct_paths(&overlay, params, &sender_seed).unwrap();
        let schedule = KeySchedule::new(sender_seed);
        let pkgs = build_keyed_packages(&plan, params, &schedule, SECRET).unwrap();
        (overlay, plan, pkgs)
    }

    #[test]
    fn clean_joint_run_releases_at_tr() {
        let params = SchemeParams::Joint { k: 2, l: 3 };
        let (mut overlay, plan, pkgs) = keyed_setup(&params, 0.0, 1);
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        let (at, secret) = report.released.clone().expect("must release");
        assert_eq!(at, SimTime::from_ticks(3000));
        assert_eq!(secret, SECRET);
        assert!(report.adversary_reconstruction.is_none());
        assert!(report.clean_emergence(SimTime::from_ticks(3000)));
    }

    #[test]
    fn clean_disjoint_run_releases_at_tr() {
        let params = SchemeParams::Disjoint { k: 2, l: 3 };
        let (mut overlay, plan, pkgs) = keyed_setup(&params, 0.0, 2);
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        assert_eq!(report.released.unwrap().1, SECRET);
    }

    #[test]
    fn fully_malicious_population_releases_at_ts() {
        let params = SchemeParams::Joint { k: 2, l: 3 };
        let (mut overlay, plan, pkgs) = keyed_setup(&params, 1.0, 3);
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::ReleaseAhead),
        )
        .unwrap();
        let (at, secret) = report
            .adversary_reconstruction
            .expect("all-malicious must reconstruct");
        assert_eq!(at, SimTime::from_ticks(0), "reconstruction at ts");
        assert_eq!(secret, SECRET);
    }

    #[test]
    fn fully_malicious_population_drops_everything() {
        let params = SchemeParams::Joint { k: 2, l: 3 };
        let (mut overlay, plan, pkgs) = keyed_setup(&params, 1.0, 4);
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Drop),
        )
        .unwrap();
        assert!(report.released.is_none());
        assert!(report.failure.is_some());
    }

    #[test]
    fn passive_malicious_nodes_do_not_disrupt() {
        let params = SchemeParams::Joint { k: 2, l: 3 };
        let (mut overlay, plan, pkgs) = keyed_setup(&params, 0.5, 5);
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        assert_eq!(report.released.unwrap().1, SECRET);
        assert!(report.adversary_reconstruction.is_none());
    }

    #[test]
    fn share_clean_run_releases_at_tr() {
        let params = SchemeParams::Share {
            k: 2,
            l: 3,
            n: 5,
            m: vec![3, 3],
        };
        let mut overlay = overlay_with(100, 0.0, 6);
        let sender_seed = SymmetricKey::from_bytes([6; 32]);
        let plan = construct_paths(&overlay, &params, &sender_seed).unwrap();
        let schedule = KeySchedule::new(sender_seed);
        let pkgs = build_share_packages(&plan, &params, &schedule, SECRET).unwrap();
        let report = execute_share(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        let (at, secret) = report.released.expect("share flow must deliver");
        assert_eq!(at, SimTime::from_ticks(3000));
        assert_eq!(secret, SECRET);
    }

    #[test]
    fn share_all_malicious_reconstructs_and_drops() {
        let params = SchemeParams::Share {
            k: 2,
            l: 3,
            n: 5,
            m: vec![3, 3],
        };
        let mut overlay = overlay_with(100, 1.0, 7);
        let sender_seed = SymmetricKey::from_bytes([7; 32]);
        let plan = construct_paths(&overlay, &params, &sender_seed).unwrap();
        let schedule = KeySchedule::new(sender_seed);
        let pkgs = build_share_packages(&plan, &params, &schedule, SECRET).unwrap();

        let release = execute_share(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::ReleaseAhead),
        )
        .unwrap();
        let (_, secret) = release
            .adversary_reconstruction
            .expect("full quorum must reconstruct");
        assert_eq!(secret, SECRET);

        let drop = execute_share(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Drop),
        )
        .unwrap();
        assert!(drop.released.is_none());
    }

    /// Folds every field of `report` into `d`. The frozen digests below
    /// pin executor outcomes as data: each constant was recorded while a
    /// second, independent executor (the allocating share executor, the
    /// nested v1 format, the event-queue keyed executor) still agreed
    /// with the surviving one on the same matrix.
    fn eat_report(d: &mut TrialDigest, report: &RunReport) {
        for outcome in [&report.released, &report.adversary_reconstruction] {
            match outcome {
                Some((at, secret)) => {
                    d.eat(&[1]);
                    d.eat(&at.ticks().to_le_bytes());
                    d.eat(&(secret.len() as u64).to_le_bytes());
                    d.eat(secret);
                }
                None => d.eat(&[0]),
            }
        }
        match &report.failure {
            Some(reason) => {
                d.eat(&[1]);
                d.eat(reason.as_bytes());
            }
            None => d.eat(&[0]),
        }
        d.eat(&report.messages_sent.to_le_bytes());
    }

    #[test]
    fn reused_share_scratch_matches_one_shot_runs_and_frozen_digest() {
        // One scratch/report pair reused across every shape, malicious
        // fraction, churn level and attack mode must reproduce the
        // one-shot executor (fresh buffers) bit for bit, and the 72
        // reports must digest to the value recorded against the retired
        // allocating executor.
        const FROZEN: u64 = 0x13ac_f177_0031_a517;
        let mut digest = TrialDigest::new();
        let mut runs = 0;
        let mut scratch = ShareExecScratch::default();
        let mut pooled = PooledRunReport::default();
        let shapes = [
            (2usize, 3usize, 5usize, vec![3usize, 3]),
            (3, 4, 9, vec![4, 5, 5]),
            (2, 2, 6, vec![3]),
            (1, 1, 4, vec![]),
        ];
        let mut case = 0u64;
        for (k, l, n, m) in shapes {
            let params = SchemeParams::Share { k, l, n, m };
            for fraction in [0.0, 0.3, 1.0] {
                for lifetime in [None, Some(2_000u64)] {
                    case += 1;
                    let mut overlay = AnalyticSubstrate::build(
                        OverlayConfig {
                            n_nodes: 80,
                            malicious_fraction: fraction,
                            mean_lifetime: lifetime,
                            horizon: 100_000,
                        },
                        case,
                    );
                    let sender_seed = SymmetricKey::from_bytes([case as u8; 32]);
                    let plan = construct_paths(&overlay, &params, &sender_seed).unwrap();
                    let schedule = KeySchedule::new(sender_seed);
                    let pkgs = build_share_packages(&plan, &params, &schedule, SECRET).unwrap();
                    for attack in [
                        AttackMode::Passive,
                        AttackMode::ReleaseAhead,
                        AttackMode::Drop,
                    ] {
                        let config = run_config(attack);
                        let one_shot =
                            execute_share(&mut overlay, &plan, &params, &pkgs, &config).unwrap();
                        execute_share_pooled(
                            &mut overlay,
                            &plan,
                            &params,
                            &pkgs,
                            &config,
                            &mut scratch,
                            &mut pooled,
                        )
                        .unwrap();
                        assert_eq!(
                            pooled.to_report(),
                            one_shot,
                            "reused/fresh divergence: case {case} attack {attack:?}"
                        );
                        eat_report(&mut digest, &one_shot);
                        runs += 1;
                    }
                }
            }
        }
        assert_eq!(runs, 72);
        assert_eq!(digest.finish(), FROZEN, "share executor drifted");
    }

    #[test]
    fn keyed_runs_match_frozen_digest() {
        // Disjoint and joint across malicious fractions, churn and attack
        // modes. The constant was recorded on the event-queue executor
        // this column loop replaced.
        const FROZEN: u64 = 0x44b8_ca7b_e875_17bb;
        let mut digest = TrialDigest::new();
        let mut case = 0u64;
        for params in [
            SchemeParams::Disjoint { k: 3, l: 4 },
            SchemeParams::Joint { k: 3, l: 4 },
        ] {
            for fraction in [0.0, 0.35, 1.0] {
                for lifetime in [None, Some(2_000u64)] {
                    case += 1;
                    let mut overlay = AnalyticSubstrate::build(
                        OverlayConfig {
                            n_nodes: 80,
                            malicious_fraction: fraction,
                            mean_lifetime: lifetime,
                            horizon: 100_000,
                        },
                        case,
                    );
                    let sender_seed = SymmetricKey::from_bytes([case as u8; 32]);
                    let plan = construct_paths(&overlay, &params, &sender_seed).unwrap();
                    let schedule = KeySchedule::new(sender_seed);
                    let pkgs = build_keyed_packages(&plan, &params, &schedule, SECRET).unwrap();
                    for attack in [
                        AttackMode::Passive,
                        AttackMode::ReleaseAhead,
                        AttackMode::Drop,
                    ] {
                        let report =
                            execute_keyed(&mut overlay, &plan, &params, &pkgs, &run_config(attack))
                                .unwrap();
                        eat_report(&mut digest, &report);
                    }
                }
            }
        }
        assert_eq!(case, 12);
        assert_eq!(digest.finish(), FROZEN, "keyed executor drifted");
    }

    #[test]
    fn share_runs_on_hostile_churny_worlds_match_frozen_digest() {
        // Drops, leaks and share starvation all occur across these seeds.
        // The constant was recorded while the nested v1 package format and
        // its executor produced the same 24 reports.
        const FROZEN: u64 = 0x7b97_d38d_b77c_12fd;
        let grids = [
            SchemeParams::Share {
                k: 2,
                l: 3,
                n: 5,
                m: vec![3, 3],
            },
            SchemeParams::Share {
                k: 3,
                l: 5,
                n: 8,
                m: vec![4, 4, 4, 5],
            },
        ];
        let mut digest = TrialDigest::new();
        let mut runs = 0usize;
        for params in &grids {
            for attack in [
                AttackMode::Passive,
                AttackMode::ReleaseAhead,
                AttackMode::Drop,
            ] {
                for seed in 0..4u64 {
                    let cfg = OverlayConfig {
                        n_nodes: 150,
                        malicious_fraction: 0.35,
                        mean_lifetime: Some(9_000),
                        horizon: 100_000,
                    };
                    let sender = SymmetricKey::from_bytes([seed as u8 + 100; 32]);
                    let mut world = AnalyticSubstrate::build(cfg, seed);
                    let plan = construct_paths(&world, params, &sender).unwrap();
                    let pkgs =
                        build_share_packages(&plan, params, &KeySchedule::new(sender), SECRET)
                            .unwrap();
                    let report =
                        execute_share(&mut world, &plan, params, &pkgs, &run_config(attack))
                            .unwrap();
                    eat_report(&mut digest, &report);
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 24);
        assert_eq!(digest.finish(), FROZEN, "share reports drifted");
    }

    #[test]
    fn central_behaviour_matches_malicious_rate_extremes() {
        for (p, seed) in [(0.0f64, 8u64), (1.0, 9)] {
            let mut overlay = overlay_with(50, p, seed);
            let sender_seed = SymmetricKey::from_bytes([seed as u8; 32]);
            let plan = construct_paths(&overlay, &SchemeParams::Central, &sender_seed).unwrap();
            let mut report = PooledRunReport::default();
            run_central(
                &mut overlay,
                &plan,
                SECRET,
                &run_config(AttackMode::ReleaseAhead),
                &mut report,
            )
            .unwrap();
            if p == 0.0 {
                assert!(report.adversary_at.is_none());
                assert!(report.released_at.is_some());
            } else {
                assert!(report.adversary_at.is_some());
            }
        }
    }

    #[test]
    fn churned_share_run_still_delivers_with_headroom() {
        // Thresholds far below n tolerate the deaths over a short run.
        let params = SchemeParams::Share {
            k: 3,
            l: 3,
            n: 9,
            m: vec![3, 3],
        };
        let mut overlay = AnalyticSubstrate::build(
            OverlayConfig {
                n_nodes: 100,
                malicious_fraction: 0.0,
                mean_lifetime: Some(30_000), // 10x the emerging period
                horizon: 100_000,
            },
            10,
        );
        let sender_seed = SymmetricKey::from_bytes([10; 32]);
        let plan = construct_paths(&overlay, &params, &sender_seed).unwrap();
        let schedule = KeySchedule::new(sender_seed);
        let pkgs = build_share_packages(&plan, &params, &schedule, SECRET).unwrap();
        let report = execute_share(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        assert_eq!(
            report.released.map(|(_, s)| s),
            Some(SECRET.to_vec()),
            "failure: {:?}",
            report.failure
        );
    }

    #[test]
    fn keyed_and_central_executors_reject_mismatched_shapes() {
        let config = run_config(AttackMode::Passive);
        let wide = SchemeParams::Joint { k: 3, l: 3 };
        let narrow = SchemeParams::Joint { k: 2, l: 3 };
        let (mut overlay, wide_plan, _) = keyed_setup(&wide, 0.0, 12);
        let (_, narrow_plan, narrow_pkgs) = keyed_setup(&narrow, 0.0, 12);
        // Two-row packages on a three-row plan.
        let err = execute_keyed(&mut overlay, &wide_plan, &wide, &narrow_pkgs, &config);
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
        // A plan of another shape than the parameters.
        let err = execute_keyed(&mut overlay, &narrow_plan, &wide, &narrow_pkgs, &config);
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
        // Joint rows that differ: disjoint onions built on the joint plan
        // peel, but the joint route carries one onion.
        let disjoint = SchemeParams::Disjoint { k: 2, l: 3 };
        let schedule = KeySchedule::new(SymmetricKey::from_bytes([12; 32]));
        let rows_differ = build_keyed_packages(&narrow_plan, &disjoint, &schedule, SECRET).unwrap();
        assert_ne!(rows_differ.onions[0], rows_differ.onions[1]);
        let err = execute_keyed(&mut overlay, &narrow_plan, &narrow, &rows_differ, &config);
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
        // The centralized scheme needs a one-holder plan.
        let mut report = PooledRunReport::default();
        let err = run_central(&mut overlay, &wide_plan, SECRET, &config, &mut report);
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
        let err = run_central(
            &mut overlay,
            &PathPlan::default(),
            SECRET,
            &config,
            &mut report,
        );
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
    }

    #[test]
    fn share_executor_rejects_mismatched_shapes() {
        let config = run_config(AttackMode::Passive);
        let share = |n: usize, l: usize| SchemeParams::Share {
            k: 2,
            l,
            n,
            m: vec![3; l - 1],
        };
        let mut overlay = overlay_with(100, 0.0, 13);
        let sender = SymmetricKey::from_bytes([13; 32]);
        let setup = |params: &SchemeParams| {
            let plan = construct_paths(&overlay, params, &sender).unwrap();
            let pkgs =
                build_share_packages(&plan, params, &KeySchedule::new(sender.clone()), SECRET)
                    .unwrap();
            (plan, pkgs)
        };
        let (plan_6x3, _) = setup(&share(6, 3));
        let (plan_5x4, _) = setup(&share(5, 4));
        let (_, pkgs_5x3) = setup(&share(5, 3));
        // Five-row packages on a six-row plan.
        let err = execute_share(&mut overlay, &plan_6x3, &share(6, 3), &pkgs_5x3, &config);
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
        // A four-column plan run with three-column parameters.
        let err = execute_share(&mut overlay, &plan_5x4, &share(5, 3), &pkgs_5x3, &config);
        assert!(matches!(err, Err(EmergeError::InvalidParameters(_))));
    }

    #[test]
    fn joint_route_seals_and_opens_once_per_column() {
        // A joint 4x8 package is one onion of 8 layers, and a passive run
        // peels it once per column, however many holders each column has.
        let params = SchemeParams::Joint { k: 4, l: 8 };
        let mut world = overlay_with(10_000, 0.2, 26);
        let sender = SymmetricKey::from_bytes([26; 32]);
        let plan = construct_paths(&world, &params, &sender).unwrap();
        let schedule = KeySchedule::new(sender);
        let calls = |snapshot: &emerge_obs::MetricsSnapshot| {
            let read = |name| snapshot.counter(name).unwrap_or(0);
            (
                read("crypto.aead.seal.calls"),
                read("crypto.aead.open.calls"),
            )
        };
        let previous = emerge_obs::collector::install(emerge_obs::Collector::new());
        let pkgs = build_keyed_packages(&plan, &params, &schedule, SECRET).unwrap();
        let built = emerge_obs::collector::snapshot().unwrap();
        let report = execute_keyed(
            &mut world,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        let ran = emerge_obs::collector::take().unwrap().snapshot();
        if let Some(previous) = previous {
            emerge_obs::collector::install(previous);
        }
        assert_eq!(calls(&built), (8, 0), "(seals, opens) of the build");
        assert_eq!(calls(&ran), (8, 8), "(seals, opens) after the run");
        assert_eq!(
            report.released.map(|(_, secret)| secret),
            Some(SECRET.to_vec())
        );
    }

    #[test]
    fn keyed_report_counts_messages() {
        let params = SchemeParams::Joint { k: 2, l: 3 };
        let (mut overlay, plan, pkgs) = keyed_setup(&params, 0.0, 11);
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &run_config(AttackMode::Passive),
        )
        .unwrap();
        assert!(report.messages_sent > 2, "hops must generate traffic");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Liveness: in a clean network every keyed configuration
            /// delivers the exact secret at exactly tr.
            #[test]
            fn clean_keyed_runs_always_deliver(
                k in 1usize..5,
                l in 1usize..5,
                joint: bool,
                seed in 0u64..1000,
            ) {
                let params = if joint {
                    SchemeParams::Joint { k, l }
                } else {
                    SchemeParams::Disjoint { k, l }
                };
                let (mut overlay, plan, pkgs) = keyed_setup(&params, 0.0, seed);
                let report = execute_keyed(
                    &mut overlay,
                    &plan,
                    &params,
                    &pkgs,
                    &run_config(AttackMode::Passive),
                )
                .unwrap();
                let (at, secret) = report.released.clone().expect("clean run delivers");
                prop_assert_eq!(at, SimTime::from_ticks(3000));
                prop_assert_eq!(&secret[..], SECRET);
                prop_assert!(report.adversary_reconstruction.is_none());
            }

            /// Liveness for the share scheme across valid (k, n, m, l).
            #[test]
            fn clean_share_runs_always_deliver(
                k in 1usize..4,
                extra_rows in 0usize..4,
                l in 2usize..5,
                seed in 0u64..1000,
            ) {
                let n = k + extra_rows;
                let m: Vec<usize> = (1..l).map(|_| (n / 2).max(1)).collect();
                let params = SchemeParams::Share { k, l, n, m };
                let mut overlay = overlay_with(100, 0.0, seed);
                let sender_seed = SymmetricKey::from_bytes([seed as u8; 32]);
                let plan = construct_paths(&overlay, &params, &sender_seed).unwrap();
                let schedule = KeySchedule::new(sender_seed);
                let pkgs =
                    build_share_packages(&plan, &params, &schedule, SECRET).unwrap();
                let report = execute_share(
                    &mut overlay,
                    &plan,
                    &params,
                    &pkgs,
                    &run_config(AttackMode::Passive),
                )
                .unwrap();
                let (at, secret) = report.released.clone().expect("clean share run delivers");
                prop_assert_eq!(at, SimTime::from_ticks(3000));
                prop_assert_eq!(&secret[..], SECRET);
            }

            /// Safety: with every node malicious and dropping, nothing is
            /// ever released.
            #[test]
            fn total_drop_never_releases(
                k in 1usize..4,
                l in 1usize..4,
                seed in 0u64..1000,
            ) {
                let params = SchemeParams::Joint { k, l };
                let (mut overlay, plan, pkgs) = keyed_setup(&params, 1.0, seed);
                let report = execute_keyed(
                    &mut overlay,
                    &plan,
                    &params,
                    &pkgs,
                    &run_config(AttackMode::Drop),
                )
                .unwrap();
                prop_assert!(report.released.is_none());
            }
        }
    }
}

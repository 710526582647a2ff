//! The package transmission protocol (Section III): hop-by-hop execution
//! of a send operation on the simulated DHT, with real onions, real
//! shares, churn, and optional attacks.
//!
//! The run is driven by hop-deadline events on the discrete-event engine:
//! packages arrive at column `c` at `t_c = ts + c·th`, rest for one
//! holding period, and move at `t_{c+1}`. Holders peel with keys they were
//! pre-assigned (keyed schemes) or just reconstructed from shares (share
//! scheme). Malicious holders behave according to the [`AttackMode`]:
//! under [`AttackMode::Drop`] they withhold everything; under
//! [`AttackMode::ReleaseAhead`] they cooperate outwardly while copying all
//! material into the adversary's ledger, which then attempts a *real*
//! cryptographic reconstruction of the secret.

use crate::config::SchemeParams;
use crate::error::EmergeError;
use crate::package::{
    decode_segment_headers, decode_segment_headers_into, open_header_for_executor,
    open_header_into, open_segment_headers, open_segment_headers_into, parse_share_segment_spans,
    visit_executor_payload, KeyedPackages, SegmentHeaders, SharePackage, SharePackages,
};
use crate::path::PathPlan;
use crate::substrate::HolderSubstrate;
use emerge_crypto::keys::{KeyShare, SymmetricKey};
use emerge_crypto::onion::{peel, peel_core, peel_in_place, LayerKind, Peeled};
use emerge_crypto::shamir;
use emerge_crypto::CryptoError;
use emerge_sim::engine::Engine;
use emerge_sim::time::{SimDuration, SimTime};
use std::rc::Rc;

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

/// Events driving a protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Packages arrive at column `col` and are processed.
    Arrive { col: usize },
    /// Terminal holders release the secret to the receiver.
    Release,
}

/// Executes a keyed-scheme (disjoint/joint) run.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for mismatched parameters.
pub fn execute_keyed<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    params: &SchemeParams,
    packages: &KeyedPackages,
    config: &RunConfig,
) -> Result<RunReport, EmergeError> {
    let joint = match params {
        SchemeParams::Disjoint { .. } => false,
        SchemeParams::Joint { .. } => true,
        _ => {
            return Err(EmergeError::InvalidParameters(
                "execute_keyed requires disjoint or joint parameters".into(),
            ))
        }
    };
    let (rows, cols) = (plan.rows, plan.cols);
    let th = config.emerging_period / cols as u64;
    let ts = config.ts;
    let tr = ts + config.emerging_period;

    // Onion in flight per grid position.
    let mut onions: Vec<Option<Vec<u8>>> = vec![None; rows * cols];
    for row in 0..rows {
        onions[row * cols] = Some(packages.onions[row].clone());
    }

    let mut messages = rows as u64; // initial deliveries from the sender
    let mut released: Option<(SimTime, Vec<u8>)> = None;
    let mut failure: Option<String> = None;
    let mut terminal_secrets: Vec<Vec<u8>> = Vec::new();

    // Adversary ledger: earliest acquisition time of each column key, and
    // of an onion copy (with its bytes and the column it was taken at).
    let mut adv_key_time: Vec<Option<SimTime>> = vec![None; cols];
    let mut adv_onions: Vec<(SimTime, usize, Vec<u8>)> = Vec::new();

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

    let mut engine: Engine<Ev> = Engine::new();
    engine.schedule_at(ts, Ev::Arrive { col: 0 });

    while let Some((now, ev)) = engine.pop() {
        match ev {
            Ev::Arrive { col } => {
                let depart = now + th;
                let mut next: Vec<Option<Vec<u8>>> = vec![None; rows];
                for row in 0..rows {
                    let Some(onion) = onions[row * cols + col].take() else {
                        continue;
                    };
                    let slot = plan.slot(row, col);
                    // Release-ahead adversary copies the (pre-peel) onion
                    // on any malicious contact during the stay.
                    if config.attack == AttackMode::ReleaseAhead {
                        if let Some(t) = substrate.first_malicious_exposure(slot, now, depart) {
                            adv_onions.push((t, col, onion.clone()));
                        }
                    }
                    // Drop attack: any malicious tenant during the stay
                    // destroys the copy (replication cannot resurrect what
                    // a malicious node refuses to hand over).
                    if config.attack == AttackMode::Drop
                        && substrate.any_malicious_exposure(slot, now, depart)
                    {
                        continue;
                    }
                    // Peel this layer with the pre-assigned column key.
                    match peel(&packages.column_keys[col], &onion) {
                        Ok(Peeled::Intermediate { inner, .. }) => {
                            if joint {
                                // Forward to the whole next column; a single
                                // survivor feeds every next holder.
                                for slot_next in &mut next {
                                    if slot_next.is_none() {
                                        *slot_next = Some(inner.clone());
                                    }
                                }
                                messages += rows as u64;
                            } else {
                                next[row] = Some(inner.clone());
                                messages += 1;
                            }
                        }
                        Ok(Peeled::Core { .. }) => {
                            // Terminal layer: recover via peel_core below.
                            let (_, secret) = peel_core(&packages.column_keys[col], &onion)?;
                            terminal_secrets.push(secret);
                        }
                        Err(e) => return Err(EmergeError::Crypto(e)),
                    }
                }
                if col + 1 < cols {
                    for (row, n) in next.into_iter().enumerate() {
                        if let Some(bytes) = n {
                            onions[row * cols + col + 1] = Some(bytes);
                        }
                    }
                    engine.schedule_at(depart, Ev::Arrive { col: col + 1 });
                } else {
                    engine.schedule_at(tr, Ev::Release);
                }
            }
            Ev::Release => {
                if let Some(secret) = terminal_secrets.first() {
                    released = Some((now, secret.clone()));
                    messages += terminal_secrets.len() as u64;
                } else {
                    failure = Some("no terminal holder delivered the secret".into());
                }
            }
        }
    }
    if released.is_none() && failure.is_none() {
        failure = Some("onion lost in transit before the terminal column".into());
    }

    // Adversary reconstruction: take the best onion copy and peel it with
    // the leaked column keys. Every key for columns >= the copy's column
    // must be available; the reconstruction time is the max acquisition
    // instant. Reconstruction uses the real ciphertexts.
    let mut adversary_reconstruction: Option<(SimTime, Vec<u8>)> = None;
    if config.attack == AttackMode::ReleaseAhead {
        for (t_onion, col0, bytes) in &adv_onions {
            let mut when = *t_onion;
            let keys: Option<Vec<&SymmetricKey>> = (*col0..cols)
                .map(|c| {
                    adv_key_time[c].map(|t| {
                        when = when.max(t);
                        &packages.column_keys[c]
                    })
                })
                .collect();
            let Some(keys) = keys else { continue };
            if when >= tr {
                continue; // no gain over waiting for the legitimate release
            }
            // Really peel it.
            let mut onion = bytes.clone();
            let mut secret = None;
            for (i, key) in keys.iter().enumerate() {
                if *col0 + i + 1 == cols {
                    let (_, s) = peel_core(key, &onion)?;
                    secret = Some(s);
                } else {
                    match peel(key, &onion)? {
                        Peeled::Intermediate { inner, .. } => onion = inner,
                        Peeled::Core { payload } => {
                            secret = Some(payload);
                            break;
                        }
                    }
                }
            }
            // LINT-WAIVER(panic): the peel loop above always reduces a valid keyed onion to its core
            let secret = secret.expect("keyed onion must peel to a core");
            let better = match &adversary_reconstruction {
                None => true,
                Some((prev, _)) => when < *prev,
            };
            if better {
                adversary_reconstruction = Some((when, secret));
            }
        }
    }

    Ok(RunReport {
        released,
        failure,
        adversary_reconstruction,
        messages_sent: messages,
    })
}

/// Executes a key-share routing run.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for mismatched parameters.
pub fn execute_share<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    params: &SchemeParams,
    packages: &SharePackages,
    config: &RunConfig,
) -> Result<RunReport, EmergeError> {
    let (k, l, n, m) = match params {
        SchemeParams::Share { k, l, n, m } => (*k, *l, *n, m.clone()),
        _ => {
            return Err(EmergeError::InvalidParameters(
                "execute_share requires share parameters".into(),
            ))
        }
    };
    let th = config.emerging_period / l as u64;
    let ts = config.ts;
    let tr = ts + config.emerging_period;

    // Parse the flat package once. The sealed segment table is immutable
    // and shared by every holder; what travels hop to hop is the opened
    // header table of the current column (plus, conceptually, the
    // still-sealed tail of the table — identical bytes from every
    // forwarder, so holding one `Rc` to the whole table models it
    // exactly).
    let package = SharePackage::from_bytes(&packages.package)?;
    if package.segments.len() != l {
        return Err(EmergeError::InvalidParameters(format!(
            "share package has {} segments for an l = {l} run",
            package.segments.len()
        )));
    }
    let mut segments = package.segments;
    let headers0: Rc<SegmentHeaders> =
        Rc::new(decode_segment_headers(std::mem::take(&mut segments[0]))?);

    /// In-flight state of one holder position.
    #[derive(Default, Clone)]
    struct Inbox {
        /// This column's opened header table (same blob from every
        /// forwarder; one kept). `Rc`-shared: every holder of a column
        /// carries identical bytes, so pointer identity lets the
        /// per-column hot loop open the next sealed segment once instead
        /// of once per row. `None` means no honest upstream forwarder
        /// delivered the package tail.
        headers: Option<Rc<SegmentHeaders>>,
        core_onion: Option<Vec<u8>>,
        key_shares: Vec<KeyShare>,
        core_shares: Vec<KeyShare>,
        direct_row_key: Option<SymmetricKey>,
        direct_core_key: Option<SymmetricKey>,
    }

    let mut inboxes: Vec<Inbox> = vec![Inbox::default(); n * l];
    for row in 0..n {
        let inbox = &mut inboxes[row * l];
        inbox.headers = Some(headers0.clone());
        inbox.direct_row_key = Some(packages.col0_row_keys[row].clone());
        if row < k {
            inbox.core_onion = Some(packages.core_onion.clone());
            inbox.direct_core_key = Some(packages.col0_core_key.clone());
        }
    }

    let mut messages = n as u64;
    let mut released: Option<(SimTime, Vec<u8>)> = None;
    let mut failure: Option<String> = None;
    let mut terminal_secrets: Vec<Vec<u8>> = Vec::new();

    // Adversary ledger: per column, the count of malicious receivers and
    // the share material they leaked; plus leaked onion/core copies.
    let mut adv_key_shares: Vec<Vec<KeyShare>> = vec![Vec::new(); l]; // for col c key (row 0's key as witness)
    let mut adv_core_shares: Vec<Vec<KeyShare>> = vec![Vec::new(); l];
    let mut adv_core_onion_col0: Option<Vec<u8>> = None;
    let mut adv_direct_core_key: Option<SymmetricKey> = None;

    let mut engine: Engine<Ev> = Engine::new();
    engine.schedule_at(ts, Ev::Arrive { col: 0 });

    // Lagrange-weight memo shared by every reconstruction of the run:
    // within a column all holders combine shares from the same surviving
    // rows, so the O(m²) basis computation runs ~once per column.
    let mut weight_cache = shamir::WeightCache::default();

    while let Some((now, ev)) = engine.pop() {
        match ev {
            Ev::Arrive { col } => {
                let depart = now + th;
                // Plan of what each next-column holder will receive.
                let mut next: Vec<Inbox> = vec![Inbox::default(); n];
                // Per-column memo: the transit redundancy hands every
                // holder the same opened header table, so the AEAD open of
                // the next sealed segment is computed once and reused by
                // pointer identity (a divergent table or key still
                // recomputes). With the flat format this is a single
                // `O(n·header)` segment open — no parse or re-wrap of
                // deeper columns ever happens.
                let mut unwrap_memo: Option<(
                    Rc<SegmentHeaders>,
                    SymmetricKey,
                    Rc<SegmentHeaders>,
                )> = None;
                for row in 0..n {
                    let inbox = std::mem::take(&mut inboxes[row * l + col]);
                    let slot = plan.slot(row, col);
                    let tenant = *substrate.generation_at(slot, now);

                    // Reconstruct this holder's row key.
                    let row_key = if col == 0 {
                        inbox.direct_row_key.clone()
                    } else if inbox.key_shares.len() >= m[col - 1] {
                        combine_key_cached(&inbox.key_shares, m[col - 1], &mut weight_cache)?
                    } else {
                        None
                    };
                    let Some(row_key) = row_key else {
                        continue; // starved: cannot act this hop
                    };
                    let Some(headers) = inbox.headers.clone() else {
                        continue; // no honest forwarder upstream delivered
                    };
                    let Some(header) = headers.get(row) else {
                        return Err(EmergeError::InvalidParameters(
                            "segment is missing this row's header".into(),
                        ));
                    };

                    // Malicious receiver leaks its direct material.
                    if config.attack == AttackMode::ReleaseAhead && tenant.malicious && col == 0 {
                        if let Some(core) = &inbox.core_onion {
                            adv_core_onion_col0 = Some(core.clone());
                        }
                        if inbox.direct_core_key.is_some() {
                            adv_direct_core_key = inbox.direct_core_key.clone();
                        }
                    }

                    // Drop attack: malicious tenants withhold everything.
                    if config.attack == AttackMode::Drop && tenant.malicious {
                        continue;
                    }
                    // Churn: a tenant dying mid-hold takes its *shares*
                    // with it (key material is never re-homed), but the
                    // opaque package/onion blobs are re-homed to the slot
                    // replacement by DHT replication and still move.
                    let survivor = substrate.generation_at(slot, depart).spawn == tenant.spawn;

                    // Open this row's header (executor-path parse: the
                    // next-hop list is validated but not materialized —
                    // forwarding goes by grid position).
                    let mut payload = open_header_for_executor(&row_key, header)?;

                    // Adversary copies the payload's onward shares.
                    if config.attack == AttackMode::ReleaseAhead && tenant.malicious && col + 1 < l
                    {
                        // Witness: row 0's next-column key-shares; the core
                        // shares matter for the actual reconstruction.
                        if let Some(s) = payload.row_key_shares.first() {
                            adv_key_shares[col + 1].push(s.clone());
                        }
                        if let Some(s) = &payload.core_key_share {
                            adv_core_shares[col + 1].push(s.clone());
                        }
                    }

                    // Open the next column's segment for relay (once per
                    // distinct header table and key; every row after the
                    // first is a memo hit).
                    let next_headers: Option<Rc<SegmentHeaders>> = match &payload.bundle_key {
                        Some(bk) if col + 1 < l => Some(match &unwrap_memo {
                            Some((table, key, opened))
                                if Rc::ptr_eq(table, &headers) && key == bk =>
                            {
                                opened.clone()
                            }
                            _ => {
                                let opened = Rc::new(open_segment_headers(bk, &segments[col + 1])?);
                                unwrap_memo = Some((headers.clone(), bk.clone(), opened.clone()));
                                opened
                            }
                        }),
                        _ => None,
                    };

                    // Onion rows also process the core onion.
                    let mut inner_core: Option<Vec<u8>> = None;
                    let mut core_secret: Option<Vec<u8>> = None;
                    if row < k {
                        let core_key = if col == 0 {
                            inbox.direct_core_key.clone()
                        } else if inbox.core_shares.len() >= m[col - 1] {
                            combine_key_cached(&inbox.core_shares, m[col - 1], &mut weight_cache)?
                        } else {
                            None
                        };
                        if let (Some(core_key), Some(core_onion)) =
                            (core_key, inbox.core_onion.clone())
                        {
                            match peel(&core_key, &core_onion)? {
                                Peeled::Intermediate { inner, .. } => {
                                    inner_core = Some(inner);
                                }
                                Peeled::Core { payload } => {
                                    core_secret = Some(payload);
                                }
                            }
                        }
                    }

                    if col + 1 == l {
                        if let Some(secret) = core_secret {
                            terminal_secrets.push(secret);
                        }
                        continue;
                    }

                    // Forward. Shares travel only if the tenant survived
                    // the hold; package/onion blobs always move (re-homed
                    // on death). The payload is this holder's own copy,
                    // so its shares move into the next inboxes instead of
                    // being cloned (the dominant allocation of the loop).
                    if survivor {
                        for (target_row, s) in payload.row_key_shares.drain(..).enumerate() {
                            if let Some(next_inbox) = next.get_mut(target_row) {
                                next_inbox.key_shares.push(s);
                                messages += 1;
                            }
                        }
                        if let Some(s) = &payload.core_key_share {
                            for next_inbox in next.iter_mut().take(k) {
                                next_inbox.core_shares.push(s.clone());
                            }
                        }
                    }
                    if let Some(nh) = next_headers {
                        for next_inbox in &mut next {
                            if next_inbox.headers.is_none() {
                                next_inbox.headers = Some(nh.clone());
                                messages += 1;
                            }
                        }
                    }
                    if row < k {
                        if let Some(inner) = inner_core {
                            for next_inbox in next.iter_mut().take(k) {
                                if next_inbox.core_onion.is_none() {
                                    next_inbox.core_onion = Some(inner.clone());
                                    messages += 1;
                                }
                            }
                        }
                    }
                }

                if col + 1 < l {
                    for (row, nb) in next.into_iter().enumerate() {
                        inboxes[row * l + col + 1] = nb;
                    }
                    engine.schedule_at(depart, Ev::Arrive { col: col + 1 });
                } else {
                    engine.schedule_at(tr, Ev::Release);
                }
            }
            Ev::Release => {
                if let Some(secret) = terminal_secrets.first() {
                    released = Some((now, secret.clone()));
                    messages += terminal_secrets.len() as u64;
                } else {
                    failure = Some("no terminal onion row reconstructed the secret".into());
                }
            }
        }
    }
    if released.is_none() && failure.is_none() {
        failure = Some("share flow starved before the terminal column".into());
    }

    // Adversary reconstruction (strict quorum chain, real crypto): needs
    // the core onion from column 0 plus enough core-key shares at every
    // later column boundary.
    let mut adversary_reconstruction: Option<(SimTime, Vec<u8>)> = None;
    if config.attack == AttackMode::ReleaseAhead {
        if let (Some(core_onion), Some(core_key0)) = (adv_core_onion_col0, adv_direct_core_key) {
            let mut onion = core_onion;
            let mut ok = true;
            let mut when = ts;
            for col in 0..l {
                let key = if col == 0 {
                    Some(core_key0.clone())
                } else if adv_core_shares[col].len() >= m[col - 1] {
                    when = when.max(ts + (config.emerging_period / l as u64) * (col as u64 - 1));
                    combine_key(&adv_core_shares[col], m[col - 1])?
                } else {
                    None
                };
                let Some(key) = key else {
                    ok = false;
                    break;
                };
                if col + 1 == l {
                    let (_, secret) = peel_core(&key, &onion)?;
                    if when < tr {
                        adversary_reconstruction = Some((when, secret));
                    }
                } else {
                    match peel(&key, &onion)? {
                        Peeled::Intermediate { inner, .. } => onion = inner,
                        Peeled::Core { payload } => {
                            if when < tr {
                                adversary_reconstruction = Some((when, payload));
                            }
                            break;
                        }
                    }
                }
            }
            let _ = ok;
        }
    }

    Ok(RunReport {
        released,
        failure,
        adversary_reconstruction,
        messages_sent: messages,
    })
}

/// Executes the centralized scheme: one holder stores the secret for the
/// whole period.
pub fn execute_central<S: HolderSubstrate + ?Sized>(
    substrate: &mut S,
    plan: &PathPlan,
    secret: &[u8],
    config: &RunConfig,
) -> Result<RunReport, EmergeError> {
    let slot = plan.slot(0, 0);
    let ts = config.ts;
    let tr = ts + config.emerging_period;

    let exposed = substrate.any_malicious_exposure(slot, ts, tr);
    let mut report = RunReport {
        released: None,
        failure: None,
        adversary_reconstruction: None,
        messages_sent: 2,
    };
    match config.attack {
        AttackMode::Drop if exposed => {
            report.failure = Some("central holder destroyed the key".into());
        }
        AttackMode::ReleaseAhead if exposed => {
            let t = substrate
                .first_malicious_exposure(slot, ts, tr)
                // LINT-WAIVER(panic): first_malicious_exposure is Some exactly when exposure was reported
                .expect("exposure implies a first exposure");
            report.adversary_reconstruction = Some((t, secret.to_vec()));
            report.released = Some((tr, secret.to_vec()));
        }
        _ => {
            report.released = Some((tr, secret.to_vec()));
        }
    }
    Ok(report)
}

/// Combines key shares into a 32-byte symmetric key.
///
/// Convenience form of [`combine_key_cached`] for one-off call sites.
fn combine_key(shares: &[KeyShare], m: usize) -> Result<Option<SymmetricKey>, EmergeError> {
    combine_key_cached(shares, m, &mut shamir::WeightCache::default())
}

/// Combines key shares into a 32-byte symmetric key, memoizing the
/// Lagrange weights across calls with the same share-index set — the
/// common case in the executor's per-column reconstruction loop, where
/// every holder's shares come from the same surviving rows.
fn combine_key_cached(
    shares: &[KeyShare],
    m: usize,
    cache: &mut shamir::WeightCache,
) -> Result<Option<SymmetricKey>, EmergeError> {
    match shamir::combine_cached(shares, m, cache) {
        Ok(bytes) if bytes.len() == 32 => {
            let mut kb = [0u8; 32];
            kb.copy_from_slice(&bytes);
            Ok(Some(SymmetricKey::from_bytes(kb)))
        }
        Ok(_) => Err(EmergeError::InvalidParameters(
            "reconstructed key has wrong length".into(),
        )),
        Err(emerge_crypto::CryptoError::NotEnoughShares { .. }) => Ok(None),
        Err(e) => Err(EmergeError::Crypto(e)),
    }
}

/// The outcome of one pooled protocol run: the same facts as
/// [`RunReport`], held in reusable buffers instead of per-run
/// allocations. The secret buffers are only meaningful when the matching
/// `_at` field is `Some`.
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

    /// Copies out an allocating [`RunReport`] — for oracle comparisons
    /// and cold callers.
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
/// up to `stride` `(index, share)` pairs in arrival order. Replaces the
/// per-inbox `Vec<KeyShare>` of the allocating executor; reset is an
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

/// Combines a `ShareBank` bucket into a 32-byte symmetric key —
/// [`combine_key_cached`] over slab storage, with identical outcome
/// mapping.
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

/// Executes a key-share routing run into reusable buffers.
///
/// Semantically identical to [`execute_share`] (the retained oracle):
/// same substrate query sequence, message accounting, adversary ledger,
/// failure strings and secrets — pinned equal by test across substrates,
/// attack modes and churn. The differences are purely representational:
///
/// - the package is parsed as spans over `packages.package` instead of
///   per-segment copies;
/// - in-flight shares live in fixed-stride `ShareBank` slabs instead
///   of per-inbox `Vec<KeyShare>`s;
/// - per-column state (header table, core onion) is held once per
///   column — the allocating executor's per-row `Rc`s and option flags
///   always carry column-uniform values, a consequence of the uniform
///   forwarding loops — and the redundant per-row core-onion peels
///   (identical inputs, identical outputs) collapse to one peel per
///   column;
/// - the trivially sequential event schedule (arrive columns `0..l`,
///   then release at `tr`) is a plain loop instead of an [`Engine`].
///
/// One scope restriction: this path requires the 32-byte shares that
/// [`crate::package::build_share_packages`] emits and rejects others
/// with [`EmergeError::InvalidParameters`]; foreign packages with
/// exotic share lengths must go through [`execute_share`]. (The unused
/// witness ledger of row-0 key shares kept by the oracle is dropped —
/// it is never read.)
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] for mismatched parameters
/// and propagates crypto failures exactly as [`execute_share`] does.
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

    out.released_at = None;
    out.released_secret.clear();
    out.failure = None;
    out.adversary_at = None;
    out.adversary_secret.clear();

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
        // Per-column memo of the opened next segment (the oracle's
        // `unwrap_memo`: table identity is constant within a column, so
        // the memo key reduces to the bundle key).
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

    #[test]
    fn pooled_share_executor_matches_allocating_executor() {
        // One scratch/report pair reused across every shape, malicious
        // fraction, churn level and attack mode: the pooled executor must
        // reproduce the oracle bit for bit even on dirty buffers.
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
                        let oracle =
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
                            oracle,
                            "pooled/oracle divergence: case {case} attack {attack:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn central_behaviour_matches_malicious_rate_extremes() {
        for (p, seed) in [(0.0f64, 8u64), (1.0, 9)] {
            let mut overlay = overlay_with(50, p, seed);
            let sender_seed = SymmetricKey::from_bytes([seed as u8; 32]);
            let plan = construct_paths(&overlay, &SchemeParams::Central, &sender_seed).unwrap();
            let report = execute_central(
                &mut overlay,
                &plan,
                SECRET,
                &run_config(AttackMode::ReleaseAhead),
            )
            .unwrap();
            if p == 0.0 {
                assert!(report.adversary_reconstruction.is_none());
                assert!(report.released.is_some());
            } else {
                assert!(report.adversary_reconstruction.is_some());
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

    /// Cross-format oracle: the retained v1 (nested) builder and executor
    /// run side by side with the v2 flat format on identical worlds. The
    /// two formats package the same key material under a different
    /// sealing topology, so every run — across attacks, churn, and
    /// starvation — must end in the exact same [`RunReport`].
    mod format_oracle {
        use super::*;
        use crate::package::legacy::{
            self, build_share_packages_v1, open_header_v1, ColumnBundle, SharePackagesV1,
        };
        use crate::substrate::AnalyticSubstrate;

        /// The pre-flattening `execute_share`, retained verbatim (nested
        /// bundle parse + inner unwrap, memoized per column) against the
        /// legacy v1 package types.
        fn execute_share_v1<S: HolderSubstrate + ?Sized>(
            substrate: &mut S,
            plan: &PathPlan,
            params: &SchemeParams,
            packages: &SharePackagesV1,
            config: &RunConfig,
        ) -> Result<RunReport, EmergeError> {
            let (k, l, n, m) = match params {
                SchemeParams::Share { k, l, n, m } => (*k, *l, *n, m.clone()),
                _ => {
                    return Err(EmergeError::InvalidParameters(
                        "execute_share requires share parameters".into(),
                    ))
                }
            };
            let th = config.emerging_period / l as u64;
            let ts = config.ts;
            let tr = ts + config.emerging_period;

            #[derive(Default, Clone)]
            struct Inbox {
                bundle: Option<Rc<Vec<u8>>>,
                core_onion: Option<Vec<u8>>,
                key_shares: Vec<KeyShare>,
                core_shares: Vec<KeyShare>,
                direct_row_key: Option<SymmetricKey>,
                direct_core_key: Option<SymmetricKey>,
            }

            let mut inboxes: Vec<Inbox> = vec![Inbox::default(); n * l];
            let bundle0 = Rc::new(packages.bundle.clone());
            for row in 0..n {
                let inbox = &mut inboxes[row * l];
                inbox.bundle = Some(bundle0.clone());
                inbox.direct_row_key = Some(packages.col0_row_keys[row].clone());
                if row < k {
                    inbox.core_onion = Some(packages.core_onion.clone());
                    inbox.direct_core_key = Some(packages.col0_core_key.clone());
                }
            }

            let mut messages = n as u64;
            let mut released: Option<(SimTime, Vec<u8>)> = None;
            let mut failure: Option<String> = None;
            let mut terminal_secrets: Vec<Vec<u8>> = Vec::new();

            let mut adv_key_shares: Vec<Vec<KeyShare>> = vec![Vec::new(); l];
            let mut adv_core_shares: Vec<Vec<KeyShare>> = vec![Vec::new(); l];
            let mut adv_core_onion_col0: Option<Vec<u8>> = None;
            let mut adv_direct_core_key: Option<SymmetricKey> = None;

            let mut engine: Engine<Ev> = Engine::new();
            engine.schedule_at(ts, Ev::Arrive { col: 0 });

            while let Some((now, ev)) = engine.pop() {
                match ev {
                    Ev::Arrive { col } => {
                        let depart = now + th;
                        let mut next: Vec<Inbox> = vec![Inbox::default(); n];
                        let mut parsed_memo: Option<(Rc<Vec<u8>>, Rc<ColumnBundle>)> = None;
                        let mut unwrap_memo: Option<(Rc<ColumnBundle>, SymmetricKey, Rc<Vec<u8>>)> =
                            None;
                        for row in 0..n {
                            let inbox = std::mem::take(&mut inboxes[row * l + col]);
                            let slot = plan.slot(row, col);
                            let tenant = *substrate.generation_at(slot, now);

                            let row_key = if col == 0 {
                                inbox.direct_row_key.clone()
                            } else if inbox.key_shares.len() >= m[col - 1] {
                                combine_key(&inbox.key_shares, m[col - 1])?
                            } else {
                                None
                            };
                            let Some(row_key) = row_key else {
                                continue;
                            };
                            let Some(bundle_bytes) = inbox.bundle.clone() else {
                                continue;
                            };
                            let bundle: Rc<ColumnBundle> = match &parsed_memo {
                                Some((blob, parsed)) if Rc::ptr_eq(blob, &bundle_bytes) => {
                                    parsed.clone()
                                }
                                _ => {
                                    let parsed = Rc::new(ColumnBundle::from_bytes(&bundle_bytes)?);
                                    parsed_memo = Some((bundle_bytes.clone(), parsed.clone()));
                                    parsed
                                }
                            };
                            let Some(header) = bundle.headers.get(row) else {
                                return Err(EmergeError::InvalidParameters(
                                    "bundle is missing this row's header".into(),
                                ));
                            };

                            if config.attack == AttackMode::ReleaseAhead
                                && tenant.malicious
                                && col == 0
                            {
                                if let Some(core) = &inbox.core_onion {
                                    adv_core_onion_col0 = Some(core.clone());
                                }
                                if inbox.direct_core_key.is_some() {
                                    adv_direct_core_key = inbox.direct_core_key.clone();
                                }
                            }

                            if config.attack == AttackMode::Drop && tenant.malicious {
                                continue;
                            }
                            let survivor =
                                substrate.generation_at(slot, depart).spawn == tenant.spawn;

                            let payload = open_header_v1(&row_key, header)?;

                            if config.attack == AttackMode::ReleaseAhead
                                && tenant.malicious
                                && col + 1 < l
                            {
                                if let Some(s) = payload.row_key_shares.first() {
                                    adv_key_shares[col + 1].push(s.clone());
                                }
                                if let Some(s) = &payload.core_key_share {
                                    adv_core_shares[col + 1].push(s.clone());
                                }
                            }

                            let next_bundle: Option<Rc<Vec<u8>>> =
                                match (&payload.bundle_key, &bundle.inner) {
                                    (Some(bk), Some(sealed)) => Some(match &unwrap_memo {
                                        Some((parsed, key, bytes))
                                            if Rc::ptr_eq(parsed, &bundle) && key == bk =>
                                        {
                                            bytes.clone()
                                        }
                                        _ => {
                                            let bytes =
                                                Rc::new(legacy::open_inner_bytes(bk, sealed)?);
                                            unwrap_memo =
                                                Some((bundle.clone(), bk.clone(), bytes.clone()));
                                            bytes
                                        }
                                    }),
                                    _ => None,
                                };

                            let mut inner_core: Option<Vec<u8>> = None;
                            let mut core_secret: Option<Vec<u8>> = None;
                            if row < k {
                                let core_key = if col == 0 {
                                    inbox.direct_core_key.clone()
                                } else if inbox.core_shares.len() >= m[col - 1] {
                                    combine_key(&inbox.core_shares, m[col - 1])?
                                } else {
                                    None
                                };
                                if let (Some(core_key), Some(core_onion)) =
                                    (core_key, inbox.core_onion.clone())
                                {
                                    match peel(&core_key, &core_onion)? {
                                        Peeled::Intermediate { inner, .. } => {
                                            inner_core = Some(inner);
                                        }
                                        Peeled::Core { payload } => {
                                            core_secret = Some(payload);
                                        }
                                    }
                                }
                            }

                            if col + 1 == l {
                                if let Some(secret) = core_secret {
                                    terminal_secrets.push(secret);
                                }
                                continue;
                            }

                            if survivor {
                                for (target_row, next_inbox) in next.iter_mut().enumerate() {
                                    if let Some(s) = payload.row_key_shares.get(target_row) {
                                        next_inbox.key_shares.push(s.clone());
                                        messages += 1;
                                    }
                                    if target_row < k {
                                        if let Some(s) = &payload.core_key_share {
                                            next_inbox.core_shares.push(s.clone());
                                        }
                                    }
                                }
                            }
                            if let Some(nb) = next_bundle {
                                for next_inbox in &mut next {
                                    if next_inbox.bundle.is_none() {
                                        next_inbox.bundle = Some(nb.clone());
                                        messages += 1;
                                    }
                                }
                            }
                            if row < k {
                                if let Some(inner) = inner_core {
                                    for next_inbox in next.iter_mut().take(k) {
                                        if next_inbox.core_onion.is_none() {
                                            next_inbox.core_onion = Some(inner.clone());
                                            messages += 1;
                                        }
                                    }
                                }
                            }
                        }

                        if col + 1 < l {
                            for (row, nb) in next.into_iter().enumerate() {
                                inboxes[row * l + col + 1] = nb;
                            }
                            engine.schedule_at(depart, Ev::Arrive { col: col + 1 });
                        } else {
                            engine.schedule_at(tr, Ev::Release);
                        }
                    }
                    Ev::Release => {
                        if let Some(secret) = terminal_secrets.first() {
                            released = Some((now, secret.clone()));
                            messages += terminal_secrets.len() as u64;
                        } else {
                            failure = Some("no terminal onion row reconstructed the secret".into());
                        }
                    }
                }
            }
            if released.is_none() && failure.is_none() {
                failure = Some("share flow starved before the terminal column".into());
            }

            let mut adversary_reconstruction: Option<(SimTime, Vec<u8>)> = None;
            if config.attack == AttackMode::ReleaseAhead {
                if let (Some(core_onion), Some(core_key0)) =
                    (adv_core_onion_col0, adv_direct_core_key)
                {
                    let mut onion = core_onion;
                    let mut when = ts;
                    for col in 0..l {
                        let key = if col == 0 {
                            Some(core_key0.clone())
                        } else if adv_core_shares[col].len() >= m[col - 1] {
                            when = when
                                .max(ts + (config.emerging_period / l as u64) * (col as u64 - 1));
                            combine_key(&adv_core_shares[col], m[col - 1])?
                        } else {
                            None
                        };
                        let Some(key) = key else {
                            break;
                        };
                        if col + 1 == l {
                            let (_, secret) = peel_core(&key, &onion)?;
                            if when < tr {
                                adversary_reconstruction = Some((when, secret));
                            }
                        } else {
                            match peel(&key, &onion)? {
                                Peeled::Intermediate { inner, .. } => onion = inner,
                                Peeled::Core { payload } => {
                                    if when < tr {
                                        adversary_reconstruction = Some((when, payload));
                                    }
                                    break;
                                }
                            }
                        }
                    }
                }
            }

            Ok(RunReport {
                released,
                failure,
                adversary_reconstruction,
                messages_sent: messages,
            })
        }

        #[test]
        fn v1_and_v2_runs_produce_identical_reports() {
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
            let attacks = [
                AttackMode::Passive,
                AttackMode::ReleaseAhead,
                AttackMode::Drop,
            ];
            let mut compared = 0usize;
            for params in &grids {
                for &attack in &attacks {
                    for seed in 0..4u64 {
                        // A hostile, churny world so drops, leaks and
                        // share starvation all occur across the seeds.
                        let cfg = OverlayConfig {
                            n_nodes: 150,
                            malicious_fraction: 0.35,
                            mean_lifetime: Some(9_000),
                            horizon: 100_000,
                        };
                        let sender = SymmetricKey::from_bytes([seed as u8 + 100; 32]);
                        let mut world_a = AnalyticSubstrate::build(cfg, seed);
                        let mut world_b = AnalyticSubstrate::build(cfg, seed);
                        let plan = construct_paths(&world_a, params, &sender).unwrap();
                        let schedule = KeySchedule::new(sender);
                        let v2 = build_share_packages(&plan, params, &schedule, SECRET).unwrap();
                        let v1 = build_share_packages_v1(&plan, params, &schedule, SECRET).unwrap();
                        let config = run_config(attack);
                        let report_v2 =
                            execute_share(&mut world_a, &plan, params, &v2, &config).unwrap();
                        let report_v1 =
                            execute_share_v1(&mut world_b, &plan, params, &v1, &config).unwrap();
                        assert_eq!(
                            report_v2, report_v1,
                            "formats diverged: {params:?}, {attack:?}, seed {seed}"
                        );
                        compared += 1;
                    }
                }
            }
            assert_eq!(compared, 24);
        }
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

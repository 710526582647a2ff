//! Adversary model: holder timelines and the release-ahead / drop attack
//! predicates.
//!
//! A *trial* samples, for every holder position in the scheme's grid, a
//! [`HolderTimeline`]: which node occupies the position over time (churn
//! replaces tenants; each tenant is independently malicious with the
//! population's rate, matching the paper's replication re-exposure model).
//! The predicates in this module then decide — mechanistically, not via
//! the closed forms — whether each attack succeeds on that trial. The
//! Monte-Carlo engine averages them into measured `Rr`/`Rd`.
//!
//! Two release-ahead notions are provided:
//!
//! * the **paper metric** ([`KeyedTrial::release_succeeds`],
//!   [`ShareTrial::release_succeeds`]): the adversary reconstructs the
//!   secret key from material leaked across the whole emerging period —
//!   for the keyed schemes this requires a malicious holder of *every*
//!   column key (the full chain of equation 1);
//! * a **stricter extension metric**
//!   ([`KeyedTrial::release_before_tr_succeeds`],
//!   [`ShareTrial::release_strict_succeeds`]): any suffix chain counts,
//!   because a malicious holder that first touches the onion at column
//!   `j₀` already holds everything below it. The paper's formulas do not
//!   count these partial-early releases; we expose them as an ablation
//!   (study B of `emerge-bench`'s `ablations` binary).

/// One holder position's tenancy over a trial, in units of the mean node
/// lifetime. `renewals[g]` is the instant tenant `g` is replaced by tenant
/// `g+1`; `statuses[g]` is tenant `g`'s malicious flag.
///
/// Beyond death-churn, a holder can be **transiently unavailable** at its
/// forwarding instant (Section II-C's "node unavailability": transient
/// departures with later return). This is modelled as a single Bernoulli
/// flag per position — the steady-state probability of being offline when
/// the forwarding deadline hits.
#[derive(Debug, Clone, PartialEq)]
pub struct HolderTimeline {
    renewals: Vec<f64>,
    statuses: Vec<bool>,
    offline_at_forward: bool,
}

impl HolderTimeline {
    /// A churn-free timeline: one tenant forever.
    pub fn stable(malicious: bool) -> Self {
        HolderTimeline {
            renewals: Vec::new(),
            statuses: vec![malicious],
            offline_at_forward: false,
        }
    }

    /// A timeline with tenant replacements at the given (sorted, positive)
    /// instants. `statuses.len()` must be `renewals.len() + 1`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or renewals are not strictly increasing
    /// and positive.
    pub fn with_renewals(renewals: Vec<f64>, statuses: Vec<bool>) -> Self {
        // LINT-WAIVER(panic): documented # Panics contract: renewal and status vectors must align
        assert_eq!(
            statuses.len(),
            renewals.len() + 1,
            "one status per tenant: {} renewals need {} statuses",
            renewals.len(),
            renewals.len() + 1
        );
        let mut prev = 0.0;
        for &r in &renewals {
            // LINT-WAIVER(panic): documented # Panics contract: renewal times must be ordered and positive
            assert!(
                r > prev,
                "renewals must be strictly increasing and positive"
            );
            prev = r;
        }
        HolderTimeline {
            renewals,
            statuses,
            offline_at_forward: false,
        }
    }

    /// Marks the holder transiently offline at its forwarding instant.
    pub fn with_offline_at_forward(mut self, offline: bool) -> Self {
        self.offline_at_forward = offline;
        self
    }

    /// Whether the holder is offline exactly when it should forward.
    pub fn offline_at_forward(&self) -> bool {
        self.offline_at_forward
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.statuses.len()
    }

    /// Whether the tenant occupying the position at time `t` is malicious.
    pub fn tenant_malicious_at(&self, t: f64) -> bool {
        let idx = self.renewals.partition_point(|&r| r <= t);
        self.statuses[idx]
    }

    /// Whether any tenant whose tenancy overlaps `[from, to]` is malicious
    /// — the churn *re-exposure* predicate: every overlapping tenant saw
    /// whatever the position stored during that window.
    pub fn malicious_exposure_in(&self, from: f64, to: f64) -> bool {
        // LINT-WAIVER(panic): documented # Panics contract: the exposure window must be ordered
        assert!(from <= to, "exposure window must be ordered");
        let first = self.renewals.partition_point(|&r| r <= from);
        let last = self.renewals.partition_point(|&r| r <= to);
        self.statuses[first..=last].iter().any(|&m| m)
    }

    /// Whether the same tenant occupies the position at `from` and through
    /// `to` (no replacement in between) — i.e. the holder "survives" the
    /// holding period without dying.
    pub fn same_tenant_through(&self, from: f64, to: f64) -> bool {
        // LINT-WAIVER(panic): documented # Panics contract: the holding window must be ordered
        assert!(from <= to);
        let a = self.renewals.partition_point(|&r| r <= from);
        let b = self.renewals.partition_point(|&r| r <= to);
        a == b
    }
}

/// A sampled trial for the centralized scheme.
#[derive(Debug, Clone)]
pub struct CentralTrial {
    /// The single holder's timeline.
    pub holder: HolderTimeline,
    /// Total emerging period `T` (in lifetime units).
    pub t_total: f64,
}

impl CentralTrial {
    /// Release-ahead success: any tenant during `T` saw the key.
    pub fn release_succeeds(&self) -> bool {
        self.holder.malicious_exposure_in(0.0, self.t_total)
    }

    /// Drop success: identical exposure condition — a malicious tenant can
    /// destroy the key just as easily as leak it. A holder that is
    /// transiently offline at the release instant also fails to release on
    /// time (Section II-C's unavailability).
    pub fn drop_succeeds(&self) -> bool {
        self.release_succeeds() || self.holder.offline_at_forward()
    }
}

/// A sampled trial for the disjoint/joint multipath schemes: a `k × l`
/// grid of holder timelines, row-major (`holders[row * l + col]`).
#[derive(Debug, Clone)]
pub struct KeyedTrial {
    /// Holder timelines, row-major.
    pub holders: Vec<HolderTimeline>,
    /// Rows (replication factor k).
    pub k: usize,
    /// Columns (path length l).
    pub l: usize,
    /// Holding period `th` in lifetime units.
    pub th: f64,
}

impl KeyedTrial {
    fn holder(&self, row: usize, col: usize) -> &HolderTimeline {
        &self.holders[row * self.l + col]
    }

    /// Arrival time of the onion at column `col` (0-based): `col · th`.
    fn arrival(&self, col: usize) -> f64 {
        col as f64 * self.th
    }

    /// Key `K_j` of column `col` is stored from `ts` until the onion
    /// arrives; any malicious tenant in that window learns it. For column
    /// 0 the key is used immediately at `ts`, so only the initial tenant
    /// counts.
    pub fn key_exposed(&self, col: usize) -> bool {
        let until = self.arrival(col);
        (0..self.k).any(|row| {
            if until == 0.0 {
                self.holder(row, col).tenant_malicious_at(0.0)
            } else {
                self.holder(row, col).malicious_exposure_in(0.0, until)
            }
        })
    }

    /// Any malicious contact with the onion while it rests at `col`
    /// (window `[col·th, (col+1)·th]`), in any row.
    pub fn onion_contact(&self, col: usize) -> bool {
        let from = self.arrival(col);
        let to = from + self.th;
        (0..self.k).any(|row| self.holder(row, col).malicious_exposure_in(from, to))
    }

    /// **Paper release-ahead metric** (equation 1's event): the adversary
    /// assembles every column key, i.e. each column leaks its key at some
    /// point during its storage life. Column 0 exposure also hands the
    /// adversary the full onion at `ts`.
    pub fn release_succeeds(&self) -> bool {
        (0..self.l).all(|col| self.key_exposed(col))
    }

    /// **Stricter metric**: the adversary obtains the (peeled) onion at
    /// some column `j₀` and every later column's key — releasing at
    /// `t_{j₀}` < `tr`. Includes the paper event as the `j₀ = 0` case.
    pub fn release_before_tr_succeeds(&self) -> bool {
        // Precompute key exposure per column.
        let exposed: Vec<bool> = (0..self.l).map(|c| self.key_exposed(c)).collect();
        let mut suffix_ok = true; // all columns > j0 exposed
        for j0 in (0..self.l).rev() {
            if self.onion_contact(j0) && suffix_ok {
                return true;
            }
            suffix_ok = suffix_ok && exposed[j0];
        }
        false
    }

    /// Whether the holder at `(row, col)` fails to forward: a malicious
    /// tenant touched the onion during its stay, or the holder is
    /// transiently offline at the forwarding deadline.
    fn forwarding_blocked(&self, row: usize, col: usize) -> bool {
        let from = self.arrival(col);
        let h = self.holder(row, col);
        h.malicious_exposure_in(from, from + self.th) || h.offline_at_forward()
    }

    /// Drop success for the **node-disjoint** topology: every row (path)
    /// has at least one column where forwarding is blocked (malicious
    /// contact or transient unavailability).
    pub fn drop_disjoint_succeeds(&self) -> bool {
        (0..self.k).all(|row| (0..self.l).any(|col| self.forwarding_blocked(row, col)))
    }

    /// Drop success for the **node-joint** topology: some column is
    /// entirely blocked, cutting every forwarding route at once.
    pub fn drop_joint_succeeds(&self) -> bool {
        (0..self.l).any(|col| (0..self.k).all(|row| self.forwarding_blocked(row, col)))
    }
}

/// A sampled trial for the key-share routing scheme: an `n × l` grid
/// (rows `0..k` carry the secret-bearing onion), with per-column
/// reconstruction thresholds.
#[derive(Debug, Clone)]
pub struct ShareTrial {
    /// Holder timelines, row-major (`holders[row * l + col]`).
    pub holders: Vec<HolderTimeline>,
    /// Onion-carrying rows.
    pub k: usize,
    /// Total rows (share count n).
    pub n: usize,
    /// Columns (path length l).
    pub l: usize,
    /// Holding period in lifetime units.
    pub th: f64,
    /// `m[j-1]` is the threshold for the keys of column `j` (0-based
    /// columns `1..l`), i.e. `m.len() == l - 1`.
    pub m: Vec<usize>,
}

impl ShareTrial {
    fn holder(&self, row: usize, col: usize) -> &HolderTimeline {
        &self.holders[row * self.l + col]
    }

    fn arrival(&self, col: usize) -> f64 {
        col as f64 * self.th
    }

    /// Whether the tenant that receives column `col`'s package is
    /// malicious.
    pub fn receiver_malicious(&self, row: usize, col: usize) -> bool {
        self.holder(row, col).tenant_malicious_at(self.arrival(col))
    }

    /// Whether the receiving tenant survives its holding period (dying
    /// mid-hold loses the in-flight package: the share scheme deliberately
    /// stores nothing replicable).
    pub fn survives_hold(&self, row: usize, col: usize) -> bool {
        let from = self.arrival(col);
        self.holder(row, col)
            .same_tenant_through(from, from + self.th)
    }

    /// Number of malicious receivers in a column (share leak sources).
    pub fn malicious_count(&self, col: usize) -> usize {
        (0..self.n)
            .filter(|&row| self.receiver_malicious(row, col))
            .count()
    }

    /// Number of honest receivers that survive their hold, are online at
    /// the forwarding deadline, and therefore actually deliver their
    /// shares to the next column.
    pub fn honest_forwarder_count(&self, col: usize) -> usize {
        (0..self.n)
            .filter(|&row| {
                !self.receiver_malicious(row, col)
                    && self.survives_hold(row, col)
                    && !self.holder(row, col).offline_at_forward()
            })
            .count()
    }

    /// **Paper-aligned release-ahead metric** (the per-column accumulation
    /// of Algorithm 1, lines 8–9 and 14–15): every column is compromised,
    /// where a column falls either through a malicious onion-row holder or
    /// through a share quorum at the previous column.
    pub fn release_succeeds(&self) -> bool {
        (0..self.l).all(|col| {
            let onion_row_leak = (0..self.k).any(|row| self.receiver_malicious(row, col));
            let share_leak = col >= 1 && self.malicious_count(col - 1) >= self.m[col - 1];
            onion_row_leak || share_leak
        })
    }

    /// **Strict chain metric**: the adversary must assemble a share quorum
    /// at every column boundary (and touch the onion at column 0); single
    /// malicious onion rows mid-path do not substitute for quorums. This
    /// is what the wire-level package format actually enforces.
    pub fn release_strict_succeeds(&self) -> bool {
        let onion_at_start = (0..self.k).any(|row| self.receiver_malicious(row, 0));
        onion_at_start && (1..self.l).all(|col| self.malicious_count(col - 1) >= self.m[col - 1])
    }

    /// Drop success: some column fails to deliver. Two channels exist:
    ///
    /// * **share starvation** — the keys of column `col` cannot be
    ///   reconstructed because fewer than `m` of column `col−1`'s holders
    ///   forwarded their shares (malicious receivers withhold; a holder
    ///   dying mid-hold takes its shares with it — shares are deliberately
    ///   *not* re-homed by replication, since handing key material to a
    ///   fresh possibly-malicious tenant is the exposure channel this
    ///   scheme exists to close);
    /// * **onion capture** — all `k` onion-row tenants of some column are
    ///   malicious and withhold every copy of the secret-bearing onion.
    ///   Honest deaths do *not* lose the onion: it is an opaque
    ///   ciphertext, replicated `k`-wide and re-homed to slot replacements
    ///   by ordinary DHT replication (re-exposing it leaks nothing). This
    ///   mirrors Algorithm 1's per-column `(Pd_i)^k` fold.
    pub fn drop_succeeds(&self) -> bool {
        for col in 0..self.l {
            if col >= 1 && self.honest_forwarder_count(col - 1) < self.m[col - 1] {
                return true;
            }
            let onion_captured = (0..self.k).all(|row| self.receiver_malicious(row, col));
            if onion_captured {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_grid(flags: &[&[bool]]) -> Vec<HolderTimeline> {
        // flags[row][col]
        let mut v = Vec::new();
        for row in flags {
            for &m in *row {
                v.push(HolderTimeline::stable(m));
            }
        }
        v
    }

    mod timeline {
        use super::*;

        #[test]
        fn stable_tenant_everywhere() {
            let t = HolderTimeline::stable(true);
            assert!(t.tenant_malicious_at(0.0));
            assert!(t.tenant_malicious_at(1e9));
            assert!(t.malicious_exposure_in(0.0, 5.0));
            assert!(t.same_tenant_through(0.0, 1e9));
            assert_eq!(t.tenant_count(), 1);
        }

        #[test]
        fn renewals_switch_tenants() {
            // honest until 1.0, malicious until 2.5, honest after.
            let t = HolderTimeline::with_renewals(vec![1.0, 2.5], vec![false, true, false]);
            assert!(!t.tenant_malicious_at(0.5));
            assert!(t.tenant_malicious_at(1.0)); // boundary: new tenant owns it
            assert!(t.tenant_malicious_at(2.0));
            assert!(!t.tenant_malicious_at(3.0));
        }

        #[test]
        fn exposure_sees_all_overlapping_tenants() {
            let t = HolderTimeline::with_renewals(vec![1.0, 2.0], vec![false, true, false]);
            assert!(!t.malicious_exposure_in(0.0, 0.9));
            assert!(t.malicious_exposure_in(0.0, 1.0)); // tenant 1 arrives at 1.0
            assert!(t.malicious_exposure_in(1.5, 1.7));
            assert!(t.malicious_exposure_in(0.5, 3.0));
            assert!(!t.malicious_exposure_in(2.5, 3.0));
        }

        #[test]
        fn survival_requires_no_renewal() {
            let t = HolderTimeline::with_renewals(vec![1.0], vec![false, false]);
            assert!(t.same_tenant_through(0.0, 0.99));
            assert!(!t.same_tenant_through(0.5, 1.0));
            assert!(t.same_tenant_through(1.0, 5.0));
        }

        #[test]
        #[should_panic(expected = "one status per tenant")]
        fn mismatched_lengths_panic() {
            let _ = HolderTimeline::with_renewals(vec![1.0], vec![true]);
        }

        #[test]
        #[should_panic(expected = "strictly increasing")]
        fn unsorted_renewals_panic() {
            let _ = HolderTimeline::with_renewals(vec![2.0, 1.0], vec![true, true, true]);
        }
    }

    mod central {
        use super::*;

        #[test]
        fn honest_holder_resists() {
            let t = CentralTrial {
                holder: HolderTimeline::stable(false),
                t_total: 3.0,
            };
            assert!(!t.release_succeeds());
            assert!(!t.drop_succeeds());
        }

        #[test]
        fn malicious_replacement_breaks_it() {
            let t = CentralTrial {
                holder: HolderTimeline::with_renewals(vec![1.5], vec![false, true]),
                t_total: 3.0,
            };
            assert!(t.release_succeeds());
        }

        #[test]
        fn replacement_after_release_time_is_harmless() {
            let t = CentralTrial {
                holder: HolderTimeline::with_renewals(vec![5.0], vec![false, true]),
                t_total: 3.0,
            };
            assert!(!t.release_succeeds());
        }
    }

    mod keyed {
        use super::*;

        /// The paper's Figure 2 example: 4 keys, path length 4 is reduced
        /// here to focused 1-row cases plus multi-row grids.
        fn trial(flags: &[&[bool]], th: f64) -> KeyedTrial {
            let k = flags.len();
            let l = flags[0].len();
            KeyedTrial {
                holders: stable_grid(flags),
                k,
                l,
                th,
            }
        }

        #[test]
        fn clean_path_resists_everything() {
            let t = trial(&[&[false, false, false]], 1.0);
            assert!(!t.release_succeeds());
            assert!(!t.release_before_tr_succeeds());
            assert!(!t.drop_disjoint_succeeds());
            assert!(!t.drop_joint_succeeds());
        }

        #[test]
        fn fully_malicious_path_releases_at_ts() {
            // Figure 2(b)'s K4: all holders malicious => release at t1 = ts.
            let t = trial(&[&[true, true, true]], 1.0);
            assert!(t.release_succeeds());
            assert!(t.release_before_tr_succeeds());
        }

        #[test]
        fn broken_chain_blocks_paper_release() {
            // Figure 2(b)'s K3: malicious at head/middle/tail but a gap
            // stops the release-ahead attack.
            let t = trial(&[&[true, true, false, true]], 1.0);
            assert!(!t.release_succeeds());
            // The stricter metric catches the malicious terminal holder.
            assert!(t.release_before_tr_succeeds());
        }

        #[test]
        fn suffix_chain_counts_only_for_strict_metric() {
            // Figure 2(b)'s K2: last two holders malicious.
            let t = trial(&[&[false, true, true]], 1.0);
            assert!(!t.release_succeeds(), "paper metric needs the full chain");
            assert!(
                t.release_before_tr_succeeds(),
                "onion reaches a malicious holder at column 1 with all later keys"
            );
        }

        #[test]
        fn replication_requires_one_leak_per_column() {
            // Two rows; column coverage split across rows still releases.
            let t = trial(&[&[true, false, true], &[false, true, false]], 1.0);
            assert!(t.release_succeeds());
        }

        #[test]
        fn drop_disjoint_needs_every_path_cut() {
            // Figure 2(c): any malicious holder on a path cuts it.
            let both_cut = trial(&[&[true, false, false], &[false, false, true]], 1.0);
            assert!(both_cut.drop_disjoint_succeeds());
            let one_clean = trial(&[&[true, true, true], &[false, false, false]], 1.0);
            assert!(!one_clean.drop_disjoint_succeeds());
        }

        #[test]
        fn drop_joint_needs_a_full_column() {
            // The paper's example: (H1,1 , H2,2 , H1,3) malicious drops the
            // disjoint scheme but not the joint one.
            let t = trial(&[&[true, false, true], &[false, true, false]], 1.0);
            assert!(t.drop_disjoint_succeeds());
            assert!(!t.drop_joint_succeeds());

            let full_column = trial(&[&[false, true, false], &[false, true, false]], 1.0);
            assert!(full_column.drop_joint_succeeds());
        }

        #[test]
        fn churn_reexposure_enables_release() {
            // Column 1's key is stored until t1 = 1.0; an honest tenant dying
            // at 0.5 hands it to a malicious replacement.
            let holders = vec![
                HolderTimeline::stable(true), // column 0 malicious at ts
                HolderTimeline::with_renewals(vec![0.5], vec![false, true]),
            ];
            let t = KeyedTrial {
                holders,
                k: 1,
                l: 2,
                th: 1.0,
            };
            assert!(t.key_exposed(0));
            assert!(t.key_exposed(1), "replacement saw the stored key");
            assert!(t.release_succeeds());
        }

        #[test]
        fn late_replacement_does_not_expose_key() {
            // Column 1's key is used at t = 1.0; a malicious replacement at
            // t = 1.5 arrives after the key was consumed… but during the
            // onion window [1.0, 2.0], so only the strict metric fires
            // (and only with a prior onion contact — here column 0 is
            // honest so nothing fires).
            let holders = vec![
                HolderTimeline::stable(false),
                HolderTimeline::with_renewals(vec![1.5], vec![false, true]),
            ];
            let t = KeyedTrial {
                holders,
                k: 1,
                l: 2,
                th: 1.0,
            };
            assert!(!t.key_exposed(1));
            assert!(!t.release_succeeds());
            // Strict: onion contact at column 1 with empty suffix => release
            // one holding period early.
            assert!(t.release_before_tr_succeeds());
        }
    }

    mod share {
        use super::*;

        /// Build a share trial with stable (no-churn) malicious flags.
        /// `flags[row][col]`, rows 0..k carry the onion.
        fn trial(flags: &[&[bool]], k: usize, m: Vec<usize>) -> ShareTrial {
            let n = flags.len();
            let l = flags[0].len();
            ShareTrial {
                holders: stable_grid(flags),
                k,
                n,
                l,
                th: 1.0,
                m,
            }
        }

        #[test]
        fn clean_grid_resists() {
            let t = trial(&[&[false; 3], &[false; 3], &[false; 3]], 2, vec![2, 2]);
            assert!(!t.release_succeeds());
            assert!(!t.release_strict_succeeds());
            assert!(!t.drop_succeeds());
        }

        #[test]
        fn onion_row_chain_releases_paper_metric() {
            // A malicious onion row in every column (row 0).
            let t = trial(
                &[&[true, true, true], &[false; 3], &[false; 3]],
                2,
                vec![3, 3],
            );
            assert!(t.release_succeeds());
            // Strict metric needs quorums, which are absent.
            assert!(!t.release_strict_succeeds());
        }

        #[test]
        fn share_quorums_release_both_metrics() {
            // Columns 0 and 1 have >= m = 2 malicious rows, and row 0 of
            // column 0 is malicious (onion contact at ts).
            let t = trial(
                &[
                    &[true, false, false],
                    &[true, true, false],
                    &[false, true, false],
                ],
                1,
                vec![2, 2],
            );
            assert!(t.release_strict_succeeds());
            // Paper metric: col 0 leak (row 0 onion), col 1 via quorum at
            // col 0, col 2 via quorum at col 1.
            assert!(t.release_succeeds());
        }

        #[test]
        fn below_quorum_resists() {
            // Only 1 malicious per column with m = 2, and no malicious
            // onion row (row 0 honest everywhere).
            let t = trial(
                &[
                    &[false, false, false],
                    &[true, false, false],
                    &[false, true, false],
                ],
                1,
                vec![2, 2],
            );
            assert!(!t.release_succeeds());
            assert!(!t.release_strict_succeeds());
        }

        #[test]
        fn drop_by_share_starvation() {
            // m = 3 but column 0 has only 2 honest forwarders.
            let t = trial(
                &[
                    &[true, false, false],
                    &[false, false, false],
                    &[false, false, false],
                ],
                3,
                vec![3, 1],
            );
            assert_eq!(t.honest_forwarder_count(0), 2);
            assert!(t.drop_succeeds());
        }

        #[test]
        fn drop_by_onion_row_loss() {
            // All k = 2 onion rows malicious at column 1: the onion dies
            // even though shares are plentiful.
            let t = trial(
                &[
                    &[false, true, false],
                    &[false, true, false],
                    &[false, false, false],
                    &[false, false, false],
                ],
                2,
                vec![1, 1],
            );
            assert!(t.drop_succeeds());
        }

        #[test]
        fn dead_holders_starve_shares() {
            // No malicious nodes at all; churn kills 2 of 3 rows during
            // column 0's hold, leaving 1 < m = 2 forwarders.
            let dying = || HolderTimeline::with_renewals(vec![0.5], vec![false, false]);
            // Row-major [row0c0, row0c1, row1c0, row1c1, row2c0, row2c1]:
            // rows 0 and 1 die during column 0's hold.
            let holders = vec![
                dying(),
                HolderTimeline::stable(false),
                dying(),
                HolderTimeline::stable(false),
                HolderTimeline::stable(false),
                HolderTimeline::stable(false),
            ];
            let t = ShareTrial {
                holders,
                k: 3,
                n: 3,
                l: 2,
                th: 1.0,
                m: vec![2],
            };
            assert_eq!(t.honest_forwarder_count(0), 1);
            assert!(t.drop_succeeds());
            assert!(!t.release_succeeds());
        }

        #[test]
        fn malicious_but_dead_still_leaks() {
            // A malicious receiver that dies mid-hold leaked its share on
            // arrival; it counts for release but not for forwarding.
            let mut holders = vec![
                HolderTimeline::with_renewals(vec![0.5], vec![true, false]),
                HolderTimeline::stable(true),
                HolderTimeline::stable(false),
            ];
            // second column (l = 2): all honest
            holders = holders
                .into_iter()
                .flat_map(|h| [h, HolderTimeline::stable(false)])
                .collect();
            let t = ShareTrial {
                holders,
                k: 1,
                n: 3,
                l: 2,
                th: 1.0,
                m: vec![2],
            };
            assert_eq!(t.malicious_count(0), 2);
            // Column 1 falls via the quorum; column 0 needs its own onion
            // row leak — row 0 of column 0 is malicious, so yes.
            assert!(t.release_succeeds());
        }
    }
}

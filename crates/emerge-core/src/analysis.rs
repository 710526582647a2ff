//! Closed-form attack-resilience analysis and parameter selection.
//!
//! Implements the paper's equations and Algorithm 1:
//!
//! * centralized: `Rr = Rd = 1 − p`
//! * node-disjoint (eq. 1, 2):
//!   `Rr = 1 − (1 − (1−p)^k)^l`, `Rd = 1 − (1 − (1−p)^l)^k`
//! * node-joint (eq. 1, 3):
//!   `Rr` as above, `Rd = (1 − p^k)^l`
//! * key-share routing: Algorithm 1 (per-column `(m, n)` selection
//!   balancing release vs. drop success, then the `k`-fold assembly)
//!
//! plus the **solver** the sender uses: given the malicious rate `p`, a
//! target resilience `R*` and a node budget `N`, find the cheapest `(k, l)`
//! meeting the target — or, when the budget can no longer reach the
//! target, the budget-constrained optimum. This reconstruction is what
//! drives Figure 6's "attack resilience" and "required nodes" curves.

use crate::config::SchemeParams;
use crate::math::{binomial_tail_ge, clamp_prob};

/// A pair of resilience values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilience {
    /// Release-ahead attack resilience `Rr`.
    pub release: f64,
    /// Drop attack resilience `Rd`.
    pub drop: f64,
}

impl Resilience {
    /// The weaker of the two resiliences (the system's effective `R` when
    /// the adversary picks the better attack).
    pub fn min(&self) -> f64 {
        self.release.min(self.drop)
    }
}

/// `Rr = Rd = 1 − p` for the centralized scheme.
pub fn central(p: f64) -> Resilience {
    assert_p(p);
    Resilience {
        release: 1.0 - p,
        drop: 1.0 - p,
    }
}

/// Equation (1): release-ahead resilience of `k` replicated onion paths of
/// length `l` (shared by the disjoint and joint schemes).
///
/// The adversary must control, for every column `j`, at least one of the
/// `k` holders that were assigned `K_j`.
pub fn release_multipath(p: f64, k: usize, l: usize) -> f64 {
    assert_p(p);
    assert_kl(k, l);
    let per_column = 1.0 - (1.0 - p).powi(k as i32); // >=1 malicious among k
    clamp_prob(1.0 - per_column.powi(l as i32))
}

/// Equation (2): drop resilience of the node-disjoint scheme — the
/// adversary must cut all `k` paths, each needing one malicious holder
/// among `l`.
pub fn drop_disjoint(p: f64, k: usize, l: usize) -> f64 {
    assert_p(p);
    assert_kl(k, l);
    let per_path = 1.0 - (1.0 - p).powi(l as i32);
    clamp_prob(1.0 - per_path.powi(k as i32))
}

/// Equation (3): drop resilience of the node-joint scheme — the adversary
/// must control an entire column of `k` holders.
pub fn drop_joint(p: f64, k: usize, l: usize) -> f64 {
    assert_p(p);
    assert_kl(k, l);
    clamp_prob((1.0 - p.powi(k as i32)).powi(l as i32))
}

/// Resilience of the node-disjoint scheme (eq. 1 + 2).
pub fn disjoint(p: f64, k: usize, l: usize) -> Resilience {
    Resilience {
        release: release_multipath(p, k, l),
        drop: drop_disjoint(p, k, l),
    }
}

/// Resilience of the node-joint scheme (eq. 1 + 3).
pub fn joint(p: f64, k: usize, l: usize) -> Resilience {
    Resilience {
        release: release_multipath(p, k, l),
        drop: drop_joint(p, k, l),
    }
}

/// Output of Algorithm 1: thresholds plus predicted resilience.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareAnalysis {
    /// Rows per column, `n = ⌊N / l⌋`.
    pub n: usize,
    /// Expected dead share-senders per column, `d = ⌊pdead · n⌋`.
    pub d: usize,
    /// Per-holding-period death probability `pdead = 1 − e^(−T/(λ·l))`.
    pub pdead: f64,
    /// Thresholds `m` for columns `2..=l`.
    pub m: Vec<usize>,
    /// Accumulated per-column release-ahead success rates `Pr`.
    pub pr: Vec<f64>,
    /// Accumulated per-column drop success rates `Pd`.
    pub pd: Vec<f64>,
    /// Predicted resilience.
    pub resilience: Resilience,
}

/// Algorithm 1: key-share routing parameter selection and analysis.
///
/// * `k`, `l` — structure determined by the node-joint solver,
/// * `n_available` — node budget `N` for the share grid (`n = ⌊N/l⌋`),
/// * `t_over_lambda` — the ratio `T / λ` (the paper's `α` when `λ` is the
///   mean node lifetime); pass `0.0` for a churn-free analysis,
/// * `p` — node malicious rate.
///
/// # Panics
///
/// Panics if parameters are degenerate (`k == 0`, `l == 0`,
/// `n_available < l`, out-of-range `p`, or `k > n`).
pub fn algorithm1(
    k: usize,
    l: usize,
    n_available: usize,
    t_over_lambda: f64,
    p: f64,
) -> ShareAnalysis {
    assert_p(p);
    assert_kl(k, l);
    // LINT-WAIVER(panic): documented precondition on the (k, l) grid arguments
    assert!(
        t_over_lambda >= 0.0 && t_over_lambda.is_finite(),
        "T/λ must be nonnegative"
    );
    // Line 1: uniform node assignment across columns.
    let n = n_available / l;
    // LINT-WAIVER(panic): documented precondition: the node budget must fill every column
    assert!(n >= 1, "node budget {n_available} cannot fill {l} columns");
    // LINT-WAIVER(panic): documented precondition: k cannot exceed the per-column row count
    assert!(k <= n, "onion rows k={k} exceed share rows n={n}");

    // Line 2-3: dead shares per holding period th = T / l.
    let pdead = 1.0 - (-t_over_lambda / l as f64).exp();
    let d = (pdead * n as f64).floor() as usize;
    let alive = n - d;

    // Line 4-6.
    let mut pr_col = p;
    let mut pd_col = p;
    let mut pr = vec![pr_col];
    let mut pd = vec![pd_col];
    let mut m_vec = Vec::with_capacity(l.saturating_sub(1));

    // Line 7-13: per-column threshold selection.
    for _column in 2..=l {
        let m = select_threshold(n, d, p);
        // qr: adversary gathers >= m of n shares (malicious senders leak).
        let qr = binomial_tail_ge(n as u64, p, m as u64);
        // qd: adversary withholds enough of the alive shares that fewer
        // than m survive: >= alive - m + 1 malicious among the alive.
        // alive < m covers alive == 0: with fewer alive shares than the
        // threshold the key cannot be delivered regardless of attacks.
        let qd = if alive < m {
            1.0
        } else {
            binomial_tail_ge(alive as u64, p, (alive - m + 1) as u64)
        };
        pr_col = 1.0 - (1.0 - pr_col) * (1.0 - qr);
        pd_col = 1.0 - (1.0 - pd_col) * (1.0 - qd);
        pr.push(pr_col);
        pd.push(pd_col);
        m_vec.push(m);
    }

    // Line 14-18: k-fold assembly across the l columns.
    let mut rr_fail = 1.0;
    let mut rd = 1.0;
    for i in 0..l {
        rr_fail *= 1.0 - (1.0 - pr[i]).powi(k as i32);
        rd *= 1.0 - pd[i].powi(k as i32);
    }
    let rr = 1.0 - rr_fail;

    ShareAnalysis {
        n,
        d,
        pdead,
        m: m_vec,
        pr,
        pd,
        resilience: Resilience {
            release: clamp_prob(rr),
            drop: clamp_prob(rd),
        },
    }
}

/// Line 8 of Algorithm 1: the threshold `m ∈ [1, n]` minimizing the gap
/// between the two attack success probabilities.
///
/// `qr(m) = P(Bin(n, p) ≥ m)` falls in `m` while
/// `qd(m) = P(Bin(n−d, p) ≥ n−d−m+1)` rises, so the difference
/// `qr − qd` is monotone and a binary search finds the crossing.
pub fn select_threshold(n: usize, d: usize, p: f64) -> usize {
    // LINT-WAIVER(panic): documented precondition: threshold selection needs n >= 1
    assert!(n >= 1);
    let alive = n.saturating_sub(d);
    let diff = |m: usize| -> f64 {
        let qr = binomial_tail_ge(n as u64, p, m as u64);
        let qd = if alive == 0 || alive < m {
            1.0
        } else {
            binomial_tail_ge(alive as u64, p, (alive - m + 1) as u64)
        };
        qr - qd
    };
    // Binary search for the first m where diff <= 0, then compare
    // neighbours by |diff|.
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if diff(mid) > 0.0 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // lo is the first index with diff <= 0 (or n if none). Check lo-1 too.
    let mut best = lo;
    let mut best_gap = diff(lo).abs();
    if lo > 1 {
        let gap = diff(lo - 1).abs();
        if gap < best_gap {
            best = lo - 1;
            best_gap = gap;
        }
    }
    let _ = best_gap;
    best
}

/// Probability that the share flow survives drop attempts and churn at
/// every column boundary: the number of forwarders that are honest *and*
/// outlive their holding period is `Binomial(n, (1−p)·e^(−α/l))`, and each
/// boundary needs at least its threshold `m_j` of them.
///
/// Algorithm 1 as printed does not model this starvation channel (its
/// `d = ⌊pdead·n⌋` is a deterministic expectation with no variance); the
/// solver uses this term in addition so that the parameters it picks hold
/// up in the mechanistic Monte-Carlo.
pub fn share_flow_survival(n: usize, m: &[usize], p: f64, t_over_lambda: f64, l: usize) -> f64 {
    // LINT-WAIVER(panic): documented precondition: share flow needs at least one column
    assert!(l >= 1);
    let survive = (-t_over_lambda / l as f64).exp();
    let q = (1.0 - p) * survive;
    let mut acc = 1.0;
    for &mj in m {
        acc *= binomial_tail_ge(n as u64, q, mj as u64);
    }
    acc
}

/// A parameter choice produced by the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The chosen parameters.
    pub params: SchemeParams,
    /// Predicted resilience at those parameters.
    pub predicted: Resilience,
    /// Whether the target was met within the budget.
    pub target_met: bool,
}

/// Finds the cheapest `(k, l)` for the **node-joint** scheme with
/// `min(Rr, Rd) ≥ target`, subject to `k·l ≤ budget`. Falls back to the
/// budget-constrained maximizer of `min(Rr, Rd)` when the target is
/// unreachable (this is what bends the curves of Figure 6 down at high
/// `p`).
pub fn solve_joint(p: f64, target: f64, budget: usize) -> Solution {
    solve_multipath(p, target, budget, true)
}

/// Like [`solve_joint`] for the **node-disjoint** scheme (eq. 2 drop
/// resilience).
pub fn solve_disjoint(p: f64, target: f64, budget: usize) -> Solution {
    solve_multipath(p, target, budget, false)
}

fn solve_multipath(p: f64, target: f64, budget: usize, joint_topology: bool) -> Solution {
    assert_p(p);
    // LINT-WAIVER(panic): documented precondition on the resilience target range
    assert!((0.0..1.0).contains(&target), "target must be in [0, 1)");
    // LINT-WAIVER(panic): documented precondition: the solver needs a node budget
    assert!(budget >= 1, "budget must be at least one node");

    let eval = |k: usize, l: usize| -> Resilience {
        if joint_topology {
            joint(p, k, l)
        } else {
            disjoint(p, k, l)
        }
    };

    let make = |k: usize, l: usize| -> SchemeParams {
        if joint_topology {
            SchemeParams::Joint { k, l }
        } else {
            SchemeParams::Disjoint { k, l }
        }
    };

    // Pass 1: cheapest feasible (cost, k, l, res).
    let mut best_feasible: Option<(usize, usize, usize, Resilience)> = None;
    // Pass 2 fallback: maximize min resilience under the budget.
    let mut best_any: (f64, usize, usize, Resilience) = (-1.0, 1, 1, eval(1, 1));

    for k in 1..=budget {
        let max_l = budget / k;
        if max_l == 0 {
            break;
        }
        // Prune: cheapest possible cost with this k already worse.
        if let Some((cost, ..)) = best_feasible {
            if k > cost {
                break;
            }
        }
        for l in 1..=max_l {
            let res = eval(k, l);
            let score = res.min();
            if score > best_any.0 + 1e-15 {
                best_any = (score, k, l, res);
            }
            if score >= target {
                let cost = k * l;
                let better = match best_feasible {
                    None => true,
                    Some((c, ..)) => cost < c,
                };
                if better {
                    best_feasible = Some((cost, k, l, res));
                }
                break; // larger l only costs more for this k
            }
        }
    }

    match best_feasible {
        Some((_, k, l, res)) => Solution {
            params: make(k, l),
            predicted: res,
            target_met: true,
        },
        None => {
            let (_, k, l, res) = best_any;
            Solution {
                params: make(k, l),
                predicted: res,
                target_met: false,
            }
        }
    }
}

/// End-to-end share-scheme parameter selection.
///
/// First tries the paper's pipeline — solve the **node-joint** structure
/// for `(k, l)` under the budget, then run Algorithm 1 for `(n, m)`. When
/// that does not meet the target (high `p`, where the joint solver itself
/// is in its budget-constrained fallback and its `(k, l)` can be
/// degenerate for a share grid), falls back to a direct search over
/// `(k, l)` maximizing Algorithm 1's predicted `min(Rr, Rd)`.
pub fn solve_share(p: f64, target: f64, budget: usize, t_over_lambda: f64) -> Solution {
    // LINT-WAIVER(panic): documented precondition: the solver needs a node budget
    assert!(budget >= 1);
    let joint_sol = solve_joint(p, target, budget);
    let (jk, jl) = joint_sol
        .params
        .grid()
        // LINT-WAIVER(panic): the joint solver always returns grid-shaped params by construction
        .expect("joint solver returns a grid");
    let candidate = |k: usize, l: usize| -> Option<(SchemeParams, Resilience)> {
        let n = budget / l;
        if n == 0 {
            return None;
        }
        let k = k.min(n).max(1);
        let a = algorithm1(k, l, budget, t_over_lambda, p);
        let flow = share_flow_survival(a.n, &a.m, p, t_over_lambda, l);
        let params = SchemeParams::Share {
            k,
            l,
            n: a.n,
            m: a.m,
        };
        // Fold the starvation channel into the predicted drop resilience
        // so the solver's score matches what the Monte-Carlo measures.
        let predicted = Resilience {
            release: a.resilience.release,
            drop: a.resilience.drop * flow,
        };
        Some((params, predicted))
    };

    if let Some((params, res)) = candidate(jk, jl) {
        if res.min() >= target {
            return Solution {
                params,
                predicted: res,
                target_met: true,
            };
        }
    }

    // Direct search: coarse (k, l) grid, best predicted min-resilience.
    let mut best: Option<(f64, SchemeParams, Resilience)> = None;
    let k_candidates: Vec<usize> = (1..=12).chain([16, 20, 24, 32, 48, 64]).collect();
    for l in 1..=32usize {
        if budget / l == 0 {
            break;
        }
        for &k in &k_candidates {
            let Some((params, res)) = candidate(k, l) else {
                continue;
            };
            let score = res.min();
            let better = match &best {
                None => true,
                Some((s, bp, _)) => {
                    score > *s + 1e-12
                        || (score > *s - 1e-12 && params.node_cost() < bp.node_cost())
                }
            };
            if better {
                best = Some((score, params, res));
            }
        }
    }
    // LINT-WAIVER(panic): l = 1 always enters the candidate loop, so best is never None
    let (score, params, predicted) = best.expect("l = 1 is always a candidate");
    Solution {
        params,
        predicted,
        target_met: score >= target,
    }
}

/// Lemma 1: for the node-joint scheme with `p < 0.5`, `Rr + Rd > 1`.
///
/// Exposed as a function so the property tests can sweep it.
pub fn lemma1_holds(p: f64, k: usize, l: usize) -> bool {
    let r = joint(p, k, l);
    r.release + r.drop > 1.0
}

/// One point on the release/drop tradeoff frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Replication factor of this configuration.
    pub k: usize,
    /// Path length of this configuration.
    pub l: usize,
    /// Predicted resilience.
    pub resilience: Resilience,
}

/// The `Rr`/`Rd` tradeoff frontier of the node-joint scheme at a fixed
/// node budget: every `(k, l)` with `k·l ≤ cost` that is not dominated by
/// another configuration (strictly better in one resilience and at least
/// as good in the other).
///
/// This quantifies the paper's remark after Lemma 1 that the scheme
/// "indicates the tradeoff between Rr and Rd and the relationship between
/// the tradeoff and p": larger `k` buys drop resilience at the expense of
/// release resilience, larger `l` the reverse.
///
/// Points are returned sorted by increasing `Rr`.
pub fn joint_frontier(p: f64, cost: usize) -> Vec<FrontierPoint> {
    assert_p(p);
    // LINT-WAIVER(panic): documented precondition: the frontier needs a positive cost
    assert!(cost >= 1);
    let mut points = Vec::new();
    for k in 1..=cost {
        let max_l = cost / k;
        if max_l == 0 {
            break;
        }
        for l in 1..=max_l {
            points.push(FrontierPoint {
                k,
                l,
                resilience: joint(p, k, l),
            });
        }
    }
    // Pareto filter.
    let mut frontier: Vec<FrontierPoint> = Vec::new();
    for cand in points {
        let dominated = |a: &FrontierPoint, b: &FrontierPoint| {
            // b dominates a.
            b.resilience.release >= a.resilience.release - 1e-15
                && b.resilience.drop >= a.resilience.drop - 1e-15
                && (b.resilience.release > a.resilience.release + 1e-15
                    || b.resilience.drop > a.resilience.drop + 1e-15)
        };
        if frontier.iter().any(|f| dominated(&cand, f)) {
            continue;
        }
        frontier.retain(|f| !dominated(f, &cand));
        frontier.push(cand);
    }
    frontier.sort_by(|a, b| {
        a.resilience
            .release
            .partial_cmp(&b.resilience.release)
            // LINT-WAIVER(panic): resiliences are probabilities computed from finite inputs, never NaN
            .expect("resiliences are finite")
    });
    frontier
}

/// The two extreme points of a tradeoff frontier: the drop-optimal
/// configuration (lowest `Rr`, the sorted frontier's first point) and the
/// release-optimal configuration (highest `Rr`, its last point). Returns
/// `None` for an empty frontier instead of panicking — callers composing
/// their own (possibly filtered-empty) frontiers get a typed absence, not
/// an `unwrap` crash.
pub fn frontier_extremes(frontier: &[FrontierPoint]) -> Option<(&FrontierPoint, &FrontierPoint)> {
    Some((frontier.first()?, frontier.last()?))
}

fn assert_p(p: f64) {
    // LINT-WAIVER(panic): this is the documented probability-range guard itself
    assert!(
        (0.0..=1.0).contains(&p) && p.is_finite(),
        "malicious rate p must be in [0, 1], got {p}"
    );
}

fn assert_kl(k: usize, l: usize) {
    // LINT-WAIVER(panic): this is the documented grid-shape guard itself
    assert!(k >= 1 && l >= 1, "k and l must be >= 1 (k={k}, l={l})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn central_is_one_minus_p() {
        let r = central(0.3);
        assert!((r.release - 0.7).abs() < 1e-12);
        assert!((r.drop - 0.7).abs() < 1e-12);
    }

    #[test]
    fn equations_match_hand_computation() {
        // k=2, l=3, p=0.2 — the paper's running example shape.
        let p = 0.2f64;
        let rr = 1.0 - (1.0 - 0.8f64.powi(2)).powi(3);
        let rd_dis = 1.0 - (1.0 - 0.8f64.powi(3)).powi(2);
        let rd_joint = (1.0 - 0.2f64.powi(2)).powi(3);
        let d = disjoint(p, 2, 3);
        let j = joint(p, 2, 3);
        assert!((d.release - rr).abs() < 1e-12);
        assert!((d.drop - rd_dis).abs() < 1e-12);
        assert!((j.release - rr).abs() < 1e-12);
        assert!((j.drop - rd_joint).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_node_equals_central() {
        // k = l = 1 multipath is a single holder.
        let p = 0.25;
        let d = disjoint(p, 1, 1);
        let j = joint(p, 1, 1);
        let c = central(p);
        for r in [d, j] {
            assert!((r.release - c.release).abs() < 1e-12);
            assert!((r.drop - c.drop).abs() < 1e-12);
        }
    }

    #[test]
    fn joint_drop_beats_disjoint_drop() {
        for &p in &[0.05, 0.1, 0.2, 0.3, 0.4] {
            for &(k, l) in &[(2usize, 3usize), (3, 5), (5, 8), (10, 10)] {
                assert!(
                    drop_joint(p, k, l) >= drop_disjoint(p, k, l) - 1e-12,
                    "joint should dominate at p={p}, k={k}, l={l}"
                );
            }
        }
    }

    #[test]
    fn release_improves_with_l_and_degrades_with_k() {
        let p = 0.2;
        assert!(release_multipath(p, 3, 6) > release_multipath(p, 3, 3));
        assert!(release_multipath(p, 6, 3) < release_multipath(p, 3, 3));
    }

    #[test]
    fn lemma1_example_points() {
        for &p in &[0.01, 0.1, 0.25, 0.4, 0.49] {
            for &(k, l) in &[(1usize, 1usize), (2, 3), (4, 7), (10, 20)] {
                assert!(lemma1_holds(p, k, l), "Lemma 1 failed at p={p} k={k} l={l}");
            }
        }
    }

    #[test]
    fn algorithm1_no_churn_keeps_thresholds_feasible() {
        let a = algorithm1(4, 10, 10_000, 0.0, 0.2);
        assert_eq!(a.n, 1000);
        assert_eq!(a.d, 0, "no churn, no dead shares");
        assert_eq!(a.m.len(), 9);
        for &m in &a.m {
            assert!(m >= 1 && m <= a.n);
            // Threshold must exceed the expected malicious share count and
            // stay below the honest share count for both attacks to fail.
            assert!(m as f64 > 0.2 * a.n as f64, "m={m} below np");
            assert!((m as f64) < 0.8 * a.n as f64, "m={m} above n(1-p)");
        }
        assert!(a.resilience.release > 0.99);
        // With shares never leaking, the drop resilience collapses to the
        // joint form (1 - p^k)^l = 0.9841 at k=4, l=10, p=0.2.
        assert!(a.resilience.drop > 0.98);
    }

    #[test]
    fn algorithm1_with_churn_accounts_dead_shares() {
        let a = algorithm1(4, 10, 10_000, 3.0, 0.2);
        let expected_pdead = 1.0 - (-0.3f64).exp();
        assert!((a.pdead - expected_pdead).abs() < 1e-12);
        assert_eq!(a.d, (expected_pdead * 1000.0) as usize);
        assert!(a.d > 200);
        // Still highly resilient at p = 0.2 with a large n.
        assert!(a.resilience.min() > 0.95);
    }

    #[test]
    fn algorithm1_degrades_gracefully_with_small_budget() {
        let big = algorithm1(2, 5, 10_000, 3.0, 0.25).resilience.min();
        let small = algorithm1(2, 5, 100, 3.0, 0.25).resilience.min();
        assert!(
            big > small,
            "larger share pools must not hurt: big={big} small={small}"
        );
    }

    #[test]
    fn select_threshold_balances_tails() {
        let n = 100;
        let d = 20;
        let p = 0.2;
        let m = select_threshold(n, d, p);
        let qr = binomial_tail_ge(n as u64, p, m as u64);
        let alive = n - d;
        let qd = binomial_tail_ge(alive as u64, p, (alive - m + 1) as u64);
        // At the balanced threshold the two tails are within an order of
        // magnitude of each other (they cross between m and m±1).
        let ratio = if qr > qd {
            qr / qd.max(1e-300)
        } else {
            qd / qr.max(1e-300)
        };
        assert!(
            ratio < 1e3,
            "tails should roughly balance: qr={qr:.3e} qd={qd:.3e} m={m}"
        );
    }

    #[test]
    fn solver_meets_target_at_low_p() {
        let sol = solve_joint(0.1, 0.99, 10_000);
        assert!(sol.target_met);
        assert!(sol.predicted.min() >= 0.99);
        // And the cost should be modest at p = 0.1.
        assert!(
            sol.params.node_cost() < 200,
            "cost {}",
            sol.params.node_cost()
        );
    }

    #[test]
    fn solver_cost_grows_with_p() {
        let costs: Vec<usize> = [0.05, 0.15, 0.25, 0.35]
            .iter()
            .map(|&p| solve_joint(p, 0.99, 10_000).params.node_cost())
            .collect();
        for w in costs.windows(2) {
            assert!(w[0] <= w[1], "cost must be nondecreasing in p: {costs:?}");
        }
    }

    #[test]
    fn solver_falls_back_when_target_unreachable() {
        // p = 0.49 with a tiny budget cannot reach 0.99.
        let sol = solve_joint(0.49, 0.99, 50);
        assert!(!sol.target_met);
        assert!(sol.params.node_cost() <= 50);
        // But it still beats the centralized baseline.
        assert!(sol.predicted.min() >= central(0.49).min() - 1e-9);
    }

    #[test]
    fn disjoint_solver_needs_more_nodes_than_joint() {
        // At moderate p the joint topology is strictly more node-efficient.
        let p = 0.25;
        let j = solve_joint(p, 0.99, 10_000);
        let d = solve_disjoint(p, 0.99, 10_000);
        match (j.target_met, d.target_met) {
            (true, true) => {
                assert!(j.params.node_cost() <= d.params.node_cost());
            }
            (true, false) => {} // joint met it, disjoint could not: consistent
            other => panic!("unexpected solver outcomes: {other:?}"),
        }
    }

    #[test]
    fn share_solver_produces_valid_params() {
        let sol = solve_share(0.2, 0.99, 10_000, 3.0);
        sol.params.validate().expect("share params must validate");
        if let SchemeParams::Share { k, l, n, m } = &sol.params {
            assert!(*k >= 1 && *l >= 1);
            assert_eq!(*n, 10_000 / *l);
            assert_eq!(m.len(), *l - 1);
        } else {
            panic!("expected share params");
        }
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn bad_p_panics() {
        let _ = central(1.5);
    }

    #[test]
    fn frontier_is_pareto_and_spans_the_tradeoff() {
        let frontier = joint_frontier(0.25, 64);
        assert!(frontier.len() >= 3, "a 64-node budget offers real choices");
        // Sorted by Rr; Rd must be non-increasing along it (Pareto).
        for w in frontier.windows(2) {
            assert!(w[0].resilience.release <= w[1].resilience.release + 1e-12);
            assert!(
                w[0].resilience.drop >= w[1].resilience.drop - 1e-12,
                "frontier must trade drop for release: {w:?}"
            );
        }
        // All points satisfy Lemma 1 at p < 0.5.
        for pt in &frontier {
            assert!(pt.resilience.release + pt.resilience.drop > 1.0);
        }
        // Budget respected.
        for pt in &frontier {
            assert!(pt.k * pt.l <= 64);
        }
    }

    #[test]
    fn frontier_extremes_favor_k_or_l() {
        let frontier = joint_frontier(0.2, 36);
        let (best_drop, best_release) =
            frontier_extremes(&frontier).expect("a 36-node frontier is never empty");
        assert!(
            best_release.l >= best_release.k,
            "release extreme should favour long paths: {best_release:?}"
        );
        assert!(
            best_drop.k >= best_drop.l,
            "drop extreme should favour wide replication: {best_drop:?}"
        );
    }

    #[test]
    fn frontier_extremes_of_an_empty_frontier_are_none() {
        assert_eq!(frontier_extremes(&[]), None);
        // A filtered-to-empty frontier is the realistic caller mistake the
        // Option guards against.
        let filtered: Vec<FrontierPoint> = joint_frontier(0.2, 16)
            .into_iter()
            .filter(|pt| pt.resilience.min() > 2.0) // impossible bar
            .collect();
        assert_eq!(frontier_extremes(&filtered), None);
        // A single-point frontier has identical extremes.
        let one = joint_frontier(0.2, 1);
        let (lo, hi) = frontier_extremes(&one).unwrap();
        assert_eq!(lo, hi);
    }

    #[test]
    fn flow_survival_monotonic_in_budget_headroom() {
        // Fewer required shares (relative to n) => better survival.
        let s_tight = share_flow_survival(20, &[15, 15], 0.1, 2.0, 3);
        let s_loose = share_flow_survival(20, &[8, 8], 0.1, 2.0, 3);
        assert!(s_loose > s_tight);
        assert!((0.0..=1.0).contains(&s_tight));
        // No churn, no malicious, low thresholds: certain delivery.
        let s_sure = share_flow_survival(20, &[1, 1], 0.0, 0.0, 3);
        assert!((s_sure - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn resilience_values_are_probabilities(
            p in 0.0f64..=0.5,
            k in 1usize..20,
            l in 1usize..20,
        ) {
            for r in [disjoint(p, k, l), joint(p, k, l)] {
                prop_assert!((0.0..=1.0).contains(&r.release));
                prop_assert!((0.0..=1.0).contains(&r.drop));
            }
        }

        #[test]
        fn lemma1_property(p in 0.0f64..0.5, k in 1usize..30, l in 1usize..30) {
            prop_assert!(lemma1_holds(p, k, l), "p={p} k={k} l={l}");
        }

        #[test]
        fn release_monotone_decreasing_in_p(k in 1usize..10, l in 1usize..10) {
            let mut prev = 1.0f64;
            for i in 0..=10 {
                let p = i as f64 * 0.05;
                let r = release_multipath(p, k, l);
                prop_assert!(r <= prev + 1e-12);
                prev = r;
            }
        }

        #[test]
        fn algorithm1_resilience_in_range(
            p in 0.01f64..0.45,
            l in 2usize..12,
            alpha in 0.0f64..5.0,
        ) {
            let a = algorithm1(2, l, 2000, alpha, p);
            prop_assert!((0.0..=1.0).contains(&a.resilience.release));
            prop_assert!((0.0..=1.0).contains(&a.resilience.drop));
            prop_assert_eq!(a.m.len(), l - 1);
        }
    }
}

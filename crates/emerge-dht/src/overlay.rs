//! The DHT overlay's world parameters.
//!
//! The paper drives Overlay Weaver this way: "we invoke 10000 DHT node
//! instances … randomly select 10000·p non-repeated nodes and mark them as
//! malicious", with node death following an exponential distribution.
//! [`OverlayConfig`] captures exactly those knobs; the world itself is
//! [`crate::analytic::AnalyticSubstrate`], sampled from
//! [`crate::population::Genesis`].
//!
//! ## Slots and generations
//!
//! Churn is modelled with **slots**: a slot is a position in the population
//! that is always occupied by exactly one node *generation*. When the
//! current generation dies, the next one (a fresh node with a fresh ID and
//! an independent malicious draw) takes over instantly — this is the DHT
//! replication mechanism handing the dead node's responsibilities to a
//! replacement, which is precisely the re-exposure channel the paper's
//! churn analysis worries about (Section III-D).

/// Configuration of an overlay world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayConfig {
    /// Number of population slots (live nodes at any instant).
    pub n_nodes: usize,
    /// Fraction `p` of initially malicious nodes (marked exactly,
    /// `⌊p·n⌋` non-repeated nodes as in the paper's setup).
    pub malicious_fraction: f64,
    /// Mean node lifetime in ticks; `None` disables churn.
    pub mean_lifetime: Option<u64>,
    /// Horizon up to which churn generations are pre-sampled.
    pub horizon: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            n_nodes: 128,
            malicious_fraction: 0.0,
            mean_lifetime: None,
            horizon: 1_000_000,
        }
    }
}

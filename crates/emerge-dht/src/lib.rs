//! # emerge-dht
//!
//! The simulated DHT world the self-emerging key-routing schemes in
//! `emerge-core` are built upon. This crate replaces the paper's use of
//! the Overlay Weaver DHT emulator with what its experiments actually
//! measure: a node population over a uniform 160-bit ID space, exact
//! XOR-closest holder resolution, churn (exponential node lifetimes with
//! generational replacement) and exact adversarial node marking.
//!
//! ## Layout
//!
//! * [`id`] — 160-bit node/key identifiers and the XOR distance metric
//! * [`index`] — the sorted generation-0 ID index behind `O(log² n)`
//!   XOR-closest resolution
//! * [`population`] — the churn-expanded node population (generation
//!   timelines, malicious marking), sampled lazily per slot or eagerly
//! * [`overlay`] — [`OverlayConfig`], the world parameters
//! * [`analytic`] — [`AnalyticSubstrate`], the DHT world: population,
//!   holder resolution and churn queries
//!
//! ## Example
//!
//! ```
//! use emerge_dht::{AnalyticSubstrate, OverlayConfig};
//!
//! let config = OverlayConfig { n_nodes: 64, ..OverlayConfig::default() };
//! let world = AnalyticSubstrate::build(config, 42);
//!
//! // A holder address resolves to the slot whose generation-0 ID is
//! // XOR-closest to it: the head of the closest-slots ranking.
//! let address = emerge_dht::id::NodeId::from_name(b"holder-address");
//! let slot = world.resolve_holder(&address);
//! assert_eq!(world.closest_slots(&address, 3)[0], slot);
//!
//! // The default world marks no node malicious.
//! assert!(!world.generation_at(slot, world.now()).malicious);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod id;
pub mod index;
pub mod overlay;
pub mod population;

pub use analytic::AnalyticSubstrate;
pub use id::NodeId;
pub use overlay::OverlayConfig;
pub use population::NodeInfo;

//! # emerge-dht
//!
//! The simulated DHT world the self-emerging key-routing schemes in
//! `emerge-core` are built upon. This crate replaces the paper's use of
//! the Overlay Weaver DHT emulator with what its experiments actually
//! measure: a node population over a uniform 160-bit ID space, exact
//! XOR-closest holder resolution, churn (exponential node lifetimes with
//! generational replacement), exact adversarial node marking and a
//! replicated storage oracle.
//!
//! ## Layout
//!
//! * [`id`] — 160-bit node/key identifiers and the XOR distance metric
//! * [`index`] — the sorted generation-0 ID index behind `O(log² n)`
//!   XOR-closest resolution
//! * [`storage`] — TTL'd local key-value store
//! * [`population`] — the churn-expanded node population (generation
//!   timelines, malicious marking), sampled lazily per slot or eagerly
//! * [`overlay`] — [`OverlayConfig`], the world parameters
//! * [`analytic`] — [`AnalyticSubstrate`], the DHT world: population,
//!   holder resolution, churn queries and storage
//!
//! ## Example
//!
//! ```
//! use emerge_dht::{AnalyticSubstrate, OverlayConfig};
//!
//! let config = OverlayConfig { n_nodes: 64, ..OverlayConfig::default() };
//! let mut world = AnalyticSubstrate::build(config, 42);
//!
//! // Store a value on the responsible slots and read it back.
//! let key = emerge_dht::id::NodeId::from_name(b"the-key");
//! let holders = world.store(key, b"hello".to_vec());
//! assert_eq!(holders[0], world.resolve_holder(&key));
//! assert_eq!(world.find_value(key).as_deref(), Some(&b"hello"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod id;
pub mod index;
pub mod overlay;
pub mod population;
pub mod storage;

pub use analytic::AnalyticSubstrate;
pub use id::NodeId;
pub use overlay::OverlayConfig;
pub use population::NodeInfo;

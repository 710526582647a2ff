//! 160-bit identifiers and the Kademlia XOR metric.
//!
//! Both node IDs and content keys live in the same 160-bit space, exactly
//! as in Chord/Kademlia-style DHTs (the paper's reference is Stoica et
//! al.'s Chord; Overlay Weaver likewise uses a 160-bit space derived from
//! SHA-1 — we use truncated SHA-256 for key derivation instead).

use emerge_crypto::sha256::Sha256;
use rand::RngCore;
use std::fmt;

/// Identifier length in bytes (160 bits).
pub const ID_LEN: usize = 20;
/// Identifier length in bits.
pub const ID_BITS: usize = 160;

/// A 160-bit identifier in the DHT space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub [u8; ID_LEN]);

/// The XOR distance between two identifiers.
///
/// Ordered lexicographically, which matches numeric ordering of the
/// underlying 160-bit integers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Distance(pub [u8; ID_LEN]);

impl NodeId {
    /// The all-zero identifier.
    pub const ZERO: NodeId = NodeId([0u8; ID_LEN]);
    /// The all-ones identifier.
    pub const MAX: NodeId = NodeId([0xFF; ID_LEN]);

    /// Creates an ID from raw bytes.
    pub const fn from_bytes(bytes: [u8; ID_LEN]) -> Self {
        NodeId(bytes)
    }

    /// Derives an ID by hashing an arbitrary name (truncated SHA-256).
    ///
    /// This is how content keys and pseudo-random holder addresses are
    /// produced: uniform in the ID space and deterministic.
    pub fn from_name(name: &[u8]) -> Self {
        let digest = Sha256::digest(name);
        let mut bytes = [0u8; ID_LEN];
        bytes.copy_from_slice(&digest[..ID_LEN]);
        NodeId(bytes)
    }

    /// Samples a uniformly random ID.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; ID_LEN];
        rng.fill_bytes(&mut bytes);
        NodeId(bytes)
    }

    /// XOR distance to `other`.
    pub fn distance(&self, other: &NodeId) -> Distance {
        let mut d = [0u8; ID_LEN];
        for ((d, a), b) in d.iter_mut().zip(&self.0).zip(&other.0) {
            *d = a ^ b;
        }
        Distance(d)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; ID_LEN] {
        &self.0
    }

    /// Returns the value of bit `bit` (0 = most significant).
    pub fn bit(&self, bit: usize) -> bool {
        // LINT-WAIVER(panic): documented contract: the bit index is bounded by ID_BITS
        assert!(bit < ID_BITS);
        self.0[bit / 8] & (0x80 >> (bit % 8)) != 0
    }

    /// A short hex prefix for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl Distance {
    /// The zero distance.
    pub const ZERO: Distance = Distance([0u8; ID_LEN]);

    /// Number of leading zero bits (160 for the zero distance).
    pub fn leading_zeros(&self) -> usize {
        let mut count = 0;
        for &byte in &self.0 {
            if byte == 0 {
                count += 8;
            } else {
                count += byte.leading_zeros() as usize;
                break;
            }
        }
        count
    }

    /// Whether this is the zero distance (identical IDs).
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({}…)", self.short_hex())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Distance(lz={})", self.leading_zeros())
    }
}

impl From<[u8; ID_LEN]> for NodeId {
    fn from(bytes: [u8; ID_LEN]) -> Self {
        NodeId(bytes)
    }
}

/// Sorts `ids` in place by distance to `target` (closest first).
pub fn sort_by_distance(ids: &mut [NodeId], target: &NodeId) {
    ids.sort_by_key(|id| id.distance(target));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(byte: u8) -> NodeId {
        NodeId::from_bytes([byte; ID_LEN])
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = id(7);
        assert!(a.distance(&a).is_zero());
        assert_eq!(a.distance(&a).leading_zeros(), ID_BITS);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = NodeId::from_name(b"a");
        let b = NodeId::from_name(b"b");
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn bit_accessor_is_msb_first() {
        let mut msb = [0u8; ID_LEN];
        msb[0] = 0x80;
        let mut lsb = [0u8; ID_LEN];
        lsb[ID_LEN - 1] = 1;
        for bit in [0usize, 1, 7, 8, 63, 159] {
            assert_eq!(NodeId::from_bytes(msb).bit(bit), bit == 0, "bit {bit}");
            assert_eq!(NodeId::from_bytes(lsb).bit(bit), bit == 159, "bit {bit}");
        }
    }

    #[test]
    fn from_name_is_deterministic_and_spread() {
        assert_eq!(NodeId::from_name(b"k"), NodeId::from_name(b"k"));
        assert_ne!(NodeId::from_name(b"k1"), NodeId::from_name(b"k2"));
    }

    #[test]
    fn sort_by_distance_orders_correctly() {
        let target = NodeId::ZERO;
        let mut ids = vec![id(3), id(1), id(2), id(0x80)];
        sort_by_distance(&mut ids, &target);
        // Distance to zero is the numeric value of the ID.
        assert_eq!(ids, vec![id(1), id(2), id(3), id(0x80)]);
    }

    #[test]
    fn display_and_debug() {
        let a = NodeId::ZERO;
        assert_eq!(a.to_string().len(), 40);
        assert!(format!("{a:?}").contains("NodeId"));
    }

    #[test]
    fn random_ids_are_distinct() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = NodeId::random(&mut rng);
        let b = NodeId::random(&mut rng);
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn xor_metric_triangle_inequality_bitwise(
            a in any::<[u8; ID_LEN]>(),
            b in any::<[u8; ID_LEN]>(),
            c in any::<[u8; ID_LEN]>(),
        ) {
            // For XOR, d(a,c) = d(a,b) XOR d(b,c), which implies
            // d(a,c) <= d(a,b) + d(b,c) numerically. We verify the defining
            // identity bitwise.
            let (a, b, c) = (NodeId(a), NodeId(b), NodeId(c));
            let ab = a.distance(&b);
            let bc = b.distance(&c);
            let ac = a.distance(&c);
            for i in 0..ID_LEN {
                prop_assert_eq!(ac.0[i], ab.0[i] ^ bc.0[i]);
            }
        }

        #[test]
        fn unidirectionality(a in any::<[u8; ID_LEN]>(), b in any::<[u8; ID_LEN]>()) {
            // For a given a and distance d there is exactly one b with
            // d(a,b)=d: XOR is invertible.
            let (a, b) = (NodeId(a), NodeId(b));
            let d = a.distance(&b);
            let mut recovered = [0u8; ID_LEN];
            for ((r, a), d) in recovered.iter_mut().zip(&a.0).zip(&d.0) {
                *r = a ^ d;
            }
            prop_assert_eq!(NodeId(recovered), b);
        }

        #[test]
        fn leading_zeros_bounds(a in any::<[u8; ID_LEN]>(), b in any::<[u8; ID_LEN]>()) {
            let d = NodeId(a).distance(&NodeId(b));
            prop_assert!(d.leading_zeros() <= ID_BITS);
            if a != b {
                prop_assert!(d.leading_zeros() < ID_BITS);
            }
        }
    }
}

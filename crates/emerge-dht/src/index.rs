//! The sorted generation-0 ID index behind holder resolution.
//!
//! Resolving a pseudo-random holder address to the XOR-closest node is
//! the innermost loop of path construction; at the paper's 10 000-node
//! scale a linear selection costs ~200 µs per address. This index keeps
//! `(id, slot)` pairs in ascending ID order and resolves by descending
//! the implicit binary trie over that order — `O(log² n)` per query,
//! identical output to the brute-force XOR sort (pinned by the tests
//! below and the analytic substrate's).
//!
//! [`crate::analytic::AnalyticSubstrate`] builds one per world and
//! rebuilds it in place on reseed. Churn never changes generation-0
//! responsibility, so the index is immutable within a world.

use crate::id::{NodeId, ID_BITS};

/// `(id, slot)` pairs in ascending ID order, with closest-slot queries.
#[derive(Debug, Clone)]
pub struct SortedIdIndex {
    sorted: Vec<(NodeId, u32)>,
}

/// Reusable decoration buffer for [`SortedIdIndex::rebuild`], so repeated
/// world builds sort without reallocating the tuple staging area.
#[derive(Debug, Default)]
pub struct IndexScratch {
    decorated: Vec<(u64, NodeId, u32)>,
}

impl SortedIdIndex {
    /// Builds the index over `ids`, where position `i` is slot `i`:
    /// [`rebuild`](Self::rebuild) into empty storage.
    pub fn build(ids: &[NodeId]) -> Self {
        let mut index = SortedIdIndex { sorted: Vec::new() };
        index.rebuild(ids, &mut IndexScratch::default());
        index
    }

    /// Rebuilds the index over `ids` in place, reusing both the sorted
    /// storage and the caller's decoration scratch. `sort_unstable` is
    /// in-place, so a warm rebuild performs no heap allocation.
    ///
    /// Uses a decorated sort: comparing 20-byte IDs byte-wise is the
    /// dominant cost of world construction at 10 000 slots, and almost
    /// every comparison is already decided by the first eight bytes.
    /// Sorting `(u64 prefix, id, slot)` tuples resolves those with one
    /// integer compare and falls back to the full ID only on prefix ties
    /// — the tuple order equals the plain `(id, slot)` order, so the
    /// index (and every resolution built on it) is unchanged.
    pub fn rebuild(&mut self, ids: &[NodeId], scratch: &mut IndexScratch) {
        scratch.decorated.clear();
        scratch.decorated.extend(
            ids.iter()
                .enumerate()
                .map(|(slot, id)| (prefix64(id), *id, slot as u32)),
        );
        scratch.decorated.sort_unstable();
        self.sorted.clear();
        self.sorted
            .extend(scratch.decorated.iter().map(|&(_, id, slot)| (id, slot)));
    }

    /// Number of indexed IDs.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `count` slots whose IDs are XOR-closest to `target`, closest
    /// first — identical output to brute-force XOR sorting, computed by
    /// descending the implicit binary trie over the sorted order.
    pub fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count.min(self.sorted.len()));
        self.visit_closest(0, self.sorted.len(), 0, target, count, &mut out);
        out
    }

    /// The slot responsible for `target` (XOR-closest ID).
    ///
    /// Allocation-free specialization of `closest_slots(target, 1)`: the
    /// single closest ID never requires visiting a sibling subtree, so
    /// the descent keeps narrowing one range — choosing the target-side
    /// half whenever it is non-empty — until a leaf remains. Identical
    /// result to the general traversal (on duplicate-ID leaves both
    /// return the first slot in sorted order).
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn resolve(&self, target: &NodeId) -> usize {
        let (mut lo, mut hi) = (0usize, self.sorted.len());
        let mut bit = 0usize;
        while hi - lo > 1 && bit < ID_BITS {
            let split = lo + self.sorted[lo..hi].partition_point(|(id, _)| !id.bit(bit));
            if target.bit(bit) {
                if split < hi {
                    lo = split;
                } else {
                    hi = split;
                }
            } else if split > lo {
                hi = split;
            } else {
                lo = split;
            }
            bit += 1;
        }
        self.sorted[lo].1 as usize
    }

    /// In-order traversal of the ID trie, target-side subtree first: every
    /// ID in the subtree sharing `target`'s bit at the split level is
    /// XOR-closer than any ID in the sibling subtree, so appending in
    /// visit order enumerates slots in increasing XOR distance.
    fn visit_closest(
        &self,
        lo: usize,
        hi: usize,
        bit: usize,
        target: &NodeId,
        count: usize,
        out: &mut Vec<usize>,
    ) {
        if lo >= hi || out.len() >= count {
            return;
        }
        if hi - lo == 1 || bit >= ID_BITS {
            // Leaf range: a multi-element range at bit 160 means duplicate
            // IDs — append in sorted order, matching a stable XOR sort.
            for &(_, slot) in &self.sorted[lo..hi] {
                if out.len() >= count {
                    return;
                }
                out.push(slot as usize);
            }
            return;
        }
        let split = lo + self.sorted[lo..hi].partition_point(|(id, _)| !id.bit(bit));
        if target.bit(bit) {
            self.visit_closest(split, hi, bit + 1, target, count, out);
            self.visit_closest(lo, split, bit + 1, target, count, out);
        } else {
            self.visit_closest(lo, split, bit + 1, target, count, out);
            self.visit_closest(split, hi, bit + 1, target, count, out);
        }
    }
}

fn prefix64(id: &NodeId) -> u64 {
    // LINT-WAIVER(panic): a NodeId is 32 bytes, so the 8-byte prefix slice always converts
    u64::from_be_bytes(id.as_bytes()[..8].try_into().expect("8-byte prefix"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::sort_by_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_ids(n: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| NodeId::random(&mut rng)).collect()
    }

    #[test]
    fn closest_matches_brute_force() {
        let ids = random_ids(257, 3);
        let index = SortedIdIndex::build(&ids);
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..40 {
            let target = if i % 4 == 0 {
                ids[i * 5 % ids.len()]
            } else {
                NodeId::random(&mut rng)
            };
            let got = index.closest_slots(&target, 9);
            let mut expect = ids.clone();
            sort_by_distance(&mut expect, &target);
            for (rank, slot) in got.iter().enumerate() {
                assert_eq!(ids[*slot], expect[rank], "rank {rank}");
            }
            assert_eq!(index.resolve(&target), got[0]);
        }
    }

    #[test]
    fn edge_counts() {
        let ids = random_ids(16, 7);
        let index = SortedIdIndex::build(&ids);
        let target = NodeId::from_name(b"x");
        assert!(index.closest_slots(&target, 0).is_empty());
        assert_eq!(index.closest_slots(&target, 16).len(), 16);
        assert_eq!(index.closest_slots(&target, 100).len(), 16);
        assert!(!index.is_empty());
    }
}

//! Per-node key-value storage with expiry.
//!
//! Each DHT node stores values it is responsible for. Values carry a TTL so
//! that key packages disappear after the emerging period instead of
//! lingering forever — the paper's holders keep a package for one holding
//! period only.

use crate::id::NodeId;
use emerge_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// A stored value with its metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredValue {
    /// The value bytes.
    pub value: Vec<u8>,
    /// When the value was stored.
    pub stored_at: SimTime,
    /// Time-to-live; `None` means no expiry.
    pub ttl: Option<SimDuration>,
}

impl StoredValue {
    /// Whether the value has expired by `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        match self.ttl {
            Some(ttl) => now > self.stored_at + ttl,
            None => false,
        }
    }
}

/// A node-local store.
#[derive(Debug, Clone, Default)]
pub struct Store {
    entries: HashMap<NodeId, StoredValue>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Inserts (or replaces) a value.
    pub fn put(&mut self, key: NodeId, value: Vec<u8>, now: SimTime, ttl: Option<SimDuration>) {
        self.entries.insert(
            key,
            StoredValue {
                value,
                stored_at: now,
                ttl,
            },
        );
    }

    /// Fetches a live value.
    pub fn get(&self, key: &NodeId, now: SimTime) -> Option<&StoredValue> {
        self.entries.get(key).filter(|v| !v.expired(now))
    }

    /// Removes a value, returning it if present.
    pub fn remove(&mut self, key: &NodeId) -> Option<StoredValue> {
        self.entries.remove(key)
    }

    /// Drops all expired entries, returning how many were removed.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, v| !v.expired(now));
        before - self.entries.len()
    }

    /// Number of entries (including not-yet-purged expired ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates all live entries.
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (&NodeId, &StoredValue)> {
        self.entries.iter().filter(move |(_, v)| !v.expired(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn d(x: u64) -> SimDuration {
        SimDuration::from_ticks(x)
    }

    fn key(name: &[u8]) -> NodeId {
        NodeId::from_name(name)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = Store::new();
        s.put(key(b"a"), b"v".to_vec(), t(0), None);
        assert_eq!(s.get(&key(b"a"), t(100)).unwrap().value, b"v");
        assert!(s.get(&key(b"b"), t(0)).is_none());
    }

    #[test]
    fn ttl_expiry() {
        let mut s = Store::new();
        s.put(key(b"a"), b"v".to_vec(), t(10), Some(d(5)));
        assert!(s.get(&key(b"a"), t(15)).is_some(), "at exactly ttl edge");
        assert!(s.get(&key(b"a"), t(16)).is_none(), "past ttl");
    }

    #[test]
    fn purge_removes_only_expired() {
        let mut s = Store::new();
        s.put(key(b"a"), vec![1], t(0), Some(d(10)));
        s.put(key(b"b"), vec![2], t(0), Some(d(100)));
        s.put(key(b"c"), vec![3], t(0), None);
        assert_eq!(s.purge_expired(t(50)), 1);
        assert_eq!(s.len(), 2);
        assert!(s.get(&key(b"b"), t(50)).is_some());
        assert!(s.get(&key(b"c"), t(50)).is_some());
    }

    #[test]
    fn replace_updates_value_and_clock() {
        let mut s = Store::new();
        s.put(key(b"a"), vec![1], t(0), Some(d(5)));
        s.put(key(b"a"), vec![2], t(10), Some(d(5)));
        let v = s.get(&key(b"a"), t(12)).unwrap();
        assert_eq!(v.value, vec![2]);
        assert_eq!(v.stored_at, t(10));
    }

    #[test]
    fn iter_live_skips_expired() {
        let mut s = Store::new();
        s.put(key(b"a"), vec![1], t(0), Some(d(1)));
        s.put(key(b"b"), vec![2], t(0), None);
        let live: Vec<_> = s.iter_live(t(50)).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1.value, vec![2]);
    }
}

//! A small ordered map stored as one key-sorted vector.
//!
//! Per-endpoint tables (a host's sockets, a client's sessions) usually
//! hold one to a handful of entries, for tens of thousands of endpoints
//! at once. A `BTreeMap` allocates a whole leaf node for its first
//! entry — hundreds of bytes for one socket — while [`VecMap`] holds
//! exactly its entries plus the vector's spare capacity. Lookups are a
//! binary search; inserts and removes shift the tail, which is cheap
//! while tables stay small or keys arrive in increasing order (socket
//! ids, timer tokens). Large tables with unordered keys belong in a
//! `BTreeMap`.
//!
//! Iteration yields entries in ascending key order, exactly as
//! `BTreeMap` does, so swapping one for the other keeps every
//! order-dependent output byte-identical.

use std::fmt;

/// An ordered map backed by a key-sorted `Vec<(K, V)>`.
///
/// # Examples
///
/// ```
/// use punch_net::VecMap;
///
/// let mut m = VecMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a");
/// *m.get_or_insert_with(2, || "b") = "B";
/// assert_eq!(m.get(&2), Some(&"B"));
/// assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [1, 2, 3]);
/// assert_eq!(m.remove(&1), Some("a"));
/// assert_eq!(m.len(), 2);
/// ```
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Creates an empty map; it allocates nothing until the first insert.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Position of `key`, or where it would be inserted.
    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.search(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// Mutable access to the value under `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.search(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Inserts a new entry at sorted position `i`. Most per-endpoint
    /// tables never grow past one entry, so the first insert allocates
    /// room for exactly one instead of `Vec`'s usual four.
    fn insert_at(&mut self, i: usize, key: K, value: V) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(i, (key, value));
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.search(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The value under `key`, inserting `f()` first if it is absent
    /// (`BTreeMap`'s `entry(key).or_insert_with(f)`).
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &mut V {
        let i = match self.search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, key, f());
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_keys_sorted_and_replaces_in_place() {
        let mut m = VecMap::new();
        for k in [5, 1, 9, 3] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.insert(3, 33), Some(30));
        assert_eq!(
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            [(1, 10), (3, 33), (5, 50), (9, 90)]
        );
        assert_eq!(m.get(&9), Some(&90));
        assert_eq!(m.remove(&4), None);
        assert_eq!(m.remove(&1), Some(10));
        assert!(!m.contains_key(&1));
        assert_eq!(format!("{m:?}"), "{3: 33, 5: 50, 9: 90}");
    }
}

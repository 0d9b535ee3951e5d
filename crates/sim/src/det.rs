//! Determinism-safe collections.
//!
//! The repo's headline guarantees — bit-identical ensemble scores at any
//! thread count, and batch == stream bit-for-bit equivalence — hold only if
//! every byte of every audit trace is reproducible. `std`'s `HashMap` /
//! `HashSet` iterate in an order that depends on a per-process random seed
//! (`RandomState`), so a single careless `.values()` loop in simulator or
//! agent state can silently reintroduce run-to-run nondeterminism that no
//! fixed-seed replay test reliably catches.
//!
//! This module provides the collections deterministic code should use
//! instead, and the `cfa-audit` static analyzer (rule **D001**) pushes the
//! deterministic crates onto them:
//!
//! * [`DetMap`] — a BTree-backed map whose iteration order is the key
//!   order, always. Drop-in for the common `HashMap` API surface. Use it
//!   for protocol and kernel state.
//! * [`IndexedMap`] — insertion-ordered map with an O(1) hash lookup path,
//!   for hot lookup tables that are built once and probed per event (e.g.
//!   the simulator's flow-endpoint table). The internal hash index is never
//!   iterated, so its random state cannot leak into observable behaviour.
//! * [`NodeMap`] — dense `NodeId`-keyed slots with O(1) access and
//!   id-ordered iteration, for per-neighbour / per-destination agent state
//!   touched on every reception. Iteration order equals `DetMap`'s, so the
//!   two are trace-compatible.

use crate::packet::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An ordered map with deterministic (key-ordered) iteration.
///
/// A thin wrapper around [`BTreeMap`] exposing the `HashMap` methods the
/// simulator and protocol agents need. Lookups are O(log n) — for per-event
/// hot paths on large key spaces prefer [`IndexedMap`].
#[derive(Clone, PartialEq, Eq)]
pub struct DetMap<K, V> {
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> DetMap<K, V> {
        DetMap {
            inner: BTreeMap::new(),
        }
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    /// Looks up a value by key, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.get_mut(key)
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner.contains_key(key)
    }

    /// Returns the value for `key`, inserting `V::default()` first if absent.
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.inner.entry(key).or_default()
    }

    /// Keeps only the entries for which `f` returns `true`. Entries are
    /// visited in key order.
    pub fn retain(&mut self, f: impl FnMut(&K, &mut V) -> bool) {
        self.inner.retain(f);
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.inner.iter()
    }

    /// Iterates entries in key order with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.inner.iter_mut()
    }

    /// Iterates keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.inner.keys()
    }

    /// Iterates values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.inner.values()
    }

    /// Iterates values in key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.inner.values_mut()
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        self.inner.pop_first()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<K: Ord, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetMap {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::collections::btree_map::Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<K: Ord, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::collections::btree_map::IntoIter<K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

/// An insertion-ordered map with an O(1) hash lookup path.
///
/// Entries live in a `Vec` in insertion order; a private `HashMap` maps keys
/// to slots. Iteration walks the `Vec`, so observable order is the
/// deterministic insertion order — the hash index's random state never
/// escapes. Built for tables that are populated once and then probed on
/// every event (the simulator's flow-endpoint table), so removal is
/// intentionally not offered.
pub struct IndexedMap<K, V> {
    slots: Vec<(K, V)>,
    // Lookup acceleration only. Never iterated: iteration order would be
    // nondeterministic (audit rule D001).
    index: HashMap<K, usize>,
}

impl<K, V> IndexedMap<K, V>
where
    K: std::hash::Hash + Eq + Clone,
{
    /// Creates an empty map.
    pub fn new() -> IndexedMap<K, V> {
        IndexedMap {
            slots: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Inserts a key-value pair, returning the previous value if the key was
    /// already present (the slot keeps its original insertion position).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.get(&key) {
            // audit: allow(D006, reason = "index values always point into slots: both grow in lockstep below")
            Some(&slot) => Some(std::mem::replace(&mut self.slots[slot].1, value)),
            None => {
                // audit: allow(D007, reason = "append-only registry by design; owners key it by bounded ids (flows, nodes)")
                self.index.insert(key.clone(), self.slots.len());
                // audit: allow(D007, reason = "append-only registry by design; owners key it by bounded ids (flows, nodes)")
                self.slots.push((key, value));
                None
            }
        }
    }

    /// Looks up a value by key in O(1).
    pub fn get(&self, key: &K) -> Option<&V> {
        // audit: allow(D006, reason = "index values always point into slots: both grow in lockstep in insert")
        self.index.get(key).map(|&slot| &self.slots[slot].1)
    }

    /// Looks up a value by key in O(1), mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.index.get(key) {
            // audit: allow(D006, reason = "index values always point into slots: both grow in lockstep in insert")
            Some(&slot) => Some(&mut self.slots[slot].1),
            None => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.slots.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<K, V> Default for IndexedMap<K, V>
where
    K: std::hash::Hash + Eq + Clone,
{
    fn default() -> Self {
        IndexedMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for IndexedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.slots.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// A dense [`NodeId`]-keyed map with O(1) slot access and id-ordered
/// iteration.
///
/// Protocol agents key per-neighbour and per-destination state by
/// `NodeId` — a dense `0..n_nodes` index — and touch it on *every*
/// reception, where a `DetMap`'s B-tree walk is measurable at 500+
/// nodes. Slots grow lazily to the highest id inserted (bounded by the
/// `u16` id space), and iteration walks slots in index order, which is
/// exactly `NodeId`'s `Ord` order — the same observable order a
/// [`DetMap<NodeId, V>`] produces, so swapping one for the other cannot
/// move a single trace byte.
#[derive(Clone, PartialEq, Eq)]
pub struct NodeMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> NodeMap<V> {
    /// Creates an empty map.
    pub fn new() -> NodeMap<V> {
        NodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn slot(&self, key: NodeId) -> Option<&Option<V>> {
        self.slots.get(key.index())
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: NodeId, value: V) -> Option<V> {
        let idx = key.index();
        if idx >= self.slots.len() {
            // audit: allow(D007, reason = "dense id-keyed slots: bounded by the u16 NodeId space, grown at most once per id")
            self.slots.resize_with(idx + 1, || None);
        }
        // audit: allow(D006, reason = "slot just grown to cover idx above")
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Looks up a value by key.
    pub fn get(&self, key: NodeId) -> Option<&V> {
        self.slot(key).and_then(Option::as_ref)
    }

    /// Looks up a value by key, mutably.
    pub fn get_mut(&mut self, key: NodeId) -> Option<&mut V> {
        self.slots.get_mut(key.index()).and_then(Option::as_mut)
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: NodeId) -> Option<V> {
        let taken = self.slots.get_mut(key.index()).and_then(Option::take);
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: NodeId) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value for `key`, inserting a default first if absent.
    pub fn entry_or_default(&mut self, key: NodeId) -> &mut V
    where
        V: Default,
    {
        let idx = key.index();
        if idx >= self.slots.len() {
            // audit: allow(D007, reason = "dense id-keyed slots: bounded by the u16 NodeId space, grown at most once per id")
            self.slots.resize_with(idx + 1, || None);
        }
        // audit: allow(D006, reason = "slot just grown to cover idx above")
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(V::default)
    }

    /// Iterates entries in `NodeId` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (NodeId(i as u16), v)))
    }

    /// Iterates entries mutably in `NodeId` order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| v.as_mut().map(|v| (NodeId(i as u16), v)))
    }

    /// Iterates values in `NodeId` order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates values mutably in `NodeId` order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Keeps only the entries for which `f` returns `true`, visiting them
    /// in `NodeId` order.
    pub fn retain(&mut self, mut f: impl FnMut(NodeId, &mut V) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !f(NodeId(i as u16), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<V> Default for NodeMap<V> {
    fn default() -> Self {
        NodeMap::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for NodeMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_map_iterates_in_key_order() {
        let mut m = DetMap::new();
        for k in [5u32, 1, 9, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![10, 30, 50, 90]);
    }

    #[test]
    fn det_map_basic_ops() {
        let mut m = DetMap::new();
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert!(m.contains_key(&"a"));
        *m.entry_or_default("b") += 7;
        assert_eq!(m.get(&"b"), Some(&7));
        m.retain(|&k, _| k != "a");
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&"b"), Some(7));
        assert!(m.is_empty());
    }

    #[test]
    fn indexed_map_preserves_insertion_order() {
        let mut m = IndexedMap::new();
        m.insert("z", 1);
        m.insert("a", 2);
        m.insert("m", 3);
        let keys: Vec<&str> = m.keys().copied().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
        assert_eq!(m.get(&"a"), Some(&2));
    }

    #[test]
    fn indexed_map_reinsert_keeps_slot() {
        let mut m = IndexedMap::new();
        m.insert(1u32, "one");
        m.insert(2, "two");
        assert_eq!(m.insert(1, "uno"), Some("one"));
        let entries: Vec<(u32, &str)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(entries, vec![(1, "uno"), (2, "two")]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn node_map_iterates_in_id_order() {
        let mut m = NodeMap::new();
        m.insert(NodeId(9), "i");
        m.insert(NodeId(1), "b");
        m.insert(NodeId(4), "e");
        let got: Vec<(NodeId, &str)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(
            got,
            vec![(NodeId(1), "b"), (NodeId(4), "e"), (NodeId(9), "i")]
        );
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn node_map_matches_det_map_order() {
        // The swap-in guarantee: a NodeMap and a DetMap<NodeId, _> fed the
        // same inserts/removes expose the same entries in the same order.
        let mut nm = NodeMap::new();
        let mut dm: DetMap<NodeId, u32> = DetMap::new();
        for (id, v) in [(7u16, 70u32), (0, 0), (12, 120), (3, 30), (7, 71)] {
            nm.insert(NodeId(id), v);
            dm.insert(NodeId(id), v);
        }
        nm.remove(NodeId(3));
        dm.remove(&NodeId(3));
        let a: Vec<(NodeId, u32)> = nm.iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<(NodeId, u32)> = dm.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(a, b);
        assert_eq!(nm.len(), dm.len());
    }

    #[test]
    fn node_map_insert_remove_retain() {
        let mut m = NodeMap::new();
        assert_eq!(m.insert(NodeId(2), 20), None);
        assert_eq!(m.insert(NodeId(2), 21), Some(20));
        assert_eq!(m.remove(NodeId(5)), None, "never-inserted id");
        *m.entry_or_default(NodeId(6)) += 60;
        assert_eq!(m.get(NodeId(6)), Some(&60));
        m.retain(|id, _| id.0 != 2);
        assert!(!m.contains_key(NodeId(2)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(NodeId(6)), Some(60));
        assert!(m.is_empty());
    }
}

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
//! Deterministic code keys its state with `std`'s `BTreeMap` and
//! `BTreeSet`, whose iteration order is the key order, always; the
//! `cfa-audit` static analyzer (rule **D001**) keeps hash collections out
//! of the deterministic crates. This module adds the one collection `std`
//! lacks:
//!
//! * [`NodeMap`] — dense `NodeId`-keyed slots with O(1) access and
//!   id-ordered iteration, for per-neighbour / per-destination agent state
//!   touched on every reception. Iteration order equals a
//!   `BTreeMap<NodeId, V>`'s, so the two are trace-compatible.

use crate::packet::NodeId;
use std::fmt;

/// A dense [`NodeId`]-keyed map with O(1) slot access and id-ordered
/// iteration.
///
/// Protocol agents key per-neighbour and per-destination state by
/// `NodeId` — a dense `0..n_nodes` index — and touch it on *every*
/// reception, where a `BTreeMap`'s B-tree walk is measurable at 500+
/// nodes. Slots grow lazily to the highest id inserted (bounded by the
/// `u16` id space), and iteration walks slots in index order, which is
/// exactly `NodeId`'s `Ord` order — the same observable order a
/// `BTreeMap<NodeId, V>` produces, so swapping one for the other cannot
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
    use std::collections::BTreeMap;

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
    fn node_map_matches_btree_map_order() {
        // The swap-in guarantee: a NodeMap and a BTreeMap<NodeId, _> fed
        // the same inserts/removes expose the same entries in the same
        // order.
        let mut nm = NodeMap::new();
        let mut dm: BTreeMap<NodeId, u32> = BTreeMap::new();
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

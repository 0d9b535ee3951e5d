//! The DSR route cache.

use manet_sim::{DetMap, NodeId, SimTime};

/// Result of inserting a path into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInsert {
    /// The path was new (no identical path was cached for the destination).
    New,
    /// An identical path was already cached; its expiry was refreshed.
    Refreshed,
}

#[derive(Debug, Clone)]
struct CachedRoute {
    /// Path from the owning node (exclusive) to the destination
    /// (inclusive): `path[last]` is the destination.
    path: Vec<NodeId>,
    expires: SimTime,
}

/// A per-node cache of source routes, keyed by destination.
///
/// Paths are stored *excluding* the owning node itself; `path.len()` is the
/// hop count. The cache keeps up to [`RouteCache::MAX_PER_DEST`] distinct
/// paths per destination and always serves the shortest live one.
#[derive(Debug, Default)]
pub struct RouteCache {
    routes: DetMap<NodeId, Vec<CachedRoute>>,
    ttl: SimTime,
}

impl RouteCache {
    /// Maximum number of alternative paths cached per destination.
    pub const MAX_PER_DEST: usize = 4;

    /// Creates a cache whose entries live for `ttl`.
    pub fn new(ttl: SimTime) -> RouteCache {
        RouteCache {
            routes: DetMap::new(),
            ttl,
        }
    }

    /// Inserts a path (owning node excluded, destination last). Returns
    /// how the insert was handled, or `None` for degenerate paths (empty,
    /// or containing duplicates, which would loop).
    pub fn insert(&mut self, now: SimTime, path: &[NodeId]) -> Option<CacheInsert> {
        if Self::has_duplicates(path) {
            return None;
        }
        let &dest = path.last()?;
        let expires = now + self.ttl;
        let entry = self.routes.entry_or_default(dest);
        if let Some(existing) = entry.iter_mut().find(|r| r.path == path) {
            existing.expires = expires;
            return Some(CacheInsert::Refreshed);
        }
        entry.push(CachedRoute {
            path: path.to_vec(),
            expires,
        });
        // Keep the shortest few.
        entry.sort_by_key(|r| r.path.len());
        entry.truncate(Self::MAX_PER_DEST);
        Some(CacheInsert::New)
    }

    /// Shortest live path to `dest`, if any (owning node excluded).
    pub fn best(&self, now: SimTime, dest: NodeId) -> Option<&[NodeId]> {
        self.routes
            .get(&dest)?
            .iter()
            .filter(|r| r.expires > now)
            .min_by_key(|r| r.path.len())
            .map(|r| r.path.as_slice())
    }

    /// Shortest live path to `dest` that avoids every node in `avoid`.
    pub fn best_avoiding(&self, now: SimTime, dest: NodeId, avoid: &[NodeId]) -> Option<&[NodeId]> {
        self.routes
            .get(&dest)?
            .iter()
            .filter(|r| r.expires > now && !r.path.iter().any(|n| avoid.contains(n)))
            .min_by_key(|r| r.path.len())
            .map(|r| r.path.as_slice())
    }

    /// Removes every cached path that uses the directed link `from → to`
    /// (with `owner` as the implicit first node of each path). Returns the
    /// number of paths removed.
    pub fn remove_link(&mut self, owner: NodeId, from: NodeId, to: NodeId) -> usize {
        let mut removed = 0;
        self.routes.retain(|_, paths| {
            paths.retain(|r| {
                let uses = Self::path_uses_link(owner, &r.path, from, to);
                if uses {
                    removed += 1;
                }
                !uses
            });
            !paths.is_empty()
        });
        removed
    }

    /// Drops expired entries, returning how many paths were evicted.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        self.routes.retain(|_, paths| {
            paths.retain(|r| {
                let dead = r.expires <= now;
                if dead {
                    removed += 1;
                }
                !dead
            });
            !paths.is_empty()
        });
        removed
    }

    /// Total number of cached paths (all destinations).
    pub fn len(&self) -> usize {
        self.routes.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Destinations with at least one cached path.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.routes.keys().copied()
    }

    fn has_duplicates(path: &[NodeId]) -> bool {
        let mut seen = path.to_vec();
        seen.sort_unstable();
        seen.windows(2).any(|w| matches!(w, [a, b] if a == b))
    }

    fn path_uses_link(owner: NodeId, path: &[NodeId], from: NodeId, to: NodeId) -> bool {
        let mut prev = owner;
        for &n in path {
            if prev == from && n == to {
                return true;
            }
            prev = n;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    fn cache() -> RouteCache {
        RouteCache::new(t(300.0))
    }

    #[test]
    fn serves_shortest_path() {
        let mut c = cache();
        assert_eq!(c.insert(t(0.0), &ids(&[1, 2, 3])), Some(CacheInsert::New));
        assert_eq!(c.insert(t(0.0), &ids(&[4, 3])), Some(CacheInsert::New));
        assert_eq!(c.best(t(1.0), NodeId(3)), Some(ids(&[4, 3]).as_slice()));
    }

    #[test]
    fn refresh_extends_expiry() {
        let mut c = cache();
        c.insert(t(0.0), &ids(&[1, 2]));
        assert_eq!(
            c.insert(t(100.0), &ids(&[1, 2])),
            Some(CacheInsert::Refreshed)
        );
        // Entry would have expired at 300 without refresh; now lives to 400.
        assert!(c.best(t(350.0), NodeId(2)).is_some());
        assert_eq!(c.expire(t(450.0)), 1);
        assert!(c.best(t(450.0), NodeId(2)).is_none());
    }

    #[test]
    fn rejects_looping_paths() {
        let mut c = cache();
        assert_eq!(c.insert(t(0.0), &ids(&[1, 2, 1, 3])), None);
        assert_eq!(c.insert(t(0.0), &[]), None);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_link_prunes_only_affected_paths() {
        let mut c = cache();
        let owner = NodeId(0);
        c.insert(t(0.0), &ids(&[1, 2, 3]));
        c.insert(t(0.0), &ids(&[4, 5, 3]));
        c.insert(t(0.0), &ids(&[1, 5]));
        // Link 1->2 is used only by the first path.
        assert_eq!(c.remove_link(owner, NodeId(1), NodeId(2)), 1);
        assert_eq!(c.best(t(1.0), NodeId(3)), Some(ids(&[4, 5, 3]).as_slice()));
        assert!(c.best(t(1.0), NodeId(5)).is_some());
        // Link owner->1 is used by the remaining path to 5.
        assert_eq!(c.remove_link(owner, NodeId(0), NodeId(1)), 1);
        assert!(c.best(t(1.0), NodeId(5)).is_none());
    }

    #[test]
    fn best_avoiding_filters_nodes() {
        let mut c = cache();
        c.insert(t(0.0), &ids(&[1, 2, 3]));
        c.insert(t(0.0), &ids(&[4, 5, 6, 3]));
        assert_eq!(
            c.best_avoiding(t(1.0), NodeId(3), &ids(&[2])),
            Some(ids(&[4, 5, 6, 3]).as_slice())
        );
        assert_eq!(c.best_avoiding(t(1.0), NodeId(3), &ids(&[2, 5])), None);
    }

    #[test]
    fn caps_paths_per_destination() {
        let mut c = cache();
        for i in 0..10u16 {
            let mut p = ids(&[10 + i, 11 + i, 12 + i]);
            p.push(NodeId(99));
            c.insert(t(0.0), &p);
        }
        assert!(c.len() <= RouteCache::MAX_PER_DEST);
    }

    #[test]
    fn hop_count_is_path_len() {
        let mut c = cache();
        c.insert(t(0.0), &ids(&[7, 8, 9]));
        assert_eq!(c.best(t(0.5), NodeId(9)).unwrap().len(), 3);
    }
}

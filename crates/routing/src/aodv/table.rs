//! The AODV routing table.

use manet_sim::{NodeId, NodeMap, SimTime};

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// Neighbour to relay through.
    pub next_hop: NodeId,
    /// Hop count to the destination.
    pub hops: u8,
    /// Destination sequence number (freshness).
    pub seq: u32,
    /// Whether the route may be used.
    pub valid: bool,
    /// When the route expires.
    pub expires: SimTime,
}

/// Outcome of offering a route to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// No usable entry existed; a new valid route was installed.
    Installed,
    /// An existing entry was replaced by a fresher/shorter route.
    Improved,
    /// The entry's lifetime was refreshed but the route didn't change.
    Refreshed,
    /// The offer was stale (lower sequence number / worse hops) — ignored.
    Ignored,
}

/// Per-destination routing table with AODV's freshness rules.
#[derive(Debug, Default)]
pub struct RouteTable {
    entries: NodeMap<RouteEntry>,
    ttl: SimTime,
}

impl RouteTable {
    /// Creates a table whose routes live for `ttl` after their last use.
    pub fn new(ttl: SimTime) -> RouteTable {
        RouteTable {
            entries: NodeMap::new(),
            ttl,
        }
    }

    /// Looks up a valid, unexpired route to `dest`.
    pub fn route(&self, now: SimTime, dest: NodeId) -> Option<&RouteEntry> {
        self.entries
            .get(dest)
            .filter(|e| e.valid && e.expires > now)
    }

    /// Looks up a route regardless of validity (for sequence numbers).
    pub fn any_entry(&self, dest: NodeId) -> Option<&RouteEntry> {
        self.entries.get(dest)
    }

    /// Offers a route `(next_hop, hops, seq)` to `dest`, applying AODV's
    /// acceptance rule: accept if there is no usable entry, if `seq` is
    /// newer, or if `seq` ties and `hops` improves.
    pub fn offer(
        &mut self,
        now: SimTime,
        dest: NodeId,
        next_hop: NodeId,
        hops: u8,
        seq: u32,
    ) -> UpdateOutcome {
        let expires = now + self.ttl;
        match self.entries.get_mut(dest) {
            None => {
                // audit: allow(D007, reason = "keyed by destination node id; bounded by the scenario's node count")
                self.entries.insert(
                    dest,
                    RouteEntry {
                        next_hop,
                        hops,
                        seq,
                        valid: true,
                        expires,
                    },
                );
                UpdateOutcome::Installed
            }
            Some(e) => {
                let usable = e.valid && e.expires > now;
                let fresher = seq > e.seq || (seq == e.seq && hops < e.hops);
                if !usable && seq >= e.seq {
                    *e = RouteEntry {
                        next_hop,
                        hops,
                        seq,
                        valid: true,
                        expires,
                    };
                    UpdateOutcome::Installed
                } else if usable && fresher {
                    *e = RouteEntry {
                        next_hop,
                        hops,
                        seq,
                        valid: true,
                        expires,
                    };
                    UpdateOutcome::Improved
                } else if usable && seq == e.seq && next_hop == e.next_hop {
                    e.expires = expires;
                    UpdateOutcome::Refreshed
                } else {
                    UpdateOutcome::Ignored
                }
            }
        }
    }

    /// Marks the route to `dest` invalid (keeping its sequence number, as
    /// AODV requires). Returns the invalidated entry if it was valid.
    pub fn invalidate(&mut self, dest: NodeId) -> Option<RouteEntry> {
        let e = self.entries.get_mut(dest)?;
        if !e.valid {
            return None;
        }
        e.valid = false;
        e.seq = e.seq.saturating_add(1);
        Some(*e)
    }

    /// Invalidates every valid route using `next_hop`, returning the
    /// affected `(destination, new sequence number)` pairs.
    pub fn invalidate_via(&mut self, next_hop: NodeId) -> Vec<(NodeId, u32)> {
        // NodeMap iterates in id order, so `out` is sorted by destination.
        let mut out = Vec::new();
        for (dest, e) in self.entries.iter_mut() {
            if e.valid && e.next_hop == next_hop {
                e.valid = false;
                e.seq = e.seq.saturating_add(1);
                out.push((dest, e.seq));
            }
        }
        out
    }

    /// Extends the lifetime of an active route (called when it carries
    /// traffic).
    pub fn refresh(&mut self, now: SimTime, dest: NodeId) {
        if let Some(e) = self.entries.get_mut(dest) {
            if e.valid {
                e.expires = now + self.ttl;
            }
        }
    }

    /// Invalidates expired routes, returning the number invalidated.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        for e in self.entries.values_mut() {
            if e.valid && e.expires <= now {
                e.valid = false;
                e.seq = e.seq.saturating_add(1);
                n += 1;
            }
        }
        n
    }

    /// Number of valid routes.
    pub fn valid_count(&self, now: SimTime) -> usize {
        self.entries
            .values()
            .filter(|e| e.valid && e.expires > now)
            .count()
    }

    /// Iterates over all `(destination, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &RouteEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn table() -> RouteTable {
        RouteTable::new(t(50.0))
    }

    #[test]
    fn installs_and_routes() {
        let mut rt = table();
        assert_eq!(
            rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10),
            UpdateOutcome::Installed
        );
        let e = rt.route(t(1.0), NodeId(5)).unwrap();
        assert_eq!(e.next_hop, NodeId(2));
        assert_eq!(e.hops, 3);
    }

    #[test]
    fn fresher_sequence_wins() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        assert_eq!(
            rt.offer(t(1.0), NodeId(5), NodeId(7), 9, 11),
            UpdateOutcome::Improved,
            "higher seq must replace even with worse hops"
        );
        assert_eq!(rt.route(t(2.0), NodeId(5)).unwrap().next_hop, NodeId(7));
    }

    #[test]
    fn stale_sequence_ignored() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        assert_eq!(
            rt.offer(t(1.0), NodeId(5), NodeId(7), 1, 9),
            UpdateOutcome::Ignored
        );
        assert_eq!(rt.route(t(2.0), NodeId(5)).unwrap().next_hop, NodeId(2));
    }

    #[test]
    fn equal_seq_prefers_fewer_hops() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        assert_eq!(
            rt.offer(t(1.0), NodeId(5), NodeId(7), 2, 10),
            UpdateOutcome::Improved
        );
        assert_eq!(
            rt.offer(t(1.0), NodeId(5), NodeId(8), 4, 10),
            UpdateOutcome::Ignored
        );
    }

    #[test]
    fn max_seq_route_is_never_displaced() {
        // The black-hole persistence property (Fig. 5 discussion).
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(9), 1, u32::MAX);
        assert_eq!(
            rt.offer(t(1.0), NodeId(5), NodeId(2), 1, 100),
            UpdateOutcome::Ignored
        );
        assert_eq!(rt.route(t(2.0), NodeId(5)).unwrap().next_hop, NodeId(9));
    }

    #[test]
    fn invalidate_via_reports_destinations() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        rt.offer(t(0.0), NodeId(6), NodeId(2), 2, 4);
        rt.offer(t(0.0), NodeId(7), NodeId(3), 2, 4);
        let broken = rt.invalidate_via(NodeId(2));
        assert_eq!(broken, vec![(NodeId(5), 11), (NodeId(6), 5)]);
        assert!(rt.route(t(1.0), NodeId(5)).is_none());
        assert!(rt.route(t(1.0), NodeId(7)).is_some());
    }

    #[test]
    fn invalid_entry_reinstalls_with_equal_seq() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        rt.invalidate(NodeId(5));
        // seq bumped to 11 on invalidation; an offer at 11 reinstalls.
        assert_eq!(
            rt.offer(t(1.0), NodeId(5), NodeId(4), 2, 11),
            UpdateOutcome::Installed
        );
    }

    #[test]
    fn expiry_invalidates() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        assert_eq!(rt.expire(t(100.0)), 1);
        assert!(rt.route(t(100.0), NodeId(5)).is_none());
        assert_eq!(rt.valid_count(t(100.0)), 0);
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut rt = table();
        rt.offer(t(0.0), NodeId(5), NodeId(2), 3, 10);
        rt.refresh(t(40.0), NodeId(5));
        assert!(rt.route(t(80.0), NodeId(5)).is_some());
        assert_eq!(rt.expire(t(80.0)), 0);
    }
}

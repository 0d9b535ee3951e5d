//! Ad hoc On-demand Distance Vector routing (AODV).
//!
//! AODV (Perkins & Royer) keeps a conventional routing table — one entry per reachable
//! destination, holding the next hop, the hop count and a *destination
//! sequence number* — but populates it on demand: a source floods a ROUTE
//! REQUEST; the destination (or an intermediate node with a fresh-enough
//! route) answers with a ROUTE REPLY that travels back along the reverse
//! path the REQUEST installed. Sequence numbers order route freshness: a
//! route is only replaced by one with a higher destination sequence number
//! (or an equal number and fewer hops). HELLO beacons provide local
//! connectivity sensing; broken links trigger ROUTE ERRORs that cascade to
//! every upstream node using the failed route.
//!
//! The paper's AODV black-hole attack forges REPLY messages with the
//! *maximum* sequence number — such routes are "always considered the
//! freshest" and are never displaced by honest replies, which is why the
//! network does not self-heal after the attack stops (Figure 5 discussion).

mod agent;
mod table;

pub use agent::AodvAgent;
pub use table::{RouteEntry, RouteTable, UpdateOutcome};

use manet_sim::NodeId;

/// AODV message headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AodvHeader {
    /// Flooded route request.
    Rreq {
        /// Request originator.
        origin: NodeId,
        /// Originator's own sequence number.
        origin_seq: u32,
        /// Requested destination.
        dest: NodeId,
        /// Last known destination sequence number, if any.
        dest_seq: Option<u32>,
        /// Flood identifier, unique per origin.
        id: u32,
        /// Hops travelled so far.
        hops: u8,
    },
    /// Route reply, unicast hop-by-hop back to the request originator.
    Rrep {
        /// The node the route leads to.
        dest: NodeId,
        /// Destination sequence number of the advertised route.
        dest_seq: u32,
        /// Hop count from the replying node to `dest`.
        hops: u8,
        /// The requestor the reply is travelling to.
        origin: NodeId,
    },
    /// Route error listing now-unreachable destinations (with the sequence
    /// numbers that invalidate them). Broadcast with TTL 1; receivers that
    /// routed through the sender cascade their own RERR.
    Rerr {
        /// `(destination, invalidating sequence number)` pairs.
        unreachable: Vec<(NodeId, u32)>,
    },
    /// Periodic neighbour beacon.
    Hello {
        /// Sender's current sequence number.
        seq: u32,
    },
    /// Application data, routed hop-by-hop via each node's table.
    Data,
}

/// Protocol constants (sizes in bytes, intervals in seconds).
pub mod constants {
    pub use crate::ondemand::{BUFFER_CAP, BUFFER_TTL, SEEN_TTL, SWEEP_INTERVAL};

    /// ROUTE REQUEST size in bytes.
    pub const RREQ_SIZE: u32 = 48;
    /// ROUTE REPLY size in bytes.
    pub const RREP_SIZE: u32 = 44;
    /// Base ROUTE ERROR size in bytes (plus per-entry cost).
    pub const RERR_BASE_SIZE: u32 = 20;
    /// Per-unreachable-entry size in a ROUTE ERROR.
    pub const RERR_ENTRY_SIZE: u32 = 8;
    /// HELLO beacon size in bytes.
    pub const HELLO_SIZE: u32 = 32;
    /// HELLO beacon interval, seconds.
    pub const HELLO_INTERVAL: f64 = 1.0;
    /// A neighbour is lost after this many silent seconds.
    pub const NEIGHBOR_TIMEOUT: f64 = 3.0;
    /// Active route lifetime, seconds.
    pub const ROUTE_TTL: f64 = 50.0;
    /// ROUTE REQUEST retry backoff, seconds. A source waits 1× this after
    /// its first REQUEST and 2^k× after its k-th (k ≥ 2, capped at 64×):
    /// 1×, 4×, 8×, 16× and 32× over the five attempts.
    pub const RREQ_BACKOFF: f64 = 1.0;
    /// Maximum discovery attempts before buffered packets are dropped.
    pub const RREQ_MAX_ATTEMPTS: u32 = 5;
}

//! Dynamic Source Routing (DSR).
//!
//! DSR (Johnson & Maltz) delivers packets with *source routes*: the sender writes the
//! complete node path into each packet header and intermediate nodes simply
//! relay to the next address. The protocol is built from two mechanisms:
//!
//! * **Route discovery** — a flooded ROUTE REQUEST accumulates the path it
//!   traverses; the target (or an intermediate node with a cached route)
//!   answers with a ROUTE REPLY carrying the complete path.
//! * **Route maintenance** — when a link transmission fails, the detecting
//!   node sends a ROUTE ERROR back to the source and tries to *salvage* the
//!   packet with an alternative cached route.
//!
//! Nodes aggressively cache routes: from replies to their own discoveries,
//! from the accumulated routes in other nodes' REQUESTs, and from source
//! routes overheard promiscuously — the behaviour the paper's black-hole
//! attack exploits.

mod agent;
mod cache;

pub use agent::DsrAgent;
pub use cache::{CacheInsert, RouteCache};

use manet_sim::NodeId;

/// DSR routing header variants.
///
/// Routes are node sequences **including both endpoints**:
/// `route[0]` is the traffic source and `route[len-1]` the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsrHeader {
    /// Flooded route discovery. `route` is the path accumulated so far,
    /// beginning with `origin`; each forwarder appends itself.
    Rreq {
        /// Discovery initiator.
        origin: NodeId,
        /// Node being searched for.
        target: NodeId,
        /// Discovery identifier, unique per origin.
        id: u32,
        /// Accumulated path, `route[0] == origin`.
        route: Vec<NodeId>,
    },
    /// Route reply carrying a complete path `origin .. target`; it travels
    /// back along the reversed path. `hop` indexes the node currently
    /// holding the packet (counted from the *end* of `route`).
    Rrep {
        /// The complete discovered path.
        route: Vec<NodeId>,
        /// Index (from the end of `route`) of the current holder.
        hop: usize,
    },
    /// Route error: `broken` is the failed link `(from, to)`. Travels along
    /// `back_route` (a path toward the original packet source), with `hop`
    /// indexing the current holder.
    Rerr {
        /// The link that failed.
        broken: (NodeId, NodeId),
        /// Reversed path back to the data source.
        back_route: Vec<NodeId>,
        /// Index of the current holder within `back_route`.
        hop: usize,
    },
    /// Source-routed data. `route` is the full path and `hop` the index of
    /// the node currently holding the packet. `salvaged` marks packets that
    /// were re-routed mid-path after a link failure.
    Data {
        /// The full source route, `route[0] == src`, `route[last] == dst`.
        route: Vec<NodeId>,
        /// Index of the current holder within `route`.
        hop: usize,
        /// Whether the packet has already been salvaged once.
        salvaged: bool,
    },
}

/// Protocol constants (sizes in bytes, intervals in seconds).
pub mod constants {
    pub use crate::ondemand::{BUFFER_CAP, BUFFER_TTL, SEEN_TTL, SWEEP_INTERVAL};

    /// Base size of a ROUTE REQUEST in bytes (grows per accumulated hop).
    pub const RREQ_BASE_SIZE: u32 = 32;
    /// Base size of a ROUTE REPLY in bytes (grows per route hop).
    pub const RREP_BASE_SIZE: u32 = 32;
    /// Size of a ROUTE ERROR in bytes.
    pub const RERR_SIZE: u32 = 24;
    /// Per-hop address size added to control packets.
    pub const ADDR_SIZE: u32 = 4;
    /// Route cache entry lifetime, seconds.
    pub const CACHE_TTL: f64 = 15.0;
    /// ROUTE REQUEST retry backoff, seconds. A source waits 1× this after
    /// its first REQUEST and 2^k× after its k-th (k ≥ 2, capped at 64×):
    /// 1×, 4×, 8×, 16×, 32× and 64× over the six attempts.
    pub const RREQ_BACKOFF: f64 = 0.5;
    /// Maximum discovery attempts before buffered packets are dropped.
    pub const RREQ_MAX_ATTEMPTS: u32 = 6;
}

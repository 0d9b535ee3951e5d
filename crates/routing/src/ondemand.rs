//! The protocol-neutral half of an on-demand routing agent.
//!
//! AODV and DSR look for routes the same way. A packet with no route waits
//! in a bounded send buffer while its source floods a ROUTE REQUEST; the
//! source retries with a growing backoff and, once its attempts are spent,
//! drops what still waits. Every node suppresses duplicate REQUESTs by
//! `(origin, flood id)`. [`OnDemand`] holds that state, and the provided
//! methods of [`OnDemandAgent`] run it, so an agent supplies only how it
//! uses a route and how it floods a REQUEST.

use manet_sim::{
    Agent, AppData, Ctx, Direction, NodeId, NodeMap, SimTime, TimerToken, TracePacketKind,
};
use std::collections::VecDeque;

/// Send-buffer entry lifetime, seconds.
pub const BUFFER_TTL: f64 = 30.0;
/// Maximum buffered packets per node.
pub const BUFFER_CAP: usize = 64;
/// Housekeeping sweep interval, seconds.
pub const SWEEP_INTERVAL: f64 = 1.0;
/// How long duplicate-REQUEST records are remembered, seconds.
pub const SEEN_TTL: f64 = 60.0;

/// Timer token of the periodic housekeeping sweep.
pub(crate) const TOKEN_SWEEP: u64 = 1;
/// Retry timers carry `TOKEN_RREQ_BASE + destination id`.
const TOKEN_RREQ_BASE: u64 = 0x1_0000;

/// A data packet waiting for a route.
#[derive(Debug)]
struct Buffered {
    dst: NodeId,
    size: u32,
    data: Option<AppData>,
    enqueued: SimTime,
}

/// Send buffer, discovery attempts and REQUEST dedup of one node.
///
/// The maps are dense [`NodeMap`]s; only pruning iterates them, in id
/// order.
///
/// The dedup keeps each origin's `(flood id, first sight)` records in
/// arrival order. Sight times never decrease, so the records past
/// [`SEEN_TTL`] are always a prefix of the queue, and a sweep pops them
/// without visiting the live ones. The order is by time, not by id: one
/// origin's ids are not monotone, since its own floods count up from 0
/// while the attacks forge ids in its name from other bases (the AODV
/// black hole counts up from `0x8000_0000`, the DSR one down from
/// `u32::MAX`, the storm up from `0x4000_0000`).
#[derive(Debug)]
pub(crate) struct OnDemand {
    buffer: Vec<Buffered>,
    /// Discovery attempts made so far, by destination.
    discoveries: NodeMap<u32>,
    /// Recently seen flood ids with their first-sight times, by origin, in
    /// arrival order.
    seen: NodeMap<VecDeque<(u32, SimTime)>>,
    next_flood_id: u32,
    /// Wait after the first REQUEST, seconds; after the `k`-th (`k ≥ 2`)
    /// the wait is `backoff · 2^min(k, 6)`.
    backoff: f64,
    max_attempts: u32,
}

impl OnDemand {
    /// An empty core whose discoveries first retry after `backoff` seconds
    /// and give up after `max_attempts` REQUESTs.
    pub(crate) fn new(backoff: f64, max_attempts: u32) -> OnDemand {
        OnDemand {
            buffer: Vec::new(),
            discoveries: NodeMap::new(),
            seen: NodeMap::new(),
            next_flood_id: 0,
            backoff,
            max_attempts,
        }
    }

    /// Number of packets waiting for a route.
    pub(crate) fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Allocates this node's next flood id. The REQUEST dedup does not
    /// record it: both agents drop their own floods before the dedup.
    pub(crate) fn next_flood(&mut self) -> u32 {
        let id = self.next_flood_id;
        self.next_flood_id += 1;
        id
    }

    /// Records a REQUEST flood; `false` if it was seen before. The scan
    /// runs newest first, since most repeats are of a flood just seen.
    pub(crate) fn first_sight(&mut self, origin: NodeId, id: u32, now: SimTime) -> bool {
        // audit: allow(D007, reason = "sweep() pops every origin's records past SEEN_TTL each second; they arrive in time order, so those are a prefix")
        let seen = self.seen.entry_or_default(origin);
        if seen.iter().rev().any(|&(s, _)| s == id) {
            return false;
        }
        seen.push_back((id, now));
        true
    }

    /// Buffers a packet until a route to `dst` appears. A full buffer
    /// drops it and records the drop.
    fn hold<H>(&mut self, ctx: &mut Ctx<'_, H>, dst: NodeId, size: u32, data: Option<AppData>) {
        if self.buffer.len() >= BUFFER_CAP {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
            return;
        }
        self.buffer.push(Buffered {
            dst,
            size,
            data,
            enqueued: ctx.now(),
        });
    }

    /// Ends the discovery for `dst` and hands back the packets waiting for
    /// it, in arrival order.
    fn resolve(&mut self, dst: NodeId) -> Vec<Buffered> {
        self.discoveries.remove(dst);
        let (ready, waiting) = std::mem::take(&mut self.buffer)
            .into_iter()
            .partition(|b| b.dst == dst);
        self.buffer = waiting;
        ready
    }

    /// Drops, and records, every buffered packet `dead` selects.
    fn drop_where<H>(&mut self, ctx: &mut Ctx<'_, H>, mut dead: impl FnMut(&Buffered) -> bool) {
        let before = self.buffer.len();
        self.buffer.retain(|b| !dead(b));
        for _ in self.buffer.len()..before {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
        }
    }

    /// Starts a discovery for `dst` and arms its first retry; `false` if
    /// one is already running.
    fn begin<H>(&mut self, ctx: &mut Ctx<'_, H>, dst: NodeId) -> bool {
        if self.discoveries.contains_key(dst) {
            return false;
        }
        self.discoveries.insert(dst, 1);
        ctx.schedule(
            SimTime::from_secs(self.backoff),
            TimerToken(TOKEN_RREQ_BASE + dst.0 as u64),
        );
        true
    }

    /// Handles a retry timer of a discovery that found no route yet. If a
    /// packet still waits and attempts remain, arms the next retry and
    /// returns `true`: the caller floods again. Otherwise ends the
    /// discovery and drops what waits for `dst`.
    fn retry<H>(&mut self, ctx: &mut Ctx<'_, H>, dst: NodeId) -> bool {
        let has_waiting = self.buffer.iter().any(|b| b.dst == dst);
        let Some(attempts) = self.discoveries.get_mut(dst) else {
            return false;
        };
        if !has_waiting || *attempts >= self.max_attempts {
            self.discoveries.remove(dst);
            self.drop_where(ctx, |b| b.dst == dst);
            return false;
        }
        *attempts += 1;
        let backoff = self.backoff * f64::from(1u32 << (*attempts).min(6));
        ctx.schedule(
            SimTime::from_secs(backoff),
            TimerToken(TOKEN_RREQ_BASE + dst.0 as u64),
        );
        true
    }

    /// Expires buffered packets past [`BUFFER_TTL`] and flood records past
    /// [`SEEN_TTL`], then arms the next sweep. A queue left at a quarter
    /// of its capacity or less is shrunk, so memory follows occupancy.
    fn sweep<H>(&mut self, ctx: &mut Ctx<'_, H>) {
        let now = ctx.now();
        let ttl = SimTime::from_secs(BUFFER_TTL);
        self.drop_where(ctx, |b| now.saturating_sub(b.enqueued) >= ttl);
        let seen_ttl = SimTime::from_secs(SEEN_TTL);
        for ids in self.seen.values_mut() {
            while ids
                .front()
                .is_some_and(|&(_, t)| now.saturating_sub(t) >= seen_ttl)
            {
                ids.pop_front();
            }
            if ids.len() <= ids.capacity() / 4 {
                ids.shrink_to_fit();
            }
        }
        schedule_sweep(ctx);
    }
}

/// Arms the housekeeping sweep one [`SWEEP_INTERVAL`] from now.
pub(crate) fn schedule_sweep<H>(ctx: &mut Ctx<'_, H>) {
    ctx.schedule(SimTime::from_secs(SWEEP_INTERVAL), TimerToken(TOKEN_SWEEP));
}

/// The protocol logic an [`OnDemand`] core drives: how an agent uses a
/// route and floods a REQUEST. The provided methods are the shared
/// discovery, buffering and housekeeping.
pub(crate) trait OnDemandAgent: Agent {
    /// The agent's core.
    fn core(&mut self) -> &mut OnDemand;

    /// Whether a usable route to `dst` exists at `now`.
    fn has_route(&self, now: SimTime, dst: NodeId) -> bool;

    /// Sends data from this node along a known route; `false` if there is
    /// none. `count_found` records the route lookup as a Found event.
    fn try_send_data(
        &mut self,
        ctx: &mut Ctx<'_, Self::Header>,
        dst: NodeId,
        size: u32,
        data: Option<AppData>,
        count_found: bool,
    ) -> bool;

    /// Floods a ROUTE REQUEST for `dst`.
    fn broadcast_rreq(&mut self, ctx: &mut Ctx<'_, Self::Header>, dst: NodeId);

    /// Drops the routes that timed out, recording each removal.
    fn expire_routes(&mut self, ctx: &mut Ctx<'_, Self::Header>);

    /// [`Agent::send_data`]: delivers to this node itself, sends along a
    /// known route, or buffers the packet and discovers a route.
    fn send_or_discover(
        &mut self,
        ctx: &mut Ctx<'_, Self::Header>,
        dst: NodeId,
        size: u32,
        data: AppData,
    ) {
        if dst == ctx.node() {
            ctx.trace_packet(TracePacketKind::Data, Direction::Sent);
            ctx.trace_packet(TracePacketKind::Data, Direction::Received);
            ctx.deliver_app(data, size, dst);
            return;
        }
        if !self.try_send_data(ctx, dst, size, Some(data), true) {
            self.park(ctx, dst, size, Some(data));
        }
    }

    /// Buffers a packet that has no route, then floods a REQUEST for `dst`
    /// unless a discovery for it is running. A full buffer drops the packet
    /// and records the drop; the discovery starts all the same.
    fn park(
        &mut self,
        ctx: &mut Ctx<'_, Self::Header>,
        dst: NodeId,
        size: u32,
        data: Option<AppData>,
    ) {
        self.core().hold(ctx, dst, size, data);
        if self.core().begin(ctx, dst) {
            self.broadcast_rreq(ctx, dst);
        }
    }

    /// A route to `dst` has appeared: ends its discovery and sends what
    /// waits for it. A packet whose route vanished again is dropped.
    fn route_found(&mut self, ctx: &mut Ctx<'_, Self::Header>, dst: NodeId) {
        for b in self.core().resolve(dst) {
            if !self.try_send_data(ctx, b.dst, b.size, b.data, false) {
                ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
            }
        }
    }

    /// Handles the sweep and the discovery retry timers.
    fn on_core_timer(&mut self, ctx: &mut Ctx<'_, Self::Header>, token: TimerToken) {
        match token.0 {
            TOKEN_SWEEP => {
                self.expire_routes(ctx);
                self.core().sweep(ctx);
            }
            t if t >= TOKEN_RREQ_BASE => {
                let dst = NodeId((t - TOKEN_RREQ_BASE) as u16);
                if self.has_route(ctx.now(), dst) {
                    self.route_found(ctx, dst);
                } else if self.core().retry(ctx, dst) {
                    self.broadcast_rreq(ctx, dst);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
impl OnDemand {
    /// Flood records currently held, over all origins.
    pub(crate) fn seen_len(&self) -> usize {
        self.seen.values().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::rng::SimRng;
    use manet_sim::AgentHarness;
    use rand::{Rng, SeedableRng};
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    /// The REQUEST dedup as one B-tree per origin, swept by `retain`: the
    /// reference the arrival-ordered queues must agree with.
    #[derive(Default)]
    struct BTreeDedup {
        seen: NodeMap<BTreeMap<u32, SimTime>>,
    }

    impl BTreeDedup {
        fn first_sight(&mut self, origin: NodeId, id: u32, now: SimTime) -> bool {
            match self.seen.entry_or_default(origin).entry(id) {
                Entry::Occupied(_) => false,
                Entry::Vacant(slot) => {
                    slot.insert(now);
                    true
                }
            }
        }

        fn sweep(&mut self, now: SimTime) {
            let seen_ttl = SimTime::from_secs(SEEN_TTL);
            for ids in self.seen.values_mut() {
                ids.retain(|_, &mut t| now.saturating_sub(t) < seen_ttl);
            }
        }

        fn seen_len(&self) -> usize {
            self.seen.values().map(BTreeMap::len).sum()
        }
    }

    /// An [`OnDemand`] and the reference, driven in lockstep; every call
    /// asserts that both answer alike and hold as many records.
    struct Lockstep {
        core: OnDemand,
        oracle: BTreeDedup,
        harness: AgentHarness,
    }

    impl Lockstep {
        fn new() -> Lockstep {
            Lockstep {
                core: OnDemand::new(0.5, 3),
                oracle: BTreeDedup::default(),
                harness: AgentHarness::new(NodeId(9)),
            }
        }

        fn sight(&mut self, origin: NodeId, id: u32, now: SimTime) -> bool {
            let first = self.core.first_sight(origin, id, now);
            assert_eq!(
                first,
                self.oracle.first_sight(origin, id, now),
                "first_sight({origin:?}, {id:#x}) at {now:?}"
            );
            assert_eq!(self.core.seen_len(), self.oracle.seen_len());
            first
        }

        fn sweep(&mut self, now: SimTime) -> usize {
            self.harness.set_now(now);
            self.core.sweep(&mut self.harness.ctx::<()>());
            self.oracle.sweep(now);
            assert_eq!(
                self.core.seen_len(),
                self.oracle.seen_len(),
                "sweep at {now:?}"
            );
            self.core.seen_len()
        }
    }

    /// The `n`-th flood id of one of the four sequences a node can see
    /// under one origin: the origin's own floods, and the ids the AODV
    /// black hole, the DSR black hole and the storm forge.
    fn flood_id(sequence: usize, n: u32) -> u32 {
        match sequence {
            0 => n,
            1 => 0x8000_0000u32.wrapping_add(n),
            2 => u32::MAX.wrapping_sub(n),
            _ => 0x4000_0000u32.wrapping_add(n),
        }
    }

    #[test]
    fn dedup_edges_match_the_btree() {
        let ttl = SimTime::from_secs(SEEN_TTL);
        let t0 = SimTime::from_secs(3.0);
        let t1 = t0 + SimTime::from_micros(1);
        let origin = NodeId(4);
        let mut pair = Lockstep::new();
        // The four sequences interleaved at one origin, then repeated.
        for n in 0..3 {
            for seq in 0..4 {
                assert!(pair.sight(origin, flood_id(seq, n), t0));
            }
        }
        for n in 0..3 {
            for seq in 0..4 {
                assert!(!pair.sight(origin, flood_id(seq, n), t0));
            }
        }
        // A sweep at the instant of the inserts keeps them all.
        assert_eq!(pair.sweep(t0), 12);
        assert!(pair.sight(origin, 7, t1));
        // Exactly SEEN_TTL after the first inserts they expire; the record
        // a microsecond younger stays.
        assert_eq!(pair.sweep(t0 + ttl), 1);
        // An id whose record expired is a new flood again.
        assert!(pair.sight(origin, flood_id(2, 1), t0 + ttl));
        assert!(!pair.sight(origin, 7, t0 + ttl));
        assert_eq!(pair.sweep(t1 + ttl), 1);
        assert_eq!(pair.sweep(t0 + ttl + ttl), 0);
        assert!(pair.sight(origin, 7, t0 + ttl + ttl));
    }

    #[test]
    fn arrival_ordered_dedup_matches_the_btree() {
        for seed in 0..16 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pair = Lockstep::new();
            let mut now = SimTime::ZERO;
            // Next new id, by origin and sequence.
            let mut next = [[0u32; 4]; 3];
            for _ in 0..3000 {
                // Half-second steps, so sweeps often fall exactly SEEN_TTL
                // after an insert, or at the same instant as one.
                now += SimTime::from_micros(500_000 * rng.gen_range(0..3u64));
                if rng.gen_range(0..8) == 0 {
                    pair.sweep(now);
                    continue;
                }
                let origin = rng.gen_range(0..3usize);
                let seq = rng.gen_range(0..4usize);
                let n = &mut next[origin][seq];
                // A new flood, or a repeat of a recent one, whose record
                // may have expired by now.
                let k = if *n == 0 || rng.gen_range(0..3) == 0 {
                    *n += 1;
                    *n - 1
                } else {
                    n.saturating_sub(rng.gen_range(1..6))
                };
                pair.sight(NodeId(origin as u16), flood_id(seq, k), now);
            }
        }
    }
}

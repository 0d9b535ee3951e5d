//! Protocol agents and their execution context.
//!
//! An [`Agent`] is the per-node routing protocol instance. The simulator
//! calls it with a buffered [`Ctx`]; every side effect the agent wants
//! (transmitting frames, arming timers, recording audit events, handing
//! data up to an application) is staged in the context and applied by the
//! simulator when the callback returns. This keeps agents pure state
//! machines that are easy to test in isolation and easy to wrap with attack
//! decorators.

use crate::app::AppData;
use crate::packet::{NodeId, Packet, PacketId, TxDest};
use crate::rng::SimRng;
use crate::sink::TraceSink;
use crate::time::SimTime;
use crate::trace::{Direction, NodeTrace, RouteEventKind, TracePacketKind};
use std::collections::BTreeMap;

/// Opaque timer identifier; the meaning of a token is private to the agent
/// that armed it. Attack decorators conventionally reserve tokens with the
/// top bit set (see [`TimerToken::ATTACK_BIT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

impl TimerToken {
    /// Tokens with this bit set are reserved for attack decorators wrapping
    /// the agent; honest protocol implementations must not use them.
    pub const ATTACK_BIT: u64 = 1 << 63;
}

/// Buffered execution context for agent callbacks.
pub struct Ctx<'a, H> {
    now: SimTime,
    node: NodeId,
    pub(crate) out: Vec<(Packet<H>, TxDest)>,
    pub(crate) timers: Vec<(SimTime, TimerToken)>,
    pub(crate) deliveries: Vec<(AppData, u32, NodeId)>,
    trace: &'a mut dyn TraceSink,
    rng: &'a mut SimRng,
    next_packet_id: &'a mut u64,
}

impl<'a, H> Ctx<'a, H> {
    pub(crate) fn new(
        now: SimTime,
        node: NodeId,
        trace: &'a mut dyn TraceSink,
        rng: &'a mut SimRng,
        next_packet_id: &'a mut u64,
    ) -> Ctx<'a, H> {
        Ctx {
            now,
            node,
            out: Vec::new(),
            timers: Vec::new(),
            deliveries: Vec::new(),
            trace,
            rng,
            next_packet_id,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The agent's RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Allocates a globally unique packet id.
    pub fn fresh_packet_id(&mut self) -> PacketId {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        PacketId(id)
    }

    /// Stages a frame for transmission.
    pub fn transmit(&mut self, pkt: Packet<H>, dest: TxDest) {
        // audit: allow(D007, reason = "per-callback staging buffer; the Simulator drains it after every dispatch")
        self.out.push((pkt, dest));
    }

    /// Arms a timer that fires [`Agent::on_timer`] after `delay`.
    pub fn schedule(&mut self, delay: SimTime, token: TimerToken) {
        // audit: allow(D007, reason = "per-callback staging buffer; the Simulator drains it after every dispatch")
        self.timers.push((self.now + delay, token));
    }

    /// Records a packet observation in this node's audit trace.
    pub fn trace_packet(&mut self, kind: TracePacketKind, dir: Direction) {
        self.trace.packet(self.now, kind, dir);
    }

    /// Records a route-fabric observation in this node's audit trace.
    pub fn trace_route(&mut self, kind: RouteEventKind, route_len: Option<u8>) {
        self.trace.route(self.now, kind, route_len);
    }

    /// Hands received application data (with its size in bytes) up to the
    /// local application endpoint for its flow, if one is registered.
    pub fn deliver_app(&mut self, data: AppData, size: u32, from: NodeId) {
        // audit: allow(D007, reason = "per-callback staging buffer; the Simulator drains it after every dispatch")
        self.deliveries.push((data, size, from));
    }

    /// Frames staged for transmission so far (useful for testing agents in
    /// isolation).
    pub fn staged_out(&self) -> &[(Packet<H>, TxDest)] {
        &self.out
    }

    /// Timers armed so far, as `(fire_at, token)` pairs.
    pub fn staged_timers(&self) -> &[(SimTime, TimerToken)] {
        &self.timers
    }

    /// Application deliveries staged so far, as `(data, size, from)`.
    pub fn staged_deliveries(&self) -> &[(AppData, u32, NodeId)] {
        &self.deliveries
    }
}

impl<H: std::fmt::Debug> std::fmt::Debug for Ctx<'_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("node", &self.node)
            .field("out", &self.out)
            .field("timers", &self.timers)
            .field("deliveries", &self.deliveries)
            .finish_non_exhaustive()
    }
}

/// Test support: drive an [`Agent`] without a full [`crate::Simulator`].
///
/// The harness owns the trace, RNG and packet-id counter a context needs,
/// and lets protocol crates unit-test their agents hop by hop.
///
/// ```
/// use manet_sim::agent::{AgentHarness, FloodAgent, Agent};
/// use manet_sim::{NodeId, SimTime};
///
/// let mut agent = FloodAgent::new();
/// let mut h = AgentHarness::new(NodeId(1));
/// h.set_now(SimTime::from_secs(1.0));
/// let mut ctx = h.ctx();
/// agent.on_timer(&mut ctx, manet_sim::TimerToken(0));
/// assert!(ctx.staged_out().is_empty());
/// ```
#[derive(Debug)]
pub struct AgentHarness {
    node: NodeId,
    now: SimTime,
    trace: NodeTrace,
    rng: SimRng,
    counter: u64,
}

impl AgentHarness {
    /// Creates a harness for an agent running on `node`.
    pub fn new(node: NodeId) -> AgentHarness {
        AgentHarness {
            node,
            now: SimTime::ZERO,
            trace: NodeTrace::new(),
            rng: crate::rng::derive_stream(0xBAD5EED, node.0 as u64),
            counter: 0,
        }
    }

    /// Advances the harness clock (must be non-decreasing).
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// Creates a fresh context at the current harness time.
    pub fn ctx<H>(&mut self) -> Ctx<'_, H> {
        Ctx::new(
            self.now,
            self.node,
            &mut self.trace,
            &mut self.rng,
            &mut self.counter,
        )
    }

    /// The audit trace accumulated so far.
    pub fn trace(&self) -> &NodeTrace {
        &self.trace
    }
}

/// A per-node routing protocol instance.
///
/// All methods receive a buffered [`Ctx`]; see the module docs. The
/// associated `Header` type is the protocol's routing header carried by
/// every [`Packet`].
pub trait Agent {
    /// Routing header type carried in packets of this protocol.
    type Header: Clone + std::fmt::Debug;

    /// Called once at simulation start (arm periodic timers here).
    fn start(&mut self, ctx: &mut Ctx<'_, Self::Header>) {
        let _ = ctx;
    }

    /// Called when a frame addressed to this node (unicast) or broadcast
    /// arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Header>, pkt: Packet<Self::Header>);

    /// Called when this node overhears a unicast frame addressed to another
    /// node; every node overhears every unicast it receives.
    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_, Self::Header>, pkt: &Packet<Self::Header>) {
        let _ = (ctx, pkt);
    }

    /// Called when a unicast transmission could not be delivered to
    /// `next_hop` (link-layer failure: the MAC exhausted its retries).
    fn on_tx_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Header>,
        pkt: Packet<Self::Header>,
        next_hop: NodeId,
    ) {
        let _ = (ctx, pkt, next_hop);
    }

    /// Called when a timer armed via [`Ctx::schedule`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Header>, token: TimerToken);

    /// Called when a local application asks to deliver `size` bytes of
    /// application data to `dst`.
    fn send_data(&mut self, ctx: &mut Ctx<'_, Self::Header>, dst: NodeId, size: u32, data: AppData);
}

/// Boxed agents are agents: scenarios mixing honest nodes and attack
/// decorators (different concrete types) use
/// `Simulator<Box<dyn Agent<Header = H>>>`.
impl<H: Clone + std::fmt::Debug> Agent for Box<dyn Agent<Header = H>> {
    type Header = H;

    fn start(&mut self, ctx: &mut Ctx<'_, H>) {
        (**self).start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, H>, pkt: Packet<H>) {
        (**self).on_packet(ctx, pkt);
    }

    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_, H>, pkt: &Packet<H>) {
        (**self).on_promiscuous(ctx, pkt);
    }

    fn on_tx_failed(&mut self, ctx: &mut Ctx<'_, H>, pkt: Packet<H>, next_hop: NodeId) {
        (**self).on_tx_failed(ctx, pkt, next_hop);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, H>, token: TimerToken) {
        (**self).on_timer(ctx, token);
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_, H>, dst: NodeId, size: u32, data: AppData) {
        (**self).send_data(ctx, dst, size, data);
    }
}

/// A minimal demonstration agent: floods every data request as a broadcast
/// and delivers whatever reaches the destination. Useful for examples and
/// for testing the simulator kernel without a real routing protocol.
#[derive(Debug, Default)]
pub struct FloodAgent {
    /// Flood-dedup memory: packet id → when it was first seen. Bounded by
    /// [`FloodAgent::SEEN_HORIZON_SECS`] / [`FloodAgent::SEEN_CAP`] so long
    /// runs hold a steady-state size instead of growing forever.
    seen: BTreeMap<PacketId, SimTime>,
}

impl FloodAgent {
    /// Entries older than this are forgotten; a packet's TTL expires its
    /// flood long before its dedup entry does.
    pub const SEEN_HORIZON_SECS: f64 = 60.0;

    /// Hard bound on remembered ids. When a pruning pass leaves the memory
    /// above this, the oldest ids (packet ids are allocated monotonically)
    /// are dropped first.
    pub const SEEN_CAP: usize = 4096;

    /// Creates a new flooding agent.
    pub fn new() -> FloodAgent {
        FloodAgent::default()
    }

    /// Number of packet ids currently remembered for flood dedup.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// Records `id` at time `now`, pruning entries past the dedup horizon.
    /// Returns `false` if the id was already known.
    fn remember(&mut self, id: PacketId, now: SimTime) -> bool {
        if self.seen.contains_key(&id) {
            return false;
        }
        self.seen.insert(id, now);
        if self.seen.len() > Self::SEEN_CAP {
            let horizon = SimTime::from_secs(Self::SEEN_HORIZON_SECS);
            self.seen
                .retain(|_, &mut t| now.saturating_sub(t) < horizon);
            while self.seen.len() > Self::SEEN_CAP {
                self.seen.pop_first();
            }
        }
        true
    }
}

impl Agent for FloodAgent {
    type Header = ();

    fn on_packet(&mut self, ctx: &mut Ctx<'_, ()>, pkt: Packet<()>) {
        if !self.remember(pkt.id, ctx.now()) {
            return;
        }
        if pkt.dst == ctx.node() {
            ctx.trace_packet(TracePacketKind::Data, Direction::Received);
            if let Some(data) = pkt.app {
                ctx.deliver_app(data, pkt.size, pkt.src);
            }
        } else if pkt.ttl > 0 {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Forwarded);
            let mut fwd = pkt;
            fwd.ttl -= 1;
            ctx.transmit(fwd, TxDest::Broadcast);
        } else {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, _token: TimerToken) {}

    fn send_data(&mut self, ctx: &mut Ctx<'_, ()>, dst: NodeId, size: u32, data: AppData) {
        ctx.trace_packet(TracePacketKind::Data, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: ctx.node(),
            link_src: ctx.node(),
            dst,
            ttl: Packet::<()>::DEFAULT_TTL,
            size,
            header: (),
            app: Some(data),
        };
        self.remember(pkt.id, ctx.now());
        ctx.transmit(pkt, TxDest::Broadcast);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_stream;

    #[test]
    fn ctx_allocates_unique_packet_ids() {
        let mut trace = NodeTrace::new();
        let mut rng = derive_stream(0, 0);
        let mut counter = 0u64;
        let mut ctx: Ctx<'_, ()> =
            Ctx::new(SimTime::ZERO, NodeId(0), &mut trace, &mut rng, &mut counter);
        let a = ctx.fresh_packet_id();
        let b = ctx.fresh_packet_id();
        assert_ne!(a, b);
    }

    #[test]
    fn flood_dedup_memory_holds_steady_state_size() {
        let mut agent = FloodAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        // A long run at a steady packet rate: ~20 packets/s for an hour.
        for i in 0..72_000u64 {
            let now = SimTime::from_secs(i as f64 * 0.05);
            h.set_now(now);
            let mut ctx = h.ctx();
            let pkt = Packet {
                id: PacketId(i),
                src: NodeId(1),
                link_src: NodeId(1),
                dst: NodeId(2),
                ttl: 4,
                size: 64,
                header: (),
                app: None,
            };
            agent.on_packet(&mut ctx, pkt);
            assert!(
                agent.seen_len() <= FloodAgent::SEEN_CAP + 1,
                "dedup memory grew past its cap at t={now:?}: {}",
                agent.seen_len()
            );
        }
        // Steady state, not just "under the cap at the end": the horizon
        // (60 s at 20 pkt/s = 1200 live entries) bounds the working set.
        assert!(agent.seen_len() <= FloodAgent::SEEN_CAP);
    }

    #[test]
    fn flood_dedup_still_suppresses_recent_duplicates() {
        let mut agent = FloodAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let pkt = |id: u64| Packet {
            id: PacketId(id),
            src: NodeId(1),
            link_src: NodeId(1),
            dst: NodeId(2),
            ttl: 4,
            size: 64,
            header: (),
            app: None,
        };
        let mut ctx = h.ctx();
        agent.on_packet(&mut ctx, pkt(7));
        assert_eq!(ctx.staged_out().len(), 1);
        drop(ctx);
        let mut ctx = h.ctx();
        agent.on_packet(&mut ctx, pkt(7));
        assert!(ctx.staged_out().is_empty(), "duplicate must be suppressed");
    }

    #[test]
    fn flood_agent_forwards_until_ttl_expires() {
        let mut trace = NodeTrace::new();
        let mut rng = derive_stream(0, 1);
        let mut counter = 10u64;
        let mut agent = FloodAgent::new();
        let pkt = Packet {
            id: PacketId(1),
            src: NodeId(5),
            link_src: NodeId(5),
            dst: NodeId(9),
            ttl: 0,
            size: 64,
            header: (),
            app: None,
        };
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(2), &mut trace, &mut rng, &mut counter);
        agent.on_packet(&mut ctx, pkt);
        assert!(
            ctx.out.is_empty(),
            "ttl-expired packet must not be forwarded"
        );
        assert_eq!(
            trace.count_packets(TracePacketKind::DataTransit, Direction::Dropped),
            1
        );
    }
}

//! The DSR protocol agent.

use super::cache::{CacheInsert, RouteCache};
use super::constants::*;
use super::DsrHeader;
use manet_sim::{
    Agent, AppData, Ctx, DetMap, Direction, NodeId, Packet, RouteEventKind, SimTime, TimerToken,
    TracePacketKind, TxDest,
};

const TOKEN_SWEEP: u64 = 1;
const TOKEN_RREQ_BASE: u64 = 0x1_0000;

#[derive(Debug)]
struct Buffered {
    dst: NodeId,
    size: u32,
    data: Option<AppData>,
    enqueued: SimTime,
}

#[derive(Debug)]
struct Discovery {
    attempts: u32,
}

/// Dynamic Source Routing agent: one instance per node.
///
/// See the [module docs](super) for protocol behaviour. The agent records
/// the audit events (Tables 4 and 5 of the paper) through its context.
#[derive(Debug)]
pub struct DsrAgent {
    cache: RouteCache,
    buffer: Vec<Buffered>,
    seen_rreq: DetMap<(NodeId, u32), SimTime>,
    discoveries: DetMap<NodeId, Discovery>,
    next_rreq_id: u32,
}

impl Default for DsrAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl DsrAgent {
    /// Creates a fresh agent with an empty cache.
    pub fn new() -> DsrAgent {
        DsrAgent {
            cache: RouteCache::new(SimTime::from_secs(CACHE_TTL)),
            buffer: Vec::new(),
            seen_rreq: DetMap::new(),
            discoveries: DetMap::new(),
            next_rreq_id: 0,
        }
    }

    /// Read access to the route cache (diagnostics and tests).
    pub fn cache(&self) -> &RouteCache {
        &self.cache
    }

    /// Number of packets waiting for a route.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Inserts a path learned from the network, tracing the appropriate
    /// route event. `noticed` marks routes learned from *other* nodes'
    /// traffic (overheard or relayed), as opposed to replies to our own
    /// discovery.
    fn learn_route(&mut self, ctx: &mut Ctx<'_, DsrHeader>, path: &[NodeId], noticed: bool) {
        // audit: allow(D007, reason = "RouteCache bounds itself: TTL expiry plus MAX_PER_DEST truncation per destination")
        match self.cache.insert(ctx.now(), path) {
            Some(CacheInsert::New) => {
                let kind = if noticed {
                    RouteEventKind::Noticed
                } else {
                    RouteEventKind::Added
                };
                ctx.trace_route(kind, Some(path.len().min(255) as u8));
            }
            Some(CacheInsert::Refreshed) | None => {}
        }
    }

    /// Extracts the sub-path from `self` (exclusive) to the route end from
    /// a full source route, if this node appears on it.
    fn suffix_from_self(me: NodeId, route: &[NodeId]) -> Option<&[NodeId]> {
        let idx = route.iter().position(|&n| n == me)?;
        let suffix = route.get(idx + 1..)?;
        if suffix.is_empty() {
            None
        } else {
            Some(suffix)
        }
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_, DsrHeader>, target: NodeId) {
        if self.discoveries.contains_key(&target) {
            return; // discovery already in flight
        }
        self.discoveries.insert(target, Discovery { attempts: 1 });
        self.broadcast_rreq(ctx, target);
        ctx.schedule(
            SimTime::from_secs(RREQ_BACKOFF),
            TimerToken(TOKEN_RREQ_BASE + target.0 as u64),
        );
    }

    fn broadcast_rreq(&mut self, ctx: &mut Ctx<'_, DsrHeader>, target: NodeId) {
        let me = ctx.node();
        let id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.seen_rreq.insert((me, id), ctx.now());
        ctx.trace_packet(TracePacketKind::Rreq, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst: target,
            ttl: Packet::<DsrHeader>::DEFAULT_TTL,
            size: RREQ_BASE_SIZE + ADDR_SIZE,
            header: DsrHeader::Rreq {
                origin: me,
                target,
                id,
                route: vec![me],
            },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Broadcast);
    }

    /// Sends data along a cached route. Returns `false` if no route exists.
    fn try_send_data(
        &mut self,
        ctx: &mut Ctx<'_, DsrHeader>,
        dst: NodeId,
        size: u32,
        data: Option<AppData>,
        count_found: bool,
    ) -> bool {
        let me = ctx.node();
        let Some(path @ &[next, ..]) = self.cache.best(ctx.now(), dst) else {
            return false;
        };
        let mut route = Vec::with_capacity(path.len() + 1);
        route.push(me);
        route.extend_from_slice(path);
        if count_found {
            ctx.trace_route(RouteEventKind::Found, Some(path.len() as u8));
        }
        ctx.trace_packet(TracePacketKind::Data, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst,
            ttl: Packet::<DsrHeader>::DEFAULT_TTL,
            size,
            header: DsrHeader::Data {
                route,
                hop: 0,
                salvaged: false,
            },
            app: data,
        };
        ctx.transmit(pkt, TxDest::Unicast(next));
        true
    }

    fn flush_buffer_for(&mut self, ctx: &mut Ctx<'_, DsrHeader>, dst: NodeId) {
        let ready: Vec<Buffered> = {
            let mut taken = Vec::new();
            let mut i = 0;
            while i < self.buffer.len() {
                // audit: allow(D006, reason = "the `while i < self.buffer.len()` condition bounds i")
                if self.buffer[i].dst == dst {
                    taken.push(self.buffer.remove(i));
                } else {
                    i += 1;
                }
            }
            taken
        };
        for b in ready {
            if !self.try_send_data(ctx, b.dst, b.size, b.data, false) {
                // Route vanished again; drop rather than loop.
                ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
            }
        }
    }

    fn send_rerr(
        &mut self,
        ctx: &mut Ctx<'_, DsrHeader>,
        broken: (NodeId, NodeId),
        data_route: &[NodeId],
        my_index: usize,
    ) {
        let me = ctx.node();
        if my_index == 0 {
            return; // the source itself noticed the break; no RERR needed
        }
        // Path back to the source: my predecessors, reversed. `my_index >= 1`
        // here, so the back route holds at least `[me, predecessor]`. The
        // index comes from the packet's hop field: a route too short for
        // it sends no RERR.
        let Some(walked) = data_route.get(..=my_index) else {
            return;
        };
        let back_route: Vec<NodeId> = walked.iter().rev().copied().collect();
        debug_assert_eq!(back_route.first(), Some(&me));
        let (Some(&next), Some(&source)) = (back_route.get(1), back_route.last()) else {
            return;
        };
        ctx.trace_packet(TracePacketKind::Rerr, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst: source,
            ttl: Packet::<DsrHeader>::DEFAULT_TTL,
            size: RERR_SIZE,
            header: DsrHeader::Rerr {
                broken,
                back_route,
                hop: 0,
            },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Unicast(next));
    }

    fn handle_rreq(
        &mut self,
        ctx: &mut Ctx<'_, DsrHeader>,
        pkt: &Packet<DsrHeader>,
        origin: NodeId,
        target: NodeId,
        id: u32,
        route: &[NodeId],
    ) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rreq, Direction::Received);
        if self.seen_rreq.contains_key(&(origin, id)) || route.contains(&me) {
            return;
        }
        self.seen_rreq.insert((origin, id), ctx.now());
        // Learn the reverse route to the origin from the accumulated path.
        // This is the eavesdropping behaviour the black-hole attack abuses:
        // a fabricated REQUEST claiming a one-hop path from a victim source
        // makes every receiver route that source's traffic via the attacker.
        let mut reverse: Vec<NodeId> = route.to_vec();
        reverse.reverse(); // path from me's neighbour back to origin
        self.learn_route(ctx, &reverse, true);

        if target == me {
            // Answer with the full path: accumulated route + me.
            let mut full = route.to_vec();
            full.push(me);
            self.reply_with_route(ctx, full);
            return;
        }
        // Cached-route reply: only if the cached path shares no node with
        // the accumulated path (would create a loop).
        if let Some(cached) = self
            .cache
            .best_avoiding(ctx.now(), target, route)
            .map(<[NodeId]>::to_vec)
        {
            let mut full = route.to_vec();
            full.push(me);
            full.extend_from_slice(&cached);
            self.reply_with_route(ctx, full);
            return;
        }
        // Forward the flood.
        if pkt.ttl == 0 {
            ctx.trace_packet(TracePacketKind::Rreq, Direction::Dropped);
            return;
        }
        ctx.trace_packet(TracePacketKind::Rreq, Direction::Forwarded);
        let mut fwd_route = route.to_vec();
        fwd_route.push(me);
        let size = RREQ_BASE_SIZE + ADDR_SIZE * (fwd_route.len() as u32);
        let fwd = Packet {
            id: ctx.fresh_packet_id(),
            src: origin,
            link_src: me,
            dst: target,
            ttl: pkt.ttl - 1,
            size,
            header: DsrHeader::Rreq {
                origin,
                target,
                id,
                route: fwd_route,
            },
            app: None,
        };
        ctx.transmit(fwd, TxDest::Broadcast);
    }

    /// Emits a ROUTE REPLY for a complete `route` (`route[0]` = origin).
    fn reply_with_route(&mut self, ctx: &mut Ctx<'_, DsrHeader>, route: Vec<NodeId>) {
        let me = ctx.node();
        // The reply travels from `me` back toward the origin. `hop` counts
        // positions from the position of `me` in the route. Every caller
        // appends `me` before replying; a route without us is degenerate.
        let Some(my_idx) = route.iter().position(|&n| n == me) else {
            return;
        };
        if my_idx == 0 {
            return; // degenerate: we are the origin
        }
        ctx.trace_packet(TracePacketKind::Rrep, Direction::Sent);
        // audit: allow(D006, reason = "my_idx is a position() in route and the `my_idx == 0` return above makes my_idx - 1 valid")
        let next = route[my_idx - 1];
        let size = RREP_BASE_SIZE + ADDR_SIZE * (route.len() as u32);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            // audit: allow(D006, reason = "position() found me in route above, so route is non-empty")
            dst: route[0],
            ttl: Packet::<DsrHeader>::DEFAULT_TTL,
            size,
            header: DsrHeader::Rrep { route, hop: my_idx },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Unicast(next));
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx<'_, DsrHeader>, route: Vec<NodeId>, hop: usize) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rrep, Direction::Received);
        // hop is the index of the node that now holds the reply.
        let my_idx = hop.checked_sub(1).filter(|&i| route.get(i) == Some(&me));
        let Some(my_idx) = my_idx else {
            return; // not addressed to us / malformed
        };
        let Some(&route_end) = route.last() else {
            return; // empty routes were filtered by the index check above
        };
        if my_idx == 0 {
            // We are the origin: the discovery succeeded.
            // audit: allow(D006, reason = "the `route.get(i) == Some(&me)` filter above makes route non-empty, so 1.. is in bounds")
            self.learn_route(ctx, &route[1..], false);
            self.discoveries.remove(&route_end);
            self.flush_buffer_for(ctx, route_end);
            return;
        }
        // Intermediate: learn the forward sub-path and relay toward origin.
        if let Some(suffix) = Self::suffix_from_self(me, &route) {
            let suffix = suffix.to_vec();
            self.learn_route(ctx, &suffix, true);
        }
        ctx.trace_packet(TracePacketKind::Rrep, Direction::Forwarded);
        // audit: allow(D006, reason = "the `route.get(i) == Some(&me)` filter bounds my_idx and the `my_idx == 0` return above makes my_idx - 1 valid")
        let next = route[my_idx - 1];
        let size = RREP_BASE_SIZE + ADDR_SIZE * (route.len() as u32);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: route_end,
            link_src: me,
            // audit: allow(D006, reason = "the `route.get(i) == Some(&me)` filter above makes route non-empty")
            dst: route[0],
            ttl: Packet::<DsrHeader>::DEFAULT_TTL,
            size,
            header: DsrHeader::Rrep { route, hop: my_idx },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Unicast(next));
    }

    fn handle_rerr(
        &mut self,
        ctx: &mut Ctx<'_, DsrHeader>,
        broken: (NodeId, NodeId),
        back_route: Vec<NodeId>,
        hop: usize,
    ) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rerr, Direction::Received);
        let my_idx = hop + 1;
        if back_route.get(my_idx) != Some(&me) {
            return;
        }
        let removed = self.cache.remove_link(me, broken.0, broken.1);
        for _ in 0..removed {
            ctx.trace_route(RouteEventKind::Removed, None);
        }
        let (Some(&next), Some(&first), Some(&source)) = (
            back_route.get(my_idx + 1),
            back_route.first(),
            back_route.last(),
        ) else {
            return; // we are the source: the error has arrived
        };
        ctx.trace_packet(TracePacketKind::Rerr, Direction::Forwarded);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: first,
            link_src: me,
            dst: source,
            ttl: Packet::<DsrHeader>::DEFAULT_TTL,
            size: RERR_SIZE,
            header: DsrHeader::Rerr {
                broken,
                back_route,
                hop: my_idx,
            },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Unicast(next));
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_, DsrHeader>, pkt: Packet<DsrHeader>) {
        let me = ctx.node();
        let DsrHeader::Data {
            route,
            hop,
            salvaged,
        } = &pkt.header
        else {
            // Dispatch only routes data headers here; degrade by dropping
            // rather than aborting the run on a future dispatch bug.
            debug_assert!(false, "handle_data called with non-data header");
            return;
        };
        let my_idx = hop + 1;
        if route.get(my_idx) != Some(&me) {
            return; // not the addressed relay
        }
        let Some(&next) = route.get(my_idx + 1) else {
            // We are the route's last hop: the destination.
            ctx.trace_packet(TracePacketKind::Data, Direction::Received);
            if let Some(data) = pkt.app {
                ctx.deliver_app(data, pkt.size, pkt.src);
            }
            return;
        };
        if pkt.ttl == 0 {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
            return;
        }
        ctx.trace_packet(TracePacketKind::DataTransit, Direction::Forwarded);
        let fwd = Packet {
            id: pkt.id,
            src: pkt.src,
            link_src: me,
            dst: pkt.dst,
            ttl: pkt.ttl - 1,
            size: pkt.size,
            header: DsrHeader::Data {
                route: route.clone(),
                hop: my_idx,
                salvaged: *salvaged,
            },
            app: pkt.app,
        };
        ctx.transmit(fwd, TxDest::Unicast(next));
    }

    fn handle_data_tx_failed(
        &mut self,
        ctx: &mut Ctx<'_, DsrHeader>,
        pkt: Packet<DsrHeader>,
        next_hop: NodeId,
    ) {
        let me = ctx.node();
        let DsrHeader::Data {
            route,
            hop,
            salvaged,
        } = &pkt.header
        else {
            // Only data packets report tx failures; drop instead of abort.
            debug_assert!(false, "handle_data_tx_failed with non-data header");
            return;
        };
        let my_idx = *hop;
        let removed = self.cache.remove_link(me, me, next_hop);
        for _ in 0..removed {
            ctx.trace_route(RouteEventKind::Removed, None);
        }
        self.send_rerr(ctx, (me, next_hop), route, my_idx);
        if *salvaged {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
            return;
        }
        // Salvage: try an alternative cached route to the destination.
        ctx.trace_route(RouteEventKind::Repaired, None);
        let dst = pkt.dst;
        if let Some(alt @ &[next, ..]) = self.cache.best_avoiding(ctx.now(), dst, &[next_hop]) {
            let mut new_route = vec![me];
            new_route.extend_from_slice(alt);
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Forwarded);
            let fwd = Packet {
                id: pkt.id,
                src: pkt.src,
                link_src: me,
                dst,
                ttl: pkt.ttl,
                size: pkt.size,
                header: DsrHeader::Data {
                    route: new_route,
                    hop: 0,
                    salvaged: true,
                },
                app: pkt.app,
            };
            ctx.transmit(fwd, TxDest::Unicast(next));
        } else if my_idx == 0 {
            // We are the source: buffer and re-discover.
            if self.buffer.len() < BUFFER_CAP {
                self.buffer.push(Buffered {
                    dst,
                    size: pkt.size,
                    data: pkt.app,
                    enqueued: ctx.now(),
                });
            }
            self.start_discovery(ctx, dst);
        } else {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
        }
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_, DsrHeader>) {
        let now = ctx.now();
        let expired = self.cache.expire(now);
        for _ in 0..expired {
            ctx.trace_route(RouteEventKind::Removed, None);
        }
        let ttl = SimTime::from_secs(BUFFER_TTL);
        let mut dropped = 0usize;
        self.buffer.retain(|b| {
            let dead = now.saturating_sub(b.enqueued) >= ttl;
            if dead {
                dropped += 1;
            }
            !dead
        });
        for _ in 0..dropped {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
        }
        let seen_ttl = SimTime::from_secs(SEEN_TTL);
        self.seen_rreq
            .retain(|_, &mut t| now.saturating_sub(t) < seen_ttl);
        ctx.schedule(SimTime::from_secs(SWEEP_INTERVAL), TimerToken(TOKEN_SWEEP));
    }

    fn rreq_retry(&mut self, ctx: &mut Ctx<'_, DsrHeader>, target: NodeId) {
        if self.cache.best(ctx.now(), target).is_some() {
            self.discoveries.remove(&target);
            self.flush_buffer_for(ctx, target);
            return;
        }
        let has_waiting = self.buffer.iter().any(|b| b.dst == target);
        let Some(d) = self.discoveries.get_mut(&target) else {
            return;
        };
        if !has_waiting || d.attempts >= RREQ_MAX_ATTEMPTS {
            self.discoveries.remove(&target);
            let mut dropped = 0usize;
            self.buffer.retain(|b| {
                let dead = b.dst == target;
                if dead {
                    dropped += 1;
                }
                !dead
            });
            for _ in 0..dropped {
                ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
            }
            return;
        }
        d.attempts += 1;
        let backoff = RREQ_BACKOFF * f64::from(1u32 << d.attempts.min(6));
        self.broadcast_rreq(ctx, target);
        ctx.schedule(
            SimTime::from_secs(backoff),
            TimerToken(TOKEN_RREQ_BASE + target.0 as u64),
        );
    }
}

impl Agent for DsrAgent {
    type Header = DsrHeader;

    fn start(&mut self, ctx: &mut Ctx<'_, DsrHeader>) {
        ctx.schedule(SimTime::from_secs(SWEEP_INTERVAL), TimerToken(TOKEN_SWEEP));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, DsrHeader>, pkt: Packet<DsrHeader>) {
        match pkt.header.clone() {
            DsrHeader::Rreq {
                origin,
                target,
                id,
                route,
            } => self.handle_rreq(ctx, &pkt, origin, target, id, &route),
            DsrHeader::Rrep { route, hop } => self.handle_rrep(ctx, route, hop),
            DsrHeader::Rerr {
                broken,
                back_route,
                hop,
            } => self.handle_rerr(ctx, broken, back_route, hop),
            DsrHeader::Data { .. } => self.handle_data(ctx, pkt),
        }
    }

    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_, DsrHeader>, pkt: &Packet<DsrHeader>) {
        // Overhear source routes in data packets and replies, and broken
        // links in ROUTE ERRORs.
        let me = ctx.node();
        let route = match &pkt.header {
            DsrHeader::Data { route, .. } => route,
            DsrHeader::Rrep { route, .. } => route,
            DsrHeader::Rerr { broken, .. } => {
                let removed = self.cache.remove_link(me, broken.0, broken.1);
                for _ in 0..removed {
                    ctx.trace_route(RouteEventKind::Removed, None);
                }
                return;
            }
            _ => return,
        };
        if let Some(suffix) = Self::suffix_from_self(me, route) {
            let suffix = suffix.to_vec();
            self.learn_route(ctx, &suffix, true);
        }
    }

    fn on_tx_failed(
        &mut self,
        ctx: &mut Ctx<'_, DsrHeader>,
        pkt: Packet<DsrHeader>,
        next_hop: NodeId,
    ) {
        match pkt.header {
            DsrHeader::Data { .. } => self.handle_data_tx_failed(ctx, pkt, next_hop),
            // Losing control packets invalidates the link too.
            _ => {
                let me = ctx.node();
                let removed = self.cache.remove_link(me, me, next_hop);
                for _ in 0..removed {
                    ctx.trace_route(RouteEventKind::Removed, None);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DsrHeader>, token: TimerToken) {
        match token.0 {
            TOKEN_SWEEP => self.sweep(ctx),
            t if t >= TOKEN_RREQ_BASE => {
                let target = NodeId((t - TOKEN_RREQ_BASE) as u16);
                self.rreq_retry(ctx, target);
            }
            _ => {}
        }
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_, DsrHeader>, dst: NodeId, size: u32, data: AppData) {
        if dst == ctx.node() {
            // Loopback: deliver immediately.
            ctx.trace_packet(TracePacketKind::Data, Direction::Sent);
            ctx.trace_packet(TracePacketKind::Data, Direction::Received);
            let me = ctx.node();
            ctx.deliver_app(data, size, me);
            return;
        }
        if self.try_send_data(ctx, dst, size, Some(data), true) {
            return;
        }
        if self.buffer.len() < BUFFER_CAP {
            self.buffer.push(Buffered {
                dst,
                size,
                data: Some(data),
                enqueued: ctx.now(),
            });
        } else {
            ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
        }
        self.start_discovery(ctx, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::AgentHarness;
    use manet_sim::AppKind;
    use manet_sim::FlowId;

    fn app_data() -> AppData {
        AppData {
            flow: FlowId(1),
            seq: 0,
            kind: AppKind::Cbr,
        }
    }

    fn make_pkt(header: DsrHeader, src: u16, dst: u16) -> Packet<DsrHeader> {
        Packet {
            id: manet_sim::PacketId(999),
            src: NodeId(src),
            link_src: NodeId(src),
            dst: NodeId(dst),
            ttl: 16,
            size: 64,
            header,
            app: None,
        }
    }

    #[test]
    fn send_without_route_buffers_and_discovers() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let mut ctx = h.ctx();
        agent.send_data(&mut ctx, NodeId(5), 512, app_data());
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1, "exactly one RREQ should go out");
        assert!(matches!(out[0].0.header, DsrHeader::Rreq { .. }));
        assert_eq!(out[0].1, TxDest::Broadcast);
        assert_eq!(agent.buffered(), 1);
        drop(ctx);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::Rreq, Direction::Sent),
            1
        );
    }

    #[test]
    fn target_replies_to_rreq() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(5));
        let mut ctx = h.ctx();
        let pkt = make_pkt(
            DsrHeader::Rreq {
                origin: NodeId(0),
                target: NodeId(5),
                id: 1,
                route: vec![NodeId(0), NodeId(2)],
            },
            0,
            5,
        );
        agent.on_packet(&mut ctx, pkt);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        match &out[0].0.header {
            DsrHeader::Rrep { route, hop } => {
                assert_eq!(route, &[NodeId(0), NodeId(2), NodeId(5)]);
                assert_eq!(*hop, 2);
            }
            h => panic!("expected RREP, got {h:?}"),
        }
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(2)));
    }

    #[test]
    fn intermediate_forwards_rreq_and_learns_reverse_route() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        let pkt = make_pkt(
            DsrHeader::Rreq {
                origin: NodeId(0),
                target: NodeId(5),
                id: 1,
                route: vec![NodeId(0)],
            },
            0,
            5,
        );
        agent.on_packet(&mut ctx, pkt);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        match &out[0].0.header {
            DsrHeader::Rreq { route, .. } => {
                assert_eq!(route, &[NodeId(0), NodeId(2)]);
            }
            h => panic!("expected forwarded RREQ, got {h:?}"),
        }
        drop(ctx);
        // Reverse route to the origin was learned ("noticed").
        assert!(agent.cache().best(SimTime::ZERO, NodeId(0)).is_some());
        assert_eq!(h.trace().count_routes(RouteEventKind::Noticed), 1);
    }

    #[test]
    fn duplicate_rreq_suppressed() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let rreq = || {
            make_pkt(
                DsrHeader::Rreq {
                    origin: NodeId(0),
                    target: NodeId(5),
                    id: 1,
                    route: vec![NodeId(0)],
                },
                0,
                5,
            )
        };
        let mut ctx = h.ctx();
        agent.on_packet(&mut ctx, rreq());
        assert_eq!(ctx.staged_out().len(), 1);
        drop(ctx);
        let mut ctx = h.ctx();
        agent.on_packet(&mut ctx, rreq());
        assert!(ctx.staged_out().is_empty(), "duplicate must be suppressed");
    }

    #[test]
    fn origin_learns_route_and_flushes_buffer() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let mut ctx = h.ctx();
        agent.send_data(&mut ctx, NodeId(5), 512, app_data());
        drop(ctx);
        assert_eq!(agent.buffered(), 1);
        let mut ctx = h.ctx();
        let rrep = make_pkt(
            DsrHeader::Rrep {
                route: vec![NodeId(0), NodeId(2), NodeId(5)],
                hop: 1,
            },
            5,
            0,
        );
        agent.on_packet(&mut ctx, rrep);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1, "buffered data should flush");
        match &out[0].0.header {
            DsrHeader::Data { route, hop, .. } => {
                assert_eq!(route, &[NodeId(0), NodeId(2), NodeId(5)]);
                assert_eq!(*hop, 0);
            }
            h => panic!("expected data, got {h:?}"),
        }
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(2)));
        drop(ctx);
        assert_eq!(agent.buffered(), 0);
        assert_eq!(h.trace().count_routes(RouteEventKind::Added), 1);
    }

    #[test]
    fn relay_forwards_data_along_source_route() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        let pkt = Packet {
            app: Some(app_data()),
            ..make_pkt(
                DsrHeader::Data {
                    route: vec![NodeId(0), NodeId(2), NodeId(5)],
                    hop: 0,
                    salvaged: false,
                },
                0,
                5,
            )
        };
        agent.on_packet(&mut ctx, pkt);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(5)));
        drop(ctx);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::DataTransit, Direction::Forwarded),
            1
        );
    }

    #[test]
    fn destination_delivers_data() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(5));
        let mut ctx = h.ctx();
        let pkt = Packet {
            app: Some(app_data()),
            ..make_pkt(
                DsrHeader::Data {
                    route: vec![NodeId(0), NodeId(2), NodeId(5)],
                    hop: 1,
                    salvaged: false,
                },
                0,
                5,
            )
        };
        agent.on_packet(&mut ctx, pkt);
        assert_eq!(ctx.staged_deliveries().len(), 1);
        drop(ctx);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::Data, Direction::Received),
            1
        );
    }

    #[test]
    fn tx_failure_salvages_with_alternative_route() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        // Preload an alternative route to 5 avoiding node 3.
        let mut ctx = h.ctx();
        agent.cache.insert(ctx.now(), &[NodeId(4), NodeId(5)]);
        let pkt = Packet {
            app: Some(app_data()),
            ..make_pkt(
                DsrHeader::Data {
                    route: vec![NodeId(0), NodeId(2), NodeId(3), NodeId(5)],
                    hop: 1,
                    salvaged: false,
                },
                0,
                5,
            )
        };
        agent.on_tx_failed(&mut ctx, pkt, NodeId(3));
        let out = ctx.staged_out();
        // RERR back to source + salvaged data on the alternative route.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].0.header, DsrHeader::Rerr { .. }));
        match &out[1].0.header {
            DsrHeader::Data {
                route, salvaged, ..
            } => {
                assert!(*salvaged);
                assert_eq!(route, &[NodeId(2), NodeId(4), NodeId(5)]);
            }
            h => panic!("expected salvaged data, got {h:?}"),
        }
        drop(ctx);
        assert_eq!(h.trace().count_routes(RouteEventKind::Repaired), 1);
    }

    #[test]
    fn rerr_removes_broken_link_routes() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(1));
        let mut ctx = h.ctx();
        // Route 1 -> 2 -> 3 -> 5 uses link (3, 5).
        agent
            .cache
            .insert(ctx.now(), &[NodeId(2), NodeId(3), NodeId(5)]);
        let rerr = make_pkt(
            DsrHeader::Rerr {
                broken: (NodeId(3), NodeId(5)),
                back_route: vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)],
                hop: 1,
            },
            3,
            0,
        );
        agent.on_packet(&mut ctx, rerr);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1, "RERR should be forwarded toward the source");
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(0)));
        drop(ctx);
        assert!(agent.cache().best(SimTime::ZERO, NodeId(5)).is_none());
        assert_eq!(h.trace().count_routes(RouteEventKind::Removed), 1);
    }

    #[test]
    fn seen_rreq_memory_holds_steady_state_size() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(9));
        // 10 distinct RREQs/s for 10 minutes, sweeping once a second like
        // the simulator's periodic timer would.
        for i in 0..6000u32 {
            let now = SimTime::from_secs(f64::from(i) * 0.1);
            h.set_now(now);
            let origin = NodeId((i % 7) as u16);
            let mut ctx = h.ctx();
            let pkt = make_pkt(
                DsrHeader::Rreq {
                    origin,
                    target: NodeId(8),
                    id: i,
                    route: vec![origin],
                },
                origin.0,
                8,
            );
            agent.on_packet(&mut ctx, pkt);
            drop(ctx);
            if i % 10 == 0 {
                let mut ctx = h.ctx();
                agent.on_timer(&mut ctx, TimerToken(TOKEN_SWEEP));
            }
        }
        // The dedup horizon is SEEN_TTL (60 s): at 10 RREQ/s the working
        // set holds ~600 entries, not the 6000 this run produced.
        assert!(
            agent.seen_rreq.len() <= 700,
            "seen_rreq failed to reach steady state: {} entries",
            agent.seen_rreq.len()
        );
    }

    #[test]
    fn promiscuous_overhearing_notices_routes() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        let pkt = make_pkt(
            DsrHeader::Data {
                route: vec![NodeId(0), NodeId(2), NodeId(4), NodeId(5)],
                hop: 0,
                salvaged: false,
            },
            0,
            5,
        );
        agent.on_promiscuous(&mut ctx, &pkt);
        drop(ctx);
        assert!(agent.cache().best(SimTime::ZERO, NodeId(5)).is_some());
        assert_eq!(h.trace().count_routes(RouteEventKind::Noticed), 1);
    }

    #[test]
    fn cached_route_hit_counts_found() {
        let mut agent = DsrAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let mut ctx = h.ctx();
        agent.cache.insert(ctx.now(), &[NodeId(2), NodeId(5)]);
        agent.send_data(&mut ctx, NodeId(5), 512, app_data());
        assert_eq!(ctx.staged_out().len(), 1);
        drop(ctx);
        assert_eq!(h.trace().count_routes(RouteEventKind::Found), 1);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::Data, Direction::Sent),
            1
        );
    }
}

//! The AODV protocol agent.

use super::constants::*;
use super::table::{RouteTable, UpdateOutcome};
use super::AodvHeader;
use crate::ondemand::{schedule_sweep, OnDemand, OnDemandAgent};
use manet_sim::{
    Agent, AppData, Ctx, Direction, NodeId, NodeMap, Packet, RouteEventKind, SimTime, TimerToken,
    TracePacketKind, TxDest,
};

const TOKEN_HELLO: u64 = 2;

/// Ad hoc On-demand Distance Vector agent: one instance per node.
///
/// See the [module docs](super) for protocol behaviour.
#[derive(Debug)]
pub struct AodvAgent {
    core: OnDemand,
    table: RouteTable,
    my_seq: u32,
    neighbors: NodeMap<SimTime>,
}

impl Default for AodvAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl AodvAgent {
    /// Creates a fresh agent with an empty routing table.
    pub fn new() -> AodvAgent {
        AodvAgent {
            core: OnDemand::new(RREQ_BACKOFF, RREQ_MAX_ATTEMPTS),
            table: RouteTable::new(SimTime::from_secs(ROUTE_TTL)),
            my_seq: 0,
            neighbors: NodeMap::new(),
        }
    }

    /// Read access to the routing table (diagnostics and tests).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Number of packets waiting for a route.
    pub fn buffered(&self) -> usize {
        self.core.buffered()
    }

    /// Offers a route to the table, tracing route additions. `own_discovery`
    /// distinguishes routes we actively searched for (Added) from routes
    /// learned while relaying other nodes' control traffic (Noticed).
    fn learn_route(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        dest: NodeId,
        next_hop: NodeId,
        hops: u8,
        seq: u32,
        own_discovery: bool,
    ) -> UpdateOutcome {
        if dest == ctx.node() {
            return UpdateOutcome::Ignored;
        }
        let outcome = self.table.offer(ctx.now(), dest, next_hop, hops, seq);
        match outcome {
            UpdateOutcome::Installed | UpdateOutcome::Improved => {
                let kind = if own_discovery {
                    RouteEventKind::Added
                } else {
                    RouteEventKind::Noticed
                };
                ctx.trace_route(kind, Some(hops));
            }
            UpdateOutcome::Refreshed | UpdateOutcome::Ignored => {}
        }
        outcome
    }

    fn broadcast_rerr(&mut self, ctx: &mut Ctx<'_, AodvHeader>, unreachable: Vec<(NodeId, u32)>) {
        if unreachable.is_empty() {
            return;
        }
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rerr, Direction::Sent);
        let size = RERR_BASE_SIZE + RERR_ENTRY_SIZE * unreachable.len() as u32;
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst: me, // broadcast; dst unused
            ttl: 1,
            size,
            header: AodvHeader::Rerr { unreachable },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Broadcast);
    }

    #[allow(clippy::too_many_arguments)] // the destructured RREQ header fields
    fn handle_rreq(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        pkt: &Packet<AodvHeader>,
        origin: NodeId,
        origin_seq: u32,
        dest: NodeId,
        dest_seq: Option<u32>,
        id: u32,
        hops: u8,
    ) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rreq, Direction::Received);
        if origin == me {
            return; // our own flood echoed back
        }
        // Install/refresh the reverse route to the origin.
        self.learn_route(ctx, origin, pkt.link_src, hops + 1, origin_seq, false);
        if !self.core.first_sight(origin, id, ctx.now()) {
            return;
        }

        if dest == me {
            // We are the destination: answer with our own, incremented
            // sequence number. (RFC 3561 would have us adopt the REQUEST's
            // dest_seq if larger; the ns-2 implementation the paper used
            // does not, which is precisely why its max-sequence-number
            // black hole is "never automatically rectified" — we match the
            // paper's system here.)
            self.my_seq = self.my_seq.saturating_add(1);
            let _ = dest_seq;
            self.send_rrep(ctx, origin, me, self.my_seq, 0, pkt.link_src);
            return;
        }
        // Intermediate reply if we hold a fresh-enough valid route — but
        // never one whose next hop is the node the REQUEST just came from
        // (that is the reverse route itself and useless to the origin).
        if let Some(entry) = self.table.route(ctx.now(), dest) {
            if entry.next_hop != pkt.link_src && dest_seq.is_none_or(|ds| entry.seq >= ds) {
                let (seq, hops_to_dest) = (entry.seq, entry.hops);
                self.send_rrep(ctx, origin, dest, seq, hops_to_dest, pkt.link_src);
                return;
            }
        }
        // Keep flooding.
        if pkt.ttl == 0 {
            ctx.trace_packet(TracePacketKind::Rreq, Direction::Dropped);
            return;
        }
        ctx.trace_packet(TracePacketKind::Rreq, Direction::Forwarded);
        let fwd = Packet {
            id: ctx.fresh_packet_id(),
            src: origin,
            link_src: me,
            dst: dest,
            ttl: pkt.ttl - 1,
            size: RREQ_SIZE,
            header: AodvHeader::Rreq {
                origin,
                origin_seq,
                dest,
                dest_seq,
                id,
                hops: hops + 1,
            },
            app: None,
        };
        ctx.transmit(fwd, TxDest::Broadcast);
    }

    fn send_rrep(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        origin: NodeId,
        dest: NodeId,
        dest_seq: u32,
        hops: u8,
        reverse_hop: NodeId,
    ) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rrep, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst: origin,
            ttl: Packet::<AodvHeader>::DEFAULT_TTL,
            size: RREP_SIZE,
            header: AodvHeader::Rrep {
                dest,
                dest_seq,
                hops,
                origin,
            },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Unicast(reverse_hop));
    }

    fn handle_rrep(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        pkt: &Packet<AodvHeader>,
        dest: NodeId,
        dest_seq: u32,
        hops: u8,
        origin: NodeId,
    ) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Rrep, Direction::Received);
        let own = origin == me;
        // Install the forward route to the destination.
        self.learn_route(ctx, dest, pkt.link_src, hops + 1, dest_seq, own);
        if own {
            self.route_found(ctx, dest);
            return;
        }
        // Relay toward the origin along the reverse route.
        let Some(entry) = self.table.route(ctx.now(), origin).copied() else {
            ctx.trace_packet(TracePacketKind::Rrep, Direction::Dropped);
            return;
        };
        if pkt.ttl == 0 {
            ctx.trace_packet(TracePacketKind::Rrep, Direction::Dropped);
            return;
        }
        ctx.trace_packet(TracePacketKind::Rrep, Direction::Forwarded);
        let fwd = Packet {
            id: ctx.fresh_packet_id(),
            src: pkt.src,
            link_src: me,
            dst: origin,
            ttl: pkt.ttl - 1,
            size: RREP_SIZE,
            header: AodvHeader::Rrep {
                dest,
                dest_seq,
                hops: hops + 1,
                origin,
            },
            app: None,
        };
        ctx.transmit(fwd, TxDest::Unicast(entry.next_hop));
    }

    fn handle_rerr(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        pkt: &Packet<AodvHeader>,
        unreachable: &[(NodeId, u32)],
    ) {
        ctx.trace_packet(TracePacketKind::Rerr, Direction::Received);
        // Invalidate every route whose next hop is the RERR sender and whose
        // destination is listed; cascade our own RERR for those we dropped.
        let mut cascaded = Vec::new();
        for &(dest, seq) in unreachable {
            if let Some(e) = self.table.route(ctx.now(), dest) {
                if e.next_hop == pkt.link_src
                    && seq >= e.seq
                    && self.table.invalidate(dest).is_some()
                {
                    ctx.trace_route(RouteEventKind::Removed, None);
                    cascaded.push((dest, seq.saturating_add(1)));
                }
            }
        }
        if !cascaded.is_empty() {
            ctx.trace_packet(TracePacketKind::Rerr, Direction::Forwarded);
            let me = ctx.node();
            let size = RERR_BASE_SIZE + RERR_ENTRY_SIZE * cascaded.len() as u32;
            let fwd = Packet {
                id: ctx.fresh_packet_id(),
                src: me,
                link_src: me,
                dst: me,
                ttl: 1,
                size,
                header: AodvHeader::Rerr {
                    unreachable: cascaded,
                },
                app: None,
            };
            ctx.transmit(fwd, TxDest::Broadcast);
        }
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_, AodvHeader>, pkt: Packet<AodvHeader>) {
        let me = ctx.node();
        if pkt.dst == me {
            ctx.trace_packet(TracePacketKind::Data, Direction::Received);
            if let Some(data) = pkt.app {
                ctx.deliver_app(data, pkt.size, pkt.src);
            }
            return;
        }
        let now = ctx.now();
        match self.table.route(now, pkt.dst).copied() {
            Some(entry) if pkt.ttl > 0 => {
                self.table.refresh(now, pkt.dst);
                self.table.refresh(now, pkt.src);
                ctx.trace_packet(TracePacketKind::DataTransit, Direction::Forwarded);
                let fwd = Packet {
                    id: pkt.id,
                    src: pkt.src,
                    link_src: me,
                    dst: pkt.dst,
                    ttl: pkt.ttl - 1,
                    size: pkt.size,
                    header: AodvHeader::Data,
                    app: pkt.app,
                };
                ctx.transmit(fwd, TxDest::Unicast(entry.next_hop));
            }
            _ => {
                // No route (or TTL exhausted): drop and report.
                ctx.trace_packet(TracePacketKind::DataTransit, Direction::Dropped);
                let seq = self
                    .table
                    .any_entry(pkt.dst)
                    .map_or(0, |e| e.seq.saturating_add(1));
                self.broadcast_rerr(ctx, vec![(pkt.dst, seq)]);
            }
        }
    }

    fn handle_link_break(&mut self, ctx: &mut Ctx<'_, AodvHeader>, neighbor: NodeId) {
        self.neighbors.remove(neighbor);
        let broken = self.table.invalidate_via(neighbor);
        for _ in &broken {
            ctx.trace_route(RouteEventKind::Removed, None);
        }
        self.broadcast_rerr(ctx, broken);
    }

    fn beacon(&mut self, ctx: &mut Ctx<'_, AodvHeader>) {
        let me = ctx.node();
        ctx.trace_packet(TracePacketKind::Hello, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst: me, // broadcast; dst unused
            ttl: 1,
            size: HELLO_SIZE,
            header: AodvHeader::Hello { seq: self.my_seq },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Broadcast);
        ctx.schedule(SimTime::from_secs(HELLO_INTERVAL), TimerToken(TOKEN_HELLO));
    }
}

impl OnDemandAgent for AodvAgent {
    fn core(&mut self) -> &mut OnDemand {
        &mut self.core
    }

    fn has_route(&self, now: SimTime, dst: NodeId) -> bool {
        self.table.route(now, dst).is_some()
    }

    fn try_send_data(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        dst: NodeId,
        size: u32,
        data: Option<AppData>,
        count_found: bool,
    ) -> bool {
        let now = ctx.now();
        let Some(entry) = self.table.route(now, dst).copied() else {
            return false;
        };
        self.table.refresh(now, dst);
        if count_found {
            ctx.trace_route(RouteEventKind::Found, Some(entry.hops));
        }
        ctx.trace_packet(TracePacketKind::Data, Direction::Sent);
        let me = ctx.node();
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst,
            ttl: Packet::<AodvHeader>::DEFAULT_TTL,
            size,
            header: AodvHeader::Data,
            app: data,
        };
        ctx.transmit(pkt, TxDest::Unicast(entry.next_hop));
        true
    }

    fn broadcast_rreq(&mut self, ctx: &mut Ctx<'_, AodvHeader>, dest: NodeId) {
        let me = ctx.node();
        self.my_seq += 1;
        let id = self.core.next_flood();
        let dest_seq = self.table.any_entry(dest).map(|e| e.seq);
        ctx.trace_packet(TracePacketKind::Rreq, Direction::Sent);
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            src: me,
            link_src: me,
            dst: dest,
            ttl: Packet::<AodvHeader>::DEFAULT_TTL,
            size: RREQ_SIZE,
            header: AodvHeader::Rreq {
                origin: me,
                origin_seq: self.my_seq,
                dest,
                dest_seq,
                id,
                hops: 0,
            },
            app: None,
        };
        ctx.transmit(pkt, TxDest::Broadcast);
    }

    fn expire_routes(&mut self, ctx: &mut Ctx<'_, AodvHeader>) {
        let now = ctx.now();
        // Neighbour liveness.
        let timeout = SimTime::from_secs(NEIGHBOR_TIMEOUT);
        // NodeMap iteration is id-ordered, so link-break processing (and
        // thus shared radio randomness) is deterministic by construction.
        let dead: Vec<NodeId> = self
            .neighbors
            .iter()
            .filter(|(_, &last)| now.saturating_sub(last) >= timeout)
            .map(|(n, _)| n)
            .collect();
        for n in dead {
            self.handle_link_break(ctx, n);
        }
        let expired = self.table.expire(now);
        for _ in 0..expired {
            ctx.trace_route(RouteEventKind::Removed, None);
        }
    }
}

impl Agent for AodvAgent {
    type Header = AodvHeader;

    fn start(&mut self, ctx: &mut Ctx<'_, AodvHeader>) {
        schedule_sweep(ctx);
        // Desynchronise beacons across nodes.
        use rand::Rng;
        let phase = ctx.rng().gen_range(0.0..HELLO_INTERVAL);
        ctx.schedule(SimTime::from_secs(phase), TimerToken(TOKEN_HELLO));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, AodvHeader>, pkt: Packet<AodvHeader>) {
        // Any frame from a neighbour proves the link is alive.
        self.neighbors.insert(pkt.link_src, ctx.now());
        // Match by reference: the header stays in place (RERR's unreachable
        // list in particular is never cloned on the per-reception hot path).
        match &pkt.header {
            &AodvHeader::Rreq {
                origin,
                origin_seq,
                dest,
                dest_seq,
                id,
                hops,
            } => self.handle_rreq(ctx, &pkt, origin, origin_seq, dest, dest_seq, id, hops),
            &AodvHeader::Rrep {
                dest,
                dest_seq,
                hops,
                origin,
            } => self.handle_rrep(ctx, &pkt, dest, dest_seq, hops, origin),
            AodvHeader::Rerr { unreachable } => self.handle_rerr(ctx, &pkt, unreachable),
            &AodvHeader::Hello { seq } => {
                ctx.trace_packet(TracePacketKind::Hello, Direction::Received);
                // A hello installs/refreshes a 1-hop route to the neighbour.
                self.learn_route(ctx, pkt.link_src, pkt.link_src, 1, seq, false);
            }
            AodvHeader::Data => self.handle_data(ctx, pkt),
        }
    }

    fn on_tx_failed(
        &mut self,
        ctx: &mut Ctx<'_, AodvHeader>,
        pkt: Packet<AodvHeader>,
        next_hop: NodeId,
    ) {
        self.handle_link_break(ctx, next_hop);
        if let AodvHeader::Data = pkt.header {
            // Attempt repair: buffer the packet and re-discover the route.
            ctx.trace_route(RouteEventKind::Repaired, None);
            self.park(ctx, pkt.dst, pkt.size, pkt.app);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AodvHeader>, token: TimerToken) {
        match token.0 {
            TOKEN_HELLO => self.beacon(ctx),
            _ => self.on_core_timer(ctx, token),
        }
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_, AodvHeader>, dst: NodeId, size: u32, data: AppData) {
        self.send_or_discover(ctx, dst, size, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ondemand::TOKEN_SWEEP;
    use manet_sim::{AgentHarness, AppKind, FlowId, PacketId};

    fn app_data() -> AppData {
        AppData {
            flow: FlowId(1),
            seq: 0,
            kind: AppKind::Cbr,
        }
    }

    fn pkt(header: AodvHeader, src: u16, link_src: u16, dst: u16) -> Packet<AodvHeader> {
        Packet {
            id: PacketId(777),
            src: NodeId(src),
            link_src: NodeId(link_src),
            dst: NodeId(dst),
            ttl: 16,
            size: 64,
            header,
            app: None,
        }
    }

    #[test]
    fn send_without_route_floods_rreq() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let mut ctx = h.ctx();
        agent.send_data(&mut ctx, NodeId(5), 512, app_data());
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].0.header, AodvHeader::Rreq { .. }));
        assert_eq!(out[0].1, TxDest::Broadcast);
        assert_eq!(agent.buffered(), 1);
    }

    #[test]
    fn destination_replies_to_rreq() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(5));
        let mut ctx = h.ctx();
        let rreq = pkt(
            AodvHeader::Rreq {
                origin: NodeId(0),
                origin_seq: 3,
                dest: NodeId(5),
                dest_seq: None,
                id: 1,
                hops: 1,
            },
            0,
            2, // relayed by node 2
            5,
        );
        agent.on_packet(&mut ctx, rreq);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        match &out[0].0.header {
            AodvHeader::Rrep {
                dest, origin, hops, ..
            } => {
                assert_eq!(*dest, NodeId(5));
                assert_eq!(*origin, NodeId(0));
                assert_eq!(*hops, 0);
            }
            h => panic!("expected RREP, got {h:?}"),
        }
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(2)));
        drop(ctx);
        // Reverse route to the origin installed via the relay.
        let e = agent.table().route(SimTime::ZERO, NodeId(0)).unwrap();
        assert_eq!(e.next_hop, NodeId(2));
        assert_eq!(e.hops, 2);
    }

    #[test]
    fn intermediate_rebroadcasts_rreq_once() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let rreq = || {
            pkt(
                AodvHeader::Rreq {
                    origin: NodeId(0),
                    origin_seq: 3,
                    dest: NodeId(5),
                    dest_seq: None,
                    id: 1,
                    hops: 0,
                },
                0,
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
        assert!(ctx.staged_out().is_empty(), "duplicate flood suppressed");
    }

    #[test]
    fn origin_installs_route_and_flushes() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let mut ctx = h.ctx();
        agent.send_data(&mut ctx, NodeId(5), 512, app_data());
        drop(ctx);
        let mut ctx = h.ctx();
        let rrep = pkt(
            AodvHeader::Rrep {
                dest: NodeId(5),
                dest_seq: 7,
                hops: 1,
                origin: NodeId(0),
            },
            5,
            2,
            0,
        );
        agent.on_packet(&mut ctx, rrep);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1, "buffered data flushes via new route");
        assert!(matches!(out[0].0.header, AodvHeader::Data));
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(2)));
        drop(ctx);
        assert_eq!(agent.buffered(), 0);
        assert_eq!(h.trace().count_routes(RouteEventKind::Added), 1);
    }

    #[test]
    fn relay_forwards_data_via_table() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        agent.table.offer(ctx.now(), NodeId(5), NodeId(4), 1, 3);
        let data = Packet {
            app: Some(app_data()),
            ..pkt(AodvHeader::Data, 0, 0, 5)
        };
        agent.on_packet(&mut ctx, data);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, TxDest::Unicast(NodeId(4)));
        drop(ctx);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::DataTransit, Direction::Forwarded),
            1
        );
    }

    #[test]
    fn routeless_relay_drops_and_sends_rerr() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        let data = Packet {
            app: Some(app_data()),
            ..pkt(AodvHeader::Data, 0, 0, 5)
        };
        agent.on_packet(&mut ctx, data);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0].0.header, AodvHeader::Rerr { .. }));
        drop(ctx);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::DataTransit, Direction::Dropped),
            1
        );
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::Rerr, Direction::Sent),
            1
        );
    }

    #[test]
    fn rerr_cascades_to_dependent_routes() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(1));
        let mut ctx = h.ctx();
        agent.table.offer(ctx.now(), NodeId(5), NodeId(2), 2, 3);
        let rerr = pkt(
            AodvHeader::Rerr {
                unreachable: vec![(NodeId(5), 4)],
            },
            2,
            2,
            1,
        );
        agent.on_packet(&mut ctx, rerr);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1, "must cascade its own RERR");
        drop(ctx);
        assert!(agent.table().route(SimTime::ZERO, NodeId(5)).is_none());
        assert_eq!(h.trace().count_routes(RouteEventKind::Removed), 1);
    }

    #[test]
    fn hello_installs_neighbor_route() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(1));
        let mut ctx = h.ctx();
        agent.on_packet(&mut ctx, pkt(AodvHeader::Hello { seq: 9 }, 3, 3, 1));
        drop(ctx);
        let e = agent.table().route(SimTime::ZERO, NodeId(3)).unwrap();
        assert_eq!(e.next_hop, NodeId(3));
        assert_eq!(e.hops, 1);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::Hello, Direction::Received),
            1
        );
    }

    #[test]
    fn tx_failure_invalidates_and_repairs() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        let mut ctx = h.ctx();
        agent.table.offer(ctx.now(), NodeId(5), NodeId(2), 2, 3);
        agent.table.offer(ctx.now(), NodeId(6), NodeId(2), 3, 1);
        let data = Packet {
            app: Some(app_data()),
            ..pkt(AodvHeader::Data, 0, 0, 5)
        };
        agent.on_tx_failed(&mut ctx, data, NodeId(2));
        let out = ctx.staged_out();
        // RERR (both routes via 2 died) + fresh RREQ for the repair.
        assert_eq!(out.len(), 2);
        assert!(
            matches!(&out[0].0.header, AodvHeader::Rerr { unreachable } if unreachable.len() == 2)
        );
        assert!(matches!(out[1].0.header, AodvHeader::Rreq { .. }));
        drop(ctx);
        assert_eq!(h.trace().count_routes(RouteEventKind::Repaired), 1);
        assert_eq!(h.trace().count_routes(RouteEventKind::Removed), 2);
        assert_eq!(agent.buffered(), 1);
    }

    #[test]
    fn repair_into_a_full_buffer_records_the_drop_and_discovers() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(0));
        for _ in 0..BUFFER_CAP {
            let mut ctx = h.ctx();
            agent.send_data(&mut ctx, NodeId(5), 512, app_data());
        }
        assert_eq!(agent.buffered(), BUFFER_CAP);
        let mut ctx = h.ctx();
        let data = Packet {
            app: Some(app_data()),
            ..pkt(AodvHeader::Data, 0, 0, 6)
        };
        agent.on_tx_failed(&mut ctx, data, NodeId(2));
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].0.header,
            AodvHeader::Rreq {
                dest: NodeId(6),
                ..
            }
        ));
        drop(ctx);
        assert_eq!(agent.buffered(), BUFFER_CAP);
        assert_eq!(
            h.trace()
                .count_packets(TracePacketKind::DataTransit, Direction::Dropped),
            1
        );
    }

    #[test]
    fn seen_rreq_memory_holds_steady_state_size() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(9));
        // 10 distinct RREQs/s for 10 minutes with a 1 Hz sweep.
        for i in 0..6000u32 {
            let now = SimTime::from_secs(f64::from(i) * 0.1);
            h.set_now(now);
            let origin = (i % 7) as u16;
            let mut ctx = h.ctx();
            let rreq = pkt(
                AodvHeader::Rreq {
                    origin: NodeId(origin),
                    origin_seq: i,
                    dest: NodeId(8),
                    dest_seq: None,
                    id: i,
                    hops: 0,
                },
                origin,
                origin,
                8,
            );
            agent.on_packet(&mut ctx, rreq);
            drop(ctx);
            if i % 10 == 0 {
                let mut ctx = h.ctx();
                agent.on_timer(&mut ctx, TimerToken(TOKEN_SWEEP));
            }
        }
        // The dedup horizon is SEEN_TTL (60 s): at 10 RREQ/s the working
        // set holds ~600 entries, not the 6000 this run produced.
        let seen = agent.core.seen_len();
        assert!(
            seen <= 700,
            "seen_rreq failed to reach steady state: {seen} entries"
        );
    }

    #[test]
    fn intermediate_with_fresh_route_replies() {
        let mut agent = AodvAgent::new();
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        agent.table.offer(ctx.now(), NodeId(5), NodeId(4), 1, 10);
        let rreq = pkt(
            AodvHeader::Rreq {
                origin: NodeId(0),
                origin_seq: 1,
                dest: NodeId(5),
                dest_seq: Some(8),
                id: 1,
                hops: 0,
            },
            0,
            0,
            5,
        );
        agent.on_packet(&mut ctx, rreq);
        let out = ctx.staged_out();
        assert_eq!(out.len(), 1);
        match &out[0].0.header {
            AodvHeader::Rrep { dest_seq, hops, .. } => {
                assert_eq!(*dest_seq, 10);
                assert_eq!(*hops, 1);
            }
            h => panic!("expected intermediate RREP, got {h:?}"),
        }
    }
}

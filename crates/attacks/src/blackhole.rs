//! Black-hole attacks (the paper's *route logic compromise* category).
//!
//! A black hole "advertises itself as having the shortest path to all nodes
//! in the environment" and then absorbs the attracted traffic. The paper
//! implements it differently per protocol (§4.1 *Intrusion Simulation*):
//!
//! * **DSR** — the compromised host broadcasts bogus ROUTE REQUESTs whose
//!   accumulated source route claims a one-hop path from a victim source
//!   through the attacker. Every node overhearing the REQUEST reverses the
//!   recorded route and overrides its cached routes to that source with the
//!   fake one. Cycling through all sources captures all traffic.
//! * **AODV** — the attack fabricates flooding control messages carrying
//!   the *maximum allowed sequence number* and claiming the compromised
//!   host is one hop from the victim; since routes with the maximum
//!   sequence number are always considered the freshest, honest updates can
//!   never displace them (the self-healing failure discussed with Fig. 5).
//!
//! While active, both variants also discard every transit data packet.

use crate::header::AttackHeader;
use crate::schedule::Schedule;
use manet_routing::aodv::AodvAgent;
use manet_routing::dsr::DsrAgent;
use manet_sim::{Agent, AppData, Ctx, NodeId, Packet, SimTime, TimerToken, TxDest};

/// Timer token used for the periodic advertisement burst.
const ADVERT_TOKEN: TimerToken = TimerToken(TimerToken::ATTACK_BIT | 1);
/// Seconds between advertisement bursts while active.
const ADVERT_INTERVAL: f64 = 1.0;
/// Victims poisoned per burst (cycling over the whole network).
const VICTIMS_PER_BURST: u16 = 8;

/// A black hole wrapping an honest agent.
#[derive(Debug)]
pub struct Blackhole<A> {
    inner: A,
    schedule: Schedule,
    n_nodes: u16,
    next_victim: u16,
    /// Forged REQUESTs sent so far.
    forged: u32,
    absorbed: u64,
}

/// The DSR black hole.
pub type DsrBlackhole = Blackhole<DsrAgent>;
/// The AODV black hole.
pub type AodvBlackhole = Blackhole<AodvAgent>;

impl<A> Blackhole<A> {
    /// Creates the attack for a network of `n_nodes` nodes.
    pub fn new(inner: A, schedule: Schedule, n_nodes: u16) -> Blackhole<A> {
        Blackhole {
            inner,
            schedule,
            n_nodes,
            next_victim: 0,
            forged: 0,
            absorbed: 0,
        }
    }

    /// Packets absorbed so far (ground truth for experiments).
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }
}

impl<A> Blackhole<A>
where
    A: Agent,
    A::Header: AttackHeader,
{
    fn advertise(&mut self, ctx: &mut Ctx<'_, A::Header>) {
        let me = ctx.node();
        for _ in 0..VICTIMS_PER_BURST {
            let victim = NodeId(self.next_victim % self.n_nodes);
            self.next_victim = self.next_victim.wrapping_add(1);
            if victim == me {
                continue;
            }
            let (dst, size, header) = A::Header::poison_rreq(me, victim, self.forged, self.n_nodes);
            self.forged = self.forged.wrapping_add(1);
            let pkt = Packet {
                id: ctx.fresh_packet_id(),
                src: victim, // spoofed
                link_src: me,
                dst,
                ttl: Packet::<A::Header>::DEFAULT_TTL,
                size,
                header,
                app: None,
            };
            ctx.transmit(pkt, TxDest::Broadcast);
        }
    }
}

impl<A> Agent for Blackhole<A>
where
    A: Agent,
    A::Header: AttackHeader,
{
    type Header = A::Header;

    fn start(&mut self, ctx: &mut Ctx<'_, Self::Header>) {
        self.inner.start(ctx);
        ctx.schedule(SimTime::from_secs(ADVERT_INTERVAL), ADVERT_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Header>, pkt: Packet<Self::Header>) {
        if self.schedule.is_active(ctx.now())
            && A::Header::transit_data_dest(&pkt, ctx.node()).is_some()
        {
            self.absorbed += 1;
            return; // the hole swallows
        }
        self.inner.on_packet(ctx, pkt);
    }

    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_, Self::Header>, pkt: &Packet<Self::Header>) {
        self.inner.on_promiscuous(ctx, pkt);
    }

    fn on_tx_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Header>,
        pkt: Packet<Self::Header>,
        nh: NodeId,
    ) {
        self.inner.on_tx_failed(ctx, pkt, nh);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Header>, token: TimerToken) {
        if token == ADVERT_TOKEN {
            if self.schedule.is_active(ctx.now()) {
                self.advertise(ctx);
            }
            ctx.schedule(SimTime::from_secs(ADVERT_INTERVAL), ADVERT_TOKEN);
            return;
        }
        self.inner.on_timer(ctx, token);
    }

    fn send_data(
        &mut self,
        ctx: &mut Ctx<'_, Self::Header>,
        dst: NodeId,
        size: u32,
        data: AppData,
    ) {
        self.inner.send_data(ctx, dst, size, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_routing::{AodvHeader, DsrHeader};
    use manet_sim::AgentHarness;

    #[test]
    fn dsr_blackhole_broadcasts_spoofed_rreqs_when_active() {
        let mut atk = DsrBlackhole::new(DsrAgent::new(), Schedule::Always, 10);
        let mut h = AgentHarness::new(NodeId(3));
        let mut ctx = h.ctx();
        atk.on_timer(&mut ctx, ADVERT_TOKEN);
        let out = ctx.staged_out();
        assert!(
            out.len() >= VICTIMS_PER_BURST as usize - 1,
            "burst expected"
        );
        for (pkt, dest) in out {
            assert_eq!(*dest, TxDest::Broadcast);
            match &pkt.header {
                DsrHeader::Rreq { origin, route, .. } => {
                    assert_ne!(*origin, NodeId(3), "origin is spoofed");
                    assert_eq!(route.as_slice(), &[*origin, NodeId(3)]);
                }
                h => panic!("expected bogus RREQ, got {h:?}"),
            }
        }
    }

    #[test]
    fn dsr_blackhole_idle_when_schedule_inactive() {
        let sched = Schedule::sessions([(SimTime::from_secs(100.0), SimTime::from_secs(200.0))]);
        let mut atk = DsrBlackhole::new(DsrAgent::new(), sched, 10);
        let mut h = AgentHarness::new(NodeId(3));
        let mut ctx = h.ctx(); // t = 0
        atk.on_timer(&mut ctx, ADVERT_TOKEN);
        assert!(ctx.staged_out().is_empty());
        // But it re-arms its timer for later.
        assert_eq!(ctx.staged_timers().len(), 1);
    }

    #[test]
    fn aodv_blackhole_uses_maximum_sequence_number() {
        let mut atk = AodvBlackhole::new(AodvAgent::new(), Schedule::Always, 10);
        let mut h = AgentHarness::new(NodeId(3));
        let mut ctx = h.ctx();
        atk.on_timer(&mut ctx, ADVERT_TOKEN);
        let out = ctx.staged_out();
        assert!(!out.is_empty());
        for (pkt, _) in out {
            match &pkt.header {
                AodvHeader::Rreq { origin_seq, .. } => {
                    assert_eq!(*origin_seq, u32::MAX);
                }
                h => panic!("expected bogus RREQ, got {h:?}"),
            }
        }
    }

    #[test]
    fn active_blackhole_absorbs_transit_data() {
        let mut atk = AodvBlackhole::new(AodvAgent::new(), Schedule::Always, 10);
        let mut h = AgentHarness::new(NodeId(3));
        let mut ctx = h.ctx();
        let pkt = Packet {
            id: manet_sim::PacketId(1),
            src: NodeId(0),
            link_src: NodeId(0),
            dst: NodeId(7),
            ttl: 16,
            size: 512,
            header: AodvHeader::Data,
            app: None,
        };
        atk.on_packet(&mut ctx, pkt);
        assert!(ctx.staged_out().is_empty());
        drop(ctx);
        assert_eq!(atk.absorbed(), 1);
    }
}

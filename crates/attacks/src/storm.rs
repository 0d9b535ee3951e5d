//! Update-storm attacks: flood the network with meaningless route
//! discovery messages to "exhaust the network bandwidth and effectively
//! paralyze the network" (§2.3).

use crate::header::AttackHeader;
use crate::schedule::Schedule;
use manet_routing::aodv::AodvAgent;
use manet_routing::dsr::DsrAgent;
use manet_sim::{Agent, AppData, Ctx, NodeId, Packet, SimTime, TimerToken, TxDest};
use rand::Rng;

const STORM_TOKEN: TimerToken = TimerToken(TimerToken::ATTACK_BIT | 2);

/// A compromised node that floods route discoveries while active.
///
/// Each storm tick broadcasts `burst` REQUESTs for random destinations;
/// honest nodes dutifully relay the floods, multiplying the damage across
/// the network (contention loss rises, real discoveries and data suffer).
#[derive(Debug)]
pub struct UpdateStorm<A> {
    inner: A,
    schedule: Schedule,
    n_nodes: u16,
    interval: SimTime,
    burst: u32,
    next_id: u32,
    emitted: u64,
}

impl<A> UpdateStorm<A> {
    /// Wraps `inner`; while active, emits `burst` bogus floods every
    /// `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `burst` is zero.
    pub fn new(
        inner: A,
        schedule: Schedule,
        n_nodes: u16,
        interval: SimTime,
        burst: u32,
    ) -> UpdateStorm<A> {
        assert!(interval > SimTime::ZERO, "storm interval must be positive");
        assert!(burst > 0, "storm burst must be positive");
        UpdateStorm {
            inner,
            schedule,
            n_nodes,
            interval,
            burst,
            next_id: 0x4000_0000,
            emitted: 0,
        }
    }

    /// Default storm: 20 bogus floods per second.
    pub fn with_default_rate(inner: A, schedule: Schedule, n_nodes: u16) -> UpdateStorm<A> {
        UpdateStorm::new(inner, schedule, n_nodes, SimTime::from_secs(0.25), 5)
    }

    /// Bogus floods emitted so far (ground truth for experiments).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl<A> Agent for UpdateStorm<A>
where
    A: Agent,
    A::Header: AttackHeader,
{
    type Header = A::Header;

    fn start(&mut self, ctx: &mut Ctx<'_, Self::Header>) {
        self.inner.start(ctx);
        ctx.schedule(self.interval, STORM_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Header>, pkt: Packet<Self::Header>) {
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
        if token == STORM_TOKEN {
            if self.schedule.is_active(ctx.now()) {
                let me = ctx.node();
                for _ in 0..self.burst {
                    let dest = NodeId(ctx.rng().gen_range(0..self.n_nodes));
                    let id = self.next_id;
                    self.next_id = self.next_id.wrapping_add(1);
                    self.emitted += 1;
                    let pkt = Packet {
                        id: ctx.fresh_packet_id(),
                        src: me,
                        link_src: me,
                        dst: dest,
                        ttl: Packet::<Self::Header>::DEFAULT_TTL,
                        size: 48,
                        header: Self::Header::bogus_rreq(me, dest, id),
                        app: None,
                    };
                    ctx.transmit(pkt, TxDest::Broadcast);
                }
            }
            ctx.schedule(self.interval, STORM_TOKEN);
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

/// Convenience aliases for the two protocols.
pub type DsrUpdateStorm = UpdateStorm<DsrAgent>;
/// See [`DsrUpdateStorm`].
pub type AodvUpdateStorm = UpdateStorm<AodvAgent>;

#[cfg(test)]
mod tests {
    use super::*;
    use manet_routing::{AodvHeader, DsrHeader};
    use manet_sim::AgentHarness;

    #[test]
    fn storm_emits_bursts_while_active() {
        let mut atk = UpdateStorm::new(
            DsrAgent::new(),
            Schedule::Always,
            10,
            SimTime::from_secs(0.5),
            4,
        );
        let mut h = AgentHarness::new(NodeId(1));
        let mut ctx = h.ctx();
        atk.on_timer(&mut ctx, STORM_TOKEN);
        assert_eq!(ctx.staged_out().len(), 4);
        assert!(ctx
            .staged_out()
            .iter()
            .all(|(p, d)| matches!(p.header, DsrHeader::Rreq { .. }) && *d == TxDest::Broadcast));
        drop(ctx);
        assert_eq!(atk.emitted(), 4);
    }

    #[test]
    fn storm_silent_when_inactive() {
        let sched = Schedule::sessions([(SimTime::from_secs(50.0), SimTime::from_secs(60.0))]);
        let mut atk = UpdateStorm::with_default_rate(AodvAgent::new(), sched, 10);
        let mut h = AgentHarness::new(NodeId(1));
        let mut ctx = h.ctx();
        atk.on_timer(&mut ctx, STORM_TOKEN);
        assert!(ctx.staged_out().is_empty());
        assert_eq!(ctx.staged_timers().len(), 1, "timer re-armed");
    }

    #[test]
    fn aodv_storm_ids_grow_so_floods_propagate() {
        let a = AodvHeader::bogus_rreq(NodeId(1), NodeId(2), 100);
        let b = AodvHeader::bogus_rreq(NodeId(1), NodeId(2), 101);
        match (a, b) {
            (
                AodvHeader::Rreq {
                    id: ia,
                    origin_seq: sa,
                    ..
                },
                AodvHeader::Rreq {
                    id: ib,
                    origin_seq: sb,
                    ..
                },
            ) => {
                assert!(ib > ia);
                assert!(sb > sa);
            }
            _ => unreachable!(),
        }
    }
}

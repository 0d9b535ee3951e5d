//! Packet-dropping attacks (the paper's *traffic distortion* category).

use crate::header::AttackHeader;
use crate::schedule::Schedule;
use manet_sim::{Agent, AppData, Ctx, NodeId, Packet, SimTime, TimerToken};
use rand::Rng;

/// Which transit packets a [`PacketDropper`] discards while active.
///
/// These are the four variations named in §2.3 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum DropPolicy {
    /// Drop every transit data packet.
    Constant,
    /// Drop each transit data packet independently with probability `p`.
    Random {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Drop during the first `duty` fraction of every `period` seconds
    /// ("periodic dropping ... to escape from being suspected").
    Periodic {
        /// Cycle length in seconds.
        period: f64,
        /// Fraction of each cycle spent dropping, in `(0, 1]`.
        duty: f64,
    },
    /// Drop only packets addressed to specific destinations (the paper's
    /// *selective packet dropping* script; Table 6's parameters are
    /// `duration, destination`).
    Selective {
        /// Destinations whose packets are discarded.
        dests: Vec<NodeId>,
    },
}

impl DropPolicy {
    fn should_drop(&self, now: SimTime, dest: NodeId, rng: &mut impl Rng) -> bool {
        match self {
            DropPolicy::Constant => true,
            DropPolicy::Random { p } => rng.gen_bool(p.clamp(0.0, 1.0)),
            DropPolicy::Periodic { period, duty } => {
                let period = period.max(1e-6);
                let phase = now.as_secs() % period;
                phase < period * duty
            }
            DropPolicy::Selective { dests } => dests.contains(&dest),
        }
    }
}

/// A compromised forwarder that silently discards transit data.
///
/// Wraps any honest agent; while the [`Schedule`] is active, transit data
/// packets matching the [`DropPolicy`] vanish without a trace — the
/// attacker neither forwards them nor records the drop in its own audit
/// log (it is lying), and never sends ROUTE ERRORs for them, so sources
/// keep using the poisoned path.
#[derive(Debug)]
pub struct PacketDropper<A> {
    inner: A,
    policy: DropPolicy,
    schedule: Schedule,
    dropped: u64,
}

impl<A> PacketDropper<A> {
    /// Wraps `inner` with a dropping behaviour.
    pub fn new(inner: A, policy: DropPolicy, schedule: Schedule) -> PacketDropper<A> {
        PacketDropper {
            inner,
            policy,
            schedule,
            dropped: 0,
        }
    }

    /// Number of packets discarded so far (ground truth for experiments).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The wrapped honest agent.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A> Agent for PacketDropper<A>
where
    A: Agent,
    A::Header: AttackHeader,
{
    type Header = A::Header;

    fn start(&mut self, ctx: &mut Ctx<'_, Self::Header>) {
        self.inner.start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Header>, pkt: Packet<Self::Header>) {
        if self.schedule.is_active(ctx.now()) {
            if let Some(dest) = A::Header::transit_data_dest(&pkt, ctx.node()) {
                let now = ctx.now();
                if self.policy.should_drop(now, dest, ctx.rng()) {
                    self.dropped += 1;
                    return; // swallowed
                }
            }
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
        next_hop: NodeId,
    ) {
        self.inner.on_tx_failed(ctx, pkt, next_hop);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Header>, token: TimerToken) {
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
    use manet_routing::dsr::DsrAgent;
    use manet_routing::{AodvHeader, DsrHeader};
    use manet_sim::{AgentHarness, PacketId};

    fn transit_pkt() -> Packet<DsrHeader> {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            link_src: NodeId(0),
            dst: NodeId(5),
            ttl: 16,
            size: 512,
            header: DsrHeader::Data {
                route: vec![NodeId(0), NodeId(2), NodeId(5)],
                hop: 0,
                salvaged: false,
            },
            app: None,
        }
    }

    #[test]
    fn constant_dropper_swallows_transit_data() {
        let mut attacker =
            PacketDropper::new(DsrAgent::new(), DropPolicy::Constant, Schedule::Always);
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        attacker.on_packet(&mut ctx, transit_pkt());
        assert!(ctx.staged_out().is_empty(), "packet must vanish");
        drop(ctx);
        assert_eq!(attacker.dropped(), 1);
        assert!(h.trace().packet_events.is_empty(), "attacker logs nothing");
    }

    #[test]
    fn inactive_schedule_forwards_honestly() {
        let sched = Schedule::sessions([(SimTime::from_secs(100.0), SimTime::from_secs(200.0))]);
        let mut attacker = PacketDropper::new(DsrAgent::new(), DropPolicy::Constant, sched);
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx(); // t = 0, outside the session
        attacker.on_packet(&mut ctx, transit_pkt());
        assert_eq!(ctx.staged_out().len(), 1, "honest forwarding when off");
        drop(ctx);
        assert_eq!(attacker.dropped(), 0);
    }

    #[test]
    fn selective_policy_spares_other_destinations() {
        let mut attacker = PacketDropper::new(
            DsrAgent::new(),
            DropPolicy::Selective {
                dests: vec![NodeId(9)],
            },
            Schedule::Always,
        );
        let mut h = AgentHarness::new(NodeId(2));
        let mut ctx = h.ctx();
        attacker.on_packet(&mut ctx, transit_pkt()); // dst = 5, not targeted
        assert_eq!(ctx.staged_out().len(), 1);
        drop(ctx);
        assert_eq!(attacker.dropped(), 0);
    }

    #[test]
    fn data_addressed_to_attacker_is_not_transit() {
        let pkt = Packet {
            dst: NodeId(2),
            header: DsrHeader::Data {
                route: vec![NodeId(0), NodeId(2)],
                hop: 0,
                salvaged: false,
            },
            ..transit_pkt()
        };
        assert_eq!(DsrHeader::transit_data_dest(&pkt, NodeId(2)), None);
    }

    #[test]
    fn aodv_transit_detection() {
        let pkt = Packet {
            id: PacketId(1),
            src: NodeId(0),
            link_src: NodeId(0),
            dst: NodeId(5),
            ttl: 16,
            size: 512,
            header: AodvHeader::Data,
            app: None,
        };
        assert_eq!(
            AodvHeader::transit_data_dest(&pkt, NodeId(2)),
            Some(NodeId(5))
        );
        assert_eq!(AodvHeader::transit_data_dest(&pkt, NodeId(5)), None);
        let hello = Packet {
            header: AodvHeader::Hello { seq: 1 },
            ..pkt
        };
        assert_eq!(AodvHeader::transit_data_dest(&hello, NodeId(2)), None);
    }

    #[test]
    fn periodic_policy_respects_duty_cycle() {
        let policy = DropPolicy::Periodic {
            period: 10.0,
            duty: 0.5,
        };
        let mut rng = manet_sim::rng::derive_stream(0, 0);
        assert!(policy.should_drop(SimTime::from_secs(2.0), NodeId(1), &mut rng));
        assert!(!policy.should_drop(SimTime::from_secs(7.0), NodeId(1), &mut rng));
        assert!(policy.should_drop(SimTime::from_secs(12.0), NodeId(1), &mut rng));
    }
}

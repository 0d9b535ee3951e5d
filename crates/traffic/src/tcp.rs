//! A simplified TCP: cumulative ACKs, AIMD congestion control, timeout
//! retransmission and fast retransmit on triple duplicate ACKs.
//!
//! The goal is not byte-exact TCP but the *closed-loop* behaviour that
//! distinguishes the paper's TCP scenarios from UDP/CBR: the send rate
//! collapses when the network drops packets (black hole, dropping attacks)
//! and probes back up afterwards, producing the feedback-coupled traffic
//! patterns the detector's features measure.

use manet_sim::{App, AppCtx, AppData, AppKind, FlowId, NodeId, SimTime};
use std::collections::BTreeSet;

/// Retransmission-timer tag base; the low bits carry a generation counter
/// so stale timers are ignored.
const RTO_TAG_BASE: u32 = 0x100;
/// Tag for the application token-refill tick.
const PUMP_TAG: u32 = 1;

/// TCP sender endpoint.
///
/// The source offers data continuously between `start` and `stop`, subject
/// to an optional application rate limit (`app_limit_pps`) modelling an
/// application that produces data at a bounded rate; congestion control
/// still governs what actually enters the network.
#[derive(Debug)]
pub struct TcpSource {
    node: NodeId,
    dst: NodeId,
    flow: FlowId,
    segment_size: u32,
    start: SimTime,
    stop: SimTime,
    app_limit_pps: Option<f64>,

    next_seq: u32,
    high_ack: u32,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    rto: SimTime,
    rto_generation: u32,
    tokens: f64,
    last_refill: SimTime,
    retransmits: u64,
}

impl TcpSource {
    /// Hard cap on the congestion window, in segments.
    pub const MAX_CWND: f64 = 8.0;
    /// TCP acknowledgement size in bytes.
    pub const ACK_SIZE: u32 = 40;

    /// Creates a TCP sender on `node` transferring to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `stop < start` or `segment_size == 0`.
    pub fn new(
        node: NodeId,
        dst: NodeId,
        flow: FlowId,
        segment_size: u32,
        app_limit_pps: Option<f64>,
        start: SimTime,
        stop: SimTime,
    ) -> TcpSource {
        assert!(stop >= start, "stop must not precede start");
        assert!(segment_size > 0, "segment size must be positive");
        TcpSource {
            node,
            dst,
            flow,
            segment_size,
            start,
            stop,
            app_limit_pps,
            next_seq: 0,
            high_ack: 0,
            cwnd: 1.0,
            ssthresh: Self::MAX_CWND,
            dup_acks: 0,
            rto: SimTime::from_secs(3.0),
            rto_generation: 0,
            tokens: 1.0,
            last_refill: SimTime::ZERO,
            retransmits: 0,
        }
    }

    /// Current congestion window in segments (diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Total retransmissions performed (diagnostics).
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    fn refill_tokens(&mut self, now: SimTime) {
        if let Some(pps) = self.app_limit_pps {
            let dt = now.saturating_sub(self.last_refill).as_secs();
            self.tokens = (self.tokens + dt * pps).min(Self::MAX_CWND * 2.0);
        } else {
            self.tokens = f64::INFINITY;
        }
        self.last_refill = now;
    }

    fn in_flight(&self) -> u32 {
        self.next_seq.saturating_sub(self.high_ack)
    }

    fn send_segment(&mut self, ctx: &mut AppCtx<'_>, seq: u32) {
        ctx.send_data(
            self.dst,
            self.segment_size,
            AppData {
                flow: self.flow,
                seq,
                kind: AppKind::TcpData,
            },
        );
    }

    fn arm_rto(&mut self, ctx: &mut AppCtx<'_>) {
        self.rto_generation = self.rto_generation.wrapping_add(1);
        ctx.schedule_tick(self.rto, RTO_TAG_BASE + (self.rto_generation & 0xFF));
    }

    /// Sends as many new segments as the window and tokens allow.
    fn pump(&mut self, ctx: &mut AppCtx<'_>) {
        if ctx.now < self.start || ctx.now > self.stop {
            return;
        }
        self.refill_tokens(ctx.now);
        let window = self.cwnd.min(Self::MAX_CWND) as u32;
        let mut sent_any = false;
        while self.in_flight() < window.max(1) && self.tokens >= 1.0 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.tokens -= 1.0;
            self.send_segment(ctx, seq);
            sent_any = true;
        }
        if sent_any {
            self.arm_rto(ctx);
        }
    }
}

impl App for TcpSource {
    fn node(&self) -> NodeId {
        self.node
    }

    fn flow(&self) -> FlowId {
        self.flow
    }

    fn start(&mut self, ctx: &mut AppCtx<'_>) {
        self.last_refill = ctx.now;
        let delay = self.start.saturating_sub(ctx.now);
        ctx.schedule_tick(delay, PUMP_TAG);
    }

    fn on_tick(&mut self, ctx: &mut AppCtx<'_>, tag: u32) {
        if tag == PUMP_TAG {
            self.pump(ctx);
            // Keep offering application data while the transfer is open.
            if ctx.now <= self.stop {
                let interval = match self.app_limit_pps {
                    Some(pps) if pps > 0.0 => (1.0 / pps).clamp(0.05, 5.0),
                    _ => 0.2,
                };
                ctx.schedule_tick(SimTime::from_secs(interval), PUMP_TAG);
            }
            return;
        }
        if tag >= RTO_TAG_BASE {
            // Retransmission timeout: only honour the latest generation.
            if tag != RTO_TAG_BASE + (self.rto_generation & 0xFF) {
                return;
            }
            if self.in_flight() == 0 || ctx.now > self.stop {
                return;
            }
            // Multiplicative decrease and go-back-N from the lost segment.
            self.ssthresh = (self.cwnd / 2.0).max(1.0);
            self.cwnd = 1.0;
            self.dup_acks = 0;
            self.next_seq = self.high_ack + 1;
            self.retransmits += 1;
            let seq = self.high_ack;
            self.send_segment(ctx, seq);
            self.arm_rto(ctx);
        }
    }

    fn on_receive(&mut self, ctx: &mut AppCtx<'_>, data: AppData, _size: u32, _from: NodeId) {
        if data.kind != AppKind::TcpAck {
            return;
        }
        let ack = data.seq; // cumulative: next expected sequence
        if ack > self.high_ack {
            let newly = ack - self.high_ack;
            self.high_ack = ack;
            self.dup_acks = 0;
            // Slow start / congestion avoidance.
            for _ in 0..newly {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0;
                } else {
                    self.cwnd += 1.0 / self.cwnd;
                }
            }
            self.cwnd = self.cwnd.min(Self::MAX_CWND);
            self.pump(ctx);
        } else if ack == self.high_ack && self.in_flight() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit.
                self.ssthresh = (self.cwnd / 2.0).max(1.0);
                self.cwnd = self.ssthresh;
                self.retransmits += 1;
                let seq = self.high_ack;
                self.send_segment(ctx, seq);
                self.arm_rto(ctx);
            }
        }
    }
}

/// TCP receiver endpoint: acknowledges cumulatively, buffering out-of-order
/// segments.
#[derive(Debug)]
pub struct TcpSink {
    node: NodeId,
    src: NodeId,
    flow: FlowId,
    rcv_next: u32,
    out_of_order: BTreeSet<u32>,
    received: u64,
}

impl TcpSink {
    /// Creates the receiving endpoint of `flow` on `node`; ACKs are sent
    /// back to `src`.
    pub fn new(node: NodeId, src: NodeId, flow: FlowId) -> TcpSink {
        TcpSink {
            node,
            src,
            flow,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            received: 0,
        }
    }

    /// Next expected sequence number (== count of in-order segments).
    pub fn rcv_next(&self) -> u32 {
        self.rcv_next
    }

    /// Total segments received (including out-of-order and duplicates).
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl App for TcpSink {
    fn node(&self) -> NodeId {
        self.node
    }

    fn flow(&self) -> FlowId {
        self.flow
    }

    fn start(&mut self, _ctx: &mut AppCtx<'_>) {}

    fn on_tick(&mut self, _ctx: &mut AppCtx<'_>, _tag: u32) {}

    fn on_receive(&mut self, ctx: &mut AppCtx<'_>, data: AppData, _size: u32, _from: NodeId) {
        if data.kind != AppKind::TcpData {
            return;
        }
        self.received += 1;
        if data.seq == self.rcv_next {
            self.rcv_next += 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if data.seq > self.rcv_next {
            self.out_of_order.insert(data.seq);
        }
        // Every arrival triggers a cumulative ACK.
        ctx.send_data(
            self.src,
            TcpSource::ACK_SIZE,
            AppData {
                flow: self.flow,
                seq: self.rcv_next,
                kind: AppKind::TcpAck,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::agent::FloodAgent;
    use manet_sim::{SimConfig, Simulator};

    fn run_transfer(base_loss: f64, secs: f64, seed: u64) -> (u32, u64) {
        let cfg = SimConfig::builder()
            .nodes(2)
            .field(50.0, 50.0)
            .duration_secs(secs)
            .base_loss(base_loss)
            .seed(seed)
            .build();
        let mut sim = Simulator::new(cfg, |_| FloodAgent::new());
        let src = TcpSource::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            512,
            Some(2.0),
            SimTime::ZERO,
            SimTime::from_secs(secs),
        );
        let sink = TcpSink::new(NodeId(1), NodeId(0), FlowId(1));
        sim.add_app(Box::new(src));
        sim.add_app(Box::new(sink));
        sim.run();
        // Pull progress back out of the trace: count in-order data at sink.
        let recv = sim.trace(NodeId(1)).count_packets(
            manet_sim::TracePacketKind::Data,
            manet_sim::Direction::Received,
        );
        let sent = sim
            .trace(NodeId(0))
            .count_packets(manet_sim::TracePacketKind::Data, manet_sim::Direction::Sent);
        (sent as u32, recv as u64)
    }

    #[test]
    fn lossless_transfer_progresses() {
        let (sent, recv) = run_transfer(0.0, 60.0, 4);
        assert!(sent > 50, "expected steady progress, sent {sent}");
        // Sink receives data, source receives ACKs — both counted as Data.
        assert!(recv > 50, "receiver got {recv}");
    }

    #[test]
    fn loss_reduces_throughput() {
        let (clean, _) = run_transfer(0.0, 120.0, 5);
        let (lossy, _) = run_transfer(0.30, 120.0, 5);
        assert!(
            lossy < clean,
            "loss must slow TCP: lossy={lossy} clean={clean}"
        );
    }

    #[test]
    fn sink_acks_cumulatively_through_reordering() {
        let mut sink = TcpSink::new(NodeId(1), NodeId(0), FlowId(1));
        let mut rng = manet_sim::rng::derive_stream(1, 1);
        let mut ctx = AppCtx::new(SimTime::from_secs(1.0), &mut rng);
        let seg = |seq| AppData {
            flow: FlowId(1),
            seq,
            kind: AppKind::TcpData,
        };
        sink.on_receive(&mut ctx, seg(0), 512, NodeId(0));
        assert_eq!(sink.rcv_next(), 1);
        sink.on_receive(&mut ctx, seg(2), 512, NodeId(0));
        assert_eq!(sink.rcv_next(), 1, "gap at 1 holds the cumulative ACK");
        sink.on_receive(&mut ctx, seg(1), 512, NodeId(0));
        assert_eq!(
            sink.rcv_next(),
            3,
            "buffered segment drains after the gap fills"
        );
        assert_eq!(sink.received(), 3);
    }

    #[test]
    fn source_fast_retransmits_on_triple_dup_ack() {
        let mut src = TcpSource::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            512,
            None,
            SimTime::ZERO,
            SimTime::from_secs(100.0),
        );
        let mut rng = manet_sim::rng::derive_stream(1, 2);
        let mut ctx = AppCtx::new(SimTime::from_secs(1.0), &mut rng);
        src.pump(&mut ctx); // sends seq 0 (cwnd=1)
        assert_eq!(src.in_flight(), 1);
        let ack = |seq| AppData {
            flow: FlowId(1),
            seq,
            kind: AppKind::TcpAck,
        };
        src.on_receive(&mut ctx, ack(1), 40, NodeId(1)); // opens window
        let before = src.retransmits();
        for _ in 0..3 {
            src.on_receive(&mut ctx, ack(1), 40, NodeId(1));
        }
        assert_eq!(src.retransmits(), before + 1, "third dup-ack retransmits");
    }
}

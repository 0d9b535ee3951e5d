//! The simulation kernel: owns nodes, apps, radio and the event queue, and
//! drives everything chronologically.
//!
//! # Storage layout
//!
//! Per-node state is **slotted**: instead of one `Vec<NodeCell>` of fat
//! structs, each per-node component (agent, mobility, audit sink, RNG
//! stream) lives in its own id-indexed `Vec` — the same dense-slot idea as
//! [`crate::det::NodeMap`], with the node id as the slot key. Hot loops
//! touch only the slot vector they need: the transmit-time neighbor walk
//! streams through `mobility` alone instead of dragging whole agent cells
//! through cache, and mobility sampling touches `mobility` + `sinks` only.
//!
//! App endpoints are slotted the same way, and the flow→app resolution
//! that runs on every data delivery is id-keyed per node
//! (`endpoints[node]`), not a search over a global table.
//!
//! # Neighbor lookup
//!
//! Frame propagation finds receivers through a [`SpatialGrid`] keyed on
//! the radio range and refreshed at every mobility sample, so a transmit
//! costs O(local density) instead of O(n_nodes). The grid returns a
//! deterministic, id-ordered *superset* of the in-range set; the kernel
//! range-checks live positions, so traces are bit-identical to the
//! brute-force all-nodes scan. Debug builds rerun that scan at every
//! transmission as an oracle and assert that both give the same receivers.

use crate::agent::{Agent, Ctx, TimerToken};
use crate::app::{App, AppCtx, AppData, FlowId};
use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::grid::SpatialGrid;
use crate::mobility::{Point, RandomWaypoint};
use crate::packet::{NodeId, Packet, TxDest};
use crate::radio::{RadioModel, Reception};
use crate::rng::{SimRng, StreamLabel};
use crate::sink::TraceSink;
use crate::time::SimTime;
use crate::trace::NodeTrace;

/// Id-keyed slot storage for per-node state. Slot `i` across all vectors
/// belongs to `NodeId(i)`; the vectors always have identical length.
struct NodeSlots<A> {
    /// Protocol agent per node.
    agents: Vec<A>,
    /// Random-waypoint trajectory per node (the transmit hot path walks
    /// only this vector).
    mobility: Vec<RandomWaypoint>,
    /// Audit sink per node.
    sinks: Vec<Box<dyn TraceSink>>,
    /// Agent RNG stream per node.
    rngs: Vec<SimRng>,
    /// Registered app endpoints per node: `(flow, app slot)` pairs in
    /// registration order. Data delivery resolves flow→app with one
    /// indexed access plus a scan of this node's few flows.
    endpoints: Vec<Vec<(FlowId, usize)>>,
}

/// Id-keyed slot storage for application endpoints.
struct AppSlots {
    /// The endpoints themselves.
    apps: Vec<Box<dyn App>>,
    /// App RNG stream per slot.
    rngs: Vec<SimRng>,
    /// Home node per slot (cached so dispatch needs no dyn call).
    nodes: Vec<NodeId>,
}

/// Work items processed synchronously at the current instant; all callback
/// fan-out (agent → app → agent …) goes through this list to keep borrows
/// simple and ordering deterministic.
enum Pending<H> {
    AgentStart(NodeId),
    AgentPacket(NodeId, Packet<H>),
    AgentPromiscuous(NodeId, Packet<H>),
    AgentTimer(NodeId, TimerToken),
    AgentTxFailed(NodeId, Packet<H>, NodeId),
    AgentSend {
        node: NodeId,
        dst: NodeId,
        size: u32,
        data: AppData,
    },
    AppStart(usize),
    AppTick(usize, u32),
    AppReceive {
        app: usize,
        data: AppData,
        size: u32,
        from: NodeId,
    },
}

/// The discrete-event simulator, generic over the routing protocol agent.
///
/// Construct with a per-node agent factory, optionally register
/// application endpoints with [`Simulator::add_app`], then [`Simulator::run`].
/// Audit traces are available per node afterwards via [`Simulator::trace`].
pub struct Simulator<A: Agent> {
    cfg: SimConfig,
    now: SimTime,
    queue: EventQueue<A::Header>,
    nodes: NodeSlots<A>,
    apps: AppSlots,
    /// Spatial neighbor index: an id-ordered candidate superset per
    /// transmission.
    grid: SpatialGrid,
    /// Scratch: candidate receivers gathered per transmission.
    candidates_scratch: Vec<NodeId>,
    /// Scratch: exact in-range receivers per transmission, with their
    /// positions at the transmission's instant.
    in_range_scratch: Vec<(NodeId, Point)>,
    /// Recycled receiver lists for `Deliver` events (no steady-state
    /// allocation on the fan-out path).
    batch_pool: Vec<Vec<(NodeId, bool)>>,
    /// Recycled same-instant worklist for `drain` (one live callback chain
    /// at a time, so a single scratch suffices).
    worklist: Vec<Pending<A::Header>>,
    radio: RadioModel,
    packet_counter: u64,
    started: bool,
    delivered_frames: u64,
    lost_frames: u64,
    events_processed: u64,
}

impl<A: Agent> Simulator<A> {
    /// Creates a simulator with one agent per node, produced by `factory`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig, mut factory: impl FnMut(NodeId) -> A) -> Simulator<A> {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}"); // audit: allow(D006, reason = "documented panic contract: new() rejects invalid configurations at setup time")
        }
        let n = cfg.n_nodes as usize;
        let mut nodes = NodeSlots {
            agents: Vec::with_capacity(n),
            mobility: Vec::with_capacity(n),
            sinks: Vec::with_capacity(n),
            rngs: Vec::with_capacity(n),
            endpoints: (0..n).map(|_| Vec::new()).collect(),
        };
        for i in 0..cfg.n_nodes {
            nodes.agents.push(factory(NodeId(i)));
            nodes.mobility.push(RandomWaypoint::new(
                cfg.width,
                cfg.height,
                cfg.max_speed,
                SimConfig::PAUSE,
                StreamLabel::Mobility(i).stream(cfg.seed),
            ));
            nodes.sinks.push(Box::new(NodeTrace::new()));
            nodes.rngs.push(StreamLabel::Agent(i).stream(cfg.seed));
        }
        let radio = RadioModel::new(&cfg, StreamLabel::Radio.stream(cfg.seed));
        let grid = SpatialGrid::new(
            cfg.width,
            cfg.height,
            cfg.range,
            cfg.max_speed,
            SimConfig::PAUSE,
        );
        Simulator {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes,
            apps: AppSlots {
                apps: Vec::new(),
                rngs: Vec::new(),
                nodes: Vec::new(),
            },
            grid,
            candidates_scratch: Vec::new(),
            in_range_scratch: Vec::new(),
            batch_pool: Vec::new(),
            worklist: Vec::new(),
            radio,
            packet_counter: 0,
            started: false,
            delivered_frames: 0,
            lost_frames: 0,
            events_processed: 0,
        }
    }

    /// Registers an application endpoint. Data arriving at the app's node
    /// for the app's flow is delivered to it.
    ///
    /// # Panics
    ///
    /// Panics if the app's node is out of range, if an endpoint for the
    /// same `(flow, node)` pair is already registered, or if called after
    /// the simulation has started.
    pub fn add_app(&mut self, app: Box<dyn App>) {
        assert!(!self.started, "apps must be registered before run()");
        let node = app.node();
        let flow = app.flow();
        assert!(
            node.index() < self.nodes.agents.len(),
            "app node {node} out of range"
        );
        let idx = self.apps.apps.len();
        let slots = &mut self.nodes.endpoints[node.index()]; // audit: allow(D006, reason = "node was asserted in range two lines above")
        assert!(
            !slots.iter().any(|&(f, _)| f == flow),
            "duplicate app endpoint for flow {flow:?} at {node}"
        );
        slots.push((flow, idx));
        self.apps
            .rngs
            .push(StreamLabel::App(idx as u32).stream(self.cfg.seed));
        self.apps.nodes.push(node);
        self.apps.apps.push(app);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scenario configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Replaces the audit sink of one node. By default every node records
    /// into an in-memory [`NodeTrace`]; install a streaming sink (e.g. a
    /// shared `Rc<RefCell<_>>` sink or an incremental extractor) to process
    /// audit events as they occur instead, or a [`crate::sink::NullSink`] to
    /// discard them.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or if the simulation has already
    /// started (events may already have been routed to the old sink).
    pub fn set_sink(&mut self, node: NodeId, sink: Box<dyn TraceSink>) {
        assert!(!self.started, "sinks must be installed before run()");
        self.nodes.sinks[node.index()] = sink; // audit: allow(D006, reason = "documented panic contract: set_sink() panics on out-of-range nodes")
    }

    /// The audit trace of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, or if the node's sink does not
    /// retain an in-memory [`NodeTrace`] (see [`Simulator::set_sink`]).
    pub fn trace(&self, node: NodeId) -> &NodeTrace {
        self.nodes.sinks[node.index()] // audit: allow(D006, reason = "documented panic contract: trace() panics on out-of-range nodes")
            .as_node_trace()
            // audit: allow(D004, reason = "documented panic contract: trace() requires an in-memory NodeTrace sink")
            .expect("node's audit sink does not retain an in-memory NodeTrace")
    }

    /// Position of `node` at the current time.
    pub fn position(&mut self, node: NodeId) -> Point {
        let now = self.now;
        // audit: allow(D006, reason = "NodeId values are allocated by this simulator and always index the slot vectors")
        let m = &mut self.nodes.mobility[node.index()];
        m.advance_to(now);
        m.position(now)
    }

    /// Counters of frames delivered / lost at the radio (diagnostics).
    pub fn frame_stats(&self) -> (u64, u64) {
        (self.delivered_frames, self.lost_frames)
    }

    /// Number of events popped from the schedule so far (throughput
    /// diagnostics; the unit the kernel benches report as events/s).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs the simulation until the configured duration has elapsed.
    pub fn run(&mut self) {
        let end = self.cfg.duration;
        self.run_until(end);
    }

    /// Runs the simulation until virtual time `end` (inclusive of events at
    /// `end`). May be called repeatedly with increasing times.
    pub fn run_until(&mut self, end: SimTime) {
        if !self.started {
            self.started = true;
            // Initial grid build from the time-zero positions, before any
            // event can transmit.
            self.refresh_grid();
            let mut pending: Vec<Pending<A::Header>> = Vec::new();
            for i in 0..self.nodes.agents.len() {
                pending.push(Pending::AgentStart(NodeId(i as u16)));
            }
            for i in 0..self.apps.apps.len() {
                pending.push(Pending::AppStart(i));
            }
            self.worklist = self.drain(pending);
            self.queue.push(
                SimConfig::MOBILITY_SAMPLE_INTERVAL,
                EventKind::MobilitySample,
            );
        }
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let Some(ev) = self.queue.pop() else {
                break; // unreachable: a time was just peeked
            };
            self.now = ev.t;
            self.events_processed += 1;
            let first = match ev.kind {
                EventKind::Deliver { pkt, receivers } => {
                    self.deliver(pkt, receivers);
                    continue;
                }
                EventKind::TxFailed {
                    node,
                    pkt,
                    next_hop,
                } => Pending::AgentTxFailed(node, pkt, next_hop),
                EventKind::Timer { node, token } => Pending::AgentTimer(node, token),
                EventKind::AppTick { app, tag } => Pending::AppTick(app, tag),
                EventKind::MobilitySample => {
                    self.sample_mobility();
                    let next = self.now + SimConfig::MOBILITY_SAMPLE_INTERVAL;
                    if next <= self.cfg.duration {
                        self.queue.push(next, EventKind::MobilitySample);
                    }
                    continue;
                }
            };
            let mut wl = std::mem::take(&mut self.worklist);
            wl.push(first);
            self.worklist = self.drain(wl);
        }
        if self.now < end {
            self.now = end;
        }
    }

    /// Processes one transmission's receptions: each drains in list order,
    /// exactly as one event per receiver would have popped (see
    /// [`EventKind::Deliver`]). Each reception counts as one processed
    /// event; the pop of the event itself counted the first.
    fn deliver(&mut self, pkt: Packet<A::Header>, mut receivers: Vec<(NodeId, bool)>) {
        self.events_processed += (receivers.len() as u64).saturating_sub(1);
        let n = receivers.len();
        let mut frame = Some(pkt);
        for (i, &(to, promiscuous)) in receivers.iter().enumerate() {
            // The last reception takes the frame; earlier ones clone it.
            let Some(p) = (if i + 1 == n {
                frame.take()
            } else {
                frame.clone()
            }) else {
                break;
            };
            let first = if promiscuous {
                Pending::AgentPromiscuous(to, p)
            } else {
                Pending::AgentPacket(to, p)
            };
            let mut wl = std::mem::take(&mut self.worklist);
            wl.push(first);
            self.worklist = self.drain(wl);
        }
        receivers.clear();
        // audit: allow(D007, reason = "recycling pool: bounded by the peak number of in-flight transmissions")
        self.batch_pool.push(receivers);
    }

    fn sample_mobility(&mut self) {
        let now = self.now;
        for (m, sink) in self.nodes.mobility.iter_mut().zip(&mut self.nodes.sinks) {
            m.advance_to(now);
            let v = m.velocity(now);
            sink.mobility(now, v);
        }
        // Every node was just advanced to `now`: rebucket the grid while
        // the positions are exact, resetting the staleness slack.
        self.refresh_grid();
    }

    /// Rebuckets the spatial grid from the nodes' positions at `self.now`.
    /// Callers must have advanced every node's mobility to `self.now`
    /// (true at start time and after a mobility sample).
    fn refresh_grid(&mut self) {
        let now = self.now;
        self.grid
            .rebuild(now, self.nodes.mobility.iter().map(|m| m.position(now)));
    }

    /// Processes a worklist of same-instant callbacks to fixpoint and
    /// returns the (cleared) list for reuse.
    fn drain(&mut self, mut pending: Vec<Pending<A::Header>>) -> Vec<Pending<A::Header>> {
        // FIFO processing for deterministic, comprehensible ordering.
        let mut i = 0;
        while i < pending.len() {
            // audit: allow(D006, reason = "i < pending.len() is the loop guard on the line above")
            let item = std::mem::replace(&mut pending[i], Pending::AppStart(usize::MAX));
            i += 1;
            match item {
                Pending::AgentStart(node) => {
                    self.with_agent(node, &mut pending, |agent, ctx| agent.start(ctx));
                }
                Pending::AgentPacket(node, pkt) => {
                    self.with_agent(node, &mut pending, |agent, ctx| agent.on_packet(ctx, pkt));
                }
                Pending::AgentPromiscuous(node, pkt) => {
                    self.with_agent(node, &mut pending, |agent, ctx| {
                        agent.on_promiscuous(ctx, &pkt)
                    });
                }
                Pending::AgentTimer(node, token) => {
                    self.with_agent(node, &mut pending, |agent, ctx| agent.on_timer(ctx, token));
                }
                Pending::AgentTxFailed(node, pkt, nh) => {
                    self.with_agent(node, &mut pending, |agent, ctx| {
                        agent.on_tx_failed(ctx, pkt, nh)
                    });
                }
                Pending::AgentSend {
                    node,
                    dst,
                    size,
                    data,
                } => {
                    self.with_agent(node, &mut pending, |agent, ctx| {
                        agent.send_data(ctx, dst, size, data)
                    });
                }
                Pending::AppStart(idx) => {
                    if idx == usize::MAX {
                        continue; // placeholder from mem::replace
                    }
                    self.with_app(idx, &mut pending, |app, ctx| app.start(ctx));
                }
                Pending::AppTick(idx, tag) => {
                    self.with_app(idx, &mut pending, |app, ctx| app.on_tick(ctx, tag));
                }
                Pending::AppReceive {
                    app,
                    data,
                    size,
                    from,
                } => {
                    self.with_app(app, &mut pending, |a, ctx| {
                        a.on_receive(ctx, data, size, from)
                    });
                }
            }
        }
        pending.clear();
        pending
    }

    /// Runs one agent callback and applies its staged actions.
    fn with_agent(
        &mut self,
        node: NodeId,
        pending: &mut Vec<Pending<A::Header>>,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Header>),
    ) {
        let now = self.now;
        let i = node.index();
        let mut ctx = Ctx::new(
            now,
            node,
            self.nodes.sinks[i].as_mut(), // audit: allow(D006, reason = "NodeId values are allocated by this simulator and always index the slot vectors")
            &mut self.nodes.rngs[i], // audit: allow(D006, reason = "slot vectors share one length; i was bounds-checked by the sinks access above")
            &mut self.packet_counter,
        );
        // audit: allow(D006, reason = "slot vectors share one length; i was bounds-checked by the sinks access above")
        f(&mut self.nodes.agents[i], &mut ctx);
        let Ctx {
            out,
            timers,
            deliveries,
            ..
        } = ctx;
        for (fire_at, token) in timers {
            self.queue.push(fire_at, EventKind::Timer { node, token });
        }
        for (data, size, from) in deliveries {
            // Flow→app resolution is an indexed slot access plus a scan of
            // this node's own few flows — no global table probe.
            // audit: allow(D006, reason = "endpoints is a slot vector indexed by the same bounds-checked node id")
            let slots = &self.nodes.endpoints[i];
            if let Some(&(_, app)) = slots.iter().find(|&&(f, _)| f == data.flow) {
                pending.push(Pending::AppReceive {
                    app,
                    data,
                    size,
                    from,
                });
            }
        }
        // The sender's position matters only to a transmission, so its
        // trajectory rolls forward only when the callback staged a frame.
        if !out.is_empty() {
            let pos = self.position(node);
            for (pkt, dest) in out {
                self.transmit(node, pos, pkt, dest);
            }
        }
    }

    /// Runs one app callback and applies its staged actions.
    fn with_app(
        &mut self,
        idx: usize,
        pending: &mut Vec<Pending<A::Header>>,
        f: impl FnOnce(&mut dyn App, &mut AppCtx<'_>),
    ) {
        let now = self.now;
        // audit: allow(D006, reason = "app indices come from the queue which only holds registered apps")
        let node = self.apps.nodes[idx];
        // audit: allow(D006, reason = "app slot vectors share one length; idx was bounds-checked above")
        let mut ctx = AppCtx::new(now, &mut self.apps.rngs[idx]);
        // audit: allow(D006, reason = "app slot vectors share one length; idx was bounds-checked above")
        f(self.apps.apps[idx].as_mut(), &mut ctx);
        let AppCtx { sends, ticks, .. } = ctx;
        for (fire_at, tag) in ticks {
            self.queue
                .push(fire_at, EventKind::AppTick { app: idx, tag });
        }
        for (dst, size, data) in sends {
            pending.push(Pending::AgentSend {
                node,
                dst,
                size,
                data,
            });
        }
    }

    /// Propagates one frame: decides receivers and losses now, schedules
    /// deliveries after the transmit latency.
    fn transmit(
        &mut self,
        sender: NodeId,
        tx_pos: Point,
        mut pkt: Packet<A::Header>,
        dest: TxDest,
    ) {
        let now = self.now;
        pkt.link_src = sender;
        let latency = self.radio.begin_transmission(now, tx_pos, pkt.size);
        let arrive = now + latency;
        // Gather candidate receivers (reused scratch buffers, no per-frame
        // allocation in steady state). The grid yields an id-ordered
        // superset of the in-range set, so after the exact range check
        // below `in_range` — members and order — is what an all-nodes
        // scan would find.
        let mut candidates = std::mem::take(&mut self.candidates_scratch);
        let mut in_range = std::mem::take(&mut self.in_range_scratch);
        in_range.clear();
        self.grid.candidates_into(now, tx_pos, &mut candidates);
        // Exact range check at transmit-time positions, which the loss
        // rolls below reuse. Next-hop membership is resolved here, during
        // the walk, instead of re-scanning `in_range` afterwards.
        let unicast_hop = match dest {
            TxDest::Unicast(h) => Some(h),
            TxDest::Broadcast => None,
        };
        let mut hop_pos = None;
        for &nid in &candidates {
            if nid == sender {
                continue;
            }
            // audit: allow(D006, reason = "candidates only holds NodeIds bucketed from the slot vectors")
            let m = &mut self.nodes.mobility[nid.index()];
            m.advance_to(now);
            let p = m.position(now);
            if self.radio.in_range(tx_pos, p) {
                if unicast_hop == Some(nid) {
                    hop_pos = Some(p);
                }
                in_range.push((nid, p));
            }
        }
        // Debug-build oracle: the all-nodes scan must find the same
        // receivers in the same order. It advances cloned walkers, so it
        // moves no trajectory and draws from no RNG stream of the run.
        #[cfg(debug_assertions)]
        {
            let scanned: Vec<(NodeId, Point)> = (0..self.cfg.n_nodes)
                .map(NodeId)
                .zip(&self.nodes.mobility)
                .filter_map(|(nid, m)| {
                    let mut walker = m.clone();
                    walker.advance_to(now);
                    let p = walker.position(now);
                    (nid != sender && self.radio.in_range(tx_pos, p)).then_some((nid, p))
                })
                .collect();
            // audit: allow(D006, reason = "debug-build oracle: a grid that disagrees with the all-nodes scan is a kernel bug and must fail the run that hit it")
            assert_eq!(
                in_range, scanned,
                "spatial grid diverged from the all-nodes scan"
            );
        }
        // Survivors of the loss roll accumulate into one recycled receiver
        // list and go into the schedule as a single event per transmission
        // (see `EventKind::Deliver` for the ordering argument).
        let mut rx = self.batch_pool.pop().unwrap_or_default();
        rx.clear();
        match dest {
            TxDest::Broadcast => {
                for &(nid, rx_pos) in &in_range {
                    match self.radio.receive(now, rx_pos) {
                        Reception::Ok => {
                            self.delivered_frames += 1;
                            rx.push((nid, false));
                        }
                        Reception::Lost => self.lost_frames += 1,
                    }
                }
                self.push_deliveries(arrive, pkt, rx);
            }
            TxDest::Unicast(next_hop) => {
                if let Some(hop_pos) = hop_pos {
                    // Promiscuous overhears first (they don't depend on the
                    // addressed outcome).
                    for &(nid, rx_pos) in in_range.iter().filter(|&&(n, _)| n != next_hop) {
                        if self.radio.receive(now, rx_pos) == Reception::Ok {
                            rx.push((nid, true));
                        }
                    }
                    match self.radio.receive(now, hop_pos) {
                        Reception::Ok => {
                            self.delivered_frames += 1;
                            rx.push((next_hop, false));
                        }
                        Reception::Lost => self.lost_frames += 1,
                    }
                    self.push_deliveries(arrive, pkt, rx);
                } else {
                    // audit: allow(D007, reason = "recycling pool: bounded by the peak number of in-flight transmissions")
                    self.batch_pool.push(rx);
                    // Out of range: the MAC exhausts retries (~30 ms) and
                    // reports a link failure to the sender.
                    self.lost_frames += 1;
                    let report = arrive + SimTime::from_secs(0.03);
                    self.queue.push(
                        report,
                        EventKind::TxFailed {
                            node: sender,
                            pkt,
                            next_hop,
                        },
                    );
                }
            }
        }
        self.candidates_scratch = candidates;
        self.in_range_scratch = in_range;
    }

    /// Queues the surviving receptions of one transmission as one
    /// `Deliver` event; with no survivor, nothing is queued and the list
    /// goes back to the pool.
    fn push_deliveries(
        &mut self,
        arrive: SimTime,
        pkt: Packet<A::Header>,
        rx: Vec<(NodeId, bool)>,
    ) {
        if rx.is_empty() {
            // audit: allow(D007, reason = "recycling pool: bounded by the peak number of in-flight transmissions")
            self.batch_pool.push(rx);
        } else {
            self.queue
                .push(arrive, EventKind::Deliver { pkt, receivers: rx });
        }
    }
}

impl<A: Agent> std::fmt::Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.agents.len())
            .field("apps", &self.apps.apps.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::FloodAgent;
    use crate::app::AppKind;
    use crate::trace::{Direction, TracePacketKind};

    /// A one-shot CBR-ish source used to test kernel plumbing.
    struct OneShot {
        node: NodeId,
        dst: NodeId,
        flow: FlowId,
        fired: bool,
    }

    impl App for OneShot {
        fn node(&self) -> NodeId {
            self.node
        }
        fn flow(&self) -> FlowId {
            self.flow
        }
        fn start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.schedule_tick(SimTime::from_secs(1.0), 0);
        }
        fn on_tick(&mut self, ctx: &mut AppCtx<'_>, _tag: u32) {
            if !self.fired {
                self.fired = true;
                ctx.send_data(
                    self.dst,
                    256,
                    AppData {
                        flow: self.flow,
                        seq: 0,
                        kind: AppKind::Cbr,
                    },
                );
            }
        }
        fn on_receive(&mut self, _ctx: &mut AppCtx<'_>, _d: AppData, _s: u32, _f: NodeId) {}
    }

    fn dense_config() -> SimConfig {
        // Small field so every node hears every other node.
        SimConfig::builder()
            .nodes(8)
            .field(100.0, 100.0)
            .range(250.0)
            .duration_secs(20.0)
            .base_loss(0.0)
            .seed(3)
            .build()
    }

    #[test]
    fn flood_delivers_end_to_end() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        sim.add_app(Box::new(OneShot {
            node: NodeId(0),
            dst: NodeId(5),
            flow: FlowId(1),
            fired: false,
        }));
        sim.run();
        assert_eq!(
            sim.trace(NodeId(0))
                .count_packets(TracePacketKind::Data, Direction::Sent),
            1
        );
        assert_eq!(
            sim.trace(NodeId(5))
                .count_packets(TracePacketKind::Data, Direction::Received),
            1,
            "destination should have received the flooded packet"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let run = |seed: u64| {
            let cfg = SimConfig::builder()
                .nodes(8)
                .field(100.0, 100.0)
                .duration_secs(20.0)
                .seed(seed)
                .build();
            let mut sim = Simulator::new(cfg, |_| FloodAgent::new());
            sim.add_app(Box::new(OneShot {
                node: NodeId(0),
                dst: NodeId(5),
                flow: FlowId(1),
                fired: false,
            }));
            sim.run();
            sim.frame_stats()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn events_are_counted() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        sim.add_app(Box::new(OneShot {
            node: NodeId(0),
            dst: NodeId(5),
            flow: FlowId(1),
            fired: false,
        }));
        sim.run();
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn mobility_samples_every_interval() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        sim.run();
        let samples = &sim.trace(NodeId(0)).mobility;
        // 20 s / 5 s interval -> samples at 5, 10, 15, 20.
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].t.as_secs(), 5.0);
    }

    #[test]
    fn clock_reaches_duration_even_when_idle() {
        let cfg = SimConfig::builder()
            .nodes(2)
            .duration_secs(42.0)
            .seed(1)
            .build();
        let mut sim = Simulator::new(cfg, |_| FloodAgent::new());
        sim.run();
        assert_eq!(sim.now().as_secs(), 42.0);
    }

    #[test]
    fn run_until_is_incremental() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        sim.run_until(SimTime::from_secs(10.0));
        let mid = sim.trace(NodeId(0)).mobility.len();
        sim.run_until(SimTime::from_secs(20.0));
        let end = sim.trace(NodeId(0)).mobility.len();
        assert!(end > mid);
    }

    #[test]
    fn forwarding_sink_streams_the_same_events_the_trace_records() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mk = || {
            let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
            sim.add_app(Box::new(OneShot {
                node: NodeId(0),
                dst: NodeId(5),
                flow: FlowId(1),
                fired: false,
            }));
            sim
        };

        // Streamed run: node 5's events go to a sink the test shares.
        let streamed = Rc::new(RefCell::new(NodeTrace::new()));
        let mut sim = mk();
        sim.set_sink(NodeId(5), Box::new(streamed.clone()));
        sim.run();

        // Reference run: default in-memory trace.
        let mut reference = mk();
        reference.run();
        let trace = reference.trace(NodeId(5));

        let streamed = streamed.borrow();
        assert!(!streamed.packet_events.is_empty());
        assert_eq!(streamed.packet_events, trace.packet_events);
        assert_eq!(streamed.route_events, trace.route_events);
        assert_eq!(streamed.mobility, trace.mobility);
    }

    #[test]
    #[should_panic(expected = "does not retain an in-memory NodeTrace")]
    fn trace_panics_when_sink_discards() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        sim.set_sink(NodeId(0), Box::new(crate::sink::NullSink));
        sim.run();
        let _ = sim.trace(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "sinks must be installed before run()")]
    fn sinks_cannot_change_mid_run() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        sim.run_until(SimTime::from_secs(1.0));
        sim.set_sink(NodeId(0), Box::new(crate::sink::NullSink));
    }

    #[test]
    #[should_panic(expected = "duplicate app endpoint")]
    fn duplicate_endpoints_rejected() {
        let mut sim = Simulator::new(dense_config(), |_| FloodAgent::new());
        let mk = || {
            Box::new(OneShot {
                node: NodeId(0),
                dst: NodeId(5),
                flow: FlowId(1),
                fired: false,
            })
        };
        sim.add_app(mk());
        sim.add_app(mk());
    }
}

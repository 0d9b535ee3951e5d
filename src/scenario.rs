//! Scenario construction: from a declarative description to a simulated,
//! labelled feature table.
//!
//! Defaults reproduce §4.1 of the paper: 1000 m × 1000 m random waypoint
//! (pause 10 s, max speed 20 m/s), up to 100 connections at rate 0.25,
//! 10 000 s runs with snapshots every 5 s, and intrusions inserted on an
//! on–off schedule starting at 2500 s / 5000 s.

use manet_attacks::{AttackHeader, Blackhole, DropPolicy, PacketDropper, Schedule, UpdateStorm};
use manet_features::{FeatureExtractor, FeatureMatrix};
use manet_routing::{aodv::AodvAgent, dsr::DsrAgent, AodvHeader, DsrHeader};
use manet_sim::{Agent, NodeId, SimConfig, SimTime, Simulator};
use manet_traffic::ConnectionPattern;

/// Routing protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Dynamic Source Routing.
    Dsr,
    /// Ad hoc On-demand Distance Vector.
    Aodv,
}

impl Protocol {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Dsr => "DSR",
            Protocol::Aodv => "AODV",
        }
    }
}

/// Transport protocol of the traffic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// UDP constant bit rate.
    Cbr,
    /// Simplified TCP.
    Tcp,
}

impl Transport {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Cbr => "UDP",
            Transport::Tcp => "TCP",
        }
    }

    fn to_traffic(self) -> manet_traffic::Transport {
        match self {
            Transport::Cbr => manet_traffic::Transport::Cbr,
            Transport::Tcp => manet_traffic::Transport::Tcp,
        }
    }
}

/// What a compromised node does.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackKind {
    /// Bogus shortest-route advertisements + traffic absorption.
    Blackhole,
    /// Transit-data dropping with the given policy.
    Dropping(DropPolicy),
    /// Meaningless route-discovery flooding.
    UpdateStorm,
}

/// One attack instance: what, when, and which node is compromised.
#[derive(Debug, Clone, PartialEq)]
pub struct Attack {
    /// Behaviour of the compromised node.
    pub kind: AttackKind,
    /// When the behaviour is active.
    pub schedule: Schedule,
    /// The compromised node.
    pub attacker: NodeId,
}

impl Attack {
    /// Default compromised node used by the helper constructors.
    pub const DEFAULT_ATTACKER: NodeId = NodeId(7);
    /// Default intrusion-session length, as in the Figure 5 scenarios.
    pub const SESSION_SECS: f64 = 100.0;

    /// A black hole active in 100 s sessions beginning at each of `starts`.
    pub fn blackhole_at(starts: &[f64]) -> Attack {
        Attack {
            kind: AttackKind::Blackhole,
            schedule: sessions_of(starts, Self::SESSION_SECS),
            attacker: Self::DEFAULT_ATTACKER,
        }
    }

    /// Selective dropping of `dest`'s packets in 100 s sessions at `starts`
    /// (Table 6: parameters are duration and destination).
    pub fn dropping_at(starts: &[f64], dest: NodeId) -> Attack {
        Attack {
            kind: AttackKind::Dropping(DropPolicy::Selective { dests: vec![dest] }),
            schedule: sessions_of(starts, Self::SESSION_SECS),
            attacker: Self::DEFAULT_ATTACKER,
        }
    }

    /// An update storm in 100 s sessions at `starts`.
    pub fn storm_at(starts: &[f64]) -> Attack {
        Attack {
            kind: AttackKind::UpdateStorm,
            schedule: sessions_of(starts, Self::SESSION_SECS),
            attacker: Self::DEFAULT_ATTACKER,
        }
    }

    /// Runs this attack from a different compromised node.
    pub fn from_node(mut self, attacker: NodeId) -> Attack {
        self.attacker = attacker;
        self
    }

    /// Runs this attack on a custom schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Attack {
        self.schedule = schedule;
        self
    }
}

/// Builds an explicit-session schedule of `len`-second sessions.
fn sessions_of(starts: &[f64], len: f64) -> Schedule {
    Schedule::sessions(
        starts
            .iter()
            .map(|&s| (SimTime::from_secs(s), SimTime::from_secs(s + len))),
    )
}

/// A full scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Routing protocol.
    pub protocol: Protocol,
    /// Transport workload.
    pub transport: Transport,
    /// Number of nodes.
    pub n_nodes: u16,
    /// Field width in metres (the paper uses 1000).
    pub width: f64,
    /// Field height in metres (the paper uses 1000).
    pub height: f64,
    /// Maximum number of connections (the paper uses 100).
    pub max_connections: usize,
    /// Run length in seconds (the paper uses 10 000).
    pub duration_secs: f64,
    /// Master seed for mobility, radio and protocol randomness; every
    /// derived stream is deterministic in it.
    pub seed: u64,
    /// Seed for the random connection pattern. Kept *separate* from
    /// `seed` so that traces with different mobility share the same
    /// traffic workload, as the paper's fixed connection files do.
    pub traffic_seed: u64,
    /// The node whose audit trace is analysed (the paper collects results
    /// "on one node only").
    pub monitored: NodeId,
    /// Attacks present in the trace (empty = normal trace).
    pub attacks: Vec<Attack>,
}

/// The output of running a scenario: features + ground truth for the
/// monitored node.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Continuous 140-feature matrix, one row per 5 s snapshot.
    pub matrix: FeatureMatrix,
    /// Ground truth per row: does the snapshot come after the first
    /// attack session's start?
    pub labels: Vec<bool>,
    /// The scenario that produced this bundle, monitored at its vantage.
    pub scenario: Scenario,
}

impl Scenario {
    /// The paper's experimental setup (§4.1) for a protocol/transport
    /// pair, with no attacks.
    pub fn paper_default(protocol: Protocol, transport: Transport) -> Scenario {
        Scenario {
            protocol,
            transport,
            n_nodes: 50,
            width: 1000.0,
            height: 1000.0,
            max_connections: 100,
            duration_secs: 10_000.0,
            seed: 1,
            traffic_seed: 0x7AFF,
            monitored: NodeId(0),
            attacks: Vec::new(),
        }
    }

    /// Replaces the mobility/protocol seed (traffic pattern unchanged).
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Replaces the traffic-pattern seed.
    pub fn with_traffic_seed(mut self, seed: u64) -> Scenario {
        self.traffic_seed = seed;
        self
    }

    /// Replaces the run duration (seconds).
    pub fn with_duration(mut self, secs: f64) -> Scenario {
        self.duration_secs = secs;
        self
    }

    /// Replaces the node count.
    pub fn with_nodes(mut self, n: u16) -> Scenario {
        self.n_nodes = n;
        self
    }

    /// Replaces the field dimensions (metres).
    pub fn with_world(mut self, width: f64, height: f64) -> Scenario {
        self.width = width;
        self.height = height;
        self
    }

    /// Scales the scenario to `n` nodes at the paper's node density: the
    /// paper places 50 nodes on 1000×1000 m — 20 000 m² per node — so the
    /// field grows to a square of `sqrt(n · 20 000)` metres on a side, and
    /// the connection cap scales at the paper's 2-connections-per-node
    /// ratio. This is the scale axis of the 100/500/1000-node worlds.
    pub fn with_scale(mut self, n: u16) -> Scenario {
        let side = (f64::from(n) * 20_000.0).sqrt();
        self.n_nodes = n;
        self.width = side;
        self.height = side;
        self.max_connections = 2 * usize::from(n);
        self
    }

    /// Replaces the connection cap.
    pub fn with_connections(mut self, n: usize) -> Scenario {
        self.max_connections = n;
        self
    }

    /// Adds one attack.
    pub fn with_attack(mut self, attack: Attack) -> Scenario {
        self.attacks.push(attack);
        self
    }

    /// Replaces the monitored node.
    pub fn with_monitored(mut self, node: NodeId) -> Scenario {
        self.monitored = node;
        self
    }

    /// Earliest instant any attack can be active, if attacks exist.
    pub fn first_attack_start(&self) -> Option<f64> {
        self.attacks
            .iter()
            .filter_map(|a| match &a.schedule {
                Schedule::Always => Some(0.0),
                Schedule::OnOff { start, .. } => Some(start.as_secs()),
                Schedule::Sessions(v) => v.iter().map(|(b, _)| b.as_secs()).min_by(f64::total_cmp),
            })
            .min_by(f64::total_cmp)
    }

    /// Whether the scenario contains any attack.
    pub fn is_attacked(&self) -> bool {
        !self.attacks.is_empty()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig::builder()
            .nodes(self.n_nodes)
            .field(self.width, self.height)
            .duration_secs(self.duration_secs)
            .seed(self.seed)
            .build()
    }

    fn attack_for(&self, node: NodeId) -> Option<&Attack> {
        self.attacks.iter().find(|a| a.attacker == node)
    }

    /// Runs the simulation and extracts the monitored node's labelled
    /// feature matrix.
    ///
    /// # Panics
    ///
    /// Panics if the monitored node is an attacker (a subverted node's own
    /// audit log is meaningless), if two attacks share an attacker, or if
    /// scenario parameters are invalid.
    pub fn run(&self) -> TraceBundle {
        let monitored = self.monitored;
        self.run_nodes(&[monitored]).pop().expect("one bundle") // audit: allow(D006, reason = "run_nodes returns exactly one bundle per requested node")
    }

    /// Runs the simulation once and extracts labelled feature matrices for
    /// several vantage nodes. One node's 10 000 s trace covers only the
    /// roles that node happened to play; training on several honest nodes
    /// of the same run covers the full variety of normal behaviour.
    ///
    /// # Panics
    ///
    /// As [`Scenario::run`], for any of the requested nodes.
    pub fn run_nodes(&self, nodes: &[NodeId]) -> Vec<TraceBundle> {
        self.validate_vantages(nodes);
        match self.protocol {
            Protocol::Dsr => self.run_lean(self.build_dsr(), nodes),
            Protocol::Aodv => self.run_lean(self.build_aodv(), nodes),
        }
    }

    /// Runs a built simulator retaining audit traces only at the vantage
    /// nodes — every other node gets a [`manet_sim::NullSink`]. At 1000
    /// nodes, keeping one in-memory `NodeTrace` per node is the memory
    /// bottleneck, and only the vantage traces are ever read.
    fn run_lean<A: Agent>(&self, mut sim: Simulator<A>, nodes: &[NodeId]) -> Vec<TraceBundle> {
        for i in 0..self.n_nodes {
            let id = NodeId(i);
            if !nodes.contains(&id) {
                sim.set_sink(id, Box::new(manet_sim::NullSink));
            }
        }
        sim.run();
        let extractor = FeatureExtractor::new();
        nodes
            .iter()
            .map(|&node| {
                self.bundle_for(
                    node,
                    extractor.extract(sim.trace(node), SimTime::from_secs(self.duration_secs)),
                )
            })
            .collect()
    }

    /// Labels one vantage node's feature matrix into a [`TraceBundle`].
    /// Every snapshot after the first attack session starts is anomalous:
    /// the paper observes that the network "may not recover from the
    /// implemented intrusions very well" and that there is "no way to
    /// figure out exactly when the intrusion actions have ended and the
    /// observed anomalies are just the lasting damages", so post-attack
    /// windows are labelled as the damage they carry.
    fn bundle_for(&self, node: NodeId, matrix: FeatureMatrix) -> TraceBundle {
        let first_start = self.first_attack_start();
        let labels = matrix
            .times
            .iter()
            .map(|&t| first_start.is_some_and(|start| t > start))
            .collect();
        TraceBundle {
            matrix,
            labels,
            scenario: self.clone().with_monitored(node),
        }
    }

    /// Checks per-vantage-node preconditions shared by the batch and
    /// streaming paths.
    pub(crate) fn validate_vantages(&self, nodes: &[NodeId]) {
        assert!(!nodes.is_empty(), "need at least one vantage node");
        for &n in nodes {
            assert!(
                self.attack_for(n).is_none(),
                "cannot monitor a compromised node"
            );
            assert!(
                n.index() < self.n_nodes as usize,
                "vantage node out of range"
            );
        }
        self.validate_attackers();
    }

    fn validate_attackers(&self) {
        let mut attackers: Vec<NodeId> = self.attacks.iter().map(|a| a.attacker).collect();
        attackers.sort();
        let before = attackers.len();
        attackers.dedup();
        assert_eq!(before, attackers.len(), "one attack per compromised node");
    }

    /// Builds the configured DSR simulator — agents, attacks, and traffic
    /// installed but not yet run. Streaming callers install audit sinks
    /// (e.g. via [`cfa_core::OnlineMonitor`]) before driving it.
    ///
    /// # Panics
    ///
    /// Panics if scenario parameters are invalid, or if called for a
    /// scenario whose `protocol` is not [`Protocol::Dsr`].
    pub fn build_dsr(&self) -> Simulator<Box<dyn Agent<Header = DsrHeader>>> {
        assert_eq!(self.protocol, Protocol::Dsr, "scenario is not DSR");
        self.build(DsrAgent::new)
    }

    /// Builds the configured AODV simulator — the [`Scenario::build_dsr`]
    /// counterpart for [`Protocol::Aodv`] scenarios.
    ///
    /// # Panics
    ///
    /// Panics if scenario parameters are invalid, or if called for a
    /// scenario whose `protocol` is not [`Protocol::Aodv`].
    pub fn build_aodv(&self) -> Simulator<Box<dyn Agent<Header = AodvHeader>>> {
        assert_eq!(self.protocol, Protocol::Aodv, "scenario is not AODV");
        self.build(AodvAgent::new)
    }

    /// Builds the simulator with `honest()` on every node, wrapped in its
    /// attack on each compromised node.
    fn build<A>(&self, honest: fn() -> A) -> Simulator<Box<dyn Agent<Header = A::Header>>>
    where
        A: Agent + 'static,
        A::Header: AttackHeader,
    {
        let n = self.n_nodes;
        let mut sim = Simulator::new(
            self.sim_config(),
            |id| -> Box<dyn Agent<Header = A::Header>> {
                let Some(a) = self.attack_for(id) else {
                    return Box::new(honest());
                };
                let schedule = a.schedule.clone();
                match &a.kind {
                    AttackKind::Blackhole => Box::new(Blackhole::new(honest(), schedule, n)),
                    AttackKind::Dropping(policy) => {
                        Box::new(PacketDropper::new(honest(), policy.clone(), schedule))
                    }
                    AttackKind::UpdateStorm => {
                        Box::new(UpdateStorm::with_default_rate(honest(), schedule, n))
                    }
                }
            },
        );
        self.install_traffic(&mut sim);
        sim
    }

    fn install_traffic<A: Agent>(&self, sim: &mut Simulator<A>) {
        let pattern = ConnectionPattern::random(
            self.n_nodes,
            self.max_connections,
            self.transport.to_traffic(),
            SimTime::from_secs(self.duration_secs),
            self.traffic_seed,
        );
        pattern.install(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(protocol: Protocol) -> Scenario {
        Scenario::paper_default(protocol, Transport::Cbr)
            .with_nodes(20)
            .with_connections(10)
            .with_duration(150.0)
            .with_seed(5)
    }

    #[test]
    fn normal_trace_has_no_positive_labels() {
        let b = tiny(Protocol::Aodv).run();
        assert_eq!(b.matrix.n_rows(), 30);
        assert!(b.labels.iter().all(|&l| !l));
        assert_eq!(b.matrix.n_cols(), 140);
    }

    #[test]
    fn attack_windows_are_labelled() {
        let b = tiny(Protocol::Aodv)
            .with_attack(Attack::blackhole_at(&[50.0]))
            .run();
        // Sessions cover [50, 150): snapshots 55..150 are anomalous.
        let positive: Vec<f64> = b
            .matrix
            .times
            .iter()
            .zip(&b.labels)
            .filter(|&(_, &l)| l)
            .map(|(&t, _)| t)
            .collect();
        assert!(!positive.is_empty());
        assert!(positive.iter().all(|&t| t >= 55.0 - 1e-9));
        assert!(b.labels.iter().take(9).all(|&l| !l), "pre-attack is normal");
    }

    #[test]
    fn dsr_scenarios_run_too() {
        let b = tiny(Protocol::Dsr).run();
        assert_eq!(b.matrix.n_rows(), 30);
    }

    #[test]
    fn identical_seeds_give_identical_bundles() {
        let a = tiny(Protocol::Aodv).run();
        let b = tiny(Protocol::Aodv).run();
        assert_eq!(a.matrix.rows, b.matrix.rows);
    }

    #[test]
    fn scale_axis_preserves_paper_density() {
        let s = Scenario::paper_default(Protocol::Aodv, Transport::Cbr).with_scale(1000);
        assert_eq!(s.n_nodes, 1000);
        assert_eq!(s.max_connections, 2000);
        // 20 000 m² per node, square field.
        let area_per_node = s.width * s.height / 1000.0;
        assert!((area_per_node - 20_000.0).abs() < 1e-6);
        assert_eq!(s.width, s.height);
        // The paper's own setup is a fixpoint of the density rule.
        let paper = Scenario::paper_default(Protocol::Aodv, Transport::Cbr).with_scale(50);
        assert!((paper.width - 1000.0).abs() < 1e-6);
        assert_eq!(paper.max_connections, 100);
    }

    #[test]
    #[should_panic(expected = "cannot monitor a compromised node")]
    fn monitored_attacker_rejected() {
        let _ = tiny(Protocol::Aodv)
            .with_attack(Attack::blackhole_at(&[50.0]).from_node(NodeId(0)))
            .run();
    }

    #[test]
    #[should_panic(expected = "one attack per compromised node")]
    fn duplicate_attackers_rejected() {
        let _ = tiny(Protocol::Aodv)
            .with_attack(Attack::blackhole_at(&[50.0]))
            .with_attack(Attack::storm_at(&[80.0]))
            .run();
    }
}

//! Scenario construction and recording shared by the workloads.
//!
//! Every scenario is the paper's §4.1 setup (50 nodes on 1000 × 1000 m,
//! 100 CBR connections) run for [`DURATION_SECS`]; the workload seed picks
//! each scenario's mobility and traffic seeds through [`derive`].

use crate::trace::Tracer;
use manet_cfa::features::{FeatureExtractor, FeatureMatrix};
use manet_cfa::pipeline::Pipeline;
use manet_cfa::scenario::{Attack, Protocol, Scenario, TraceBundle, Transport};
use manet_cfa::sim::{Agent, NodeId, NullSink, SimTime, Simulator};

/// Simulated seconds of every scenario.
pub const DURATION_SECS: f64 = 1000.0;

/// The attacked scenarios' compromised nodes: a black hole and a
/// selective dropper of [`DROPPED_DEST`]'s traffic.
pub const BLACKHOLE_AT: NodeId = NodeId(7);
/// See [`BLACKHOLE_AT`].
pub const DROPPER_AT: NodeId = NodeId(11);
/// The destination whose traffic the dropper discards.
pub const DROPPED_DEST: NodeId = NodeId(3);
/// Black-hole session starts, seconds: three 100 s sessions after the
/// first quarter of the run.
pub const BLACKHOLE_STARTS: [f64; 3] = [250.0, 450.0, 650.0];
/// Dropping session starts, seconds, interleaved with the black hole's.
pub const DROPPING_STARTS: [f64; 3] = [350.0, 550.0, 750.0];

/// SplitMix64: a seed for stream `tag` of workload seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// A normal scenario of `protocol` whose seeds come from stream `tag`.
pub fn normal(protocol: Protocol, seed: u64, tag: u64) -> Scenario {
    Scenario::paper_default(protocol, Transport::Cbr)
        .with_duration(DURATION_SECS)
        .with_seed(derive(seed, tag))
        .with_traffic_seed(derive(seed, tag ^ 0xFFFF))
}

/// The attacked AODV scenario of stream `tag`: the black hole and the
/// selective dropper, each in three 100 s sessions.
pub fn attacked(seed: u64, tag: u64) -> Scenario {
    normal(Protocol::Aodv, seed, tag)
        .with_attack(Attack::blackhole_at(&BLACKHOLE_STARTS).from_node(BLACKHOLE_AT))
        .with_attack(Attack::dropping_at(&DROPPING_STARTS, DROPPED_DEST).from_node(DROPPER_AT))
}

/// Exact work counts of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounts {
    /// Events the simulator processed.
    pub events: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames lost.
    pub lost: u64,
}

/// Runs `scenario` recording audit traces at `nodes` only and extracts
/// each vantage's feature matrix, timing `sim.run` and each
/// `features.extract` under `req`.
pub fn record(
    scenario: &Scenario,
    nodes: &[NodeId],
    tracer: &mut Tracer,
    req: u64,
) -> (Vec<FeatureMatrix>, SimCounts) {
    match scenario.protocol {
        Protocol::Dsr => record_with(scenario.build_dsr(), scenario, nodes, tracer, req),
        Protocol::Aodv => record_with(scenario.build_aodv(), scenario, nodes, tracer, req),
    }
}

fn record_with<A: Agent>(
    mut sim: Simulator<A>,
    scenario: &Scenario,
    nodes: &[NodeId],
    tracer: &mut Tracer,
    req: u64,
) -> (Vec<FeatureMatrix>, SimCounts) {
    for i in 0..scenario.n_nodes {
        if !nodes.contains(&NodeId(i)) {
            sim.set_sink(NodeId(i), Box::new(NullSink));
        }
    }
    let span = tracer.enter("sim.run", req);
    sim.run();
    tracer.exit(span);
    let (delivered, lost) = sim.frame_stats();
    let counts = SimCounts {
        events: sim.events_processed(),
        delivered,
        lost,
    };
    let extractor = FeatureExtractor::new();
    let end = SimTime::from_secs(scenario.duration_secs);
    let matrices = nodes
        .iter()
        .map(|&node| {
            let span = tracer.enter("features.extract", req);
            let m = extractor.extract(sim.trace(node), end);
            tracer.exit(span);
            m
        })
        .collect();
    (matrices, counts)
}

/// Records a normal `scenario` at the `Pipeline::default_train_nodes`
/// vantages and labels each vantage's matrix as a normal training bundle.
pub fn training_bundles(
    scenario: &Scenario,
    tracer: &mut Tracer,
    req: u64,
) -> (Vec<TraceBundle>, SimCounts) {
    let nodes = Pipeline::default_train_nodes(scenario.n_nodes);
    let (matrices, counts) = record(scenario, &nodes, tracer, req);
    let bundles = nodes
        .iter()
        .zip(matrices)
        .map(|(&node, matrix)| TraceBundle {
            labels: vec![false; matrix.n_rows()],
            matrix,
            scenario: scenario.clone().with_monitored(node),
        })
        .collect();
    (bundles, counts)
}

/// `seed`-driven Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = derive(state, i as u64);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat_by_seed() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let p = permutation(400, 9);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..400).collect::<Vec<_>>());
        assert_eq!(p, permutation(400, 9));
        assert_ne!(p, permutation(400, 10));
    }
}

//! Shared experiment machinery: one [`ScenarioSet`] per
//! (protocol, transport) combination, with cached simulations.

use crate::cache::cached_runs;
use manet_cfa::pipeline::{Outcome, Pipeline};
use manet_cfa::scenario::{Attack, Protocol, Scenario, TraceBundle, Transport};
use manet_cfa::sim::NodeId;

/// Time-bucket width used for the paper-style time-series figures.
pub const FIG_BUCKET_SECS: f64 = 100.0;

/// The standard trace complement for one (protocol, transport)
/// combination: training traces, normal test traces and the
/// mixed-intrusion trace of §4.1.
#[derive(Debug)]
pub struct ScenarioSet {
    /// Routing protocol of this set.
    pub protocol: Protocol,
    /// Transport of this set.
    pub transport: Transport,
    /// Training bundles (multiple normal runs × vantage nodes).
    pub train: Vec<TraceBundle>,
    /// Normal test traces (unseen seeds).
    pub normal_tests: Vec<TraceBundle>,
    /// The mixed black-hole + dropping trace.
    pub mixed_attack: TraceBundle,
}

impl ScenarioSet {
    /// Builds (or loads from cache) the full set for a combination, in
    /// one [`cached_runs`] call.
    ///
    /// Training uses seeds 1–3 (6 vantage nodes each); normal tests use
    /// seeds 4–5; the attack trace uses seed 6.
    pub fn build(protocol: Protocol, transport: Transport) -> ScenarioSet {
        let base = crate::base_scenario(protocol, transport);
        let tests = [
            base.clone().with_seed(4),
            base.clone().with_seed(5),
            crate::mixed_attack_scenario(protocol, transport, 6),
        ];
        let mut runs = training_runs(protocol, transport);
        runs.extend(tests.map(|s| (s, vec![base.monitored])));
        let mut train: Vec<TraceBundle> = cached_runs(&runs).into_iter().flatten().collect();
        let mixed_attack = train.pop().expect("the mixed-attack bundle");
        let normal_tests = train.split_off(train.len() - 2);
        ScenarioSet {
            protocol,
            transport,
            train,
            normal_tests,
            mixed_attack,
        }
    }

    /// Scenario label used in output, e.g. `AODV/UDP`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.protocol.name(), self.transport.name())
    }

    /// All test bundles: normal tests plus the mixed attack trace.
    pub fn test_bundles(&self) -> Vec<TraceBundle> {
        let mut v = self.normal_tests.clone();
        v.push(self.mixed_attack.clone());
        v
    }

    /// Runs a pipeline over this set's standard train/test split.
    pub fn evaluate(&self, pipeline: &Pipeline) -> Outcome {
        pipeline.evaluate(&self.train, &self.test_bundles())
    }

    /// Runs a pipeline against specific attack bundles (for the Figure 5/6
    /// per-intrusion-type experiments).
    pub fn evaluate_against(&self, pipeline: &Pipeline, attacks: &[TraceBundle]) -> Outcome {
        let mut tests = self.normal_tests.clone();
        tests.extend(attacks.iter().cloned());
        pipeline.evaluate(&self.train, &tests)
    }
}

/// Builds (or loads from cache) the training bundles alone — seeds 1–3,
/// 6 vantage nodes each. Streaming experiments train on these batch
/// bundles and then score their test scenarios live, so no test-side
/// `NodeTrace` is ever materialised.
pub fn training_set(protocol: Protocol, transport: Transport) -> Vec<TraceBundle> {
    cached_runs(&training_runs(protocol, transport))
        .into_iter()
        .flatten()
        .collect()
}

/// The training runs: seeds 1–3, each seen from the 6 default vantages.
fn training_runs(protocol: Protocol, transport: Transport) -> Vec<(Scenario, Vec<NodeId>)> {
    let base = crate::base_scenario(protocol, transport);
    let nodes = Pipeline::default_train_nodes(50);
    (1..=3u64)
        .map(|seed| (base.clone().with_seed(seed), nodes.clone()))
        .collect()
}

/// Builds the black-hole-only trace used by Figures 5(a)/6 (three 100 s
/// sessions at 2500/5000/7500 s, AODV/UDP in the paper).
pub fn blackhole_only_scenario(protocol: Protocol, transport: Transport, seed: u64) -> Scenario {
    crate::base_scenario(protocol, transport)
        .with_seed(seed)
        .with_attack(Attack::blackhole_at(&crate::fig5_session_starts()))
}

/// Builds the dropping-only trace used by Figures 5(b)/6.
pub fn dropping_only_scenario(protocol: Protocol, transport: Transport, seed: u64) -> Scenario {
    crate::base_scenario(protocol, transport)
        .with_seed(seed)
        .with_attack(Attack::dropping_at(
            &crate::fig5_session_starts(),
            NodeId(3),
        ))
}

/// Pretty-prints a recall–precision curve summary line.
pub fn summarize_outcome(label: &str, outcome: &Outcome) -> String {
    let best = outcome
        .optimal
        .map(|p| format!("({:.2}, {:.2})", p.recall, p.precision))
        .unwrap_or_else(|| "(n/a)".into());
    format!(
        "{label:28} AUC {:+.3}  optimal (recall, precision) {best}  threshold {:.3}",
        outcome.auc, outcome.threshold
    )
}

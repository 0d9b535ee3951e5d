//! Integration: simulator → features → discretizer → detector, across
//! crate boundaries.

use manet_cfa::core::{AnomalyDetector, ScoreMethod};
use manet_cfa::features::{EqualFrequencyDiscretizer, FeatureExtractor, N_FEATURES};
use manet_cfa::ml::{naive_bayes::NaiveBayes, AnyLearner};
use manet_cfa::routing::aodv::AodvAgent;
use manet_cfa::sim::{NodeId, SimConfig, SimTime, Simulator};
use manet_cfa::traffic::{ConnectionPattern, Transport};

#[test]
fn full_chain_produces_a_working_detector() {
    let cfg = SimConfig::builder()
        .nodes(20)
        .duration_secs(300.0)
        .seed(77)
        .build();
    let mut sim = Simulator::new(cfg, |_| AodvAgent::new());
    ConnectionPattern::random(20, 10, Transport::Cbr, SimTime::from_secs(300.0), 77)
        .install(&mut sim);
    sim.run();

    let matrix = FeatureExtractor::new().extract(sim.trace(NodeId(0)), SimTime::from_secs(300.0));
    assert_eq!(matrix.n_cols(), N_FEATURES);
    assert_eq!(matrix.n_rows(), 60);

    let disc = EqualFrequencyDiscretizer::fit(&matrix, 5, None, 1);
    let table = disc.transform(&matrix).expect("consistent schema");
    let detector = AnomalyDetector::fit(
        &AnyLearner::Bayes(NaiveBayes::default()),
        &table,
        ScoreMethod::AvgProbability,
        0.05,
    );
    // On its own training data, the false-alarm budget must hold.
    let alarms = table
        .to_rows()
        .iter()
        .filter(|r| detector.classify(r) == manet_cfa::core::Verdict::Anomaly)
        .count();
    assert!(
        alarms as f64 <= 0.05 * table.n_rows() as f64 + 1.0,
        "{alarms} alarms exceed the 5% budget on training data"
    );
}

#[test]
fn feature_count_is_the_papers_140() {
    assert_eq!(N_FEATURES, 140);
    assert_eq!(manet_cfa::features::N_TRAFFIC_FEATURES, 132);
    let spec = manet_cfa::features::FeatureSpec::new();
    assert_eq!(spec.len(), 140);
}

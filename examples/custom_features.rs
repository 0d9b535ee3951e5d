//! Use the feature-extraction and cross-feature machinery directly on a
//! hand-built audit trace — how you would plug the detector into your own
//! data source instead of the bundled simulator.
//!
//! Run with `cargo run --example custom_features`.

use manet_cfa::core::{AnomalyDetector, ScoreMethod, Verdict};
use manet_cfa::features::{EqualFrequencyDiscretizer, FeatureExtractor};
use manet_cfa::ml::{naive_bayes::NaiveBayes, AnyLearner};
use manet_cfa::sim::trace::NodeTrace;
use manet_cfa::sim::{Direction, SimTime, TracePacketKind};
use rand::{Rng, SeedableRng};

/// Synthesizes a "normal" audit trace: steady data traffic where roughly
/// every send is answered by a reception.
fn normal_trace(seed: u64, secs: f64) -> NodeTrace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tr = NodeTrace::new();
    let mut t = 0.5;
    while t < secs {
        tr.packet(
            SimTime::from_secs(t),
            TracePacketKind::Data,
            Direction::Sent,
        );
        if rng.gen_bool(0.9) {
            tr.packet(
                SimTime::from_secs(t + 0.2),
                TracePacketKind::Data,
                Direction::Received,
            );
        }
        t += rng.gen_range(0.8..1.6);
    }
    tr
}

fn main() {
    let extractor = FeatureExtractor::new();
    let duration = SimTime::from_secs(600.0);
    let matrix = extractor.extract(&normal_trace(1, 600.0), duration);
    println!(
        "extracted {} snapshots x {} features",
        matrix.n_rows(),
        matrix.n_cols()
    );

    let disc = EqualFrequencyDiscretizer::fit(&matrix, 5, None, 7);
    let table = disc.transform(&matrix).expect("schema");
    let detector = AnomalyDetector::fit(
        &AnyLearner::Bayes(NaiveBayes::default()),
        &table,
        ScoreMethod::AvgProbability,
        0.05,
    );
    println!(
        "threshold learned from normal data: {:.3}",
        detector.threshold()
    );

    // An "attack": sends continue but receptions stop (a black hole ate them).
    let mut attacked = normal_trace(2, 600.0);
    let mut t = 300.0;
    while t < 420.0 {
        attacked.packet(
            SimTime::from_secs(t),
            TracePacketKind::Data,
            Direction::Sent,
        );
        t += 0.3;
    }
    let attacked_matrix = extractor.extract(&attacked, duration);
    let attacked_table = disc.transform(&attacked_matrix).expect("schema");
    let mut alarms = Vec::new();
    for (row, &t) in attacked_table.to_rows().iter().zip(&attacked_matrix.times) {
        if detector.classify(row) == Verdict::Anomaly {
            alarms.push(t);
        }
    }
    println!(
        "{} of {} snapshots flagged as anomalous",
        alarms.len(),
        attacked_table.n_rows()
    );
    let in_window = alarms
        .iter()
        .filter(|&&t| (300.0..430.0).contains(&t))
        .count();
    println!("{in_window} alarms fall inside the attack window [300 s, 420 s]");
}

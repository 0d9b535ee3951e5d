//! Hot-swap determinism shaker: a scoring fleet hammers a live server
//! while the default model is repeatedly re-LOADed, and every served
//! score must stay bit-identical to an in-process reference — before,
//! during, and after each swap. A final swap to a *different* artifact
//! must be atomic: every response matches exactly one of the two
//! references in full, never a mix, and responses issued after the LOAD
//! acknowledgement serve only the new model. One scorer sends batches
//! large enough for the server to split across idle workers, so a part
//! scored on another generation than its siblings shows as a torn swap.

use cfa_core::{AnomalyDetector, CrossFeatureModel, FittedThreshold, ModelArtifact, ScoreMethod};
use cfa_ml::{AnyLearner, NaiveBayes};
use cfa_serve::protocol::DEFAULT_MODEL;
use cfa_serve::server::MIN_PART_ROWS;
use cfa_serve::{Client, Server, ServerConfig};
use manet_features::{EqualFrequencyDiscretizer, FeatureMatrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A small trained artifact over three correlated continuous features;
/// `bins` changes the discretizer (and therefore the score bits), so two
/// artifacts with different `bins` are distinguishable on the wire.
fn artifact_with_bins(bins: usize) -> ModelArtifact {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let a = f64::from(i % 4);
            vec![a * 10.0, a * 10.0 + 1.0, f64::from(i % 2)]
        })
        .collect();
    let matrix = FeatureMatrix {
        names: vec!["a".into(), "b".into(), "c".into()],
        times: (0..80).map(f64::from).collect(),
        rows,
    };
    let disc = EqualFrequencyDiscretizer::fit(&matrix, bins, None, 7);
    let table = disc.transform(&matrix).expect("same schema");
    let model = CrossFeatureModel::train(&AnyLearner::Bayes(NaiveBayes::default()), &table);
    let detector = AnomalyDetector::with_threshold(model, ScoreMethod::AvgProbability, 0.25);
    ModelArtifact {
        spec: None,
        discretizer: disc,
        detector,
        fitted: FittedThreshold {
            threshold: 0.25,
            false_alarm_rate: 0.05,
        },
        smoothing: 1,
    }
}

fn artifact_bytes(bins: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    artifact_with_bins(bins).save(&mut buf).expect("save");
    buf
}

/// Reference score bits for `rows` under the given artifact: the
/// interpreted walk of its ensemble, independent of the engine the
/// server runs.
fn reference_bits(bytes: &[u8], rows: &[f64], n_cols: usize) -> Vec<u64> {
    let artifact = ModelArtifact::load(&mut &bytes[..]).expect("load reference");
    let det = &artifact.detector;
    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    rows.chunks_exact(n_cols)
        .map(|row| {
            artifact.discretizer.transform_row_into(row, &mut row_u8);
            det.model()
                .score_with(&row_u8, det.method(), &mut probs)
                .to_bits()
        })
        .collect()
}

#[test]
fn scores_stay_bit_identical_across_live_hot_swaps() {
    let bytes_a = artifact_bytes(4);
    let bytes_b = artifact_bytes(3);

    let n_cols = 3;
    let batch = |n_rows: u32| {
        let mut rows = Vec::new();
        for i in 0..n_rows {
            let a = f64::from(i % 5);
            rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
        }
        rows
    };
    // Two scorers send 30-row batches, which never split; the third sends
    // four parts' worth of rows, which the server splits whenever two of
    // its four workers are idle.
    let small = batch(30);
    let large = batch(4 * MIN_PART_ROWS as u32);
    let refs: Vec<(Vec<u64>, Vec<u64>)> = [&small, &small, &large]
        .iter()
        .map(|rows| {
            (
                reference_bits(&bytes_a, rows, n_cols),
                reference_bits(&bytes_b, rows, n_cols),
            )
        })
        .collect();
    let (ref_a, ref_b) = &refs[0];
    assert_ne!(ref_a, ref_b, "the two artifacts must be distinguishable");
    // Every row scores differently under A and B, so a batch whose parts
    // scored on different generations matches neither reference.
    assert!(refs[2].0.iter().zip(&refs[2].1).all(|(a, b)| a != b));

    let boot = ModelArtifact::load(&mut &bytes_a[..]).expect("load boot");
    let server = Server::bind(boot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_handle = std::thread::spawn(move || server.run().expect("server run"));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Three scoring connections hammer the server throughout the swap
        // storm; each response must match reference A or B in full.
        let scorers: Vec<_> = [&small, &small, &large]
            .into_iter()
            .zip(&refs)
            .map(|(rows, (ref_a, ref_b))| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(10)).expect("connect scorer");
                    let mut checked = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let served = client.score_batch(rows, n_cols).expect("score");
                        let bits: Vec<u64> = served.iter().map(|s| s.score.to_bits()).collect();
                        assert!(
                            bits == *ref_a || bits == *ref_b,
                            "served batch matches neither reference in full — torn swap"
                        );
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();

        // Swap storm: re-LOAD the same bytes under the default name many
        // times (generation churn, identical bits), then swap to B.
        let mut admin = Client::connect(addr, Duration::from_secs(10)).expect("connect admin");
        for _ in 0..40 {
            admin
                .load_model(DEFAULT_MODEL, &bytes_a)
                .expect("re-load A");
        }
        admin.load_model(DEFAULT_MODEL, &bytes_b).expect("load B");

        // Let the scorers observe the post-swap world before stopping.
        let after = admin.score_batch(&small, n_cols).expect("score after swap");
        let after_bits: Vec<u64> = after.iter().map(|s| s.score.to_bits()).collect();
        assert_eq!(
            &after_bits, ref_b,
            "a request issued after the LOAD ack must serve the new model"
        );
        stop.store(true, Ordering::Relaxed);

        let total: usize = scorers.into_iter().map(|h| h.join().expect("join")).sum();
        assert!(total > 0, "scorers must have verified at least one batch");

        let models = admin.list_models().expect("list");
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].name, DEFAULT_MODEL);
        assert_eq!(models[0].generation, 42, "1 boot + 40 re-loads + 1 swap");

        admin.shutdown_server().expect("shutdown");
    });
    let stats = server_handle.join().expect("join server");
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.split_requests > 0, "the large batches must be split");
}

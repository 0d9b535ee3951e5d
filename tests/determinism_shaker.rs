//! Hash-shaker: the end-to-end determinism guarantee the `det` collection
//! layer (and cfa-audit's D001 rule) exists to protect.
//!
//! `HashMap`/`HashSet` iteration order is seeded per *process* from OS
//! entropy, so a nondeterminism bug of that class reproduces across two
//! runs **in the same process** only by luck — but it reliably shows up
//! across processes. These tests therefore run the full pipeline twice
//! from scratch inside one process AND are built to be run repeatedly in
//! CI (each invocation is a fresh `RandomState`): any hash-order leak into
//! event ordering, feature extraction, or model fitting eventually shakes
//! out as a `to_bits` mismatch here.

use manet_cfa::core::{fit_threshold, smooth, Parallelism, ScoreMethod};
use manet_cfa::features::FeatureMatrix;
use manet_cfa::fleet::run_fleet;
use manet_cfa::pipeline::{ClassifierKind, Pipeline, TrainedPipeline};
use manet_cfa::scenario::{Attack, Protocol, Scenario, Transport};
use manet_cfa::sim::NodeId;

fn attack_scenario(protocol: Protocol) -> (Scenario, Scenario) {
    let train = Scenario::paper_default(protocol, Transport::Cbr)
        .with_nodes(25)
        .with_connections(12)
        .with_duration(400.0)
        .with_seed(11);
    let attacked = Scenario::paper_default(protocol, Transport::Cbr)
        .with_nodes(25)
        .with_connections(12)
        .with_duration(400.0)
        .with_seed(13)
        .with_attack(Attack::blackhole_at(&[180.0, 310.0]));
    (train, attacked)
}

/// Trains and scores the attacked scenario completely from scratch.
fn score_once(protocol: Protocol, kind: ClassifierKind, method: ScoreMethod) -> Vec<u64> {
    let (train, attacked) = attack_scenario(protocol);
    let train_bundles = train.run_nodes(&Pipeline::default_train_nodes(train.n_nodes));
    let trained = Pipeline::new(kind, method).fit(&train_bundles);
    let bundle = attacked.run();
    trained
        .score_matrix(&bundle.matrix)
        .into_iter()
        .map(f64::to_bits)
        .collect()
}

#[test]
fn aodv_attack_scenario_scores_bit_identical_across_runs() {
    let a = score_once(
        Protocol::Aodv,
        ClassifierKind::C45,
        ScoreMethod::AvgProbability,
    );
    let b = score_once(
        Protocol::Aodv,
        ClassifierKind::C45,
        ScoreMethod::AvgProbability,
    );
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "AODV pipeline scores are not bit-identical across runs"
    );
}

#[test]
fn scores_survive_a_save_load_round_trip_bit_identically() {
    // The persistence leg of the shaker: the score matrix of a pipeline
    // that went through `save` → `load` (the `CFAM` artifact format) must
    // be `to_bits`-identical to the in-memory pipeline's. Any float
    // rounding, reordering, or lossy encoding in the artifact shows up
    // here.
    let (train, attacked) = attack_scenario(Protocol::Aodv);
    let train_bundles = train.run_nodes(&Pipeline::default_train_nodes(train.n_nodes));
    let trained =
        Pipeline::new(ClassifierKind::NaiveBayes, ScoreMethod::AvgProbability).fit(&train_bundles);

    let mut artifact_bytes = Vec::new();
    trained
        .save(&mut artifact_bytes)
        .expect("save to memory cannot fail");
    let reloaded = TrainedPipeline::load(&mut artifact_bytes.as_slice())
        .expect("the just-saved artifact must load");

    let bundle = attacked.run();
    let direct: Vec<u64> = trained
        .score_matrix(&bundle.matrix)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    let through_disk: Vec<u64> = reloaded
        .score_matrix(&bundle.matrix)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    assert!(!direct.is_empty());
    assert_eq!(
        direct, through_disk,
        "scores through a persistence round trip are not bit-identical"
    );
    assert_eq!(
        trained.fitted_threshold(),
        reloaded.fitted_threshold(),
        "fitted threshold/FAR pair must survive the round trip exactly"
    );

    // Saving the reloaded pipeline must reproduce the artifact byte for
    // byte — the format is canonical, not merely round-trippable.
    let mut second = Vec::new();
    reloaded.save(&mut second).expect("second save");
    assert_eq!(
        artifact_bytes, second,
        "artifact encoding must be byte-deterministic"
    );
}

#[test]
fn compiled_pipeline_scores_are_bit_identical_to_interpreted() {
    // The engine leg of the shaker: over full attack pipelines (train on
    // normal traffic, score a blackhole scenario), the compiled engine
    // every detector scores on must reproduce the interpreted walk of its
    // ensemble `to_bits`-exactly — for every model family, both scoring
    // methods, and both routing protocols. The threshold `Pipeline::fit`
    // chose on engine scores must equal the one refitted from the walk's
    // smoothed scores of the same training rows.
    let combos: &[(Protocol, &[(ClassifierKind, ScoreMethod)])] = &[
        (
            Protocol::Aodv,
            &[
                (ClassifierKind::C45, ScoreMethod::AvgProbability),
                (ClassifierKind::NaiveBayes, ScoreMethod::AvgProbability),
            ],
        ),
        (
            Protocol::Dsr,
            &[(ClassifierKind::Ripper, ScoreMethod::MatchCount)],
        ),
    ];
    let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    for &(protocol, kinds) in combos {
        let (train, attacked) = attack_scenario(protocol);
        let train_bundles = train.run_nodes(&Pipeline::default_train_nodes(train.n_nodes));
        let mut train_matrix = train_bundles[0].matrix.clone();
        for b in &train_bundles[1..] {
            train_matrix.rows.extend(b.matrix.rows.iter().cloned());
            train_matrix.times.extend(b.matrix.times.iter().copied());
        }
        let bundle = attacked.run();
        for &(kind, method) in kinds {
            let pipeline = Pipeline::new(kind, method);
            let trained = pipeline.fit(&train_bundles);
            // The oracle: the interpreted walk, smoothed with the
            // pipeline's window.
            let oracle = |matrix: &FeatureMatrix| {
                let table = trained
                    .discretizer()
                    .transform(matrix)
                    .expect("training schema");
                let walk =
                    trained
                        .detector()
                        .model()
                        .scores_with(&table, method, Parallelism::serial());
                smooth(&walk, pipeline.smoothing)
            };
            let engine = bits(trained.score_matrix(&bundle.matrix));
            assert!(!engine.is_empty());
            assert_eq!(
                engine,
                bits(oracle(&bundle.matrix)),
                "{protocol:?}/{kind:?}/{method:?}: engine scores diverge from the walk"
            );
            let refitted = fit_threshold(&oracle(&train_matrix), pipeline.false_alarm_rate);
            assert_eq!(
                trained.fitted_threshold().threshold.to_bits(),
                refitted.threshold.to_bits(),
                "{protocol:?}/{kind:?}/{method:?}: threshold diverges from the walk's"
            );
            assert_eq!(
                trained.detector().threshold().to_bits(),
                refitted.threshold.to_bits()
            );
        }
    }
}

#[test]
fn fleet_matrices_are_bit_identical_at_any_thread_count() {
    // The fleet leg of the shaker: one attack scenario batch through the
    // `fleet` driver at 1, 2, and 4 threads. Feature matrices (and
    // labels) must be `to_bits`-identical to the single-threaded run —
    // the same contract as the parallel ensemble engine, now holding for
    // whole seeded simulations.
    let (_, attacked) = attack_scenario(Protocol::Aodv);
    let runs: Vec<_> = [13, 14, 15]
        .map(|seed| (attacked.clone().with_seed(seed), vec![NodeId(0), NodeId(3)]))
        .to_vec();
    let reference = run_fleet(&runs, Parallelism::threads(1));
    let ref_bits: Vec<Vec<u64>> = reference
        .runs
        .iter()
        .flat_map(|r| &r.bundles)
        .map(|b| {
            b.matrix
                .rows
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    assert!(!ref_bits.is_empty());
    let checksum = reference.checksum();
    for threads in [2usize, 4] {
        let run = run_fleet(&runs, Parallelism::threads(threads));
        let bits: Vec<Vec<u64>> = run
            .runs
            .iter()
            .flat_map(|r| &r.bundles)
            .map(|b| {
                b.matrix
                    .rows
                    .iter()
                    .flatten()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(
            ref_bits, bits,
            "fleet matrices diverge at {threads} threads"
        );
        assert_eq!(
            checksum,
            run.checksum(),
            "fleet checksum diverges at {threads} threads"
        );
        let labels: Vec<&Vec<bool>> = run
            .runs
            .iter()
            .flat_map(|r| &r.bundles)
            .map(|b| &b.labels)
            .collect();
        let ref_labels: Vec<&Vec<bool>> = reference
            .runs
            .iter()
            .flat_map(|r| &r.bundles)
            .map(|b| &b.labels)
            .collect();
        assert_eq!(
            ref_labels, labels,
            "fleet labels diverge at {threads} threads"
        );
    }
}

#[test]
fn dsr_attack_scenario_scores_bit_identical_across_runs() {
    let a = score_once(
        Protocol::Dsr,
        ClassifierKind::Ripper,
        ScoreMethod::MatchCount,
    );
    let b = score_once(
        Protocol::Dsr,
        ClassifierKind::Ripper,
        ScoreMethod::MatchCount,
    );
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "DSR pipeline scores are not bit-identical across runs"
    );
}

//! Property-based tests of the compiled execution path: for arbitrary
//! trained models of every family, the flat compiled form must reproduce
//! the interpreted [`Classifier`] output **bit for bit** — probabilities,
//! predictions, single-class lookups (in- and out-of-range), and whole
//! ensemble scores through both `score_row` and the SoA `score_batch`.

use cfa_ml::compiled::{CompiledEnsemble, CompiledModel, ScoreMethod};
use cfa_ml::{AnyLearner, AnyModel, Classifier, Learner, NaiveBayes, NominalTable, Ripper, C45};
use proptest::prelude::*;

/// Strategy: a random nominal table with 2–5 columns, each (the class
/// column included) of its own cardinality in 1–8, and 8–60 rows, a
/// designated class column, and probe rows that may carry out-of-domain
/// values (the classifiers clamp them). Cardinality 1 yields one-class
/// sub-models; 2–8 reach every arm of the naive Bayes kernel.
fn table_strategy() -> impl Strategy<Value = (NominalTable, usize, Vec<Vec<u8>>)> {
    proptest::collection::vec(1usize..=8, 2..=5).prop_flat_map(|cards| {
        let n_cols = cards.len();
        let raw_row = || proptest::collection::vec(0u8..=255, n_cols);
        let rows = proptest::collection::vec(raw_row(), 8..60);
        let probes = proptest::collection::vec(raw_row(), 1..20);
        (rows, 0..n_cols, probes).prop_map(move |(rows, class_col, probes)| {
            // Raw bytes reduced per column: in domain for training rows,
            // up to two past the last value for probes.
            let reduce = |rows: Vec<Vec<u8>>, extra: usize| -> Vec<Vec<u8>> {
                rows.into_iter()
                    .map(|row| {
                        row.iter()
                            .zip(&cards)
                            .map(|(&v, &card)| (usize::from(v) % (card + extra)) as u8)
                            .collect()
                    })
                    .collect()
            };
            let names = (0..n_cols).map(|i| format!("f{i}")).collect();
            (
                NominalTable::new(names, cards.clone(), reduce(rows, 0))
                    .expect("generated within domain"),
                class_col,
                reduce(probes, 2),
            )
        })
    })
}

/// Strategy: one learner of an arbitrary family.
fn learner_strategy() -> impl Strategy<Value = AnyLearner> {
    (0usize..3).prop_map(|family| match family {
        0 => AnyLearner::C45(C45::default()),
        1 => AnyLearner::Ripper(Ripper::default()),
        _ => AnyLearner::Bayes(NaiveBayes::default()),
    })
}

fn assert_compiled_matches(model: &AnyModel, class_col: usize, rows: &[Vec<u8>]) {
    let compiled = CompiledModel::compile(model, class_col);
    assert_eq!(compiled.n_classes(), model.n_classes());
    let mut want = Vec::new();
    let mut got = Vec::new();
    let mut scratch = Vec::new();
    for row in rows {
        model.class_probs_into(row, class_col, &mut want);
        compiled.class_probs_into(row, &mut got);
        let want_bits: Vec<u64> = want.iter().map(|p| p.to_bits()).collect();
        let got_bits: Vec<u64> = got.iter().map(|p| p.to_bits()).collect();
        assert_eq!(want_bits, got_bits, "probs for {row:?}");
        assert_eq!(
            model.predict_row(row, class_col, &mut scratch),
            compiled.predict(row, &mut scratch),
            "prediction for {row:?}"
        );
        for class in 0..model.n_classes() as u8 + 2 {
            assert_eq!(
                model
                    .prob_of_row(row, class_col, class, &mut scratch)
                    .to_bits(),
                compiled.prob_of(row, class, &mut scratch).to_bits(),
                "prob of class {class} for {row:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_models_are_bit_identical(
        (table, class_col, probes) in table_strategy(),
        learner in learner_strategy(),
    ) {
        let model = learner.fit(&table, class_col);
        // Training rows exercise in-domain paths; probe rows add
        // out-of-domain values that hit the clamp and empty branches.
        let mut rows = table.to_rows();
        rows.extend(probes);
        assert_compiled_matches(&model, class_col, &rows);
    }

    #[test]
    fn compiled_ensemble_scores_are_bit_identical(
        (table, _, probes) in table_strategy(),
        learner in learner_strategy(),
    ) {
        // One sub-model per column, each predicting its own column from
        // the rest — the cross-feature ensemble shape.
        let sub_models: Vec<AnyModel> = (0..table.n_cols())
            .map(|i| learner.fit(&table, i))
            .collect();
        let ensemble = CompiledEnsemble::compile(&sub_models);
        let mut rows = table.to_rows();
        rows.extend(probes);
        let packed: Vec<u8> = rows.iter().flatten().copied().collect();
        let mut scratch = Vec::new();
        for method in [ScoreMethod::MatchCount, ScoreMethod::AvgProbability] {
            // The interpreted reference: average per-model contribution,
            // summed in model order (cfa-core's `score_all` shape).
            let interpreted: Vec<u64> = rows
                .iter()
                .map(|row| {
                    let mut total = 0.0;
                    for (i, model) in sub_models.iter().enumerate() {
                        total += match method {
                            ScoreMethod::MatchCount => {
                                f64::from(model.predict_row(row, i, &mut scratch) == row[i])
                            }
                            ScoreMethod::AvgProbability => {
                                model.prob_of_row(row, i, row[i], &mut scratch)
                            }
                        };
                    }
                    (total / sub_models.len() as f64).to_bits()
                })
                .collect();
            let row_at_a_time: Vec<u64> = rows
                .iter()
                .map(|row| ensemble.score_row(row, method, &mut scratch).to_bits())
                .collect();
            let mut batch = Vec::new();
            ensemble.score_batch(&packed, method, &mut batch, &mut scratch);
            let batched: Vec<u64> = batch.iter().map(|s| s.to_bits()).collect();
            assert_eq!(interpreted, row_at_a_time, "score_row vs interpreted");
            assert_eq!(interpreted, batched, "score_batch vs interpreted");
        }
    }
}

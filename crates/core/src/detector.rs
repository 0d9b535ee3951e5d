//! The end-to-end anomaly detector: ensemble + threshold.

use crate::model::{CrossFeatureModel, ScoreMethod};
use crate::parallel::{map_chunks, Parallelism};
use crate::threshold::{is_alarm, select_threshold};
use cfa_ml::compiled::CompiledEnsemble;
use cfa_ml::{AnyModel, Learner, NominalTable};

/// Classification outcome for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The event's score reached the threshold.
    Normal,
    /// The event's score fell below the threshold.
    Anomaly,
}

/// A trained cross-feature anomaly detector.
///
/// Combines a [`CrossFeatureModel`] with a decision threshold chosen from
/// the training scores at a target false-alarm rate (the paper's
/// "confidence level" is one minus that rate). Every constructor lowers
/// the ensemble into the flat compiled engine, and every scoring entry
/// runs that engine; its scores are bit-identical to the interpreted walk
/// of [`AnomalyDetector::model`], which remains as the test oracle.
#[derive(Debug)]
pub struct AnomalyDetector<M = AnyModel> {
    model: CrossFeatureModel<M>,
    method: ScoreMethod,
    threshold: f64,
    engine: CompiledEnsemble,
}

impl AnomalyDetector {
    /// Trains the ensemble on `normal` (Algorithm 1) and fixes the
    /// threshold on the engine's scores of those events, so that at most
    /// `false_alarm_rate` of them would be flagged. Uses the default
    /// thread budget; the fitted detector is identical for every thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on an empty table, fewer than two feature columns, or a
    /// false-alarm rate outside `[0, 1)`.
    pub fn fit<L>(
        learner: &L,
        normal: &NominalTable,
        method: ScoreMethod,
        false_alarm_rate: f64,
    ) -> AnomalyDetector
    where
        L: Learner<Model = AnyModel> + Sync,
    {
        let par = Parallelism::default();
        let model = CrossFeatureModel::train_with(learner, normal, par);
        let detector = AnomalyDetector::with_threshold(model, method, f64::NEG_INFINITY);
        let threshold = select_threshold(&detector.score_table(normal, par), false_alarm_rate);
        detector.at_threshold(threshold)
    }

    /// Builds a detector from an existing ensemble and explicit threshold
    /// (used when loading an artifact and when sweeping thresholds for
    /// recall–precision curves), lowering the ensemble into the engine.
    ///
    /// # Panics
    ///
    /// Panics when a sub-model's attribute count disagrees with the
    /// ensemble width; [`ModelArtifact::load`](crate::ModelArtifact::load)
    /// rejects such files before it builds a detector.
    pub fn with_threshold(
        model: CrossFeatureModel<AnyModel>,
        method: ScoreMethod,
        threshold: f64,
    ) -> AnomalyDetector {
        let engine = CompiledEnsemble::compile(model.sub_models());
        AnomalyDetector {
            model,
            method,
            threshold,
            engine,
        }
    }

    /// The same detector deciding at `threshold` instead — how a fit sets
    /// the θ it chose from the detector's own scores.
    pub fn at_threshold(self, threshold: f64) -> AnomalyDetector {
        AnomalyDetector { threshold, ..self }
    }

    /// Does nothing: every constructor lowers the ensemble already. It
    /// stays only because `perfbench/` still calls it, and that harness
    /// changes only together with the benchmark definition.
    pub fn compile(&mut self) {}

    /// The decision threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The scoring method in use.
    pub fn method(&self) -> ScoreMethod {
        self.method
    }

    /// The underlying ensemble; its interpreted walk is the reference the
    /// engine is tested against.
    pub fn model(&self) -> &CrossFeatureModel<AnyModel> {
        &self.model
    }

    /// Scores a full-width event vector (higher = more normal).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn score(&self, row: &[u8]) -> f64 {
        // audit: allow(D008, reason = "one-shot convenience wrapper; hot callers reuse a buffer via score_with")
        let mut scratch = Vec::new();
        self.score_with(row, &mut scratch)
    }

    /// [`score`](AnomalyDetector::score) with a caller-owned scratch
    /// buffer — the allocation-free form repeated scorers (the online
    /// monitor's per-snapshot loop) call instead.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn score_with(&self, row: &[u8], scratch: &mut Vec<f64>) -> f64 {
        self.engine.score_row(row, self.method, scratch)
    }

    /// Scores a packed row-major batch (`rows.len()` must be a multiple
    /// of the ensemble width) into `out`, one score per row, in
    /// structure-of-arrays order — all rows through sub-model *i*, then
    /// *i+1*. Each row's bits equal [`AnomalyDetector::score_with`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the ensemble width.
    pub fn score_rows_with(&self, rows: &[u8], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        self.engine.score_batch(rows, self.method, out, scratch);
    }

    /// Scores every row of a table, fanning contiguous row chunks out
    /// across `par` threads; each chunk is packed and scored by one
    /// [`AnomalyDetector::score_rows_with`] batch. A row's score depends
    /// on the row alone, never on its chunk, and chunks are reassembled
    /// in row order, so the output is bit-identical for every thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the table's width differs from the ensemble's.
    pub fn score_table(&self, table: &NominalTable, par: Parallelism) -> Vec<f64> {
        let width = self.model.n_features();
        assert_eq!(table.n_cols(), width, "event width mismatch");
        map_chunks(par, table.n_rows(), |range| {
            let mut packed = Vec::with_capacity(range.len() * width);
            let mut row = Vec::with_capacity(width);
            for r in range {
                table.copy_row_into(r, &mut row);
                packed.extend_from_slice(&row);
            }
            let (mut scores, mut scratch) = (Vec::new(), Vec::new());
            self.score_rows_with(&packed, &mut scores, &mut scratch);
            scores
        })
    }

    /// Classifies a full-width event vector.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn classify(&self, row: &[u8]) -> Verdict {
        if is_alarm(self.score(row), self.threshold) {
            Verdict::Anomaly
        } else {
            Verdict::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa_ml::{AnyLearner, NaiveBayes, Ripper, C45};

    fn c45() -> AnyLearner {
        AnyLearner::C45(C45::default())
    }

    fn correlated_normal() -> NominalTable {
        // f1 == f0, f2 == f0 XOR occasional noise-free copy; all mutually
        // predictable.
        let rows: Vec<Vec<u8>> = (0..120)
            .map(|i| {
                let a = (i % 2) as u8;
                vec![a, a, a]
            })
            .collect();
        NominalTable::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![2, 2, 2],
            rows,
        )
        .unwrap()
    }

    /// Partly correlated, partly noisy columns: training scores spread
    /// out, so the fitted threshold is a real quantile.
    fn noisy_normal() -> NominalTable {
        let rows: Vec<Vec<u8>> = (0..150u32)
            .map(|i| {
                let a = (i % 3) as u8;
                let b = (a + u8::from(i % 7 == 0)) % 3;
                vec![a, b, (i / 3 % 2) as u8, (i * 7 % 11 % 4) as u8]
            })
            .collect();
        NominalTable::new(
            (0..4).map(|i| format!("f{i}")).collect(),
            vec![3, 3, 2, 4],
            rows,
        )
        .unwrap()
    }

    #[test]
    fn detects_correlation_violations() {
        let det = AnomalyDetector::fit(
            &c45(),
            &correlated_normal(),
            ScoreMethod::AvgProbability,
            0.01,
        );
        assert_eq!(det.classify(&[0, 0, 0]), Verdict::Normal);
        assert_eq!(det.classify(&[1, 1, 1]), Verdict::Normal);
        assert_eq!(det.classify(&[0, 1, 0]), Verdict::Anomaly);
        assert_eq!(det.classify(&[1, 0, 0]), Verdict::Anomaly);
    }

    #[test]
    fn training_false_alarm_rate_is_bounded() {
        let normal = correlated_normal();
        for fa in [0.0, 0.05, 0.2] {
            let det = AnomalyDetector::fit(&c45(), &normal, ScoreMethod::MatchCount, fa);
            let alarms = normal
                .to_rows()
                .iter()
                .filter(|r| det.classify(r) == Verdict::Anomaly)
                .count();
            let rate = alarms as f64 / normal.n_rows() as f64;
            assert!(
                rate <= fa + 1e-9,
                "training false-alarm rate {rate} exceeds requested {fa}"
            );
        }
    }

    #[test]
    fn compiled_routing_is_bit_identical() {
        let normal = correlated_normal();
        let det = AnomalyDetector::fit(&c45(), &normal, ScoreMethod::AvgProbability, 0.05);
        let rows = normal.to_rows();
        let packed: Vec<u8> = rows.iter().flatten().copied().collect();
        let mut scratch = Vec::new();
        let oracle: Vec<u64> = rows
            .iter()
            .map(|r| {
                det.model()
                    .score_with(r, det.method(), &mut scratch)
                    .to_bits()
            })
            .collect();

        let single: Vec<u64> = rows
            .iter()
            .map(|r| det.score_with(r, &mut scratch).to_bits())
            .collect();
        assert_eq!(oracle, single, "score_with");
        let mut out = Vec::new();
        det.score_rows_with(&packed, &mut out, &mut scratch);
        let batched: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
        assert_eq!(oracle, batched, "score_rows_with");
        for threads in [1, 2, 3] {
            let table: Vec<u64> = det
                .score_table(&normal, Parallelism::threads(threads))
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(oracle, table, "score_table at {threads} threads");
        }

        // `classify` is the alarm rule on the oracle score.
        for (row, &bits) in rows.iter().zip(&oracle) {
            let want = if is_alarm(f64::from_bits(bits), det.threshold()) {
                Verdict::Anomaly
            } else {
                Verdict::Normal
            };
            assert_eq!(det.classify(row), want);
        }
    }

    #[test]
    fn fitted_threshold_and_scores_match_the_interpreted_oracle() {
        let normal = noisy_normal();
        let rows = normal.to_rows();
        let learners = [
            AnyLearner::C45(C45::default()),
            AnyLearner::Ripper(Ripper::default()),
            AnyLearner::Bayes(NaiveBayes::default()),
        ];
        for learner in &learners {
            for method in [ScoreMethod::MatchCount, ScoreMethod::AvgProbability] {
                let det = AnomalyDetector::fit(learner, &normal, method, 0.1);
                let oracle = det
                    .model()
                    .scores_with(&normal, method, Parallelism::serial());
                assert!(
                    oracle.iter().any(|s| s.to_bits() != oracle[0].to_bits()),
                    "{learner:?}/{method:?}: the fixture must spread the scores"
                );
                assert_eq!(
                    det.threshold().to_bits(),
                    select_threshold(&oracle, 0.1).to_bits(),
                    "{learner:?}/{method:?}: threshold"
                );
                let mut scratch = Vec::new();
                for (r, (row, want)) in rows.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        det.score_with(row, &mut scratch).to_bits(),
                        want.to_bits(),
                        "{learner:?}/{method:?}: row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_threshold_overrides() {
        let model = CrossFeatureModel::train(&c45(), &correlated_normal());
        let det = AnomalyDetector::with_threshold(model, ScoreMethod::MatchCount, 2.0);
        // Threshold above the score range: everything is anomalous.
        assert_eq!(det.classify(&[0, 0, 0]), Verdict::Anomaly);
        assert_eq!(det.threshold(), 2.0);
        assert_eq!(det.at_threshold(0.0).classify(&[0, 0, 0]), Verdict::Normal);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn a_sub_model_of_the_wrong_width_panics_at_construction() {
        let wide = NominalTable::new(
            (0..4).map(|i| format!("w{i}")).collect(),
            vec![2; 4],
            (0..8u8).map(|i| vec![i % 2, i / 2 % 2, i / 4, 0]).collect(),
        )
        .unwrap();
        let mut models = CrossFeatureModel::train(&c45(), &correlated_normal())
            .sub_models()
            .to_vec();
        models[2] = c45().fit(&wide, 2);
        let _ = AnomalyDetector::with_threshold(
            CrossFeatureModel::from_sub_models(models),
            ScoreMethod::MatchCount,
            0.5,
        );
    }
}

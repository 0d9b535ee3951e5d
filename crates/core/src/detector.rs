//! The end-to-end anomaly detector: ensemble + threshold.

use crate::model::{CrossFeatureModel, ScoreMethod};
use crate::parallel::Parallelism;
use crate::threshold::select_threshold;
use cfa_ml::compiled::CompiledEnsemble;
use cfa_ml::{AnyModel, Classifier, Learner, NominalTable};

/// Classification outcome for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The event's score reached the threshold.
    Normal,
    /// The event's score fell below the threshold.
    Anomaly,
}

/// Score and decision for one streamed snapshot — what
/// [`AnomalyDetector::score_snapshot`] returns to an online caller that
/// wants both pieces from a single ensemble pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotVerdict {
    /// The ensemble score (higher = more normal).
    pub score: f64,
    /// The threshold decision for that score.
    pub verdict: Verdict,
}

/// A trained cross-feature anomaly detector.
///
/// Combines a [`CrossFeatureModel`] with a decision threshold chosen from
/// the training scores at a target false-alarm rate (the paper's
/// "confidence level" is one minus that rate).
#[derive(Debug)]
pub struct AnomalyDetector<M> {
    model: CrossFeatureModel<M>,
    method: ScoreMethod,
    threshold: f64,
    /// The flat execution engine, present once
    /// [`AnomalyDetector::compile`] has run. Scoring entry points route
    /// through it when set; its output is bit-identical to the
    /// interpreted ensemble.
    compiled: Option<CompiledEnsemble>,
}

impl<M: Classifier> AnomalyDetector<M> {
    /// Trains the ensemble on `normal` (Algorithm 1) and fixes the
    /// threshold so that at most `false_alarm_rate` of the normal training
    /// events would be flagged.
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
    ) -> AnomalyDetector<M>
    where
        L: Learner<Model = M> + Sync,
    {
        Self::fit_with(
            learner,
            normal,
            method,
            false_alarm_rate,
            Parallelism::default(),
        )
    }

    /// [`AnomalyDetector::fit`] with an explicit thread budget for both
    /// sub-model training and the normal-score pass that fixes the
    /// threshold. The fitted detector is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics on an empty table, fewer than two feature columns, or a
    /// false-alarm rate outside `[0, 1)`.
    pub fn fit_with<L>(
        learner: &L,
        normal: &NominalTable,
        method: ScoreMethod,
        false_alarm_rate: f64,
        par: Parallelism,
    ) -> AnomalyDetector<M>
    where
        L: Learner<Model = M> + Sync,
    {
        let model = CrossFeatureModel::train_with(learner, normal, par);
        let scores = model.scores_with(normal, method, par);
        let threshold = select_threshold(&scores, false_alarm_rate);
        AnomalyDetector {
            model,
            method,
            threshold,
            compiled: None,
        }
    }

    /// Builds a detector from an existing ensemble and explicit threshold
    /// (used when sweeping thresholds for recall–precision curves).
    pub fn with_threshold(
        model: CrossFeatureModel<M>,
        method: ScoreMethod,
        threshold: f64,
    ) -> AnomalyDetector<M> {
        AnomalyDetector {
            model,
            method,
            threshold,
            compiled: None,
        }
    }

    /// The decision threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The scoring method in use.
    pub fn method(&self) -> ScoreMethod {
        self.method
    }

    /// The underlying ensemble.
    pub fn model(&self) -> &CrossFeatureModel<M> {
        &self.model
    }

    /// Whether [`AnomalyDetector::compile`] has lowered this detector to
    /// the flat execution engine.
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
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
    /// monitor's per-snapshot loop) call instead. Routes through the
    /// compiled engine when [`AnomalyDetector::compile`] has run; either
    /// way the score bits are identical.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn score_with(&self, row: &[u8], scratch: &mut Vec<f64>) -> f64 {
        match &self.compiled {
            Some(engine) => engine.score_row(row, self.method.into(), scratch),
            None => self.model.score_with(row, self.method, scratch),
        }
    }

    /// Scores a packed row-major batch (`rows.len()` must be a multiple
    /// of the ensemble width) into `out`, one score per row. With a
    /// compiled engine this takes the structure-of-arrays batch path —
    /// all rows through sub-model *i*, then *i+1* — otherwise it scores
    /// row by row through the interpreted ensemble; the output bits are
    /// identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the ensemble width.
    pub fn score_rows_with(&self, rows: &[u8], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        match &self.compiled {
            Some(engine) => engine.score_batch(rows, self.method.into(), out, scratch),
            None => {
                let width = self.model.n_features();
                assert_eq!(rows.len() % width, 0, "packed rows width mismatch");
                out.clear();
                for row in rows.chunks_exact(width) {
                    out.push(self.model.score_with(row, self.method, scratch));
                }
            }
        }
    }

    /// Classifies a full-width event vector.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn classify(&self, row: &[u8]) -> Verdict {
        if self.score(row) >= self.threshold {
            Verdict::Normal
        } else {
            Verdict::Anomaly
        }
    }

    /// Scores and classifies one streamed snapshot in a single ensemble
    /// pass — the streaming counterpart of [`AnomalyDetector::score`] +
    /// [`AnomalyDetector::classify`].
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn score_snapshot(&self, row: &[u8]) -> SnapshotVerdict {
        // audit: allow(D008, reason = "one-shot convenience wrapper; streaming callers reuse a buffer via score_snapshot_with")
        let mut scratch = Vec::new();
        self.score_snapshot_with(row, &mut scratch)
    }

    /// [`score_snapshot`](AnomalyDetector::score_snapshot) with a
    /// caller-owned scratch buffer for allocation-free streaming.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn score_snapshot_with(&self, row: &[u8], scratch: &mut Vec<f64>) -> SnapshotVerdict {
        let score = self.score_with(row, scratch);
        SnapshotVerdict {
            score,
            verdict: if score >= self.threshold {
                Verdict::Normal
            } else {
                Verdict::Anomaly
            },
        }
    }
}

impl AnomalyDetector<AnyModel> {
    /// Lowers the ensemble into the flat compiled engine; subsequent
    /// [`AnomalyDetector::score_with`] / [`AnomalyDetector::score_rows_with`]
    /// calls (and everything built on them: `score_snapshot_with`, the
    /// online monitor) execute the compiled form. Idempotent; scores are
    /// bit-identical to the interpreted path either way.
    pub fn compile(&mut self) {
        if self.compiled.is_none() {
            self.compiled = Some(self.model.compile());
        }
    }

    /// The compiled engine, when [`AnomalyDetector::compile`] has run.
    pub fn compiled(&self) -> Option<&CompiledEnsemble> {
        self.compiled.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa_ml::c45::C45;

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

    #[test]
    fn detects_correlation_violations() {
        let det = AnomalyDetector::fit(
            &C45::default(),
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
            let det = AnomalyDetector::fit(&C45::default(), &normal, ScoreMethod::MatchCount, fa);
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
        use cfa_ml::AnyLearner;
        let normal = correlated_normal();
        let mut det = AnomalyDetector::fit(
            &AnyLearner::C45(C45::default()),
            &normal,
            ScoreMethod::AvgProbability,
            0.05,
        );
        let rows = normal.to_rows();
        let packed: Vec<u8> = rows.iter().flatten().copied().collect();
        let interpreted: Vec<u64> = rows.iter().map(|r| det.score(r).to_bits()).collect();

        // The uncompiled batch entry falls back to row-at-a-time scoring.
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        det.score_rows_with(&packed, &mut out, &mut scratch);
        let fallback: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
        assert_eq!(interpreted, fallback);

        assert!(!det.is_compiled());
        det.compile();
        det.compile(); // idempotent
        assert!(det.is_compiled() && det.compiled().is_some());

        let compiled: Vec<u64> = rows
            .iter()
            .map(|r| det.score_with(r, &mut scratch).to_bits())
            .collect();
        assert_eq!(interpreted, compiled, "compiled score_with");
        det.score_rows_with(&packed, &mut out, &mut scratch);
        let batched: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
        assert_eq!(interpreted, batched, "compiled score_rows_with");

        // The snapshot verdicts route through the same engine.
        for row in &rows {
            let snap = det.score_snapshot_with(row, &mut scratch);
            assert_eq!(
                snap.verdict,
                if snap.score >= det.threshold() {
                    Verdict::Normal
                } else {
                    Verdict::Anomaly
                }
            );
        }
    }

    #[test]
    fn explicit_threshold_overrides() {
        let model = CrossFeatureModel::train(&C45::default(), &correlated_normal());
        let det = AnomalyDetector::with_threshold(model, ScoreMethod::MatchCount, 2.0);
        // Threshold above the score range: everything is anomalous.
        assert_eq!(det.classify(&[0, 0, 0]), Verdict::Anomaly);
        assert_eq!(det.threshold(), 2.0);
    }
}

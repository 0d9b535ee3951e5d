//! The cross-feature ensemble: Algorithms 1–3 of the paper.

use crate::parallel::{map_chunks, Parallelism};
pub use cfa_ml::ScoreMethod;
use cfa_ml::{Classifier, Learner, NominalTable};

/// The ensemble of per-feature sub-models produced by Algorithm 1.
///
/// `CrossFeatureModel::train` fits one classifier per feature column on a
/// table of **normal** events; [`CrossFeatureModel::score`] evaluates how
/// normal a (full-width) feature vector looks, in `[0, 1]` — higher is more
/// normal. These scorers are the interpreted walk: an
/// [`AnomalyDetector`](crate::AnomalyDetector) scores on the compiled
/// engine lowered from this ensemble, and tests hold that engine to this
/// walk's bits.
#[derive(Debug)]
pub struct CrossFeatureModel<M> {
    sub_models: Vec<M>,
    n_features: usize,
}

impl<M: Classifier> CrossFeatureModel<M> {
    /// Algorithm 1: trains `L` sub-models, one per feature of `normal`,
    /// using the default thread budget ([`Parallelism::default`], one
    /// thread per available core).
    ///
    /// # Panics
    ///
    /// Panics if the table has no rows or fewer than two columns (with one
    /// feature there is nothing to cross-correlate).
    pub fn train<L>(learner: &L, normal: &NominalTable) -> CrossFeatureModel<M>
    where
        L: Learner<Model = M> + Sync,
    {
        Self::train_with(learner, normal, Parallelism::default())
    }

    /// Algorithm 1 with an explicit thread budget. The `L` sub-model fits
    /// are independent, so they fan out across `par` threads; each fit is
    /// deterministic, so the resulting ensemble is identical for every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if the table has no rows or fewer than two columns (with one
    /// feature there is nothing to cross-correlate).
    pub fn train_with<L>(
        learner: &L,
        normal: &NominalTable,
        par: Parallelism,
    ) -> CrossFeatureModel<M>
    where
        L: Learner<Model = M> + Sync,
    {
        assert!(normal.n_rows() > 0, "need normal training data");
        assert!(
            normal.n_cols() >= 2,
            "cross-feature analysis needs at least two features"
        );
        let sub_models = map_chunks(par, normal.n_cols(), |range| {
            range.map(|i| learner.fit(normal, i)).collect()
        });
        CrossFeatureModel {
            sub_models,
            n_features: normal.n_cols(),
        }
    }

    /// Builds an ensemble from pre-trained sub-models (`sub_models[i]`
    /// predicts feature `i` from the rest). Useful for model-reduction
    /// experiments and for custom classifiers.
    ///
    /// # Panics
    ///
    /// Panics if `sub_models` is empty.
    pub fn from_sub_models(sub_models: Vec<M>) -> CrossFeatureModel<M> {
        assert!(!sub_models.is_empty(), "need at least one sub-model");
        let n_features = sub_models.len();
        CrossFeatureModel {
            sub_models,
            n_features,
        }
    }

    /// Number of features / sub-models (the paper's `L`).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The sub-models, indexed by labelled feature.
    pub fn sub_models(&self) -> &[M] {
        &self.sub_models
    }

    /// Scores one full-width event vector; higher = more normal.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.n_features()`.
    pub fn score(&self, row: &[u8], method: ScoreMethod) -> f64 {
        // One-shot convenience entry: allocates its own scratch. Repeated
        // scorers (the online monitor, the batch matrix scorers) pass a
        // reused buffer through `score_with` instead.
        // audit: allow(D008, reason = "one-shot convenience wrapper; hot callers reuse a buffer via score_with")
        let mut scratch = Vec::new();
        self.score_with(row, method, &mut scratch)
    }

    /// [`score`](CrossFeatureModel::score) with a caller-owned
    /// class-probability buffer, keeping repeated scoring allocation-free
    /// (`scratch` is cleared and reused internally).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.n_features()`.
    pub fn score_with(&self, row: &[u8], method: ScoreMethod, scratch: &mut Vec<f64>) -> f64 {
        assert_eq!(row.len(), self.n_features, "event width mismatch");
        self.score_all(row, method, scratch)
    }

    /// Scores using only the sub-models listed in `subset` — supports the
    /// paper's future-work question of how few sub-models suffice.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch, an empty subset, or out-of-range indices.
    pub fn score_subset(&self, row: &[u8], method: ScoreMethod, subset: &[usize]) -> f64 {
        assert_eq!(row.len(), self.n_features, "event width mismatch");
        assert!(!subset.is_empty(), "sub-model subset must be non-empty");
        // audit: allow(D008, reason = "one-shot convenience wrapper for subset studies; batch callers use scores_subset_with")
        let mut scratch = Vec::new();
        self.score_indices(row, method, subset, &mut scratch)
    }

    /// Scores `row` against every sub-model, reusing `scratch` for class
    /// probabilities — the zero-alloc inner loop of the batch scorers.
    fn score_all(&self, row: &[u8], method: ScoreMethod, scratch: &mut Vec<f64>) -> f64 {
        let mut total = 0.0;
        for (i, model) in self.sub_models.iter().enumerate() {
            total += self.one_model_score(model, row, i, method, scratch);
        }
        total / self.n_features as f64
    }

    /// Scores `row` against the sub-models named by `indices`.
    fn score_indices(
        &self,
        row: &[u8],
        method: ScoreMethod,
        indices: &[usize],
        scratch: &mut Vec<f64>,
    ) -> f64 {
        let mut total = 0.0;
        for &i in indices {
            // audit: allow(D006, reason = "indices come from select_informative over this very ensemble, so every i < sub_models.len()")
            total += self.one_model_score(&self.sub_models[i], row, i, method, scratch);
        }
        total / indices.len() as f64
    }

    /// One sub-model's contribution: does its prediction of feature `i`
    /// match the event (Algorithm 2), or how much probability does it give
    /// the true value (Algorithm 3)? Skips the labelled column in place —
    /// no row copy.
    #[inline]
    fn one_model_score(
        &self,
        model: &M,
        row: &[u8],
        i: usize,
        method: ScoreMethod,
        scratch: &mut Vec<f64>,
    ) -> f64 {
        // audit: allow(D006, reason = "i enumerates sub_models and row width == n_features is asserted at every public entry")
        let truth = row[i];
        match method {
            ScoreMethod::MatchCount => f64::from(model.predict_row(row, i, scratch) == truth),
            ScoreMethod::AvgProbability => model.prob_of_row(row, i, truth, scratch),
        }
    }

    /// Scores every row of a table, fanning the rows out across `par`
    /// threads in contiguous chunks. Each row's score is a deterministic
    /// function of the row alone, and chunk results are reassembled in row
    /// order, so the output is bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the table's width differs from the ensemble's.
    pub fn scores_with(
        &self,
        table: &NominalTable,
        method: ScoreMethod,
        par: Parallelism,
    ) -> Vec<f64> {
        assert_eq!(table.n_cols(), self.n_features, "event width mismatch");
        map_chunks(par, table.n_rows(), |range| {
            let mut row = Vec::with_capacity(self.n_features);
            let mut scratch = Vec::new();
            range
                .map(|r| {
                    table.copy_row_into(r, &mut row);
                    self.score_all(&row, method, &mut scratch)
                })
                .collect()
        })
    }

    /// Scores every row of a table against a sub-model subset, fanning the
    /// rows out across `par` threads (see [`CrossFeatureModel::scores_with`]).
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch, an empty subset, or out-of-range
    /// indices.
    pub fn scores_subset_with(
        &self,
        table: &NominalTable,
        method: ScoreMethod,
        subset: &[usize],
        par: Parallelism,
    ) -> Vec<f64> {
        assert_eq!(table.n_cols(), self.n_features, "event width mismatch");
        assert!(!subset.is_empty(), "sub-model subset must be non-empty");
        map_chunks(par, table.n_rows(), |range| {
            let mut row = Vec::with_capacity(self.n_features);
            let mut scratch = Vec::new();
            range
                .map(|r| {
                    table.copy_row_into(r, &mut row);
                    self.score_indices(&row, method, subset, &mut scratch)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa_ml::c45::C45;
    use cfa_ml::naive_bayes::NaiveBayes;

    /// Normal data where f0 == f1 and f2 is uniform noise.
    fn correlated_normal() -> NominalTable {
        let rows: Vec<Vec<u8>> = (0..90)
            .map(|i| {
                let a = (i % 2) as u8;
                vec![a, a, (i % 3) as u8]
            })
            .collect();
        NominalTable::new(
            vec!["a".into(), "b".into(), "noise".into()],
            vec![2, 2, 3],
            rows,
        )
        .unwrap()
    }

    #[test]
    fn normal_events_score_higher_than_violations() {
        let t = correlated_normal();
        for method in [ScoreMethod::MatchCount, ScoreMethod::AvgProbability] {
            let m = CrossFeatureModel::train(&C45::default(), &t);
            let normal = m.score(&[1, 1, 2], method);
            let abnormal = m.score(&[1, 0, 2], method);
            assert!(
                normal > abnormal,
                "{method:?}: normal {normal} should beat abnormal {abnormal}"
            );
        }
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let t = correlated_normal();
        let m = CrossFeatureModel::train(&NaiveBayes::default(), &t);
        for row in t.to_rows() {
            for method in [ScoreMethod::MatchCount, ScoreMethod::AvgProbability] {
                let s = m.score(&row, method);
                assert!((0.0..=1.0).contains(&s), "score {s} out of range");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_scores_or_models() {
        let t = correlated_normal();
        let serial =
            CrossFeatureModel::train_with(&NaiveBayes::default(), &t, Parallelism::serial());
        let threaded =
            CrossFeatureModel::train_with(&NaiveBayes::default(), &t, Parallelism::threads(4));
        for method in [ScoreMethod::MatchCount, ScoreMethod::AvgProbability] {
            let a = serial.scores_with(&t, method, Parallelism::serial());
            let b = threaded.scores_with(&t, method, Parallelism::threads(4));
            assert_eq!(a, b, "{method:?}: scores must be bit-identical");
        }
    }

    #[test]
    fn batch_subset_scores_match_single_event_scores() {
        let t = correlated_normal();
        let m = CrossFeatureModel::train(&C45::default(), &t);
        let subset = [0, 2];
        let batch = m.scores_subset_with(
            &t,
            ScoreMethod::AvgProbability,
            &subset,
            Parallelism::threads(3),
        );
        for (r, &s) in batch.iter().enumerate() {
            let single = m.score_subset(&t.row_vec(r), ScoreMethod::AvgProbability, &subset);
            assert_eq!(s, single, "row {r}");
        }
    }

    #[test]
    fn trains_one_model_per_feature() {
        let t = correlated_normal();
        let m = CrossFeatureModel::train(&NaiveBayes::default(), &t);
        assert_eq!(m.n_features(), 3);
        assert_eq!(m.sub_models().len(), 3);
    }

    #[test]
    fn subset_scoring_uses_selected_models_only() {
        let t = correlated_normal();
        let m = CrossFeatureModel::train(&C45::default(), &t);
        // Only the noise sub-model: the a/b violation becomes invisible.
        let s = m.score_subset(&[1, 0, 2], ScoreMethod::MatchCount, &[2]);
        let full = m.score(&[1, 0, 2], ScoreMethod::MatchCount);
        assert!(s >= full, "hiding the correlated models can only help");
    }

    #[test]
    #[should_panic(expected = "at least two features")]
    fn rejects_single_feature_tables() {
        let t = NominalTable::new(vec!["a".into()], vec![2], vec![vec![0]]).unwrap();
        let _ = CrossFeatureModel::train(&NaiveBayes::default(), &t);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width_events() {
        let t = correlated_normal();
        let m = CrossFeatureModel::train(&NaiveBayes::default(), &t);
        let _ = m.score(&[0, 0], ScoreMethod::MatchCount);
    }
}

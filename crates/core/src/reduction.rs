//! Model reduction: the paper's future-work direction.
//!
//! §6: *"We are developing technologies to reduce computational cost,
//! where fewer number of models are involved in the combination process
//! … based on both correlation analysis and factor analysis."*
//!
//! Two complementary tools are provided:
//!
//! * [`submodel_predictability`] — how well each labelled feature is
//!   predicted from the others on held-out normal data. Features that are
//!   barely predictable contribute mostly noise to the ensemble average;
//!   features that are perfectly constant contribute nothing.
//! * [`select_informative`] — picks the `k` sub-models whose labelled
//!   features are *predictable but not trivially constant*: exactly the
//!   ones whose violation carries anomaly signal.
//!
//! Scoring against a reduced ensemble uses
//! [`CrossFeatureModel::score_subset`](crate::CrossFeatureModel::score_subset).

use crate::model::CrossFeatureModel;
use crate::parallel::{map_chunks, Parallelism};
use cfa_ml::{Classifier, NominalTable};

/// Per-sub-model diagnostics on (held-out) normal data.
#[derive(Debug, Clone, PartialEq)]
pub struct SubModelStats {
    /// Index of the labelled feature.
    pub feature: usize,
    /// Mean probability assigned to the true value (Algorithm 3's
    /// per-model contribution).
    pub mean_true_prob: f64,
    /// Fraction of rows where the prediction matched (Algorithm 2's
    /// contribution).
    pub match_rate: f64,
    /// Number of distinct values the labelled feature takes in the data.
    pub distinct_values: usize,
}

impl SubModelStats {
    /// Whether the labelled feature is constant in the evaluation data —
    /// its sub-model is always "right" and carries no signal.
    pub fn is_degenerate(&self) -> bool {
        self.distinct_values <= 1
    }
}

/// Evaluates every sub-model of `model` against `normal` data.
///
/// # Panics
///
/// Panics if the table's width differs from the model's feature count or
/// the table is empty.
pub fn submodel_predictability<M: Classifier>(
    model: &CrossFeatureModel<M>,
    normal: &NominalTable,
) -> Vec<SubModelStats> {
    submodel_predictability_with(model, normal, Parallelism::default())
}

/// [`submodel_predictability`] with an explicit thread budget; the
/// per-feature evaluations are independent and fan out across `par`
/// threads.
///
/// # Panics
///
/// Panics if the table's width differs from the model's feature count or
/// the table is empty.
pub fn submodel_predictability_with<M: Classifier>(
    model: &CrossFeatureModel<M>,
    normal: &NominalTable,
    par: Parallelism,
) -> Vec<SubModelStats> {
    assert_eq!(
        normal.n_cols(),
        model.n_features(),
        "table width must match the ensemble"
    );
    assert!(normal.n_rows() > 0, "need evaluation rows");
    let n = normal.n_rows() as f64;
    map_chunks(par, model.n_features(), |features| {
        let mut row = Vec::with_capacity(normal.n_cols());
        let mut scratch = Vec::new();
        features
            .map(|i| {
                let sub = &model.sub_models()[i];
                let truths = normal.col(i);
                let mut prob_sum = 0.0;
                let mut matches = 0usize;
                let mut seen = std::collections::BTreeSet::new();
                for (r, &truth) in truths.iter().enumerate() {
                    normal.copy_row_into(r, &mut row);
                    prob_sum += sub.prob_of_row(&row, i, truth, &mut scratch);
                    if sub.predict_row(&row, i, &mut scratch) == truth {
                        matches += 1;
                    }
                    seen.insert(truth);
                }
                SubModelStats {
                    feature: i,
                    mean_true_prob: prob_sum / n,
                    match_rate: matches as f64 / n,
                    distinct_values: seen.len(),
                }
            })
            .collect()
    })
}

/// Selects up to `k` informative sub-model indices: non-degenerate
/// features, ranked by mean true-class probability on normal data
/// (most predictable first). Highly predictable non-constant features are
/// the strongest anomaly witnesses — an attack that perturbs them is
/// immediately visible, while unpredictable features only dilute the
/// ensemble average.
///
/// Returns fewer than `k` indices if fewer non-degenerate features exist;
/// the result is sorted by feature index.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn select_informative(stats: &[SubModelStats], k: usize) -> Vec<usize> {
    assert!(k > 0, "need at least one sub-model");
    let mut candidates: Vec<&SubModelStats> = stats.iter().filter(|s| !s.is_degenerate()).collect();
    candidates.sort_by(|a, b| {
        b.mean_true_prob
            .partial_cmp(&a.mean_true_prob)
            .expect("finite probabilities")
    });
    let mut selected: Vec<usize> = candidates.iter().take(k).map(|s| s.feature).collect();
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScoreMethod;
    use cfa_ml::naive_bayes::NaiveBayes;

    /// f0 == f1 (predictable), f2 noise, f3 constant.
    fn table() -> NominalTable {
        let rows: Vec<Vec<u8>> = (0..120)
            .map(|i| {
                let a = (i % 2) as u8;
                vec![a, a, (i % 5 % 3) as u8, 0]
            })
            .collect();
        NominalTable::new(
            vec!["a".into(), "b".into(), "noise".into(), "const".into()],
            vec![2, 2, 3, 1],
            rows,
        )
        .unwrap()
    }

    #[test]
    fn predictability_ranks_correlated_features_highest() {
        let t = table();
        let model = CrossFeatureModel::train(&NaiveBayes::default(), &t);
        let stats = submodel_predictability(&model, &t);
        assert_eq!(stats.len(), 4);
        // a and b predict each other perfectly; noise does not.
        assert!(stats[0].mean_true_prob > stats[2].mean_true_prob);
        assert!(stats[1].mean_true_prob > stats[2].mean_true_prob);
        assert!(stats[0].match_rate > 0.95);
        assert!(stats[3].is_degenerate(), "constant feature is degenerate");
        assert!(!stats[0].is_degenerate());
    }

    #[test]
    fn selection_prefers_predictable_non_constant_features() {
        let t = table();
        let model = CrossFeatureModel::train(&NaiveBayes::default(), &t);
        let stats = submodel_predictability(&model, &t);
        let top2 = select_informative(&stats, 2);
        assert_eq!(top2, vec![0, 1], "the correlated pair wins");
        // Degenerate features never selected even with a large budget.
        let all = select_informative(&stats, 10);
        assert!(!all.contains(&3));
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn reduced_ensemble_still_detects_violations() {
        let t = table();
        let model = CrossFeatureModel::train(&NaiveBayes::default(), &t);
        let stats = submodel_predictability(&model, &t);
        let subset = select_informative(&stats, 2);
        let normal = model.score_subset(&[1, 1, 0, 0], ScoreMethod::AvgProbability, &subset);
        let abnormal = model.score_subset(&[1, 0, 0, 0], ScoreMethod::AvgProbability, &subset);
        assert!(
            normal > abnormal + 0.2,
            "2-model ensemble separates: {normal:.3} vs {abnormal:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sub-model")]
    fn rejects_zero_budget() {
        let _ = select_informative(&[], 0);
    }
}

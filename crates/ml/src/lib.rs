//! # cfa-ml
//!
//! From-scratch inductive learners with calibrated class probabilities —
//! the three classifier families the paper evaluates:
//!
//! * [`c45::C45`] — a decision-tree learner in the style of Quinlan's C4.5:
//!   multiway splits on nominal attributes chosen by gain ratio, with
//!   pessimistic-error pruning; leaves expose Laplace-smoothed class
//!   frequencies.
//! * [`ripper::Ripper`] — an ordered-rule learner in the style of Cohen's
//!   RIPPER (IREP*): per-class grow/prune rule induction with FOIL gain,
//!   classes processed from rarest to most frequent, the last class as
//!   default.
//! * [`naive_bayes::NaiveBayes`] — a categorical naive Bayes classifier
//!   with Laplace smoothing, exactly the probability form given in §3 of
//!   the paper.
//!
//! All learners consume [`NominalTable`]s — datasets of discrete (nominal)
//! attributes, stored column-major — through the [`Learner`] trait and
//! produce [`Classifier`]s whose probability output feeds the
//! cross-feature analysis combiner (Algorithm 3 of the paper).
//!
//! ## Prediction without allocation
//!
//! The ensemble asks `L` sub-models about every event, so the prediction
//! path avoids per-call allocation: [`Classifier::class_probs_into`] writes
//! into a caller-owned buffer and takes the *full-width* row together with
//! the index of the class column to skip in place (no row copy to delete
//! one entry). Bare attribute vectors — rows that never contained a class
//! column — use the [`NO_CLASS`] sentinel, which is what the allocating
//! convenience wrappers ([`Classifier::class_probs`], [`Classifier::predict`],
//! [`Classifier::prob_of`]) pass.
//!
//! # Example
//!
//! ```
//! use cfa_ml::{Learner, Classifier, NominalTable, c45::C45};
//!
//! // Toy data: class = attr0 AND attr1.
//! let rows = vec![
//!     vec![0, 0, 0], vec![0, 1, 0], vec![1, 0, 0], vec![1, 1, 1],
//!     vec![0, 0, 0], vec![0, 1, 0], vec![1, 0, 0], vec![1, 1, 1],
//! ];
//! let table = NominalTable::new(
//!     vec!["a".into(), "b".into(), "and".into()],
//!     vec![2, 2, 2],
//!     rows,
//! ).unwrap();
//! let model = C45::default().fit(&table, 2);
//! assert_eq!(model.predict(&[0, 1]), 0);
//! assert_eq!(model.predict(&[1, 1]), 1);
//!
//! // Zero-alloc path: full-width row, class column skipped in place.
//! let mut scratch = Vec::new();
//! assert_eq!(model.predict_row(&[1, 1, 0], 2, &mut scratch), 1);
//! ```

pub mod c45;
pub mod compiled;
pub mod dataset;
pub mod naive_bayes;
pub mod persist;
pub mod ripper;

pub use c45::C45;
pub use compiled::{CompiledEnsemble, CompiledModel, ScoreMethod};
pub use dataset::{DatasetError, NominalTable};
pub use naive_bayes::NaiveBayes;
pub use persist::{AnyLearner, AnyModel, Persist, PersistError};
pub use ripper::Ripper;

/// Sentinel class-column index meaning "this row is a bare attribute
/// vector; skip nothing".
pub const NO_CLASS: usize = usize::MAX;

/// Maps attribute index `attr` (in class-column-removed order) to its
/// position in a full-width row whose class column is `class_col`.
///
/// With `class_col == `[`NO_CLASS`] this is the identity, so bare
/// attribute vectors need no special casing at call sites.
#[inline]
pub fn attr_index(attr: usize, class_col: usize) -> usize {
    attr + usize::from(attr >= class_col)
}

/// Asserts that a row of `row_len` values carries exactly `n_attrs`
/// attributes once the class column (if any) is discounted.
#[inline]
fn check_row_width(row_len: usize, class_col: usize, n_attrs: usize) {
    let expected = n_attrs + usize::from(class_col != NO_CLASS);
    assert_eq!(row_len, expected, "attribute vector length mismatch");
}

/// Index of the largest probability, ties broken towards the *last*
/// maximum (the behaviour of `Iterator::max_by`, which the trait's original
/// allocating `predict` used — kept so refactoring cannot flip tie-broken
/// predictions).
#[inline]
fn argmax_last(probs: &[f64]) -> u8 {
    let mut best = 0usize;
    let mut best_p = f64::NEG_INFINITY;
    for (i, &p) in probs.iter().enumerate() {
        if p >= best_p {
            best = i;
            best_p = p;
        }
    }
    best as u8
}

/// A trained model over nominal attributes.
///
/// Models are shared immutably across the ensemble's worker threads, hence
/// the `Send + Sync` bound.
///
/// The one required method is [`Classifier::class_probs_into`]: it reads a
/// *full-width* row and skips the class column in place, writing the class
/// distribution into a caller-owned buffer. Everything else — allocating
/// conveniences over bare attribute vectors, argmax prediction, single-class
/// probability lookup — has default implementations in terms of it.
pub trait Classifier: Send + Sync {
    /// Number of classes the model distinguishes.
    fn n_classes(&self) -> usize;

    /// Writes the estimated class distribution for `row` into `out`
    /// (cleared first; ends with length [`Classifier::n_classes`], summing
    /// to 1 within floating-point error).
    ///
    /// `row` is a full-width table row whose entry at `class_col` is
    /// ignored; pass [`NO_CLASS`] when `row` is a bare attribute vector in
    /// the order the learner saw during [`Learner::fit`].
    fn class_probs_into(&self, row: &[u8], class_col: usize, out: &mut Vec<f64>);

    /// Estimated probability distribution over classes for the bare
    /// attribute vector `x`. Allocates; batch loops should prefer
    /// [`Classifier::class_probs_into`].
    fn class_probs(&self, x: &[u8]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_classes());
        self.class_probs_into(x, NO_CLASS, &mut out);
        out
    }

    /// The most probable class for full-width `row`, skipping `class_col`
    /// in place. `scratch` is a reusable probability buffer; no allocation
    /// happens once it has capacity [`Classifier::n_classes`].
    fn predict_row(&self, row: &[u8], class_col: usize, scratch: &mut Vec<f64>) -> u8 {
        self.class_probs_into(row, class_col, scratch);
        argmax_last(scratch)
    }

    /// The most probable class for the bare attribute vector `x`.
    fn predict(&self, x: &[u8]) -> u8 {
        // audit: allow(D008, reason = "one-shot convenience wrapper; batch loops call predict_row with a reused scratch buffer")
        let mut scratch = Vec::with_capacity(self.n_classes());
        self.predict_row(x, NO_CLASS, &mut scratch)
    }

    /// Estimated probability of `class` for full-width `row`, skipping
    /// `class_col` in place. Zero-alloc analogue of [`Classifier::prob_of`];
    /// this is the `p(f_i(x) | x)` of the paper's Algorithm 3.
    fn prob_of_row(&self, row: &[u8], class_col: usize, class: u8, scratch: &mut Vec<f64>) -> f64 {
        self.class_probs_into(row, class_col, scratch);
        scratch.get(class as usize).copied().unwrap_or(0.0)
    }

    /// Estimated probability of a specific class for the bare attribute
    /// vector `x`.
    fn prob_of(&self, x: &[u8], class: u8) -> f64 {
        // audit: allow(D008, reason = "one-shot convenience wrapper; batch loops call prob_of_row with a reused scratch buffer")
        let mut scratch = Vec::with_capacity(self.n_classes());
        self.prob_of_row(x, NO_CLASS, class, &mut scratch)
    }
}

/// A learning algorithm that fits a [`Classifier`] predicting one column of
/// a [`NominalTable`] from all the others.
pub trait Learner {
    /// The model type this learner produces.
    type Model: Classifier;

    /// Fits a model predicting column `class_col` from the remaining
    /// columns (in their original order, with `class_col` removed).
    ///
    /// # Panics
    ///
    /// Panics if `class_col` is out of range or the table has no rows.
    fn fit(&self, table: &NominalTable, class_col: usize) -> Self::Model;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    struct Fixed(Vec<f64>);
    impl Classifier for Fixed {
        fn n_classes(&self) -> usize {
            self.0.len()
        }
        fn class_probs_into(&self, row: &[u8], class_col: usize, out: &mut Vec<f64>) {
            check_row_width(row.len(), class_col, 0);
            out.clear();
            out.extend_from_slice(&self.0);
        }
    }

    #[test]
    fn predict_is_argmax_of_probs() {
        let c = Fixed(vec![0.1, 0.7, 0.2]);
        assert_eq!(c.predict(&[]), 1);
        assert!((c.prob_of(&[], 2) - 0.2).abs() < 1e-12);
        assert_eq!(c.prob_of(&[], 9), 0.0);
    }

    #[test]
    fn predict_breaks_ties_towards_the_last_maximum() {
        // `Iterator::max_by` (the original implementation) returns the last
        // of equal maxima; argmax_last must agree.
        let c = Fixed(vec![0.4, 0.4, 0.2]);
        assert_eq!(c.predict(&[]), 1);
    }

    #[test]
    fn row_variants_skip_the_class_column() {
        let c = Fixed(vec![0.3, 0.7]);
        let mut scratch = Vec::new();
        assert_eq!(c.predict_row(&[9], 0, &mut scratch), 1);
        assert!((c.prob_of_row(&[9], 0, 0, &mut scratch) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn attr_index_skips_the_class_column() {
        assert_eq!(attr_index(0, 2), 0);
        assert_eq!(attr_index(1, 2), 1);
        assert_eq!(attr_index(2, 2), 3);
        assert_eq!(attr_index(0, 0), 1);
        assert_eq!(attr_index(5, NO_CLASS), 5);
    }

    #[test]
    fn classifiers_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnyModel>();
    }
}

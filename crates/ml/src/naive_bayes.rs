//! Categorical naive Bayes.
//!
//! Implements exactly the probability model the paper quotes for NBC:
//! score `n(ℓᵢ|x) = p(ℓᵢ) ∏ⱼ p(aⱼ|ℓᵢ)` normalised to
//! `p(ℓᵢ|x) = n(ℓᵢ|x) / Σₖ n(ℓₖ|x)`, with Laplace smoothing of the
//! per-attribute conditionals so unseen attribute values never zero out a
//! class.

use crate::dataset::NominalTable;
use crate::{attr_index, check_row_width, Classifier, Learner};

/// The naive Bayes learning algorithm (stateless; configuration lives in
/// the smoothing constant).
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    /// Additive (Laplace) smoothing constant.
    pub alpha: f64,
}

impl Default for NaiveBayes {
    fn default() -> Self {
        NaiveBayes { alpha: 1.0 }
    }
}

/// A fitted naive Bayes model.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayesModel {
    n_classes: usize,
    /// Log prior per class.
    log_prior: Vec<f64>,
    /// `log_cond[attr][class * card + value]` = log p(value | class).
    log_cond: Vec<Vec<f64>>,
    /// Cardinality per attribute (class column removed).
    attr_cards: Vec<usize>,
}

impl Learner for NaiveBayes {
    type Model = NaiveBayesModel;

    fn fit(&self, table: &NominalTable, class_col: usize) -> NaiveBayesModel {
        assert!(class_col < table.n_cols(), "class column out of range");
        assert!(table.n_rows() > 0, "cannot fit on an empty table");
        let n_classes = table.cards().get(class_col).copied().unwrap_or(0);
        let attr_cards: Vec<usize> = table
            .cards()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != class_col)
            .map(|(_, &c)| c)
            .collect();
        let n = table.n_rows() as f64;
        let alpha = self.alpha.max(1e-12);

        // Counting is one linear scan per column: the class column once for
        // the priors, then each attribute column zipped against it.
        // Counting stays panic-free under malformed values: a value past
        // its declared cardinality is dropped rather than indexed.
        let y = table.col(class_col);
        // audit: allow(D012, reason = "conservative dispatch false positive: the serve read loop's buf.get_mut(filled..) binds to every workspace get_mut, smearing network taint onto cards().get(); n_classes comes from the table's declared cardinalities, not wire bytes")
        let mut class_counts = vec![0usize; n_classes];
        for &c in y {
            if let Some(slot) = class_counts.get_mut(c as usize) {
                *slot += 1;
            }
        }
        let cond_counts: Vec<Vec<usize>> = attr_cards
            .iter()
            .enumerate()
            .map(|(a, &card)| {
                let col = table.col(attr_index(a, class_col));
                // audit: allow(D012, reason = "same conservative-dispatch chain as class_counts above; card and n_classes are validated table cardinalities")
                let mut counts = vec![0usize; n_classes * card];
                for (&v, &c) in col.iter().zip(y) {
                    if let Some(slot) = counts.get_mut(c as usize * card + v as usize) {
                        *slot += 1;
                    }
                }
                counts
            })
            .collect();
        let log_prior = class_counts
            .iter()
            .map(|&c| ((c as f64 + alpha) / (n + alpha * n_classes as f64)).ln())
            .collect();
        let log_cond = cond_counts
            .iter()
            .zip(&attr_cards)
            .map(|(counts, &card)| {
                counts
                    .iter()
                    .enumerate()
                    .map(|(idx, &cnt)| {
                        // counts.len() == n_classes * card, so idx / card
                        // is the class this cell conditions on.
                        let class_n = class_counts.get(idx / card).copied().unwrap_or(0) as f64;
                        ((cnt as f64 + alpha) / (class_n + alpha * card as f64)).ln()
                    })
                    .collect()
            })
            .collect();
        NaiveBayesModel {
            n_classes,
            log_prior,
            log_cond,
            attr_cards,
        }
    }
}

impl NaiveBayesModel {
    /// Number of attributes the model conditions on (class column removed).
    pub(crate) fn n_attrs(&self) -> usize {
        self.attr_cards.len()
    }

    /// Lowers the model into its value-major compiled form for full-width
    /// rows whose class column is `class_col`. The table entries are the
    /// trained log-conditionals verbatim (only re-laid-out), so the
    /// compiled accumulation adds the same values in the same order and
    /// the scores are bit-identical.
    pub(crate) fn lower(&self, class_col: usize) -> crate::compiled::CompiledBayes {
        use crate::compiled::{clamp_for, BayesAttr, CompiledBayes};
        let k = self.n_classes;
        let mut table = Vec::new();
        let mut attrs = Vec::with_capacity(self.attr_cards.len());
        for (a, &card) in self.attr_cards.iter().enumerate() {
            // Row bytes clamp to min(card - 1, 255): values past 255 are
            // unreachable, so their columns need no storage.
            let stored = card.min(256);
            // audit: allow(D006, reason = "table length is bounded by cards × classes of a trained model, far below u32::MAX")
            let offset = u32::try_from(table.len()).expect("table offset fits u32");
            for v in 0..stored {
                for class in 0..k {
                    // audit: allow(D006, reason = "a and class*card+v enumerate the trained log_cond layout, in range by construction")
                    table.push(self.log_cond[a][class * card + v]);
                }
            }
            attrs.push(BayesAttr {
                // audit: allow(D006, reason = "column index is bounded by the feature schema width, far below u32::MAX")
                col: u32::try_from(attr_index(a, class_col)).expect("column index fits u32"),
                clamp: clamp_for(card),
                offset,
            });
        }
        CompiledBayes {
            log_prior: self.log_prior.clone(),
            table,
            attrs,
            n_classes: k,
        }
    }
}

impl Classifier for NaiveBayesModel {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn class_probs_into(&self, row: &[u8], class_col: usize, out: &mut Vec<f64>) {
        check_row_width(row.len(), class_col, self.attr_cards.len());
        out.clear();
        out.extend_from_slice(&self.log_prior);
        for (a, (table, &card)) in self.log_cond.iter().zip(&self.attr_cards).enumerate() {
            if card == 0 {
                continue;
            }
            let v = row.get(attr_index(a, class_col)).copied().unwrap_or(0);
            // Clamp unseen (out-of-domain) values to the last bucket.
            let v = (v as usize).min(card - 1);
            // The table is class-major (`class * card + v`), so each
            // card-wide chunk is one class's conditionals.
            for (score, cond) in out.iter_mut().zip(table.chunks_exact(card)) {
                *score += cond.get(v).copied().unwrap_or(0.0);
            }
        }
        // Softmax-normalise in a numerically stable way.
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for s in out.iter_mut() {
            *s = (*s - max).exp();
        }
        let sum: f64 = out.iter().sum();
        for p in out.iter_mut() {
            *p /= sum;
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

use crate::persist::{
    read_vec_usize, write_vec_f64, write_vec_usize, Persist, PersistError, Reader, Writer,
};

impl Persist for NaiveBayesModel {
    fn write_into(&self, w: &mut Writer) {
        w.u32(u32::try_from(self.n_classes).expect("class count fits u32"));
        write_vec_f64(w, &self.log_prior);
        write_vec_usize(w, &self.attr_cards);
        w.seq_len(self.log_cond.len());
        for table in &self.log_cond {
            write_vec_f64(w, table);
        }
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        let n_classes = r.u32()? as usize;
        if n_classes == 0 || n_classes > 256 {
            return Err(PersistError::Malformed(
                "naive Bayes class count out of range",
            ));
        }
        let log_prior = r.vec_f64()?;
        if log_prior.len() != n_classes {
            return Err(PersistError::Malformed("naive Bayes prior width mismatch"));
        }
        let attr_cards = read_vec_usize(r)?;
        if attr_cards.contains(&0) {
            // Training never produces one (`NominalTable` rejects it),
            // and its empty table block has no addend to score with.
            return Err(PersistError::Malformed(
                "naive Bayes attribute cardinality is zero",
            ));
        }
        let n_attrs = r.seq_len(4)?;
        if n_attrs != attr_cards.len() {
            return Err(PersistError::Malformed(
                "naive Bayes conditional table count != attr count",
            ));
        }
        let mut log_cond = Vec::with_capacity(n_attrs);
        for card in &attr_cards {
            let table = r.vec_f64()?;
            if table.len() != n_classes * card {
                return Err(PersistError::Malformed(
                    "naive Bayes conditional table size mismatch",
                ));
            }
            log_cond.push(table);
        }
        Ok(NaiveBayesModel {
            n_classes,
            log_prior,
            log_cond,
            attr_cards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: Vec<Vec<u8>>, cards: Vec<usize>) -> NominalTable {
        let names = (0..cards.len()).map(|i| format!("f{i}")).collect();
        NominalTable::new(names, cards, rows).unwrap()
    }

    #[test]
    fn learns_a_deterministic_mapping() {
        // class == attr0.
        let t = table(
            vec![vec![0, 0], vec![0, 0], vec![1, 1], vec![1, 1]],
            vec![2, 2],
        );
        let m = NaiveBayes::default().fit(&t, 1);
        assert_eq!(m.predict(&[0]), 0);
        assert_eq!(m.predict(&[1]), 1);
        // With Laplace alpha=1 on 4 rows the posterior is exactly 0.75.
        assert!((m.prob_of(&[1], 1) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn probs_sum_to_one() {
        let t = table(
            vec![vec![0, 1, 0], vec![1, 0, 1], vec![0, 0, 1], vec![1, 1, 0]],
            vec![2, 2, 2],
        );
        let m = NaiveBayes::default().fit(&t, 2);
        for x in [[0, 0], [0, 1], [1, 0], [1, 1]] {
            let p = m.class_probs(&x);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v > 0.0), "smoothing keeps probs positive");
        }
    }

    #[test]
    fn respects_class_priors() {
        // 3:1 prior for class 0, attribute carries no information.
        let t = table(
            vec![vec![0, 0], vec![0, 0], vec![0, 0], vec![0, 1]],
            vec![1, 2],
        );
        let m = NaiveBayes::default().fit(&t, 1);
        let p = m.class_probs(&[0]);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn unseen_values_are_handled_via_smoothing() {
        let t = table(vec![vec![0, 0], vec![1, 1]], vec![3, 2]);
        let m = NaiveBayes::default().fit(&t, 1);
        // Value 2 never appeared in training.
        let p = m.class_probs(&[2]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiclass_output() {
        let t = table(
            vec![
                vec![0, 0],
                vec![1, 1],
                vec![2, 2],
                vec![0, 0],
                vec![1, 1],
                vec![2, 2],
            ],
            vec![3, 3],
        );
        let m = NaiveBayes::default().fit(&t, 1);
        assert_eq!(m.n_classes(), 3);
        assert_eq!(m.predict(&[2]), 2);
    }

    #[test]
    fn full_row_and_bare_attr_paths_agree_bitwise() {
        let t = table(
            vec![
                vec![0, 1, 0],
                vec![1, 0, 1],
                vec![0, 0, 1],
                vec![1, 1, 0],
                vec![1, 1, 1],
            ],
            vec![2, 2, 2],
        );
        for class_col in 0..3 {
            let m = NaiveBayes::default().fit(&t, class_col);
            let mut out = Vec::new();
            for r in 0..t.n_rows() {
                let full = t.row_vec(r);
                let mut attrs = Vec::new();
                NominalTable::split_row_into(&full, class_col, &mut attrs);
                m.class_probs_into(&full, class_col, &mut out);
                assert_eq!(out, m.class_probs(&attrs), "row {r}, class_col {class_col}");
            }
        }
    }

    #[test]
    fn zero_cardinality_attributes_are_rejected_at_decode() {
        // Only a crafted artifact can carry cardinality 0: first or last.
        for attr_cards in [vec![0, 2], vec![2, 0]] {
            let log_cond = attr_cards
                .iter()
                .map(|&card| vec![-0.7; 2 * card])
                .collect();
            let model = NaiveBayesModel {
                n_classes: 2,
                log_prior: vec![-0.5, -1.0],
                log_cond,
                attr_cards,
            };
            assert!(matches!(
                NaiveBayesModel::from_bytes(&model.to_bytes()),
                Err(PersistError::Malformed(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn rejects_empty_training_set() {
        let t = table(vec![], vec![2, 2]);
        let _ = NaiveBayes::default().fit(&t, 1);
    }
}

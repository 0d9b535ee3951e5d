//! A RIPPER-style ordered-rule learner (Cohen's *Repeated Incremental
//! Pruning to Produce Error Reduction*, simplified to its IREP* core).
//!
//! Classes are processed from rarest to most frequent; for each class,
//! rules are grown condition-by-condition to maximise FOIL gain on a
//! growing set, then greedily pruned on a held-out pruning set, until new
//! rules stop being better than chance. Examples covered by accepted rules
//! are removed and the most frequent class becomes the default. Each rule
//! remembers the class distribution of the training rows it captures
//! (first-match), so the model emits calibrated probabilities — the paper
//! computes RIPPER probabilities "in a similar way" to C4.5's leaf
//! frequencies, and found that this probability output dramatically
//! improves RIPPER's detection accuracy (Figure 2).

use crate::dataset::NominalTable;
use crate::{attr_index, check_row_width, Classifier, Learner};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One conjunctive rule: `attr == value ∧ …  →  class`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Conjunction of `(attribute index, required value)` tests.
    pub conds: Vec<(usize, u8)>,
    /// Predicted class.
    pub class: u8,
    /// Class distribution of training rows captured by this rule
    /// (first-match semantics), used for probability output.
    pub counts: Vec<u32>,
}

impl Rule {
    /// Whether the rule's conditions all hold for the bare attribute
    /// vector `x`.
    pub fn matches(&self, x: &[u8]) -> bool {
        self.conds.iter().all(|&(a, v)| x[a] == v)
    }

    /// Whether the rule's conditions all hold for a full-width `row`,
    /// skipping `class_col` in place.
    fn matches_row(&self, row: &[u8], class_col: usize) -> bool {
        self.conds
            .iter()
            // audit: allow(D006, reason = "both callers run check_row_width first, and read_from rejects a cond attr >= the attribute count")
            .all(|&(a, v)| row[attr_index(a, class_col)] == v)
    }
}

/// Configuration for the RIPPER learner.
#[derive(Debug, Clone)]
pub struct Ripper {
    /// Fraction of data held out for rule pruning (Cohen uses 1/3).
    pub prune_fraction: f64,
    /// Maximum conditions per rule (guards degenerate growth).
    pub max_conds: usize,
    /// Seed for the grow/prune shuffles (training is fully deterministic
    /// for a fixed seed).
    pub seed: u64,
    /// Cap on rows considered per rule (grow + prune). Rule growth cost is
    /// linear in this; a few thousand rows are ample to find good
    /// conditions. `usize::MAX` disables the cap.
    pub max_rule_rows: usize,
}

impl Default for Ripper {
    fn default() -> Self {
        Ripper {
            prune_fraction: 1.0 / 3.0,
            max_conds: 16,
            seed: 0x5EED,
            max_rule_rows: 6000,
        }
    }
}

/// A fitted ordered rule list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RipperModel {
    rules: Vec<Rule>,
    default_counts: Vec<u32>,
    n_classes: usize,
    n_attrs: usize,
}

impl RipperModel {
    /// The learned rules, in match order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of attributes the rules can test (class column removed).
    pub(crate) fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Lowers the rule list into its packed compiled form for full-width
    /// rows whose class column is `class_col`. Distributions and the
    /// default class are the exact expressions of `class_probs_into` /
    /// `predict_row`, evaluated once here, so compiled output is
    /// bit-identical (including `max_by_key`'s last-maximum default).
    pub(crate) fn lower(&self, class_col: usize) -> crate::compiled::CompiledRules {
        use crate::compiled::{push_laplace, CompiledRules};
        let k = self.n_classes;
        let mut conds = Vec::new();
        let mut bounds = Vec::with_capacity(self.rules.len() + 1);
        bounds.push(0u32);
        let mut probs = Vec::with_capacity((self.rules.len() + 1) * k);
        let mut preds = Vec::with_capacity(self.rules.len() + 1);
        for rule in &self.rules {
            for &(attr, value) in &rule.conds {
                let col = attr_index(attr, class_col);
                assert!(col < (1 << 24), "column index fits 24 bits");
                conds.push((col as u32) << 8 | u32::from(value));
            }
            // audit: allow(D006, reason = "condition count is bounded by the trained rule set size, far below u32::MAX")
            bounds.push(u32::try_from(conds.len()).expect("condition count fits u32"));
            push_laplace(&mut probs, &rule.counts, k);
            preds.push(rule.class);
        }
        push_laplace(&mut probs, &self.default_counts, k);
        preds.push(
            self.default_counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(i, _)| i as u8)
                .unwrap_or(0),
        );
        CompiledRules {
            conds,
            bounds,
            probs,
            preds,
            n_classes: k,
        }
    }
}

/// Whether `conds` all hold for row `i` of the columnar training view.
fn covers_at(conds: &[(usize, u8)], cols: &[&[u8]], i: usize) -> bool {
    conds.iter().all(|&(a, v)| cols[a][i] == v)
}

/// FOIL information gain of refining a rule from coverage `(p0, n0)` to
/// `(p1, n1)` (positives / negatives).
fn foil_gain(p0: f64, n0: f64, p1: f64, n1: f64) -> f64 {
    if p1 <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let i0 = (p0 / (p0 + n0)).log2();
    let i1 = (p1 / (p1 + n1)).log2();
    p1 * (i1 - i0)
}

/// Rule-value metric on the pruning set: `(p − n) / (p + n)`, Cohen's
/// IREP* pruning criterion.
fn prune_value(p: usize, n: usize) -> f64 {
    if p + n == 0 {
        // An uncovering rule is worthless but not actively harmful.
        -1.0
    } else {
        (p as f64 - n as f64) / (p + n) as f64
    }
}

struct ClassTrainer<'a> {
    /// Attribute columns (class column removed), borrowed from the table.
    cols: &'a [&'a [u8]],
    /// Class column, borrowed from the table.
    y: &'a [u8],
    attr_cards: &'a [usize],
    cfg: &'a Ripper,
    target: u8,
}

impl ClassTrainer<'_> {
    /// Grows one rule on `grow` (indices into `rows`), maximising FOIL gain.
    fn grow_rule(&self, grow: &[usize]) -> Vec<(usize, u8)> {
        let mut conds: Vec<(usize, u8)> = Vec::new();
        let mut covered: Vec<usize> = grow.to_vec();
        loop {
            let pos_count = covered
                .iter()
                .filter(|&&i| self.y[i] == self.target)
                .count();
            let neg_count = covered.len() - pos_count;
            if neg_count == 0 || conds.len() >= self.cfg.max_conds {
                break; // pure (or bounded): stop refining
            }
            let (p0, n0) = (pos_count as f64, neg_count as f64);
            // One counting pass over the covered rows computes (p, n) for
            // every (attribute, value) candidate simultaneously.
            let offsets: Vec<usize> = self
                .attr_cards
                .iter()
                .scan(0usize, |acc, &c| {
                    let o = *acc;
                    *acc += c;
                    Some(o)
                })
                .collect();
            let total: usize = self.attr_cards.iter().sum();
            let mut pos = vec![0u32; total];
            let mut neg = vec![0u32; total];
            for &i in &covered {
                let is_pos = self.y[i] == self.target;
                for (a, col) in self.cols.iter().enumerate() {
                    let slot = offsets[a] + col[i] as usize;
                    if is_pos {
                        pos[slot] += 1;
                    } else {
                        neg[slot] += 1;
                    }
                }
            }
            let mut best: Option<((usize, u8), f64)> = None;
            #[allow(clippy::needless_range_loop)] // a indexes conds/offsets/cards together
            for a in 0..self.attr_cards.len() {
                if conds.iter().any(|&(ca, _)| ca == a) {
                    continue;
                }
                for v in 0..self.attr_cards[a] as u8 {
                    let slot = offsets[a] + v as usize;
                    let gain = foil_gain(p0, n0, f64::from(pos[slot]), f64::from(neg[slot]));
                    if gain > best.map_or(1e-10, |b| b.1) {
                        best = Some(((a, v), gain));
                    }
                }
            }
            let Some(((a, v), _)) = best else { break };
            conds.push((a, v));
            let col = self.cols[a];
            covered.retain(|&i| col[i] == v);
        }
        conds
    }

    /// Greedily deletes trailing conditions while the prune-set value
    /// improves; returns the best prefix.
    fn prune_rule(&self, conds: Vec<(usize, u8)>, prune: &[usize]) -> Vec<(usize, u8)> {
        let value_of = |prefix: &[(usize, u8)]| {
            let (mut p, mut n) = (0usize, 0usize);
            for &i in prune {
                if covers_at(prefix, self.cols, i) {
                    if self.y[i] == self.target {
                        p += 1;
                    } else {
                        n += 1;
                    }
                }
            }
            prune_value(p, n)
        };
        let mut best_len = conds.len();
        let mut best_val = value_of(&conds);
        for len in (1..conds.len()).rev() {
            let val = value_of(&conds[..len]);
            if val >= best_val {
                best_val = val;
                best_len = len;
            }
        }
        let mut conds = conds;
        conds.truncate(best_len);
        conds
    }

    /// Accuracy of the rule on the pruning set (positives / covered).
    fn prune_accuracy(&self, conds: &[(usize, u8)], prune: &[usize]) -> f64 {
        let (mut p, mut n) = (0usize, 0usize);
        for &i in prune {
            if covers_at(conds, self.cols, i) {
                if self.y[i] == self.target {
                    p += 1;
                } else {
                    n += 1;
                }
            }
        }
        if p + n == 0 {
            0.0
        } else {
            p as f64 / (p + n) as f64
        }
    }
}

impl Learner for Ripper {
    type Model = RipperModel;

    fn fit(&self, table: &NominalTable, class_col: usize) -> RipperModel {
        assert!(class_col < table.n_cols(), "class column out of range");
        assert!(table.n_rows() > 0, "cannot fit on an empty table");
        let n_classes = table.cards()[class_col];
        let attr_cards: Vec<usize> = table
            .cards()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != class_col)
            .map(|(_, &c)| c)
            .collect();
        // Borrow columns straight out of the columnar table: no row
        // materialisation, every coverage test reads contiguous slices.
        let cols: Vec<&[u8]> = (0..attr_cards.len())
            .map(|a| table.col(attr_index(a, class_col)))
            .collect();
        let y = table.col(class_col);

        // Order classes rarest-first; the most frequent becomes the default.
        let mut class_freq = vec![0usize; n_classes];
        for &c in y {
            class_freq[c as usize] += 1;
        }
        let mut order: Vec<u8> = (0..n_classes as u8).collect();
        order.sort_by_key(|&c| (class_freq[c as usize], c));
        let ordered_targets = &order[..n_classes.saturating_sub(1)];

        let mut remaining: Vec<usize> = (0..table.n_rows()).collect();
        let mut rules: Vec<Rule> = Vec::new();
        let prune_every = (1.0 / self.prune_fraction.clamp(0.05, 0.95))
            .round()
            .max(2.0) as usize;

        for &target in ordered_targets {
            let trainer = ClassTrainer {
                cols: &cols,
                y,
                attr_cards: &attr_cards,
                cfg: self,
                target,
            };
            loop {
                let positives = remaining.iter().filter(|&&i| y[i] == target).count();
                if positives == 0 {
                    break;
                }
                // Stratified grow/prune split over a *shuffled* order
                // (seeded, so training stays deterministic). A purely
                // modular split can resonate with structured row order and
                // starve one set of whole feature patterns.
                let mut shuffled = remaining.clone();
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    self.seed ^ (rules.len() as u64) << 8 ^ target as u64,
                );
                shuffled.shuffle(&mut rng);
                shuffled.truncate(self.max_rule_rows.max(16));
                let (mut grow, mut prune) = (Vec::new(), Vec::new());
                let (mut kp, mut kn) = (0usize, 0usize);
                for &i in &shuffled {
                    let k = if y[i] == target {
                        kp += 1;
                        kp
                    } else {
                        kn += 1;
                        kn
                    };
                    if k % prune_every == 0 {
                        prune.push(i);
                    } else {
                        grow.push(i);
                    }
                }
                if prune.iter().all(|&i| y[i] != target) {
                    // Too few positives to hold any out: evaluate on grow.
                    prune = grow.clone();
                }
                let conds = trainer.grow_rule(&grow);
                if conds.is_empty() {
                    break;
                }
                let conds = trainer.prune_rule(conds, &prune);
                // Accept while better than chance on held-out data.
                if trainer.prune_accuracy(&conds, &prune) <= 0.5 {
                    break;
                }
                remaining.retain(|&i| !covers_at(&conds, &cols, i));
                rules.push(Rule {
                    conds,
                    class: target,
                    counts: vec![0; n_classes],
                });
            }
        }

        // Default distribution from leftover rows (global if none left).
        let mut default_counts = vec![0u32; n_classes];
        if remaining.is_empty() {
            for &c in y {
                default_counts[c as usize] += 1;
            }
        } else {
            for &i in &remaining {
                default_counts[y[i] as usize] += 1;
            }
        }

        // First-match coverage counts over the *full* training set, for
        // probability output.
        for (i, &truth) in y.iter().enumerate() {
            if let Some(rule) = rules.iter_mut().find(|r| covers_at(&r.conds, &cols, i)) {
                rule.counts[truth as usize] += 1;
            }
        }

        RipperModel {
            rules,
            default_counts,
            n_classes,
            n_attrs: attr_cards.len(),
        }
    }
}

impl Classifier for RipperModel {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn class_probs_into(&self, row: &[u8], class_col: usize, out: &mut Vec<f64>) {
        check_row_width(row.len(), class_col, self.n_attrs);
        let counts = self
            .rules
            .iter()
            .find(|r| r.matches_row(row, class_col))
            .map(|r| &r.counts)
            .unwrap_or(&self.default_counts);
        let n: u32 = counts.iter().sum();
        let k = self.n_classes as f64;
        // Laplace smoothing; rules that captured nothing (possible after
        // pruning) fall back to uniform.
        out.clear();
        out.extend(counts.iter().map(|&c| (c as f64 + 1.0) / (n as f64 + k)));
    }

    fn predict_row(&self, row: &[u8], class_col: usize, _scratch: &mut Vec<f64>) -> u8 {
        check_row_width(row.len(), class_col, self.n_attrs);
        // First-match rule semantics: the rule's own class wins even if its
        // captured distribution is impure. (Overrides the default
        // probability-argmax path; `predict` routes through here too.)
        if let Some(r) = self.rules.iter().find(|r| r.matches_row(row, class_col)) {
            return r.class;
        }
        self.default_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i as u8)
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

use crate::persist::{write_vec_u32, Persist, PersistError, Reader, Writer};

impl Persist for RipperModel {
    fn write_into(&self, w: &mut Writer) {
        w.u32(u32::try_from(self.n_classes).expect("class count fits u32"));
        w.u32(u32::try_from(self.n_attrs).expect("attr count fits u32"));
        write_vec_u32(w, &self.default_counts);
        w.seq_len(self.rules.len());
        for rule in &self.rules {
            w.seq_len(rule.conds.len());
            for &(attr, val) in &rule.conds {
                w.u32(u32::try_from(attr).expect("attr index fits u32"));
                w.u8(val);
            }
            w.u8(rule.class);
            write_vec_u32(w, &rule.counts);
        }
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        let n_classes = r.u32()? as usize;
        if n_classes == 0 || n_classes > 256 {
            return Err(PersistError::Malformed("RIPPER class count out of range"));
        }
        let n_attrs = r.u32()? as usize;
        let default_counts = r.vec_u32()?;
        if default_counts.len() != n_classes {
            return Err(PersistError::Malformed(
                "RIPPER default counts width mismatch",
            ));
        }
        let n_rules = r.seq_len(1)?;
        let mut rules = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let n_conds = r.seq_len(5)?;
            let mut conds = Vec::with_capacity(n_conds);
            for _ in 0..n_conds {
                let attr = r.u32()? as usize;
                if attr >= n_attrs {
                    return Err(PersistError::Malformed("RIPPER cond attr out of range"));
                }
                conds.push((attr, r.u8()?));
            }
            let class = r.u8()?;
            if usize::from(class) >= n_classes {
                return Err(PersistError::Malformed("RIPPER rule class out of range"));
            }
            let counts = r.vec_u32()?;
            if counts.len() != n_classes {
                return Err(PersistError::Malformed("RIPPER rule counts width mismatch"));
            }
            rules.push(Rule {
                conds,
                class,
                counts,
            });
        }
        Ok(RipperModel {
            rules,
            default_counts,
            n_classes,
            n_attrs,
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
    fn learns_a_simple_rule() {
        // class 1 iff attr0 == 2; class 1 is the minority.
        let mut rows = Vec::new();
        for _ in 0..10 {
            rows.push(vec![2, 0, 1]);
            rows.push(vec![0, 0, 0]);
            rows.push(vec![1, 1, 0]);
            rows.push(vec![0, 1, 0]);
        }
        let m = Ripper::default().fit(&table(rows, vec![3, 2, 2]), 2);
        assert_eq!(m.predict(&[2, 0]), 1);
        assert_eq!(m.predict(&[2, 1]), 1);
        assert_eq!(m.predict(&[0, 0]), 0);
        assert!(!m.rules().is_empty());
    }

    #[test]
    fn learns_conjunctions() {
        // class 1 iff a == 1 AND b == 1 (minority).
        let mut rows = Vec::new();
        for _ in 0..8 {
            for a in 0..2u8 {
                for b in 0..2u8 {
                    rows.push(vec![a, b, a & b]);
                }
            }
        }
        let m = Ripper::default().fit(&table(rows, vec![2, 2, 2]), 2);
        for a in 0..2u8 {
            for b in 0..2u8 {
                assert_eq!(m.predict(&[a, b]), a & b, "and({a},{b})");
            }
        }
    }

    #[test]
    fn probabilities_reflect_rule_purity() {
        let mut rows = Vec::new();
        for _ in 0..20 {
            rows.push(vec![1, 1]); // attr0=1 -> class 1, always
            rows.push(vec![0, 0]);
        }
        let m = Ripper::default().fit(&table(rows, vec![2, 2]), 1);
        let p = m.class_probs(&[1]);
        assert!(p[1] > 0.9, "pure rule should be confident: {p:?}");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn default_class_handles_uncovered_inputs() {
        let mut rows = Vec::new();
        for _ in 0..12 {
            rows.push(vec![2, 1]);
            rows.push(vec![0, 0]);
            rows.push(vec![1, 0]);
        }
        let m = Ripper::default().fit(&table(rows, vec![4, 2]), 1);
        // Value 3 never appears; falls through to the majority default.
        assert_eq!(m.predict(&[3]), 0);
    }

    #[test]
    fn multiclass_rulesets() {
        let mut rows = Vec::new();
        for _ in 0..10 {
            rows.push(vec![0, 0]);
            rows.push(vec![1, 1]);
            rows.push(vec![2, 2]);
            rows.push(vec![2, 2]); // class 2 most frequent -> default
        }
        let m = Ripper::default().fit(&table(rows, vec![3, 3]), 1);
        assert_eq!(m.predict(&[0]), 0);
        assert_eq!(m.predict(&[1]), 1);
        assert_eq!(m.predict(&[2]), 2);
    }

    #[test]
    fn noise_does_not_produce_worse_than_chance_rules() {
        // Pure noise: accuracy gate should keep the rule list small and the
        // model close to the prior.
        let rows: Vec<Vec<u8>> = (0..200u32)
            .map(|i| vec![(i * 7 % 5) as u8, (i * 13 % 3) as u8, (i % 2) as u8])
            .collect();
        let m = Ripper::default().fit(&table(rows, vec![5, 3, 2]), 2);
        // Rule list should not explode on noise.
        assert!(m.rules().len() <= 6, "got {} rules", m.rules().len());
    }

    #[test]
    fn foil_gain_prefers_purer_refinements() {
        let base = foil_gain(10.0, 10.0, 5.0, 0.0);
        let worse = foil_gain(10.0, 10.0, 5.0, 5.0);
        assert!(base > worse);
        assert_eq!(foil_gain(10.0, 10.0, 0.0, 5.0), f64::NEG_INFINITY);
    }
}

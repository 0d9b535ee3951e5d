//! Compiled (flattened) execution forms of the trained classifiers.
//!
//! The interpreted [`Classifier`] walk is convenient for
//! training and persistence, but it pays for pointer-chasing (`Vec<Node>`
//! with per-node `Vec<u32>` counts, `Vec<Vec<f64>>` conditional tables) on
//! every scored event. This module lowers each trained [`AnyModel`] into a
//! flat, cache-friendly form:
//!
//! * **C4.5** → [`CompiledTree`]: nodes in one contiguous array, child
//!   indices in a shared pool, and — because leaf distributions are fixed
//!   at train time — the Laplace-smoothed class probabilities and argmax
//!   prediction **precomputed per node** (split nodes too: they answer for
//!   empty branches). Scoring is a loop over `(col, clamp, children_at)`
//!   triples ending in one slice copy; no recursion, no counting.
//! * **RIPPER** → [`CompiledRules`]: every condition of every rule packed
//!   into one `u32` array as `(full-width column << 8) | value`, rules
//!   delimited by fenceposts, with per-rule (and default) distributions
//!   and predicted classes precomputed.
//! * **Naive Bayes** → [`CompiledBayes`]: the per-attribute conditional
//!   log-probability tables re-laid-out so the `n_classes` addends for one
//!   observed value are contiguous, plus the resolved full-width column
//!   and clamp per attribute.
//! * **One-class models** of any family → a constant `[1.0]`
//!   distribution, wherever lowering proves the interpreted walk returns
//!   exactly that for every row.
//!
//! [`CompiledEnsemble`] scores batches in structure-of-arrays order — all
//! rows through model *i*, then model *i+1* — so each model's tables stay
//! hot in cache across the whole batch instead of being evicted 140 times
//! per row. A naive Bayes model takes the batch four rows per pass over
//! its attribute tables.
//!
//! ## Equivalence contract
//!
//! Compiled scores are **bit-identical** to the interpreted path, not
//! merely close: every floating-point operation happens on the same values
//! in the same order (precomputing `(c + 1.0) / (n + k)` at lowering time
//! yields the same bits as computing it per row), ties break identically
//! (`argmax_last`, first-match rule semantics, `max_by_key`'s
//! last-maximum default class), and out-of-range class probabilities are
//! `0.0` on both paths. `tests/proptest_compiled.rs` and the workspace
//! `determinism_shaker` hold this line.

use crate::persist::AnyModel;
use crate::{argmax_last, Classifier, NO_CLASS};

/// How sub-model outputs are combined into an event score, on the
/// compiled engine and on `cfa-core`'s interpreted walk alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreMethod {
    /// Algorithm 2: the fraction of sub-models whose *predicted* value for
    /// their labelled feature equals the event's true value.
    MatchCount,
    /// Algorithm 3: the mean probability the sub-models assign to the true
    /// values, `Σᵢ p(fᵢ(x) | x) / L`. Treats Algorithm 2 as the special
    /// case where the predicted class has probability 1.
    AvgProbability,
}

/// Sentinel in [`TreeNode::col`] marking a leaf.
pub(crate) const LEAF_COL: u32 = u32::MAX;
/// Sentinel in [`CompiledTree::children`] marking an empty branch, which
/// falls back to the parent node's own distribution.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// Clamp applied to a row byte before using it as a branch/table index:
/// the interpreted paths clamp to `card - 1`, and a row byte can never
/// exceed 255, so `min(card - 1, 255)` preserves the result exactly.
pub(crate) fn clamp_for(card: usize) -> u8 {
    card.saturating_sub(1).min(255) as u8
}

/// Appends the Laplace-smoothed distribution of `counts` to `out` — the
/// exact expression the interpreted C4.5/RIPPER probability paths
/// evaluate per row, evaluated once at lowering time (identical inputs,
/// identical `f64` bits).
pub(crate) fn push_laplace(out: &mut Vec<f64>, counts: &[u32], n_classes: usize) {
    let n: u32 = counts.iter().sum();
    let k = n_classes as f64;
    out.extend(counts.iter().map(|&c| (c as f64 + 1.0) / (n as f64 + k)));
}

/// One flattened tree node: the full-width row column it tests, the clamp
/// for out-of-domain values, and where its child indices start in the
/// shared pool. Leaves carry [`LEAF_COL`].
#[derive(Debug, Clone)]
pub(crate) struct TreeNode {
    pub(crate) col: u32,
    pub(crate) clamp: u8,
    pub(crate) children_at: u32,
}

/// A C4.5 tree lowered to contiguous arrays with per-node precomputed
/// Laplace distributions and argmax predictions.
#[derive(Debug, Clone)]
pub struct CompiledTree {
    pub(crate) nodes: Vec<TreeNode>,
    /// Shared child-index pool; [`NO_NODE`] marks an empty branch.
    pub(crate) children: Vec<u32>,
    /// `nodes.len() * n_classes` probabilities, node-major.
    pub(crate) probs: Vec<f64>,
    /// Precomputed `argmax_last` of each node's distribution.
    pub(crate) preds: Vec<u8>,
    pub(crate) root: u32,
    pub(crate) n_classes: usize,
}

impl CompiledTree {
    /// Index of the node whose distribution answers for `row`: the leaf
    /// the walk ends at, or the last split when a branch is empty.
    #[inline]
    fn node_for(&self, row: &[u8]) -> usize {
        let mut at = self.root as usize;
        loop {
            // audit: allow(D006, reason = "lowering constructs every node, child, and column index in range; row width is asserted at every public entry")
            let node = &self.nodes[at];
            if node.col == LEAF_COL {
                return at;
            }
            // audit: allow(D006, reason = "node.col is a lowered in-range column; row width is asserted at every public entry")
            let v = usize::from(row[node.col as usize].min(node.clamp));
            // audit: allow(D006, reason = "children_at + clamped value stays inside the pool segment the lowering reserved for this node")
            let child = self.children[node.children_at as usize + v];
            if child == NO_NODE {
                return at;
            }
            at = child as usize;
        }
    }

    #[inline]
    fn probs_of(&self, node: usize) -> &[f64] {
        // audit: allow(D006, reason = "probs has exactly n_classes entries per node by construction")
        &self.probs[node * self.n_classes..(node + 1) * self.n_classes]
    }
}

/// A RIPPER ordered rule list lowered to one packed condition array with
/// precomputed per-rule (and default) distributions and classes.
#[derive(Debug, Clone)]
pub struct CompiledRules {
    /// All conditions of all rules: `(full-width column << 8) | value`.
    pub(crate) conds: Vec<u32>,
    /// `n_rules + 1` fenceposts into [`CompiledRules::conds`].
    pub(crate) bounds: Vec<u32>,
    /// `(n_rules + 1) * n_classes` probabilities; the last entry is the
    /// default distribution.
    pub(crate) probs: Vec<f64>,
    /// `n_rules + 1` predicted classes; the last entry is the default
    /// class (last maximum of the default counts, `max_by_key` semantics).
    pub(crate) preds: Vec<u8>,
    pub(crate) n_classes: usize,
}

impl CompiledRules {
    /// Index of the first matching rule, or `n_rules` for the default.
    #[inline]
    fn match_for(&self, row: &[u8]) -> usize {
        let n_rules = self.preds.len() - 1;
        'rules: for ri in 0..n_rules {
            // audit: allow(D006, reason = "bounds has n_rules + 1 fenceposts and packed columns are in range; row width is asserted at every public entry")
            let lo = self.bounds[ri] as usize;
            // audit: allow(D006, reason = "ri < n_rules, so ri + 1 is still a valid fencepost")
            let hi = self.bounds[ri + 1] as usize;
            // audit: allow(D006, reason = "fenceposts are monotone and bounded by conds.len() by construction")
            for &packed in &self.conds[lo..hi] {
                // audit: allow(D006, reason = "packed columns are lowered in-range; row width is asserted at every public entry")
                if row[(packed >> 8) as usize] != (packed & 0xFF) as u8 {
                    continue 'rules;
                }
            }
            return ri;
        }
        n_rules
    }

    #[inline]
    fn probs_of(&self, rule: usize) -> &[f64] {
        // audit: allow(D006, reason = "probs has exactly n_classes entries per rule plus the default by construction")
        &self.probs[rule * self.n_classes..(rule + 1) * self.n_classes]
    }
}

/// Per-attribute lookup descriptor of a [`CompiledBayes`].
#[derive(Debug, Clone)]
pub(crate) struct BayesAttr {
    /// Full-width row column holding this attribute.
    pub(crate) col: u32,
    pub(crate) clamp: u8,
    /// Start of this attribute's `[value][class]` block in the table.
    pub(crate) offset: u32,
}

/// A naive Bayes model lowered to value-major conditional tables: the
/// `n_classes` log-probability addends for one observed value are
/// contiguous.
#[derive(Debug, Clone)]
pub struct CompiledBayes {
    pub(crate) log_prior: Vec<f64>,
    /// Concatenated per-attribute blocks of `stored_card * n_classes`
    /// entries, value-major within each block.
    pub(crate) table: Vec<f64>,
    pub(crate) attrs: Vec<BayesAttr>,
    pub(crate) n_classes: usize,
}

impl CompiledBayes {
    /// Whether the interpreted walk provably returns exactly `[1.0]` for
    /// every row: one class, and the prior plus every table entry have a
    /// finite magnitude sum. Then every partial log-posterior sum is
    /// finite (each is bounded by the running magnitude sum, and rounding
    /// is monotone), so the softmax computes `exp(s - s) / 1.0 == 1.0`.
    /// A NaN or infinity anywhere keeps the model on the Bayes path, which
    /// reproduces the interpreted NaN bits.
    fn always_one(&self) -> bool {
        self.n_classes == 1
            && self
                .log_prior
                .iter()
                .chain(&self.table)
                .map(|t| t.abs())
                .sum::<f64>()
                .is_finite()
    }

    fn class_probs_into(&self, row: &[u8], out: &mut Vec<f64>) {
        out.clear();
        match self.n_classes {
            1 => out.extend_from_slice(&self.log_posterior::<1>(row)),
            2 => out.extend_from_slice(&self.log_posterior::<2>(row)),
            3 => out.extend_from_slice(&self.log_posterior::<3>(row)),
            4 => out.extend_from_slice(&self.log_posterior::<4>(row)),
            5 => out.extend_from_slice(&self.log_posterior::<5>(row)),
            6 => out.extend_from_slice(&self.log_posterior::<6>(row)),
            7 => out.extend_from_slice(&self.log_posterior::<7>(row)),
            8 => out.extend_from_slice(&self.log_posterior::<8>(row)),
            _ => {
                out.extend_from_slice(&self.log_prior);
                self.accumulate_dyn(row, out);
            }
        }
        softmax(out);
    }

    /// The unnormalised log-posterior of one row: the kernel at `R = 1`.
    #[inline]
    fn log_posterior<const K: usize>(&self, row: &[u8]) -> [f64; K] {
        let [scores] = self.accumulate::<K, 1>([row]);
        scores
    }

    /// Log-posterior accumulation of `R` rows with `K == n_classes` fixed
    /// at monomorphisation time: the `R × K` accumulators live in a stack
    /// array (in registers where they fit), so one attribute's adds are
    /// `R·K` independent chains instead of store-to-load round trips
    /// through a buffer. Every (row, class) accumulator still receives the
    /// prior, then one addend per attribute in attribute order — the
    /// interpreted sequence — so the sums are bit-identical.
    #[inline]
    fn accumulate<const K: usize, const R: usize>(&self, rows: [&[u8]; R]) -> [[f64; K]; R] {
        let mut prior = [0.0f64; K];
        prior.copy_from_slice(&self.log_prior);
        let mut acc = [prior; R];
        for a in &self.attrs {
            let col = a.col as usize;
            for (scores, row) in acc.iter_mut().zip(rows) {
                // audit: allow(D006, reason = "lowering stores a full n_classes segment for every clamped value and resolves columns in range; row width is asserted at every public entry")
                let v = usize::from(row[col].min(a.clamp));
                let at = a.offset as usize + v * K;
                // audit: allow(D006, reason = "the block for a clamped value always holds n_classes == K entries by construction")
                for (s, &t) in scores.iter_mut().zip(&self.table[at..at + K]) {
                    *s += t;
                }
            }
        }
        acc
    }

    /// The any-`n_classes` fallback accumulation (identical addend order;
    /// the accumulators just live in `out`).
    fn accumulate_dyn(&self, row: &[u8], out: &mut [f64]) {
        let k = self.n_classes;
        for a in &self.attrs {
            // audit: allow(D006, reason = "lowering stores a full n_classes segment for every clamped value and resolves columns in range; row width is asserted at every public entry")
            let v = usize::from(row[a.col as usize].min(a.clamp));
            let at = a.offset as usize + v * k;
            // audit: allow(D006, reason = "the block for a clamped value always holds n_classes entries by construction")
            let seg = &self.table[at..at + k];
            for (score, &t) in out.iter_mut().zip(seg) {
                *score += t;
            }
        }
    }

    /// The batch kernel: adds this sub-model's contribution for every row
    /// of a packed `width`-wide batch to `out`, accumulating
    /// [`ROW_BLOCK`] rows per pass over the attributes. Remainder rows
    /// take the same routine one row at a time.
    fn add_batch_scores<const K: usize>(
        &self,
        rows: &[u8],
        width: usize,
        class_col: usize,
        method: ScoreMethod,
        out: &mut [f64],
    ) {
        let mut packed_blocks = rows.chunks_exact(ROW_BLOCK * width);
        let mut out_blocks = out.chunks_exact_mut(ROW_BLOCK);
        for (packed, block_out) in packed_blocks.by_ref().zip(out_blocks.by_ref()) {
            // audit: allow(D006, reason = "packed holds exactly ROW_BLOCK rows of width bytes (chunks_exact)")
            let block: [&[u8]; ROW_BLOCK] = std::array::from_fn(|r| &packed[r * width..][..width]);
            let scores = self.accumulate::<K, ROW_BLOCK>(block);
            for ((acc, row), s) in block_out.iter_mut().zip(block).zip(scores) {
                // audit: allow(D006, reason = "class_col enumerates the ensemble's models and every row is n_features wide")
                *acc += bayes_contribution(s, row[class_col], method);
            }
        }
        let tail = packed_blocks.remainder().chunks_exact(width);
        for (acc, row) in out_blocks.into_remainder().iter_mut().zip(tail) {
            let s = self.log_posterior::<K>(row);
            // audit: allow(D006, reason = "class_col enumerates the ensemble's models and every row is n_features wide")
            *acc += bayes_contribution(s, row[class_col], method);
        }
    }
}

/// Rows the batch naive Bayes kernel accumulates together: `ROW_BLOCK × K`
/// independent add chains per attribute hide the floating-point add
/// latency that a single row's `K` chains leave exposed.
const ROW_BLOCK: usize = 4;

/// Softmax normalisation, operation for operation the interpreted naive
/// Bayes path's: `fold(NEG_INFINITY, max)`, `exp`, `iter().sum()`, divide.
#[inline]
fn softmax(scores: &mut [f64]) {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let sum: f64 = scores.iter().sum();
    for p in scores.iter_mut() {
        *p /= sum;
    }
}

/// A naive Bayes sub-model's contribution from its log-posteriors: the
/// prediction match (`argmax_last`, as `predict`) or the observed value's
/// probability (`0.0` past the last class, as `prob_of`).
#[inline]
fn bayes_contribution<const K: usize>(mut scores: [f64; K], truth: u8, method: ScoreMethod) -> f64 {
    softmax(&mut scores);
    match method {
        ScoreMethod::MatchCount => f64::from(argmax_last(&scores) == truth),
        ScoreMethod::AvgProbability => scores.get(usize::from(truth)).copied().unwrap_or(0.0),
    }
}

#[derive(Debug, Clone)]
enum CompiledKind {
    /// A one-class model whose interpreted walk provably returns exactly
    /// `[1.0]` for every row: prediction 0, probability 1.0 for class 0.
    OneClass,
    Tree(CompiledTree),
    Rules(CompiledRules),
    Bayes(CompiledBayes),
}

/// One trained [`AnyModel`] lowered to its flat executable form, bound to
/// a fixed full-width row layout (the class column position is baked into
/// every stored column index).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    kind: CompiledKind,
    row_width: usize,
    n_classes: usize,
}

impl CompiledModel {
    /// Lowers `model` for scoring full-width rows whose class column is
    /// `class_col` (use [`NO_CLASS`] for bare attribute vectors).
    ///
    /// A one-class sub-model compiles to a constant `[1.0]` wherever the
    /// interpreted walk provably returns exactly that: always for C4.5
    /// and RIPPER (every Laplace term is `(c + 1) / (c + 1)`), and for
    /// naive Bayes when its tables are finite (see `always_one`).
    pub fn compile(model: &AnyModel, class_col: usize) -> CompiledModel {
        let n_classes = model.n_classes();
        let kind = match model {
            AnyModel::C45(_) | AnyModel::Ripper(_) if n_classes == 1 => CompiledKind::OneClass,
            AnyModel::C45(m) => CompiledKind::Tree(m.lower(class_col)),
            AnyModel::Ripper(m) => CompiledKind::Rules(m.lower(class_col)),
            AnyModel::Bayes(m) => {
                let b = m.lower(class_col);
                if b.always_one() {
                    CompiledKind::OneClass
                } else {
                    CompiledKind::Bayes(b)
                }
            }
        };
        CompiledModel {
            kind,
            row_width: model.n_attrs() + usize::from(class_col != NO_CLASS),
            n_classes,
        }
    }

    /// Number of classes the model distinguishes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Width of the full rows this model was compiled for.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    #[inline]
    fn check_width(&self, row: &[u8]) {
        assert_eq!(
            row.len(),
            self.row_width,
            "attribute vector length mismatch"
        );
    }

    /// Writes the class distribution for `row` into `out` (cleared
    /// first); bit-identical to the interpreted
    /// [`Classifier::class_probs_into`].
    pub fn class_probs_into(&self, row: &[u8], out: &mut Vec<f64>) {
        self.check_width(row);
        match &self.kind {
            CompiledKind::OneClass => {
                out.clear();
                out.push(1.0);
            }
            CompiledKind::Tree(t) => {
                let node = t.node_for(row);
                out.clear();
                out.extend_from_slice(t.probs_of(node));
            }
            CompiledKind::Rules(r) => {
                let rule = r.match_for(row);
                out.clear();
                out.extend_from_slice(r.probs_of(rule));
            }
            CompiledKind::Bayes(b) => b.class_probs_into(row, out),
        }
    }

    /// The predicted class for `row`; identical tie-breaking to the
    /// interpreted `predict_row` (trees and Bayes: last maximum; rules:
    /// first match, then the default counts' last maximum).
    pub fn predict(&self, row: &[u8], scratch: &mut Vec<f64>) -> u8 {
        self.check_width(row);
        match &self.kind {
            CompiledKind::OneClass => 0,
            // audit: allow(D006, reason = "preds has one entry per node/rule-plus-default by construction")
            CompiledKind::Tree(t) => t.preds[t.node_for(row)],
            // audit: allow(D006, reason = "preds has one entry per rule plus the default by construction")
            CompiledKind::Rules(r) => r.preds[r.match_for(row)],
            CompiledKind::Bayes(b) => {
                b.class_probs_into(row, scratch);
                argmax_last(scratch)
            }
        }
    }

    /// The probability the model assigns to `class` for `row`; `0.0` for
    /// out-of-range classes, as on the interpreted path.
    pub fn prob_of(&self, row: &[u8], class: u8, scratch: &mut Vec<f64>) -> f64 {
        self.check_width(row);
        match &self.kind {
            CompiledKind::OneClass => f64::from(class == 0),
            CompiledKind::Tree(t) => {
                let seg = t.probs_of(t.node_for(row));
                seg.get(usize::from(class)).copied().unwrap_or(0.0)
            }
            CompiledKind::Rules(r) => {
                let seg = r.probs_of(r.match_for(row));
                seg.get(usize::from(class)).copied().unwrap_or(0.0)
            }
            CompiledKind::Bayes(b) => {
                b.class_probs_into(row, scratch);
                scratch.get(usize::from(class)).copied().unwrap_or(0.0)
            }
        }
    }

    /// Adds this model's contribution, as sub-model `i` of a
    /// `width`-feature ensemble, for every row of a packed batch to
    /// `out`. Naive Bayes models with up to eight classes take the
    /// row-blocked kernel; every other model scores row at a time.
    fn add_batch_scores(
        &self,
        rows: &[u8],
        width: usize,
        i: usize,
        method: ScoreMethod,
        out: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        if let CompiledKind::Bayes(b) = &self.kind {
            match b.n_classes {
                1 => return b.add_batch_scores::<1>(rows, width, i, method, out),
                2 => return b.add_batch_scores::<2>(rows, width, i, method, out),
                3 => return b.add_batch_scores::<3>(rows, width, i, method, out),
                4 => return b.add_batch_scores::<4>(rows, width, i, method, out),
                5 => return b.add_batch_scores::<5>(rows, width, i, method, out),
                6 => return b.add_batch_scores::<6>(rows, width, i, method, out),
                7 => return b.add_batch_scores::<7>(rows, width, i, method, out),
                8 => return b.add_batch_scores::<8>(rows, width, i, method, out),
                _ => {}
            }
        }
        for (acc, row) in out.iter_mut().zip(rows.chunks_exact(width)) {
            *acc += one_model_score(self, row, i, method, scratch);
        }
    }
}

/// A whole cross-feature ensemble lowered to compiled form: sub-model *i*
/// predicts feature *i* from the rest of the row.
#[derive(Debug, Clone)]
pub struct CompiledEnsemble {
    models: Vec<CompiledModel>,
    n_features: usize,
}

impl CompiledEnsemble {
    /// Lowers every sub-model; sub-model *i* is compiled with its own
    /// feature as the class column, matching the interpreted ensemble.
    ///
    /// # Panics
    ///
    /// Panics when `sub_models` is empty or a sub-model's attribute count
    /// disagrees with the ensemble width.
    pub fn compile(sub_models: &[AnyModel]) -> CompiledEnsemble {
        assert!(!sub_models.is_empty(), "cannot compile an empty ensemble");
        let models: Vec<CompiledModel> = sub_models
            .iter()
            .enumerate()
            .map(|(i, m)| CompiledModel::compile(m, i))
            .collect();
        let n_features = models.len();
        for m in &models {
            assert_eq!(m.row_width, n_features, "sub-model row width mismatch");
        }
        CompiledEnsemble { models, n_features }
    }

    /// Number of features (== sub-models == row width).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Scores one discretized event row; bit-identical to the interpreted
    /// ensemble's average sub-model score. `scratch` is a reusable
    /// probability buffer: after warm-up no allocation happens here.
    pub fn score_row(&self, row: &[u8], method: ScoreMethod, scratch: &mut Vec<f64>) -> f64 {
        assert_eq!(row.len(), self.n_features, "event width mismatch");
        let mut total = 0.0;
        for (i, model) in self.models.iter().enumerate() {
            total += one_model_score(model, row, i, method, scratch);
        }
        total / self.n_features as f64
    }

    /// Scores a packed row-major batch (`rows.len()` must be a multiple
    /// of [`CompiledEnsemble::n_features`]) into `out`, one score per row,
    /// in structure-of-arrays order: all rows through model *i*, then
    /// model *i+1*, so each model's tables stay cache-hot across the
    /// batch. Naive Bayes models score four rows per pass over their
    /// attributes. Per-row results are bit-identical to
    /// [`CompiledEnsemble::score_row`] — each row's accumulator receives
    /// the same contributions in the same model order.
    pub fn score_batch(
        &self,
        rows: &[u8],
        method: ScoreMethod,
        out: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(
            rows.len() % self.n_features,
            0,
            "packed rows width mismatch"
        );
        let n_rows = rows.len() / self.n_features;
        out.clear();
        out.resize(n_rows, 0.0);
        for (i, model) in self.models.iter().enumerate() {
            model.add_batch_scores(rows, self.n_features, i, method, out, scratch);
        }
        let width = self.n_features as f64;
        for acc in out.iter_mut() {
            *acc /= width;
        }
    }
}

/// Sub-model `i`'s contribution for one row — the compiled analogue of
/// the interpreted ensemble's `one_model_score`.
#[inline]
fn one_model_score(
    model: &CompiledModel,
    row: &[u8],
    i: usize,
    method: ScoreMethod,
    scratch: &mut Vec<f64>,
) -> f64 {
    // audit: allow(D006, reason = "i enumerates the ensemble's models and row width == n_features is asserted at every public entry")
    let truth = row[i];
    match method {
        ScoreMethod::MatchCount => f64::from(model.predict(row, scratch) == truth),
        ScoreMethod::AvgProbability => model.prob_of(row, truth, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::NominalTable;
    use crate::naive_bayes::NaiveBayesModel;
    use crate::persist::{write_vec_f64, write_vec_usize, Persist, Writer};
    use crate::{Classifier, Learner, NaiveBayes, Ripper, C45};

    fn table(rows: Vec<Vec<u8>>, cards: Vec<usize>) -> NominalTable {
        let names = (0..cards.len()).map(|i| format!("f{i}")).collect();
        NominalTable::new(names, cards, rows).unwrap()
    }

    /// Deterministic but irregular training rows over `cards`.
    fn training_rows(cards: &[usize], n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|r| {
                cards
                    .iter()
                    .enumerate()
                    .map(|(c, &card)| (((r * 7 + c * 13 + r * c) % 31) % card) as u8)
                    .collect()
            })
            .collect()
    }

    /// Every row the cards admit, plus out-of-domain values.
    fn probe_rows(cards: &[usize]) -> Vec<Vec<u8>> {
        let mut rows = vec![Vec::new()];
        for &card in cards {
            let mut next = Vec::new();
            for prefix in &rows {
                for v in 0..card.min(4) + 1 {
                    let mut row = prefix.clone();
                    row.push(v as u8); // card.min(4) probes out-of-domain
                    next.push(row);
                }
            }
            rows = next;
        }
        rows
    }

    fn assert_model_equivalent(model: &AnyModel, class_col: usize, cards: &[usize]) {
        let compiled = CompiledModel::compile(model, class_col);
        let mut want = Vec::new();
        let mut got = Vec::new();
        let mut scratch = Vec::new();
        for row in probe_rows(cards) {
            model.class_probs_into(&row, class_col, &mut want);
            compiled.class_probs_into(&row, &mut got);
            let want_bits: Vec<u64> = want.iter().map(|p| p.to_bits()).collect();
            let got_bits: Vec<u64> = got.iter().map(|p| p.to_bits()).collect();
            assert_eq!(want_bits, got_bits, "probs for {row:?}");
            assert_eq!(
                model.predict_row(&row, class_col, &mut scratch),
                compiled.predict(&row, &mut scratch),
                "prediction for {row:?}"
            );
            for class in 0..model.n_classes() as u8 + 2 {
                assert_eq!(
                    model
                        .prob_of_row(&row, class_col, class, &mut scratch)
                        .to_bits(),
                    compiled.prob_of(&row, class, &mut scratch).to_bits(),
                    "prob of class {class} for {row:?}"
                );
            }
        }
    }

    #[test]
    fn each_family_compiles_bit_identically() {
        // The ten-class column puts naive Bayes on the dynamic fallback.
        let cards = vec![3, 4, 2, 10];
        let t = table(training_rows(&cards, 120), cards.clone());
        for class_col in 0..cards.len() {
            let c45 = AnyModel::C45(C45::default().fit(&t, class_col));
            let rip = AnyModel::Ripper(Ripper::default().fit(&t, class_col));
            let nb = AnyModel::Bayes(NaiveBayes::default().fit(&t, class_col));
            assert_model_equivalent(&c45, class_col, &cards);
            assert_model_equivalent(&rip, class_col, &cards);
            assert_model_equivalent(&nb, class_col, &cards);
        }
    }

    /// A one-class naive Bayes model over one two-valued attribute,
    /// decoded from hand-written bytes because training never produces
    /// non-finite tables.
    fn one_class_bayes(prior: f64, cond: [f64; 2]) -> AnyModel {
        let mut w = Writer::new();
        w.u32(1);
        write_vec_f64(&mut w, &[prior]);
        write_vec_usize(&mut w, &[2]);
        w.seq_len(1);
        write_vec_f64(&mut w, &cond);
        AnyModel::Bayes(NaiveBayesModel::from_bytes(&w.into_bytes()).unwrap())
    }

    #[test]
    fn one_class_models_compile_to_constants() {
        // Column 1 holds one value, so a model predicting it has one class.
        let cards = vec![3, 1, 4];
        let t = table(training_rows(&cards, 60), cards.clone());
        for model in [
            AnyModel::C45(C45::default().fit(&t, 1)),
            AnyModel::Ripper(Ripper::default().fit(&t, 1)),
            AnyModel::Bayes(NaiveBayes::default().fit(&t, 1)),
        ] {
            let compiled = CompiledModel::compile(&model, 1);
            assert!(matches!(compiled.kind, CompiledKind::OneClass));
            assert_model_equivalent(&model, 1, &cards);
        }
    }

    #[test]
    fn non_finite_one_class_bayes_is_not_folded() {
        let finite = one_class_bayes(-0.5, [-0.25, -1.5]);
        let compiled = CompiledModel::compile(&finite, 0);
        assert!(matches!(compiled.kind, CompiledKind::OneClass));
        for model in [
            one_class_bayes(f64::INFINITY, [-0.25, -1.5]),
            one_class_bayes(-0.5, [f64::NEG_INFINITY, -1.5]),
            one_class_bayes(f64::NAN, [-0.25, -1.5]),
            // Every entry is finite, but value 0's sum overflows to +inf.
            one_class_bayes(f64::MAX, [f64::MAX, -1.5]),
        ] {
            let compiled = CompiledModel::compile(&model, 0);
            assert!(matches!(compiled.kind, CompiledKind::Bayes(_)));
            assert_model_equivalent(&model, 0, &[1, 2]);
        }
    }

    #[test]
    fn batch_matches_row_at_a_time() {
        // The one-class column folds to a constant, the ten-class one
        // takes the dynamic fallback, the rest run the blocked kernel.
        let cards = vec![3, 1, 10, 4];
        let t = table(training_rows(&cards, 90), cards.clone());
        let sub_models: Vec<AnyModel> = (0..cards.len())
            .map(|i| AnyModel::Bayes(NaiveBayes::default().fit(&t, i)))
            .collect();
        let ensemble = CompiledEnsemble::compile(&sub_models);
        let rows: Vec<Vec<u8>> = probe_rows(&cards);
        let mut scratch = Vec::new();
        let mut batch = Vec::new();
        for method in [ScoreMethod::MatchCount, ScoreMethod::AvgProbability] {
            let want: Vec<u64> = rows
                .iter()
                .map(|row| ensemble.score_row(row, method, &mut scratch).to_bits())
                .collect();
            // Lengths 0..=9 cover zero to two whole blocks and every
            // remainder.
            for len in 0..=9 {
                for start in (0..rows.len()).step_by(len.max(1)) {
                    let end = (start + len).min(rows.len());
                    let packed = rows[start..end].concat();
                    ensemble.score_batch(&packed, method, &mut batch, &mut scratch);
                    let got: Vec<u64> = batch.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, want[start..end], "batch of {len} at row {start}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed rows width mismatch")]
    fn batch_rejects_ragged_input() {
        let cards = vec![2, 2];
        let t = table(training_rows(&cards, 40), cards.clone());
        let sub_models: Vec<AnyModel> = (0..2)
            .map(|i| AnyModel::Bayes(NaiveBayes::default().fit(&t, i)))
            .collect();
        let ensemble = CompiledEnsemble::compile(&sub_models);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        ensemble.score_batch(&[0, 1, 0], ScoreMethod::MatchCount, &mut out, &mut scratch);
    }
}

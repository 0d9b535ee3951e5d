//! A C4.5-style decision-tree learner.
//!
//! Follows Quinlan's recipe for nominal attributes:
//!
//! * multiway splits (one branch per attribute value);
//! * split selection by **gain ratio**, restricted — as in C4.5 — to
//!   attributes whose information gain is at least the average positive
//!   gain;
//! * **pessimistic-error pruning**: a subtree is replaced by a leaf when
//!   the leaf's upper-confidence-bound error (Wilson bound at the
//!   configured confidence, C4.5's default 0.25) does not exceed the sum
//!   of its leaves' bounds;
//! * leaves expose Laplace-smoothed class frequencies, which is the
//!   `p(ℓᵢ|x) = nᵢ/n` probability rule the paper describes (smoothed so
//!   probabilities are never exactly 0 or 1 on tiny leaves).

use crate::dataset::NominalTable;
use crate::{attr_index, check_row_width, Classifier, Learner};

/// Configuration for the C4.5 learner.
#[derive(Debug, Clone)]
pub struct C45 {
    /// Minimum number of rows in at least two branches for a split to be
    /// considered (C4.5's `-m`, default 2).
    pub min_leaf: usize,
    /// Pruning confidence factor (C4.5's `-c`, default 0.25). Smaller
    /// prunes more aggressively.
    pub confidence: f64,
    /// Hard depth cap (guards against adversarial data).
    pub max_depth: usize,
}

impl Default for C45 {
    fn default() -> Self {
        C45 {
            min_leaf: 2,
            confidence: 0.25,
            max_depth: 40,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Leaf {
        counts: Vec<u32>,
    },
    Split {
        attr: usize,
        /// One child per attribute value; `usize::MAX` marks an empty
        /// branch that falls back to this node's own distribution.
        children: Vec<usize>,
        counts: Vec<u32>,
    },
}

/// A fitted C4.5 decision tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C45Model {
    nodes: Vec<Node>,
    root: usize,
    n_classes: usize,
    attr_cards: Vec<usize>,
}

impl C45Model {
    /// Number of nodes in the tree (diagnostics).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Number of attributes the tree can test (class column removed).
    pub(crate) fn n_attrs(&self) -> usize {
        self.attr_cards.len()
    }

    /// Lowers the tree into its flat compiled form for full-width rows
    /// whose class column is `class_col`. Per-node distributions are the
    /// exact Laplace expression of `class_probs_into`, evaluated once
    /// here, so compiled probabilities are bit-identical.
    pub(crate) fn lower(&self, class_col: usize) -> crate::compiled::CompiledTree {
        use crate::compiled::{clamp_for, push_laplace, CompiledTree, TreeNode, LEAF_COL, NO_NODE};
        let k = self.n_classes;
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut children_pool = Vec::new();
        let mut probs = Vec::with_capacity(self.nodes.len() * k);
        let mut preds = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let counts = match node {
                Node::Leaf { counts } => {
                    nodes.push(TreeNode {
                        col: LEAF_COL,
                        clamp: 0,
                        children_at: 0,
                    });
                    counts
                }
                Node::Split {
                    attr,
                    children,
                    counts,
                } => {
                    let children_at =
                        // audit: allow(D006, reason = "pool length is bounded by the trained tree size, far below u32::MAX")
                        u32::try_from(children_pool.len()).expect("child pool fits u32");
                    children_pool.extend(children.iter().map(|&c| {
                        if c == usize::MAX {
                            NO_NODE
                        } else {
                            // audit: allow(D006, reason = "node indices are bounded by the trained tree size, far below u32::MAX")
                            u32::try_from(c).expect("node index fits u32")
                        }
                    }));
                    nodes.push(TreeNode {
                        col: u32::try_from(attr_index(*attr, class_col))
                            // audit: allow(D006, reason = "column index is bounded by the feature schema width, far below u32::MAX")
                            .expect("column index fits u32"),
                        // audit: allow(D006, reason = "attr came from enumerating attr_cards, so the index is in range by construction")
                        clamp: clamp_for(self.attr_cards[*attr]),
                        children_at,
                    });
                    counts
                }
            };
            push_laplace(&mut probs, counts, k);
            // audit: allow(D006, reason = "push_laplace just appended k entries, so the probs slice tail is in range")
            preds.push(crate::argmax_last(&probs[probs.len() - k..]));
        }
        CompiledTree {
            nodes,
            children: children_pool,
            probs,
            preds,
            // audit: allow(D006, reason = "the root index is bounded by the trained tree size, far below u32::MAX")
            root: u32::try_from(self.root).expect("node index fits u32"),
            n_classes: k,
        }
    }

    /// Depth of the tree (diagnostics).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 1,
                Node::Split { children, .. } => {
                    1 + children
                        .iter()
                        .filter(|&&c| c != usize::MAX)
                        .map(|&c| rec(nodes, c))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        rec(&self.nodes, self.root)
    }
}

fn entropy(counts: &[u32]) -> f64 {
    let total: u32 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = f64::from(total);
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Wilson upper confidence bound on the error rate, C4.5's pessimistic
/// error estimate. `z` is the normal deviate for the confidence factor.
fn pessimistic_errors(errors: f64, n: f64, z: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let f = errors / n;
    let z2 = z * z;
    let bound = (f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).max(0.0).sqrt())
        / (1.0 + z2 / n);
    bound * n
}

/// Inverse normal CDF (upper tail) for the few confidence values C4.5
/// uses; linear interpolation over a small table is ample here.
fn z_for_confidence(cf: f64) -> f64 {
    // (upper-tail probability, z)
    const TABLE: [(f64, f64); 8] = [
        (0.001, 3.09),
        (0.005, 2.58),
        (0.01, 2.33),
        (0.05, 1.65),
        (0.10, 1.28),
        (0.20, 0.84),
        (0.25, 0.69),
        (0.40, 0.25),
    ];
    let cf = cf.clamp(0.001, 0.4);
    for w in TABLE.windows(2) {
        let (p0, z0) = w[0];
        let (p1, z1) = w[1];
        if cf <= p1 {
            let t = (cf - p0) / (p1 - p0);
            return z0 + t * (z1 - z0);
        }
    }
    0.25
}

struct Builder<'a> {
    /// Attribute columns (class column removed), borrowed from the table.
    cols: Vec<&'a [u8]>,
    /// Class column, borrowed from the table.
    y: &'a [u8],
    attr_cards: Vec<usize>,
    n_classes: usize,
    cfg: &'a C45,
    nodes: Vec<Node>,
    z: f64,
}

impl Builder<'_> {
    fn class_counts(&self, idx: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes];
        for &i in idx {
            counts[self.y[i] as usize] += 1;
        }
        counts
    }

    fn build(&mut self, idx: &[usize], depth: usize) -> usize {
        let counts = self.class_counts(idx);
        let base_entropy = entropy(&counts);
        let n = idx.len();
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || n < 2 * self.cfg.min_leaf || depth >= self.cfg.max_depth {
            self.nodes.push(Node::Leaf { counts });
            return self.nodes.len() - 1;
        }

        // Evaluate candidate splits: gain and split info per attribute.
        let mut gains: Vec<(usize, f64, f64)> = Vec::new(); // (attr, gain, split_info)
        for a in 0..self.attr_cards.len() {
            let card = self.attr_cards[a];
            if card < 2 {
                continue;
            }
            let col = self.cols[a];
            let mut branch_counts = vec![vec![0u32; self.n_classes]; card];
            let mut branch_sizes = vec![0usize; card];
            for &i in idx {
                let v = col[i] as usize;
                branch_counts[v][self.y[i] as usize] += 1;
                branch_sizes[v] += 1;
            }
            let non_empty = branch_sizes.iter().filter(|&&s| s > 0).count();
            if non_empty < 2 {
                continue;
            }
            // C4.5's -m: at least two branches with min_leaf rows.
            let populous = branch_sizes
                .iter()
                .filter(|&&s| s >= self.cfg.min_leaf)
                .count();
            if populous < 2 {
                continue;
            }
            let mut cond = 0.0;
            let mut split_info = 0.0;
            for (bc, &bs) in branch_counts.iter().zip(&branch_sizes) {
                if bs == 0 {
                    continue;
                }
                let w = bs as f64 / n as f64;
                cond += w * entropy(bc);
                split_info -= w * w.log2();
            }
            let gain = base_entropy - cond;
            if gain > 1e-10 && split_info > 1e-10 {
                gains.push((a, gain, split_info));
            }
        }
        if gains.is_empty() {
            self.nodes.push(Node::Leaf { counts });
            return self.nodes.len() - 1;
        }
        let avg_gain: f64 = gains.iter().map(|g| g.1).sum::<f64>() / gains.len() as f64;
        let (attr, _, _) = *gains
            .iter()
            .filter(|g| g.1 >= avg_gain - 1e-12)
            .max_by(|a, b| {
                (a.1 / a.2)
                    .partial_cmp(&(b.1 / b.2))
                    .expect("finite gain ratios")
            })
            .expect("at least one candidate above average");

        // Partition and recurse.
        let card = self.attr_cards[attr];
        let col = self.cols[attr];
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); card];
        for &i in idx {
            parts[col[i] as usize].push(i);
        }
        let mut children = vec![usize::MAX; card];
        for (v, part) in parts.iter().enumerate() {
            if !part.is_empty() {
                children[v] = self.build(part, depth + 1);
            }
        }
        self.nodes.push(Node::Split {
            attr,
            children,
            counts,
        });
        self.nodes.len() - 1
    }

    /// Pessimistic-error pruning, bottom-up. Returns the node's estimated
    /// (pessimistic) error count after pruning.
    fn prune(&mut self, node: usize) -> f64 {
        let (children, counts) = match &self.nodes[node] {
            Node::Leaf { counts } => {
                let n: u32 = counts.iter().sum();
                let errors = n - counts.iter().max().copied().unwrap_or(0);
                return pessimistic_errors(errors as f64, n as f64, self.z);
            }
            Node::Split {
                children, counts, ..
            } => (children.clone(), counts.clone()),
        };
        let mut subtree_err = 0.0;
        for &c in children.iter().filter(|&&c| c != usize::MAX) {
            subtree_err += self.prune(c);
        }
        let n: u32 = counts.iter().sum();
        let errors = n - counts.iter().max().copied().unwrap_or(0);
        let leaf_err = pessimistic_errors(errors as f64, n as f64, self.z);
        if leaf_err <= subtree_err + 0.1 {
            self.nodes[node] = Node::Leaf { counts };
            leaf_err
        } else {
            subtree_err
        }
    }
}

impl Learner for C45 {
    type Model = C45Model;

    fn fit(&self, table: &NominalTable, class_col: usize) -> C45Model {
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
        // materialisation, the builder's counting loops scan contiguous
        // slices.
        let cols: Vec<&[u8]> = (0..attr_cards.len())
            .map(|a| table.col(attr_index(a, class_col)))
            .collect();
        let mut b = Builder {
            cols,
            y: table.col(class_col),
            attr_cards: attr_cards.clone(),
            n_classes,
            cfg: self,
            nodes: Vec::new(),
            z: z_for_confidence(self.confidence),
        };
        let all: Vec<usize> = (0..table.n_rows()).collect();
        let root = b.build(&all, 0);
        b.prune(root);
        C45Model {
            nodes: b.nodes,
            root,
            n_classes,
            attr_cards,
        }
    }
}

impl Classifier for C45Model {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn class_probs_into(&self, row: &[u8], class_col: usize, out: &mut Vec<f64>) {
        check_row_width(row.len(), class_col, self.attr_cards.len());
        let mut node = self.root;
        let counts = loop {
            // audit: allow(D006, reason = "root and every non-sentinel child index are < nodes.len(): fit builds them so and read_from rejects any other")
            match &self.nodes[node] {
                Node::Leaf { counts } => break counts,
                Node::Split {
                    attr,
                    children,
                    counts,
                } => {
                    // audit: allow(D006, reason = "read_from rejects a split attr >= attr_cards.len(), and fit only splits on table attributes")
                    let card = self.attr_cards[*attr];
                    // audit: allow(D006, reason = "check_row_width above asserts one row value per attribute plus the class column")
                    let v = (row[attr_index(*attr, class_col)] as usize).min(card - 1);
                    // audit: allow(D006, reason = "v <= card - 1 and children.len() == card >= 1: read_from rejects a zero card or a branch count != card")
                    let child = children[v];
                    if child == usize::MAX {
                        break counts; // empty branch: use this node's counts
                    }
                    node = child;
                }
            }
        };
        // Laplace-smoothed leaf frequencies (the paper's nᵢ/n rule).
        let n: u32 = counts.iter().sum();
        let k = self.n_classes as f64;
        out.clear();
        out.extend(counts.iter().map(|&c| (c as f64 + 1.0) / (n as f64 + k)));
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

use crate::persist::{read_vec_usize, write_vec_usize, Persist, PersistError, Reader, Writer};

const NODE_LEAF: u8 = 0;
const NODE_SPLIT: u8 = 1;
/// On-wire sentinel for an empty branch (`usize::MAX` in memory).
const NO_CHILD: u32 = u32::MAX;

impl Persist for C45Model {
    fn write_into(&self, w: &mut Writer) {
        w.u32(u32::try_from(self.n_classes).expect("class count fits u32"));
        w.u32(u32::try_from(self.root).expect("node index fits u32"));
        write_vec_usize(w, &self.attr_cards);
        w.seq_len(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { counts } => {
                    w.u8(NODE_LEAF);
                    crate::persist::write_vec_u32(w, counts);
                }
                Node::Split {
                    attr,
                    children,
                    counts,
                } => {
                    w.u8(NODE_SPLIT);
                    w.u32(u32::try_from(*attr).expect("attr index fits u32"));
                    w.seq_len(children.len());
                    for &c in children {
                        w.u32(if c == usize::MAX {
                            NO_CHILD
                        } else {
                            u32::try_from(c).expect("node index fits u32")
                        });
                    }
                    crate::persist::write_vec_u32(w, counts);
                }
            }
        }
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        let n_classes = r.u32()? as usize;
        if n_classes == 0 || n_classes > 256 {
            return Err(PersistError::Malformed("C4.5 class count out of range"));
        }
        let root = r.u32()? as usize;
        let attr_cards = read_vec_usize(r)?;
        if attr_cards.contains(&0) {
            // A split on it would have no branch for any value.
            return Err(PersistError::Malformed(
                "C4.5 attribute cardinality is zero",
            ));
        }
        let n_nodes = r.seq_len(1)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let node = match r.u8()? {
                NODE_LEAF => {
                    let counts = r.vec_u32()?;
                    if counts.len() != n_classes {
                        return Err(PersistError::Malformed("C4.5 leaf counts width mismatch"));
                    }
                    Node::Leaf { counts }
                }
                NODE_SPLIT => {
                    let attr = r.u32()? as usize;
                    if attr >= attr_cards.len() {
                        return Err(PersistError::Malformed("C4.5 split attr out of range"));
                    }
                    let children: Vec<usize> = r
                        .vec_u32()?
                        .into_iter()
                        .map(|c| {
                            if c == NO_CHILD {
                                usize::MAX
                            } else {
                                c as usize
                            }
                        })
                        .collect();
                    if attr_cards.get(attr) != Some(&children.len()) {
                        return Err(PersistError::Malformed("C4.5 branch count != attr card"));
                    }
                    let counts = r.vec_u32()?;
                    if counts.len() != n_classes {
                        return Err(PersistError::Malformed("C4.5 split counts width mismatch"));
                    }
                    Node::Split {
                        attr,
                        children,
                        counts,
                    }
                }
                _ => return Err(PersistError::Malformed("unknown C4.5 node tag")),
            };
            nodes.push(node);
        }
        if root >= nodes.len() {
            return Err(PersistError::Malformed("C4.5 root index out of range"));
        }
        for node in &nodes {
            if let Node::Split { children, .. } = node {
                if children
                    .iter()
                    .any(|&c| c != usize::MAX && c >= nodes.len())
                {
                    return Err(PersistError::Malformed("C4.5 child index out of range"));
                }
            }
        }
        Ok(C45Model {
            nodes,
            root,
            n_classes,
            attr_cards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn table(rows: Vec<Vec<u8>>, cards: Vec<usize>) -> NominalTable {
        let names = (0..cards.len()).map(|i| format!("f{i}")).collect();
        NominalTable::new(names, cards, rows).unwrap()
    }

    #[test]
    fn learns_conjunction_exactly() {
        let mut rows = Vec::new();
        for _ in 0..4 {
            for a in 0..2u8 {
                for b in 0..2u8 {
                    rows.push(vec![a, b, a & b]);
                }
            }
        }
        let m = C45::default().fit(&table(rows, vec![2, 2, 2]), 2);
        for a in 0..2u8 {
            for b in 0..2u8 {
                assert_eq!(m.predict(&[a, b]), a & b, "and({a},{b})");
            }
        }
    }

    #[test]
    fn greedy_trees_cannot_split_pure_xor() {
        // Document the known limitation: both attributes have zero
        // information gain on XOR, so the tree degenerates to a prior leaf.
        let mut rows = Vec::new();
        for _ in 0..4 {
            for a in 0..2u8 {
                for b in 0..2u8 {
                    rows.push(vec![a, b, a ^ b]);
                }
            }
        }
        let m = C45::default().fit(&table(rows, vec![2, 2, 2]), 2);
        assert_eq!(m.depth(), 1, "no attribute offers positive gain");
    }

    #[test]
    fn ignores_irrelevant_attributes() {
        // Class = attr1; attr0 is pure noise.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let rows: Vec<Vec<u8>> = (0..200)
            .map(|_| {
                let noise = rng.gen_range(0..4u8);
                let sig = rng.gen_range(0..3u8);
                vec![noise, sig, sig]
            })
            .collect();
        let m = C45::default().fit(&table(rows, vec![4, 3, 3]), 2);
        for sig in 0..3u8 {
            for noise in 0..4u8 {
                assert_eq!(m.predict(&[noise, sig]), sig);
            }
        }
    }

    #[test]
    fn leaf_probabilities_are_laplace_smoothed() {
        // A pure leaf of 8 class-1 rows: p(1) = 9/10 with k=2.
        let rows = vec![vec![0, 1]; 8];
        let m = C45::default().fit(&table(rows, vec![1, 2]), 1);
        let p = m.class_probs(&[0]);
        assert!((p[1] - 9.0 / 10.0).abs() < 1e-9);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // Class almost independent of the attribute: tree should stay tiny.
        let mut rows = Vec::new();
        for v in 0..5u8 {
            for i in 0..20 {
                rows.push(vec![v, u8::from(i % 10 == 0)]);
            }
        }
        let m = C45::default().fit(&table(rows, vec![5, 2]), 1);
        assert!(
            m.depth() <= 2,
            "noise split should be pruned, got depth {}",
            m.depth()
        );
        // Majority class everywhere.
        for v in 0..5u8 {
            assert_eq!(m.predict(&[v]), 0);
        }
    }

    #[test]
    fn deep_interaction_is_learned() {
        // class = (a AND b) OR c over binary attrs.
        let mut rows = Vec::new();
        for _ in 0..6 {
            for a in 0..2u8 {
                for b in 0..2u8 {
                    for c in 0..2u8 {
                        rows.push(vec![a, b, c, (a & b) | c]);
                    }
                }
            }
        }
        let m = C45::default().fit(&table(rows, vec![2, 2, 2, 2]), 3);
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    assert_eq!(m.predict(&[a, b, c]), (a & b) | c);
                }
            }
        }
    }

    #[test]
    fn wilson_bound_monotone_in_errors() {
        let z = z_for_confidence(0.25);
        let a = pessimistic_errors(0.0, 10.0, z);
        let b = pessimistic_errors(2.0, 10.0, z);
        let c = pessimistic_errors(5.0, 10.0, z);
        assert!(a < b && b < c);
        assert!(a > 0.0, "even zero observed errors get a pessimistic bump");
    }

    #[test]
    fn handles_single_class_tables() {
        let rows = vec![vec![0, 0], vec![1, 0], vec![2, 0]];
        let m = C45::default().fit(&table(rows, vec![3, 1]), 1);
        assert_eq!(m.predict(&[1]), 0);
        assert_eq!(m.n_classes(), 1);
    }

    #[test]
    fn class_column_position_does_not_matter() {
        // The same data with the class column first instead of last must
        // predict the same: exercises the in-place column skipping.
        let last: Vec<Vec<u8>> = (0..40).map(|i| vec![i % 3, (i % 4) % 3, i % 3]).collect();
        let first: Vec<Vec<u8>> = last.iter().map(|r| vec![r[2], r[0], r[1]]).collect();
        let m_last = C45::default().fit(&table(last.clone(), vec![3, 3, 3]), 2);
        let m_first = C45::default().fit(&table(first.clone(), vec![3, 3, 3]), 0);
        let mut scratch = Vec::new();
        for (l, f) in last.iter().zip(&first) {
            assert_eq!(
                m_last.predict_row(l, 2, &mut scratch),
                m_first.predict_row(f, 0, &mut scratch)
            );
            assert_eq!(
                m_last.prob_of_row(l, 2, l[2], &mut scratch).to_bits(),
                m_first.prob_of_row(f, 0, f[0], &mut scratch).to_bits()
            );
        }
    }

    #[test]
    fn zero_cardinality_attributes_are_rejected_at_decode() {
        use crate::persist::Persist;
        // Only a crafted artifact can carry cardinality 0. A split on such
        // an attribute has no children, which the predict walk would index
        // past; an unused zero card is rejected just the same.
        let leaf = Node::Leaf { counts: vec![1, 1] };
        let crafted = [
            vec![
                Node::Split {
                    attr: 0,
                    children: vec![],
                    counts: vec![1, 1],
                },
                leaf.clone(),
            ],
            vec![leaf],
        ];
        for nodes in crafted {
            let model = C45Model {
                nodes,
                root: 0,
                n_classes: 2,
                attr_cards: vec![0, 2],
            };
            assert!(matches!(
                C45Model::from_bytes(&model.to_bytes()),
                Err(PersistError::Malformed(_))
            ));
        }
    }
}

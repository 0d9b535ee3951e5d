//! Equal-frequency discretization.
//!
//! The paper (§4.1, *Feature Construction*): continuous features are
//! divided into a fixed number of buckets so that "the frequencies of
//! occurrences of feature values dropped in all buckets are equal", using
//! "a pre-filtering process using a small random subset of normal vectors"
//! to learn the cut points. The bucket number is 5.

use crate::extract::FeatureMatrix;
use cfa_ml::{DatasetError, NominalTable};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-column equal-frequency bucketiser.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualFrequencyDiscretizer {
    /// Ascending cut points per column; value `v` maps to the number of
    /// cut points `< v`… i.e. `cuts.partition_point(|c| c <= v)`.
    cuts: Vec<Vec<f64>>,
    n_buckets: usize,
}

impl EqualFrequencyDiscretizer {
    /// The paper's bucket count.
    pub const PAPER_BUCKETS: usize = 5;

    /// Learns cut points from (a sample of) normal feature rows.
    ///
    /// `sample_size` caps how many rows are used (the paper's
    /// "pre-filtering" uses a small random subset); `None` uses all rows.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` has no rows or `n_buckets < 2`.
    pub fn fit(
        matrix: &FeatureMatrix,
        n_buckets: usize,
        sample_size: Option<usize>,
        seed: u64,
    ) -> EqualFrequencyDiscretizer {
        assert!(matrix.n_rows() > 0, "need rows to fit a discretizer");
        assert!(n_buckets >= 2, "need at least two buckets");
        let mut indices: Vec<usize> = (0..matrix.n_rows()).collect();
        if let Some(cap) = sample_size {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            indices.shuffle(&mut rng);
            indices.truncate(cap.max(1));
        }
        let n_cols = matrix.n_cols();
        let mut cuts = Vec::with_capacity(n_cols);
        for c in 0..n_cols {
            let mut vals: Vec<f64> = indices
                .iter()
                .filter_map(|&r| matrix.rows.get(r).and_then(|row| row.get(c)))
                .copied()
                .collect();
            // total_cmp gives a deterministic order even for non-finite
            // values instead of panicking on NaN.
            vals.sort_by(f64::total_cmp);
            let mut col_cuts: Vec<f64> = Vec::with_capacity(n_buckets - 1);
            for b in 1..n_buckets {
                let q = b as f64 / n_buckets as f64;
                let idx = ((vals.len() as f64 * q) as usize).min(vals.len().saturating_sub(1));
                let Some(&cut) = vals.get(idx) else { continue };
                // Collapse duplicate cut points (low-cardinality columns).
                if col_cuts.last().is_none_or(|&last| cut > last)
                    && vals.first().is_some_and(|&first| cut > first)
                {
                    col_cuts.push(cut);
                }
            }
            cuts.push(col_cuts);
        }
        EqualFrequencyDiscretizer { cuts, n_buckets }
    }

    /// The configured bucket count (upper bound on per-column cardinality).
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Effective cardinality of each column after cut-point collapsing.
    pub fn cards(&self) -> Vec<usize> {
        self.cuts.iter().map(|c| c.len() + 1).collect()
    }

    /// Bucket index for a single value in a given column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn bucket(&self, col: usize, value: f64) -> u8 {
        // audit: allow(D006, reason = "col < cuts.len() is asserted by transform_row_into/transform before per-value calls")
        self.cuts[col].partition_point(|&c| c <= value) as u8
    }

    /// Discretizes one continuous snapshot row into `out` (cleared first),
    /// reusing its allocation — the streaming path's per-row transform.
    ///
    /// # Panics
    ///
    /// Panics if `row` disagrees with the fitted column count.
    pub fn transform_row_into(&self, row: &[f64], out: &mut Vec<u8>) {
        assert_eq!(row.len(), self.cuts.len(), "row width != fitted columns");
        out.clear();
        // audit: allow(D006, reason = "c ranges over 0..row.len(), in bounds by construction")
        out.extend((0..row.len()).map(|c| self.bucket(c, row[c])));
    }

    /// Discretizes a whole matrix into a [`NominalTable`].
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError`] if the matrix's width disagrees with the
    /// fitted column count.
    pub fn transform(&self, matrix: &FeatureMatrix) -> Result<NominalTable, DatasetError> {
        // Build the table column-major directly — it is the table's native
        // layout, so no row-major transpose is ever materialised.
        let cols: Vec<Vec<u8>> = if matrix.n_cols() == self.cuts.len() {
            // A ragged row yields a short column, which from_columns
            // rejects as a width error instead of panicking here.
            (0..self.cuts.len())
                .map(|c| {
                    matrix
                        .rows
                        .iter()
                        .filter_map(|r| r.get(c))
                        .map(|&v| self.bucket(c, v))
                        .collect()
                })
                .collect()
        } else {
            Vec::new() // width mismatch: let from_columns report it
        };
        NominalTable::from_columns(matrix.names.clone(), self.cards(), cols)
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

use cfa_ml::persist::{write_vec_f64, Persist, PersistError, Reader, Writer};

impl Persist for EqualFrequencyDiscretizer {
    fn write_into(&self, w: &mut Writer) {
        // audit: allow(D004, reason = "n_buckets comes from fit(), which caps it at the sample count; a >4-billion-bucket discretizer cannot be constructed")
        w.u32(u32::try_from(self.n_buckets).expect("bucket count fits u32"));
        w.seq_len(self.cuts.len());
        for col_cuts in &self.cuts {
            write_vec_f64(w, col_cuts);
        }
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        let n_buckets = r.u32()? as usize;
        if n_buckets < 2 {
            return Err(PersistError::Malformed("bucket count must be at least 2"));
        }
        let n_cols = r.seq_len(4)?;
        let mut cuts = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let col_cuts = r.vec_f64()?;
            if col_cuts.len() >= n_buckets {
                return Err(PersistError::Malformed("more cut points than buckets"));
            }
            // bucket() binary-searches, so cut points must be strictly
            // ascending and comparable.
            if col_cuts.iter().any(|c| c.is_nan())
                || col_cuts.windows(2).any(|w| matches!(w, [a, b] if a >= b))
            {
                return Err(PersistError::Malformed("cut points not strictly ascending"));
            }
            cuts.push(col_cuts);
        }
        Ok(EqualFrequencyDiscretizer { cuts, n_buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(cols: Vec<Vec<f64>>) -> FeatureMatrix {
        // cols[c][r] -> matrix rows
        let n_rows = cols[0].len();
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        FeatureMatrix {
            names: (0..cols.len()).map(|i| format!("f{i}")).collect(),
            times: (0..n_rows).map(|i| i as f64).collect(),
            rows,
        }
    }

    #[test]
    fn buckets_have_roughly_equal_frequency() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = matrix(vec![vals]);
        let d = EqualFrequencyDiscretizer::fit(&m, 5, None, 0);
        let t = d.transform(&m).unwrap();
        let mut counts = [0usize; 5];
        for &v in t.col(0) {
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((15..=25).contains(&c), "bucket sizes {counts:?}");
        }
    }

    #[test]
    fn constant_columns_collapse_to_one_bucket() {
        let m = matrix(vec![vec![7.0; 50]]);
        let d = EqualFrequencyDiscretizer::fit(&m, 5, None, 0);
        assert_eq!(d.cards(), vec![1]);
        let t = d.transform(&m).unwrap();
        assert!(t.col(0).iter().all(|&v| v == 0));
    }

    #[test]
    fn heavily_skewed_columns_get_fewer_buckets() {
        // 90% zeros: at most one meaningful cut above zero.
        let mut vals = vec![0.0; 90];
        vals.extend((1..=10).map(f64::from));
        let m = matrix(vec![vals]);
        let d = EqualFrequencyDiscretizer::fit(&m, 5, None, 0);
        assert!(d.cards()[0] <= 2, "cards = {:?}", d.cards());
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        let vals: Vec<f64> = (0..200).map(|i| (i as f64).sqrt()).collect();
        let m = matrix(vec![vals.clone()]);
        let d = EqualFrequencyDiscretizer::fit(&m, 5, None, 0);
        let mut prev = 0u8;
        for v in vals {
            let b = d.bucket(0, v);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn unseen_extremes_clamp_to_end_buckets() {
        let vals: Vec<f64> = (0..50).map(f64::from).collect();
        let m = matrix(vec![vals]);
        let d = EqualFrequencyDiscretizer::fit(&m, 5, None, 0);
        assert_eq!(d.bucket(0, -100.0), 0);
        assert_eq!(d.bucket(0, 1e9) as usize, d.cards()[0] - 1);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let vals: Vec<f64> = (0..1000).map(|i| (i % 37) as f64).collect();
        let m = matrix(vec![vals]);
        let a = EqualFrequencyDiscretizer::fit(&m, 5, Some(100), 42);
        let b = EqualFrequencyDiscretizer::fit(&m, 5, Some(100), 42);
        assert_eq!(a.cuts, b.cuts);
    }

    #[test]
    fn transform_validates_against_table_invariants() {
        let m = matrix(vec![(0..60).map(f64::from).collect(), vec![1.0; 60]]);
        let d = EqualFrequencyDiscretizer::fit(&m, 5, None, 0);
        let t = d.transform(&m).unwrap();
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.n_rows(), 60);
        assert_eq!(t.cards()[1], 1);
    }
}

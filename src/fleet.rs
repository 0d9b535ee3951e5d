//! Fleet driver: mass-produce labelled training corpora from many
//! scenario runs.
//!
//! Every remaining evaluation axis (classifier quality, scenario
//! diversity, explainable alarms) is gated on training-data volume, and a
//! single 10 000 s scenario is one sample. [`run_fleet`] runs a whole
//! batch — a list of `(scenario, vantages)` runs, each observed from one
//! or more vantage nodes — across `std::thread::scope` threads via
//! [`cfa_core::parallel::map_chunks`], and returns the labelled feature
//! matrices in run order. It is the one path from scenarios to labelled
//! bundles: the `cfa-bench fleet` CLI builds its run list from a seed
//! list, and the experiment harness's cache sends it every run it misses.
//!
//! # Determinism contract
//!
//! The fleet inherits the parallel ensemble engine's contract: output is
//! **bit-identical for every thread count**. Each run is a pure function
//! of its `Scenario` value (the kernel derives every RNG stream from the
//! scenario seed), and `map_chunks` reassembles per-chunk results in
//! input order, so the only effect of `--threads` is wall-clock time. The
//! determinism shaker asserts this end to end, and
//! [`FleetResult::checksum`] gives a single order-sensitive FNV-1a-64
//! digest over every matrix bit, label, and timestamp for cheap
//! cross-machine comparison.
//!
//! Writers ([`write_fleet`]) emit one CSV per (seed, vantage) bundle plus
//! a `manifest.tsv` indexing them — both byte-deterministic (floats are
//! written with Rust's shortest round-trip formatting; the manifest
//! carries checksums, never timestamps). [`bundle_from_csv`] reads a
//! bundle's CSV back bit for bit.

use crate::scenario::{Scenario, TraceBundle};
use cfa_core::parallel::map_chunks;
use cfa_core::Parallelism;
use cfa_ml::persist::fnv1a64;
use manet_features::FeatureMatrix;
use manet_sim::NodeId;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One run's output: a labelled bundle per vantage node.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The mobility/protocol seed of this run.
    pub seed: u64,
    /// One labelled bundle per vantage node, in the run's vantage order.
    pub bundles: Vec<TraceBundle>,
}

/// All runs of a fleet, in run order.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-run outputs, ordered as the runs passed to [`run_fleet`].
    pub runs: Vec<FleetRun>,
}

/// Runs every `(scenario, vantages)` pair of `runs` — one simulation per
/// pair, observed at each of its vantage nodes — across `par` threads,
/// and collects the labelled bundles in run order, bit-identical at any
/// thread count.
///
/// # Panics
///
/// Panics if `runs` is empty, or on any invalid scenario/vantage
/// combination (the same contracts as [`Scenario::run_nodes`]).
pub fn run_fleet(runs: &[(Scenario, Vec<NodeId>)], par: Parallelism) -> FleetResult {
    assert!(!runs.is_empty(), "fleet needs at least one run");
    let runs = map_chunks(par, runs.len(), |range| {
        runs.get(range)
            .unwrap_or_default()
            .iter()
            .map(|(scenario, vantages)| FleetRun {
                seed: scenario.seed,
                bundles: scenario.run_nodes(vantages),
            })
            .collect()
    });
    FleetResult { runs }
}

impl FleetResult {
    /// Order-sensitive FNV-1a-64 digest over every run's seed, matrix
    /// shape and bits, snapshot times, and labels, each as a little-endian
    /// `u64`. Equal checksums at different thread counts certify the
    /// determinism contract cheaply.
    pub fn checksum(&self) -> u64 {
        let words = self.runs.iter().flat_map(|run| {
            let bundles = run.bundles.iter().flat_map(|b| {
                let m = &b.matrix;
                [m.n_rows() as u64, m.n_cols() as u64]
                    .into_iter()
                    .chain(m.times.iter().map(|t| t.to_bits()))
                    .chain(m.rows.iter().flatten().map(|v| v.to_bits()))
                    .chain(b.labels.iter().map(|&l| u64::from(l)))
            });
            std::iter::once(run.seed).chain(bundles)
        });
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Total snapshot rows across all runs and vantages.
    pub fn total_rows(&self) -> usize {
        self.runs
            .iter()
            .flat_map(|r| &r.bundles)
            .map(|b| b.matrix.n_rows())
            .sum()
    }
}

/// Renders one bundle as CSV: header `time,<feature names...>,label`,
/// then one row per snapshot. Floats use Rust's shortest round-trip
/// formatting, so the bytes are a faithful (and deterministic) image of
/// the matrix bits.
pub fn bundle_to_csv(bundle: &TraceBundle) -> String {
    let m = &bundle.matrix;
    let mut out = String::new();
    out.push_str("time");
    for name in &m.names {
        out.push(',');
        out.push_str(name);
    }
    out.push_str(",label\n");
    for (i, row) in m.rows.iter().enumerate() {
        let t = m.times.get(i).copied().unwrap_or_default();
        let label = bundle.labels.get(i).copied().unwrap_or_default();
        let _ = write!(out, "{t:?}");
        for &v in row {
            let _ = write!(out, ",{v:?}");
        }
        let _ = writeln!(out, ",{}", u8::from(label));
    }
    out
}

/// Parses [`bundle_to_csv`]'s output back into the bundle, bit for bit,
/// labelled with `scenario` (the run's scenario with `monitored` set to
/// the bundle's vantage; the CSV does not carry it). Returns `None` for
/// text `bundle_to_csv` cannot have written: a header that does not
/// start with `time` and end with `label`, a row whose width differs
/// from the header's, a cell that is not a float, or a label other than
/// `0` or `1`.
pub fn bundle_from_csv(csv: &str, scenario: Scenario) -> Option<TraceBundle> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let ["time", names @ .., "label"] = header.as_slice() else {
        return None;
    };
    let mut matrix = FeatureMatrix {
        names: names.iter().map(|n| n.to_string()).collect(),
        times: Vec::new(),
        rows: Vec::new(),
    };
    let mut labels = Vec::new();
    for line in lines {
        let (cells, label) = line.rsplit_once(',')?;
        let mut row = cells
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<f64>>>()?;
        if row.len() != names.len() + 1 {
            return None;
        }
        matrix.times.push(row.remove(0));
        matrix.rows.push(row);
        labels.push(match label {
            "0" => false,
            "1" => true,
            _ => return None,
        });
    }
    Some(TraceBundle {
        matrix,
        labels,
        scenario,
    })
}

/// File name of one bundle's CSV within a fleet directory.
pub fn bundle_file_name(seed: u64, vantage: NodeId) -> String {
    format!("seed{seed}_node{}.csv", vantage.index())
}

/// Writes a fleet to `dir`: one CSV per (seed, vantage) bundle plus a
/// `manifest.tsv` listing `seed`, `vantage`, `rows`, `cols`, `positives`,
/// `checksum` ([`fnv1a64`] over the CSV bytes), and `file`. The manifest
/// is byte-deterministic — rerunning the same runs reproduces it exactly.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing a file.
pub fn write_fleet(result: &FleetResult, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = String::from("seed\tvantage\trows\tcols\tpositives\tchecksum\tfile\n");
    for run in &result.runs {
        for bundle in &run.bundles {
            let vantage = bundle.scenario.monitored;
            let csv = bundle_to_csv(bundle);
            let file = bundle_file_name(run.seed, vantage);
            std::fs::write(dir.join(&file), &csv)?;
            let positives = bundle.labels.iter().filter(|&&l| l).count();
            let _ = writeln!(
                manifest,
                "{}\t{}\t{}\t{}\t{}\t{:016x}\t{}",
                run.seed,
                vantage.index(),
                bundle.matrix.n_rows(),
                bundle.matrix.n_cols(),
                positives,
                fnv1a64(csv.as_bytes()),
                file
            );
        }
    }
    let path = dir.join("manifest.tsv");
    std::fs::write(&path, manifest)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Attack, Protocol, Transport};

    fn tiny_runs(seeds: &[u64], vantages: &[NodeId]) -> Vec<(Scenario, Vec<NodeId>)> {
        let base = Scenario::paper_default(Protocol::Aodv, Transport::Cbr)
            .with_nodes(15)
            .with_connections(8)
            .with_duration(120.0)
            .with_attack(Attack::blackhole_at(&[60.0]));
        seeds
            .iter()
            .map(|&seed| (base.clone().with_seed(seed), vantages.to_vec()))
            .collect()
    }

    fn tiny_fleet(threads: usize) -> FleetResult {
        let runs = tiny_runs(&[21, 22, 23], &[NodeId(0), NodeId(3)]);
        run_fleet(&runs, Parallelism::threads(threads))
    }

    fn bits(b: &TraceBundle) -> (Vec<u64>, Vec<Vec<u64>>) {
        let times = b.matrix.times.iter().map(|t| t.to_bits()).collect();
        let rows = b
            .matrix
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect());
        (times, rows.collect())
    }

    #[test]
    fn fleet_runs_every_seed_and_vantage() {
        let result = tiny_fleet(1);
        assert_eq!(result.runs.len(), 3);
        assert_eq!(result.runs[0].seed, 21);
        for run in &result.runs {
            assert_eq!(run.bundles.len(), 2);
            assert_eq!(run.bundles[0].scenario.monitored, NodeId(0));
            assert_eq!(run.bundles[1].scenario.monitored, NodeId(3));
        }
        assert!(result.total_rows() > 0);
    }

    #[test]
    fn checksum_is_thread_count_invariant() {
        let serial = tiny_fleet(1).checksum();
        assert_eq!(serial, tiny_fleet(3).checksum());
    }

    #[test]
    fn csv_round_trips_matrix_shape() {
        let result = run_fleet(&tiny_runs(&[21], &[NodeId(0)]), Parallelism::threads(1));
        let simulated = result.runs[0].bundles[0].clone();
        let mut by_hand = simulated.clone();
        by_hand.matrix.names.truncate(2);
        by_hand.matrix.times = vec![0.1, 5.0];
        by_hand.matrix.rows = vec![vec![-0.0, f64::from_bits(1)], vec![1e300, 0.1]];
        by_hand.labels = vec![true, false];
        for bundle in [simulated, by_hand] {
            let csv = bundle_to_csv(&bundle);
            let mut lines = csv.lines();
            let header = lines.next().expect("header line");
            assert_eq!(header.split(',').count(), bundle.matrix.n_cols() + 2);
            assert_eq!(lines.count(), bundle.matrix.n_rows());
            let back = bundle_from_csv(&csv, bundle.scenario.clone()).expect("parse back");
            assert_eq!(back.matrix.names, bundle.matrix.names);
            assert_eq!(bits(&back), bits(&bundle));
            assert_eq!(back.labels, bundle.labels);
        }
    }

    #[test]
    fn malformed_csv_is_rejected() {
        let scenario = Scenario::paper_default(Protocol::Aodv, Transport::Cbr);
        assert!(bundle_from_csv("time,a,b,label\n1.0,2.0,3.0,1\n", scenario.clone()).is_some());
        for text in [
            "a,b,label\n1.0,2.0,3.0,1\n",
            "time,a,b\n1.0,2.0,3.0,1\n",
            "time,a,b,label\n1.0,2.0,1\n",
            "time,a,b,label\n1.0,2.0,x,1\n",
            "time,a,b,label\n1.0,2.0,3.0,2\n",
        ] {
            assert!(
                bundle_from_csv(text, scenario.clone()).is_none(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn manifest_checksums_are_fnv1a64_of_the_files() {
        let dir = std::env::temp_dir().join(format!("manet-cfa-fleet-{}", std::process::id()));
        let result = run_fleet(
            &tiny_runs(&[21], &[NodeId(0), NodeId(3)]),
            Parallelism::threads(1),
        );
        let manifest = std::fs::read_to_string(write_fleet(&result, &dir).expect("write fleet"))
            .expect("read manifest");
        let entries: Vec<Vec<&str>> = manifest
            .lines()
            .skip(1)
            .map(|l| l.split('\t').collect())
            .collect();
        assert_eq!(entries.len(), 2);
        for entry in entries {
            let csv = std::fs::read(dir.join(entry[6])).expect("read bundle csv");
            assert_eq!(entry[5], format!("{:016x}", fnv1a64(&csv)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_fleet_rejected() {
        let _ = run_fleet(&[], Parallelism::threads(1));
    }
}

//! On-disk caching of simulated feature bundles.
//!
//! A 10 000-second simulation takes tens of seconds; experiment binaries
//! share scenarios, so each vantage's bundle is cached under
//! `target/cfa-cache/` as the fleet driver's CSV ([`bundle_to_csv`]),
//! named by the FNV-1a-64 hash of the scenario description, the vantage
//! node and `CACHE_VERSION`. Every run that misses goes to one
//! [`run_fleet`] call, so misses simulate in parallel at the
//! `CFA_THREADS` budget. The cache is an accelerator, not a correctness
//! dependency: an unreadable or malformed file is a miss, and any I/O
//! error degrades to a fresh run.

use manet_cfa::core::Parallelism;
use manet_cfa::fleet::{bundle_from_csv, bundle_to_csv, run_fleet};
use manet_cfa::ml::persist::fnv1a64;
use manet_cfa::scenario::{Scenario, TraceBundle};
use manet_cfa::sim::NodeId;
use std::fs;
use std::path::{Path, PathBuf};

/// Bump to invalidate previously cached bundles after behaviour changes.
const CACHE_VERSION: u32 = 7;

const CACHE_DIR: &str = "target/cfa-cache";

fn bundle_path(scenario: &Scenario, node: NodeId) -> PathBuf {
    let key = format!("{scenario:?}|{}|v{CACHE_VERSION}", node.0);
    Path::new(CACHE_DIR).join(format!("bundle_{:016x}.csv", fnv1a64(key.as_bytes())))
}

/// A run's bundles, if every vantage's file is cached and well formed.
fn load(scenario: &Scenario, nodes: &[NodeId]) -> Option<Vec<TraceBundle>> {
    nodes
        .iter()
        .map(|&node| {
            let csv = fs::read_to_string(bundle_path(scenario, node)).ok()?;
            bundle_from_csv(&csv, scenario.clone().with_monitored(node))
        })
        .collect()
}

/// Caches a fresh run's bundles. Each file is written aside and renamed
/// into place, so an interrupted write never leaves a short bundle.
fn store(scenario: &Scenario, bundles: &[TraceBundle]) {
    let _ = fs::create_dir_all(CACHE_DIR);
    for bundle in bundles {
        let path = bundle_path(scenario, bundle.scenario.monitored);
        let tmp = path.with_extension("tmp");
        let _ = fs::write(&tmp, bundle_to_csv(bundle)).and_then(|()| fs::rename(&tmp, &path));
    }
}

/// Runs every `(scenario, vantages)` pair, re-using cached bundles when
/// all of a run's vantages are cached. The runs that miss simulate
/// together in one [`run_fleet`] call. Returns each run's bundles, one
/// per vantage, in run order — bit-identical to an uncached run at any
/// `CFA_THREADS`, each labelled with its run's scenario monitored at its
/// vantage.
///
/// # Panics
///
/// On an invalid scenario/vantage combination that misses the cache, as
/// [`Scenario::run_nodes`].
pub fn cached_runs(runs: &[(Scenario, Vec<NodeId>)]) -> Vec<Vec<TraceBundle>> {
    let hits: Vec<_> = runs.iter().map(|(s, nodes)| load(s, nodes)).collect();
    let misses: Vec<_> = runs
        .iter()
        .zip(&hits)
        .filter(|(_, hit)| hit.is_none())
        .map(|(run, _)| run.clone())
        .collect();
    let fresh = if misses.is_empty() {
        Vec::new()
    } else {
        run_fleet(&misses, Parallelism::from_env()).runs
    };
    let mut fresh = fresh.into_iter();
    runs.iter()
        .zip(hits)
        .map(|((scenario, _), hit)| {
            hit.unwrap_or_else(|| {
                let bundles = fresh.next().map(|run| run.bundles).unwrap_or_default();
                store(scenario, &bundles);
                bundles
            })
        })
        .collect()
}

/// Runs `scenario` for the given vantage nodes through [`cached_runs`].
/// One simulation produces all requested nodes' bundles.
pub fn cached_bundles(scenario: &Scenario, nodes: &[NodeId]) -> Vec<TraceBundle> {
    cached_runs(&[(scenario.clone(), nodes.to_vec())])
        .into_iter()
        .flatten()
        .collect()
}

/// Single-node counterpart of [`cached_bundles`], for the scenario's
/// monitored node.
pub fn cached_bundle(scenario: &Scenario) -> TraceBundle {
    let mut bundles = cached_bundles(scenario, &[scenario.monitored]);
    bundles.pop().expect("one bundle per vantage")
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_cfa::scenario::{Protocol, Transport};

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
    fn round_trips_through_disk() {
        let scenario = Scenario::paper_default(Protocol::Aodv, Transport::Cbr)
            .with_nodes(10)
            .with_connections(5)
            .with_duration(60.0)
            .with_seed(0xCAFE);
        let a = cached_bundle(&scenario);
        let b = cached_bundle(&scenario); // second call hits the cache
        assert_eq!(a.matrix.rows, b.matrix.rows);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.matrix.times, b.matrix.times);
    }

    #[test]
    fn a_cache_hit_returns_the_bundles_the_run_made() {
        let scenario = Scenario::paper_default(Protocol::Aodv, Transport::Cbr)
            .with_nodes(10)
            .with_connections(5)
            .with_duration(60.0)
            .with_seed(0xD00D);
        let nodes = [NodeId(0), NodeId(3)];
        let fresh = scenario.run_nodes(&nodes);
        let _ = cached_bundles(&scenario, &nodes); // fills the cache if cold
        let hit = cached_bundles(&scenario, &nodes);
        assert_eq!(hit.len(), fresh.len());
        for (h, f) in hit.iter().zip(&fresh) {
            assert_eq!(h.scenario.monitored, f.scenario.monitored);
            assert_eq!(h.matrix.names, f.matrix.names);
            assert_eq!(h.labels, f.labels);
            assert_eq!(bits(h), bits(f));
        }
    }

    #[test]
    fn a_malformed_cache_file_is_a_miss() {
        let scenario = Scenario::paper_default(Protocol::Dsr, Transport::Cbr)
            .with_nodes(8)
            .with_connections(4)
            .with_duration(40.0)
            .with_seed(0xBEEF);
        fs::create_dir_all(CACHE_DIR).expect("create cache dir");
        fs::write(
            bundle_path(&scenario, scenario.monitored),
            "time,a,label\n1.0,x,0\n",
        )
        .expect("write a malformed bundle");
        let bundle = cached_bundle(&scenario);
        let fresh = scenario.run();
        assert_eq!(bits(&bundle), bits(&fresh));
        assert_eq!(bundle.labels, fresh.labels);
        assert!(
            load(&scenario, &[scenario.monitored]).is_some(),
            "the miss was cached"
        );
    }
}

//! On-disk caching of simulated feature bundles.
//!
//! A 10 000-second simulation takes tens of seconds; experiment binaries
//! share scenarios, so bundles are cached under `target/cfa-cache/` in a
//! simple text format keyed by a hash of the scenario description.

use manet_cfa::features::FeatureMatrix;
use manet_cfa::scenario::{Scenario, TraceBundle};
use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::PathBuf;

/// Bump to invalidate previously cached bundles after behaviour changes.
const CACHE_VERSION: u32 = 6;

/// Why the bundle cache could not be used.
#[derive(Debug)]
pub enum CacheError {
    /// The cache directory could not be created.
    CreateDir {
        /// The directory that could not be created.
        path: PathBuf,
        /// The underlying filesystem error.
        source: io::Error,
    },
    /// The simulation produced no bundle for a requested vantage node.
    MissingBundle {
        /// The node whose bundle is missing.
        node: u16,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::CreateDir { path, source } => {
                write!(
                    f,
                    "cannot create cache directory {}: {source}",
                    path.display()
                )
            }
            CacheError::MissingBundle { node } => {
                write!(f, "simulation produced no bundle for node {node}")
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::CreateDir { source, .. } => Some(source),
            CacheError::MissingBundle { .. } => None,
        }
    }
}

fn cache_dir() -> Result<PathBuf, CacheError> {
    let dir = PathBuf::from("target/cfa-cache");
    fs::create_dir_all(&dir).map_err(|source| CacheError::CreateDir {
        path: dir.clone(),
        source,
    })?;
    Ok(dir)
}

fn scenario_key(scenario: &Scenario, node: u16) -> String {
    let mut h = DefaultHasher::new();
    format!("{scenario:?}|{node}|v{CACHE_VERSION}").hash(&mut h);
    format!("bundle_{:016x}.txt", h.finish())
}

fn serialize(bundle: &TraceBundle) -> String {
    let m = &bundle.matrix;
    let mut out = String::new();
    out.push_str(&m.names.join(","));
    out.push('\n');
    out.push_str(
        &m.times
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    out.push_str(
        &bundle
            .labels
            .iter()
            .map(|&l| if l { "1" } else { "0" })
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in &m.rows {
        out.push_str(&row.iter().map(f64::to_string).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

fn deserialize(text: &str, scenario: &Scenario) -> Option<TraceBundle> {
    let mut lines = text.lines();
    let names: Vec<String> = lines.next()?.split(',').map(str::to_string).collect();
    let times: Vec<f64> = lines
        .next()?
        .split(',')
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let labels: Vec<bool> = lines.next()?.split(',').map(|v| v == "1").collect();
    let mut rows = Vec::with_capacity(times.len());
    for line in lines {
        let row: Vec<f64> = line
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        if row.len() != names.len() {
            return None;
        }
        rows.push(row);
    }
    if rows.len() != times.len() || labels.len() != times.len() {
        return None;
    }
    Some(TraceBundle {
        matrix: FeatureMatrix { names, times, rows },
        labels,
        scenario: scenario.clone(),
    })
}

/// Fallible core of [`cached_bundles`]: errors name the failing path or
/// node instead of panicking.
///
/// # Errors
///
/// [`CacheError::CreateDir`] when the cache directory cannot be created.
pub fn try_cached_bundles(
    scenario: &Scenario,
    nodes: &[manet_cfa::sim::NodeId],
) -> Result<Vec<TraceBundle>, CacheError> {
    let dir = cache_dir()?;
    let paths: Vec<PathBuf> = nodes
        .iter()
        .map(|n| dir.join(scenario_key(scenario, n.0)))
        .collect();
    let cached: Option<Vec<TraceBundle>> = paths
        .iter()
        .map(|p| {
            fs::read_to_string(p)
                .ok()
                .and_then(|text| deserialize(&text, scenario))
        })
        .collect();
    if let Some(bundles) = cached {
        return Ok(bundles);
    }
    let bundles = scenario.run_nodes(nodes);
    for (bundle, path) in bundles.iter().zip(&paths) {
        let _ = fs::write(path, serialize(bundle));
    }
    Ok(bundles)
}

/// Single-node counterpart of [`try_cached_bundles`].
///
/// # Errors
///
/// [`CacheError::CreateDir`] when the cache directory cannot be created;
/// [`CacheError::MissingBundle`] when the simulation breaks its
/// one-bundle-per-node contract.
pub fn try_cached_bundle(scenario: &Scenario) -> Result<TraceBundle, CacheError> {
    let node = scenario.monitored;
    try_cached_bundles(scenario, &[node])?
        .pop()
        .ok_or(CacheError::MissingBundle { node: node.0 })
}

/// Runs `scenario` for the given vantage nodes, re-using cached bundles
/// when available. One simulation produces all requested nodes' bundles.
/// The cache is an accelerator, not a correctness dependency: any cache
/// trouble degrades to an uncached run.
pub fn cached_bundles(scenario: &Scenario, nodes: &[manet_cfa::sim::NodeId]) -> Vec<TraceBundle> {
    match try_cached_bundles(scenario, nodes) {
        Ok(bundles) => bundles,
        Err(e) => {
            eprintln!("cfa-bench: {e}; running uncached");
            scenario.run_nodes(nodes)
        }
    }
}

/// Single-node convenience wrapper around [`cached_bundles`], with the
/// same degrade-to-uncached behaviour.
pub fn cached_bundle(scenario: &Scenario) -> TraceBundle {
    match try_cached_bundle(scenario) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("cfa-bench: {e}; running uncached");
            scenario.run()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_cfa::scenario::{Protocol, Transport};

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
    fn serialization_is_lossless() {
        let scenario = Scenario::paper_default(Protocol::Dsr, Transport::Cbr)
            .with_nodes(8)
            .with_connections(4)
            .with_duration(40.0)
            .with_seed(0xBEEF);
        let bundle = scenario.run();
        let text = serialize(&bundle);
        let back = deserialize(&text, &scenario).expect("parse back");
        assert_eq!(bundle.matrix.rows, back.matrix.rows);
        assert_eq!(bundle.matrix.names, back.matrix.names);
        assert_eq!(bundle.labels, back.labels);
    }
}

//! # cfa-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper. Each `src/bin/*` binary reproduces one artefact:
//!
//! | binary | artefact |
//! |--------|----------|
//! | `table4_features` | Table 4 (Feature Set I definitions) |
//! | `table5_features` | Table 5 (traffic feature dimensions, 132 features) |
//! | `table6_attacks`  | Table 6 (implemented intrusions) |
//! | `fig1_recall_precision` | Figure 1 (recall–precision, 3 classifiers × 4 scenarios) |
//! | `fig2_ripper_measures`  | Figure 2 (match count vs avg probability, RIPPER) |
//! | `fig3_timeseries` | Figure 3 (avg probability over time, normal vs abnormal) |
//! | `fig4_density` | Figure 4 (score densities, normal vs abnormal) |
//! | `fig5_intrusion_types` | Figure 5 (per-intrusion-type time series) |
//! | `fig6_intrusion_density` | Figure 6 (per-intrusion-type densities) |
//! | `ablations` | bucket count / sub-model count / windows / threshold sweeps |
//!
//! Simulated feature bundles are cached on disk (under
//! `target/cfa-cache/`, as the fleet driver's CSV), so re-running a binary
//! re-uses earlier simulations, and the runs it misses simulate together
//! through the fleet driver. Set `CFA_FAST=1` to run shortened (2 000 s)
//! scenarios.

use manet_cfa::scenario::{Attack, Protocol, Scenario, Transport};
use manet_cfa::sim::NodeId;
use std::fs;
use std::path::PathBuf;

pub mod cache;
pub mod experiments;

pub use cache::cached_bundle;
pub use experiments::{ScenarioSet, FIG_BUCKET_SECS};

/// Whether shortened scenarios were requested via `CFA_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("CFA_FAST").is_ok_and(|v| v == "1")
}

/// The run length used by the harness (10 000 s, or 2 000 s in fast mode).
pub fn duration_secs() -> f64 {
    if fast_mode() {
        2_000.0
    } else {
        10_000.0
    }
}

/// Attack phase starts, scaled with the run length: the paper's 2500 s and
/// 5000 s for the mixed traces.
pub fn mixed_attack_starts() -> (f64, f64) {
    let d = duration_secs();
    (0.25 * d, 0.5 * d)
}

/// Session starts for the Figure 5 per-intrusion traces (2500/5000/7500 s).
pub fn fig5_session_starts() -> Vec<f64> {
    let d = duration_secs();
    vec![0.25 * d, 0.5 * d, 0.75 * d]
}

/// The four (protocol, transport) scenario combinations of §4.2.
pub fn paper_combos() -> [(Protocol, Transport); 4] {
    [
        (Protocol::Aodv, Transport::Tcp),
        (Protocol::Aodv, Transport::Cbr),
        (Protocol::Dsr, Transport::Tcp),
        (Protocol::Dsr, Transport::Cbr),
    ]
}

/// Base scenario for a combination at the harness duration.
pub fn base_scenario(protocol: Protocol, transport: Transport) -> Scenario {
    Scenario::paper_default(protocol, transport).with_duration(duration_secs())
}

/// The paper's mixed-intrusion scenario for a combination: a black hole
/// on–off from 2500 s and selective dropping on–off from 5000 s, run by
/// different compromised nodes.
pub fn mixed_attack_scenario(protocol: Protocol, transport: Transport, seed: u64) -> Scenario {
    use manet_cfa::attacks::Schedule;
    use manet_cfa::sim::SimTime;
    let (bh_start, drop_start) = mixed_attack_starts();
    let session = SimTime::from_secs(Attack::SESSION_SECS);
    base_scenario(protocol, transport)
        .with_seed(seed)
        .with_attack(
            Attack::blackhole_at(&[bh_start])
                .with_schedule(Schedule::on_off(SimTime::from_secs(bh_start), session))
                .from_node(NodeId(7)),
        )
        .with_attack(
            Attack::dropping_at(&[drop_start], NodeId(3))
                .with_schedule(Schedule::on_off(SimTime::from_secs(drop_start), session))
                .from_node(NodeId(11)),
        )
}

/// Directory where result CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a CSV file of `(x, y)` series under `results/`.
pub fn write_series_csv(name: &str, header: &str, series: &[(f64, f64)]) {
    let mut out = String::from(header);
    out.push('\n');
    for (x, y) in series {
        out.push_str(&format!("{x},{y}\n"));
    }
    let path = results_dir().join(name);
    fs::write(&path, out).expect("write results csv");
    println!("  wrote {}", path.display());
}

//! Feature extraction: audit trace → continuous feature matrix.
//!
//! This is the batch (post-hoc) entry point. Since the streaming refactor
//! it is a thin wrapper: the trace is replayed through
//! [`crate::IncrementalExtractor`], the single implementation of the
//! feature semantics, so batch and online extraction cannot drift apart.

use crate::incremental::{rows_to_matrix, IncrementalExtractor};
use crate::spec::FeatureSpec;
use manet_sim::trace::NodeTrace;
use manet_sim::SimTime;

/// A continuous feature matrix: one row per 5-second snapshot.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// Feature names (columns), in [`FeatureSpec`] order.
    pub names: Vec<String>,
    /// Snapshot times, seconds (the paper's `time` reference column —
    /// excluded from classification).
    pub times: Vec<f64>,
    /// One row of 140 feature values per snapshot.
    pub rows: Vec<Vec<f64>>,
}

impl FeatureMatrix {
    /// Number of snapshots.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of features.
    pub fn n_cols(&self) -> usize {
        self.names.len()
    }
}

/// Extracts the paper's 140 features from a node's audit trace.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    spec: FeatureSpec,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureExtractor {
    /// Creates an extractor with the paper's 5-second snapshot cadence.
    pub fn new() -> FeatureExtractor {
        FeatureExtractor {
            spec: FeatureSpec::new(),
        }
    }

    /// The feature layout in use.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// Extracts feature rows for snapshots at `5, 10, …` up to
    /// `duration` seconds, by replaying the trace through the streaming
    /// extractor. A non-positive duration (or an empty trace over a run
    /// shorter than one snapshot interval) yields an empty matrix.
    pub fn extract(&self, trace: &NodeTrace, duration: SimTime) -> FeatureMatrix {
        let mut inc = IncrementalExtractor::new();
        if duration.as_secs() > 0.0 {
            inc.preload(trace);
            inc.finish(duration);
        }
        let rows = inc.drain_rows();
        rows_to_matrix(&self.spec, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Direction, RouteEventKind, SimTime, TracePacketKind};

    fn trace_with_events() -> NodeTrace {
        let mut tr = NodeTrace::new();
        // 3 data sends in the first 5 s, evenly spaced.
        for i in 0..3 {
            tr.packet(
                SimTime::from_secs(1.0 + i as f64),
                TracePacketKind::Data,
                Direction::Sent,
            );
        }
        // 2 RREQ forwards in the second window.
        tr.packet(
            SimTime::from_secs(6.0),
            TracePacketKind::Rreq,
            Direction::Forwarded,
        );
        tr.packet(
            SimTime::from_secs(8.0),
            TracePacketKind::Rreq,
            Direction::Forwarded,
        );
        // Route events.
        tr.route(SimTime::from_secs(2.0), RouteEventKind::Added, Some(3));
        tr.route(SimTime::from_secs(3.0), RouteEventKind::Removed, None);
        tr.mobility_sample(SimTime::from_secs(5.0), 7.5);
        tr.mobility_sample(SimTime::from_secs(10.0), 2.5);
        tr
    }

    fn col(m: &FeatureMatrix, name: &str) -> usize {
        m.names
            .iter()
            .position(|n| n == name)
            .expect("feature exists")
    }

    #[test]
    fn produces_one_row_per_snapshot() {
        let m = FeatureExtractor::new().extract(&trace_with_events(), SimTime::from_secs(20.0));
        assert_eq!(m.n_rows(), 4); // snapshots at 5, 10, 15, 20
        assert_eq!(m.n_cols(), 140);
        assert_eq!(m.times, vec![5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn counts_events_in_the_right_windows() {
        let m = FeatureExtractor::new().extract(&trace_with_events(), SimTime::from_secs(20.0));
        let c = col(&m, "data_sent_5s_count");
        assert_eq!(m.rows[0][c], 3.0, "3 sends in [0,5)");
        assert_eq!(m.rows[1][c], 0.0, "none in [5,10)");
        let rf = col(&m, "rreq_fwd_5s_count");
        assert_eq!(m.rows[0][rf], 0.0);
        assert_eq!(m.rows[1][rf], 2.0);
        // The 60 s window sees everything from the start.
        let c60 = col(&m, "data_sent_60s_count");
        assert_eq!(m.rows[3][c60], 3.0);
    }

    #[test]
    fn route_all_includes_control_and_transit() {
        let mut tr = NodeTrace::new();
        tr.packet(
            SimTime::from_secs(1.0),
            TracePacketKind::Rreq,
            Direction::Forwarded,
        );
        tr.packet(
            SimTime::from_secs(2.0),
            TracePacketKind::DataTransit,
            Direction::Forwarded,
        );
        tr.packet(
            SimTime::from_secs(3.0),
            TracePacketKind::Hello,
            Direction::Forwarded,
        );
        let m = FeatureExtractor::new().extract(&tr, SimTime::from_secs(5.0));
        let c = col(&m, "route_fwd_5s_count");
        assert_eq!(m.rows[0][c], 3.0);
    }

    #[test]
    fn topology_features_populate() {
        let m = FeatureExtractor::new().extract(&trace_with_events(), SimTime::from_secs(20.0));
        assert_eq!(m.rows[0][col(&m, "route_add_count")], 1.0);
        assert_eq!(m.rows[0][col(&m, "route_removal_count")], 1.0);
        assert_eq!(m.rows[0][col(&m, "total_route_change")], 2.0);
        assert_eq!(m.rows[0][col(&m, "average_route_length")], 3.0);
        assert_eq!(m.rows[0][col(&m, "absolute_velocity")], 7.5);
        assert_eq!(m.rows[1][col(&m, "absolute_velocity")], 2.5);
        assert_eq!(m.rows[1][col(&m, "route_add_count")], 0.0);
    }

    /// The 5 s interval spread of data sends at `times`, all in `[0, 5)`.
    fn ivstd_5s(times: &[f64]) -> f64 {
        let mut tr = NodeTrace::new();
        for &t in times {
            tr.packet(
                SimTime::from_secs(t),
                TracePacketKind::Data,
                Direction::Sent,
            );
        }
        let m = FeatureExtractor::new().extract(&tr, SimTime::from_secs(5.0));
        m.rows[0][col(&m, "data_sent_5s_ivstd")]
    }

    #[test]
    fn ivstd_matches_hand_computation() {
        // Times 1, 2, 3 -> intervals [1, 1] -> stddev 0.
        assert_eq!(ivstd_5s(&[1.0, 2.0, 3.0]), 0.0);
        // Times 0, 1, 3 -> intervals [1, 2] -> mean 1.5, var 0.25, sd 0.5.
        assert_eq!(ivstd_5s(&[0.0, 1.0, 3.0]), 0.5);
        // Too few events.
        assert_eq!(ivstd_5s(&[1.0, 4.0]), 0.0);
        assert_eq!(ivstd_5s(&[]), 0.0);
    }

    #[test]
    fn stddev_feature_flows_through() {
        let mut tr = NodeTrace::new();
        for t in [0.5, 1.5, 4.5] {
            tr.packet(
                SimTime::from_secs(t),
                TracePacketKind::Data,
                Direction::Sent,
            );
        }
        let m = FeatureExtractor::new().extract(&tr, SimTime::from_secs(5.0));
        let c = col(&m, "data_sent_5s_ivstd");
        assert!((m.rows[0][c] - 1.0).abs() < 1e-9, "intervals [1,3] -> sd 1");
    }

    #[test]
    fn empty_trace_yields_zero_features() {
        let m = FeatureExtractor::new().extract(&NodeTrace::new(), SimTime::from_secs(10.0));
        assert_eq!(m.n_rows(), 2);
        assert!(m.rows.iter().flatten().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_duration_yields_empty_matrix_without_panicking() {
        let m = FeatureExtractor::new().extract(&trace_with_events(), SimTime::ZERO);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_cols(), 140, "names are still the full layout");
    }
}

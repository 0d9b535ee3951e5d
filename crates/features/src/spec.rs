//! The feature layout: names and dimensions of Feature Sets I and II.

use manet_sim::{Direction, TracePacketKind};

/// Packet-type dimension of a traffic feature (first row of Table 5).
///
/// Note the paper's taxonomy differs from the raw trace kinds: *route
/// (all)* aggregates every packet carrying a routing header — control
/// messages **and** encapsulated data in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketTypeDim {
    /// Application data at its endpoints.
    Data,
    /// All route packets (control messages + encapsulated transit data).
    RouteAll,
    /// ROUTE REQUEST messages.
    Rreq,
    /// ROUTE REPLY messages.
    Rrep,
    /// ROUTE ERROR messages.
    Rerr,
    /// HELLO messages.
    Hello,
}

impl PacketTypeDim {
    /// All packet-type dimension values, in Table 5 order.
    pub const ALL: [PacketTypeDim; 6] = [
        PacketTypeDim::Data,
        PacketTypeDim::RouteAll,
        PacketTypeDim::Rreq,
        PacketTypeDim::Rrep,
        PacketTypeDim::Rerr,
        PacketTypeDim::Hello,
    ];

    /// Position of this dimension in [`PacketTypeDim::ALL`] (O(1): `ALL`
    /// lists the variants in declaration order).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Which raw trace kinds contribute to this dimension value.
    pub fn trace_kinds(self) -> &'static [TracePacketKind] {
        match self {
            PacketTypeDim::Data => &[TracePacketKind::Data],
            PacketTypeDim::RouteAll => &[
                TracePacketKind::DataTransit,
                TracePacketKind::Rreq,
                TracePacketKind::Rrep,
                TracePacketKind::Rerr,
                TracePacketKind::Hello,
            ],
            PacketTypeDim::Rreq => &[TracePacketKind::Rreq],
            PacketTypeDim::Rrep => &[TracePacketKind::Rrep],
            PacketTypeDim::Rerr => &[TracePacketKind::Rerr],
            PacketTypeDim::Hello => &[TracePacketKind::Hello],
        }
    }

    /// Short name used in feature identifiers.
    pub fn short_name(self) -> &'static str {
        match self {
            PacketTypeDim::Data => "data",
            PacketTypeDim::RouteAll => "route",
            PacketTypeDim::Rreq => "rreq",
            PacketTypeDim::Rrep => "rrep",
            PacketTypeDim::Rerr => "rerr",
            PacketTypeDim::Hello => "hello",
        }
    }
}

/// Statistics-measure dimension of a traffic feature (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatMeasure {
    /// Number of packets in the window.
    Count,
    /// Population standard deviation of the inter-packet intervals in the
    /// window, computed exactly from the packets' [`manet_sim::SimTime`]
    /// microseconds and rounded to `f64` seconds once; zero with fewer
    /// than two intervals.
    IntervalStdDev,
}

impl StatMeasure {
    /// Both measures, in Table 5 order.
    pub const ALL: [StatMeasure; 2] = [StatMeasure::Count, StatMeasure::IntervalStdDev];

    /// Short name used in feature identifiers.
    pub fn short_name(self) -> &'static str {
        match self {
            StatMeasure::Count => "count",
            StatMeasure::IntervalStdDev => "ivstd",
        }
    }
}

/// The paper's sampling periods, in seconds: 5 s, 1 min, 15 min.
pub const SAMPLING_PERIODS: [f64; 3] = [5.0, 60.0, 900.0];

/// Number of traffic features: `(6 × 4 − 2) × 3 × 2 = 132` (Table 5).
pub const N_TRAFFIC_FEATURES: usize = 132;

/// Number of topology/route features (Table 4, excluding `time` which the
/// paper keeps only for reference).
pub const N_TOPOLOGY_FEATURES: usize = 8;

/// Total feature count `L` = 8 + 132 = 140.
pub const N_FEATURES: usize = N_TOPOLOGY_FEATURES + N_TRAFFIC_FEATURES;

/// One traffic-feature coordinate ⟨packet type, direction, period, stat⟩.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficFeature {
    /// Packet-type dimension.
    pub ptype: PacketTypeDim,
    /// Flow-direction dimension.
    pub dir: Direction,
    /// Sampling period in seconds.
    pub period: f64,
    /// Statistics measure.
    pub stat: StatMeasure,
}

/// The full, ordered feature layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    names: Vec<String>,
    traffic: Vec<TrafficFeature>,
}

impl Default for FeatureSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureSpec {
    /// Names of the Feature Set I columns, in order.
    pub const TOPOLOGY_NAMES: [&'static str; N_TOPOLOGY_FEATURES] = [
        "absolute_velocity",
        "route_add_count",
        "route_removal_count",
        "route_find_count",
        "route_notice_count",
        "route_repair_count",
        "total_route_change",
        "average_route_length",
    ];

    /// Builds the canonical 140-feature layout.
    pub fn new() -> FeatureSpec {
        let mut names: Vec<String> = Self::TOPOLOGY_NAMES
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let mut traffic = Vec::with_capacity(N_TRAFFIC_FEATURES);
        for ptype in PacketTypeDim::ALL {
            for dir in Direction::ALL {
                // The paper excludes data×forwarded and data×dropped:
                // encapsulated data in transit is a "route" packet.
                if ptype == PacketTypeDim::Data
                    && matches!(dir, Direction::Forwarded | Direction::Dropped)
                {
                    continue;
                }
                for period in SAMPLING_PERIODS {
                    for stat in StatMeasure::ALL {
                        let dir_name = match dir {
                            Direction::Received => "recv",
                            Direction::Sent => "sent",
                            Direction::Forwarded => "fwd",
                            Direction::Dropped => "drop",
                        };
                        names.push(format!(
                            "{}_{}_{}s_{}",
                            ptype.short_name(),
                            dir_name,
                            period,
                            stat.short_name()
                        ));
                        traffic.push(TrafficFeature {
                            ptype,
                            dir,
                            period,
                            stat,
                        });
                    }
                }
            }
        }
        debug_assert_eq!(traffic.len(), N_TRAFFIC_FEATURES);
        FeatureSpec { names, traffic }
    }

    /// All feature names, topology first, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The traffic-feature coordinates (columns 8..140).
    pub fn traffic_features(&self) -> &[TrafficFeature] {
        &self.traffic
    }

    /// Total number of features (`L`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the spec is empty (never, for the canonical layout).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

use cfa_ml::persist::{Persist, PersistError, Reader, Writer};

impl Persist for FeatureSpec {
    fn write_into(&self, w: &mut Writer) {
        w.seq_len(self.names.len());
        for name in &self.names {
            w.str(name);
        }
        w.seq_len(self.traffic.len());
        for f in &self.traffic {
            w.u8(f.ptype.index() as u8);
            w.u8(f.dir.index() as u8);
            w.f64(f.period);
            let stat = StatMeasure::ALL
                .iter()
                .position(|&s| s == f.stat)
                .unwrap_or(0);
            w.u8(stat as u8);
        }
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        let n_names = r.seq_len(4)?;
        let mut names = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            names.push(r.str()?);
        }
        let n_traffic = r.seq_len(11)?;
        if n_traffic > n_names {
            return Err(PersistError::Malformed(
                "more traffic features than feature names",
            ));
        }
        let mut traffic = Vec::with_capacity(n_traffic);
        for _ in 0..n_traffic {
            let ptype = *PacketTypeDim::ALL
                .get(r.u8()? as usize)
                .ok_or(PersistError::Malformed("packet-type index out of range"))?;
            let dir = *Direction::ALL
                .get(r.u8()? as usize)
                .ok_or(PersistError::Malformed("direction index out of range"))?;
            let period = r.f64()?;
            if !period.is_finite() || period <= 0.0 {
                return Err(PersistError::Malformed("sampling period not positive"));
            }
            let stat = *StatMeasure::ALL
                .get(r.u8()? as usize)
                .ok_or(PersistError::Malformed("stat-measure index out of range"))?;
            traffic.push(TrafficFeature {
                ptype,
                dir,
                period,
                stat,
            });
        }
        Ok(FeatureSpec { names, traffic })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_counts_match_the_paper() {
        let spec = FeatureSpec::new();
        assert_eq!(spec.len(), 140);
        assert_eq!(spec.traffic_features().len(), 132);
        assert_eq!(N_FEATURES, 140);
        // (6 * 4 - 2) * 3 * 2 = 132, the arithmetic spelled out in §4.1.
        assert_eq!((6 * 4 - 2) * 3 * 2, N_TRAFFIC_FEATURES);
    }

    #[test]
    fn no_data_forwarded_or_dropped_features() {
        let spec = FeatureSpec::new();
        for f in spec.traffic_features() {
            if f.ptype == PacketTypeDim::Data {
                assert!(
                    matches!(f.dir, Direction::Received | Direction::Sent),
                    "excluded combination present: {f:?}"
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let spec = FeatureSpec::new();
        let mut names = spec.names().to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), spec.len());
    }

    #[test]
    fn route_all_aggregates_transit_data() {
        assert!(PacketTypeDim::RouteAll
            .trace_kinds()
            .contains(&TracePacketKind::DataTransit));
        assert!(!PacketTypeDim::RouteAll
            .trace_kinds()
            .contains(&TracePacketKind::Data));
    }

    #[test]
    fn example_encoding_from_the_paper() {
        // "<2,0,0,1>": standard deviation of inter-packet intervals of
        // received ROUTE REQUEST packets every 5 seconds.
        let spec = FeatureSpec::new();
        let f = spec
            .traffic_features()
            .iter()
            .find(|f| {
                f.ptype == PacketTypeDim::Rreq
                    && f.dir == Direction::Received
                    && f.period == 5.0
                    && f.stat == StatMeasure::IntervalStdDev
            })
            .expect("the paper's example feature exists");
        assert_eq!(f.period, 5.0);
    }
}

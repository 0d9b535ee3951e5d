//! Property: replaying any event stream through [`IncrementalExtractor`]
//! — interleaved with arbitrary valid clock advances, the way a live
//! simulator drives it — reproduces the batch `FeatureMatrix` exactly:
//! names, times and values.
//!
//! The oracle below is the original, pre-streaming batch algorithm,
//! copied verbatim except for one function. The production
//! `FeatureExtractor` is now a wrapper over the incremental path, so
//! comparing against it alone would be circular; the oracle keeps the
//! semantics pinned independently: sorted `f64` times, windows cut by
//! `f64` comparisons, no buckets.
//!
//! The one replaced function is `interval_stddev`. Production computes
//! the exact population standard deviation of the window's microsecond
//! intervals from integer sums, rounded to `f64` once; the oracle computes
//! the same definition the slow way, interval by interval. The verbatim
//! two-pass `f64` formula of the original stays beside it as a second
//! check: on every window the oracle evaluates, the two must agree within
//! [`oracle::F64_FORMULA_BOUND`] seconds.

use manet_features::{rows_to_matrix, FeatureMatrix, IncrementalExtractor};
use manet_sim::sink::TraceSink;
use manet_sim::trace::NodeTrace;
use manet_sim::{Direction, RouteEventKind, SimTime, TracePacketKind};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Oracle: the original batch extractor (pre-refactor), verbatim.
// ---------------------------------------------------------------------------

// The copy must stay byte-for-byte comparable with the pre-refactor
// source, so style lints are silenced rather than fixed.
#[allow(clippy::needless_range_loop)]
mod oracle {
    use super::*;
    use manet_features::spec::{FeatureSpec, StatMeasure, N_TOPOLOGY_FEATURES};

    struct TimeIndex {
        by: Vec<Vec<Vec<f64>>>,
    }

    impl TimeIndex {
        fn build(trace: &NodeTrace, spec: &FeatureSpec) -> TimeIndex {
            use manet_features::spec::PacketTypeDim;
            let dir_idx = |d: Direction| Direction::ALL.iter().position(|&x| x == d).unwrap();
            let kind_idx =
                |k: TracePacketKind| TracePacketKind::ALL.iter().position(|&x| x == k).unwrap();
            let mut raw: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 4]; TracePacketKind::ALL.len()];
            for e in &trace.packet_events {
                raw[kind_idx(e.kind)][dir_idx(e.dir)].push(e.t.as_secs());
            }
            let _ = spec;
            let mut by: Vec<Vec<Vec<f64>>> = Vec::with_capacity(PacketTypeDim::ALL.len());
            for ptype in PacketTypeDim::ALL {
                let mut per_dir: Vec<Vec<f64>> = Vec::with_capacity(4);
                for d in 0..4 {
                    let mut merged: Vec<f64> = Vec::new();
                    for &k in ptype.trace_kinds() {
                        merged.extend_from_slice(&raw[kind_idx(k)][d]);
                    }
                    merged.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                    per_dir.push(merged);
                }
                by.push(per_dir);
            }
            TimeIndex { by }
        }

        fn window(&self, ptype_idx: usize, dir_idx: usize, lo: f64, hi: f64) -> &[f64] {
            let v = &self.by[ptype_idx][dir_idx];
            let start = v.partition_point(|&t| t < lo);
            let end = v.partition_point(|&t| t < hi);
            &v[start..end]
        }
    }

    /// How far the original `f64` formula may drift from the exact
    /// definition, in seconds.
    pub const F64_FORMULA_BOUND: f64 = 1e-12;

    /// The original formula: two `f64` passes over the intervals.
    fn f64_interval_stddev(times: &[f64]) -> f64 {
        if times.len() < 3 {
            return 0.0;
        }
        let intervals: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let n = intervals.len() as f64;
        let mean = intervals.iter().sum::<f64>() / n;
        let var = intervals.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
        var.sqrt()
    }

    /// The exact definition: the population standard deviation of the
    /// intervals between the window's times in whole microseconds (each
    /// `f64` time is a `SimTime` read back as seconds, so the conversion
    /// is lossless), with `Σd` and `Σd²` summed interval by interval in
    /// integers and the same final float operations as production.
    fn interval_stddev(times: &[f64]) -> f64 {
        if times.len() < 3 {
            return 0.0;
        }
        let us: Vec<u64> = times
            .iter()
            .map(|&t| SimTime::from_secs(t).as_micros())
            .collect();
        let (mut sum, mut sumsq) = (0u128, 0u128);
        for w in us.windows(2) {
            let d = u128::from(w[1] - w[0]);
            sum += d;
            sumsq += d * d;
        }
        let m = us.len() as u64 - 1;
        let num = u128::from(m) * sumsq - sum * sum;
        let exact = (num as f64).sqrt() / m as f64 / 1e6;
        let old = f64_interval_stddev(times);
        assert!(
            (exact - old).abs() <= F64_FORMULA_BOUND,
            "exact {exact} vs f64 formula {old} over {} times",
            times.len()
        );
        exact
    }

    pub fn extract(trace: &NodeTrace, duration: SimTime) -> FeatureMatrix {
        let spec = FeatureSpec::new();
        let snapshot_interval = 5.0;
        let dur = duration.as_secs();
        assert!(dur > 0.0, "duration must be positive");
        let index = TimeIndex::build(trace, &spec);
        let dir_idx = |d: Direction| Direction::ALL.iter().position(|&x| x == d).unwrap();
        let ptype_idx = |p: manet_features::spec::PacketTypeDim| {
            manet_features::spec::PacketTypeDim::ALL
                .iter()
                .position(|&x| x == p)
                .unwrap()
        };

        let route_times: Vec<(f64, RouteEventKind, Option<u8>)> = trace
            .route_events
            .iter()
            .map(|e| (e.t.as_secs(), e.kind, e.route_len))
            .collect();

        let mut times = Vec::new();
        let mut rows = Vec::new();
        let mut t = snapshot_interval;
        let mut route_lo = 0usize;
        while t <= dur + 1e-9 {
            let lo = t - snapshot_interval;
            let mut row = Vec::with_capacity(spec.len());

            let velocity = trace
                .mobility
                .iter()
                .min_by(|a, b| {
                    let da = (a.t.as_secs() - t).abs();
                    let db = (b.t.as_secs() - t).abs();
                    da.partial_cmp(&db).expect("finite times")
                })
                .map_or(0.0, |s| s.velocity);
            row.push(velocity);

            while route_lo < route_times.len() && route_times[route_lo].0 < lo {
                route_lo += 1;
            }
            let mut counts = [0usize; 5];
            let mut len_sum = 0.0;
            let mut len_n = 0usize;
            let kind_pos =
                |k: RouteEventKind| RouteEventKind::ALL.iter().position(|&x| x == k).unwrap();
            for &(rt, kind, route_len) in &route_times[route_lo..] {
                if rt >= t {
                    break;
                }
                counts[kind_pos(kind)] += 1;
                if matches!(kind, RouteEventKind::Added | RouteEventKind::Noticed) {
                    if let Some(l) = route_len {
                        len_sum += f64::from(l);
                        len_n += 1;
                    }
                }
            }
            let add = counts[kind_pos(RouteEventKind::Added)] as f64;
            let removal = counts[kind_pos(RouteEventKind::Removed)] as f64;
            row.push(add);
            row.push(removal);
            row.push(counts[kind_pos(RouteEventKind::Found)] as f64);
            row.push(counts[kind_pos(RouteEventKind::Noticed)] as f64);
            row.push(counts[kind_pos(RouteEventKind::Repaired)] as f64);
            row.push(add + removal);
            row.push(if len_n > 0 {
                len_sum / len_n as f64
            } else {
                0.0
            });
            debug_assert_eq!(row.len(), N_TOPOLOGY_FEATURES);

            for f in spec.traffic_features() {
                let lo_w = (t - f.period).max(0.0);
                let window = index.window(ptype_idx(f.ptype), dir_idx(f.dir), lo_w, t);
                let v = match f.stat {
                    StatMeasure::Count => window.len() as f64,
                    StatMeasure::IntervalStdDev => interval_stddev(window),
                };
                row.push(v);
            }

            times.push(t);
            rows.push(row);
            t += snapshot_interval;
        }
        FeatureMatrix {
            names: spec.names().to_vec(),
            times,
            rows,
        }
    }
}

// ---------------------------------------------------------------------------
// Stream generation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Ev {
    Packet(f64, TracePacketKind, Direction),
    Route(f64, RouteEventKind, Option<u8>),
    Mobility(f64, f64),
}

impl Ev {
    fn time(&self) -> f64 {
        match *self {
            Ev::Packet(t, ..) | Ev::Route(t, ..) | Ev::Mobility(t, ..) => t,
        }
    }
}

const DURATION: f64 = 60.0;

/// Longer than the widest window (900 s), so late rows evict early buckets.
const LONG_DURATION: f64 = 1200.0;

fn event_strategy(horizon: f64) -> impl Strategy<Value = Ev> {
    (
        (0usize..3, 0.0f64..horizon),
        (0usize..6, 0usize..5, 0usize..4),
        (0u8..9, 0.0f64..25.0),
    )
        .prop_map(|((sel, t), (pk, rk, d), (len, v))| match sel {
            0 => Ev::Packet(t, TracePacketKind::ALL[pk], Direction::ALL[d]),
            1 => Ev::Route(
                t,
                RouteEventKind::ALL[rk],
                if len == 0 { None } else { Some(len - 1) },
            ),
            _ => Ev::Mobility(t, v),
        })
}

/// A burst of 3 to 7 packets of one kind and direction, evenly spaced by
/// `mantissa · 10^exp` µs (0 µs to 9 s), so that one slot's window holds
/// three or more packets at spacings from simultaneous to seconds.
fn burst_strategy() -> impl Strategy<Value = Vec<Ev>> {
    (
        (0.0f64..LONG_DURATION, 3u64..8),
        (0u64..10, 0u32..7),
        (0usize..6, 0usize..4),
    )
        .prop_map(|((start, len), (mantissa, exp), (pk, d))| {
            let gap = mantissa * 10u64.pow(exp);
            (0..len)
                .map(|j| start + (j * gap) as f64 / 1e6)
                .filter(|&t| t < LONG_DURATION)
                .map(|t| Ev::Packet(t, TracePacketKind::ALL[pk], Direction::ALL[d]))
                .collect()
        })
}

fn sorted(mut events: Vec<Ev>) -> Vec<Ev> {
    events.sort_by(|a, b| a.time().partial_cmp(&b.time()).unwrap());
    events
}

/// A chronological event stream plus, per gap, whether the driver lets the
/// clock catch up (an `advance_to` between deliveries).
fn stream_strategy() -> impl Strategy<Value = (Vec<Ev>, Vec<bool>)> {
    (
        proptest::collection::vec(event_strategy(DURATION), 0..250),
        proptest::collection::vec(proptest::bool::ANY, 250),
    )
        .prop_map(|(events, advances)| (sorted(events), advances))
}

/// Bursts over [`LONG_DURATION`], mixed with scattered events of every
/// kind, plus the clock advances.
fn clustered_stream_strategy() -> impl Strategy<Value = (Vec<Ev>, Vec<bool>)> {
    (
        proptest::collection::vec(burst_strategy(), 1..60),
        proptest::collection::vec(event_strategy(LONG_DURATION), 0..120),
        proptest::collection::vec(proptest::bool::ANY, 540),
    )
        .prop_map(|(bursts, scattered, advances)| {
            let events = bursts.into_iter().flatten().chain(scattered).collect();
            (sorted(events), advances)
        })
}

fn trace_of(events: &[Ev]) -> NodeTrace {
    let mut tr = NodeTrace::new();
    for &e in events {
        match e {
            Ev::Packet(t, k, d) => tr.packet(SimTime::from_secs(t), k, d),
            Ev::Route(t, k, l) => tr.route(SimTime::from_secs(t), k, l),
            Ev::Mobility(t, v) => tr.mobility_sample(SimTime::from_secs(t), v),
        }
    }
    tr
}

/// Streams `events` into an extractor the way a live simulator drives it,
/// letting the clock catch up after event `i` when `advances[i]` holds.
fn stream(events: &[Ev], advances: &[bool], duration: SimTime) -> FeatureMatrix {
    let mut ext = IncrementalExtractor::new();
    for (i, &e) in events.iter().enumerate() {
        let now = SimTime::from_secs(e.time());
        match e {
            Ev::Packet(_, k, d) => TraceSink::packet(&mut ext, now, k, d),
            Ev::Route(_, k, l) => TraceSink::route(&mut ext, now, k, l),
            Ev::Mobility(_, v) => TraceSink::mobility(&mut ext, now, v),
        }
        // A clock advance to the last delivered instant is only a valid
        // promise ("no more events at or before this time") when the
        // next event lies strictly later.
        let next = events
            .get(i + 1)
            .map_or(duration, |n| SimTime::from_secs(n.time()));
        if advances[i] && next > now {
            ext.advance_to(now);
        }
    }
    ext.advance_to(duration);
    ext.finish(duration);
    let rows = ext.drain_rows();
    rows_to_matrix(ext.spec(), rows)
}

/// Names, times and every value equal the oracle's, bit for bit.
fn assert_bit_identical(got: &FeatureMatrix, expected: &FeatureMatrix) {
    prop_assert_eq!(&got.names, &expected.names);
    prop_assert_eq!(&got.times, &expected.times);
    prop_assert_eq!(got.rows.len(), expected.rows.len());
    for (r, (a, b)) in got.rows.iter().zip(&expected.rows).enumerate() {
        for (c, (x, y)) in a.iter().zip(b).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "row {} col {} ({}): {} != {}",
                r,
                c,
                got.names[c],
                x,
                y
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_replay_equals_batch_matrix((events, advances) in stream_strategy()) {
        let duration = SimTime::from_secs(DURATION);
        let expected = oracle::extract(&trace_of(&events), duration);
        assert_bit_identical(&stream(&events, &advances, duration), &expected);
    }

    #[test]
    fn production_batch_wrapper_equals_oracle((events, _) in stream_strategy()) {
        let duration = SimTime::from_secs(DURATION);
        let trace = trace_of(&events);
        let expected = oracle::extract(&trace, duration);
        let got = manet_features::FeatureExtractor::new().extract(&trace, duration);
        prop_assert_eq!(&got.times, &expected.times);
        prop_assert_eq!(&got.rows, &expected.rows);
    }

    #[test]
    fn clustered_long_streams_equal_the_oracle((events, advances) in clustered_stream_strategy()) {
        let duration = SimTime::from_secs(LONG_DURATION);
        let trace = trace_of(&events);
        let expected = oracle::extract(&trace, duration);
        assert_bit_identical(&stream(&events, &advances, duration), &expected);
        let batch = manet_features::FeatureExtractor::new().extract(&trace, duration);
        assert_bit_identical(&batch, &expected);
    }
}

//! Online feature extraction: audit events in, snapshot rows out.
//!
//! [`IncrementalExtractor`] is the streaming counterpart of
//! [`crate::FeatureExtractor`]. It implements [`TraceSink`], so it can be
//! installed directly on a [`manet_sim::Simulator`] node: every packet,
//! route and mobility observation is folded into sliding window state the
//! moment it occurs, and one completed 140-feature snapshot row is emitted
//! every 5 simulated seconds. The emitted rows are **bit-identical** to the
//! rows the batch extractor computes from the full trace — the batch
//! extractor is in fact a thin wrapper that replays the trace through this
//! type.
//!
//! # Traffic buckets
//!
//! Snapshot times and all three sampling periods of Table 5 are multiples
//! of 5 s, so every traffic window `[t − period, t)` is exactly a run of
//! whole 5 s buckets. Each (packet type, direction) slot keeps, per
//! non-empty bucket, exact integer statistics over [`SimTime`]
//! microseconds: the packet count, the first and last packet time, and
//! the sum of squared intervals inside the bucket. Adjacent buckets merge
//! exactly (the interval that joins them is the gap between one's last
//! and the next one's first packet), so one backward walk over at most
//! 180 buckets gives a slot's counts and interval spreads for all three
//! periods. The spread is the population standard deviation of the
//! window's microsecond intervals, computed from exact sums and rounded
//! to `f64` only at the end.
//!
//! # Memory bound
//!
//! State is bounded by the widest sampling window, not by run length or
//! traffic: buckets older than 900 s (the longest period of Table 5),
//! route events older than the 5 s base window and mobility samples that
//! can no longer be any future snapshot's nearest sample are all pruned as
//! rows are emitted. A slot holds one bucket per 5 s of the widest window
//! (plus those of rows not yet emitted), however many packets it sees,
//! and a 10 000-second run holds the same state as a 1 000-second one.
//!
//! # Emission discipline
//!
//! A snapshot at time `t` summarises the window *ending* at `t`, so it can
//! only be finalised once no future event could change it. The extractor
//! tracks a watermark `W` — a lower bound on every future event time —
//! advanced by each ingested event (future events arrive at `>= W`) and by
//! [`IncrementalExtractor::advance_to`] (the driver's promise that the
//! simulation clock has passed `W`, so future events arrive at `> W`).
//! Window counts close as soon as `W >= t`; the velocity feature (nearest
//! mobility sample to `t`, which may lie *after* `t`) additionally waits
//! until no future sample could beat the current nearest. Rows the
//! watermark cannot finalise (e.g. the velocity of the last snapshot)
//! are flushed by [`IncrementalExtractor::finish`].

use crate::extract::FeatureMatrix;
use crate::spec::{FeatureSpec, PacketTypeDim, StatMeasure, N_TOPOLOGY_FEATURES, SAMPLING_PERIODS};
use manet_sim::sink::TraceSink;
use manet_sim::trace::NodeTrace;
use manet_sim::{Direction, RouteEventKind, SimTime, TracePacketKind};

/// Snapshot cadence, and the width of a traffic bucket, in microseconds:
/// the paper's 5 s.
const SNAPSHOT_US: u64 = 5_000_000;

/// Number of sampling periods (5 s, 1 min, 15 min).
const N_PERIODS: usize = SAMPLING_PERIODS.len();

/// Number of (packet type, direction) slots.
const N_SLOTS: usize = PacketTypeDim::ALL.len() * Direction::ALL.len();

/// Whole 5 s buckets in a span of `secs` seconds.
fn buckets_in(secs: f64) -> u64 {
    SimTime::from_secs(secs).as_micros() / SNAPSHOT_US
}

/// Start of bucket `k` (equivalently, the time of snapshot `k`), seconds.
fn bucket_secs(k: u64) -> f64 {
    SimTime::from_micros(k * SNAPSHOT_US).as_secs()
}

/// One completed snapshot emitted by the streaming extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRow {
    /// Snapshot time in seconds (the paper's `time` reference column).
    pub time: f64,
    /// The 140 feature values, in [`FeatureSpec`] column order.
    pub values: Vec<f64>,
}

/// Exact statistics of a time-ordered run of packets, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Intervals {
    /// Packets in the run.
    n: u64,
    /// Time of the first and of the last packet.
    first: u64,
    last: u64,
    /// Sum of the squared intervals between consecutive packets. It fits:
    /// the sum is at most `(last − first)²`, and a window spans < 900 s.
    sumsq: u64,
}

impl Intervals {
    /// A run of one packet at `t`.
    fn at(t: u64) -> Intervals {
        Intervals {
            n: 1,
            first: t,
            last: t,
            sumsq: 0,
        }
    }

    /// Appends a packet at `t >= self.last`.
    fn push(&mut self, t: u64) {
        debug_assert!(self.last <= t, "packets arrive in time order");
        let d = t - self.last;
        self.sumsq += d * d;
        self.last = t;
        self.n += 1;
    }

    /// Prepends an earlier run: the interval joining the two runs is the
    /// gap from its last packet to this run's first.
    fn prepend(&mut self, earlier: &Intervals) {
        if self.n == 0 {
            *self = *earlier;
            return;
        }
        let gap = self.first - earlier.last;
        self.sumsq += earlier.sumsq + gap * gap;
        self.first = earlier.first;
        self.n += earlier.n;
    }

    /// Population standard deviation of the intervals, in seconds; zero
    /// when fewer than two intervals exist.
    ///
    /// With `m` intervals summing to `s` (the intervals telescope to
    /// `last − first`) and squares summing to `q`, the variance is
    /// `(m·q − s²) / m²`. The numerator is exact in a `u128` and never
    /// negative (Cauchy–Schwarz); it is rounded to `f64` once.
    fn stddev(&self) -> f64 {
        if self.n < 3 {
            return 0.0;
        }
        let m = u128::from(self.n - 1);
        let s = u128::from(self.last - self.first);
        let num = m * u128::from(self.sumsq) - s * s;
        (num as f64).sqrt() / (self.n - 1) as f64 / 1e6
    }
}

/// The packets of one slot inside one 5 s bucket.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Bucket number: the bucket covers `[k · 5 s, (k + 1) · 5 s)`.
    k: u64,
    stats: Intervals,
}

/// One slot's non-empty buckets, oldest first, with an amortised-O(1)
/// pruned front.
#[derive(Debug, Clone, Default)]
struct Buckets {
    run: Vec<Bucket>,
    start: usize,
}

impl Buckets {
    fn live(&self) -> &[Bucket] {
        self.run.get(self.start..).unwrap_or(&[])
    }

    /// Adds a packet at `t` µs, no earlier than every packet so far.
    fn push(&mut self, t: u64) {
        let k = t / SNAPSHOT_US;
        match self.run.last_mut() {
            Some(b) if b.k == k => b.stats.push(t),
            _ => self.run.push(Bucket {
                k,
                stats: Intervals::at(t),
            }),
        }
    }

    /// The windows `[k − len, k)` (in buckets) for each of the ascending
    /// `lens`, from one backward walk: each window extends the one before.
    fn windows(&self, k: u64, lens: &[u64; N_PERIODS]) -> [Intervals; N_PERIODS] {
        let live = self.live();
        let end = live.partition_point(|b| b.k < k);
        let mut newest_first = live.get(..end).unwrap_or(&[]).iter().rev().peekable();
        let mut acc = Intervals::default();
        let mut out = [Intervals::default(); N_PERIODS];
        for (w, &len) in out.iter_mut().zip(lens) {
            let lo = k.saturating_sub(len);
            while let Some(b) = newest_first.next_if(|b| b.k >= lo) {
                acc.prepend(&b.stats);
            }
            *w = acc;
        }
        out
    }

    /// Drops buckets before `min_k`; they can appear in no future window.
    fn prune(&mut self, min_k: u64) {
        while self.run.get(self.start).is_some_and(|b| b.k < min_k) {
            self.start += 1;
        }
        if self.start > 64 && self.start * 2 >= self.run.len() {
            self.run.drain(..self.start);
            self.start = 0;
        }
    }

    /// Packets the retained buckets cover.
    fn retained(&self) -> usize {
        self.live().iter().map(|b| b.stats.n as usize).sum()
    }
}

/// Streaming extractor of the paper's 140 features.
///
/// Feed events via the [`TraceSink`] methods (or install on a simulator
/// node with [`manet_sim::Simulator::set_sink`]), call
/// [`IncrementalExtractor::advance_to`] whenever the simulation clock
/// moves, and collect completed rows with
/// [`IncrementalExtractor::drain_rows`]. Call
/// [`IncrementalExtractor::finish`] at end of run to flush the tail.
#[derive(Debug, Clone)]
pub struct IncrementalExtractor {
    spec: FeatureSpec,
    /// The next snapshot to emit is at `next_k · 5 s`; its traffic
    /// windows end just before bucket `next_k`.
    next_k: u64,
    /// Lower bound on all future event times.
    watermark: f64,
    /// Whether future events are known to arrive strictly after the
    /// watermark (true after `advance_to`) or merely at-or-after it
    /// (after an ingested event).
    watermark_strict: bool,
    /// `traffic[ptype_idx * 4 + dir_idx]` → that slot's buckets.
    traffic: Vec<Buckets>,
    /// Each sampling period in buckets, ascending: 1, 12 and 180.
    period_buckets: [u64; N_PERIODS],
    /// Raw trace kind → indices into [`PacketTypeDim::ALL`] it feeds.
    kind_to_ptypes: Vec<Vec<usize>>,
    /// Route events inside (or after) the current base window.
    routes: Vec<(f64, RouteEventKind, Option<u8>)>,
    routes_start: usize,
    /// Mobility samples still eligible to be some snapshot's nearest.
    mobility: Vec<(f64, f64)>,
    /// Completed rows not yet drained.
    ready: Vec<SnapshotRow>,
}

impl Default for IncrementalExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalExtractor {
    /// Creates an extractor with the paper's 5-second snapshot cadence.
    pub fn new() -> IncrementalExtractor {
        let spec = FeatureSpec::new();
        let kind_to_ptypes = TracePacketKind::ALL
            .iter()
            .map(|&k| {
                PacketTypeDim::ALL
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.trace_kinds().contains(&k))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        IncrementalExtractor {
            spec,
            next_k: 1,
            watermark: 0.0,
            watermark_strict: false,
            traffic: vec![Buckets::default(); N_SLOTS],
            period_buckets: SAMPLING_PERIODS.map(buckets_in),
            kind_to_ptypes,
            routes: Vec::new(),
            routes_start: 0,
            mobility: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// The feature layout in use.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// Number of buffered events currently retained (diagnostic): the
    /// packets the retained traffic buckets cover, plus the buffered route
    /// events and mobility samples. The pruning rules keep it bounded by
    /// window width. Traffic memory itself is buckets, one per slot per 5 s
    /// of the widest window, whatever the packet rate.
    pub fn retained_events(&self) -> usize {
        self.traffic.iter().map(Buckets::retained).sum::<usize>()
            + (self.routes.len() - self.routes_start)
            + self.mobility.len()
    }

    fn dir_idx(d: Direction) -> usize {
        d.index()
    }

    fn kind_idx(k: TracePacketKind) -> usize {
        k.index()
    }

    /// Buffers a packet observation at `t` µs without advancing the
    /// watermark.
    fn buffer_packet(&mut self, t: u64, kind: TracePacketKind, dir: Direction) {
        let d = Self::dir_idx(dir);
        let Some(ptypes) = self.kind_to_ptypes.get(Self::kind_idx(kind)) else {
            return;
        };
        for &p in ptypes {
            if let Some(buf) = self.traffic.get_mut(p * Direction::ALL.len() + d) {
                buf.push(t);
            }
        }
    }

    /// An ingested event at `t` implies future events arrive at `>= t`.
    fn observe(&mut self, t: f64) {
        if t >= self.watermark {
            self.watermark = t;
            self.watermark_strict = false;
        }
        self.try_emit();
    }

    /// Tells the extractor the simulation clock has reached `now`: all
    /// events at or before `now` have been delivered, so future events
    /// arrive strictly after it. This is what lets the last covered
    /// snapshots finalise when the network goes quiet.
    pub fn advance_to(&mut self, now: SimTime) {
        let t = now.as_secs();
        if t >= self.watermark {
            self.watermark = t;
            self.watermark_strict = true;
        }
        self.try_emit();
    }

    /// Flushes every remaining snapshot up to `duration` (the batch
    /// extractor's `5, 10, … <= duration` grid), regardless of watermark.
    /// Call once, after the run has fully ended.
    pub fn finish(&mut self, duration: SimTime) {
        while self.next_k * SNAPSHOT_US <= duration.as_micros() {
            self.emit_row();
        }
    }

    /// Removes and returns the completed rows emitted so far, in time order.
    pub fn drain_rows(&mut self) -> Vec<SnapshotRow> {
        std::mem::take(&mut self.ready)
    }

    /// Replays a recorded trace into the buffers (no watermark, no
    /// emission): the batch path. The three per-stream orderings are each
    /// chronological, which is all the buffers require.
    pub(crate) fn preload(&mut self, trace: &NodeTrace) {
        for e in &trace.packet_events {
            self.buffer_packet(e.t.as_micros(), e.kind, e.dir);
        }
        for e in &trace.route_events {
            self.routes.push((e.t.as_secs(), e.kind, e.route_len));
        }
        for s in &trace.mobility {
            self.mobility.push((s.t.as_secs(), s.velocity));
        }
    }

    /// The retained mobility sample nearest to `t` (ties → latest sample,
    /// matching the batch `min_by`), with its distance.
    fn best_mobility(&self, t: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &(st, _)) in self.mobility.iter().enumerate() {
            let d = (st - t).abs();
            match best {
                Some((_, bd)) if d > bd => {}
                _ => best = Some((i, d)),
            }
        }
        best
    }

    /// Emits every snapshot the watermark proves complete.
    fn try_emit(&mut self) {
        loop {
            let t = bucket_secs(self.next_k);
            // Window completeness: all events `< t` must have arrived.
            if self.watermark < t {
                return;
            }
            // Velocity completeness: no future mobility sample (arriving at
            // `>= W`, or `> W` when strict) may beat-or-tie the current
            // nearest, because batch `min_by` resolves ties to the *later*
            // sample. With no sample yet, any future one wins: wait.
            let winner_dist = match self.best_mobility(t) {
                Some((_, d)) => d,
                None => f64::INFINITY,
            };
            let slack = self.watermark - t;
            let settled = if self.watermark_strict {
                slack >= winner_dist
            } else {
                slack > winner_dist
            };
            if !settled {
                return;
            }
            self.emit_row();
        }
    }

    /// Computes and records the snapshot at `next_k · 5 s`, then prunes
    /// state no future snapshot can see. Batch and streaming extraction
    /// both emit every row here.
    fn emit_row(&mut self) {
        let k = self.next_k;
        let t = bucket_secs(k);
        let lo = bucket_secs(k.saturating_sub(1));
        let mut row = Vec::with_capacity(self.spec.len());

        // --- Feature Set I ---
        // Velocity: the mobility sample closest to this snapshot time.
        let velocity = self
            .best_mobility(t)
            .and_then(|(i, _)| self.mobility.get(i))
            .map_or(0.0, |&(_, v)| v);
        row.push(velocity);

        // Route-event counters over the base 5 s window.
        while self
            .routes
            .get(self.routes_start)
            .is_some_and(|&(rt, _, _)| rt < lo)
        {
            self.routes_start += 1;
        }
        let mut counts = [0usize; 5];
        let mut len_sum = 0.0;
        let mut len_n = 0usize;
        let kind_pos = |k: RouteEventKind| k.index();
        for &(rt, kind, route_len) in self.routes.get(self.routes_start..).unwrap_or(&[]) {
            if rt >= t {
                break;
            }
            if let Some(c) = counts.get_mut(kind_pos(kind)) {
                *c += 1;
            }
            if matches!(kind, RouteEventKind::Added | RouteEventKind::Noticed) {
                if let Some(l) = route_len {
                    len_sum += f64::from(l);
                    len_n += 1;
                }
            }
        }
        let count = |k: RouteEventKind| counts.get(kind_pos(k)).copied().unwrap_or(0) as f64;
        let add = count(RouteEventKind::Added);
        let removal = count(RouteEventKind::Removed);
        row.push(add);
        row.push(removal);
        row.push(count(RouteEventKind::Found));
        row.push(count(RouteEventKind::Noticed));
        row.push(count(RouteEventKind::Repaired));
        row.push(add + removal); // total route change
        row.push(if len_n > 0 {
            len_sum / len_n as f64
        } else {
            0.0
        });
        debug_assert_eq!(row.len(), N_TOPOLOGY_FEATURES);

        // --- Feature Set II ---
        let mut windows = [[Intervals::default(); N_PERIODS]; N_SLOTS];
        for (w, buf) in windows.iter_mut().zip(&self.traffic) {
            *w = buf.windows(k, &self.period_buckets);
        }
        for f in self.spec.traffic_features() {
            let slot = f.ptype.index() * Direction::ALL.len() + Self::dir_idx(f.dir);
            // Every period of the spec is a sampling period.
            let len = buckets_in(f.period);
            let period = self.period_buckets.iter().position(|&b| b == len);
            let w = period
                .and_then(|p| windows.get(slot)?.get(p))
                .copied()
                .unwrap_or_default();
            row.push(match f.stat {
                StatMeasure::Count => w.n as f64,
                StatMeasure::IntervalStdDev => w.stddev(),
            });
        }

        self.ready.push(SnapshotRow {
            time: t,
            values: row,
        });
        self.next_k = k + 1;
        self.prune(t);
    }

    /// Drops state the just-emitted snapshot at `t` was the last to need.
    fn prune(&mut self, t: f64) {
        // Traffic: the widest future window starts `widest` buckets
        // before `next_k`.
        let widest = self.period_buckets.iter().copied().max().unwrap_or(0);
        let min_k = self.next_k.saturating_sub(widest);
        for buf in &mut self.traffic {
            buf.prune(min_k);
        }
        // Route events: each lives in exactly one base window, which has
        // now closed for everything `< t`.
        while self
            .routes
            .get(self.routes_start)
            .is_some_and(|&(rt, _, _)| rt < t)
        {
            self.routes_start += 1;
        }
        if self.routes_start > 64 && self.routes_start * 2 >= self.routes.len() {
            self.routes.drain(..self.routes_start);
            self.routes_start = 0;
        }
        // Mobility: samples before this snapshot's nearest can never again
        // be nearest — for any later snapshot time the winner is at least
        // as close, and on ties the later sample wins (as in batch).
        if let Some((w, _)) = self.best_mobility(t) {
            self.mobility.drain(..w);
        }
    }
}

impl TraceSink for IncrementalExtractor {
    fn packet(&mut self, t: SimTime, kind: TracePacketKind, dir: Direction) {
        self.buffer_packet(t.as_micros(), kind, dir);
        self.observe(t.as_secs());
    }

    fn route(&mut self, t: SimTime, kind: RouteEventKind, route_len: Option<u8>) {
        let ts = t.as_secs();
        self.routes.push((ts, kind, route_len));
        self.observe(ts);
    }

    fn mobility(&mut self, t: SimTime, velocity: f64) {
        let ts = t.as_secs();
        self.mobility.push((ts, velocity));
        self.observe(ts);
    }
}

/// Assembles drained [`SnapshotRow`]s into a batch [`FeatureMatrix`].
pub fn rows_to_matrix(spec: &FeatureSpec, rows: Vec<SnapshotRow>) -> FeatureMatrix {
    let mut times = Vec::with_capacity(rows.len());
    let mut values = Vec::with_capacity(rows.len());
    for r in rows {
        times.push(r.time);
        values.push(r.values);
    }
    FeatureMatrix {
        names: spec.names().to_vec(),
        times,
        rows: values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::FeatureExtractor;

    fn feed(ext: &mut IncrementalExtractor, trace: &NodeTrace) {
        // Interleave the three streams chronologically, the way a
        // simulator would deliver them.
        let mut events: Vec<(f64, usize, usize)> = Vec::new();
        for (i, e) in trace.packet_events.iter().enumerate() {
            events.push((e.t.as_secs(), 0, i));
        }
        for (i, e) in trace.route_events.iter().enumerate() {
            events.push((e.t.as_secs(), 1, i));
        }
        for (i, s) in trace.mobility.iter().enumerate() {
            events.push((s.t.as_secs(), 2, i));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (_, stream, i) in events {
            match stream {
                0 => {
                    let e = trace.packet_events[i];
                    TraceSink::packet(ext, e.t, e.kind, e.dir);
                }
                1 => {
                    let e = trace.route_events[i];
                    TraceSink::route(ext, e.t, e.kind, e.route_len);
                }
                _ => {
                    let s = trace.mobility[i];
                    TraceSink::mobility(ext, s.t, s.velocity);
                }
            }
        }
    }

    fn busy_trace() -> NodeTrace {
        let mut tr = NodeTrace::new();
        for i in 0..40 {
            let t = 0.3 + 0.5 * i as f64;
            tr.packet(
                SimTime::from_secs(t),
                if i % 3 == 0 {
                    TracePacketKind::Rreq
                } else {
                    TracePacketKind::Data
                },
                if i % 2 == 0 {
                    Direction::Sent
                } else {
                    Direction::Received
                },
            );
        }
        tr.route(SimTime::from_secs(2.0), RouteEventKind::Added, Some(3));
        tr.route(SimTime::from_secs(7.0), RouteEventKind::Removed, None);
        tr.route(SimTime::from_secs(7.0), RouteEventKind::Added, Some(2));
        for k in 1..=5 {
            tr.mobility_sample(SimTime::from_secs(5.0 * k as f64), 1.5 * k as f64);
        }
        tr
    }

    #[test]
    fn streaming_matches_batch_exactly() {
        let trace = busy_trace();
        let dur = SimTime::from_secs(25.0);
        let batch = FeatureExtractor::new().extract(&trace, dur);

        let mut ext = IncrementalExtractor::new();
        feed(&mut ext, &trace);
        ext.advance_to(dur);
        ext.finish(dur);
        let rows = ext.drain_rows();
        let m = rows_to_matrix(ext.spec(), rows);

        assert_eq!(m.names, batch.names);
        assert_eq!(m.times, batch.times);
        assert_eq!(m.rows, batch.rows);
    }

    #[test]
    fn rows_emit_online_before_finish() {
        let trace = busy_trace();
        let mut ext = IncrementalExtractor::new();
        feed(&mut ext, &trace);
        // Events reach t = 25 and mobility samples reach 25; snapshots
        // whose velocity winner is settled must already be out.
        let early = ext.drain_rows();
        assert!(
            !early.is_empty(),
            "watermark-driven emission produced nothing"
        );
        assert_eq!(early[0].time, 5.0);
        for w in early.windows(2) {
            assert_eq!(w[1].time - w[0].time, 5.0);
        }
    }

    #[test]
    fn emission_waits_for_the_velocity_winner_to_settle() {
        let mut ext = IncrementalExtractor::new();
        // A sample exactly at the snapshot time: a later equally-near
        // sample would win the batch tie-break, so t=5 may not emit at
        // watermark 5 on event evidence alone…
        TraceSink::mobility(&mut ext, SimTime::from_secs(5.0), 3.0);
        assert!(ext.drain_rows().is_empty());
        // …but the clock passing 5 makes a tie impossible.
        ext.advance_to(SimTime::from_secs(5.0));
        let rows = ext.drain_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0], 3.0);
    }

    #[test]
    fn state_is_pruned_as_rows_emit() {
        let mut ext = IncrementalExtractor::new();
        let mut clock = 0.25;
        while clock < 3000.0 {
            TraceSink::packet(
                &mut ext,
                SimTime::from_secs(clock),
                TracePacketKind::Data,
                Direction::Sent,
            );
            if clock % 5.0 < 0.5 {
                TraceSink::mobility(&mut ext, SimTime::from_secs(clock), 1.0);
            }
            clock += 0.25;
        }
        let retained = ext.retained_events();
        // 4 events/s in a 900 s widest window (Data feeds only one ptype
        // dimension), plus slop for route/mobility state: far below the
        // 12 000 events ingested.
        assert!(
            retained < 4000,
            "retained {retained} events; pruning is not bounding state"
        );
        assert!(!ext.drain_rows().is_empty());
    }

    /// The pre-bucket formula: two `f64` passes over the intervals of the
    /// window's times in seconds.
    fn f64_formula(times: &[f64]) -> f64 {
        if times.len() < 3 {
            return 0.0;
        }
        let intervals: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let n = intervals.len() as f64;
        let mean = intervals.iter().sum::<f64>() / n;
        let var = intervals.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
        var.sqrt()
    }

    /// Rows of a run with data sends at `times_us`, flushed at `secs`.
    fn data_sent_rows(times_us: &[u64], secs: f64) -> Vec<SnapshotRow> {
        let mut ext = IncrementalExtractor::new();
        for &t in times_us {
            TraceSink::packet(
                &mut ext,
                SimTime::from_micros(t),
                TracePacketKind::Data,
                Direction::Sent,
            );
        }
        ext.finish(SimTime::from_secs(secs));
        ext.drain_rows()
    }

    fn col(name: &str) -> usize {
        FeatureSpec::new()
            .names()
            .iter()
            .position(|n| n == name)
            .expect("feature exists")
    }

    #[test]
    fn periodic_stream_has_exactly_zero_spread() {
        // One send every 0.1 s: every interval is 100 000 µs. The f64
        // formula reports rounding noise for such windows; the exact one
        // reports 0.
        let times: Vec<u64> = (0..10_000).map(|i| 50_000 + i * 100_000).collect();
        let rows = data_sent_rows(&times, 1000.0);
        assert_eq!(rows.len(), 200);
        for p in ["5", "60", "900"] {
            let c = col(&format!("data_sent_{p}s_ivstd"));
            for r in &rows {
                assert_eq!(
                    r.values[c].to_bits(),
                    0.0f64.to_bits(),
                    "{p} s at {}",
                    r.time
                );
            }
        }
        let first_window: Vec<f64> = times[..50]
            .iter()
            .map(|&t| SimTime::from_micros(t).as_secs())
            .collect();
        assert!(
            f64_formula(&first_window) > 0.0,
            "the f64 formula is noisy here"
        );
    }

    #[test]
    fn extreme_spread_agrees_with_the_f64_formula() {
        // A thousand sends 1 µs apart, then one 899.999 s later: the
        // largest sums one 900 s window can hold.
        let mut times: Vec<u64> = (0..1000).collect();
        times.push(899_999_999);
        let rows = data_sent_rows(&times, 900.0);
        let got = rows[179].values[col("data_sent_900s_ivstd")];
        let secs: Vec<f64> = times
            .iter()
            .map(|&t| SimTime::from_micros(t).as_secs())
            .collect();
        let old = f64_formula(&secs);
        assert!(got > 28.0, "spread {got}");
        assert!((got - old).abs() <= 1e-12, "exact {got} vs f64 {old}");
        assert_eq!(rows[0].values[col("data_sent_5s_ivstd")], 0.0);
        assert_eq!(rows[179].values[col("data_sent_900s_count")], 1001.0);
    }

    #[test]
    fn bucket_memory_is_flat_in_run_length() {
        let mut ext = IncrementalExtractor::new();
        let mut per_slot = Vec::new();
        for i in 0..=12_000u64 {
            let t = SimTime::from_micros(i * 250_000);
            TraceSink::packet(&mut ext, t, TracePacketKind::Data, Direction::Sent);
            if i % 5 == 0 {
                TraceSink::packet(&mut ext, t, TracePacketKind::Rreq, Direction::Received);
            }
            if i % 20 == 0 {
                // Mobility samples let the watermark settle each row.
                TraceSink::mobility(&mut ext, t, 1.0);
            }
            if i % 4000 == 0 {
                let live: Vec<usize> = ext.traffic.iter().map(|b| b.live().len()).collect();
                per_slot.push((t.as_secs(), live));
            }
        }
        let (at_1000, at_3000) = (&per_slot[1].1, &per_slot[3].1);
        assert_eq!((per_slot[1].0, per_slot[3].0), (1000.0, 3000.0));
        assert_eq!(at_1000, at_3000);
        // Data sends feed one slot and RREQs two (rreq and route); each
        // holds the 180 buckets of the widest window plus the one filling.
        assert_eq!(at_3000.iter().filter(|&&n| n == 181).count(), 3);
        assert!(at_3000.iter().all(|&n| n == 0 || n == 181));
    }

    #[test]
    fn empty_stream_finishes_with_zero_rows_and_no_panic() {
        let mut ext = IncrementalExtractor::new();
        ext.finish(SimTime::from_secs(10.0));
        let rows = ext.drain_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().flat_map(|r| &r.values).all(|&v| v == 0.0));
    }

    #[test]
    fn zero_duration_finish_emits_nothing() {
        let mut ext = IncrementalExtractor::new();
        ext.finish(SimTime::ZERO);
        assert!(ext.drain_rows().is_empty());
    }
}

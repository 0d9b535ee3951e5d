//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the program; a span's name is `<layer>.<what>`,
//! where the layer is the crate the call enters (`sim`, `features`, `ml`,
//! `core`, `serve`) or `bench` for the benchmark's own glue. Spans stay in
//! memory until the run ends. With tracing off, [`Tracer::enter`] reads no
//! clock and records nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Monotonic nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    /// Starts the run's clock.
    pub fn start() -> Clock {
        Clock {
            // audit: allow(D002, reason = "the benchmark measures wall time; no clock reading reaches the program's inputs")
            base: Instant::now(),
        }
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sleeps until the clock reads at least `ns`.
    pub fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The request the span belongs to: a fit round, a monitor step or a
    /// serve request.
    pub req: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Records nested spans when on; a no-op when off.
pub struct Tracer {
    clock: Clock,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer reading `clock`, recording only when `on`.
    pub fn new(clock: Clock, on: bool) -> Tracer {
        Tracer {
            clock,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span named `name` for request `req`, nested in the
    /// innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let now = self.clock.now_ns();
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.end_ns = now;
        }
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Records an interval timed elsewhere (a client call measured on the
    /// load thread) as a top-level span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: NO_PARENT,
                req,
            });
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans `other` recorded (on another thread), nesting its
    /// top-level spans in the innermost span open here.
    pub fn absorb(&mut self, other: Tracer) {
        if !self.on {
            return;
        }
        let offset = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                parent
            } else {
                s.parent.saturating_add(offset)
            },
            ..s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let mut i = 0;
    while let Some(&(parent, _, _)) = children.get(i) {
        let Some(p) = spans.get(parent as usize) else {
            i += 1;
            continue;
        };
        let (lo, hi) = (p.start_ns, p.end_ns);
        let mut covered = 0u64;
        let mut cursor = lo;
        while let Some(&(q, start, end)) = children.get(i) {
            if q != parent {
                break;
            }
            let (s, e) = (start.max(cursor), end.min(hi));
            if e > s {
                covered += e - s;
                cursor = e;
            }
            i += 1;
        }
        if let Some(slot) = out.get_mut(parent as usize) {
            *slot = slot.saturating_sub(covered);
        }
    }
    out
}

/// Self time summed per layer, in layer-name order.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer()).or_insert(0) += own;
    }
    by_layer
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    calls(spans, &[name]).0
}

/// `(total duration, count)` of the spans named any of `names`.
pub fn calls(spans: &[Span], names: &[&str]) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// Each layer's share of the summed self time of `spans`, percent.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let by_layer = layer_self_ns(spans);
    let total = by_layer.values().sum::<u64>().max(1) as f64;
    by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 * 100.0 / total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("bench.round", 0, 100, NO_PARENT),
            span("sim.run", 10, 40, 0),
            span("features.extract", 50, 70, 0),
            span("ml.inner", 55, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 15, 5]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span("bench.round", 0, 100, NO_PARENT),
            span("serve.a", 10, 50, 0),
            span("serve.b", 30, 60, 0),
            span("serve.c", 40, 45, 0),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("bench.round", 10, 20, NO_PARENT),
            span("sim.run", 0, 15, 0),
            span("sim.more", 18, 30, 0),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn layers_sum_self_time() {
        let spans = [
            span("bench.round", 0, 100, NO_PARENT),
            span("sim.run", 0, 60, 0),
            span("sim.run", 60, 90, 0),
        ];
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer.get("bench"), Some(&10));
        assert_eq!(by_layer.get("sim"), Some(&90));
        assert_eq!(total_ns(&spans, "sim.run"), 90);
    }

    #[test]
    fn calls_count_exact_names_only() {
        let spans = [
            span("features.disc", 0, 10, NO_PARENT),
            span("features.disc_fit", 10, 40, NO_PARENT),
            span("features.disc", 40, 45, NO_PARENT),
        ];
        assert_eq!(calls(&spans, &["features.disc"]), (15, 2));
        assert_eq!(
            calls(&spans, &["features.disc", "features.disc_fit"]),
            (45, 3)
        );
        assert_eq!(calls(&spans, &["ml.score"]), (0, 0));
    }

    #[test]
    fn layer_shares_sum_to_a_hundred() {
        let spans = [
            span("bench.round", 0, 100, NO_PARENT),
            span("sim.run", 0, 60, 0),
            span("features.extract", 60, 90, 0),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(
            shares.get("sim").map(|v| v.to_bits()),
            Some(60.0f64.to_bits())
        );
        assert_eq!(
            shares.get("bench").map(|v| v.to_bits()),
            Some(10.0f64.to_bits())
        );
        assert!((shares.values().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn absorbed_spans_nest_under_the_open_span() {
        let clock = Clock::start();
        let mut other = Tracer::new(clock, true);
        let a = other.enter("sim.run", 2);
        let b = other.enter("features.extract", 2);
        other.exit(b);
        other.exit(a);

        let mut here = Tracer::new(clock, true);
        let first = here.enter("bench.before", 1);
        here.exit(first);
        let root = here.enter("bench.setup", 1);
        here.absorb(other);
        here.exit(root);
        let parents: Vec<u32> = here.spans().iter().map(|s| s.parent).collect();
        // bench.before, bench.setup, then sim.run under bench.setup and
        // features.extract under sim.run.
        assert_eq!(parents, vec![NO_PARENT, NO_PARENT, 1, 2]);

        let mut off = Tracer::new(clock, false);
        off.absorb(Tracer::new(clock, true));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn tracer_nests_and_records_nothing_when_off() {
        let clock = Clock::start();
        let mut off = Tracer::new(clock, false);
        let open = off.enter("bench.round", 1);
        off.exit(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(clock, true);
        let outer = on.enter("bench.round", 1);
        let inner = on.enter("sim.run", 1);
        on.exit(inner);
        let sibling = on.enter("features.extract", 1);
        on.exit(sibling);
        on.exit(outer);
        let parents: Vec<u32> = on.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0]);
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}

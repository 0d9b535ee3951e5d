//! Trace sinks: where audit observations go as they happen.
//!
//! The paper's detector is an *online* system: every node scores its own
//! audit stream as it is produced. To support that posture, agents do not
//! write into a concrete [`NodeTrace`] — their context routes every
//! observation through a [`TraceSink`]. The in-memory [`NodeTrace`] is one
//! sink implementation (the post-hoc path); a shared `Rc<RefCell<S>>`
//! lets a driver read a sink while the simulator writes it (the
//! streaming path); a [`NullSink`] disables recording.
//!
//! Downstream crates build on this: `manet-features` implements
//! [`TraceSink`] for its incremental extractor, so a running simulator can
//! feed per-node feature snapshots to a detector *mid-simulation* without
//! ever materialising a full trace.

use crate::time::SimTime;
use crate::trace::{Direction, NodeTrace, RouteEventKind, TracePacketKind};
use std::cell::RefCell;
use std::rc::Rc;

/// A destination for one node's audit observations.
///
/// The simulator calls these methods in non-decreasing time order (it
/// processes events chronologically); implementations may rely on that.
pub trait TraceSink {
    /// Records a packet observation.
    fn packet(&mut self, t: SimTime, kind: TracePacketKind, dir: Direction);

    /// Records a route-fabric observation.
    fn route(&mut self, t: SimTime, kind: RouteEventKind, route_len: Option<u8>);

    /// Records a mobility sample.
    fn mobility(&mut self, t: SimTime, velocity: f64);

    /// The in-memory trace behind this sink, if it is one (or wraps one).
    ///
    /// [`crate::Simulator::trace`] uses this to keep the post-hoc accessors
    /// working when the default in-memory sinks are in place.
    fn as_node_trace(&self) -> Option<&NodeTrace> {
        None
    }
}

impl TraceSink for NodeTrace {
    fn packet(&mut self, t: SimTime, kind: TracePacketKind, dir: Direction) {
        NodeTrace::packet(self, t, kind, dir);
    }

    fn route(&mut self, t: SimTime, kind: RouteEventKind, route_len: Option<u8>) {
        NodeTrace::route(self, t, kind, route_len);
    }

    fn mobility(&mut self, t: SimTime, velocity: f64) {
        NodeTrace::mobility_sample(self, t, velocity);
    }

    fn as_node_trace(&self) -> Option<&NodeTrace> {
        Some(self)
    }
}

/// Shared sinks: lets a driver keep a handle to the sink while the
/// simulator owns the other. This is how an online monitor taps a running
/// simulation — it holds the `Rc` and drains completed snapshots between
/// [`crate::Simulator::run_until`] steps.
impl<S: TraceSink + ?Sized> TraceSink for Rc<RefCell<S>> {
    fn packet(&mut self, t: SimTime, kind: TracePacketKind, dir: Direction) {
        self.borrow_mut().packet(t, kind, dir);
    }

    fn route(&mut self, t: SimTime, kind: RouteEventKind, route_len: Option<u8>) {
        self.borrow_mut().route(t, kind, route_len);
    }

    fn mobility(&mut self, t: SimTime, velocity: f64) {
        self.borrow_mut().mobility(t, velocity);
    }
}

/// Discards every observation. Installed on nodes whose audit stream is
/// not monitored, so long runs don't accumulate traces nobody reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn packet(&mut self, _t: SimTime, _kind: TracePacketKind, _dir: Direction) {}
    fn route(&mut self, _t: SimTime, _kind: RouteEventKind, _route_len: Option<u8>) {}
    fn mobility(&mut self, _t: SimTime, _velocity: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_trace_is_a_sink() {
        let mut tr = NodeTrace::new();
        let sink: &mut dyn TraceSink = &mut tr;
        sink.packet(
            SimTime::from_secs(1.0),
            TracePacketKind::Data,
            Direction::Sent,
        );
        sink.route(SimTime::from_secs(2.0), RouteEventKind::Added, Some(2));
        sink.mobility(SimTime::from_secs(3.0), 4.5);
        assert_eq!(tr.packet_events.len(), 1);
        assert_eq!(tr.route_events.len(), 1);
        assert_eq!(tr.mobility.len(), 1);
        assert!(tr.as_node_trace().is_some());
    }

    #[test]
    fn null_discards() {
        let mut null = NullSink;
        null.packet(
            SimTime::from_secs(0.5),
            TracePacketKind::Data,
            Direction::Received,
        );
        // Nothing to observe: NullSink holds no state.
        assert!(null.as_node_trace().is_none());
    }

    #[test]
    fn shared_sink_taps_through_rc() {
        let shared = Rc::new(RefCell::new(NodeTrace::new()));
        let mut handle = shared.clone();
        TraceSink::route(
            &mut handle,
            SimTime::from_secs(1.0),
            RouteEventKind::Found,
            None,
        );
        assert_eq!(shared.borrow().route_events.len(), 1);
    }
}

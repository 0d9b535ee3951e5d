//! The event queue.

use crate::agent::TimerToken;
use crate::packet::{NodeId, Packet};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The kinds of events the simulator kernel processes.
#[derive(Debug)]
pub enum EventKind<H> {
    /// One radio transmission arrives at its surviving receivers, one or
    /// many, as a single event.
    ///
    /// All receptions of a transmission share the arrival instant, so one
    /// event per transmission takes the `(t, seq)` slot their per-receiver
    /// events would have filled back to back, and nothing scheduled while
    /// they are processed can land inside it (transmit latency is strictly
    /// positive and fresh sequence numbers sort after it). Processing the
    /// list front to back is therefore bit-identical to popping one event
    /// per receiver, with one heap push and pop per transmission.
    Deliver {
        /// The frame (cloned per receiver only at delivery time).
        pkt: Packet<H>,
        /// `(receiver, promiscuous overhear)` in reception order; an
        /// overhear is a unicast addressed to someone else.
        receivers: Vec<(NodeId, bool)>,
    },
    /// A unicast transmission failed at the link layer (target unreachable
    /// after MAC retries); reported back to the sender.
    TxFailed {
        /// The sending node to notify.
        node: NodeId,
        /// The frame that could not be delivered.
        pkt: Packet<H>,
        /// The next hop that was unreachable.
        next_hop: NodeId,
    },
    /// An agent timer fires.
    Timer {
        /// Owning node.
        node: NodeId,
        /// The token the agent armed.
        token: TimerToken,
    },
    /// An application tick fires.
    AppTick {
        /// Index of the application endpoint.
        app: usize,
        /// App-defined tag.
        tag: u32,
    },
    /// Periodic mobility sampling across all nodes.
    MobilitySample,
}

/// A scheduled event: ordering is by time, with an insertion sequence
/// number breaking ties deterministically (FIFO among same-time events).
#[derive(Debug)]
pub struct Scheduled<H> {
    /// When the event fires.
    pub t: SimTime,
    /// Tie-breaking insertion sequence.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind<H>,
}

impl<H> PartialEq for Scheduled<H> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl<H> Eq for Scheduled<H> {}

impl<H> PartialOrd for Scheduled<H> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<H> Ord for Scheduled<H> {
    /// Inverted ordering so that `BinaryHeap` (a max-heap) pops the
    /// earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.t.cmp(&self.t).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<H> {
    heap: BinaryHeap<Scheduled<H>>,
    next_seq: u64,
}

impl<H> Default for EventQueue<H> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<H> EventQueue<H> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `t`.
    pub fn push(&mut self, t: SimTime, kind: EventKind<H>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { t, seq, kind });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Scheduled<H>> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u16, token: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(node),
            token: TimerToken(token),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime::from_secs(3.0), timer(0, 3));
        q.push(SimTime::from_secs(1.0), timer(0, 1));
        q.push(SimTime::from_secs(2.0), timer(0, 2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|s| s.t.as_secs())).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q: EventQueue<()> = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..10 {
            q.push(t, timer(0, i));
        }
        let mut tokens = Vec::new();
        while let Some(s) = q.pop() {
            if let EventKind::Timer { token, .. } = s.kind {
                tokens.push(token.0);
            }
        }
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(2.0), timer(0, 0));
        q.push(SimTime::from_secs(1.0), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 2);
        let first = q.pop().unwrap();
        assert_eq!(first.t, SimTime::from_secs(1.0));
    }
}

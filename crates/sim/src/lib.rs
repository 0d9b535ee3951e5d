//! # manet-sim
//!
//! A deterministic, packet-level, discrete-event simulator for mobile ad hoc
//! networks (MANETs). This crate is the substrate that replaces ns-2 in the
//! reproduction of *"Cross-Feature Analysis for Detecting Ad-Hoc Routing
//! Anomalies"* (Huang, Fan, Lee, Yu; ICDCS 2003).
//!
//! The simulator provides:
//!
//! * a virtual clock and an ordered event queue ([`SimTime`], [`Simulator`]),
//! * the random-waypoint mobility model on a rectangular field ([`mobility`]),
//! * a disc-radio propagation model with per-hop latency and
//!   contention-scaled loss ([`radio`]),
//! * per-node protocol agents ([`Agent`]) and application endpoints
//!   ([`App`]) wired together through buffered contexts, and
//! * per-node audit traces of packet and route events ([`trace`]) from which
//!   the detection features of the paper are later derived.
//!
//! Routing protocols (DSR, AODV) live in the `manet-routing` crate and plug
//! in through the [`Agent`] trait; traffic generators live in
//! `manet-traffic` and plug in through the [`App`] trait; attacks are agent
//! decorators in `manet-attacks`.
//!
//! # Example
//!
//! ```
//! use manet_sim::{Simulator, SimConfig, agent::FloodAgent};
//!
//! let config = SimConfig::builder()
//!     .nodes(10)
//!     .duration_secs(50.0)
//!     .seed(7)
//!     .build();
//! let mut sim = Simulator::new(config, |_id| FloodAgent::new());
//! sim.run();
//! assert!(sim.now().as_secs() >= 50.0);
//! ```

pub mod agent;
pub mod app;
pub mod config;
pub mod det;
pub mod event;
pub mod grid;
pub mod mobility;
pub mod packet;
pub mod radio;
pub mod rng;
pub mod simulator;
pub mod sink;
pub mod time;
pub mod trace;

pub use agent::{Agent, AgentHarness, Ctx, TimerToken};
pub use app::{App, AppCtx, AppData, AppKind, FlowId};
pub use config::{SimConfig, SimConfigBuilder};
pub use det::NodeMap;
pub use grid::SpatialGrid;
pub use mobility::{Point, RandomWaypoint, Waypoint};
pub use packet::{NodeId, Packet, PacketId, TxDest};
pub use radio::RadioModel;
pub use simulator::Simulator;
pub use sink::{NullSink, TraceSink};
pub use time::SimTime;
pub use trace::{Direction, NodeTrace, PacketEvent, RouteEvent, RouteEventKind, TracePacketKind};

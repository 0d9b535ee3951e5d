//! # manet-routing
//!
//! On-demand MANET routing protocols for [`manet_sim`]: **DSR** (Dynamic
//! Source Routing, Johnson & Maltz) and **AODV** (Ad hoc On-demand Distance
//! Vector, Perkins & Royer), the two protocols evaluated by the paper.
//!
//! Both protocols are implemented as [`manet_sim::Agent`]s:
//!
//! * [`dsr::DsrAgent`] — source routing: the sender places the full path in
//!   every data packet; routes are discovered with flooded ROUTE REQUESTs,
//!   cached (including routes overheard from other nodes' traffic), and
//!   maintained with ROUTE ERRORs plus packet salvaging.
//! * [`aodv::AodvAgent`] — hop-by-hop distance-vector routing with
//!   per-destination sequence numbers, HELLO beacons and route repair.
//!
//! Both run on one private on-demand core that holds the send buffer, the
//! route discoveries with their retries, and the duplicate-REQUEST memory;
//! an agent supplies only how it finds, stores and uses a route and how it
//! floods a REQUEST.
//!
//! Agents record the audit events (route additions/removals/finds/notices/
//! repairs and per-kind packet counts) that `manet-features` turns into the
//! paper's Feature Sets I and II.
//!
//! # Example
//!
//! ```
//! use manet_sim::{Simulator, SimConfig};
//! use manet_routing::dsr::DsrAgent;
//!
//! let cfg = SimConfig::builder().nodes(10).field(300.0, 300.0)
//!     .duration_secs(30.0).seed(5).build();
//! let mut sim = Simulator::new(cfg, |_| DsrAgent::new());
//! sim.run();
//! ```

pub mod aodv;
pub mod dsr;
mod ondemand;

pub use aodv::{AodvAgent, AodvHeader};
pub use dsr::{DsrAgent, DsrHeader};

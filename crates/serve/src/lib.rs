//! # cfa-serve
//!
//! A batched network scoring service for persisted cross-feature
//! anomaly-detection models: train a detector on a simulated normal
//! scenario, save it as a `CFAM` artifact, serve it over TCP, and
//! benchmark it — the full train → save → serve → query lifecycle of the
//! ICDCS 2003 cross-feature detector.
//!
//! The server is std-only: a [`server::Server`] runs a readiness-driven
//! reactor (one thread, every socket non-blocking, a `poll(2)` table)
//! feeding a bounded worker pool; each worker scores request batches
//! through the zero-alloc `score_rows_with` path with its own reusable
//! scratch buffers, so a served score is bit-identical to in-process
//! scoring. A large batch that arrives while workers are idle is split
//! into row ranges scored in parallel and answered as one reply. Models
//! live in a named [`registry::Registry`] with atomic hot-swap
//! (`LOAD`/`UNLOAD`/`LIST` over the wire), and connections can
//! `SUBSCRIBE` to a model's alarm stream to have below-threshold scores
//! pushed as they fire. Overload is answered with an explicit BUSY
//! status at both the connection and the request level instead of
//! unbounded queueing.
//!
//! Modules: [`protocol`] (the wire format), [`server`], [`registry`]
//! (named models + hot swap), [`client`], [`mod@bench`] (the mixed
//! score/subscribe load generator), [`train`] (scenario → artifact).
//! Internal: `reactor` (the event loop), `subscribe` (alarm fan-out),
//! `poll` (the `poll(2)` shim).

pub mod bench;
pub mod client;
mod poll;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod server;
mod subscribe;
pub mod train;

pub use client::{Client, ClientError, ModelInfo, ScoredRow};
pub use protocol::{AlarmEvent, StatsFrame};
pub use registry::{ModelEntry, Registry};
pub use server::{ServeStats, Server, ServerConfig};

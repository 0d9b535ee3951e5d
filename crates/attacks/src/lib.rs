//! # manet-attacks
//!
//! The intrusion scripts of the paper (Table 6), implemented as decorators
//! around honest routing agents, one generic wrapper each for both
//! protocols; the sealed [`AttackHeader`] trait holds what differs:
//!
//! * [`Blackhole`] ([`DsrBlackhole`] / [`AodvBlackhole`]) — advertise
//!   bogus shortest routes to every node (fabricated ROUTE REQUESTs with a
//!   maximal sequence number) and silently absorb the attracted traffic;
//! * [`dropping::PacketDropper`] — drop transit data packets, with the
//!   paper's four variations ([`dropping::DropPolicy`]: constant, random,
//!   periodic, selective by destination);
//! * [`storm::UpdateStorm`] — flood the network with meaningless route
//!   discovery messages to exhaust bandwidth.
//!
//! Every attack honours an on–off [`Schedule`]: the paper inserts intrusion
//! sessions periodically (equal duration and gap) so the attacker is not an
//! obvious constant target.
//!
//! Attacks do **not** write to the compromised node's audit trace when they
//! misbehave — a subverted node lies about its own behaviour; the detector
//! (per the paper) observes the *anomalies the attack induces at honest
//! nodes*.

pub mod blackhole;
pub mod dropping;
mod header;
pub mod schedule;
pub mod storm;

pub use blackhole::{AodvBlackhole, Blackhole, DsrBlackhole};
pub use dropping::{DropPolicy, PacketDropper};
pub use header::AttackHeader;
pub use schedule::Schedule;
pub use storm::UpdateStorm;

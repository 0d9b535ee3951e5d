//! The spatial grid's headline contract at the top of the stack: on the
//! paper's scenarios (20-node worlds, real routing protocols, attacks in
//! play), every transmission reaches exactly the receivers, in exactly
//! the order, that the brute-force all-nodes scan would pick. Debug
//! builds of the kernel rerun that scan at every transmission and assert
//! agreement, so each test here runs its scenario once and lets the
//! oracle check every frame. A near-miss superset (wrong member, wrong
//! order, stale position accepted) fails the run at the first frame it
//! touches. Release builds compile the oracle out, so these tests are
//! ignored there instead of passing without checking anything.

use manet_cfa::scenario::{Attack, Protocol, Scenario, Transport};
use manet_cfa::sim::NodeId;

fn paper_attacked(protocol: Protocol) -> Scenario {
    Scenario::paper_default(protocol, Transport::Cbr)
        .with_nodes(20)
        .with_connections(12)
        .with_duration(400.0)
        .with_seed(17)
        .with_attack(Attack::blackhole_at(&[120.0, 250.0]))
        .with_attack(Attack::storm_at(&[300.0]).from_node(NodeId(11)))
}

/// Runs `scenario` under the kernel's grid-vs-scan oracle.
fn assert_grid_matches_scan(scenario: Scenario) {
    let bundle = scenario.run();
    assert!(bundle.matrix.n_rows() > 0);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the grid oracle runs in debug builds only"
)]
fn aodv_attack_features_match_bit_for_bit() {
    assert_grid_matches_scan(paper_attacked(Protocol::Aodv));
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the grid oracle runs in debug builds only"
)]
fn dsr_attack_features_match_bit_for_bit() {
    assert_grid_matches_scan(paper_attacked(Protocol::Dsr));
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the grid oracle runs in debug builds only"
)]
fn tcp_normal_trace_matches_bit_for_bit() {
    // No attacks, TCP transport: exercises the retransmission machinery.
    let s = Scenario::paper_default(Protocol::Aodv, Transport::Tcp)
        .with_nodes(20)
        .with_connections(12)
        .with_duration(300.0)
        .with_seed(23);
    assert_grid_matches_scan(s);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the grid oracle runs in debug builds only"
)]
fn scaled_world_matches_bit_for_bit() {
    // A denser scale point (100 nodes at paper density) — multiple grid
    // cells are genuinely in play, unlike the 1000×1000 m paper world
    // where 250 m cells give a 4×4 grid.
    let s = Scenario::paper_default(Protocol::Dsr, Transport::Cbr)
        .with_scale(100)
        .with_duration(120.0)
        .with_seed(29);
    assert_grid_matches_scan(s);
}

//! Property: the spatial grid's candidate query, filtered by the exact
//! `radio.in_range` check, returns **exactly** the brute-force all-pairs
//! in-range set — same members, same (ascending node-id) order — for
//! random node placements, world sizes, pauses, and mobility steps between
//! rebuilds. This is the contract that makes the grid path of
//! `Simulator::transmit` bit-identical to the all-nodes scan.

use manet_sim::grid::SpatialGrid;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::rng::StreamLabel;
use manet_sim::{NodeId, Point, RadioModel, SimConfig, SimTime};
use proptest::prelude::*;

/// A random fleet of waypoint walkers on a random field.
fn world_strategy() -> impl Strategy<Value = (f64, f64, u16, u64)> {
    (
        100.0f64..3000.0, // width
        100.0f64..3000.0, // height
        1u16..60,         // nodes
        0u64..10_000,     // master seed
    )
}

/// Rebuilds a grid from exact positions at `rebuild_at`, the way the
/// kernel does at every mobility sample, then queries it `step` seconds
/// later from every node's drifted position, and asserts that the
/// candidates, filtered by the exact range check, are the brute-force
/// in-range set.
fn assert_grid_filter_is_brute_force(
    (width, height, n, seed): (f64, f64, u16, u64),
    range: f64,
    max_speed: f64,
    pause: SimTime,
    rebuild_at: f64,
    step: f64,
) {
    let mut walkers: Vec<RandomWaypoint> = (0..n)
        .map(|i| {
            RandomWaypoint::new(
                width,
                height,
                max_speed,
                pause,
                StreamLabel::Mobility(i).stream(seed),
            )
        })
        .collect();
    let cfg = SimConfig {
        range,
        interference_range: range.max(550.0),
        max_speed,
        width,
        height,
        ..SimConfig::default()
    };
    let radio = RadioModel::new(&cfg, StreamLabel::Radio.stream(seed));

    let t0 = SimTime::from_secs(rebuild_at);
    let mut grid = SpatialGrid::new(width, height, range, max_speed, pause);
    for w in &mut walkers {
        w.advance_to(t0);
    }
    let at_t0: Vec<Point> = walkers.iter().map(|w| w.position(t0)).collect();
    grid.rebuild(t0, at_t0.into_iter());

    let t1 = SimTime::from_secs(rebuild_at + step);
    for w in &mut walkers {
        w.advance_to(t1);
    }
    let live: Vec<Point> = walkers.iter().map(|w| w.position(t1)).collect();

    let mut candidates = Vec::new();
    for (tx, &tx_pos) in live.iter().enumerate() {
        // Brute force: every node, ascending id, exact range check.
        let brute: Vec<NodeId> = (0..n)
            .filter(|&rx| usize::from(rx) != tx && radio.in_range(tx_pos, live[usize::from(rx)]))
            .map(NodeId)
            .collect();
        // Grid path: superset candidates, then the same exact check.
        grid.candidates_into(t1, tx_pos, &mut candidates);
        let via_grid: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&rx| rx.index() != tx && radio.in_range(tx_pos, live[rx.index()]))
            .collect();
        prop_assert_eq!(
            &via_grid,
            &brute,
            "transmitter {} at t={}: grid-filtered set diverges",
            tx,
            rebuild_at + step
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_filter_equals_brute_force(
        world in world_strategy(),
        range in 50.0f64..600.0,
        max_speed in 1.0f64..30.0,
        rebuild_at in 0.0f64..100.0,
        // Query within a mobility-sample interval of the rebuild.
        step in 0.0f64..5.0,
    ) {
        assert_grid_filter_is_brute_force(
            world,
            range,
            max_speed,
            SimTime::from_secs(2.0),
            rebuild_at,
            step,
        );
    }

    /// Small fields and short pauses: legs last a few seconds, so nodes
    /// often end a leg, and start the next, between rebuild and query.
    #[test]
    fn grid_filter_equals_brute_force_on_short_legs(
        world in (10.0f64..200.0, 10.0f64..200.0, 1u16..60, 0u64..10_000),
        range in 5.0f64..150.0,
        max_speed in 1.0f64..30.0,
        pause in 0.01f64..1.5,
        rebuild_at in 0.0f64..100.0,
        step in 0.0f64..5.0,
    ) {
        assert_grid_filter_is_brute_force(
            world,
            range,
            max_speed,
            SimTime::from_secs(pause),
            rebuild_at,
            step,
        );
    }

    #[test]
    fn fresh_grid_candidates_are_supersets_and_sorted(
        (width, height, n, seed) in world_strategy(),
        range in 50.0f64..600.0,
    ) {
        let t = SimTime::from_secs(1.0);
        let mut walkers: Vec<RandomWaypoint> = (0..n)
            .map(|i| {
                RandomWaypoint::new(width, height, 10.0, SimTime::from_secs(2.0),
                    StreamLabel::Mobility(i).stream(seed))
            })
            .collect();
        for w in &mut walkers {
            w.advance_to(t);
        }
        let live: Vec<Point> = walkers.iter().map(|w| w.position(t)).collect();
        let mut grid = SpatialGrid::new(width, height, range, 10.0, SimTime::from_secs(2.0));
        grid.rebuild(t, live.iter().copied());

        let mut out = Vec::new();
        for &center in &live {
            grid.candidates_into(t, center, &mut out);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, unique ids");
            for (i, &p) in live.iter().enumerate() {
                if center.distance(p) <= range {
                    prop_assert!(
                        out.contains(&NodeId(i as u16)),
                        "in-range node {} missing from candidates", i
                    );
                }
            }
        }
    }
}

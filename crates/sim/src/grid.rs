//! Spatial-grid neighbor lookup.
//!
//! [`Simulator::transmit`](crate::Simulator) must find every node within
//! radio range of a transmitter. The naive scan visits all `n` nodes per
//! frame, which makes propagation O(n²) per broadcast flood and melts the
//! event loop at 500–1000 nodes. [`SpatialGrid`] buckets nodes into square
//! cells keyed on the radio range, so a neighbor query inspects only the
//! cells a transmission can possibly reach — O(local density) instead of
//! O(n).
//!
//! # Staleness contract
//!
//! Node positions evolve continuously but the grid is rebuilt only at
//! mobility-sample instants (and at simulation start). Between rebuilds a
//! node can have moved at most `max_speed · Δt` metres away from its
//! bucketed position, `Δt = now − refreshed_at`, plus a rounding
//! allowance. A leg's arrival time is rounded to the microsecond, so on
//! each leg a node can run ahead of its speed by up to
//! `max_speed · 0.5 µs`; one leg's end and the next one's start are a
//! pause apart, so it moves on at most `Δt / pause + 1` legs in `Δt`.
//!
//! A query at time `now` therefore keeps a node only if its bucketed
//! position lies within
//! `range + max_speed · (Δt + 0.5 µs · (Δt / pause + 1))` of the
//! transmitter, widened by a relative 1e-9 against float rounding, and it
//! scans only the cells that disc touches. The returned ids are a
//! **superset** of the true in-range set; the caller performs the exact
//! range check against live positions. This keeps the grid path's
//! observable behaviour — members *and* iteration order of the final
//! in-range set — bit-identical to the brute-force all-nodes scan
//! (asserted by `crates/sim/tests/proptest_grid.rs` and the kernel
//! equivalence tests). A node left out is not advanced; it rolls its
//! trajectory forward at its next query, and its legs come from its own
//! RNG stream, whatever the query times.
//!
//! # Determinism
//!
//! Cells live in a flat row-major `Vec`; members are bucketed in ascending
//! node-id order on every rebuild, and [`SpatialGrid::candidates_into`]
//! emits the gathered candidates through a per-node bitmap in ascending id
//! order, matching the order the brute-force scan produces. No hash-order
//! anything is involved (`det` conventions).

use crate::mobility::Point;
use crate::packet::NodeId;
use crate::time::SimTime;

/// Upper bound on the number of grid cells, so degenerate configurations
/// (kilometre fields with metre-scale radio ranges) cannot allocate an
/// absurd cell table. Cells are merely coarser above the cap; correctness
/// is unaffected because candidate gathering is always a superset filter.
const MAX_CELLS: usize = 1 << 16;

/// The geometry of a uniform cell grid over the field, shared by
/// [`SpatialGrid`] and the radio's contention window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cells {
    /// Cell edge length in metres.
    pub(crate) edge: f64,
    /// Number of cell columns.
    pub(crate) cols: usize,
    /// Number of cell rows.
    pub(crate) rows: usize,
}

impl Cells {
    /// Square cells of edge `edge` over a `width`×`height` field, the edge
    /// doubled until there are at most `max_cells` of them.
    pub(crate) fn new(width: f64, height: f64, edge: f64, max_cells: usize) -> Cells {
        let dims = |edge: f64| Cells {
            edge,
            cols: (width / edge).ceil().max(1.0) as usize,
            rows: (height / edge).ceil().max(1.0) as usize,
        };
        let mut cells = dims(edge);
        while cells.len() > max_cells {
            cells = dims(cells.edge * 2.0);
        }
        cells
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Column and row of the cell holding `p`, clamped into the grid.
    pub(crate) fn cell_of(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x / self.edge) as usize).min(self.cols - 1);
        let cy = ((p.y / self.edge) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Row-major index of the cell at column `cx` and row `cy`.
    pub(crate) fn index(&self, (cx, cy): (usize, usize)) -> usize {
        cy * self.cols + cx
    }
}

/// A uniform cell grid over the simulation field, bucketing node ids by
/// their position at the last rebuild.
#[derive(Debug)]
pub struct SpatialGrid {
    /// Cell geometry (edge ≥ radio range).
    cells: Cells,
    /// Radio range the grid answers queries for.
    range: f64,
    /// Maximum node speed, bounding staleness drift.
    max_speed: f64,
    /// Pause at every waypoint: the least time between two leg ends.
    pause: SimTime,
    /// Members per cell with their bucketed positions, row-major, each in
    /// ascending node-id order.
    members: Vec<Vec<(NodeId, Point)>>,
    /// Scratch bitmap (one bit per node id, sized at rebuild) used by
    /// [`SpatialGrid::candidates_into`] to emit gathered candidates in
    /// ascending id order without a per-query sort.
    mask: Vec<u64>,
    /// When the bucketed positions were captured.
    refreshed_at: SimTime,
}

impl SpatialGrid {
    /// Creates a grid over a `width`×`height` field for the given radio
    /// `range` and the mobility's `max_speed` and waypoint `pause`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is not strictly positive (the same
    /// invariants [`crate::SimConfig::validate`] enforces; the simulator's
    /// pause is [`crate::SimConfig::PAUSE`]).
    pub fn new(width: f64, height: f64, range: f64, max_speed: f64, pause: SimTime) -> SpatialGrid {
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        assert!(range > 0.0, "radio range must be positive");
        assert!(max_speed > 0.0, "max_speed must be positive");
        assert!(pause > SimTime::ZERO, "pause must be positive");
        // Cell edge = radio range: a query disc of radius `range` then
        // touches at most a 3×3 neighbourhood (plus staleness slack).
        let cells = Cells::new(width, height, range, MAX_CELLS);
        SpatialGrid {
            cells,
            range,
            max_speed,
            pause,
            members: (0..cells.len()).map(|_| Vec::new()).collect(),
            mask: Vec::new(),
            refreshed_at: SimTime::ZERO,
        }
    }

    /// Rebuckets every node from its position at time `now`. The `i`-th
    /// item of `positions` is node `i`'s position; nodes are therefore
    /// bucketed in ascending id order within each cell.
    pub fn rebuild(&mut self, now: SimTime, positions: impl Iterator<Item = Point>) {
        for cell in &mut self.members {
            cell.clear();
        }
        let mut count = 0usize;
        for (i, p) in positions.enumerate() {
            let idx = self.cells.index(self.cells.cell_of(p));
            if let Some(cell) = self.members.get_mut(idx) {
                // audit: allow(D007, reason = "cells are cleared at the top of every rebuild; occupancy is bounded by n_nodes")
                cell.push((NodeId(i as u16), p));
            }
            count = i + 1;
        }
        self.mask.resize(count.div_ceil(64), 0);
        self.refreshed_at = now;
    }

    /// Time of the last [`SpatialGrid::rebuild`].
    pub fn refreshed_at(&self) -> SimTime {
        self.refreshed_at
    }

    /// Collects into `out` every node id whose *bucketed* position could
    /// put it within radio range of `center` at time `now`, in ascending
    /// id order. A superset of the true in-range set: callers must still
    /// range-check live positions. `out` is cleared first and reused —
    /// this path runs once per transmitted frame and must not allocate in
    /// steady state.
    pub fn candidates_into(&mut self, now: SimTime, center: Point, out: &mut Vec<NodeId>) {
        out.clear();
        let reach = self.reach(now);
        let reach_sq = reach * reach;
        let (cx0, cy0) = self
            .cells
            .cell_of(Point::new(center.x - reach, center.y - reach));
        let (cx1, cy1) = self
            .cells
            .cell_of(Point::new(center.x + reach, center.y + reach));
        // Mark gathered ids in the scratch bitmap, then emit set bits low
        // to high: ascending id order (matching the brute-force all-nodes
        // scan exactly) with no per-query sort. Zeroing the mask is a
        // handful of words even at 1000 nodes.
        for w in &mut self.mask {
            *w = 0;
        }
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                if let Some(cell) = self.members.get(self.cells.index((cx, cy))) {
                    for &(id, p) in cell {
                        let (dx, dy) = (p.x - center.x, p.y - center.y);
                        if dx * dx + dy * dy > reach_sq {
                            continue;
                        }
                        let i = id.index();
                        if let Some(w) = self.mask.get_mut(i / 64) {
                            *w |= 1u64 << (i % 64);
                        }
                    }
                }
            }
        }
        for (wi, &word) in self.mask.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                // audit: allow(D007, reason = "out is a caller-owned scratch buffer, cleared on entry; bounded by n_nodes")
                out.push(NodeId((wi * 64 + bit) as u16));
                w &= w - 1;
            }
        }
    }

    /// How far from the query centre the bucketed position of a node
    /// within `range` at `now` can lie: the range, the drift since the
    /// rebuild, and half a microsecond at full speed for every leg the
    /// node can move on in between (see the staleness contract), widened
    /// by a relative 1e-9 so float rounding cannot shrink it.
    fn reach(&self, now: SimTime) -> f64 {
        let dt = now.saturating_sub(self.refreshed_at);
        let leg_ends = dt.as_micros() / self.pause.as_micros() + 1;
        let drift = self.max_speed * (dt.as_secs() + leg_ends as f64 * 0.5e-6);
        (self.range + drift) * (1.0 + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAUSE: SimTime = crate::SimConfig::PAUSE;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn candidates_cover_in_range_nodes() {
        let mut g = SpatialGrid::new(1000.0, 1000.0, 250.0, 20.0, PAUSE);
        let positions = pts(&[
            (100.0, 100.0),
            (300.0, 100.0),
            (900.0, 900.0),
            (120.0, 140.0),
        ]);
        g.rebuild(SimTime::ZERO, positions.iter().copied());
        let mut out = Vec::new();
        g.candidates_into(SimTime::ZERO, Point::new(110.0, 110.0), &mut out);
        assert!(out.contains(&NodeId(0)));
        assert!(out.contains(&NodeId(1)));
        assert!(out.contains(&NodeId(3)));
        assert!(!out.contains(&NodeId(2)), "far corner must be pruned");
    }

    #[test]
    fn candidates_are_id_sorted() {
        let mut g = SpatialGrid::new(500.0, 500.0, 100.0, 5.0, PAUSE);
        // All in one cell neighbourhood; bucketing order is id order, and
        // the query must return ascending ids regardless of cell layout.
        let positions = pts(&[(10.0, 10.0), (240.0, 240.0), (120.0, 30.0), (60.0, 200.0)]);
        g.rebuild(SimTime::ZERO, positions.iter().copied());
        let mut out = Vec::new();
        g.candidates_into(SimTime::ZERO, Point::new(100.0, 100.0), &mut out);
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(out, sorted);
    }

    #[test]
    fn staleness_widens_the_query() {
        let mut g = SpatialGrid::new(2000.0, 2000.0, 100.0, 20.0, PAUSE);
        // Node 0 bucketed two cells away from the query center: its cell is
        // outside the fresh reach rectangle, but reachable after 5 s of
        // 20 m/s drift widens the reach from 100 m to 200 m.
        g.rebuild(SimTime::ZERO, pts(&[(650.0, 500.0)]).into_iter());
        let mut out = Vec::new();
        let center = Point::new(450.0, 500.0);
        g.candidates_into(SimTime::ZERO, center, &mut out);
        assert!(
            out.is_empty(),
            "fresh grid: cell [600,700) beyond 550 m rect"
        );
        g.candidates_into(SimTime::from_secs(5.0), center, &mut out);
        assert_eq!(out, vec![NodeId(0)], "5 s staleness widens reach to 200 m");
    }

    /// Whether a grid rebuilt at 0 s keeps, for a query 5 s later at
    /// (500, 500) with range 250 m, 20 m/s and the given pause, a node
    /// bucketed `beyond` metres past 350 m east of the centre: the range
    /// plus 5 s of drift.
    fn kept_beyond_drift(pause: SimTime, beyond: f64) -> bool {
        let mut g = SpatialGrid::new(2000.0, 2000.0, 250.0, 20.0, pause);
        g.rebuild(
            SimTime::ZERO,
            [Point::new(850.0 + beyond, 500.0)].into_iter(),
        );
        let mut out = Vec::new();
        g.candidates_into(SimTime::from_secs(5.0), Point::new(500.0, 500.0), &mut out);
        out == [NodeId(0)]
    }

    #[test]
    fn the_prune_keeps_the_drift_edge() {
        assert!(kept_beyond_drift(PAUSE, 0.0));
    }

    #[test]
    fn the_prune_keeps_a_node_ahead_by_the_rounding_allowance() {
        // 20 m/s for half a microsecond, on the one leg 5 s can hold at a
        // 10 s pause; at a 1 s pause a node can move on six legs.
        let ahead = 20.0 * 0.5e-6;
        assert!(kept_beyond_drift(PAUSE, ahead));
        assert!(kept_beyond_drift(SimTime::from_secs(1.0), 6.0 * ahead));
    }

    #[test]
    fn the_prune_drops_a_node_beyond_the_padded_reach() {
        // A micrometre past the allowance is past the 1e-9 widening too
        // (0.35 µm at 350 m).
        let ahead = 20.0 * 0.5e-6;
        assert!(!kept_beyond_drift(PAUSE, ahead + 1e-6));
        assert!(!kept_beyond_drift(
            SimTime::from_secs(1.0),
            6.0 * ahead + 1e-6
        ));
        // The cell that holds it is still scanned: the distance drops it.
        assert!(!kept_beyond_drift(PAUSE, 40.0));
    }

    #[test]
    fn degenerate_small_world_is_one_cell() {
        let mut g = SpatialGrid::new(50.0, 50.0, 250.0, 20.0, PAUSE);
        g.rebuild(SimTime::ZERO, pts(&[(1.0, 1.0), (49.0, 49.0)]).into_iter());
        let mut out = Vec::new();
        g.candidates_into(SimTime::ZERO, Point::new(25.0, 25.0), &mut out);
        assert_eq!(out, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn cell_cap_coarsens_instead_of_exploding() {
        // 1e6 x 1e6 field with a 10 m range would want 1e10 cells; the cap
        // coarsens the grid instead.
        let g = SpatialGrid::new(1_000_000.0, 1_000_000.0, 10.0, 20.0, PAUSE);
        assert!(g.cells.len() <= MAX_CELLS);
    }
}

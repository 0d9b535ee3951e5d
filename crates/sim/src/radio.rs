//! Radio propagation and the simplified MAC.
//!
//! The model is deliberately simple but captures the behaviours the
//! detection features are sensitive to:
//!
//! * **disc propagation** — a frame reaches exactly the nodes within
//!   `range` metres of the transmitter at transmission time;
//! * **transmit latency** — `size·8 / bandwidth` plus a uniform MAC
//!   queueing/backoff jitter;
//! * **contention loss** — each reception is independently lost with
//!   probability `base_loss` plus a term that grows with the number of
//!   recent transmissions inside the interference range of the receiver, so
//!   flooding attacks (update storms) degrade delivery just as real CSMA
//!   contention would;
//! * **link-failure detection** — a unicast frame whose target is out of
//!   range is reported back to the sender (modelling 802.11's missing
//!   link-layer ACK after retries), which is what triggers DSR route
//!   maintenance and AODV RERRs. Random in-range losses are *not* reported:
//!   real MACs usually recover those via retransmission, so `base_loss`
//!   should be read as the residual loss after MAC retries.

use crate::config::SimConfig;
use crate::mobility::Point;
use crate::rng::SimRng;
use crate::time::SimTime;
use rand::Rng;

/// Outcome of attempting one frame reception at a specific receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reception {
    /// The frame arrives intact.
    Ok,
    /// The frame is lost (collision/noise).
    Lost,
}

/// Sliding-window record of recent transmissions for contention estimation.
///
/// The window is bucketed into a spatial grid, so counting the contenders
/// around a receiver scans only the cell neighbourhood that can possibly
/// contain them instead of every transmission in the window world-wide —
/// the count itself is exact (each bucketed candidate still passes the
/// precise distance test), so loss probabilities and RNG draws are
/// bit-identical to the flat scan.
///
/// Most receptions need no count at all: [`RadioModel::receive`] draws
/// first and compares the draw with the loss probability of an upper
/// bound on the count, taken once per transmission.
#[derive(Debug)]
pub struct RadioModel {
    range: f64,
    interference_range: f64,
    bandwidth_bps: f64,
    base_loss: f64,
    mac_jitter: f64,
    contention_window: SimTime,
    /// Recent transmissions, bucketed by transmitter cell. Each cell is
    /// pruned lazily when pushed to or counted, so entries are dropped
    /// amortized O(1).
    cells: Vec<TxWindow>,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Cells per axis a contention scan must reach: `ceil(interference /
    /// cell)`, so the scanned square always covers the interference disc.
    reach: usize,
    /// Conservative squared-distance bands for the radio range and the
    /// interference range (see [`RadioModel::within`]).
    range_sq_band: (f64, f64),
    intf_sq_band: (f64, f64),
    /// `range + interference_range`, widened by a relative 1e-9 so the
    /// rounding of the triangle inequality cannot shrink it: every
    /// contender of every receiver in a transmitter's range lies within
    /// this radius of the transmitter.
    bound_radius: f64,
    /// The transmission begun last (see [`RadioModel::loss_bound`]).
    last_tx: Option<LastTx>,
    rng: SimRng,
}

/// The transmission begun last and, once a reception of it has counted
/// it, the loss probability of the largest contender count any receiver
/// in its range can see.
#[derive(Debug, Clone, Copy)]
struct LastTx {
    at: SimTime,
    pos: Point,
    p_max: Option<f64>,
}

impl RadioModel {
    /// Additional loss probability contributed by each concurrent
    /// transmission in the contention window within interference range of
    /// the receiver. CSMA mostly *defers* rather than collides, so this is
    /// deliberately small; bursts (flood storms) still degrade delivery.
    pub const LOSS_PER_CONTENDER: f64 = 0.002;

    /// Upper bound on contention-grid cells; worlds so large that the
    /// interference range needs more cells double the cell edge instead.
    const MAX_CELLS: usize = 4096;

    /// Creates a radio model from a scenario configuration and a dedicated
    /// RNG stream.
    pub fn new(cfg: &SimConfig, rng: SimRng) -> RadioModel {
        // One interference range per cell: a contention scan reaches one
        // cell out (3×3). Finer cells would shave scanned *area*, but most
        // cells hold no transmissions inside the 10 ms window, so the
        // per-cell probe overhead dominates and costs more than it saves.
        let mut cell = cfg.interference_range.max(1.0);
        let dims = |cell: f64| {
            let cols = (cfg.width / cell).ceil().max(1.0) as usize;
            let rows = (cfg.height / cell).ceil().max(1.0) as usize;
            (cols, rows)
        };
        let (mut cols, mut rows) = dims(cell);
        while cols * rows > Self::MAX_CELLS {
            cell *= 2.0;
            (cols, rows) = dims(cell);
        }
        let reach = (cfg.interference_range / cell).ceil().max(1.0) as usize;
        RadioModel {
            range: cfg.range,
            interference_range: cfg.interference_range,
            bandwidth_bps: cfg.bandwidth_bps,
            base_loss: cfg.base_loss,
            mac_jitter: cfg.mac_jitter,
            contention_window: SimTime::from_secs(0.01),
            cells: (0..cols * rows).map(|_| TxWindow::default()).collect(),
            cell,
            cols,
            rows,
            reach,
            range_sq_band: Self::sq_band(cfg.range),
            intf_sq_band: Self::sq_band(cfg.interference_range),
            bound_radius: (cfg.range + cfg.interference_range) * (1.0 + 1e-9),
            last_tx: None,
            rng,
        }
    }

    /// Conservative `(lo, hi)` band around `r²` for [`RadioModel::within`]:
    /// thousands of ulps on either side of where the exact comparison could
    /// possibly flip.
    fn sq_band(r: f64) -> (f64, f64) {
        let r2 = r * r;
        (r2 * (1.0 - 1e-12), r2 * (1.0 + 1e-12))
    }

    /// Exactly `a.distance(b) <= r`, square-root-free outside a ±1e-12
    /// relative band around `r²`. `sqrt` is monotonic and correctly
    /// rounded, so the comparison is a threshold in squared distance that
    /// can sit at most a few ulps away from `r²`; inside the (vastly
    /// wider) band the exact expression decides, keeping every outcome
    /// bit-for-bit identical to the plain distance test.
    #[inline]
    fn within(a: Point, b: Point, r: f64, (lo, hi): (f64, f64)) -> bool {
        let dx = a.x - b.x;
        let dy = a.y - b.y;
        let s = dx * dx + dy * dy;
        if s <= lo {
            true
        } else if s >= hi {
            false
        } else {
            a.distance(b) <= r
        }
    }

    /// Number of points within `r` of `rx` — exact: the same outcome per
    /// point as `p.distance(rx) <= r`. The main pass is branchless (and
    /// free of the deciding comparison's rare middle case) so it
    /// vectorizes; points that land inside the ambiguity band are
    /// re-decided by the exact expression in a second, almost-never-taken
    /// pass.
    fn count_within(xs: &[f64], ys: &[f64], rx: Point, r: f64, (lo, hi): (f64, f64)) -> usize {
        let mut inside = 0usize;
        let mut ambiguous = 0usize;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - rx.x;
            let dy = y - rx.y;
            let s = dx * dx + dy * dy;
            inside += usize::from(s <= lo);
            ambiguous += usize::from(s > lo && s < hi);
        }
        if ambiguous > 0 {
            inside += xs
                .iter()
                .zip(ys)
                .filter(|&(&x, &y)| {
                    let dx = x - rx.x;
                    let dy = y - rx.y;
                    let s = dx * dx + dy * dy;
                    s > lo && s < hi && Point::new(x, y).distance(rx) <= r
                })
                .count();
        }
        inside
    }

    /// Grid cell index of a position (clamped into bounds).
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x / self.cell) as isize).clamp(0, self.cols as isize - 1) as usize;
        let cy = ((p.y / self.cell) as isize).clamp(0, self.rows as isize - 1) as usize;
        (cx, cy)
    }

    /// The radio transmission range in metres.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Whether a receiver at `rx` can hear a transmitter at `tx`.
    #[inline]
    pub fn in_range(&self, tx: Point, rx: Point) -> bool {
        Self::within(tx, rx, self.range, self.range_sq_band)
    }

    /// Registers a transmission (for contention accounting) and returns its
    /// airtime + jitter latency.
    pub fn begin_transmission(&mut self, now: SimTime, tx_pos: Point, size_bytes: u32) -> SimTime {
        let horizon = now.saturating_sub(self.contention_window);
        let (cx, cy) = self.cell_of(tx_pos);
        let idx = cy * self.cols + cx;
        if let Some(cell) = self.cells.get_mut(idx) {
            cell.prune(horizon);
            cell.push(now, tx_pos);
        }
        self.last_tx = Some(LastTx {
            at: now,
            pos: tx_pos,
            p_max: None,
        });
        let airtime = size_bytes as f64 * 8.0 / self.bandwidth_bps;
        let jitter = self.rng.gen_range(0.0..=self.mac_jitter);
        SimTime::from_secs(airtime + jitter)
    }

    /// Draws the reception outcome for a receiver at `rx_pos`.
    ///
    /// Loss probability is `base_loss + k·per_tx` where `k` counts other
    /// transmissions in the contention window within interference range of
    /// the receiver, capped at 0.95 so the channel never becomes an oubliette.
    ///
    /// The uniform draw comes first, and the count only when the draw
    /// needs it: a draw at or above the loss probability of an upper bound
    /// on `k` is received whatever `k` is, since the probability never
    /// falls as `k` grows. The bound is counted once per transmission,
    /// around the transmitter. Either way the reception takes one draw, so
    /// the outcome and the stream are those of
    /// [`RadioModel::receive_counted`].
    pub fn receive(&mut self, now: SimTime, rx_pos: Point) -> Reception {
        let u: f64 = self.rng.gen();
        let lost = u < self.loss_bound(now, rx_pos) && u < self.loss_probability(now, rx_pos);
        // Debug-build oracle: the full count must decide the same way. It
        // takes no draw, and it prunes only entries that every later
        // count, at a time no earlier, would skip.
        #[cfg(debug_assertions)]
        {
            let counted = u < self.loss_probability(now, rx_pos);
            // audit: allow(D006, reason = "debug-build oracle: a bound that decides differently from the full count is a kernel bug and must fail the run that hit it")
            assert_eq!(
                lost, counted,
                "contention bound diverged from the full count"
            );
        }
        Self::outcome(lost)
    }

    /// [`RadioModel::receive`] decided from the full contender count at
    /// every reception: the reference the draw-first path is tested
    /// against, draw by draw.
    pub fn receive_counted(&mut self, now: SimTime, rx_pos: Point) -> Reception {
        let u: f64 = self.rng.gen();
        let lost = u < self.loss_probability(now, rx_pos);
        Self::outcome(lost)
    }

    fn outcome(lost: bool) -> Reception {
        if lost {
            Reception::Lost
        } else {
            Reception::Ok
        }
    }

    /// Loss probability for `contenders` other transmissions around the
    /// receiver. Nondecreasing in `contenders` under IEEE rounding: each
    /// step (scale by a positive constant, add a constant, cap) is.
    fn p_loss(&self, contenders: usize) -> f64 {
        (self.base_loss + Self::LOSS_PER_CONTENDER * contenders as f64).min(0.95)
    }

    /// Loss probability of a reception at `rx_pos` now, from the full
    /// count: the live window entries within interference range of the
    /// receiver, less the frame's own transmission.
    fn loss_probability(&mut self, now: SimTime, rx_pos: Point) -> f64 {
        let (cx, cy) = self.cell_of(rx_pos);
        // Every transmitter within interference range of `rx_pos` lies
        // within `reach` cells of its cell (reach·cell ≥ interference
        // range), so this counts exactly the set the flat scan counted.
        let cells = (
            (cx.saturating_sub(self.reach), cy.saturating_sub(self.reach)),
            (
                (cx + self.reach).min(self.cols - 1),
                (cy + self.reach).min(self.rows - 1),
            ),
        );
        let (r, band) = (self.interference_range, self.intf_sq_band);
        let contenders = self.count_in(now, cells, rx_pos, r, band);
        // The frame's own transmission doesn't contend with itself.
        self.p_loss(contenders.saturating_sub(1))
    }

    /// An upper bound on [`RadioModel::loss_probability`] at `rx_pos`
    /// now: `p(k − 1)` for the `k` live window entries within
    /// `bound_radius` of the transmission begun last, counted on its first
    /// reception. It holds when the receiver is in that transmission's
    /// range at its instant: each contender of the receiver is within
    /// interference range of it, so within `bound_radius` of the
    /// transmitter. Any other reception gets 1.0, above every draw.
    fn loss_bound(&mut self, now: SimTime, rx_pos: Point) -> f64 {
        let Some(tx) = self.last_tx else {
            return 1.0;
        };
        if tx.at != now || !self.in_range(tx.pos, rx_pos) {
            return 1.0;
        }
        if let Some(p) = tx.p_max {
            return p;
        }
        let rb = self.bound_radius;
        let cells = (
            self.cell_of(Point::new(tx.pos.x - rb, tx.pos.y - rb)),
            self.cell_of(Point::new(tx.pos.x + rb, tx.pos.y + rb)),
        );
        // A band of zero width: `count_within` counts `s ≤ rb²` exactly.
        let k = self.count_in(now, cells, tx.pos, rb, (rb * rb, rb * rb));
        let p = self.p_loss(k.saturating_sub(1));
        self.last_tx = Some(LastTx {
            p_max: Some(p),
            ..tx
        });
        p
    }

    /// Live window entries within `r` of `at` (by [`RadioModel::count_within`]
    /// with `band`) in the cells from `lo` to `hi`, both corners included,
    /// pruning each cell of the entries older than the window first.
    fn count_in(
        &mut self,
        now: SimTime,
        (lo, hi): ((usize, usize), (usize, usize)),
        at: Point,
        r: f64,
        band: (f64, f64),
    ) -> usize {
        let horizon = now.saturating_sub(self.contention_window);
        let mut n = 0usize;
        for y in lo.1..=hi.1 {
            for x in lo.0..=hi.0 {
                if let Some(cell) = self.cells.get_mut(y * self.cols + x) {
                    cell.prune(horizon);
                    let (xs, ys) = cell.coords();
                    n += Self::count_within(xs, ys, at, r, band);
                }
            }
        }
        n
    }

    /// Current number of transmissions stored in the contention window
    /// (for tests and diagnostics; cells prune lazily, so this can
    /// transiently include entries an upcoming push or count would drop).
    pub fn contention_level(&self) -> usize {
        self.cells.iter().map(TxWindow::len).sum()
    }
}

/// One contention cell's transmissions in struct-of-arrays layout: the
/// count scan touches only the two pure-`f64` coordinate streams (always
/// contiguous, index-aligned, and shuffle-free to vectorize), not the
/// timestamps it would skip anyway. Pruned entries become a dead prefix
/// (`start`) that is compacted away once it outgrows the live suffix, so
/// eviction stays amortized O(1) and memory bounded by ~2× the peak
/// window population.
#[derive(Debug, Default)]
struct TxWindow {
    times: Vec<SimTime>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Index of the first live (unpruned) entry.
    start: usize,
}

impl TxWindow {
    fn push(&mut self, now: SimTime, pos: Point) {
        // audit: allow(D007, reason = "prune() evicts entries older than the 10 ms contention window before every push and count")
        self.times.push(now);
        // audit: allow(D007, reason = "pruned in lockstep with times")
        self.xs.push(pos.x);
        // audit: allow(D007, reason = "pruned in lockstep with times")
        self.ys.push(pos.y);
    }

    /// Marks entries older than `horizon` dead (times are pushed in
    /// nondecreasing order, so the stale prefix is contiguous), compacting
    /// the buffers when the dead prefix outgrows the live entries.
    fn prune(&mut self, horizon: SimTime) {
        while self.times.get(self.start).is_some_and(|&t| t < horizon) {
            self.start += 1;
        }
        if self.start > 32 && self.start * 2 > self.times.len() {
            self.times.drain(..self.start);
            self.xs.drain(..self.start);
            self.ys.drain(..self.start);
            self.start = 0;
        }
    }

    fn len(&self) -> usize {
        self.times.len() - self.start
    }

    /// The live entries' coordinate streams (equal-length slices).
    fn coords(&self) -> (&[f64], &[f64]) {
        (
            self.xs.get(self.start..).unwrap_or(&[]),
            self.ys.get(self.start..).unwrap_or(&[]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_stream;

    fn model(base_loss: f64) -> RadioModel {
        let cfg = SimConfig {
            base_loss,
            ..SimConfig::default()
        };
        RadioModel::new(&cfg, derive_stream(1, 1))
    }

    #[test]
    fn range_check() {
        let m = model(0.0);
        assert!(m.in_range(Point::new(0.0, 0.0), Point::new(250.0, 0.0)));
        assert!(!m.in_range(Point::new(0.0, 0.0), Point::new(250.1, 0.0)));
    }

    #[test]
    fn zero_loss_always_receives() {
        let mut m = model(0.0);
        let p = Point::new(0.0, 0.0);
        for i in 0..100 {
            let t = SimTime::from_secs(i as f64);
            m.begin_transmission(t, p, 64);
            assert_eq!(m.receive(t, p), Reception::Ok);
        }
    }

    #[test]
    fn latency_scales_with_size() {
        let mut m = model(0.0);
        let t = SimTime::ZERO;
        let small = m.begin_transmission(t, Point::default(), 64);
        let large = m.begin_transmission(t, Point::default(), 6400);
        // Airtime dominates jitter for the large frame: 6400B at 2Mbps = 25.6ms.
        assert!(large > small);
        assert!(large.as_secs() >= 6400.0 * 8.0 / 2_000_000.0);
    }

    #[test]
    fn contention_raises_loss() {
        let mut m = model(0.0);
        let p = Point::new(0.0, 0.0);
        let t = SimTime::from_secs(100.0);
        // Many simultaneous transmissions nearby raise loss substantially.
        for _ in 0..300 {
            m.begin_transmission(t, p, 64);
        }
        let mut lost = 0;
        for _ in 0..1000 {
            if m.receive(t, p) == Reception::Lost {
                lost += 1;
            }
        }
        assert!(
            lost > 300,
            "expected heavy loss under contention, got {lost}/1000"
        );
    }

    #[test]
    fn contention_window_prunes() {
        let mut m = model(0.0);
        let p = Point::default();
        m.begin_transmission(SimTime::from_secs(1.0), p, 64);
        assert_eq!(m.contention_level(), 1);
        m.begin_transmission(SimTime::from_secs(10.0), p, 64);
        assert_eq!(m.contention_level(), 1, "old transmission should be pruned");
    }
}

//! Property: `RadioModel::receive`, which decides most receptions by
//! comparing its draw with a bound on the contender count, gives the same
//! outcome, draw by draw, as `RadioModel::receive_counted`, which counts
//! the contenders of every reception in full. Two identically seeded
//! models run the same workload, one through each path: fields of one to
//! 8 × 8 contention cells, bursts of transmissions at one instant,
//! receivers at the range edge and out of range, receptions at a later
//! instant than the last transmission, steps that straddle the 10 ms
//! contention window, and bursts dense enough to reach the 0.95 loss cap.

use manet_sim::rng::StreamLabel;
use manet_sim::{Point, RadioModel, SimConfig, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

/// A burst of transmissions begun together before a step's own: `count`
/// transmitters scattered over a square of half-side `spread` around an
/// offset from the step's transmitter, the offset's coordinates given in
/// units of `range + interference_range`.
#[derive(Debug, Clone)]
struct Burst {
    count: usize,
    offset: (f64, f64),
    spread: f64,
}

/// One instant of radio activity.
#[derive(Debug, Clone)]
struct Step {
    /// Microseconds since the previous step.
    dt: u64,
    /// Whether a transmission begins at this step (if not, the receptions
    /// happen at a later instant than the last transmission).
    transmit: bool,
    /// The transmitter's position as fractions of the field.
    at: (f64, f64),
    burst: Option<Burst>,
    /// Receivers as `(edge, distance as a fraction of range, angle)`:
    /// `edge` puts the receiver exactly `range` away.
    receivers: Vec<(bool, f64, f64)>,
}

/// Gaps that stay at one instant, stay inside the 10 ms window, straddle
/// its edge by a few microseconds, or leave it.
fn dt_strategy() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..20_000).prop_map(|(kind, v)| match kind {
        0 => 0,
        1 => v % 2_000,
        2 => 9_995 + v % 11,
        _ => v,
    })
}

fn burst_strategy() -> impl Strategy<Value = Option<Burst>> {
    (
        0u8..3,
        1usize..600,
        (-1.0f64..1.0, -1.0f64..1.0),
        0.0f64..1.0,
        proptest::bool::ANY,
    )
        .prop_map(|(kind, count, offset, spread, tight)| {
            (kind == 0).then_some(Burst {
                count,
                offset,
                // A tight burst stacks every transmitter within a few
                // metres, so a receiver near it sees the loss cap.
                spread: if tight { spread * 5.0 } else { spread * 600.0 },
            })
        })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        dt_strategy(),
        0u8..8,
        (0.0f64..1.0, 0.0f64..1.0),
        burst_strategy(),
        vec((0u8..4, 0.0f64..1.3, 0.0f64..std::f64::consts::TAU), 0..10),
    )
        .prop_map(|(dt, kind, at, burst, receivers)| Step {
            dt,
            transmit: kind != 0,
            at,
            burst,
            receivers: receivers
                .into_iter()
                .map(|(edge, d, angle)| (edge == 0, d, angle))
                .collect(),
        })
}

/// The fractional part of `j·α`: a low-discrepancy scatter in `[0, 1)`.
fn scatter(j: usize, alpha: f64) -> f64 {
    (j as f64 * alpha).fract()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn draw_first_reception_matches_the_full_count(
        (range, extra) in (50.0f64..400.0, 0.0f64..500.0),
        (cols, rows) in (0.1f64..8.0, 0.1f64..8.0),
        base_loss in 0.0f64..0.3,
        seed in 0u64..10_000,
        steps in vec(step_strategy(), 1..24),
    ) {
        let interference_range = range + extra;
        let cfg = SimConfig {
            range,
            interference_range,
            base_loss,
            // One contention cell is one interference range on a side.
            width: cols * interference_range,
            height: rows * interference_range,
            ..SimConfig::default()
        };
        let mut fast = RadioModel::new(&cfg, StreamLabel::Radio.stream(seed));
        let mut full = RadioModel::new(&cfg, StreamLabel::Radio.stream(seed));
        let inside = |p: Point| Point::new(p.x.clamp(0.0, cfg.width), p.y.clamp(0.0, cfg.height));
        let reach = range + interference_range;
        let mut now = SimTime::from_secs(1.0);
        for step in &steps {
            now += SimTime::from_micros(step.dt);
            let tx = Point::new(step.at.0 * cfg.width, step.at.1 * cfg.height);
            if let Some(b) = &step.burst {
                let centre = Point::new(tx.x + b.offset.0 * reach, tx.y + b.offset.1 * reach);
                for j in 0..b.count {
                    let p = inside(Point::new(
                        centre.x + b.spread * (2.0 * scatter(j, 0.618_034) - 1.0),
                        centre.y + b.spread * (2.0 * scatter(j, 0.754_878) - 1.0),
                    ));
                    prop_assert_eq!(
                        fast.begin_transmission(now, p, 64),
                        full.begin_transmission(now, p, 64)
                    );
                }
            }
            if step.transmit {
                prop_assert_eq!(
                    fast.begin_transmission(now, tx, 512),
                    full.begin_transmission(now, tx, 512)
                );
            }
            for &(edge, d, angle) in &step.receivers {
                let d = if edge { range } else { d * range };
                let rx = inside(Point::new(tx.x + d * angle.cos(), tx.y + d * angle.sin()));
                prop_assert_eq!(
                    fast.receive(now, rx),
                    full.receive_counted(now, rx),
                    "reception at {:?} from {:?}",
                    rx,
                    tx
                );
            }
        }
        // Both streams stayed in step to the end.
        prop_assert_eq!(
            fast.begin_transmission(now, Point::default(), 64),
            full.begin_transmission(now, Point::default(), 64)
        );
    }
}

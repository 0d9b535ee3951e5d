//! Node mobility: the random-waypoint model.
//!
//! Each node repeatedly (1) picks a uniformly random destination inside the
//! field, (2) moves toward it in a straight line at a uniformly random speed
//! in `(0, max_speed]`, then (3) pauses for `pause` seconds. This matches the
//! ns-2 `setdest` scenarios used in the paper (1000 m × 1000 m field, pause
//! time 10 s, maximum speed 20 m/s).

use crate::rng::SimRng;
use crate::time::SimTime;
use rand::Rng;

/// A position on the simulation field, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// One leg of a random-waypoint trajectory.
#[derive(Debug, Clone, Copy)]
pub struct Waypoint {
    /// Where the leg starts.
    pub from: Point,
    /// Where the leg ends.
    pub to: Point,
    /// Time the node leaves `from`.
    pub depart: SimTime,
    /// Time the node reaches `to` (movement speed is constant on a leg).
    pub arrive: SimTime,
    /// Time the node starts moving again after pausing at `to`.
    pub pause_until: SimTime,
}

/// Random-waypoint mobility state for a single node.
///
/// Positions are evaluated lazily: [`RandomWaypoint::advance_to`] rolls the
/// trajectory forward (deterministically, from the node's own RNG stream)
/// and [`RandomWaypoint::position`] / [`RandomWaypoint::velocity`] evaluate
/// the current leg. Queries must be non-decreasing in time.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    width: f64,
    height: f64,
    max_speed: f64,
    pause: SimTime,
    leg: Waypoint,
    rng: SimRng,
}

impl RandomWaypoint {
    /// Creates a node trajectory on a `width`×`height` field.
    ///
    /// The initial position is uniform over the field and the node starts
    /// its first movement immediately.
    ///
    /// # Panics
    ///
    /// Panics if `width`, `height` or `max_speed` is not strictly positive.
    pub fn new(width: f64, height: f64, max_speed: f64, pause: SimTime, mut rng: SimRng) -> Self {
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        assert!(max_speed > 0.0, "max_speed must be positive");
        let start = Point::new(rng.gen_range(0.0..width), rng.gen_range(0.0..height));
        let mut rwp = RandomWaypoint {
            width,
            height,
            max_speed,
            pause,
            leg: Waypoint {
                from: start,
                to: start,
                depart: SimTime::ZERO,
                arrive: SimTime::ZERO,
                pause_until: SimTime::ZERO,
            },
            rng,
        };
        rwp.next_leg(SimTime::ZERO);
        rwp
    }

    fn next_leg(&mut self, depart: SimTime) {
        let from = self.leg.to;
        let to = Point::new(
            self.rng.gen_range(0.0..self.width),
            self.rng.gen_range(0.0..self.height),
        );
        // Strictly positive speed: zero speed would never arrive. The lower
        // bound scales with max_speed so near-static scenarios stay valid.
        let lo = (self.max_speed * 0.05).min(0.1);
        let speed = self.rng.gen_range(lo..=self.max_speed);
        let travel = from.distance(to) / speed;
        let arrive = depart + SimTime::from_secs(travel);
        self.leg = Waypoint {
            from,
            to,
            depart,
            arrive,
            pause_until: arrive + self.pause,
        };
    }

    /// Rolls the trajectory forward so the current leg covers time `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        while t >= self.leg.pause_until {
            let depart = self.leg.pause_until;
            self.next_leg(depart);
        }
    }

    /// Position at time `t`, which must lie within the current leg
    /// (call [`RandomWaypoint::advance_to`] first).
    pub fn position(&self, t: SimTime) -> Point {
        let leg = &self.leg;
        if t <= leg.depart {
            return leg.from;
        }
        if t >= leg.arrive {
            return leg.to;
        }
        let total = (leg.arrive - leg.depart).as_secs();
        let frac = if total > 0.0 {
            (t - leg.depart).as_secs() / total
        } else {
            1.0
        };
        Point::new(
            leg.from.x + (leg.to.x - leg.from.x) * frac,
            leg.from.y + (leg.to.y - leg.from.y) * frac,
        )
    }

    /// Absolute velocity (speed, m/s) at time `t`: the leg speed while
    /// moving, `0` while pausing.
    pub fn velocity(&self, t: SimTime) -> f64 {
        let leg = &self.leg;
        if t >= leg.depart && t < leg.arrive {
            let total = (leg.arrive - leg.depart).as_secs();
            if total > 0.0 {
                return leg.from.distance(leg.to) / total;
            }
        }
        0.0
    }

    /// The leg currently buffered (mainly useful for tests and debugging).
    pub fn current_leg(&self) -> Waypoint {
        self.leg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use rand::SeedableRng;

    fn rwp(seed: u64) -> RandomWaypoint {
        RandomWaypoint::new(
            1000.0,
            1000.0,
            20.0,
            SimTime::from_secs(10.0),
            SimRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn stays_in_bounds() {
        let mut m = rwp(1);
        for i in 0..2000 {
            let t = SimTime::from_secs(i as f64 * 7.3);
            m.advance_to(t);
            let p = m.position(t);
            assert!((0.0..=1000.0).contains(&p.x), "x out of bounds: {p:?}");
            assert!((0.0..=1000.0).contains(&p.y), "y out of bounds: {p:?}");
        }
    }

    #[test]
    fn velocity_bounded_by_max_speed() {
        let mut m = rwp(2);
        for i in 0..2000 {
            let t = SimTime::from_secs(i as f64 * 3.1);
            m.advance_to(t);
            let v = m.velocity(t);
            assert!((0.0..=20.0).contains(&v), "speed out of bounds: {v}");
        }
    }

    #[test]
    fn pauses_at_waypoints() {
        let mut m = rwp(3);
        m.advance_to(SimTime::ZERO);
        let leg = m.current_leg();
        // Just after arriving the node is paused.
        let t = leg.arrive + SimTime::from_secs(1.0);
        if t < leg.pause_until {
            m.advance_to(t);
            assert_eq!(m.velocity(t), 0.0);
            assert_eq!(m.position(t), leg.to);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = rwp(42);
        let mut b = rwp(42);
        let t = SimTime::from_secs(500.0);
        a.advance_to(t);
        b.advance_to(t);
        assert_eq!(a.position(t), b.position(t));
        assert_eq!(a.velocity(t), b.velocity(t));
    }

    #[test]
    fn movement_is_continuous() {
        let mut m = rwp(5);
        let mut prev = None;
        for i in 0..5000 {
            let t = SimTime::from_secs(i as f64 * 0.2);
            m.advance_to(t);
            let p = m.position(t);
            if let Some(q) = prev {
                let d = p.distance(q);
                // At max 20 m/s a 0.2 s step moves at most 4 m.
                assert!(d <= 4.0 + 1e-9, "teleported {d} m in one step");
            }
            prev = Some(p);
        }
    }
}

//! On–off intrusion session scheduling.

use manet_sim::SimTime;

/// When an attack is active.
///
/// The paper's intrusion model inserts sessions periodically: each session
/// lasts `duration` and is followed by a gap of equal length ("we assume
/// the duration of each intrusion session and the gap between two adjacent
/// intrusion sessions are same"). [`Schedule::on_off`] implements exactly
/// that; [`Schedule::sessions`] supports arbitrary session lists (used for
/// the Figure 5 scenarios with sessions at 2500 s, 5000 s and 7500 s).
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Active for the whole run.
    Always,
    /// Periodic on–off: active during `[start + k·(duration+gap),
    /// start + k·(duration+gap) + duration)` for every `k ≥ 0`.
    OnOff {
        /// First activation time.
        start: SimTime,
        /// Session length.
        duration: SimTime,
        /// Gap between sessions.
        gap: SimTime,
    },
    /// Explicit session intervals `[begin, end)`.
    Sessions(Vec<(SimTime, SimTime)>),
}

impl Schedule {
    /// The paper's periodic model with equal duration and gap.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn on_off(start: SimTime, duration: SimTime) -> Schedule {
        assert!(
            duration > SimTime::ZERO,
            "session duration must be positive"
        );
        Schedule::OnOff {
            start,
            duration,
            gap: duration,
        }
    }

    /// Explicit sessions, e.g. three 100 s intrusions at 2500/5000/7500 s.
    ///
    /// # Panics
    ///
    /// Panics if any interval is empty or reversed.
    pub fn sessions(intervals: impl IntoIterator<Item = (SimTime, SimTime)>) -> Schedule {
        let v: Vec<_> = intervals.into_iter().collect();
        assert!(
            v.iter().all(|(b, e)| e > b),
            "sessions must be non-empty intervals"
        );
        Schedule::Sessions(v)
    }

    /// Whether the attack is active at time `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        match self {
            Schedule::Always => true,
            Schedule::OnOff {
                start,
                duration,
                gap,
            } => {
                if t < *start {
                    return false;
                }
                let period = (*duration + *gap).as_micros();
                let offset = (t.as_micros() - start.as_micros()) % period;
                offset < duration.as_micros()
            }
            Schedule::Sessions(v) => v.iter().any(|&(b, e)| t >= b && t < e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn always_is_always() {
        assert!(Schedule::Always.is_active(SimTime::ZERO));
        assert!(Schedule::Always.is_active(s(1e6)));
    }

    #[test]
    fn on_off_alternates_with_equal_duty() {
        let sched = Schedule::on_off(s(2500.0), s(100.0));
        assert!(!sched.is_active(s(0.0)));
        assert!(!sched.is_active(s(2499.9)));
        assert!(sched.is_active(s(2500.0)));
        assert!(sched.is_active(s(2599.9)));
        assert!(!sched.is_active(s(2600.0)));
        assert!(!sched.is_active(s(2699.9)));
        assert!(
            sched.is_active(s(2700.0)),
            "second session starts after the gap"
        );
    }

    #[test]
    fn explicit_sessions() {
        let sched = Schedule::sessions([(s(2500.0), s(2600.0)), (s(5000.0), s(5100.0))]);
        assert!(sched.is_active(s(2550.0)));
        assert!(!sched.is_active(s(2600.0)));
        assert!(sched.is_active(s(5099.0)));
        assert!(!sched.is_active(s(7500.0)));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_zero_duration() {
        let _ = Schedule::on_off(SimTime::ZERO, SimTime::ZERO);
    }
}

//! Property-based tests for attack scheduling and dropping policies.

use manet_attacks::{DropPolicy, Schedule};
use manet_sim::{NodeId, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn on_off_duty_cycle_is_half(
        start in 0.0f64..5000.0,
        duration in 1.0f64..500.0,
        probes in proptest::collection::vec(0.0f64..20000.0, 1..50),
    ) {
        let sched = Schedule::on_off(
            SimTime::from_secs(start),
            SimTime::from_secs(duration),
        );
        for t in probes {
            let t = SimTime::from_secs(t);
            if t < SimTime::from_secs(start) {
                prop_assert!(!sched.is_active(t), "inactive before start");
            } else {
                // Position within the duration+gap period decides.
                let rel = t.as_micros() - SimTime::from_secs(start).as_micros();
                let period = 2 * SimTime::from_secs(duration).as_micros();
                let expected = rel % period < SimTime::from_secs(duration).as_micros();
                prop_assert_eq!(sched.is_active(t), expected);
            }
        }
    }

    #[test]
    fn sessions_active_iff_inside_an_interval(
        intervals in proptest::collection::vec((0.0f64..1000.0, 1.0f64..200.0), 1..6),
        probe in 0.0f64..2000.0,
    ) {
        let sched = Schedule::sessions(
            intervals.iter().map(|&(b, len)| {
                (SimTime::from_secs(b), SimTime::from_secs(b + len))
            }),
        );
        let t = SimTime::from_secs(probe);
        let expected = intervals.iter().any(|&(b, len)| probe >= b && probe < b + len);
        // Micros rounding can flip strict boundary cases; exclude them.
        let near_boundary = intervals
            .iter()
            .any(|&(b, len)| (probe - b).abs() < 1e-5 || (probe - (b + len)).abs() < 1e-5);
        if !near_boundary {
            prop_assert_eq!(sched.is_active(t), expected);
        }
    }

    #[test]
    fn random_drop_probability_is_respected(p in 0.0f64..=1.0) {
        let n = 2000;
        let dropped = count_drops(DropPolicy::Random { p }, n, |i| i as f64);
        let rate = dropped as f64 / f64::from(n);
        prop_assert!((rate - p).abs() < 0.08, "empirical {rate:.3} vs requested {p:.3}");
    }

    #[test]
    fn periodic_policy_duty_fraction(duty in 0.05f64..0.95, period in 1.0f64..100.0) {
        let n = 5000;
        let dropped = count_drops(
            DropPolicy::Periodic { period, duty },
            n,
            |i| i as f64 * period / 97.3,
        );
        let rate = dropped as f64 / f64::from(n);
        prop_assert!((rate - duty).abs() < 0.1, "duty {rate:.3} vs requested {duty:.3}");
    }
}

/// Feeds `n` transit packets through one PacketDropper (so its RNG stream
/// advances naturally) and returns how many were discarded.
fn count_drops(policy: DropPolicy, n: u32, time_of: impl Fn(u32) -> f64) -> u64 {
    use manet_attacks::PacketDropper;
    use manet_routing::dsr::DsrAgent;
    use manet_routing::DsrHeader;
    use manet_sim::agent::AgentHarness;
    use manet_sim::{Agent, Packet, PacketId};
    let mut attacker = PacketDropper::new(DsrAgent::new(), policy, Schedule::Always);
    let mut h = AgentHarness::new(NodeId(2));
    for i in 0..n {
        h.set_now(SimTime::from_secs(time_of(i)));
        let mut ctx = h.ctx();
        attacker.on_packet(
            &mut ctx,
            Packet {
                id: PacketId(u64::from(i)),
                src: NodeId(0),
                link_src: NodeId(0),
                dst: NodeId(5),
                ttl: 16,
                size: 512,
                header: DsrHeader::Data {
                    route: vec![NodeId(0), NodeId(2), NodeId(5)],
                    hop: 0,
                    salvaged: false,
                },
                app: None,
            },
        );
    }
    attacker.dropped()
}

//! Golden traces of the protocol layer.
//!
//! AODV and DSR each run without an attack and under the black hole,
//! selective dropping and the update storm, on a 20-node world, and under
//! the black hole on a 120-node world whose radio contention spans many
//! grid cells. Each run is pinned to three
//! values: the simulator's event count, its frame counters, and an FNV-1a
//! digest of the audit traces at two honest vantage nodes. A change to the
//! routing agents, the attack wrappers or the scenario builder that moves
//! one trace event fails here. The digests are portable: this path uses
//! only `sqrt` and `powi` among the floating-point functions.

use manet_cfa::scenario::{Attack, Protocol, Scenario, Transport};
use manet_cfa::sim::{Agent, NodeId, NodeTrace, Simulator};

/// Honest nodes whose traces are digested (the attackers are 7 and 9).
const VANTAGES: [NodeId; 2] = [NodeId(0), NodeId(4)];

#[derive(Debug, PartialEq)]
struct Golden {
    events: u64,
    /// Frames delivered and lost at the radio.
    frames: (u64, u64),
    digest: u64,
}

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn trace(&mut self, trace: &NodeTrace) {
        self.word(trace.packet_events.len() as u64);
        for e in &trace.packet_events {
            self.word(e.t.as_secs().to_bits());
            self.word(e.kind.index() as u64);
            self.word(e.dir.index() as u64);
        }
        self.word(trace.route_events.len() as u64);
        for e in &trace.route_events {
            self.word(e.t.as_secs().to_bits());
            self.word(e.kind.index() as u64);
            self.word(e.route_len.map_or(0, |l| u64::from(l) + 1));
        }
        self.word(trace.mobility.len() as u64);
        for s in &trace.mobility {
            self.word(s.t.as_secs().to_bits());
            self.word(s.velocity.to_bits());
        }
    }
}

fn observe<A: Agent>(mut sim: Simulator<A>) -> Golden {
    sim.run();
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for v in VANTAGES {
        fnv.trace(sim.trace(v));
    }
    Golden {
        events: sim.events_processed(),
        frames: sim.frame_stats(),
        digest: fnv.0,
    }
}

fn simulate(protocol: Protocol, s: Scenario) -> Golden {
    match protocol {
        Protocol::Aodv => observe(s.build_aodv()),
        Protocol::Dsr => observe(s.build_dsr()),
    }
}

fn run(protocol: Protocol, attack: Option<Attack>) -> Golden {
    let mut s = Scenario::paper_default(protocol, Transport::Cbr)
        .with_nodes(20)
        .with_world(600.0, 600.0)
        .with_connections(20)
        .with_duration(200.0)
        .with_seed(1);
    if let Some(a) = attack {
        s = s.with_attack(a);
    }
    simulate(protocol, s)
}

/// A black hole at node 7 from 15 s, on 120 nodes over 3 000 m × 3 000 m
/// for 60 s. The radio's contention grid is 6 × 6 cells of 550 m here;
/// the 600 m worlds above fit in 2 × 2.
fn run_wide(protocol: Protocol) -> Golden {
    let s = Scenario::paper_default(protocol, Transport::Cbr)
        .with_nodes(120)
        .with_world(3000.0, 3000.0)
        .with_connections(240)
        .with_duration(60.0)
        .with_seed(1)
        .with_attack(Attack::blackhole_at(&[15.0]));
    simulate(protocol, s)
}

/// Runs an attacked scenario, checks it against its pinned values, and
/// checks that the attack moved the vantages' traces at all.
fn check_attacked(protocol: Protocol, attack: Attack, want: Golden, clean: &Golden) {
    let got = run(protocol, Some(attack));
    assert_eq!(got, want, "{} trace moved", protocol.name());
    assert_ne!(got.digest, clean.digest, "the attack left no trace");
}

/// Selective dropping of node 0's traffic at node 9, which relays that
/// traffic in this run; an attacker off the victim's paths drops nothing.
fn dropping() -> Attack {
    Attack::dropping_at(&[50.0], NodeId(0)).from_node(NodeId(9))
}

const AODV_CLEAN: Golden = Golden {
    events: 103_499,
    frames: (71_783, 979),
    digest: 0x7b110c10b8392d87,
};

const DSR_CLEAN: Golden = Golden {
    events: 55_775,
    frames: (23_998, 673),
    digest: 0x435805441ac33d90,
};

#[test]
fn aodv_without_attack() {
    assert_eq!(run(Protocol::Aodv, None), AODV_CLEAN);
}

#[test]
fn aodv_blackhole() {
    let want = Golden {
        events: 329_624,
        frames: (209_171, 21_064),
        digest: 0x3a580f1ed5b91d7f,
    };
    check_attacked(
        Protocol::Aodv,
        Attack::blackhole_at(&[50.0]),
        want,
        &AODV_CLEAN,
    );
}

#[test]
fn aodv_selective_dropping() {
    let want = Golden {
        events: 101_711,
        frames: (71_034, 933),
        digest: 0xe24c95f622f77656,
    };
    check_attacked(Protocol::Aodv, dropping(), want, &AODV_CLEAN);
}

#[test]
fn aodv_storm() {
    let want = Golden {
        events: 373_466,
        frames: (165_303, 8_430),
        digest: 0x140dd2bbec33e8a6,
    };
    check_attacked(Protocol::Aodv, Attack::storm_at(&[50.0]), want, &AODV_CLEAN);
}

#[test]
fn dsr_without_attack() {
    assert_eq!(run(Protocol::Dsr, None), DSR_CLEAN);
}

#[test]
fn dsr_blackhole() {
    let want = Golden {
        events: 167_634,
        frames: (137_074, 19_933),
        digest: 0xc5b75522f0029595,
    };
    check_attacked(
        Protocol::Dsr,
        Attack::blackhole_at(&[50.0]),
        want,
        &DSR_CLEAN,
    );
}

#[test]
fn dsr_selective_dropping() {
    let want = Golden {
        events: 56_466,
        frames: (24_863, 675),
        digest: 0xe989702216b4cb33,
    };
    check_attacked(Protocol::Dsr, dropping(), want, &DSR_CLEAN);
}

#[test]
fn dsr_storm() {
    let want = Golden {
        events: 325_841,
        frames: (130_740, 10_001),
        digest: 0x83b5448eb70d338e,
    };
    check_attacked(Protocol::Dsr, Attack::storm_at(&[50.0]), want, &DSR_CLEAN);
}

#[test]
fn aodv_blackhole_wide_field() {
    let want = Golden {
        events: 284_575,
        frames: (227_182, 10_016),
        digest: 0xe490ea4069d9cac2,
    };
    assert_eq!(run_wide(Protocol::Aodv), want);
}

#[test]
fn dsr_blackhole_wide_field() {
    let want = Golden {
        events: 188_451,
        frames: (133_695, 6_164),
        digest: 0xc857907b551ca683,
    };
    assert_eq!(run_wide(Protocol::Dsr), want);
}

//! Criterion macro-benchmarks: simulator event throughput and feature
//! extraction over realistic scenarios, plus the scale axis — 100, 500,
//! and 1000-node worlds at the paper's node density. Each scale leg
//! prints its measured events/s before criterion's timing output (the
//! numbers EXPERIMENTS.md records).

use criterion::{criterion_group, criterion_main, Criterion};
use manet_cfa::features::FeatureExtractor;
use manet_cfa::routing::{aodv::AodvAgent, dsr::DsrAgent};
use manet_cfa::sim::{NodeId, SimConfig, SimTime, Simulator};
use manet_cfa::traffic::{ConnectionPattern, Transport};

fn scenario_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .nodes(50)
        .duration_secs(100.0)
        .seed(seed)
        .build()
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_100s_50nodes");
    group.sample_size(10);
    let pattern = ConnectionPattern::random(50, 20, Transport::Cbr, SimTime::from_secs(100.0), 1);
    group.bench_function("aodv_cbr", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(scenario_cfg(1), |_| AodvAgent::new());
            pattern.install(&mut sim);
            sim.run();
            sim.frame_stats()
        })
    });
    group.bench_function("dsr_cbr", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(scenario_cfg(1), |_| DsrAgent::new());
            pattern.install(&mut sim);
            sim.run();
            sim.frame_stats()
        })
    });
    group.finish();
}

/// A scale-axis config at the paper's density (20 000 m² per node).
fn scale_cfg(n: u16, secs: f64) -> SimConfig {
    let side = (f64::from(n) * 20_000.0).sqrt();
    SimConfig::builder()
        .nodes(n)
        .field(side, side)
        .duration_secs(secs)
        .seed(5)
        .build()
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_scale_axis");
    group.sample_size(10);
    // CFA_SCALE_MEASURE_ONLY=1 stops after the single measured run per
    // leg — the events/s table costs three simulations instead of thirty
    // (the in-tree criterion harness has no benchmark filtering).
    let measure_only = std::env::var_os("CFA_SCALE_MEASURE_ONLY").is_some();
    let secs = 20.0;
    for &n in &[100u16, 500, 1000] {
        let pattern = ConnectionPattern::random(
            n,
            usize::from(n),
            Transport::Cbr,
            SimTime::from_secs(secs),
            5,
        );
        // One measured warm-up run: criterion times wall clock per
        // iteration, this prints the events/s the table records.
        let started = std::time::Instant::now();
        let mut sim = Simulator::new(scale_cfg(n, secs), |_| AodvAgent::new());
        pattern.install(&mut sim);
        sim.run();
        let elapsed = started.elapsed().as_secs_f64();
        let events = sim.events_processed();
        println!(
            "scale {n} nodes: {events} events in {elapsed:.2} s = {:.0} events/s",
            events as f64 / elapsed
        );
        if measure_only {
            continue;
        }
        group.bench_function(format!("aodv_{n}nodes"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new(scale_cfg(n, secs), |_| AodvAgent::new());
                pattern.install(&mut sim);
                sim.run();
                sim.events_processed()
            })
        });
    }
    group.finish();
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction");
    group.sample_size(10);
    // One 1000 s trace, extracted repeatedly.
    let cfg = SimConfig::builder()
        .nodes(50)
        .duration_secs(1000.0)
        .seed(2)
        .build();
    let pattern = ConnectionPattern::random(50, 20, Transport::Cbr, SimTime::from_secs(1000.0), 2);
    let mut sim = Simulator::new(cfg, |_| AodvAgent::new());
    pattern.install(&mut sim);
    sim.run();
    let trace = sim.trace(NodeId(0)).clone();
    let extractor = FeatureExtractor::new();
    group.bench_function("140_features_1000s_trace", |b| {
        b.iter(|| extractor.extract(&trace, SimTime::from_secs(1000.0)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_scale,
    bench_feature_extraction
);
criterion_main!(benches);

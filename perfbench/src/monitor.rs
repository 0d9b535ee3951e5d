//! `monitor`: online detection, the paper's deployment posture.
//!
//! Set-up trains a compiled C4.5 detector on a normal AODV run; every
//! set-up must save the same artifact bytes. One measured run is an
//! `OnlineMonitor` with an alarm sink on nodes 0, 5, 10 and 15 of an
//! attacked AODV run (a black hole at node 7, selective dropping of node
//! 3's traffic at node 11). The runs cycle through [`SCENARIOS`] attacked
//! scenarios, and each scenario's report must repeat bit for bit.
//!
//! A traced run drives the loop `OnlineMonitor::run` runs through public
//! calls (`Simulator::run_until`, `advance_to`, `drain_rows`,
//! `transform_row_into`, `score_with`) with a span around each, and must
//! reproduce the monitor's score series and alarms bit for bit.

use crate::report::Report;
use crate::scen::{self, SimCounts};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{per, secs, Ctx, MS, S, SETUPS, US};
use manet_cfa::core::{
    Alarm, AnomalyDetector, MonitorReport, NodeScoreSeries, OnlineMonitor, ScoreMethod,
    MONITOR_STEP_SECS,
};
use manet_cfa::features::{EqualFrequencyDiscretizer, IncrementalExtractor, N_FEATURES};
use manet_cfa::ml::AnyModel;
use manet_cfa::pipeline::{ClassifierKind, Pipeline, TrainedPipeline};
use manet_cfa::scenario::{Protocol, Scenario};
use manet_cfa::sim::{Agent, NodeId, NullSink, SimTime, Simulator};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::rc::Rc;

/// Seed stream of the training scenario.
const TAG_TRAIN: u64 = 0x3017;
/// Seed stream of the first monitored, attacked scenario.
const TAG_ATTACKED: u64 = 0x3100;
/// Attacked scenarios the measured runs cycle through. Runs of different
/// seeds differ in work by up to fifteen percent, so the median run is
/// taken over this many of them to be steady from seed to seed.
const SCENARIOS: u64 = 5;
/// The monitored nodes.
const MONITORED: [NodeId; 4] = [NodeId(0), NodeId(5), NodeId(10), NodeId(15)];

/// What set-up builds.
struct Setup {
    trained: TrainedPipeline,
    smoothing: usize,
    /// The training run's work counts.
    sim: SimCounts,
}

fn setup(ctx: &Ctx, tracer: &mut Tracer) -> Result<Setup, String> {
    let root = tracer.enter("bench.setup", 0);
    let train = scen::normal(Protocol::Aodv, ctx.seed, TAG_TRAIN);
    let (bundles, sim) = scen::training_bundles(&train, tracer, 0);
    let pipeline =
        Pipeline::new(ClassifierKind::C45, ScoreMethod::AvgProbability).with_parallelism(ctx.par);
    let mut trained = crate::fit::fit(&pipeline, ClassifierKind::C45, &bundles, tracer, 0)?;
    let span = tracer.enter("ml.compile", 0);
    trained.compile();
    tracer.exit(span);
    tracer.exit(root);
    Ok(Setup {
        trained,
        smoothing: pipeline.smoothing,
        sim,
    })
}

/// The set-up's artifact bytes.
fn artifact(s: &Setup) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    s.trained
        .save(&mut bytes)
        .map_err(|e| format!("save: {e:?}"))?;
    Ok(bytes)
}

/// Exact work counts of one traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    sim: SimCounts,
    rows: u64,
    retained_max: u64,
}

/// One measured run through `OnlineMonitor`, with an alarm sink.
fn monitored_run(s: &Setup, scenario: &Scenario) -> (MonitorReport, u64) {
    let mut sunk = 0u64;
    let report = OnlineMonitor::new(
        scenario.build_aodv(),
        &MONITORED,
        s.trained.detector(),
        s.trained.discretizer(),
    )
    .with_smoothing(s.smoothing)
    .with_alarm_sink(|_| sunk += 1)
    .run();
    (report, sunk)
}

/// The monitor's decision: a score alarms unless it is at or above the
/// threshold (so a NaN score alarms too).
pub fn alarms(score: f64, threshold: f64) -> bool {
    !matches!(
        score.partial_cmp(&threshold),
        Some(Ordering::Greater | Ordering::Equal)
    )
}

/// Per-node state of the traced loop.
struct Tap {
    node: NodeId,
    extractor: Rc<RefCell<IncrementalExtractor>>,
    recent: VecDeque<f64>,
    series: Vec<(f64, f64)>,
}

/// The traced loop's scoring state.
struct Scorer<'a> {
    detector: &'a AnomalyDetector<AnyModel>,
    disc: &'a EqualFrequencyDiscretizer,
    smoothing: usize,
    row_buf: Vec<u8>,
    score_buf: Vec<f64>,
    alarms: Vec<Alarm>,
    rows: u64,
}

impl Scorer<'_> {
    /// Scores whatever rows `tap` has completed, as the monitor does.
    fn score_completed_rows(
        &mut self,
        tap: &mut Tap,
        now_secs: f64,
        tracer: &mut Tracer,
        req: u64,
    ) {
        let span = tracer.enter("features.incr", req);
        let rows = tap.extractor.borrow_mut().drain_rows();
        tracer.exit(span);
        for row in rows {
            self.rows += 1;
            let span = tracer.enter("features.disc", req);
            self.disc.transform_row_into(&row.values, &mut self.row_buf);
            tracer.exit(span);
            let span = tracer.enter("ml.score_row", req);
            let raw = self.detector.score_with(&self.row_buf, &mut self.score_buf);
            tracer.exit(span);
            tap.recent.push_back(raw);
            if tap.recent.len() > self.smoothing {
                tap.recent.pop_front();
            }
            let smoothed = tap.recent.iter().sum::<f64>() / tap.recent.len() as f64;
            tap.series.push((row.time, smoothed));
            if alarms(smoothed, self.detector.threshold()) {
                self.alarms.push(Alarm {
                    node: tap.node,
                    snapshot_time: row.time,
                    detected_at: now_secs,
                    score: smoothed,
                });
            }
        }
    }
}

/// The monitor's loop, driven call by call with spans.
fn traced_run<A: Agent>(
    mut sim: Simulator<A>,
    s: &Setup,
    tracer: &mut Tracer,
) -> (MonitorReport, Counts) {
    let mut taps = Vec::with_capacity(MONITORED.len());
    for i in 0..sim.config().n_nodes {
        let node = NodeId(i);
        if MONITORED.contains(&node) {
            let extractor = Rc::new(RefCell::new(IncrementalExtractor::new()));
            sim.set_sink(node, Box::new(extractor.clone()));
            taps.push(Tap {
                node,
                extractor,
                recent: VecDeque::new(),
                series: Vec::new(),
            });
        } else {
            sim.set_sink(node, Box::new(NullSink));
        }
    }
    let mut scorer = Scorer {
        detector: s.trained.detector(),
        disc: s.trained.discretizer(),
        smoothing: s.smoothing.max(1),
        row_buf: Vec::new(),
        score_buf: Vec::new(),
        alarms: Vec::new(),
        rows: 0,
    };
    let mut retained_max = 0u64;
    let duration = sim.config().duration;
    let step = SimTime::from_secs(MONITOR_STEP_SECS);
    let mut req = 0u64;
    while sim.now() < duration {
        req += 1;
        let step_span = tracer.enter("bench.monitor_step", req);
        let next = (sim.now() + step).min(duration);
        let span = tracer.enter("sim.run_until", req);
        sim.run_until(next);
        tracer.exit(span);
        let now = sim.now();
        for tap in &mut taps {
            let span = tracer.enter("features.incr", req);
            let mut ex = tap.extractor.borrow_mut();
            ex.advance_to(now);
            retained_max = retained_max.max(ex.retained_events() as u64);
            drop(ex);
            tracer.exit(span);
        }
        for tap in &mut taps {
            scorer.score_completed_rows(tap, now.as_secs(), tracer, req);
        }
        tracer.exit(step_span);
    }
    req += 1;
    let step_span = tracer.enter("bench.monitor_step", req);
    for tap in &mut taps {
        let span = tracer.enter("features.incr", req);
        tap.extractor.borrow_mut().finish(duration);
        tracer.exit(span);
    }
    for tap in &mut taps {
        scorer.score_completed_rows(tap, duration.as_secs(), tracer, req);
    }
    tracer.exit(step_span);
    let (delivered, lost) = sim.frame_stats();
    let counts = Counts {
        sim: SimCounts {
            events: sim.events_processed(),
            delivered,
            lost,
        },
        rows: scorer.rows,
        retained_max,
    };
    let report = MonitorReport {
        alarms: scorer.alarms,
        series: taps
            .into_iter()
            .map(|t| NodeScoreSeries {
                node: t.node,
                series: t.series,
            })
            .collect(),
    };
    (report, counts)
}

/// Bit-for-bit equality of two monitor reports.
fn same_report(a: &MonitorReport, b: &MonitorReport) -> bool {
    let alarm_bits = |x: &Alarm| {
        (
            x.node,
            x.snapshot_time.to_bits(),
            x.detected_at.to_bits(),
            x.score.to_bits(),
        )
    };
    let series_bits = |s: &NodeScoreSeries| {
        (
            s.node,
            s.series
                .iter()
                .map(|(t, v)| (t.to_bits(), v.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    a.alarms.len() == b.alarms.len()
        && a.alarms
            .iter()
            .zip(&b.alarms)
            .all(|(x, y)| alarm_bits(x) == alarm_bits(y))
        && a.series.len() == b.series.len()
        && a.series
            .iter()
            .zip(&b.series)
            .all(|(x, y)| series_bits(x) == series_bits(y))
}

/// Sim seconds from the first attack start to the first alarm raised at
/// or after it.
fn detect_delay(report: &MonitorReport) -> Option<f64> {
    let start = scen::BLACKHOLE_STARTS[0].min(scen::DROPPING_STARTS[0]);
    report
        .alarms
        .iter()
        .find(|a| a.detected_at >= start)
        .map(|a| a.detected_at - start)
}

/// Runs the `monitor` workload.
pub fn workload(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // A traced run traces its last set-up.
    let mut tracer = Tracer::new(ctx.clock, false);
    let mut setups = Vec::new();
    let mut built = None;
    let mut first_print = None;
    for i in 0..SETUPS {
        tracer.set_on(ctx.trace && i + 1 == SETUPS);
        let start = ctx.clock.now_ns();
        let s = setup(ctx, &mut tracer)?;
        setups.push(secs(ctx.clock.now_ns() - start));
        report.attempt("setup", 1);
        let print = crate::fingerprint(&artifact(&s)?);
        match first_print {
            None => first_print = Some(print),
            Some(first) => report.check(
                "setup",
                first == print,
                "set-up trained a different detector than the first set-up",
            ),
        }
        built = Some(s);
    }
    let s = built.ok_or("no set-up")?;
    let scenarios: Vec<Scenario> = (0..SCENARIOS)
        .map(|i| scen::attacked(ctx.seed, TAG_ATTACKED + i))
        .collect();

    let mut references: Vec<Option<MonitorReport>> = vec![None; scenarios.len()];
    let mut counts: Vec<Option<Counts>> = vec![None; scenarios.len()];
    let mut untraced = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut traced = Vec::new();
    let mut traced_events = s.sim.events;
    let mut traced_rows = 0u64;
    let deadline = ctx.clock.now_ns() + ctx.seconds * 1_000_000_000;
    let min_runs = if ctx.trace { 2 } else { 1 };
    let mut run = 0u64;
    while run < min_runs || ctx.clock.now_ns() < deadline {
        // Traced runs alternate an untraced `OnlineMonitor` run of each
        // scenario (its reference) with a traced loop over it.
        let on = ctx.trace && run % 2 == 1;
        let k = (if ctx.trace { run / 2 } else { run }) as usize % scenarios.len();
        run += 1;
        let (Some(scenario), Some(reference), Some(count)) =
            (scenarios.get(k), references.get_mut(k), counts.get_mut(k))
        else {
            return Err("no scenario".to_string());
        };
        tracer.set_on(on);
        let start = ctx.clock.now_ns();
        let got = if on {
            let (got, c) = traced_run(scenario.build_aodv(), &s, &mut tracer);
            traced.push(secs(ctx.clock.now_ns() - start));
            traced_events += c.sim.events;
            traced_rows += c.rows;
            if let Some(prev) = count {
                report.check(
                    "monitor",
                    *prev == c,
                    &format!("work counters drifted: {c:?} vs {prev:?}"),
                );
            }
            *count = Some(c);
            got
        } else {
            let (got, sunk) = monitored_run(&s, scenario);
            let elapsed = secs(ctx.clock.now_ns() - start);
            untraced.push(elapsed);
            let rows: usize = got.series.iter().map(|n| n.series.len()).sum();
            rows_per_s.push(rows as f64 / elapsed);
            report.check(
                "monitor",
                sunk == got.alarms.len() as u64,
                &format!("alarm sink saw {sunk} of {} alarms", got.alarms.len()),
            );
            got
        };
        report.attempt("monitor", 1);
        println!(
            "run {run} (scenario {k}, {}): {:.4} s, {} alarms",
            if on { "traced" } else { "untraced" },
            secs(ctx.clock.now_ns() - start),
            got.alarms.len()
        );
        match reference {
            None => *reference = Some(got),
            Some(r) => report.check(
                "monitor",
                same_report(r, &got),
                if on {
                    "traced loop differs from OnlineMonitor's series or alarms"
                } else {
                    "monitored run differs from the scenario's first run"
                },
            ),
        }
    }
    println!(
        "monitor: {} untraced and {} traced runs",
        untraced.len(),
        traced.len()
    );
    if !ctx.trace {
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        report.metric("op_p50_ms", median(&untraced).unwrap_or(0.0) * 1e3, "ms");
        report.metric("rows_per_s", median(&rows_per_s).unwrap_or(0.0), "rows/s");
        return Ok(());
    }
    // Exact counters are those of the first scenario's run. Times are per
    // call or per row: simulations over the traced set-up's and the traced
    // runs' (one run is its steps' `run_until` calls), training and
    // compiling over the traced set-up, extraction, discretization and
    // scoring over the traced runs' rows.
    let (Some(Some(c)), Some(Some(first))) = (counts.first(), references.first()) else {
        return Err("no traced run of the first scenario".to_string());
    };
    let spans = tracer.spans();
    let n = traced.len().max(1) as f64;
    let (sim_ns, _) = trace::calls(spans, &["sim.run", "sim.run_until"]);
    let sims = 1 + traced.len() as u64;
    report.metric("sim.run_s", per(sim_ns, sims, S), "s");
    report.count("sim.events", c.sim.events, "count");
    report.metric(
        "sim.events_per_s",
        traced_events as f64 / secs(sim_ns),
        "1/s",
    );
    report.count("sim.frames_delivered", c.sim.delivered, "count");
    report.count("sim.frames_lost", c.sim.lost, "count");
    report.count("features.rows", c.rows, "count");
    let (incr_ns, _) = trace::calls(spans, &["features.incr"]);
    report.metric(
        "features.extract_us_per_row",
        per(incr_ns, traced_rows, US),
        "us",
    );
    let (disc_ns, _) = trace::calls(spans, &["features.disc"]);
    report.metric(
        "features.disc_us_per_row",
        per(disc_ns, traced_rows, US),
        "us",
    );
    let (train_ns, trains) = trace::calls(spans, &crate::fit::TRAIN_SPANS);
    report.metric("ml.train_s", per(train_ns, trains, S), "s");
    let (compile_ns, compiles) = trace::calls(spans, &["ml.compile"]);
    report.metric("ml.compile_ms", per(compile_ns, compiles, MS), "ms");
    let (score_ns, _) = trace::calls(spans, &["ml.score_row"]);
    report.metric("ml.score_us_per_row", per(score_ns, traced_rows, US), "us");
    report.count("ml.submodel_evals", c.rows * N_FEATURES as u64, "count");
    report.note(
        "features.retained_events_max",
        c.retained_max as f64,
        "count",
    );
    report.note("core.alarms", first.alarms.len() as f64, "count");
    match detect_delay(first) {
        Some(d) => report.note("core.detect_delay_sim_s", d, "s"),
        None => report.fail("monitor", "no alarm after the first attack start"),
    }
    crate::report_layers(report, spans, n, "s per run");
    crate::report_overhead(report, &traced, &untraced);
    Ok(())
}

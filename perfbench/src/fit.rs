//! `fit`: offline training, the loop behind every experiment table.
//!
//! One round records a normal DSR run at the six
//! `Pipeline::default_train_nodes` vantages, then trains C4.5, RIPPER and
//! naive Bayes detectors on it through `Pipeline::fit`, compiles each,
//! saves it as a `CFAM` artifact and reloads it. Each set-up is one
//! untimed round on its own scenario. The measured rounds cycle through
//! [`SCENARIOS`] scenarios, the set-ups' first, and each must repeat the
//! work counters and artifact bytes of its scenario's first round exactly.
//!
//! A traced round performs the steps of `Pipeline::fit` one call at a
//! time with a span around each, and must save the same artifact bytes
//! as the untraced round.

use crate::report::Report;
use crate::scen::{self, SimCounts};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{per, secs, Ctx, MS, S, SETUPS, US};
use manet_cfa::core::{
    fit_threshold, AnomalyDetector, CrossFeatureModel, ModelArtifact, ScoreMethod,
};
use manet_cfa::features::{EqualFrequencyDiscretizer, FeatureMatrix, FeatureSpec, N_FEATURES};
use manet_cfa::pipeline::{ClassifierKind, DynLearner, Pipeline, TrainedPipeline};
use manet_cfa::scenario::{Protocol, Scenario, TraceBundle};

/// Seed stream of the training scenario.
const TAG_TRAIN: u64 = 0xF17;
/// Scenarios the measured rounds cycle through. DSR runs of different
/// seeds differ in work by about ten percent, so the median round is taken
/// over this many of them to be steady from seed to seed.
const SCENARIOS: u64 = 8;
/// The score combiner every detector uses.
const METHOD: ScoreMethod = ScoreMethod::AvgProbability;
/// The three learners, each with the name of its training span.
const KINDS: [(ClassifierKind, &str); 3] = [
    (ClassifierKind::C45, "ml.train_c45"),
    (ClassifierKind::Ripper, "ml.train_ripper"),
    (ClassifierKind::NaiveBayes, "ml.train_nbc"),
];

/// Every training span name.
pub const TRAIN_SPANS: [&str; 3] = [KINDS[0].1, KINDS[1].1, KINDS[2].1];

/// The name of `kind`'s training span.
fn train_span(kind: ClassifierKind) -> &'static str {
    KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map_or("ml.train", |&(_, name)| name)
}

/// `pipeline.fit(bundles)` with `kind`'s learner; when `tracer` is on,
/// the same steps one call at a time with a span around each.
pub fn fit(
    pipeline: &Pipeline,
    kind: ClassifierKind,
    bundles: &[TraceBundle],
    tracer: &mut Tracer,
    req: u64,
) -> Result<TrainedPipeline, String> {
    if !tracer.is_on() {
        return Ok(pipeline.fit(bundles));
    }
    fit_by_steps(pipeline, kind, bundles, &concat(bundles), tracer, req)
}

/// Exact work counts of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    sim: SimCounts,
    rows: u64,
    submodel_evals: u64,
    artifact_bytes: u64,
}

/// What one round produced.
struct Round {
    elapsed_ns: u64,
    counts: Counts,
    train: FeatureMatrix,
    trained: Vec<TrainedPipeline>,
    /// Fingerprints of the saved artifacts.
    artifacts: Vec<u64>,
    reloaded: Vec<TrainedPipeline>,
}

/// Concatenates the bundles' matrices in order, as `Pipeline::fit` does.
fn concat(bundles: &[TraceBundle]) -> FeatureMatrix {
    let mut out = FeatureMatrix {
        names: bundles
            .first()
            .map(|b| b.matrix.names.clone())
            .unwrap_or_default(),
        times: Vec::new(),
        rows: Vec::new(),
    };
    for b in bundles {
        out.rows.extend(b.matrix.rows.iter().cloned());
        out.times.extend(b.matrix.times.iter().copied());
    }
    out
}

/// The batch pipeline's trailing moving average over `k` scores.
fn smooth(scores: &[f64], k: usize) -> Vec<f64> {
    let k = k.max(1);
    (0..scores.len())
        .map(|i| {
            let w = scores.get(i.saturating_sub(k - 1)..=i).unwrap_or(&[]);
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

/// One `Pipeline::fit`, done call by call with a span around each.
fn fit_by_steps(
    pipeline: &Pipeline,
    kind: ClassifierKind,
    bundles: &[TraceBundle],
    train: &FeatureMatrix,
    tracer: &mut Tracer,
    req: u64,
) -> Result<TrainedPipeline, String> {
    let seed = bundles.first().map(|b| b.scenario.seed).unwrap_or_default();
    let span = tracer.enter("features.disc_fit", req);
    let disc = EqualFrequencyDiscretizer::fit(
        train,
        pipeline.n_buckets,
        pipeline.discretizer_sample,
        seed,
    );
    tracer.exit(span);
    let span = tracer.enter("features.disc_transform", req);
    let table = disc.transform(train).map_err(|e| format!("{e:?}"))?;
    tracer.exit(span);
    let span = tracer.enter(train_span(kind), req);
    let model = CrossFeatureModel::train_with(&DynLearner(kind), &table, pipeline.parallelism);
    tracer.exit(span);
    let span = tracer.enter("ml.score", req);
    let scores = model.scores_with(&table, pipeline.method, pipeline.parallelism);
    tracer.exit(span);
    let span = tracer.enter("core.threshold", req);
    let fitted = fit_threshold(
        &smooth(&scores, pipeline.smoothing),
        pipeline.false_alarm_rate,
    );
    tracer.exit(span);
    let artifact = ModelArtifact {
        spec: Some(FeatureSpec::new()),
        discretizer: disc,
        detector: AnomalyDetector::with_threshold(model, pipeline.method, fitted.threshold),
        fitted,
        smoothing: u32::try_from(pipeline.smoothing.max(1)).unwrap_or(u32::MAX),
    };
    Ok(TrainedPipeline::from_artifact(
        artifact,
        pipeline.parallelism,
    ))
}

/// One round: record, then fit, compile, save and reload each learner.
fn round(ctx: &Ctx, scenario: &Scenario, tracer: &mut Tracer, req: u64) -> Result<Round, String> {
    let start = ctx.clock.now_ns();
    let root = tracer.enter("bench.fit_round", req);
    let (bundles, sim) = scen::training_bundles(scenario, tracer, req);
    let train = concat(&bundles);
    let mut trained = Vec::with_capacity(KINDS.len());
    let mut artifacts = Vec::with_capacity(KINDS.len());
    let mut reloaded = Vec::with_capacity(KINDS.len());
    for (kind, _) in KINDS {
        let pipeline = Pipeline::new(kind, METHOD).with_parallelism(ctx.par);
        let mut fitted = if tracer.is_on() {
            fit_by_steps(&pipeline, kind, &bundles, &train, tracer, req)?
        } else {
            pipeline.fit(&bundles)
        };
        let span = tracer.enter("ml.compile", req);
        fitted.compile();
        tracer.exit(span);
        let mut bytes = Vec::new();
        let span = tracer.enter("core.save", req);
        fitted
            .save(&mut bytes)
            .map_err(|e| format!("save: {e:?}"))?;
        tracer.exit(span);
        let span = tracer.enter("core.load", req);
        let artifact =
            ModelArtifact::load(&mut bytes.as_slice()).map_err(|e| format!("load: {e:?}"))?;
        let back = TrainedPipeline::from_artifact(artifact, ctx.par);
        tracer.exit(span);
        trained.push(fitted);
        artifacts.push(bytes);
        reloaded.push(back);
    }
    tracer.exit(root);
    let elapsed_ns = ctx.clock.now_ns() - start;
    let rows = train.n_rows() as u64;
    Ok(Round {
        elapsed_ns,
        counts: Counts {
            sim,
            rows,
            submodel_evals: rows * N_FEATURES as u64 * KINDS.len() as u64,
            artifact_bytes: artifacts.iter().map(|a| a.len() as u64).sum(),
        },
        train,
        trained,
        artifacts: artifacts.iter().map(|a| crate::fingerprint(a)).collect(),
        reloaded,
    })
}

/// What a set-up round fixes for the measured rounds of its scenario.
struct Reference {
    counts: Counts,
    artifacts: Vec<u64>,
}

/// Checks one round against its scenario's first round: every reloaded
/// artifact scores the training table to the same bits as the pipeline
/// that saved it, the counters repeat, and the artifacts are
/// byte-identical.
fn check_round(report: &mut Report, r: &Round, reference: Option<&Reference>) {
    for ((trained, reloaded), (_, name)) in r.trained.iter().zip(&r.reloaded).zip(KINDS) {
        let before = trained.score_matrix_compiled(&r.train);
        let after = reloaded.score_matrix(&r.train);
        let same = before.len() == after.len()
            && before
                .iter()
                .zip(&after)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check(
            "fit",
            same,
            &format!("{name}: reloaded artifact scores differ"),
        );
    }
    if let Some(reference) = reference {
        report.check(
            "fit",
            r.counts == reference.counts,
            &format!(
                "work counters drifted: {:?} vs {:?}",
                r.counts, reference.counts
            ),
        );
        report.check(
            "fit",
            r.artifacts == reference.artifacts,
            "artifact bytes differ from the scenario's first round",
        );
    }
}

/// Runs the `fit` workload.
pub fn workload(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let scenarios: Vec<Scenario> = (0..SCENARIOS)
        .map(|i| scen::normal(Protocol::Dsr, ctx.seed, TAG_TRAIN + i))
        .collect();
    let mut quiet = Tracer::new(ctx.clock, false);
    let mut setups = Vec::new();
    let mut references: Vec<Option<Reference>> = Vec::new();
    references.resize_with(scenarios.len(), || None);
    for (scenario, reference) in scenarios.iter().zip(&mut references).take(SETUPS) {
        // Set-up is one untimed warm-up round on the set-up's scenario; it
        // also fixes that scenario's counters and artifact bytes.
        let start = ctx.clock.now_ns();
        let warm = round(ctx, scenario, &mut quiet, 0)?;
        setups.push(secs(ctx.clock.now_ns() - start));
        report.attempt("setup", 1);
        check_round(report, &warm, None);
        print_counts(&warm.counts);
        *reference = Some(Reference {
            counts: warm.counts,
            artifacts: warm.artifacts,
        });
    }

    let mut tracer = Tracer::new(ctx.clock, ctx.trace);
    let mut untraced = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut traced = Vec::new();
    let mut traced_events = 0u64;
    let mut traced_rows = 0u64;
    let deadline = ctx.clock.now_ns() + ctx.seconds * 1_000_000_000;
    let min_rounds = if ctx.trace { 2 } else { 1 };
    let mut req = 0u64;
    while req < min_rounds || ctx.clock.now_ns() < deadline {
        // Traced runs alternate traced and untraced rounds of each
        // scenario; the gap between their medians is the tracing overhead.
        let on = ctx.trace && req.is_multiple_of(2);
        let k = (if ctx.trace { req / 2 } else { req }) as usize % scenarios.len().max(1);
        req += 1;
        let (Some(scenario), Some(reference)) = (scenarios.get(k), references.get_mut(k)) else {
            return Err("no scenario".to_string());
        };
        tracer.set_on(on);
        let r = round(ctx, scenario, &mut tracer, req)?;
        report.attempt("fit", 1);
        println!(
            "round {req} (scenario {k}, {}): {:.4} s",
            if on { "traced" } else { "untraced" },
            secs(r.elapsed_ns)
        );
        check_round(report, &r, reference.as_ref());
        if reference.is_none() {
            *reference = Some(Reference {
                counts: r.counts,
                artifacts: r.artifacts.clone(),
            });
        }
        if on {
            traced.push(secs(r.elapsed_ns));
            traced_events += r.counts.sim.events;
            traced_rows += r.counts.rows;
        } else {
            untraced.push(secs(r.elapsed_ns));
            rows_per_s.push(r.counts.rows as f64 / secs(r.elapsed_ns));
        }
    }
    println!(
        "fit: {} untraced and {} traced rounds",
        untraced.len(),
        traced.len()
    );
    if !ctx.trace {
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        report.metric("op_p50_ms", median(&untraced).unwrap_or(0.0) * 1e3, "ms");
        report.metric("rows_per_s", median(&rows_per_s).unwrap_or(0.0), "rows/s");
        return Ok(());
    }
    // Exact counters are those of the first scenario's round; times are
    // per call or per row over the traced rounds.
    let Some(Some(first)) = references.first() else {
        return Err("no set-up round".to_string());
    };
    let c = first.counts;
    let spans = tracer.spans();
    let (sim_ns, sims) = trace::calls(spans, &["sim.run"]);
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
    let (extract_ns, _) = trace::calls(spans, &["features.extract"]);
    report.metric(
        "features.extract_us_per_row",
        per(extract_ns, traced_rows, US),
        "us",
    );
    let fitted_rows = traced_rows * KINDS.len() as u64;
    let (disc_ns, _) = trace::calls(spans, &["features.disc_transform"]);
    report.metric(
        "features.disc_us_per_row",
        per(disc_ns, fitted_rows, US),
        "us",
    );
    let (train_ns, trains) = trace::calls(spans, &TRAIN_SPANS);
    report.metric("ml.train_s", per(train_ns, trains, S), "s");
    let (compile_ns, compiles) = trace::calls(spans, &["ml.compile"]);
    report.metric("ml.compile_ms", per(compile_ns, compiles, MS), "ms");
    let (score_ns, _) = trace::calls(spans, &["ml.score"]);
    report.metric("ml.score_us_per_row", per(score_ns, fitted_rows, US), "us");
    report.count("ml.submodel_evals", c.submodel_evals, "count");
    for name in TRAIN_SPANS {
        let (ns, n) = trace::calls(spans, &[name]);
        report.note(&format!("{name}_s"), per(ns, n, S), "s");
    }
    for name in [
        "features.disc_fit",
        "core.threshold",
        "core.save",
        "core.load",
    ] {
        let (ns, n) = trace::calls(spans, &[name]);
        report.note(&format!("{name}_ms"), per(ns, n, MS), "ms");
    }
    report.note("core.artifact_bytes", c.artifact_bytes as f64, "bytes");
    crate::report_layers(report, spans, traced.len().max(1) as f64, "s per round");
    crate::report_overhead(report, &traced, &untraced);
    Ok(())
}

fn print_counts(c: &Counts) {
    println!(
        "fit counters: sim.events {} frames {}/{} rows {} submodel_evals {} artifact_bytes {}",
        c.sim.events, c.sim.delivered, c.sim.lost, c.rows, c.submodel_evals, c.artifact_bytes
    );
}

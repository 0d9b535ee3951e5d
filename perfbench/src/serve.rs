//! `serve`: the fleet front end, as an operator sees it.
//!
//! Set-up trains `c45` (C4.5) and `nbc` (naive Bayes) on a normal AODV
//! run, records an unseen normal and an attacked AODV run at 16 honest
//! vantages, and starts an in-process `cfa_serve::Server` on a loopback
//! ephemeral port (default config, 2 workers). One request replays one
//! 5 s tick of the 16 vantages. Two load threads drive it over two
//! connections:
//!
//! - `stream`: an open loop of `SCORE_AS c45` requests at a fixed
//!   1 430 requests/s, fixed from the seed before sending and timed from
//!   each request's due time, with a `LOAD` re-swap of `c45` every 0.5 s
//!   on the scoring connection and one `SUBSCRIBE c45` connection
//!   receiving every alarm frame;
//! - `bulk`: a closed loop of 256-row `SCORE_AS nbc` requests.
//!
//! Every served score must equal the set-up reference bit for bit, and the
//! alarm frames must arrive gap-free, in order, one per reference alarm.
//! Every set-up must repeat the first one's simulations and artifacts.

use crate::report::Report;
use crate::scen::{self, SimCounts};
use crate::stats::{median, percentile, windowed};
use crate::trace::{self, Clock, Tracer};
use crate::{ms, per, secs, us, Ctx, MS, S, SETUPS, US};
use cfa_serve::{Client, ClientError, ServeStats, Server, ServerConfig, StatsFrame};
use manet_cfa::core::ModelArtifact;
use manet_cfa::features::{FeatureMatrix, N_FEATURES};
use manet_cfa::pipeline::{ClassifierKind, Pipeline, TrainedPipeline};
use manet_cfa::scenario::{Protocol, Scenario, TraceBundle};
use manet_cfa::sim::NodeId;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Seed streams of the set-up scenarios and the replay order.
const TAG_TRAIN: u64 = 0x5E1;
const TAG_NORMAL: u64 = 0x5E2;
const TAG_ATTACKED: u64 = 0x5E3;
const TAG_ORDER: u64 = 0x5E4;
/// The replayed vantages: honest nodes only.
const VANTAGES: [u16; 16] = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15, 16, 17];
/// Rows per `bulk` request.
const BULK_ROWS: usize = 256;
/// `stream` request spacing: about 1 430 requests/s.
const PERIOD_NS: u64 = 700_000;
/// `LOAD` spacing in `stream`.
const LOAD_EVERY_NS: u64 = 500_000_000;
/// `PING` spacing in a traced `stream`.
const PING_EVERY_NS: u64 = 1_000_000_000;
/// Length of the warm-up stream that ends set-up.
const WARMUP_NS: u64 = 1_000_000_000;
/// Closed-loop `bulk` requests in the warm-up.
const WARMUP_BULK: usize = 8;
/// The registry names.
const C45: &str = "c45";
const NBC: &str = "nbc";
/// Read/write timeout of the scoring connection.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Read timeout of the subscriber connection; bounds how long the
/// subscriber waits for frames that never come.
const SUB_TIMEOUT: Duration = Duration::from_millis(100);
/// Length of the windows the end-to-end percentiles are taken over.
const WINDOW_NS: u64 = 1_000_000_000;
/// Fewest samples a p99 may rest on.
const MIN_P99_SAMPLES: usize = 1000;

/// A trained model: its artifact bytes and the in-process reference.
struct Model {
    bytes: Vec<u8>,
    trained: TrainedPipeline,
}

fn train_model(
    bundles: &[TraceBundle],
    kind: ClassifierKind,
    ctx: &Ctx,
    tracer: &mut Tracer,
) -> Result<Model, String> {
    let pipeline =
        Pipeline::new(kind, manet_cfa::core::ScoreMethod::AvgProbability).with_parallelism(ctx.par);
    let mut trained = crate::fit::fit(&pipeline, kind, bundles, tracer, 0)?;
    let span = tracer.enter("ml.compile", 0);
    trained.compile();
    tracer.exit(span);
    let mut bytes = Vec::new();
    let span = tracer.enter("core.save", 0);
    trained
        .save(&mut bytes)
        .map_err(|e| format!("save: {e:?}"))?;
    tracer.exit(span);
    Ok(Model { bytes, trained })
}

/// In-process scoring of packed continuous rows, as a server worker does
/// it: discretize each row, then score the batch.
struct Scratch {
    row_u8: Vec<u8>,
    packed: Vec<u8>,
    scores: Vec<f64>,
    probs: Vec<f64>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            row_u8: Vec::new(),
            packed: Vec::new(),
            scores: Vec::new(),
            probs: Vec::new(),
        }
    }

    fn discretize(&mut self, model: &TrainedPipeline, rows: &[f64]) {
        self.packed.clear();
        for row in rows.chunks_exact(N_FEATURES) {
            model
                .discretizer()
                .transform_row_into(row, &mut self.row_u8);
            self.packed.extend_from_slice(&self.row_u8);
        }
    }

    fn score(&mut self, model: &TrainedPipeline) {
        model
            .detector()
            .score_rows_with(&self.packed, &mut self.scores, &mut self.probs);
    }
}

/// The replayed inputs and their reference scores.
struct Inputs {
    c45: Model,
    nbc: Model,
    /// One 16-row request per tick of each replayed run, packed.
    batches: Vec<Vec<f64>>,
    /// `c45` reference scores per batch.
    c45_ref: Vec<Vec<f64>>,
    /// Rows of each batch that alarm under `c45`.
    c45_alarms: Vec<Vec<u32>>,
    /// Replay order of the batches.
    order: Vec<usize>,
    /// 256-row `bulk` requests, packed, and their `nbc` reference scores.
    bulk: Vec<Vec<f64>>,
    nbc_ref: Vec<Vec<f64>>,
    /// Work counts of the set-up's training, normal and attacked runs.
    sims: [SimCounts; 3],
    /// Rows the set-up extracted.
    rows: u64,
}

/// Packs tick `t` of every vantage matrix into one request.
fn tick_batch(matrices: &[FeatureMatrix], t: usize) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(matrices.len() * N_FEATURES);
    for m in matrices {
        out.extend_from_slice(m.rows.get(t)?);
    }
    Some(out)
}

/// Records a replayed run at the 16 vantages.
fn record_replay(scenario: &Scenario, tracer: &mut Tracer) -> (Vec<FeatureMatrix>, SimCounts) {
    let vantages: Vec<NodeId> = VANTAGES.iter().map(|&v| NodeId(v)).collect();
    scen::record(scenario, &vantages, tracer, 0)
}

/// Trains `c45` and `nbc` on a normal AODV run.
fn train_models(ctx: &Ctx, tracer: &mut Tracer) -> Result<(Model, Model, SimCounts, u64), String> {
    let train = scen::normal(Protocol::Aodv, ctx.seed, TAG_TRAIN);
    let (bundles, sim) = scen::training_bundles(&train, tracer, 0);
    let rows = bundles.iter().map(|b| b.matrix.n_rows() as u64).sum();
    Ok((
        train_model(&bundles, ClassifierKind::C45, ctx, tracer)?,
        train_model(&bundles, ClassifierKind::NaiveBayes, ctx, tracer)?,
        sim,
        rows,
    ))
}

fn build_inputs(ctx: &Ctx, tracer: &mut Tracer) -> Result<Inputs, String> {
    // The attacked run, the longest simulation, records on a second
    // thread (with its own tracer) while this one trains and records the
    // unseen normal run.
    let attacked = scen::attacked(ctx.seed, TAG_ATTACKED);
    let on = tracer.is_on();
    let (attacked, trained, normal) = std::thread::scope(|scope| {
        let attacked = scope.spawn(|| {
            let mut tracer = Tracer::new(ctx.clock, on);
            let recorded = record_replay(&attacked, &mut tracer);
            (recorded, tracer)
        });
        let trained = train_models(ctx, tracer);
        let normal = record_replay(&scen::normal(Protocol::Aodv, ctx.seed, TAG_NORMAL), tracer);
        (attacked.join(), trained, normal)
    });
    let ((attacked, attacked_sim), attacked_spans) =
        attacked.map_err(|_| "replay recording panicked")?;
    tracer.absorb(attacked_spans);
    let (c45, nbc, train_sim, train_rows) = trained?;
    let (normal, normal_sim) = normal;
    let rows = train_rows
        + [&normal, &attacked]
            .iter()
            .flat_map(|ms| ms.iter())
            .map(|m| m.n_rows() as u64)
            .sum::<u64>();
    let mut batches = Vec::new();
    for matrices in [normal, attacked] {
        let ticks = matrices
            .iter()
            .map(FeatureMatrix::n_rows)
            .min()
            .unwrap_or(0);
        for t in 0..ticks {
            batches.push(tick_batch(&matrices, t).ok_or("short vantage matrix")?);
        }
    }
    let order = scen::permutation(batches.len(), scen::derive(ctx.seed, TAG_ORDER));

    let mut scratch = Scratch::new();
    let threshold = c45.trained.detector().threshold();
    let mut c45_ref = Vec::with_capacity(batches.len());
    let mut c45_alarms = Vec::with_capacity(batches.len());
    for b in &batches {
        scratch.discretize(&c45.trained, b);
        scratch.score(&c45.trained);
        c45_alarms.push(alarm_rows(&scratch.scores, threshold));
        c45_ref.push(scratch.scores.clone());
    }
    let per_bulk = BULK_ROWS / VANTAGES.len();
    let bulk: Vec<Vec<f64>> = order
        .chunks_exact(per_bulk)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|&b| batches[b].iter().copied())
                .collect()
        })
        .collect();
    let mut nbc_ref = Vec::with_capacity(bulk.len());
    for b in &bulk {
        scratch.discretize(&nbc.trained, b);
        scratch.score(&nbc.trained);
        nbc_ref.push(scratch.scores.clone());
    }
    Ok(Inputs {
        c45,
        nbc,
        batches,
        c45_ref,
        c45_alarms,
        order,
        bulk,
        nbc_ref,
        sims: [train_sim, normal_sim, attacked_sim],
        rows,
    })
}

/// Rows whose score alarms, by the server's decision.
fn alarm_rows(scores: &[f64], threshold: f64) -> Vec<u32> {
    scores
        .iter()
        .enumerate()
        .filter(|(_, &s)| crate::monitor::alarms(s, threshold))
        .map(|(i, _)| i as u32)
        .collect()
}

/// For every alarm sequence number, in order from the first (seq 1 is
/// entry 0), the operation and row that raised it. `ops` holds each
/// operation's alarmed rows in send order: `None` for operations that
/// raise no alarms (`LOAD`, `PING`, failed requests). Sequence numbers
/// are per model name and survive a swap, so a `LOAD` neither resets nor
/// skips them.
pub fn attribute(ops: &[Option<&[u32]>]) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    for (i, rows) in ops.iter().enumerate() {
        for &row in rows.unwrap_or(&[]) {
            out.push((i, row));
        }
    }
    out
}

/// `(gaps, disorder)` in a received sequence stream that should read
/// `1, 2, …, expected`: every missing number counts as a gap, and every
/// frame that does not follow its predecessor counts as out of order.
pub fn seq_faults(seqs: &[u64], expected: u64) -> (u64, u64) {
    let mut disorder = 0u64;
    let mut prev = 0u64;
    for &s in seqs {
        if s != prev + 1 {
            disorder += 1;
        }
        prev = s;
    }
    let mut seen: Vec<u64> = seqs
        .iter()
        .copied()
        .filter(|&s| s >= 1 && s <= expected)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    (expected - seen.len() as u64, disorder)
}

/// One received alarm frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    seq: u64,
    row: u32,
    score_bits: u64,
    recv_ns: u64,
    named_ok: bool,
}

/// What the subscriber thread returns.
struct Received {
    frames: Vec<Frame>,
    error: Option<String>,
}

/// Tells the subscriber when to stop: after `expected` frames once `done`.
/// The load thread stores `expected` before its `Release` store of `done`;
/// the subscriber's `Acquire` load of `done` comes before its load of
/// `expected`, so a subscriber that sees `done` sees the final count.
#[derive(Default)]
struct SubCtl {
    expected: AtomicU64,
    done: AtomicBool,
}

fn subscriber(mut sub: Client, ctl: Arc<SubCtl>, clock: Clock, cap: usize) -> Received {
    let mut frames = Vec::with_capacity(cap);
    let mut idle = 0u32;
    loop {
        let done = ctl.done.load(Ordering::Acquire);
        let expected = ctl.expected.load(Ordering::Acquire);
        if done && frames.len() as u64 >= expected {
            return Received {
                frames,
                error: None,
            };
        }
        match sub.recv_alarm() {
            Ok(ev) => {
                frames.push(Frame {
                    seq: ev.seq,
                    row: ev.row,
                    score_bits: ev.score.to_bits(),
                    recv_ns: clock.now_ns(),
                    named_ok: ev.model == C45,
                });
                idle = 0;
            }
            Err(ClientError::TimedOut { .. }) if !done || idle < 3 => idle += u32::from(done),
            Err(e) => {
                return Received {
                    error: Some(format!(
                        "subscriber stopped after {} of {expected} frames: {e:?}",
                        frames.len()
                    )),
                    frames,
                }
            }
        }
    }
}

/// The running server and the two load connections.
struct Live {
    server: JoinHandle<std::io::Result<ServeStats>>,
    client: Client,
    sub: JoinHandle<Received>,
    ctl: Arc<SubCtl>,
}

fn start(inputs: &Inputs, clock: Clock, frame_cap: usize) -> Result<Live, String> {
    let boot =
        ModelArtifact::load(&mut inputs.c45.bytes.as_slice()).map_err(|e| format!("{e:?}"))?;
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(boot, "127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr: SocketAddr = server.local_addr().map_err(|e| e.to_string())?;
    let server = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    client
        .load_model(C45, &inputs.c45.bytes)
        .map_err(|e| format!("LOAD c45: {e:?}"))?;
    client
        .load_model(NBC, &inputs.nbc.bytes)
        .map_err(|e| format!("LOAD nbc: {e:?}"))?;
    let mut sub = Client::connect(addr, SUB_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    sub.subscribe(C45)
        .map_err(|e| format!("SUBSCRIBE: {e:?}"))?;
    let ctl = Arc::new(SubCtl::default());
    let sub_ctl = Arc::clone(&ctl);
    let sub = std::thread::spawn(move || subscriber(sub, sub_ctl, clock, frame_cap));
    Ok(Live {
        server,
        client,
        sub,
        ctl,
    })
}

/// A scheduled operation on the scoring connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Score(usize),
    Load,
    Ping,
}

/// One operation as it happened.
#[derive(Debug, Clone, Copy)]
struct Sent {
    op: Op,
    due_ns: u64,
    send_ns: u64,
    reply_ns: u64,
    /// Sent late because the previous reply came after this one was due.
    held: bool,
    ok: bool,
}

/// The open-loop schedule of a `stream` phase `len_ns` long, fixed before
/// sending: a request every [`PERIOD_NS`] replaying `order` from
/// `first`, a `LOAD` every [`LOAD_EVERY_NS`] from `load_phase_ns`, and a
/// `PING` every [`PING_EVERY_NS`] when `pings`. Due times are relative
/// to the phase start; operations due together go control-plane first.
fn schedule(
    len_ns: u64,
    order: &[usize],
    first: usize,
    load_phase_ns: u64,
    pings: bool,
) -> Vec<(u64, Op)> {
    let mut ops = Vec::new();
    let mut next_load = load_phase_ns;
    let mut next_ping = PING_EVERY_NS;
    let mut due = 0;
    let mut i = first;
    while due < len_ns {
        while next_load <= due {
            ops.push((next_load, Op::Load));
            next_load += LOAD_EVERY_NS;
        }
        while pings && next_ping <= due {
            ops.push((next_ping, Op::Ping));
            next_ping += PING_EVERY_NS;
        }
        ops.push((
            due,
            Op::Score(order.get(i % order.len().max(1)).copied().unwrap_or(0)),
        ));
        i += 1;
        due += PERIOD_NS;
    }
    ops
}

/// Sends `ops` on the open-loop schedule and checks every answer.
fn stream(
    live: &mut Live,
    inputs: &Inputs,
    ops: &[(u64, Op)],
    clock: Clock,
    phase: &'static str,
    report: &mut Report,
    queue_depth_max: &mut u32,
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(ops.len());
    let t0 = clock.now_ns() + 1_000_000;
    let mut prev_reply = 0;
    for &(due_rel, op) in ops {
        let due_ns = t0 + due_rel;
        let held = prev_reply > due_ns;
        clock.sleep_until(due_ns);
        let send_ns = clock.now_ns();
        let ok = match op {
            Op::Score(b) => {
                let got = live
                    .client
                    .score_batch_as(C45, &inputs.batches[b], N_FEATURES);
                check_scores(report, phase, got, &inputs.c45_ref[b])
            }
            Op::Load => match live.client.load_model(C45, &inputs.c45.bytes) {
                Ok(()) => true,
                Err(e) => {
                    report.fail(phase, &format!("LOAD: {e:?}"));
                    false
                }
            },
            Op::Ping => match live.client.ping() {
                Ok(frame) => {
                    *queue_depth_max = (*queue_depth_max).max(frame.queue_depth);
                    true
                }
                Err(e) => {
                    report.fail(phase, &format!("PING: {e:?}"));
                    false
                }
            },
        };
        let reply_ns = clock.now_ns();
        prev_reply = reply_ns;
        sent.push(Sent {
            op,
            due_ns,
            send_ns,
            reply_ns,
            held,
            ok,
        });
    }
    report.attempt(phase, sent.len() as u64);
    sent
}

/// Compares one SCORE answer with its reference; a failed or differing
/// answer is one failure.
fn check_scores(
    report: &mut Report,
    phase: &'static str,
    got: Result<Vec<cfa_serve::ScoredRow>, ClientError>,
    want: &[f64],
) -> bool {
    match got {
        Ok(rows) => {
            let same = rows.len() == want.len()
                && rows
                    .iter()
                    .zip(want)
                    .all(|(r, w)| r.score.to_bits() == w.to_bits());
            report.check(phase, same, "served scores differ from the reference");
            same
        }
        Err(e) => {
            report.fail(phase, &format!("SCORE_AS: {e:?}"));
            false
        }
    }
}

/// The closed `bulk` loop: 256-row `SCORE_AS nbc` requests for `len_ns`
/// (at least `min_requests`). Returns `(sent, elapsed_ns)`.
fn bulk(
    live: &mut Live,
    inputs: &Inputs,
    len_ns: u64,
    min_requests: usize,
    clock: Clock,
    phase: &'static str,
    report: &mut Report,
) -> (Vec<Sent>, u64) {
    let mut sent = Vec::new();
    let t0 = clock.now_ns();
    let end = t0 + len_ns;
    let mut j = 0usize;
    while sent.len() < min_requests || clock.now_ns() < end {
        let b = j % inputs.bulk.len().max(1);
        j += 1;
        let send_ns = clock.now_ns();
        let got = live.client.score_batch_as(NBC, &inputs.bulk[b], N_FEATURES);
        let ok = check_scores(report, phase, got, &inputs.nbc_ref[b]);
        let reply_ns = clock.now_ns();
        sent.push(Sent {
            op: Op::Score(b),
            due_ns: send_ns,
            send_ns,
            reply_ns,
            held: false,
            ok,
        });
    }
    report.attempt(phase, sent.len() as u64);
    let elapsed = clock.now_ns() - t0;
    (sent, elapsed)
}

/// Reference alarm rows of each `stream` operation, in send order.
fn alarm_sources<'a>(inputs: &'a Inputs, sent: &[Sent]) -> Vec<Option<&'a [u32]>> {
    sent.iter()
        .map(|s| match s.op {
            Op::Score(b) if s.ok => inputs.c45_alarms.get(b).map(Vec::as_slice),
            _ => None,
        })
        .collect()
}

/// What the end of a live session yields.
struct Finish {
    frames: Vec<Frame>,
    stats: Option<StatsFrame>,
}

/// Stops the subscriber after `expected` frames, reads the final PING
/// stats, and shuts the server down. Failures are reported under
/// `phase`.
fn finish(mut live: Live, expected: u64, phase: &'static str, report: &mut Report) -> Finish {
    live.ctl.expected.store(expected, Ordering::Release);
    live.ctl.done.store(true, Ordering::Release);
    let received = match live.sub.join() {
        Ok(r) => r,
        Err(_) => Received {
            frames: Vec::new(),
            error: Some("subscriber thread panicked".to_string()),
        },
    };
    if let Some(e) = &received.error {
        report.fail(phase, e);
    }
    let stats = match live.client.ping() {
        Ok(frame) => Some(frame),
        Err(e) => {
            report.fail(phase, &format!("final PING: {e:?}"));
            None
        }
    };
    if let Err(e) = live.client.shutdown_server() {
        report.fail(phase, &format!("SHUTDOWN: {e:?}"));
    }
    match live.server.join() {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => report.fail(phase, &format!("server: {e}")),
        Err(_) => report.fail(phase, "server thread panicked"),
    }
    if let Some(s) = stats {
        report.check(
            phase,
            s.rejected_busy == 0,
            &format!("{} BUSY answers", s.rejected_busy),
        );
        report.check(
            phase,
            s.protocol_errors == 0,
            &format!("{} protocol errors", s.protocol_errors),
        );
        report.check(
            phase,
            s.slow_disconnects == 0,
            &format!("{} slow-subscriber disconnects", s.slow_disconnects),
        );
        report.check(
            phase,
            s.alarms_pushed == expected,
            &format!(
                "server pushed {} alarm frames, expected {expected}",
                s.alarms_pushed
            ),
        );
    }
    Finish {
        frames: received.frames,
        stats,
    }
}

/// A set-up: inputs, a live server, and the warm-up traffic sent so far.
struct Session {
    inputs: Inputs,
    live: Live,
    sent: Vec<Sent>,
}

fn set_up(
    ctx: &Ctx,
    frame_cap: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let root = tracer.enter("bench.setup", 0);
    let inputs = build_inputs(ctx, tracer);
    tracer.exit(root);
    let inputs = inputs?;
    let mut live = start(&inputs, ctx.clock, frame_cap)?;
    let ops = schedule(WARMUP_NS, &inputs.order, 0, LOAD_EVERY_NS / 2, false);
    let sent = stream(&mut live, &inputs, &ops, ctx.clock, "setup", report, &mut 0);
    bulk(
        &mut live,
        &inputs,
        0,
        WARMUP_BULK,
        ctx.clock,
        "setup",
        report,
    );
    Ok(Session { inputs, live, sent })
}

/// Checks received frames against the attribution table; returns the
/// gap and disorder counts.
fn check_frames(
    report: &mut Report,
    inputs: &Inputs,
    table: &[(usize, u32)],
    sent: &[Sent],
    frames: &[Frame],
) -> (u64, u64) {
    let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
    let (gaps, disorder) = seq_faults(&seqs, table.len() as u64);
    report.check("stream", gaps == 0, &format!("{gaps} alarm frames missing"));
    report.check(
        "stream",
        disorder == 0,
        &format!("{disorder} alarm frames out of order"),
    );
    report.check(
        "stream",
        frames.len() == table.len(),
        &format!(
            "{} alarm frames for {} reference alarms",
            frames.len(),
            table.len()
        ),
    );
    let mut wrong = 0u64;
    for f in frames {
        let ok = usize::try_from(f.seq)
            .ok()
            .and_then(|s| s.checked_sub(1))
            .and_then(|k| table.get(k))
            .and_then(|&(op, row)| {
                let Op::Score(b) = sent.get(op)?.op else {
                    return None;
                };
                let want = inputs.c45_ref.get(b)?.get(row as usize)?;
                Some(f.named_ok && f.row == row && f.score_bits == want.to_bits())
            })
            .unwrap_or(false);
        wrong += u64::from(!ok);
    }
    report.check(
        "stream",
        wrong == 0,
        &format!("{wrong} alarm frames name the wrong model, row or score"),
    );
    (gaps, disorder)
}

/// What the measured phases produced.
struct Measured {
    /// Every `stream` operation since the subscription: the set-up's
    /// warm-up, then the timed phase.
    all: Vec<Sent>,
    /// Index in `all` of the first timed operation.
    first_timed: usize,
    /// Index in `all` of the first operation of a traced run's traced half.
    first_traced: usize,
    bulk: Vec<Sent>,
    bulk_ns: u64,
    /// The operation and row of each alarm sequence number.
    table: Vec<(usize, u32)>,
    end: Finish,
    gaps: u64,
    /// The deepest job queue a PING frame reported.
    queue_depth_max: u32,
}

impl Measured {
    /// Indices in `all` of the timed phase.
    fn timed(&self) -> Range<usize> {
        self.first_timed..self.all.len()
    }

    /// Indices in `all` of a traced run's traced half.
    fn traced(&self) -> Range<usize> {
        self.first_traced..self.all.len()
    }

    /// Scoring operations at `ops` in `all`.
    fn scores(&self, ops: Range<usize>) -> impl Iterator<Item = &Sent> {
        self.all
            .get(ops)
            .unwrap_or(&[])
            .iter()
            .filter(|s| matches!(s.op, Op::Score(_)))
    }

    /// `(due, µs)` from due time to reply of the scoring operations at
    /// `ops`.
    fn score_latency(&self, ops: Range<usize>) -> Vec<(u64, f64)> {
        self.scores(ops)
            .map(|s| (s.due_ns, us(s.reply_ns - s.due_ns)))
            .collect()
    }

    /// For each alarm frame of an operation from index `from`: `(due, µs)`
    /// from its request's due time to its receipt, and the µs from the
    /// request's reply to the receipt.
    fn alarm_latency(&self, from: usize) -> (Vec<(u64, f64)>, Vec<f64>) {
        let mut latency = Vec::new();
        let mut fanout = Vec::new();
        for f in &self.end.frames {
            let op = usize::try_from(f.seq)
                .ok()
                .and_then(|s| s.checked_sub(1))
                .and_then(|k| self.table.get(k))
                .map(|&(op, _)| op);
            if let Some(s) = op.filter(|&op| op >= from).and_then(|op| self.all.get(op)) {
                latency.push((s.due_ns, us(f.recv_ns.saturating_sub(s.due_ns))));
                fanout.push((f.recv_ns as f64 - s.reply_ns as f64) / 1e3);
            }
        }
        (latency, fanout)
    }

    /// `LOAD` round trips of the timed phase, ms.
    fn swaps(&self) -> Vec<f64> {
        self.all
            .get(self.timed())
            .unwrap_or(&[])
            .iter()
            .filter(|s| s.op == Op::Load)
            .map(|s| ms(s.reply_ns - s.send_ns))
            .collect()
    }

    /// `bulk` round trips, µs.
    fn bulk_rtt(&self) -> Vec<f64> {
        self.bulk
            .iter()
            .map(|s| us(s.reply_ns - s.send_ns))
            .collect()
    }
}

/// The timed phases on the last set-up's server, then the checks of every
/// alarm frame.
fn measure(
    ctx: &Ctx,
    session: Session,
    stream_ns: u64,
    bulk_ns: u64,
    report: &mut Report,
) -> (Inputs, Measured) {
    let Session {
        inputs,
        mut live,
        sent: mut all,
    } = session;
    let first_timed = all.len();
    let load_phase = scen::derive(ctx.seed, TAG_ORDER ^ 1) % LOAD_EVERY_NS;
    let mut queue_depth_max = 0;
    let scored = |all: &[Sent]| all.iter().filter(|s| matches!(s.op, Op::Score(_))).count();
    // A traced run streams half untraced, then half with live PING frames
    // once a second; the gap between the halves' p50s is the tracing
    // overhead.
    let untraced_ns = if ctx.trace { stream_ns / 2 } else { stream_ns };
    let ops = schedule(untraced_ns, &inputs.order, scored(&all), load_phase, false);
    all.extend(stream(
        &mut live,
        &inputs,
        &ops,
        ctx.clock,
        "stream",
        report,
        &mut queue_depth_max,
    ));
    let first_traced = all.len();
    if ctx.trace {
        let ops = schedule(
            stream_ns - untraced_ns,
            &inputs.order,
            scored(&all),
            load_phase,
            true,
        );
        all.extend(stream(
            &mut live,
            &inputs,
            &ops,
            ctx.clock,
            "stream",
            report,
            &mut queue_depth_max,
        ));
    }
    let (bulk, bulk_ns) = bulk(&mut live, &inputs, bulk_ns, 1, ctx.clock, "bulk", report);
    let table = attribute(&alarm_sources(&inputs, &all));
    let end = finish(live, table.len() as u64, "stream", report);
    let (gaps, _) = check_frames(report, &inputs, &table, &all, &end.frames);
    let measured = Measured {
        all,
        first_timed,
        first_traced,
        bulk,
        bulk_ns,
        table,
        end,
        gaps,
        queue_depth_max,
    };
    (inputs, measured)
}

/// Prints percentile `name` as a note, with its sample count.
fn note_pct(report: &mut Report, name: &str, p: Option<crate::stats::Pct>, unit: &str) {
    if let Some(v) = report.pct(name, p, 1) {
        report.note(name, v, unit);
    }
}

/// Runs the `serve` workload.
pub fn workload(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let stream_ns = ctx.seconds * 3_000_000_000 / 4;
    let bulk_ns = ctx.seconds * 1_000_000_000 - stream_ns;
    let stream_reqs = (stream_ns + WARMUP_NS) / PERIOD_NS + 1;
    let frame_cap = usize::try_from(stream_reqs * VANTAGES.len() as u64).unwrap_or(0);

    // A traced run traces its last set-up, then its measured phases.
    let mut tracer = Tracer::new(ctx.clock, false);
    let mut setups = Vec::new();
    let mut session = None;
    let mut first: Option<(u64, u64, [SimCounts; 3])> = None;
    for i in 0..SETUPS {
        tracer.set_on(ctx.trace && i + 1 == SETUPS);
        let start = ctx.clock.now_ns();
        let s = set_up(ctx, frame_cap, report, &mut tracer)?;
        setups.push(secs(ctx.clock.now_ns() - start));
        report.attempt("setup", 1);
        let this = (
            crate::fingerprint(&s.inputs.c45.bytes),
            crate::fingerprint(&s.inputs.nbc.bytes),
            s.inputs.sims,
        );
        match &first {
            None => first = Some(this),
            Some(f) => {
                report.check(
                    "setup",
                    f.2 == this.2,
                    &format!("set-up simulations drifted: {:?} vs {:?}", this.2, f.2),
                );
                report.check(
                    "setup",
                    f.0 == this.0 && f.1 == this.1,
                    "set-up trained different models than the first set-up",
                );
            }
        }
        if i + 1 < SETUPS {
            let expected = attribute(&alarm_sources(&s.inputs, &s.sent)).len() as u64;
            finish(s.live, expected, "setup", report);
        } else {
            session = Some(s);
        }
    }
    let (inputs, m) = measure(ctx, session.ok_or("no set-up")?, stream_ns, bulk_ns, report);
    let swap_p50 = report.pct("swap_p50_ms", percentile(&m.swaps(), 50.0), 1);
    let bulk_p50 = report.pct("bulk_rtt_p50_us", percentile(&m.bulk_rtt(), 50.0), 1);
    let timed = m.all.get(m.timed()).unwrap_or(&[]);
    println!(
        "serve: stream {} requests ({} LOADs, {} PINGs) in {:.3} s, bulk {} requests in {:.3} s; {} alarm frames",
        m.scores(m.timed()).count(),
        m.swaps().len(),
        timed.iter().filter(|s| s.op == Op::Ping).count(),
        secs(timed.last().map_or(0, |s| s.reply_ns) - timed.first().map_or(0, |s| s.due_ns)),
        m.bulk.len(),
        secs(m.bulk_ns),
        m.end.frames.len(),
    );
    let score_lat = m.score_latency(m.timed());
    let (alarm_lat, _) = m.alarm_latency(m.first_timed);
    let window = |samples: &[(u64, f64)], p, min| windowed(samples, WINDOW_NS, p, min);
    let latencies = [
        ("score_p50_us", window(&score_lat, 50.0, 1)),
        ("score_p99_us", window(&score_lat, 99.0, MIN_P99_SAMPLES)),
        ("alarm_p50_us", window(&alarm_lat, 50.0, 1)),
        ("alarm_p99_us", window(&alarm_lat, 99.0, MIN_P99_SAMPLES)),
    ];
    // The stream's latency percentiles move with the host's CPU steal
    // from run to run by more than any bound, so they are only notes.
    for (name, p) in latencies {
        if let Some(v) = report.windowed(name, p) {
            report.note(&format!("serve.{name}"), v, "us");
        }
    }
    if !ctx.trace {
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        // The operation is the operator's hot swap: a `LOAD` under the
        // stream.
        if let Some(v) = swap_p50 {
            report.metric("op_p50_ms", v, "ms");
        }
        // Closed loop, one request in flight: throughput is the batch over
        // its median round trip.
        if let Some(v) = bulk_p50 {
            report.metric("rows_per_s", BULK_ROWS as f64 * 1e6 / v, "rows/s");
        }
        return Ok(());
    }
    report_traced(ctx, report, tracer, &inputs, &m)
}

/// The per-layer metrics of a traced run: to the traced set-up's spans,
/// its traced half's live calls are added as spans, then each of its
/// batches and `LOAD`s is replayed through the in-process functions.
fn report_traced(
    ctx: &Ctx,
    report: &mut Report,
    mut tracer: Tracer,
    inputs: &Inputs,
    m: &Measured,
) -> Result<(), String> {
    let clock = ctx.clock;
    let rows_per_req = VANTAGES.len() as u64;
    let traced = m.all.get(m.traced()).unwrap_or(&[]);
    tracer.set_on(true);
    let bulk_first = m.all.len();
    let mut scratch = Scratch::new();
    let mut wire = Vec::new();
    for (i, s) in traced.iter().enumerate() {
        let req = (m.first_traced + i) as u64;
        match s.op {
            Op::Score(b) => {
                tracer.record("serve.score", s.send_ns, s.reply_ns, req);
                let t0 = clock.now_ns();
                let span = tracer.enter("features.disc", req);
                scratch.discretize(&inputs.c45.trained, &inputs.batches[b]);
                tracer.exit(span);
                let span = tracer.enter("ml.score_c45", req);
                scratch.score(&inputs.c45.trained);
                tracer.exit(span);
                let in_process = clock.now_ns() - t0;
                wire.push(((s.reply_ns - s.send_ns) as f64 - in_process as f64) / 1e3);
            }
            Op::Load => {
                tracer.record("serve.load", s.send_ns, s.reply_ns, req);
                let span = tracer.enter("core.swap_decode", req);
                let artifact = ModelArtifact::load(&mut inputs.c45.bytes.as_slice());
                tracer.exit(span);
                let mut detector = artifact.map_err(|e| format!("{e:?}"))?.detector;
                let span = tracer.enter("ml.swap_compile", req);
                detector.compile();
                tracer.exit(span);
            }
            Op::Ping => tracer.record("serve.ping", s.send_ns, s.reply_ns, req),
        }
    }
    for (i, s) in m.bulk.iter().enumerate() {
        let req = (bulk_first + i) as u64;
        tracer.record("serve.bulk", s.send_ns, s.reply_ns, req);
        if let Op::Score(b) = s.op {
            let span = tracer.enter("features.disc_bulk", req);
            scratch.discretize(&inputs.nbc.trained, &inputs.bulk[b]);
            tracer.exit(span);
            let span = tracer.enter("ml.score_nbc", req);
            scratch.score(&inputs.nbc.trained);
            tracer.exit(span);
        }
    }
    let spans = tracer.spans();
    let p50 = |samples: &[(u64, f64)]| {
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        percentile(&values, 50.0)
    };
    let traced_lat = m.score_latency(m.traced());
    let untraced_lat = m.score_latency(m.first_timed..m.first_traced);
    let rtt: Vec<f64> = m
        .scores(m.traced())
        .map(|s| us(s.reply_ns - s.send_ns))
        .collect();
    // Lateness is measured on every timed send; tracing adds nothing there.
    let late: Vec<f64> = m
        .all
        .get(m.timed())
        .unwrap_or(&[])
        .iter()
        .filter(|s| !s.held)
        .map(|s| us(s.send_ns.saturating_sub(s.due_ns)))
        .collect();
    let (_, fanout) = m.alarm_latency(m.first_traced);
    let stream_rows = m.scores(m.traced()).count() as u64 * rows_per_req;
    let bulk_rows = (m.bulk.len() * BULK_ROWS) as u64;
    let disc_us = per(trace::total_ns(spans, "features.disc"), stream_rows, US);
    let c45_us = per(trace::total_ns(spans, "ml.score_c45"), stream_rows, US);
    let timed_rows = m.scores(m.timed()).count() as u64 * rows_per_req;
    let timed_alarms = m
        .table
        .iter()
        .filter(|&&(op, _)| op >= m.first_timed)
        .count() as u64;
    // Simulation, extraction, training and compiling happen in the traced
    // set-up: its exact counts are those of its three simulations and the
    // rows it extracted. Discretization and scoring are the `stream`
    // batches' replays; the evaluations are the timed stream's.
    let sim = inputs
        .sims
        .iter()
        .fold(SimCounts::default(), |a, c| SimCounts {
            events: a.events + c.events,
            delivered: a.delivered + c.delivered,
            lost: a.lost + c.lost,
        });
    let (sim_ns, sims) = trace::calls(spans, &["sim.run"]);
    report.metric("sim.run_s", per(sim_ns, sims, S), "s");
    report.count("sim.events", sim.events, "count");
    report.metric("sim.events_per_s", sim.events as f64 / secs(sim_ns), "1/s");
    report.count("sim.frames_delivered", sim.delivered, "count");
    report.count("sim.frames_lost", sim.lost, "count");
    report.count("features.rows", inputs.rows, "count");
    let (extract_ns, _) = trace::calls(spans, &["features.extract"]);
    report.metric(
        "features.extract_us_per_row",
        per(extract_ns, inputs.rows, US),
        "us",
    );
    report.metric("features.disc_us_per_row", disc_us, "us");
    let (train_ns, trains) = trace::calls(spans, &crate::fit::TRAIN_SPANS);
    report.metric("ml.train_s", per(train_ns, trains, S), "s");
    let (compile_ns, compiles) = trace::calls(spans, &["ml.compile"]);
    report.metric("ml.compile_ms", per(compile_ns, compiles, MS), "ms");
    report.metric("ml.score_us_per_row", c45_us, "us");
    report.count("ml.submodel_evals", timed_rows * N_FEATURES as u64, "count");
    report.note(
        "ml.score_us_per_row.nbc",
        per(trace::total_ns(spans, "ml.score_nbc"), bulk_rows, US),
        "us",
    );
    report.note("core.alarms", timed_alarms as f64, "count");
    let rtt_p50 = percentile(&rtt, 50.0);
    let wire_p50 = percentile(&wire, 50.0);
    note_pct(report, "serve.rtt_p50_us", rtt_p50, "us");
    note_pct(report, "serve.wire_p50_us", wire_p50, "us");
    note_pct(
        report,
        "serve.fanout_lag_p50_us",
        percentile(&fanout, 50.0),
        "us",
    );
    let (decode_ns, decodes) = trace::calls(spans, &["core.swap_decode"]);
    report.note("serve.swap_decode_ms", per(decode_ns, decodes, MS), "ms");
    let (swap_ns, swaps) = trace::calls(spans, &["ml.swap_compile"]);
    report.note("serve.swap_compile_ms", per(swap_ns, swaps, MS), "ms");
    note_pct(
        report,
        "serve.bulk_rtt_p50_us",
        percentile(&m.bulk_rtt(), 50.0),
        "us",
    );
    // Sends held back by a late reply have no lateness of their own, so
    // a backed-up stream leaves few samples; the count is printed, and
    // only the stream's own p99s must rest on MIN_P99_SAMPLES.
    note_pct(
        report,
        "serve.gen_late_p99_us",
        percentile(&late, 99.0),
        "us",
    );
    let last = m.end.stats.unwrap_or_default();
    for (name, v) in [
        ("serve.queue_depth_max", u64::from(m.queue_depth_max)),
        ("serve.rejected_busy", last.rejected_busy),
        ("serve.protocol_errors", last.protocol_errors),
        ("serve.alarms_pushed", last.alarms_pushed),
        ("serve.slow_disconnects", last.slow_disconnects),
        ("serve.alarm_frames", m.end.frames.len() as u64),
        ("serve.alarm_gaps", m.gaps),
    ] {
        report.note(name, v as f64, "count");
    }
    if let (Some(total), Some(rtt), Some(w)) = (p50(&traced_lat), rtt_p50, wire_p50) {
        println!(
            "stream latency split at p50 per 16-row request: {:.1} us due-to-reply = {:.1} us wire (reactor, queue, framing, syscalls, client) + {:.1} us discretize + {:.1} us score + {:.1} us generator lateness and hold-back",
            total.value,
            w.value,
            disc_us * rows_per_req as f64,
            c45_us * rows_per_req as f64,
            total.value - rtt.value,
        );
    }
    crate::report_layers(report, spans, 1.0, "s over the traced phases");
    crate::report_overhead(
        report,
        &[p50(&traced_lat).map_or(0.0, |p| p.value)],
        &[p50(&untraced_lat).map_or(0.0, |p| p.value)],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarms_number_consecutively_across_requests() {
        let a: &[u32] = &[1, 4];
        let b: &[u32] = &[0];
        let table = attribute(&[Some(a), Some(&[]), Some(b)]);
        assert_eq!(table, vec![(0, 1), (0, 4), (2, 0)]);
    }

    #[test]
    fn a_load_neither_resets_nor_skips_sequence_numbers() {
        let before: &[u32] = &[2, 3];
        let after: &[u32] = &[0, 15];
        // Score, LOAD (re-swap of the same name), Score, PING, Score.
        let table = attribute(&[Some(before), None, Some(after), None, Some(before)]);
        // seq 3 is the first alarm after the swap: request 2, row 0.
        assert_eq!(table.get(2), Some(&(2, 0)));
        assert_eq!(table.len(), 6);
        assert_eq!(table.get(5), Some(&(4, 3)));
    }

    #[test]
    fn failed_requests_raise_no_alarm_numbers() {
        let rows: &[u32] = &[0, 1];
        let table = attribute(&[Some(rows), None, Some(rows)]);
        assert_eq!(table, vec![(0, 0), (0, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn sequence_faults_count_gaps_and_disorder() {
        assert_eq!(seq_faults(&[1, 2, 3], 3), (0, 0));
        assert_eq!(seq_faults(&[1, 3], 3), (1, 1));
        assert_eq!(seq_faults(&[2, 1, 3], 3), (0, 3));
        assert_eq!(seq_faults(&[1, 2], 4), (2, 0));
        assert_eq!(seq_faults(&[], 0), (0, 0));
    }

    #[test]
    fn the_schedule_is_fixed_and_puts_control_ops_first() {
        let order = [7, 8, 9];
        let len = 3 * LOAD_EVERY_NS;
        let ops = schedule(len, &order, 1, 0, true);
        assert_eq!(ops, schedule(len, &order, 1, 0, true));
        assert_eq!(ops.first(), Some(&(0, Op::Load)));
        assert_eq!(ops.get(1), Some(&(0, Op::Score(8))));
        assert_eq!(ops.get(2), Some(&(PERIOD_NS, Op::Score(9))));
        let scores = ops
            .iter()
            .filter(|(_, o)| matches!(o, Op::Score(_)))
            .count() as u64;
        assert_eq!(scores, len.div_ceil(PERIOD_NS));
        assert_eq!(ops.iter().filter(|(_, o)| *o == Op::Load).count(), 3);
        assert_eq!(ops.iter().filter(|(_, o)| *o == Op::Ping).count(), 1);
        assert!(ops.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

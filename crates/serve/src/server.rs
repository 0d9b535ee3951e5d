//! The scoring server: a readiness-driven reactor (one thread, every
//! socket) feeding a bounded worker pool that scores batches through the
//! zero-alloc `score_rows_with` path against a hot-swappable model
//! registry.
//!
//! Division of labour:
//!
//! - the `reactor` thread owns every socket, parses frames, answers
//!   control-plane ops inline, and round-trips SCORE bodies to the
//!   workers as `Job`s;
//! - workers only score: pop a job, validate and score the batch into
//!   the job's response buffer, push it on the completion list, and poke
//!   the wake pipe — they never touch a socket or the registry map, and
//!   a job is one request or one contiguous row range of a request the
//!   reactor split across idle workers (they score both alike);
//! - the [`crate::registry`] maps names to `Arc`ed model entries; a job
//!   captures its entry at dispatch, which is the hot-swap atomicity
//!   contract (see registry docs).
//!
//! Backpressure is explicit at two levels: a full connection table
//! answers a connection-level BUSY frame and closes; a full job queue
//! answers a per-request BUSY and keeps the connection. Both counters
//! surface in the PING stats frame so load generators can report honest
//! numbers.

use crate::protocol::{
    f64_le, put_f64, put_u32, u32_le, STATUS_BAD_WIDTH, STATUS_BUSY, STATUS_MALFORMED, STATUS_OK,
};
use crate::reactor::{wake, wake_pair, ConnToken, Reactor, WakeStream};
use crate::registry::{ModelEntry, Registry};
use cfa_core::ModelArtifact;
use manet_features::EqualFrequencyDiscretizer;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Fewest rows a part of a split SCORE request may hold. A request of n
/// rows is split into k = min(idle workers, n / `MIN_PART_ROWS`) parts
/// when k ≥ 2.
///
/// Each extra part costs one more job round trip (queue push, condvar
/// wake-up, completion push, wake pipe, poll return). On a two-vCPU
/// x86-64 VM that round trip measured 17–19 µs: the median RTT of an
/// empty SCORE minus that of an inline PING, 3 × 20 000 pairs on one
/// connection, at 1 and at 2 workers. The cheapest family to score,
/// compiled C4.5, costs ≈ 4.7 µs per 140-feature row (perfbench `serve`
/// trace), so a part of 32 rows carries ≈ 150 µs of work, about eight
/// round trips: the dispatch a split adds stays under an eighth of the
/// scoring it moves to another core, and a wake-up five times slower
/// than the median still leaves the split ahead. 32 is also a multiple
/// of the naive Bayes kernel's four-row block.
pub const MIN_PART_ROWS: usize = 32;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads scoring requests (each owns one scratch set). A
    /// request of at least 2 × [`MIN_PART_ROWS`] rows is split across the
    /// workers that are idle when it arrives.
    pub workers: usize,
    /// Scoring jobs that may wait for a worker before new requests are
    /// answered with a per-request [`STATUS_BUSY`].
    pub queue_cap: usize,
    /// Open connections the reactor will hold before answering new
    /// arrivals with a connection-level [`STATUS_BUSY`] frame.
    pub max_conns: usize,
    /// Pending-outbox byte cap per subscriber; a slow consumer that
    /// exceeds it is disconnected rather than buffered further.
    pub sub_outbox_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            max_conns: 4096,
            sub_outbox_cap: 256 << 10,
        }
    }
}

/// Counters the server reports after [`Server::run`] returns (and live
/// over the wire in every PING stats frame).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted into the reactor's table.
    pub accepted: u64,
    /// BUSY answers sent: connection-table overflow plus job-queue
    /// overflow.
    pub rejected_busy: u64,
    /// Requests answered with [`STATUS_OK`].
    pub requests_ok: u64,
    /// Requests answered with a protocol error status.
    pub protocol_errors: u64,
    /// Alarm event frames pushed to subscribers.
    pub alarms_pushed: u64,
    /// Subscribers disconnected for not draining their alarm queue.
    pub slow_disconnects: u64,
    /// SCORE requests answered from two or more parts scored on different
    /// workers. Not part of the PING stats frame.
    pub split_requests: u64,
}

pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub rejected_busy: AtomicU64,
    pub requests_ok: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub alarms_pushed: AtomicU64,
    pub slow_disconnects: AtomicU64,
    pub split_requests: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            accepted: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            requests_ok: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            alarms_pushed: AtomicU64::new(0),
            slow_disconnects: AtomicU64::new(0),
            split_requests: AtomicU64::new(0),
        }
    }
}

/// One SCORE round-trip between the reactor and a worker: a whole
/// request, or one part of a request the reactor split into contiguous
/// row ranges. The buffers are recycled through the reactor's job pool,
/// so steady-state scoring allocates nothing.
#[derive(Default)]
pub(crate) struct Job {
    /// Which connection gets the response (generation-stamped, so a
    /// response for a closed-and-reused slot is dropped).
    pub conn: ConnToken,
    /// The model entry captured at dispatch — the hot-swap atomicity
    /// point: every row of this batch scores against exactly this
    /// generation. All parts of a split request share the one `Arc`.
    pub entry: Option<Arc<ModelEntry>>,
    /// Parts the request was split into (1: the job is the whole request).
    pub parts: u32,
    /// Request row at which this part's rows start (0 for a whole request).
    pub first_row: u32,
    /// The SCORE body: `[u32 n_rows][u32 n_cols]` + packed rows (a part
    /// carries its own row count and only its rows).
    pub payload: Vec<u8>,
    /// The response payload (status byte first).
    pub resp: Vec<u8>,
    /// `(row, score)` for each row that scored below threshold, for the
    /// subscriber fan-out.
    pub alarms: Vec<(u32, f64)>,
}

/// State shared between the reactor thread and the worker pool.
pub(crate) struct Shared {
    pub registry: Registry,
    pub shutdown: AtomicBool,
    pub jobs: Mutex<VecDeque<Job>>,
    pub job_ready: Condvar,
    pub queue_cap: usize,
    pub done: Mutex<Vec<Job>>,
    pub counters: Counters,
}

impl Shared {
    pub(crate) fn new(registry: Registry, queue_cap: usize) -> Shared {
        Shared {
            registry,
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            queue_cap: queue_cap.max(1),
            done: Mutex::new(Vec::new()),
            counters: Counters::new(),
        }
    }
}

/// Per-worker reusable buffers: after warm-up, a SCORE request touches no
/// allocator in steady state (the scoring path is the audited zero-alloc
/// one; response bytes go into the job's recycled buffer).
#[derive(Default)]
struct Scratch {
    row_f64: Vec<f64>,
    row_u8: Vec<u8>,
    /// All discretized rows of one request, packed row-major, so the
    /// whole batch goes through the engine's structure-of-arrays path.
    rows_u8: Vec<u8>,
    scores: Vec<f64>,
    probs: Vec<f64>,
}

/// A bound scoring server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: ServerConfig,
}

pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A poisoned lock only means another thread panicked while holding
    // it; the protected queue, list or map is still structurally valid.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Server {
    /// Binds a listener and prepares the shared state, registering the
    /// boot artifact under the [`crate::protocol::DEFAULT_MODEL`] name.
    /// Pass port 0 to let the OS choose (tests do).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if binding fails.
    pub fn bind(
        artifact: ModelArtifact,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let registry = Registry::default();
        if registry
            .insert_artifact(crate::protocol::DEFAULT_MODEL, artifact)
            .is_err()
        {
            // Unreachable: the default name is valid and the map is empty.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "boot artifact could not be registered",
            ));
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(registry, cfg.queue_cap)),
            cfg,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `SHUTDOWN`, then drains in-flight
    /// jobs, joins the workers, and reports counters. Blocks the calling
    /// thread (the reactor runs on it).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the event loop fails fatally.
    pub fn run(self) -> std::io::Result<ServeStats> {
        let (wake_rx, wake_tx) = wake_pair()?;
        let mut workers = Vec::with_capacity(self.cfg.workers.max(1));
        for _ in 0..self.cfg.workers.max(1) {
            let shared = Arc::clone(&self.shared);
            let tx = wake_tx.try_clone()?;
            workers.push(std::thread::spawn(move || worker_loop(&shared, &tx)));
        }

        let reactor = Reactor::new(
            self.listener,
            wake_rx,
            Arc::clone(&self.shared),
            workers.len(),
            self.cfg.max_conns,
            self.cfg.sub_outbox_cap,
        );
        let result = reactor.run();

        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
        for w in workers {
            drop(w.join());
        }
        result?;
        let c = &self.shared.counters;
        Ok(ServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_busy: c.rejected_busy.load(Ordering::Relaxed),
            requests_ok: c.requests_ok.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            alarms_pushed: c.alarms_pushed.load(Ordering::Relaxed),
            slow_disconnects: c.slow_disconnects.load(Ordering::Relaxed),
            split_requests: c.split_requests.load(Ordering::Relaxed),
        })
    }
}

/// Answers a connection the table has no room for, then drops it.
pub(crate) fn reject_busy(mut stream: TcpStream) {
    let frame = [1u8, 0, 0, 0, STATUS_BUSY];
    let _ = stream.write_all(&frame);
}

/// One worker: pop jobs until shutdown, score each with a private reused
/// scratch set, push the completion, poke the wake pipe. The queue is
/// drained even after the shutdown flag rises, so every admitted job is
/// answered (or discarded by the reactor if its connection is gone).
fn worker_loop(shared: &Shared, wake_tx: &WakeStream) {
    let mut scratch = Scratch::default();
    loop {
        let job = {
            let mut q = lock(&shared.jobs);
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = match shared.job_ready.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(mut job) = job else { return };
        score_job(&mut job, &mut scratch);
        {
            let mut done = lock(&shared.done);
            done.push(job);
        }
        // The wake byte is written strictly after the completion guard
        // drops — no lock is ever held across socket I/O (D014).
        wake(wake_tx);
    }
}

/// Validates one SCORE body and fills the job's response with either the
/// OK payload or an error status; the reactor counts the outcome when it
/// answers. Runs on a worker thread; alongside the reactor loop this is a
/// cfa-audit D006 panic-reachability root, and everything it calls must
/// stay panic-free on network input.
fn score_job(job: &mut Job, scratch: &mut Scratch) {
    let Job {
        entry,
        payload,
        resp,
        alarms,
        ..
    } = job;
    resp.clear();
    alarms.clear();
    match entry.as_ref() {
        None => resp.push(STATUS_MALFORMED),
        Some(entry) => score_body(entry, payload, scratch, resp, alarms),
    }
}

/// A SCORE body whose header matches its model: `n_rows` rows of
/// `n_cols` little-endian `f64` cells, packed row-major in `rows`.
pub(crate) struct ScoreBody<'a> {
    pub n_rows: usize,
    pub n_cols: usize,
    pub rows: &'a [u8],
}

/// Parses a SCORE body's `[u32 n_rows][u32 n_cols]` header and checks it
/// against `entry`: the width must be the model's and the row bytes must
/// be exactly `n_rows × n_cols × 8`. The error is the status to answer.
pub(crate) fn parse_score_body<'a>(
    entry: &ModelEntry,
    body: &'a [u8],
) -> Result<ScoreBody<'a>, u8> {
    let (Some(n_rows), Some(n_cols)) = (u32_le(body), u32_le(body.get(4..).unwrap_or(&[]))) else {
        return Err(STATUS_MALFORMED);
    };
    let (n_rows, n_cols) = (n_rows as usize, n_cols as usize);
    if n_cols != entry.n_features {
        return Err(STATUS_BAD_WIDTH);
    }
    let expected = n_rows
        .checked_mul(n_cols)
        .and_then(|cells| cells.checked_mul(8));
    let rows = body.get(8..).unwrap_or(&[]);
    if expected != Some(rows.len()) {
        return Err(STATUS_MALFORMED);
    }
    Ok(ScoreBody {
        n_rows,
        n_cols,
        rows,
    })
}

/// Checks and scores one SCORE body into `resp` (status byte first).
fn score_body(
    entry: &ModelEntry,
    body: &[u8],
    scratch: &mut Scratch,
    resp: &mut Vec<u8>,
    alarms: &mut Vec<(u32, f64)>,
) {
    let body = match parse_score_body(entry, body) {
        Ok(body) => body,
        Err(status) => {
            resp.push(status);
            return;
        }
    };
    resp.push(STATUS_OK);
    put_u32(resp, body.n_rows as u32);
    let Scratch {
        row_f64,
        row_u8,
        rows_u8,
        scores,
        probs,
    } = scratch;
    score_rows_into(
        &entry.disc,
        &entry.detector,
        body.rows,
        body.n_cols,
        row_f64,
        row_u8,
        rows_u8,
        scores,
        probs,
        resp,
        alarms,
    );
}

/// Scores one packed request batch: decode `f64`s and discretize every
/// row into one row-major buffer, push the whole batch through the
/// detector's compiled structure-of-arrays batch entry (every detector
/// is built lowered), then append `[f64 score][u8 alarm]`
/// per row and collect `(row, score)` for every alarm so the reactor can
/// fan them out to subscribers. This is the steady-state hot loop —
/// cfa-audit's D008 zero-alloc rule roots here, so nothing below may
/// allocate once buffers are warm (the alarm list is one of the warm,
/// recycled buffers).
#[allow(clippy::too_many_arguments)] // flat borrows keep the scratch fields disjoint
fn score_rows_into(
    disc: &EqualFrequencyDiscretizer,
    detector: &cfa_core::AnomalyDetector,
    rows_bytes: &[u8],
    n_cols: usize,
    row_f64: &mut Vec<f64>,
    row_u8: &mut Vec<u8>,
    rows_u8: &mut Vec<u8>,
    scores: &mut Vec<f64>,
    probs: &mut Vec<f64>,
    resp: &mut Vec<u8>,
    alarms: &mut Vec<(u32, f64)>,
) {
    if n_cols == 0 {
        return;
    }
    rows_u8.clear();
    for row in rows_bytes.chunks_exact(n_cols * 8) {
        row_f64.clear();
        for cell in row.chunks_exact(8) {
            if let Some(v) = f64_le(cell) {
                row_f64.push(v);
            }
        }
        disc.transform_row_into(row_f64, row_u8);
        rows_u8.extend_from_slice(row_u8);
    }
    detector.score_rows_with(rows_u8, scores, probs);
    let threshold = detector.threshold();
    for (i, &score) in scores.iter().enumerate() {
        put_f64(resp, score);
        let alarm = cfa_core::is_alarm(score, threshold);
        resp.push(u8::from(alarm));
        if alarm {
            alarms.push((i as u32, score));
        }
    }
}

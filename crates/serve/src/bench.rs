//! `cfa-serve bench`: a deterministic load generator for a running
//! server, reporting throughput and latency percentiles, with an optional
//! bitwise verification of every served score against the interpreted
//! in-process walk and an optional pool of live alarm subscribers riding
//! alongside the scoring connections (mixed score + subscribe load).
//!
//! Row payloads come from a seeded xorshift generator, so two bench runs
//! with the same seed send byte-identical requests; only the timing is
//! real. Wall-clock use is confined to this module (it is the whole point
//! of a latency benchmark) and justified per site for cfa-audit D002.

use crate::client::{Client, ClientError};
use crate::protocol::{StatsFrame, DEFAULT_MODEL};
use crate::train::load_artifact;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Artifact path (provides the row width; also the verification
    /// reference when `verify` is set).
    pub model: PathBuf,
    /// Total SCORE requests to send across all connections.
    pub requests: usize,
    /// Rows per request.
    pub batch: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Seed for the synthetic row generator.
    pub seed: u64,
    /// Re-score every row in-process with the interpreted walk of the
    /// artifact's ensemble and its threshold (independent of the
    /// server's compiled engine) and count rows whose score bits or alarm
    /// bit differ.
    pub verify: bool,
    /// Dedicated connections subscribed to the scored model's alarm
    /// stream for the duration of the run (mixed score + subscribe load).
    pub subscribers: usize,
    /// Score against this registry name via `SCORE_AS` instead of the
    /// default model (also the name the subscribers watch).
    pub score_as: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            addr: "127.0.0.1:7878".to_owned(),
            model: PathBuf::from("model.cfam"),
            requests: 1000,
            batch: 16,
            connections: 4,
            seed: 1,
            verify: false,
            subscribers: 0,
            score_as: None,
        }
    }
}

/// What a bench run measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// SCORE requests answered OK.
    pub requests_ok: usize,
    /// Rows scored.
    pub rows: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Rows per second.
    pub rows_per_sec: f64,
    /// Per-request latency percentiles, in microseconds.
    pub latency_us: LatencySummary,
    /// Requests that failed (transport error or non-OK status).
    pub protocol_errors: usize,
    /// Served scores whose bit pattern differed from in-process scoring
    /// (always 0 unless the server or artifact is broken; only counted
    /// with `verify`).
    pub mismatches: usize,
    /// Alarm event frames received across all subscriber connections.
    pub alarm_frames: u64,
    /// Whether every subscriber saw strictly increasing sequence numbers
    /// (vacuously true with no subscribers).
    pub alarms_in_order: bool,
    /// The server's counters from a final PING (queue depth, BUSY
    /// rejections, slow-consumer disconnects…), if it answered.
    pub server: Option<StatsFrame>,
}

/// p50/p90/p99/max of a latency sample, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst observed.
    pub max: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// A tiny xorshift64* generator — deterministic row payloads without any
/// entropy source.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, hi)`.
    fn next_f64(&mut self, hi: f64) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * hi
    }
}

struct WorkerOutcome {
    ok: usize,
    /// Rows actually scored, summed from the served replies (not
    /// re-derived from the configured batch size, so `--verify` runs and
    /// plain runs agree even if the server answers short).
    rows: usize,
    errors: usize,
    mismatches: usize,
    latencies_us: Vec<u64>,
}

struct SubOutcome {
    frames: u64,
    in_order: bool,
}

/// One subscriber connection: watch `model`'s alarm stream until the
/// scoring fleet finishes, counting frames and checking that sequence
/// numbers are strictly increasing.
fn subscriber_loop(addr: &str, model: &str, stop: &AtomicBool) -> SubOutcome {
    let mut outcome = SubOutcome {
        frames: 0,
        in_order: true,
    };
    // Short read timeout so the stop flag is observed promptly between
    // pushed frames.
    let Ok(mut client) = Client::connect(addr, Duration::from_millis(200)) else {
        return outcome;
    };
    if client.subscribe(model).is_err() {
        return outcome;
    }
    let mut last_seq = 0u64;
    loop {
        match client.recv_alarm() {
            Ok(evt) => {
                outcome.frames += 1;
                if evt.seq <= last_seq {
                    outcome.in_order = false;
                }
                last_seq = evt.seq;
            }
            Err(ClientError::TimedOut { .. }) => {
                if stop.load(Ordering::Relaxed) {
                    return outcome;
                }
            }
            Err(_) => return outcome,
        }
    }
}

/// Runs the load generator against a live server.
///
/// # Errors
///
/// Returns a human-readable message if the artifact cannot be loaded or
/// no connection can be established at all; per-request failures are
/// counted in the report instead.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let trained = load_artifact(&cfg.model)?;
    let n_cols = trained.discretizer().cards().len();
    let disc = trained.discretizer();
    let detector = trained.detector();

    let connections = cfg.connections.max(1);
    let per_conn = cfg.requests.div_ceil(connections);
    let model_name = cfg.score_as.as_deref().unwrap_or(DEFAULT_MODEL);
    let stop = AtomicBool::new(false);
    // audit: allow(D002, reason = "bench tool measures real wall-clock throughput; it never feeds simulation or scoring state")
    let started = Instant::now();
    let (outcomes, subs): (Vec<WorkerOutcome>, Vec<SubOutcome>) = std::thread::scope(|scope| {
        let stop = &stop;
        let sub_handles: Vec<_> = (0..cfg.subscribers)
            .map(|_| scope.spawn(move || subscriber_loop(cfg.addr.as_str(), model_name, stop)))
            .collect();
        let handles: Vec<_> = (0..connections)
            .map(|conn_idx| {
                scope.spawn(move || {
                    let mut outcome = WorkerOutcome {
                        ok: 0,
                        rows: 0,
                        errors: 0,
                        mismatches: 0,
                        latencies_us: Vec::with_capacity(per_conn),
                    };
                    let mut rng = XorShift::new(
                        cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut client =
                        match Client::connect(cfg.addr.as_str(), Duration::from_secs(10)) {
                            Ok(c) => c,
                            Err(_) => {
                                outcome.errors = per_conn;
                                return outcome;
                            }
                        };
                    let mut rows = vec![0.0f64; cfg.batch * n_cols];
                    let mut row_u8: Vec<u8> = Vec::new();
                    let mut probs: Vec<f64> = Vec::new();
                    for _ in 0..per_conn {
                        for v in rows.iter_mut() {
                            *v = rng.next_f64(50.0);
                        }
                        // audit: allow(D002, reason = "bench tool measures real request latency; timing never influences scores")
                        let t0 = Instant::now();
                        let served = match cfg.score_as.as_deref() {
                            Some(name) => client.score_batch_as(name, &rows, n_cols),
                            None => client.score_batch(&rows, n_cols),
                        };
                        let dt = t0.elapsed();
                        match served {
                            Ok(scored) => {
                                outcome.ok += 1;
                                outcome.rows += scored.len();
                                outcome
                                    .latencies_us
                                    .push(u64::try_from(dt.as_micros()).unwrap_or(u64::MAX));
                                if cfg.verify {
                                    // The reference is the interpreted walk
                                    // and the threshold, never the engine
                                    // the server runs.
                                    for (row, s) in rows.chunks_exact(n_cols).zip(&scored) {
                                        disc.transform_row_into(row, &mut row_u8);
                                        let local = detector.model().score_with(
                                            &row_u8,
                                            detector.method(),
                                            &mut probs,
                                        );
                                        // The server alarms unless score >= θ.
                                        let same_alarm = s.alarm != (local >= detector.threshold());
                                        if local.to_bits() != s.score.to_bits() || !same_alarm {
                                            outcome.mismatches += 1;
                                        }
                                    }
                                }
                            }
                            Err(ClientError::Status(_) | ClientError::Io(_)) => {
                                outcome.errors += 1;
                            }
                            Err(_) => outcome.errors += 1,
                        }
                    }
                    outcome
                })
            })
            .collect();
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(WorkerOutcome {
                    ok: 0,
                    rows: 0,
                    errors: per_conn,
                    mismatches: 0,
                    latencies_us: Vec::new(),
                })
            })
            .collect();
        // Scoring fleet is done; release the subscribers.
        stop.store(true, Ordering::Relaxed);
        let subs: Vec<SubOutcome> = sub_handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(SubOutcome {
                    frames: 0,
                    in_order: true,
                })
            })
            .collect();
        (outcomes, subs)
    });
    let elapsed = started.elapsed();
    let server = Client::connect(cfg.addr.as_str(), Duration::from_secs(5))
        .ok()
        .and_then(|mut c| c.ping().ok());

    let mut latencies: Vec<u64> = Vec::new();
    let mut ok = 0;
    let mut rows = 0;
    let mut errors = 0;
    let mut mismatches = 0;
    for o in outcomes {
        ok += o.ok;
        rows += o.rows;
        errors += o.errors;
        mismatches += o.mismatches;
        latencies.extend_from_slice(&o.latencies_us);
    }
    latencies.sort_unstable();
    let secs = elapsed.as_secs_f64().max(1e-9);
    Ok(BenchReport {
        requests_ok: ok,
        rows,
        elapsed,
        throughput_rps: ok as f64 / secs,
        rows_per_sec: rows as f64 / secs,
        latency_us: LatencySummary {
            p50: percentile(&latencies, 0.50),
            p90: percentile(&latencies, 0.90),
            p99: percentile(&latencies, 0.99),
            max: latencies.last().copied().unwrap_or(0),
        },
        protocol_errors: errors,
        mismatches,
        alarm_frames: subs.iter().map(|s| s.frames).sum(),
        alarms_in_order: subs.iter().all(|s| s.in_order),
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            let x = a.next_f64(50.0);
            assert_eq!(x.to_bits(), b.next_f64(50.0).to_bits());
            assert!((0.0..50.0).contains(&x));
        }
    }

    #[test]
    fn percentiles_pick_expected_ranks() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 0.99), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}

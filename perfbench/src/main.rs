//! `cfa-perfbench`: the end-to-end and per-layer benchmark.
//!
//! ```text
//! cfa-perfbench --workload <fit|monitor|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed picks every scenario seed and the replay order; the program
//! sees only the generated inputs. A run sets up several times (the
//! median is `setup_s`), measures for `--seconds`, checks every output,
//! and prints as its last line one JSON object with the operations
//! attempted and failed and the metrics: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (spans around every call into a
//! layer) with `--trace 1`. Any failed operation or check exits nonzero.

mod fit;
mod monitor;
mod report;
mod scen;
mod serve;
mod stats;
mod trace;

use manet_cfa::core::Parallelism;
use report::{Report, END_TO_END, PER_LAYER, SHARED_LAYERS};
use std::process::ExitCode;
use trace::{Clock, Span};

/// Largest accepted `--seconds`.
const MAX_SECONDS: u64 = 600;
/// Largest accepted `--seed`.
const MAX_SEED: u64 = 1 << 48;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fit,
    Monitor,
    Serve,
}

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Whether spans are recorded.
    pub trace: bool,
    /// The program's thread budget, pinned to the host's cores.
    pub par: Parallelism,
    /// The run's clock.
    pub clock: Clock,
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Prints each layer's self time divided by `ops` (`what` says per
/// what), and reports each shared layer's share of the summed self time
/// as `<layer>.self_pct`.
pub fn report_layers(report: &mut Report, spans: &[Span], ops: f64, what: &str) {
    println!("self time by layer ({what}):");
    for (layer, ns) in trace::layer_self_ns(spans) {
        report.note(&format!("{layer}.self_s"), secs(ns) / ops, "s");
    }
    let shares = trace::layer_shares(spans);
    for (layer, share) in &shares {
        if !SHARED_LAYERS.contains(layer) {
            report.note(&format!("{layer}.self_pct"), *share, "%");
        }
    }
    for layer in SHARED_LAYERS {
        match shares.get(layer) {
            Some(&share) => report.metric(&format!("{layer}.self_pct"), share, "%"),
            None => report.fail("report", &format!("no {layer} span was traced")),
        }
    }
}

/// `total_ns`, in units of `unit_ns`, per one of `n` (calls or rows):
/// NaN when `n` is 0, which the report refuses as a metric.
pub fn per(total_ns: u64, n: u64, unit_ns: f64) -> f64 {
    if n == 0 {
        return f64::NAN;
    }
    total_ns as f64 / unit_ns / n as f64
}

/// Nanoseconds per second, millisecond and microsecond, as units for
/// [`per`].
pub const S: f64 = 1e9;
/// See [`S`].
pub const MS: f64 = 1e6;
/// See [`S`].
pub const US: f64 = 1e3;

/// Reports the tracing overhead: traced minus untraced median, as a
/// percentage of the untraced median.
pub fn report_overhead(report: &mut Report, traced: &[f64], untraced: &[f64]) {
    match (stats::median(traced), stats::median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => {
            println!("tracing overhead: traced median {t} vs untraced median {u}");
            report.metric("trace.overhead_pct", (t - u) / u * 100.0, "%");
        }
        _ => report.fail(
            "report",
            "tracing overhead needs traced and untraced samples",
        ),
    }
}

/// A fingerprint of `bytes`, to check that an artifact repeats without
/// keeping it (which would count in `peak_rss_mib`).
pub fn fingerprint(bytes: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// The process's high-water resident set, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "fit" => Workload::Fit,
                    "monitor" => Workload::Monitor,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other} (fit|monitor|serve)")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seed > MAX_SEED {
        return Err(format!("--seed must be at most {MAX_SEED}"));
    }
    if seconds == 0 || seconds > MAX_SECONDS {
        return Err(format!("--seconds must be 1..={MAX_SECONDS}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        par: Parallelism::threads(cores),
        clock: Clock::start(),
    };
    println!(
        "cfa-perfbench: workload {:?}, seed {}, {} s, trace {}, parallelism {} threads",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.par.n_threads()
    );
    let mut report = Report::default();
    let outcome = match args.workload {
        Workload::Fit => fit::workload(&ctx, &mut report),
        Workload::Monitor => monitor::workload(&ctx, &mut report),
        Workload::Serve => serve::workload(&ctx, &mut report),
    };
    if let Err(e) = outcome {
        report.fail("run", &e);
    }
    if !ctx.trace {
        match peak_rss_mib() {
            Some(mib) => report.metric("peak_rss_mib", mib, "MiB"),
            None => report.fail("report", "VmHWM unreadable"),
        }
    }
    report.finish(if ctx.trace { &PER_LAYER } else { &END_TO_END });
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

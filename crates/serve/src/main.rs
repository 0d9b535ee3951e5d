//! The `cfa-serve` command line: `train`, `serve`, `bench`, and the
//! fleet-management verbs `load` / `unload` / `list` / `stats` /
//! `subscribe` / `stop` against a running server.

use cfa_serve::bench::{run_bench, BenchConfig};
use cfa_serve::client::{Client, ClientError};
use cfa_serve::protocol::StatsFrame;
use cfa_serve::server::{Server, ServerConfig};
use cfa_serve::train::{load_artifact, train_and_save, TrainConfig};
use manet_cfa::core::ScoreMethod;
use manet_cfa::pipeline::ClassifierKind;
use manet_cfa::scenario::Protocol;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage:
  cfa-serve train [--out model.cfam] [--protocol dsr|aodv] [--nodes N]
                  [--duration SECS] [--seed N] [--classifier c45|ripper|nbc]
                  [--method match|prob]
  cfa-serve serve --model model.cfam [--addr 127.0.0.1:7878] [--workers N]
                  [--queue N] [--max-conns N] [--sub-outbox-kib N]
  cfa-serve bench --model model.cfam [--addr 127.0.0.1:7878] [--requests N]
                  [--batch N] [--connections N] [--seed N] [--verify]
                  [--subscribers N] [--score-as NAME]
  cfa-serve load --model model.cfam --name NAME [--addr 127.0.0.1:7878]
  cfa-serve unload --name NAME [--addr 127.0.0.1:7878]
  cfa-serve list [--addr 127.0.0.1:7878]
  cfa-serve stats [--addr 127.0.0.1:7878]
  cfa-serve subscribe --name NAME [--count N] [--addr 127.0.0.1:7878]
  cfa-serve stop [--addr 127.0.0.1:7878]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(cmd, rest)| (cmd.as_str(), rest));
    if let Some(flag) = accepted_flags(cmd).and_then(|flags| unknown_flag(rest, flags)) {
        eprintln!("cfa-serve {cmd}: unknown flag `{flag}`\n{USAGE}");
        std::process::exit(2);
    }
    let code = match cmd {
        "train" => cmd_train(rest),
        "serve" => cmd_serve(rest),
        "bench" => cmd_bench(rest),
        "load" => cmd_load(rest),
        "unload" => cmd_unload(rest),
        "list" => cmd_list(rest),
        "stats" => cmd_stats(rest),
        "subscribe" => cmd_subscribe(rest),
        "stop" => cmd_stop(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Every flag `verb` accepts, space-separated (`None` for an unknown verb).
fn accepted_flags(verb: &str) -> Option<&'static str> {
    Some(match verb {
        "train" => "--out --protocol --nodes --duration --seed --classifier --method",
        "serve" => "--model --addr --workers --queue --max-conns --sub-outbox-kib",
        "bench" => "--model --addr --requests --batch --connections --seed --verify --subscribers --score-as",
        "load" => "--model --name --addr",
        "unload" => "--name --addr",
        "subscribe" => "--name --count --addr",
        "list" | "stats" | "stop" => "--addr",
        _ => return None,
    })
}

/// The first argument that is not one of `flags` (skipping each flag's
/// value), so a misspelt or retired flag fails loudly instead of being
/// ignored.
fn unknown_flag<'a>(args: &'a [String], flags: &str) -> Option<&'a str> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !flags.split(' ').any(|f| f == arg) {
            return Some(arg);
        }
        // `--verify` is the only flag without a value.
        if arg != "--verify" {
            rest.next();
        }
    }
    None
}

/// Pulls the value following a `--flag`, parsed, or the default.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag}: cannot parse value")),
    }
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Server address for the client verbs.
fn addr_flag(args: &[String]) -> Result<String, String> {
    flag_value(args, "--addr", "127.0.0.1:7878".to_owned())
}

/// Connects a client verb to a running server.
fn connect(addr: &str) -> Result<Client, i32> {
    Client::connect(addr, Duration::from_secs(10)).map_err(|e| {
        eprintln!("cfa-serve: cannot connect to {addr}: {e}");
        1
    })
}

fn print_stats(s: &StatsFrame) {
    println!(
        "accepted {} conns ({} open), rejected busy {}, served {} requests, {} protocol errors",
        s.accepted, s.open_conns, s.rejected_busy, s.requests_ok, s.protocol_errors
    );
    println!(
        "queue depth {}, models {}, subscribers {}, alarms pushed {}, slow-consumer disconnects {}",
        s.queue_depth, s.models, s.subscribers, s.alarms_pushed, s.slow_disconnects
    );
}

fn cmd_train(args: &[String]) -> i32 {
    let cfg = (|| -> Result<TrainConfig, String> {
        let d = TrainConfig::default();
        let protocol = match flag_value(args, "--protocol", "dsr".to_owned())?.as_str() {
            "dsr" => Protocol::Dsr,
            "aodv" => Protocol::Aodv,
            other => return Err(format!("unknown protocol {other}")),
        };
        let classifier = match flag_value(args, "--classifier", "nbc".to_owned())?.as_str() {
            "c45" => ClassifierKind::C45,
            "ripper" => ClassifierKind::Ripper,
            "nbc" => ClassifierKind::NaiveBayes,
            other => return Err(format!("unknown classifier {other}")),
        };
        let method = match flag_value(args, "--method", "prob".to_owned())?.as_str() {
            "match" => ScoreMethod::MatchCount,
            "prob" => ScoreMethod::AvgProbability,
            other => return Err(format!("unknown method {other}")),
        };
        Ok(TrainConfig {
            out: flag_value(args, "--out", d.out)?,
            protocol,
            nodes: flag_value(args, "--nodes", d.nodes)?,
            duration: flag_value(args, "--duration", d.duration)?,
            seed: flag_value(args, "--seed", d.seed)?,
            classifier,
            method,
        })
    })();
    let cfg = match cfg {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cfa-serve train: {e}\n{USAGE}");
            return 2;
        }
    };
    match train_and_save(&cfg) {
        Ok((_, summary)) => {
            println!(
                "trained {} features, threshold {:.6}; wrote {} bytes to {}",
                summary.n_features,
                summary.threshold,
                summary.artifact_bytes,
                summary.out.display()
            );
            0
        }
        Err(e) => {
            eprintln!("cfa-serve train: {e}");
            1
        }
    }
}

fn cmd_serve(args: &[String]) -> i32 {
    let model: PathBuf = match flag_value(args, "--model", PathBuf::new()) {
        Ok(p) if !p.as_os_str().is_empty() => p,
        _ => {
            eprintln!("cfa-serve serve: --model is required\n{USAGE}");
            return 2;
        }
    };
    let parsed = (|| -> Result<(String, ServerConfig), String> {
        let d = ServerConfig::default();
        let outbox_kib: usize = flag_value(args, "--sub-outbox-kib", d.sub_outbox_cap >> 10)?;
        Ok((
            addr_flag(args)?,
            ServerConfig {
                workers: flag_value(args, "--workers", d.workers)?,
                queue_cap: flag_value(args, "--queue", d.queue_cap)?,
                max_conns: flag_value(args, "--max-conns", d.max_conns)?,
                sub_outbox_cap: outbox_kib << 10,
            },
        ))
    })();
    let (addr, cfg) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cfa-serve serve: {e}\n{USAGE}");
            return 2;
        }
    };
    let trained = match load_artifact(&model) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cfa-serve serve: {e}");
            return 1;
        }
    };
    let server = match Server::bind(trained.to_artifact(), addr.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cfa-serve serve: cannot bind {addr}: {e}");
            return 1;
        }
    };
    match server.local_addr() {
        Ok(local) => println!("listening on {local}"),
        Err(_) => println!("listening on {addr}"),
    }
    match server.run() {
        Ok(stats) => {
            println!(
                "shutdown: accepted {} connections, served {} requests ({} protocol errors, {} busy-rejected, {} alarms pushed, {} slow-consumer disconnects, {} split_requests)",
                stats.accepted,
                stats.requests_ok,
                stats.protocol_errors,
                stats.rejected_busy,
                stats.alarms_pushed,
                stats.slow_disconnects,
                stats.split_requests
            );
            0
        }
        Err(e) => {
            eprintln!("cfa-serve serve: event loop failed: {e}");
            1
        }
    }
}

fn cmd_bench(args: &[String]) -> i32 {
    let cfg = (|| -> Result<BenchConfig, String> {
        let d = BenchConfig::default();
        let model: PathBuf = flag_value(args, "--model", d.model)?;
        let score_as = flag_value(args, "--score-as", String::new())?;
        Ok(BenchConfig {
            addr: addr_flag(args)?,
            model,
            requests: flag_value(args, "--requests", d.requests)?,
            batch: flag_value(args, "--batch", d.batch)?,
            connections: flag_value(args, "--connections", d.connections)?,
            seed: flag_value(args, "--seed", d.seed)?,
            verify: flag_present(args, "--verify"),
            subscribers: flag_value(args, "--subscribers", d.subscribers)?,
            score_as: (!score_as.is_empty()).then_some(score_as),
        })
    })();
    let cfg = match cfg {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cfa-serve bench: {e}\n{USAGE}");
            return 2;
        }
    };
    match run_bench(&cfg) {
        Ok(r) => {
            println!(
                "{} requests ok ({} rows) in {:.3} s — {:.0} req/s, {:.0} rows/s",
                r.requests_ok,
                r.rows,
                r.elapsed.as_secs_f64(),
                r.throughput_rps,
                r.rows_per_sec
            );
            println!(
                "latency µs: p50 {} / p90 {} / p99 {} / max {}",
                r.latency_us.p50, r.latency_us.p90, r.latency_us.p99, r.latency_us.max
            );
            println!(
                "protocol errors: {}; score mismatches: {}",
                r.protocol_errors, r.mismatches
            );
            if cfg.subscribers > 0 {
                println!(
                    "alarm frames received: {} across {} subscribers, in order: {}",
                    r.alarm_frames, cfg.subscribers, r.alarms_in_order
                );
            }
            if let Some(s) = &r.server {
                println!(
                    "server: queue depth {}, busy-rejected {}, slow-consumer disconnects {}",
                    s.queue_depth, s.rejected_busy, s.slow_disconnects
                );
            }
            i32::from(r.protocol_errors > 0 || r.mismatches > 0 || !r.alarms_in_order)
        }
        Err(e) => {
            eprintln!("cfa-serve bench: {e}");
            1
        }
    }
}

/// `load`: register (or hot-swap) an artifact under a registry name.
fn cmd_load(args: &[String]) -> i32 {
    let model: PathBuf = match flag_value(args, "--model", PathBuf::new()) {
        Ok(p) if !p.as_os_str().is_empty() => p,
        _ => {
            eprintln!("cfa-serve load: --model is required\n{USAGE}");
            return 2;
        }
    };
    let name = match flag_value(args, "--name", String::new()) {
        Ok(n) if !n.is_empty() => n,
        _ => {
            eprintln!("cfa-serve load: --name is required\n{USAGE}");
            return 2;
        }
    };
    let addr = match addr_flag(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfa-serve load: {e}");
            return 2;
        }
    };
    let bytes = match std::fs::read(&model) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cfa-serve load: cannot read {}: {e}", model.display());
            return 1;
        }
    };
    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.load_model(&name, &bytes) {
        Ok(()) => {
            println!("loaded {} as {name}", model.display());
            0
        }
        Err(e) => {
            eprintln!("cfa-serve load: {e}");
            1
        }
    }
}

/// `unload`: drop a named model from the registry.
fn cmd_unload(args: &[String]) -> i32 {
    let name = match flag_value(args, "--name", String::new()) {
        Ok(n) if !n.is_empty() => n,
        _ => {
            eprintln!("cfa-serve unload: --name is required\n{USAGE}");
            return 2;
        }
    };
    let addr = match addr_flag(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfa-serve unload: {e}");
            return 2;
        }
    };
    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.unload_model(&name) {
        Ok(()) => {
            println!("unloaded {name}");
            0
        }
        Err(e) => {
            eprintln!("cfa-serve unload: {e}");
            1
        }
    }
}

/// `list`: print the registry, one model per line.
fn cmd_list(args: &[String]) -> i32 {
    let addr = match addr_flag(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfa-serve list: {e}");
            return 2;
        }
    };
    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.list_models() {
        Ok(models) => {
            for m in &models {
                println!(
                    "{}  features {}  generation {}",
                    m.name, m.n_features, m.generation
                );
            }
            println!("{} model(s)", models.len());
            0
        }
        Err(e) => {
            eprintln!("cfa-serve list: {e}");
            1
        }
    }
}

/// `stats`: print the server's live counters from a PING.
fn cmd_stats(args: &[String]) -> i32 {
    let addr = match addr_flag(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfa-serve stats: {e}");
            return 2;
        }
    };
    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.ping() {
        Ok(stats) => {
            print_stats(&stats);
            0
        }
        Err(e) => {
            eprintln!("cfa-serve stats: {e}");
            1
        }
    }
}

/// `subscribe`: stream alarm events to stdout, one per line, until
/// `--count` events arrived (0 = forever).
fn cmd_subscribe(args: &[String]) -> i32 {
    let name = match flag_value(args, "--name", String::new()) {
        Ok(n) if !n.is_empty() => n,
        _ => {
            eprintln!("cfa-serve subscribe: --name is required\n{USAGE}");
            return 2;
        }
    };
    let parsed = (|| -> Result<(String, u64), String> {
        Ok((addr_flag(args)?, flag_value(args, "--count", 0u64)?))
    })();
    let (addr, count) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cfa-serve subscribe: {e}\n{USAGE}");
            return 2;
        }
    };
    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if let Err(e) = client.subscribe(&name) {
        eprintln!("cfa-serve subscribe: {e}");
        return 1;
    }
    let mut received = 0u64;
    loop {
        match client.recv_alarm() {
            Ok(evt) => {
                println!(
                    "alarm model={} seq={} row={} score={:.6}",
                    evt.model, evt.seq, evt.row, evt.score
                );
                received += 1;
                if count > 0 && received >= count {
                    return 0;
                }
            }
            // Quiet stream: keep waiting.
            Err(ClientError::TimedOut { .. }) => continue,
            Err(ClientError::Disconnected) => {
                eprintln!("cfa-serve subscribe: server closed the stream");
                return i32::from(count > 0 && received < count);
            }
            Err(e) => {
                eprintln!("cfa-serve subscribe: {e}");
                return 1;
            }
        }
    }
}

/// `stop`: ask a running server to shut down gracefully.
fn cmd_stop(args: &[String]) -> i32 {
    let addr = match addr_flag(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfa-serve stop: {e}");
            return 2;
        }
    };
    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.shutdown_server() {
        Ok(()) => {
            println!("server stopping");
            0
        }
        Err(e) => {
            eprintln!("cfa-serve stop: {e}");
            1
        }
    }
}

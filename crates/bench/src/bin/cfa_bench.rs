//! `cfa-bench` — scenario-scale utilities for the experiment harness.
//!
//! The one subcommand so far is `fleet`: mass-produce labelled training
//! corpora by running many seeded scenarios across threads and writing
//! one CSV per (seed, vantage) bundle plus a deterministic manifest.
//!
//! ```text
//! cfa-bench fleet --protocol aodv --scale 500 --duration 300 \
//!     --seeds 1..9 --threads 4 --attack blackhole --vantages 0,3 \
//!     --out corpus/
//! ```
//!
//! Output bits are identical for every `--threads` value (the
//! `map_chunks` contract); the summary line reports the fleet checksum so
//! two machines can compare corpora without diffing files.

use manet_cfa::core::Parallelism;
use manet_cfa::fleet::{run_fleet, write_fleet};
use manet_cfa::scenario::{Attack, Protocol, Scenario, Transport};
use manet_cfa::sim::NodeId;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fleet") => fleet(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cfa-bench — scenario-scale experiment utilities

USAGE:
    cfa-bench fleet [OPTIONS] --out DIR

OPTIONS (fleet):
    --protocol aodv|dsr     routing protocol            [default: aodv]
    --transport cbr|tcp     traffic transport           [default: cbr]
    --scale N               N nodes at the paper's density (field and
                            connection cap scale with N)
    --nodes N               node count                  [default: 50]
    --world W H             field size in metres        [default: 1000 1000]
    --connections N         connection cap              [default: 100]
    --duration SECS         virtual seconds per run     [default: 300]
    --seeds A,B,C | A..B    scenario seeds              [default: 1..5]
    --vantages A,B,C        monitored node ids          [default: 0]
    --threads N             worker threads              [default: CFA_THREADS/auto]
    --attack blackhole|storm|none
                            attack at 40% of the run    [default: none]
    --out DIR               output directory (required)
";

/// Hard ceiling on the number of seeds one fleet invocation may expand
/// to: `--seeds 0..u64::MAX` must fail at parse time, not OOM collecting
/// the range.
const MAX_FLEET_SEEDS: u64 = 65_536;

/// Hard ceiling on `--threads`; beyond this the spawn cost dwarfs any
/// parallel win and a typo'd huge value would exhaust the process.
const MAX_FLEET_THREADS: usize = 1024;

/// Parses `A,B,C` or the half-open range `A..B` into a seed list.
fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = s.split_once("..") {
        let lo: u64 = a.trim().parse().map_err(|_| format!("bad seed `{a}`"))?;
        let hi: u64 = b.trim().parse().map_err(|_| format!("bad seed `{b}`"))?;
        if hi <= lo {
            return Err(format!("empty seed range `{s}`"));
        }
        if hi - lo > MAX_FLEET_SEEDS {
            return Err(format!(
                "seed range `{s}` expands to {} seeds (max {MAX_FLEET_SEEDS})",
                hi - lo
            ));
        }
        Ok((lo..hi).collect())
    } else {
        s.split(',')
            .map(|t| t.trim().parse().map_err(|_| format!("bad seed `{t}`")))
            .collect()
    }
}

fn parse_vantages(s: &str) -> Result<Vec<NodeId>, String> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<u16>()
                .map(NodeId)
                .map_err(|_| format!("bad vantage node `{t}`"))
        })
        .collect()
}

struct FleetArgs {
    base: Scenario,
    seeds: Vec<u64>,
    vantages: Vec<NodeId>,
    out: PathBuf,
    threads: usize,
}

fn parse_fleet_args(args: &[String]) -> Result<FleetArgs, String> {
    let mut protocol = Protocol::Aodv;
    let mut transport = Transport::Cbr;
    let mut scale: Option<u16> = None;
    let mut nodes: Option<u16> = None;
    let mut world: Option<(f64, f64)> = None;
    let mut connections: Option<usize> = None;
    let mut duration = 300.0;
    let mut seeds: Vec<u64> = (1..5).collect();
    let mut vantages = vec![NodeId(0)];
    let mut threads = Parallelism::from_env().n_threads();
    let mut attack = "none".to_string();
    let mut out: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut next = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--protocol" => {
                protocol = match next("a protocol")?.as_str() {
                    "aodv" => Protocol::Aodv,
                    "dsr" => Protocol::Dsr,
                    p => return Err(format!("unknown protocol `{p}`")),
                }
            }
            "--transport" => {
                transport = match next("a transport")?.as_str() {
                    "cbr" | "udp" => Transport::Cbr,
                    "tcp" => Transport::Tcp,
                    t => return Err(format!("unknown transport `{t}`")),
                }
            }
            "--scale" => {
                let v = next("a node count")?;
                scale = Some(v.parse().map_err(|_| format!("bad scale `{v}`"))?);
            }
            "--nodes" => {
                let v = next("a node count")?;
                nodes = Some(v.parse().map_err(|_| format!("bad node count `{v}`"))?);
            }
            "--world" => {
                let w = next("a width")?.clone();
                let h = next("a height")?;
                world = Some((
                    w.parse().map_err(|_| format!("bad width `{w}`"))?,
                    h.parse().map_err(|_| format!("bad height `{h}`"))?,
                ));
            }
            "--connections" => {
                let v = next("a connection cap")?;
                connections = Some(v.parse().map_err(|_| format!("bad connections `{v}`"))?);
            }
            "--duration" => {
                let v = next("seconds")?;
                duration = v.parse().map_err(|_| format!("bad duration `{v}`"))?;
            }
            "--seeds" => seeds = parse_seeds(next("a seed list")?)?,
            "--vantages" => vantages = parse_vantages(next("a node list")?)?,
            "--threads" => {
                let v = next("a thread count")?;
                threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--attack" => attack = next("an attack kind")?.clone(),
            "--out" => out = Some(PathBuf::from(next("a directory")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let mut base = Scenario::paper_default(protocol, transport).with_duration(duration);
    if let Some(n) = scale {
        base = base.with_scale(n);
    }
    if let Some(n) = nodes {
        base = base.with_nodes(n);
    }
    if let Some((w, h)) = world {
        base = base.with_world(w, h);
    }
    if let Some(c) = connections {
        base = base.with_connections(c);
    }
    match attack.as_str() {
        "none" => {}
        "blackhole" => base = base.with_attack(Attack::blackhole_at(&[duration * 0.4])),
        "storm" => base = base.with_attack(Attack::storm_at(&[duration * 0.4])),
        a => return Err(format!("unknown attack `{a}`")),
    }
    for v in &vantages {
        if v.index() >= usize::from(base.n_nodes) {
            return Err(format!("vantage {} out of range", v.index()));
        }
        if base.attacks.iter().any(|a| a.attacker == *v) {
            return Err(format!("vantage {} is the attacker", v.index()));
        }
    }
    Ok(FleetArgs {
        base,
        seeds,
        vantages,
        out: out.ok_or("--out DIR is required")?,
        threads,
    })
}

fn fleet(args: &[String]) -> ExitCode {
    let parsed = match parse_fleet_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa-bench fleet: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Range validation at the trust boundary: every job count derived
    // from CLI input downstream of here (fan-out width, per-run scratch)
    // is bounded by these caps.
    if parsed.seeds.len() as u64 > MAX_FLEET_SEEDS || parsed.threads > MAX_FLEET_THREADS {
        eprintln!(
            "cfa-bench fleet: {} seeds / {} threads exceeds the fleet caps ({MAX_FLEET_SEEDS} / {MAX_FLEET_THREADS})",
            parsed.seeds.len(),
            parsed.threads,
        );
        return ExitCode::FAILURE;
    }
    let base = &parsed.base;
    println!(
        "fleet: {} {} — {} nodes on {:.0}x{:.0} m, {} s, {} seeds x {} vantages, {} threads",
        base.protocol.name(),
        base.transport.name(),
        base.n_nodes,
        base.width,
        base.height,
        base.duration_secs,
        parsed.seeds.len(),
        parsed.vantages.len(),
        parsed.threads,
    );
    let runs: Vec<(Scenario, Vec<NodeId>)> = parsed
        .seeds
        .iter()
        .map(|&seed| (base.clone().with_seed(seed), parsed.vantages.clone()))
        .collect();
    let started = std::time::Instant::now();
    let result = run_fleet(&runs, Parallelism::threads(parsed.threads));
    let elapsed = started.elapsed().as_secs_f64();
    match write_fleet(&result, &parsed.out) {
        Ok(manifest) => {
            println!(
                "{} runs, {} rows in {elapsed:.1} s — checksum {:016x}\nmanifest: {}",
                result.runs.len(),
                result.total_rows(),
                result.checksum(),
                manifest.display(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cfa-bench fleet: writing {}: {e}", parsed.out.display());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<FleetArgs, String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        parse_fleet_args(&args)
    }

    #[test]
    fn an_attacker_vantage_is_a_usage_error() {
        let err = parse("--attack blackhole --vantages 0,3,7 --out x").err();
        assert_eq!(err.as_deref(), Some("vantage 7 is the attacker"));
        assert!(parse("--attack blackhole --vantages 0,3,8,11 --out x").is_ok());
        assert!(
            parse("--vantages 0,3,7 --out x").is_ok(),
            "no attack, no attacker"
        );
    }
}

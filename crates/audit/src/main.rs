//! `cfa-audit` — scan the workspace for determinism violations.
//!
//! Usage:
//!
//! ```text
//! cargo run -p cfa-audit                        # scan the workspace, text report
//! cargo run -p cfa-audit -- <path>              # scan another tree (e.g. a fixture)
//! cargo run -p cfa-audit -- --format sarif      # SARIF 2.1.0 to stdout
//! cargo run -p cfa-audit -- --format json       # native JSON report
//! cargo run -p cfa-audit -- --rules             # print the rule table
//! ```
//!
//! Every finding fails the run: exits non-zero iff at least one finding
//! survives its allow annotations, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use cfa_audit::{scan_tree_with_stats, to_json, to_sarif, Rule};

fn workspace_root() -> PathBuf {
    // crates/audit/ -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn usage() -> ExitCode {
    eprintln!("usage: cfa-audit [<root>] [--format text|json|sarif] [--rules]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                for rule in Rule::ALL {
                    println!("{rule}  {}", rule.summary());
                    println!("      fix: {}", rule.hint());
                }
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                _ => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            path => {
                if root.replace(PathBuf::from(path)).is_some() {
                    return usage();
                }
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    // audit: allow(D002, reason = "measures the scan's own wall time for the stderr footer; never feeds scoring or simulation")
    let scan_started = std::time::Instant::now();
    let (findings, stats) = match scan_tree_with_stats(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cfa-audit: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    // Stderr, so the stdout report stays byte-identical across runs.
    eprintln!(
        "cfa-audit: scanned {} files / {} lines / {} functions in {:.0} ms",
        stats.files,
        stats.lines,
        stats.functions,
        scan_started.elapsed().as_secs_f64() * 1000.0
    );

    match format {
        Format::Json => print!("{}", to_json(&findings)),
        Format::Sarif => print!("{}", to_sarif(&findings)),
        Format::Text => {
            if findings.is_empty() {
                println!("cfa-audit: clean ({} rules, no findings)", Rule::ALL.len());
            } else {
                for f in &findings {
                    println!("{f}");
                    println!("    fix: {}", f.rule.hint());
                }
                println!(
                    "cfa-audit: {} finding{} — see `cargo run -p cfa-audit -- --rules`",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                );
            }
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

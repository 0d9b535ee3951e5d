//! The interprocedural rules D006–D008, evaluated over the workspace
//! [`crate::graph::CallGraph`].
//!
//! * **D006 — panic reachability.** No `panic!`-family macro, `unwrap`/
//!   `expect`, or slice/array indexing may be transitively reachable from
//!   a [`PANIC_ROOTS`] entry: the simulator's per-event dispatch
//!   (`Simulator::run` / `Simulator::run_until`), the prediction entry
//!   points, the fleet driver, or the serving event loop and scoring
//!   workers. A panic on the simulation or predict path aborts a training
//!   or calibration run mid-stream — the silent corruption the paper's
//!   threshold selection cannot tolerate.
//! * **D007 — unbounded growth.** A type whose event-path methods grow a
//!   `self` field (`insert`/`push`/…) must evict from that same field
//!   somewhere in the type (`remove`/`retain`/`truncate`/…), mirroring
//!   the FloodAgent 60 s / 4096-entry bound; otherwise per-event state
//!   grows without limit over a long run.
//! * **D008 — allocation in the hot predict path.** `Vec::new`,
//!   `to_vec`, `clone`, `format!`, `collect`, … must not be reachable
//!   from the per-row scoring path (`predict_row`, `class_probs_into`,
//!   `score_all`, `score_snapshot_with`, …): that path is advertised
//!   zero-alloc and the ensemble calls it `L` times per event.
//!
//! The dataflow rules D009–D010 are emitted here too: the
//! [`crate::dataflow`] pass mines the per-function facts (float
//! reductions over parallel results, truncating casts on tracked wide
//! values) and this layer applies the interprocedural gate — D010 fires
//! only in functions reachable from the panic/predict hot roots.
//!
//! Suppression: `// audit: allow(D006, reason = "...")` at the site (or
//! the line above). For panic sites, an existing `allow(D004, ...)`
//! justification also suppresses D006 — both rules police the same
//! contract and one written reason is enough. For D009, the allow's
//! `reason` doubles as the *documented canonical combine order* the rule
//! demands.

use crate::graph::CallGraph;
use crate::{Finding, Rule};
use std::collections::BTreeMap;

/// Qualified roots of the event-dispatch path.
pub const EVENT_ROOTS: [&str; 2] = ["Simulator::run", "Simulator::run_until"];

/// Roots of D006 panic reachability: the event path, the interpreted
/// and compiled scoring entries, the fleet driver, and the serving event
/// loop. `CompiledEnsemble::score_row`/`score_batch` must fail loudly at
/// their asserted width check, never via an unjustified panic deeper in
/// the walk; `run_fleet` drives whole batches of simulations across
/// worker threads, so any panic it reaches takes the fleet down; and
/// `Reactor::run` is cfa-serve's single event loop, whose panic drops
/// every client at once, with `score_job` the worker-side scoring entry
/// it dispatches to.
pub const PANIC_ROOTS: [&str; 8] = [
    "Simulator::run",
    "Simulator::run_until",
    "predict_row",
    "CompiledEnsemble::score_row",
    "CompiledEnsemble::score_batch",
    "run_fleet",
    "Reactor::run",
    "score_job",
];

/// Bare-name roots of the zero-alloc predict/score path.
/// `score_rows_into` is the serving hot loop in `cfa-serve` — a network
/// request must not allocate per row any more than a simulation event.
/// The compiled engine's entry points (`CompiledEnsemble`'s row and
/// structure-of-arrays batch scorers, and the detector's batch router)
/// are held to the same per-row zero-allocation contract as the
/// interpreted walk; they are qualified so the client-side convenience
/// `Client::score_batch` (which builds a wire frame per request) stays
/// out of the hot-path net.
pub const PREDICT_ROOTS: [&str; 15] = [
    "predict_row",
    "prob_of_row",
    "class_probs_into",
    "score_all",
    "score_indices",
    "one_model_score",
    "score_snapshot_with",
    "score_rows_into",
    "CompiledEnsemble::score_row",
    "CompiledEnsemble::score_batch",
    "score_rows_with",
    // The spatial grid's neighbor query runs once per transmitted frame —
    // the kernel's hottest loop — and must reuse caller scratch, never
    // allocate per query.
    "SpatialGrid::candidates_into",
    // Alarm fan-out runs on the reactor thread for every alarm × every
    // subscriber; it must reuse its frame scratch and never allocate (or
    // block) per event, or a popular model stalls the whole event loop.
    "fanout_alarms",
    // Splitting a SCORE request across idle workers and merging its parts
    // run on the reactor thread for every split request; they fill and
    // drain recycled job buffers only.
    "fill_part",
    "merge_parts",
];

/// Per-file context the interprocedural pass needs back from the lexical
/// pass: the raw source lines (for snippets) and a suppression check.
pub struct FileCtx {
    /// Raw source lines of the file.
    pub lines: Vec<String>,
    /// `(rule, line)` pairs with a justified allow.
    pub allowed: Vec<(Rule, usize)>,
}

impl FileCtx {
    pub(crate) fn is_allowed(&self, rule: Rule, line: usize) -> bool {
        self.allowed.contains(&(rule, line))
    }

    pub(crate) fn snippet(&self, line1: usize) -> String {
        self.lines
            .get(line1.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Renders a call chain for a finding note, eliding the middle of long
/// chains so messages stay readable.
pub(crate) fn render_chain(chain: &[String]) -> String {
    if chain.len() <= 6 {
        chain.join(" → ")
    } else {
        let head = chain[..3].join(" → ");
        let tail = chain[chain.len() - 2..].join(" → ");
        format!("{head} → … → {tail}")
    }
}

/// Runs D006–D008 over the graph. `files` maps workspace-relative paths
/// to their lexical context.
pub fn check(graph: &CallGraph, files: &BTreeMap<String, FileCtx>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // --- D006: panic reachability --------------------------------------
    let parent = graph.reachable(&graph.roots(&PANIC_ROOTS));
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || parent[i].is_none() {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let chain = render_chain(&graph.chain(&parent, i));
        for site in &f.panics {
            // A justified D004 (hot-path panic contract) allow covers the
            // same site for D006.
            if ctx.is_allowed(Rule::D006, site.line) || ctx.is_allowed(Rule::D004, site.line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::D006,
                file: f.file.clone(),
                line: site.line,
                snippet: ctx.snippet(site.line),
                note: Some(format!("{} reachable via {chain}", site.what)),
                severity: Rule::D006.severity(),
            });
        }
    }

    // --- D007: unbounded growth on the event path ----------------------
    let event_parent = graph.reachable(&graph.roots(&EVENT_ROOTS));
    // Eviction index: (owner type, field) pairs evicted anywhere.
    let mut evicted: Vec<(&str, &str)> = Vec::new();
    for f in &graph.fns {
        if let Some(owner) = &f.owner {
            for e in &f.evicts {
                evicted.push((owner.as_str(), e.field.as_str()));
            }
        }
    }
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || event_parent[i].is_none() {
            continue;
        }
        let Some(owner) = &f.owner else { continue };
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let chain = render_chain(&graph.chain(&event_parent, i));
        for g in &f.grows {
            if evicted
                .iter()
                .any(|&(o, fd)| o == owner.as_str() && fd == g.field)
            {
                continue;
            }
            if ctx.is_allowed(Rule::D007, g.line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::D007,
                file: f.file.clone(),
                line: g.line,
                snippet: ctx.snippet(g.line),
                note: Some(format!(
                    "{owner}.{field} grows via {method}() on the event path ({chain}) but no method of {owner} ever evicts from it",
                    field = g.field,
                    method = g.method,
                )),
                severity: Rule::D007.severity(),
            });
        }
    }

    // --- D009: non-canonical float reduction ---------------------------
    // Purely intraprocedural facts, applied to all non-test code: float
    // addition is non-associative, so the combine order of per-chunk /
    // per-thread partial results is part of the bit-determinism contract.
    // A justified allow is the documentation the rule demands.
    for f in &graph.fns {
        if f.is_test {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        for site in &f.flow.reductions {
            if ctx.is_allowed(Rule::D009, site.line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::D009,
                file: f.file.clone(),
                line: site.line,
                snippet: ctx.snippet(site.line),
                note: Some(format!(
                    "{} — float addition is non-associative; the combine order must be documented as thread-count invariant",
                    site.what
                )),
                severity: Rule::D009.severity(),
            });
        }
    }

    // --- D010: truncating casts on hot paths ---------------------------
    // A silently-truncating `as` on an id/index/time wide value corrupts
    // data instead of failing; on the panic-policed and predict paths the
    // contract is "fail loudly or prove the range". The gate is the union
    // of the D006 panic roots and the D008 predict roots.
    let hot_roots: Vec<&str> = PANIC_ROOTS
        .iter()
        .copied()
        .chain(PREDICT_ROOTS.iter().copied())
        .collect();
    let hot_parent = graph.reachable(&graph.roots(&hot_roots));
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || hot_parent[i].is_none() {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let chain = render_chain(&graph.chain(&hot_parent, i));
        for site in &f.flow.casts {
            if ctx.is_allowed(Rule::D010, site.line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::D010,
                file: f.file.clone(),
                line: site.line,
                snippet: ctx.snippet(site.line),
                note: Some(format!("{}, reachable via {chain}", site.what)),
                severity: Rule::D010.severity(),
            });
        }
    }

    // --- D008: allocation in the predict path --------------------------
    let predict_parent = graph.reachable(&graph.roots(&PREDICT_ROOTS));
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || predict_parent[i].is_none() {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let chain = render_chain(&graph.chain(&predict_parent, i));
        for site in &f.allocs {
            if ctx.is_allowed(Rule::D008, site.line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::D008,
                file: f.file.clone(),
                line: site.line,
                snippet: ctx.snippet(site.line),
                note: Some(format!(
                    "{} allocates on the zero-alloc predict path, reachable via {chain}",
                    site.what
                )),
                severity: Rule::D008.severity(),
            });
        }
    }

    findings
}

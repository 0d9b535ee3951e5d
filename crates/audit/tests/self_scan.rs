//! The acceptance gates for the analyzer itself:
//!
//! 1. the shipped workspace is clean — every violation has been fixed or
//!    carries a justified `audit: allow`,
//! 2. the seeded fixture tree trips every rule (lexical and
//!    interprocedural), so the scan cannot have silently gone blind,
//! 3. every reachability root names a live workspace function,
//! 4. two scans of the same tree emit byte-identical reports, equal to
//!    the committed golden report of the fixture, and
//! 5. the command line rejects every flag it does not list.

use std::path::{Path, PathBuf};

use cfa_audit::graph::{CallGraph, Packages};
use cfa_audit::interproc::{EVENT_ROOTS, PANIC_ROOTS, PREDICT_ROOTS};
use cfa_audit::lexer::lex;
use cfa_audit::parser::{parse_file, FnDef};
use cfa_audit::{scan_tree, to_json, Rule};

fn audit_crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    audit_crate_dir().join("../..").canonicalize().unwrap()
}

#[test]
fn shipped_workspace_is_clean() {
    let findings = scan_tree(&workspace_root()).unwrap();
    let shown: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(
        shown.is_empty(),
        "the shipped tree must audit clean; findings:\n{}",
        shown.join("\n")
    );
}

/// Parses every `.rs` file under the `src/` trees of the workspace (the
/// root crate and each member) into the call graph the rules run on.
fn workspace_graph() -> CallGraph {
    fn walk(root: &Path, dir: &Path, fns: &mut Vec<FnDef>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(root, &path, fns);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                let src = std::fs::read_to_string(&path).unwrap();
                fns.extend(parse_file(&rel.replace('\\', "/"), &src, &lex(&src), false));
            }
        }
    }
    let root = workspace_root();
    let mut fns = Vec::new();
    walk(&root, &root.join("src"), &mut fns);
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for src in members {
        walk(&root, &src, &mut fns);
    }
    CallGraph::build(fns, Packages::default())
}

#[test]
fn every_reachability_root_names_a_workspace_function() {
    // A root that names nothing silently turns its rule off while the
    // rule keeps passing — a rename elsewhere must fail here instead.
    let graph = workspace_graph();
    let dead: Vec<&str> = PANIC_ROOTS
        .iter()
        .chain(&EVENT_ROOTS)
        .chain(&PREDICT_ROOTS)
        .copied()
        .filter(|r| graph.roots(&[r]).is_empty())
        .collect();
    assert!(
        dead.is_empty(),
        "roots matching no non-test function: {dead:?}"
    );
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    for rule in Rule::ALL {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "seeded fixture no longer trips {rule}; findings: {findings:?}"
        );
    }
    // The justified allow in the fixture must still suppress its line.
    assert!(
        !findings
            .iter()
            .any(|f| f.snippet.contains("keys().count()")),
        "allowed-with-reason line was flagged: {findings:?}"
    );
}

#[test]
fn fixture_interprocedural_findings_carry_call_chains() {
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("sim/src/simulator.rs"))
        .expect("fixture D006");
    let note = d006.note.as_deref().unwrap_or("");
    assert!(
        note.contains("Simulator::run") && note.contains("Simulator::dispatch"),
        "D006 note must show the reaching chain, got: {note}"
    );
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("ml/src/model.rs"))
        .expect("fixture D008");
    assert!(
        d008.note.as_deref().unwrap_or("").contains("predict_row"),
        "D008 note must show the predict-path root, got: {:?}",
        d008.note
    );
}

#[test]
fn fixture_serve_request_path_roots_are_live() {
    // The serving roots: `score_job` seeds D006 reachability and
    // `score_rows_into` seeds D008 reachability, so a panic or
    // allocation on the network request path cannot go blind.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("serve/src/handler.rs"))
        .expect("serve fixture D006");
    assert!(
        d006.note.as_deref().unwrap_or("").contains("score_job"),
        "serve D006 note must root at score_job, got: {:?}",
        d006.note
    );
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("serve/src/handler.rs"))
        .expect("serve fixture D008");
    assert!(
        d008.note
            .as_deref()
            .unwrap_or("")
            .contains("score_rows_into"),
        "serve D008 note must root at score_rows_into, got: {:?}",
        d008.note
    );
}

#[test]
fn fixture_compiled_engine_roots_are_live() {
    // The compiled-engine roots: `CompiledEnsemble::score_batch` (the
    // structure-of-arrays batch entry) and `CompiledEnsemble::score_row`
    // seed D008 and D006 reachability, so an allocation or panic planted
    // on the compiled scoring path is caught.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("ml/src/compiled.rs"))
        .expect("compiled-path fixture D008");
    assert!(
        d008.note
            .as_deref()
            .unwrap_or("")
            .contains("CompiledEnsemble::score"),
        "compiled D008 note must root at a CompiledEnsemble entry, got: {:?}",
        d008.note
    );
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("ml/src/compiled.rs"))
        .expect("compiled-path fixture D006");
    assert!(
        d006.note
            .as_deref()
            .unwrap_or("")
            .contains("CompiledEnsemble::score"),
        "compiled D006 note must root at a CompiledEnsemble entry, got: {:?}",
        d006.note
    );
}

#[test]
fn fixture_grid_and_fleet_roots_are_live() {
    // The kernel scale-up roots: `SpatialGrid::candidates_into` (the
    // per-frame neighbor query) seeds D008 reachability and `run_fleet`
    // (the corpus-production driver) seeds D006 reachability, so an
    // allocation in the grid query or a panic under the fleet driver is
    // caught.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("sim/src/grid.rs"))
        .expect("grid fixture D008");
    assert!(
        d008.note
            .as_deref()
            .unwrap_or("")
            .contains("candidates_into"),
        "grid D008 note must root at candidates_into, got: {:?}",
        d008.note
    );
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("sim/src/grid.rs"))
        .expect("fleet fixture D006");
    assert!(
        d006.note.as_deref().unwrap_or("").contains("run_fleet"),
        "fleet D006 note must root at run_fleet, got: {:?}",
        d006.note
    );
}

#[test]
fn fixture_reactor_fanout_and_registry_roots_are_live() {
    // The fleet front-end roots: `Reactor::run` seeds D006 reachability
    // (a panic in the event loop drops every connection at once),
    // `fanout_alarms` seeds D008 (a per-alarm allocation stalls the
    // loop), and the registry-swap lock pair keeps the D014 cycle check
    // pointed at the name → model map.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("serve/src/reactor.rs"))
        .expect("reactor fixture D006");
    assert!(
        d006.note.as_deref().unwrap_or("").contains("Reactor::run"),
        "reactor D006 note must root at Reactor::run, got: {:?}",
        d006.note
    );
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("serve/src/reactor.rs"))
        .expect("fan-out fixture D008");
    assert!(
        d008.note.as_deref().unwrap_or("").contains("fanout_alarms"),
        "fan-out D008 note must root at fanout_alarms, got: {:?}",
        d008.note
    );
    let d014 = findings
        .iter()
        .find(|f| f.rule == Rule::D014 && f.file.ends_with("serve/src/reactor.rs"))
        .expect("registry-swap fixture D014");
    assert!(
        d014.note
            .as_deref()
            .unwrap_or("")
            .contains("lock-order cycle"),
        "registry-swap D014 note must name the cycle, got: {:?}",
        d014.note
    );
}

#[test]
fn fixture_taint_findings_carry_source_to_sink_chains() {
    // The taint layer's findings must read like D006's: the note names
    // the untrusted source and the call chain from source to sink.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d012 = findings
        .iter()
        .find(|f| f.rule == Rule::D012 && f.file.ends_with("serve/src/frame.rs"))
        .expect("taint fixture D012");
    let note = d012.note.as_deref().unwrap_or("");
    assert!(
        note.contains("stream.read_exact")
            && note.contains("read_frame")
            && note.contains("alloc_body"),
        "D012 note must carry the source and the source→sink chain, got: {note}"
    );
    let d013 = findings
        .iter()
        .find(|f| f.rule == Rule::D013 && f.file.ends_with("serve/src/frame.rs"))
        .expect("taint fixture D013");
    assert!(
        d013.note.as_deref().unwrap_or("").contains("stream.read"),
        "D013 note must name the network source, got: {:?}",
        d013.note
    );
}

#[test]
fn fixture_lock_findings_cover_cycle_and_blocking_guard() {
    // Both D014 shapes stay live: the snapshot/retire reverse-order
    // cycle, and the guard relay holds across forward's socket write.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d014: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == Rule::D014)
        .filter_map(|f| f.note.as_deref())
        .collect();
    assert!(
        d014.iter().any(|n| n.contains("lock-order cycle")),
        "fixture must trip the D014 lock-order cycle, got: {d014:?}"
    );
    assert!(
        d014.iter()
            .any(|n| n.contains("blocking call") && n.contains("write_all")),
        "fixture must trip the D014 blocking-guard check, got: {d014:?}"
    );
}

#[test]
fn fixture_findings_are_ordered_and_located() {
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    // Ordering is (file, line, rule): sorted file keys, ascending lines.
    let keys: Vec<(&str, usize)> = findings.iter().map(|f| (f.file.as_str(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "findings must come out in deterministic (file, line) order"
    );
    assert!(findings.iter().all(|f| f.line > 0));
}

#[test]
fn repeated_scans_emit_byte_identical_reports() {
    // The fixture, not the clean workspace: two empty reports would
    // compare equal whatever the scan's order.
    let root = audit_crate_dir().join("fixtures/seeded");
    let run = || {
        let findings = scan_tree(&root).unwrap();
        (findings.len(), to_json(&findings))
    };
    let (n, json_a) = run();
    let (_, json_b) = run();
    assert!(n > 0, "the seeded fixture must produce findings");
    assert_eq!(json_a, json_b, "JSON report must be byte-deterministic");
}

#[test]
fn fixture_report_matches_the_golden_file() {
    // Every finding of the seeded fixture, byte for byte: a refactor of
    // the analyzer that changes any verdict, note or order fails here.
    let root = audit_crate_dir().join("fixtures/seeded");
    let golden = std::fs::read_to_string(audit_crate_dir().join("tests/seeded_report.json"))
        .expect("the golden report is committed");
    assert_eq!(to_json(&scan_tree(&root).unwrap()), golden);
}

#[test]
fn unlisted_flags_exit_nonzero_with_the_usage_line() {
    for args in [&["--fix"][..], &["--threads", "2"], &["--format", "sarif"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cfa-audit"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.starts_with("usage: cfa-audit "),
            "{args:?} must print the usage line, got: {stderr}"
        );
    }
}

//! # cfa-audit
//!
//! A zero-dependency, four-layer static analyzer for the manet-cfa
//! workspace: a **lexical** determinism lint, an **interprocedural**
//! reachability layer over a workspace call graph, a per-function
//! **dataflow** value-tracking pass, and an interprocedural **taint**
//! pass for untrusted network/CLI input plus a lock-acquisition graph.
//! The repo's headline guarantees — a "bit-identical at any thread count"
//! ensemble and "batch == stream bit-for-bit" equivalence — rest on
//! discipline the compiler does not enforce: one careless `HashMap`
//! iteration, one wall-clock read, one reachable panic in the event loop,
//! one per-event allocation in the "zero-alloc" predict path, and the
//! reproducibility story silently rots. `cfa-audit` enforces it
//! statically, with no `syn` (the crate registry is unreachable from the
//! build hosts, so the analyzer is deliberately dependency-free): a
//! hand-rolled [`lexer`] is the shared front end, an item [`parser`]
//! extracts functions and walks each body once for its call expressions
//! and its dataflow and taint facts, and a [`graph::CallGraph`] resolves
//! the calls workspace-wide (name-based, with module/impl scoping, Rust's
//! privacy rules, package dependencies, declared parameter types and
//! trait default methods, conservative on trait dispatch).
//!
//! ## Rules
//!
//! | ID   | Layer | What it flags | Where |
//! |------|-------|---------------|-------|
//! | D001 | lexical | unordered iteration over `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`, `for _ in &map`, …) | deterministic crates (sim, routing, traffic, attacks, features, core, serve) and the root crate |
//! | D002 | lexical | wall clock / OS entropy (`SystemTime`, `Instant::now`, `thread_rng`, `RandomState`) | everywhere except `crates/bench` |
//! | D003 | lexical | `f64`/`f32` `==`/`!=` comparisons (use `to_bits()` or an epsilon) | non-test code |
//! | D004 | lexical | `unwrap()`/`expect()` in library hot paths | non-test code of sim, routing, features |
//! | D005 | lexical | bare `#[allow(...)]` without a justification comment | everywhere |
//! | D006 | interprocedural | `panic!`/`unwrap`/`expect`/slice indexing transitively reachable from a [`PANIC_ROOTS`](interproc::PANIC_ROOTS) entry (event dispatch, predict, fleet, serving) | whole workspace |
//! | D007 | interprocedural | a `self` field grown (`insert`/`push`/…) on the event path with no eviction/cap anywhere in the owning type | whole workspace |
//! | D008 | interprocedural | allocation (`Vec::new`, `to_vec`, `clone`, `format!`, `collect`, …) reachable from the zero-alloc predict/score path | whole workspace |
//! | D009 | dataflow | `f64` reduction (`sum::<f64>()`, float `fold`, `+=`) over parallel/chunked results without a documented canonical combine order | non-test code |
//! | D010 | dataflow | truncating cast (`as u16`/`as u32`/…) on a tracked wide value (u64/u128/SimTime/…) in a function reachable from the panic/predict hot roots | whole workspace |
//! | D012 | taint | network/CLI-tainted value used as an allocation size (`with_capacity`, `reserve`, `resize`, …) without a dominating bound check | whole workspace |
//! | D013 | taint | network/CLI-tainted value used in slice indexing or `wrapping_*`/`unchecked_*` arithmetic | whole workspace |
//! | D014 | taint | lock-order violation: a cycle in the lock-acquisition graph, or a lock held across blocking stream I/O or a call that reaches it | `crates/serve` |
//!
//! D011 (guard held across direct stream I/O) was folded into D014; its
//! ID stays retired so the others keep their numbers.
//!
//! ## Escape hatch
//!
//! A finding can be suppressed with a justified annotation on the same
//! line or the line above:
//!
//! ```text
//! // audit: allow(D001, reason = "summing lengths; order cannot escape")
//! ```
//!
//! The `reason` is mandatory — an allow without one is itself reported.
//! For panic sites, a justified `allow(D004, …)` also covers D006: both
//! rules police the same panic contract, one written reason suffices.
//!
//! Every surviving finding fails the run; there is no baseline of
//! grandfathered findings. The JSON report ([`to_json`]) is
//! byte-deterministic for identical trees.

pub mod dataflow;
pub mod emit;
pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod taint;
mod walk;

pub use emit::to_json;

use lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// A determinism rule enforced by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered iteration over a hash-based collection.
    D001,
    /// Wall-clock time or OS entropy.
    D002,
    /// Bitwise float equality comparison.
    D003,
    /// `unwrap`/`expect` in library hot-path code.
    D004,
    /// `#[allow(...)]` without a justification comment.
    D005,
    /// Panic reachable from event dispatch or the predict path.
    D006,
    /// Unbounded collection growth on the event path.
    D007,
    /// Allocation reachable from the zero-alloc predict path.
    D008,
    /// Non-canonical float reduction over parallel/chunked results.
    D009,
    /// Truncating integer cast on a wide value on a hot path.
    D010,
    /// Tainted value used as an allocation size without a bound check.
    D012,
    /// Tainted value used in indexing or unchecked/wrapping arithmetic.
    D013,
    /// Lock-order cycle or lock held across a blocking call.
    D014,
}

/// How severe a rule's findings are: [`Severity::Error`] findings are
/// correctness/reproducibility hazards, [`Severity::Warning`] findings
/// are performance-contract violations. Both gate CI; the JSON report
/// carries the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Correctness or reproducibility hazard.
    Error,
    /// Performance-contract violation.
    Warning,
}

impl Rule {
    /// Every rule, in id order.
    pub const ALL: [Rule; 13] = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::D005,
        Rule::D006,
        Rule::D007,
        Rule::D008,
        Rule::D009,
        Rule::D010,
        Rule::D012,
        Rule::D013,
        Rule::D014,
    ];

    /// The rule's stable identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::D006 => "D006",
            Rule::D007 => "D007",
            Rule::D008 => "D008",
            Rule::D009 => "D009",
            Rule::D010 => "D010",
            Rule::D012 => "D012",
            Rule::D013 => "D013",
            Rule::D014 => "D014",
        }
    }

    /// Parses an identifier like `D001`.
    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description of what the rule protects.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "unordered iteration over HashMap/HashSet in a deterministic crate",
            Rule::D002 => "wall-clock time or OS entropy outside crates/bench",
            Rule::D003 => "f64/f32 == or != comparison outside tests",
            Rule::D004 => "unwrap()/expect() in sim/routing/features library code",
            Rule::D005 => "#[allow(...)] without a justification comment",
            Rule::D006 => {
                "panic site reachable from the event loop (Simulator::run/run_until), prediction \
                 (predict_row, CompiledEnsemble::score_row/score_batch), run_fleet or serving \
                 (Reactor::run, score_job)"
            }
            Rule::D007 => {
                "collection grown on the event path with no eviction anywhere in its type"
            }
            Rule::D008 => "allocation reachable from the zero-alloc predict/score path",
            Rule::D009 => {
                "f64 reduction over parallel/chunked results without a documented combine order"
            }
            Rule::D010 => "truncating integer cast on a wide id/index/time value on a hot path",
            Rule::D012 => {
                "tainted value used as an allocation size without a dominating bound check"
            }
            Rule::D013 => "tainted value used in slice indexing or wrapping/unchecked arithmetic",
            Rule::D014 => {
                "lock-order cycle, or lock held across blocking I/O or a call reaching it"
            }
        }
    }

    /// The fix-it hint printed with each finding.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::D001 => "use std's BTreeMap/BTreeSet (ordered iteration) or manet_sim::det::NodeMap (dense NodeId keys); if order provably cannot escape, annotate `// audit: allow(D001, reason = \"...\")`",
            Rule::D002 => "derive all randomness from the scenario seed (SimRng streams) and all time from SimTime; benches belong in crates/bench",
            Rule::D003 => "compare with f64::to_bits()/total_cmp for exact identity, or an explicit epsilon for tolerance",
            Rule::D004 => "restructure with let-else/match so malformed input degrades gracefully; a documented panic contract needs `// audit: allow(D004, reason = \"...\")`",
            Rule::D005 => "add a same-line or preceding-line comment explaining why the lint is suppressed",
            Rule::D006 => "degrade gracefully with let-else/get(); an invariant the caller upholds needs `// audit: allow(D006, reason = \"...\")` (a justified allow(D004) also covers the site)",
            Rule::D007 => "bound the collection like FloodAgent's RREQ memory (time horizon + hard cap) or evict in the same type; a by-design full-retention sink needs `// audit: allow(D007, reason = \"...\")`",
            Rule::D008 => "pre-size and reuse caller-owned buffers (scratch pattern); a cold-path or setup allocation needs `// audit: allow(D008, reason = \"...\")`",
            Rule::D009 => "make the combine order canonical (ordered left-fold over map_chunks output, joins in spawn order) and document it with `// audit: allow(D009, reason = \"...\")` stating why the order is thread-count invariant",
            Rule::D010 => "use `Target::try_from(x)` and handle the error, or document the range invariant with `// audit: allow(D010, reason = \"...\")`",
            Rule::D012 => "validate the value against a cap before sizing an allocation with it — compare against a limit, go through a validated newtype like FrameLen, or use try_into/checked ops; a proven bound needs `// audit: allow(D012, reason = \"...\")`",
            Rule::D013 => "bound-check the value before indexing (get()/get_mut() degrade gracefully) and replace wrapping/unchecked arithmetic on untrusted input with checked ops; a proven bound needs `// audit: allow(D013, reason = \"...\")`",
            Rule::D014 => "acquire locks in one global order everywhere and drop every guard before calling anything that can block on a socket; an intentional ordering needs `// audit: allow(D014, reason = \"...\")`",
        }
    }

    /// The rule's severity tier.
    pub fn severity(self) -> Severity {
        match self {
            Rule::D008 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Extra context (e.g. the call chain that makes a panic reachable).
    pub note: Option<String>,
    /// The rule's severity tier.
    pub severity: Severity,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.file, self.line, self.snippet
        )?;
        if let Some(n) = &self.note {
            write!(f, " [{n}]")?;
        }
        Ok(())
    }
}

/// Which crates must stay iteration-order deterministic (rule D001).
const DETERMINISTIC_ROOTS: [&str; 8] = [
    "crates/sim/",
    "crates/routing/",
    "crates/traffic/",
    "crates/attacks/",
    "crates/features/",
    "crates/core/",
    "crates/serve/",
    "src/",
];

/// Which crates count as hot-path library code for rule D004.
const HOT_PATH_ROOTS: [&str; 3] = ["crates/sim/", "crates/routing/", "crates/features/"];

fn is_under(rel: &str, roots: &[&str]) -> bool {
    roots.iter().any(|r| rel.starts_with(r))
}

/// Whether a whole file is test/bench/example collateral (exempt from the
/// library-code rules D001/D003/D004 and from the call graph).
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

/// Parses an `audit: allow(Dxxx, reason = "...")` annotation out of the
/// text of one comment line, if present: the rule it names (`None` for
/// an unknown id) and whether a quoted reason follows.
fn parse_allow(comment: &str) -> Option<(Option<Rule>, bool)> {
    // The directive must lead the comment (` // audit: allow(...)`) so
    // that prose merely *mentioning* the syntax is never parsed.
    let rest = comment.trim_start().strip_prefix("audit:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    // Last close paren: the reason text may itself contain `()`.
    let close = rest.rfind(')')?;
    let args = &rest[..close];
    let mut parts = args.splitn(2, ',');
    let rule = Rule::from_id(parts.next().unwrap_or("").trim());
    let has_reason = parts
        .next()
        .map(|p| {
            let p = p.trim();
            p.strip_prefix("reason")
                .map(|r| {
                    let r = r.trim_start().trim_start_matches('=').trim();
                    // Demand an actual quoted, non-empty justification.
                    r.len() > 2 && r.starts_with('"') && r.ends_with('"')
                })
                .unwrap_or(false)
        })
        .unwrap_or(false);
    Some((rule, has_reason))
}

/// Methods that iterate a collection in its storage order (D001).
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_keys",
    "into_values",
    "into_iter",
];

/// The lexical analysis of one file: findings plus the allows the
/// interprocedural layer reuses.
struct FileScan {
    findings: Vec<Finding>,
    /// `(rule, line)` pairs carrying a justified allow.
    allowed_lines: Vec<(Rule, usize)>,
}

/// Scans one file's source text with the lexical rules (D001–D005).
/// `rel` is the workspace-relative path with forward slashes; it selects
/// which rules apply.
pub fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    scan_source_inner(rel, source, &lexer::lex(source)).findings
}

/// [`scan_source`] over the file's tokens `tokens`, the [`lexer::lex`]
/// of `source`: the allows come from its comment tokens, the rules match
/// runs of its code tokens.
fn scan_source_inner(rel: &str, source: &str, tokens: &[lexer::Token]) -> FileScan {
    let in_det_crate = is_under(rel, &DETERMINISTIC_ROOTS);
    let in_hot_crate = is_under(rel, &HOT_PATH_ROOTS);
    let in_bench = rel.starts_with("crates/bench/");
    let file_is_test = is_test_path(rel);
    let c = lexer::Cursor::new(source, tokens);
    let n = c.toks.len();
    let run = |i: usize, pat: &[&str]| pat.iter().enumerate().all(|(k, p)| c.text(i + k) == *p);
    let lines: Vec<&str> = source.lines().collect();
    let finding = |rule: Rule, line: usize, note: Option<&str>| Finding {
        rule,
        file: rel.to_string(),
        line,
        snippet: lines.get(line - 1).map_or("", |l| l.trim()).to_string(),
        note: note.map(str::to_string),
        severity: rule.severity(),
    };

    // Comment tokens, a block comment line by line: the allows, and the
    // lines that carry comment text (D005). An allow on a line that holds
    // no code token covers the next line as well.
    let mut findings = Vec::new();
    let mut allowed_lines = Vec::new();
    let mut commented = Vec::new();
    for tok in tokens {
        let text = tok.text(source);
        let body = match tok.kind {
            TokenKind::LineComment => text.trim_start_matches('/').trim_start_matches('!'),
            TokenKind::BlockComment => text
                .strip_prefix("/*")
                .and_then(|t| t.strip_suffix("*/"))
                .unwrap_or(text),
            _ => continue,
        };
        for (line, part) in (tok.line..).zip(body.split('\n')) {
            if !part.trim().is_empty() {
                commented.push(line);
            }
            // Malformed allows are findings in their own right: the
            // escape hatch requires both a known rule id and a reason.
            let (rule, note) = match parse_allow(part) {
                None => continue,
                Some((Some(rule), true)) => {
                    allowed_lines.push((rule, line));
                    if c.toks.binary_search_by_key(&line, |t| t.line).is_err() {
                        allowed_lines.push((rule, line + 1));
                    }
                    continue;
                }
                Some((Some(rule), false)) => (
                    rule,
                    "audit allow without a reason — the escape hatch requires reason = \"...\"",
                ),
                Some((None, _)) => (Rule::D005, "audit allow names an unknown rule id"),
            };
            findings.push(finding(rule, line, Some(note)));
        }
    }

    // The bindings the rules key on: `name: [&['a] [mut]] [a::b::]T` for a
    // hash collection or float type `T`, and `let [mut] name` statements
    // that build a hash collection.
    let (mut hash_names, mut float_names) = (BTreeSet::new(), BTreeSet::new());
    for i in 0..n {
        if c.is_ident(i) && c.is_punct(i + 1, ":") {
            let mut ty = i + 2;
            while c.is_punct(ty, "&")
                || c.is_word(ty, "mut")
                || c.toks
                    .get(ty)
                    .is_some_and(|t| t.kind == TokenKind::Lifetime)
            {
                ty += 1;
            }
            while c.is_ident(ty) && c.is_punct(ty + 1, "::") {
                ty += 2;
            }
            match c.text(ty) {
                "HashMap" | "HashSet" => hash_names.insert(c.text(i)),
                "f64" | "f32" => float_names.insert(c.text(i)),
                _ => false,
            };
        } else if c.is_word(i, "let") {
            let Some(l) = walk::let_stmt(&c, i, n) else {
                continue;
            };
            if (l.name..l.end).any(|k| run(k, &["HashMap", "::"]) || run(k, &["HashSet", "::"])) {
                hash_names.insert(c.text(l.name));
            }
        }
    }
    // The last segment of the `a.b.name` path that starts at token `k`.
    let path_end = |mut k: usize| {
        while c.is_punct(k + 1, ".") {
            k += 2;
        }
        k
    };
    let float = |k: usize| {
        float_names.contains(c.text(k))
            || c.toks.get(k).is_some_and(|t| t.kind == TokenKind::Num)
                && dataflow::float_literal(c.text(k))
    };
    let test_tail = (0..n)
        .find(|&i| run(i, &["#", "[", "cfg", "(", "test", ")"]))
        .map_or(usize::MAX, |i| c.line(i));

    let mut hits = Vec::new();
    for i in 0..n {
        let (t, line) = (c.text(i), c.line(i));
        let in_test = file_is_test || line >= test_tail;
        let mut hit = |rule: Rule| hits.push((line, rule));
        if in_det_crate && !in_test {
            // `name.iter()` and kin, or `for … in [&][mut] a.b.name {`.
            let method = hash_names.contains(t)
                && c.is_punct(i + 1, ".")
                && ITER_METHODS.contains(&c.text(i + 2))
                && c.is_punct(i + 3, "(");
            let for_in = t == "in" && {
                let k = i + 1 + usize::from(c.is_punct(i + 1, "&"));
                let k = path_end(k + usize::from(c.is_word(k, "mut")));
                hash_names.contains(c.text(k)) && c.is_punct(k + 1, "{")
            };
            if method || for_in {
                hit(Rule::D001);
            }
        }
        if !in_bench
            && (matches!(t, "SystemTime" | "thread_rng" | "RandomState")
                || run(i, &["Instant", "::", "now"]))
        {
            hit(Rule::D002);
        }
        if !in_test && (run(i, &["=", "="]) || run(i, &["!", "="])) {
            // The token on the left, or the right's `[*|-]a.b.name` path
            // when no call follows it, is a float literal or binding.
            let k = path_end(i + 2 + usize::from(c.is_punct(i + 2, "*") || c.is_punct(i + 2, "-")));
            if float(i.wrapping_sub(1)) || float(k) && !c.is_punct(k + 1, "(") {
                hit(Rule::D003);
            }
        }
        if in_hot_crate
            && !in_test
            && (run(i, &[".", "unwrap", "(", ")"]) || run(i, &[".", "expect", "("]))
        {
            hit(Rule::D004);
        }
        if (run(i, &["#", "[", "allow"]) || run(i, &["#", "!", "[", "allow"]))
            && !commented.contains(&line)
            && !lines
                .get(line.wrapping_sub(2))
                .is_some_and(|l| l.trim_start().starts_with("//"))
        {
            hit(Rule::D005);
        }
    }
    hits.sort_unstable();
    hits.dedup();
    findings.extend(
        hits.into_iter()
            .filter(|&(line, rule)| !allowed_lines.contains(&(rule, line)))
            .map(|(line, rule)| finding(rule, line, None)),
    );
    FileScan {
        findings,
        allowed_lines,
    }
}

/// Recursively collects the `.rs` files and the `Cargo.toml` manifests
/// under `dir`, skipping build output and VCS internals, in sorted
/// (deterministic) order.
fn collect_files(
    dir: &Path,
    sources: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures` holds deliberately-violating test trees; they are
            // scanned by pointing the binary at them directly.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_files(&path, sources, manifests)?;
        } else if name.ends_with(".rs") {
            sources.push(path);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        }
    }
    Ok(())
}

/// Size of a completed scan, for the report footer and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Total source lines across those files.
    pub lines: usize,
    /// Function definitions mined into the call graph.
    pub functions: usize,
}

/// Scans every `.rs` file under `root` (a workspace checkout) with all
/// four layers — the lexical rules per file, the dataflow pass per
/// function body, then the interprocedural reachability and taint rules
/// over the workspace call graph, scoped by the packages its `Cargo.toml`
/// files declare — and returns all findings (ordered by file, line, then
/// rule) plus scan-size statistics.
pub fn scan_tree_with_stats(root: &Path) -> std::io::Result<(Vec<Finding>, ScanStats)> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    collect_files(root, &mut sources, &mut manifests)?;
    let rel = |path: &Path| {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let mut findings = Vec::new();
    let mut fns: Vec<parser::FnDef> = Vec::new();
    let mut contexts: BTreeMap<String, interproc::FileCtx> = BTreeMap::new();
    let mut stats = ScanStats::default();
    for path in &sources {
        let rel = rel(path);
        let source = std::fs::read_to_string(path)?;
        let tokens = lexer::lex(&source);
        let scan = scan_source_inner(&rel, &source, &tokens);
        fns.extend(parser::parse_file(
            &rel,
            &source,
            &tokens,
            is_test_path(&rel),
        ));
        stats.files += 1;
        stats.lines += source.lines().count();
        findings.extend(scan.findings);
        let ctx = interproc::FileCtx {
            lines: source.lines().map(str::to_string).collect(),
            allowed: scan.allowed_lines,
        };
        contexts.insert(rel, ctx);
    }
    let manifests = manifests
        .iter()
        .map(|path| Ok((rel(path), std::fs::read_to_string(path)?)))
        .collect::<std::io::Result<Vec<_>>>()?;
    stats.functions = fns.len();
    let graph = graph::CallGraph::build(fns, graph::Packages::from_manifests(&manifests));
    findings.extend(interproc::check(&graph, &contexts));
    findings.extend(taint::check(&graph, &contexts));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.snippet.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.snippet.as_str(),
        ))
    });
    Ok((findings, stats))
}

/// [`scan_tree_with_stats`] without the statistics.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    scan_tree_with_stats(root).map(|(findings, _)| findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<Rule> {
        scan_source(rel, src).into_iter().map(|f| f.rule).collect()
    }

    const DET: &str = "crates/sim/src/fixture.rs";

    // --- D001 -----------------------------------------------------------

    #[test]
    fn d001_flags_hashmap_iteration() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Vec<u32> { s.m.values().copied().collect() }\n\
                   fn g() {\n    let seen =\n        HashMap::new();\n    for k in seen.keys() {}\n}\n\
                   fn h(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n\
                   fn i<'a>(n: &'a mut HashSet<u32>) -> usize { n.iter().count() }\n";
        assert_eq!(rules(DET, src), vec![Rule::D001; 4]);
    }

    #[test]
    fn d001_flags_for_loop_over_hashset() {
        let src = "fn f() {\n    let mut seen = HashSet::new();\n    seen.insert(1u32);\n    for x in &seen { println!(\"{x}\"); }\n}\n";
        assert_eq!(rules(DET, src), vec![Rule::D001]);
    }

    #[test]
    fn d001_allowed_with_reason() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   // audit: allow(D001, reason = \"summing; order cannot escape\")\n\
                   fn f(s: &S) -> usize { s.m.values().count() }\n";
        assert!(rules(DET, src).is_empty());
    }

    #[test]
    fn d001_allow_without_reason_is_reported() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   // audit: allow(D001)\n\
                   fn f(s: &S) -> usize { s.m.values().count() }\n";
        let got = rules(DET, src);
        // Both the malformed allow and the unsuppressed finding surface.
        assert_eq!(got, vec![Rule::D001, Rule::D001]);
    }

    #[test]
    fn d001_clean_on_detmap_and_lookups() {
        let src = "struct S { m: DetMap<u32, u32>, h: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Vec<u32> { s.m.values().copied().collect() }\n\
                   fn g(s: &S) -> Option<&u32> { s.h.get(&3) }\n";
        assert!(rules(DET, src).is_empty());
    }

    #[test]
    fn d001_ignores_non_deterministic_crates() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> usize { s.m.keys().count() }\n";
        assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
    }

    // --- D002 -----------------------------------------------------------

    #[test]
    fn d002_flags_wall_clock_and_entropy() {
        let src = "fn f() { let t = std::time::SystemTime::now(); }\n\
                   fn g() { let r = rand::thread_rng(); }\n\
                   fn h() { let t = Instant :: now(); }\n";
        assert_eq!(
            rules("crates/ml/src/fixture.rs", src),
            vec![Rule::D002, Rule::D002, Rule::D002]
        );
    }

    #[test]
    fn d002_allowed_with_reason() {
        let src = "// audit: allow(D002, reason = \"bench harness measures wall time\")\n\
                   fn f() { let t = Instant::now(); }\n";
        assert!(rules("crates/serve/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn d002_clean_in_bench_crate() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(rules("crates/bench/src/fixture.rs", src).is_empty());
    }

    // --- D003 -----------------------------------------------------------

    #[test]
    fn d003_flags_float_literal_equality() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n\
                   fn g(v: &[f64]) -> bool { v[0] == 1e-3 }\n\
                   fn h(s: &S) -> bool { s.total() != -1.0 }\n";
        assert_eq!(rules(DET, src), vec![Rule::D003, Rule::D003, Rule::D003]);
    }

    #[test]
    fn d003_flags_typed_float_identifier() {
        let src = "fn f(score: f64, threshold: f64) -> bool { score != threshold }\n\
                   fn g(x: &f64) -> bool { *x == y() }\n";
        assert_eq!(rules(DET, src), vec![Rule::D003, Rule::D003]);
    }

    #[test]
    fn d003_allowed_with_reason() {
        let src = "// audit: allow(D003, reason = \"exact sentinel propagated unchanged\")\n\
                   fn f(x: f64) -> bool { x == 0.0 }\n";
        assert!(rules(DET, src).is_empty());
    }

    #[test]
    fn d003_clean_on_to_bits_and_integers() {
        let src = "fn f(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }\n\
                   fn g(n: usize) -> bool { n == 3 }\n";
        assert!(rules(DET, src).is_empty());
    }

    #[test]
    fn d003_ignores_test_tail() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: f64) -> bool { x == 0.5 }\n}\n";
        assert!(rules(DET, src).is_empty());
    }

    // --- D004 -----------------------------------------------------------

    #[test]
    fn d004_flags_unwrap_in_hot_crate() {
        let src = "fn f(v: &[u32]) -> u32 { *v.last().unwrap() }\n\
                   fn g(v: Option<u32>) -> u32 { v . unwrap () }\n";
        assert_eq!(
            rules("crates/routing/src/fixture.rs", src),
            vec![Rule::D004, Rule::D004]
        );
    }

    #[test]
    fn d004_allowed_with_reason_on_same_line() {
        let src = "const USAGE: &str = \"usage:\\n\\\n    cfa\";\n\
                   fn f(v: &[u32]) -> u32 { *v.last().unwrap() } // audit: allow(D004, reason = \"caller guarantees non-empty\")\n";
        assert!(rules("crates/routing/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn d004_clean_outside_hot_crates_and_tests() {
        let hot_test = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(rules("crates/routing/src/fixture.rs", hot_test).is_empty());
        let cold = "fn f() { Some(1).unwrap(); }\n";
        assert!(rules("crates/ml/src/fixture.rs", cold).is_empty());
    }

    // --- D005 -----------------------------------------------------------

    #[test]
    fn d005_flags_bare_allow_attribute() {
        let src = "#[allow(dead_code)]\nfn f() {}\n# [allow(dead_code)]\nfn g() {}\n";
        assert_eq!(
            rules("crates/ml/src/fixture.rs", src),
            vec![Rule::D005, Rule::D005]
        );
    }

    #[test]
    fn d005_clean_with_same_line_justification() {
        let src = "#[allow(dead_code)] // kept for the serialization layout\nfn f() {}\n";
        assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn d005_clean_with_preceding_comment() {
        let src = "// the indices walk three arrays in lockstep\n#[allow(clippy::needless_range_loop)]\nfn f() {}\n";
        assert!(rules("crates/ml/src/fixture.rs", src).is_empty());
    }

    // --- engine details -------------------------------------------------

    #[test]
    fn string_literals_do_not_trigger_rules() {
        let src = "fn f() -> &'static str { \"call .unwrap() or thread_rng here\" }\n";
        assert!(rules("crates/routing/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_nested_comments_do_not_trigger_rules() {
        // Regression for the PR 3 scanner: the raw string's `//` is not a
        // comment, its `.unwrap()` is not code, and the nested block
        // comment does not end at the first `*/`.
        let src = "fn f() -> &'static str { r#\"no // comment, v.unwrap() text\"# }\n\
                   /* outer /* v.expect(\"x\") */ still comment .unwrap() */\n\
                   fn g<'a>(x: &'a [u32]) -> &'a [u32] { x }\n";
        assert!(rules("crates/routing/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn lifetime_heavy_signatures_do_not_confuse_the_lexer() {
        // `'a` used to open a phantom char literal and swallow code.
        let src = "fn f<'a>(v: &'a mut Vec<u32>) { v.last().unwrap(); }\n";
        assert_eq!(
            rules("crates/routing/src/fixture.rs", src),
            vec![Rule::D004]
        );
    }

    #[test]
    fn findings_carry_location_and_snippet() {
        let src = "fn f(v: &[u32]) -> u32 {\n    *v.last().unwrap()\n}\n";
        let got = scan_source("crates/sim/src/fixture.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
        assert_eq!(got[0].snippet, "*v.last().unwrap()");
        assert_eq!(got[0].severity, Severity::Error);
    }
}

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
//! extracts functions and call expressions, and a [`graph::CallGraph`]
//! resolves them workspace-wide (name-based, with module/impl scoping,
//! Rust's privacy rules, package dependencies and declared parameter
//! types, conservative on trait dispatch).
//!
//! ## Rules
//!
//! | ID   | Layer | What it flags | Where |
//! |------|-------|---------------|-------|
//! | D001 | lexical | unordered iteration over `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`, `for _ in &map`, …) | deterministic crates (sim, routing, traffic, attacks, features, core) and the root crate |
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
//! grandfathered findings. JSON and SARIF reports ([`to_json`],
//! [`to_sarif`]) are byte-deterministic for identical trees.

pub mod dataflow;
pub mod emit;
pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod taint;

pub use emit::{to_json, to_sarif};

use std::collections::BTreeMap;
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
/// are performance-contract violations. Both gate CI; the tier selects
/// the SARIF level CI annotates with.
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
            Rule::D006 => "panic site reachable from Simulator::run event dispatch or predict_row",
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
            Rule::D001 => "use manet_sim::det::{DetMap, DetSet} (ordered iteration) or IndexedMap (hot lookups); if order provably cannot escape, annotate `// audit: allow(D001, reason = \"...\")`",
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

/// A parsed `audit: allow(...)` annotation.
#[derive(Debug, Clone)]
struct Allow {
    rule: Option<Rule>,
    has_reason: bool,
    line: usize,
    /// True if the annotation's line had no code, so it covers the next
    /// code line as well.
    standalone: bool,
}

/// Parses an `audit: allow(Dxxx, reason = "...")` annotation out of a
/// comment, if present.
fn parse_allow(comment: &str, line: usize, standalone: bool) -> Option<Allow> {
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
    Some(Allow {
        rule,
        has_reason,
        line,
        standalone,
    })
}

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Finds `needle` in `hay` preceded by a non-identifier character (or the
/// start of the line).
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let ok_before = at == 0 || !is_ident_char(hay.as_bytes()[at - 1]);
        if ok_before {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

/// Extracts the identifier immediately before `pos` in `code`.
fn ident_before(code: &str, pos: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut end = pos;
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(&code[start..end])
    }
}

/// Collects identifiers bound to `HashMap`/`HashSet` in a file's code lines.
fn collect_hash_bindings(code_lines: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for code in code_lines {
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        // `name: [path::]HashMap<..>` (field, param or annotated let).
        let mut search = 0;
        while let Some(pos) = code[search..].find(':') {
            let at = search + pos;
            let after = code[at + 1..].trim_start();
            if (after.starts_with("HashMap") || after.starts_with("HashSet"))
                || (after.starts_with("std::collections::Hash"))
            {
                if let Some(name) = ident_before(code, at) {
                    if name != "let" && !names.iter().any(|n| n == name) {
                        names.push(name.to_string());
                    }
                }
            }
            search = at + 1;
        }
        // `let [mut] name = ... HashMap::new() / HashSet::with_capacity ...`
        if code.contains("HashMap::") || code.contains("HashSet::") {
            if let Some(let_pos) = code.find("let ") {
                let after_let = code[let_pos + 4..].trim_start();
                let after_let = after_let
                    .strip_prefix("mut ")
                    .unwrap_or(after_let)
                    .trim_start();
                let end = after_let
                    .find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
                    .unwrap_or(after_let.len());
                let name = &after_let[..end];
                if !name.is_empty() && !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

const ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_keys()",
    ".into_values()",
];

/// Checks a code line for unordered iteration over any of `names`.
fn d001_hit(code: &str, names: &[String]) -> bool {
    for name in names {
        // `name.iter()` etc — the receiver's last path segment is `name`.
        for m in ITER_METHODS {
            let pat = format!("{name}{m}");
            if contains_token(code, &pat) {
                return true;
            }
        }
        if contains_token(code, &format!("{name}.into_iter()")) {
            return true;
        }
        // `for x in &name` / `for x in &mut name` / `for x in name`.
        if let Some(in_pos) = code.find(" in ") {
            if code.trim_start().starts_with("for ") || code.contains(" for ") {
                let target = code[in_pos + 4..].trim_start();
                let target = target.strip_prefix('&').unwrap_or(target);
                let target = target.strip_prefix("mut ").unwrap_or(target).trim_start();
                // Strip leading path qualifiers like `self.`.
                let head_end = target
                    .find(|c: char| {
                        !(c == '_' || c == '.' || c == ':' || c.is_ascii_alphanumeric())
                    })
                    .unwrap_or(target.len());
                let head = &target[..head_end];
                let last = head.rsplit(['.', ':']).next().unwrap_or(head);
                if last == name {
                    return true;
                }
            }
        }
    }
    false
}

const D002_TOKENS: [&str; 4] = ["SystemTime", "Instant::now", "thread_rng", "RandomState"];

/// Collects identifiers bound to `f32`/`f64` in a file's code lines.
fn collect_float_bindings(code_lines: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for code in code_lines {
        if !(code.contains("f64") || code.contains("f32")) {
            continue;
        }
        let mut search = 0;
        while let Some(pos) = code[search..].find(':') {
            let at = search + pos;
            let after = code[at + 1..].trim_start();
            let is_float = ["f64", "f32"].iter().any(|t| {
                after
                    .strip_prefix(t)
                    .is_some_and(|rest| rest.is_empty() || !is_ident_char(rest.as_bytes()[0]))
            });
            if is_float {
                if let Some(name) = ident_before(code, at) {
                    if !names.iter().any(|n| n == name) {
                        names.push(name.to_string());
                    }
                }
            }
            search = at + 1;
        }
    }
    names
}

fn looks_like_float_literal(tok: &str) -> bool {
    let tok = tok.trim_end_matches("f64").trim_end_matches("f32");
    let mut seen_dot = false;
    let mut seen_digit = false;
    for c in tok.chars() {
        match c {
            '0'..='9' | '_' => seen_digit = true,
            '.' if !seen_dot => seen_dot = true,
            _ => return false,
        }
    }
    seen_digit && seen_dot
}

/// Checks a code line for a float `==`/`!=` comparison.
fn d003_hit(code: &str, float_names: &[String]) -> bool {
    for op in ["==", "!="] {
        let mut search = 0;
        while let Some(pos) = code[search..].find(op) {
            let at = search + pos;
            let lhs = code[..at].trim_end();
            let rhs = code[at + 2..].trim_start();
            let lhs_tok = lhs
                .rsplit(|c: char| c.is_whitespace() || "(,{[".contains(c))
                .next()
                .unwrap_or("");
            let rhs_tok = rhs
                .split(|c: char| c.is_whitespace() || ")],;{".contains(c))
                .next()
                .unwrap_or("");
            let float_side = |tok: &str| {
                looks_like_float_literal(tok)
                    || float_names.iter().any(|n| {
                        tok == n
                            || tok.ends_with(&format!(".{n}"))
                            || tok == format!("*{n}").as_str()
                    })
            };
            if float_side(lhs_tok) || float_side(rhs_tok) {
                return true;
            }
            search = at + 2;
        }
    }
    false
}

/// The lexical analysis of one file: findings plus the context the
/// interprocedural layer reuses (allows, raw lines).
struct FileScan {
    findings: Vec<Finding>,
    /// `(rule, 0-based line)` pairs carrying a justified allow.
    allowed_lines: Vec<(Rule, usize)>,
}

/// Scans one file's source text with the lexical rules (D001–D005).
/// `rel` is the workspace-relative path with forward slashes; it selects
/// which rules apply.
pub fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    scan_source_inner(rel, source).findings
}

fn scan_source_inner(rel: &str, source: &str) -> FileScan {
    let mut findings = Vec::new();
    let in_det_crate = is_under(rel, &DETERMINISTIC_ROOTS);
    let in_hot_crate = is_under(rel, &HOT_PATH_ROOTS);
    let in_bench = rel.starts_with("crates/bench/");
    let file_is_test = is_test_path(rel);

    // Front end: the real lexer splits every line into code and comment
    // channels (raw strings, nested block comments, lifetimes and char
    // literals all handled by `lexer::lex`).
    let masked = lexer::mask_lines(source);
    let mut code_lines: Vec<String> = Vec::with_capacity(masked.len());
    let mut comments: Vec<String> = Vec::with_capacity(masked.len());
    let mut allows: Vec<Allow> = Vec::new();
    let mut test_tail_start = usize::MAX;
    for (idx, (code, comment)) in masked.into_iter().enumerate() {
        if test_tail_start == usize::MAX && code.contains("#[cfg(test)]") {
            test_tail_start = idx;
        }
        let standalone = code.trim().is_empty();
        if let Some(allow) = parse_allow(&comment, idx, standalone) {
            allows.push(allow);
        }
        code_lines.push(code);
        comments.push(comment);
    }
    let hash_names = collect_hash_bindings(&code_lines);
    let float_names = collect_float_bindings(&code_lines);

    // Expand justified allows into per-line suppression slots.
    let mut allowed_lines: Vec<(Rule, usize)> = Vec::new();
    for a in &allows {
        if let (Some(rule), true) = (a.rule, a.has_reason) {
            allowed_lines.push((rule, a.line));
            if a.standalone {
                allowed_lines.push((rule, a.line + 1));
            }
        }
    }
    let allowed = |rule: Rule, line: usize| -> bool {
        allowed_lines.iter().any(|&(r, l)| r == rule && l == line)
    };

    // Malformed allows are findings in their own right: the escape hatch
    // requires both a known rule id and a written reason.
    for a in &allows {
        let (rule, note) = match (a.rule, a.has_reason) {
            (Some(_), true) => continue,
            (Some(r), false) => (
                r,
                "audit allow without a reason — the escape hatch requires reason = \"...\"",
            ),
            (None, _) => (Rule::D005, "audit allow names an unknown rule id"),
        };
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line: a.line + 1,
            snippet: source.lines().nth(a.line).unwrap_or("").trim().to_string(),
            note: Some(note.to_string()),
            severity: rule.severity(),
        });
    }

    for (idx, code) in code_lines.iter().enumerate() {
        let in_test = file_is_test || idx >= test_tail_start;
        let raw_snippet = || source.lines().nth(idx).unwrap_or("").trim().to_string();
        let push = |rule: Rule, findings: &mut Vec<Finding>| {
            if !allowed(rule, idx) {
                findings.push(Finding {
                    rule,
                    file: rel.to_string(),
                    line: idx + 1,
                    snippet: raw_snippet(),
                    note: None,
                    severity: rule.severity(),
                });
            }
        };

        if in_det_crate && !in_test && d001_hit(code, &hash_names) {
            push(Rule::D001, &mut findings);
        }
        if !in_bench && D002_TOKENS.iter().any(|t| contains_token(code, t)) {
            push(Rule::D002, &mut findings);
        }
        if !in_test && d003_hit(code, &float_names) {
            push(Rule::D003, &mut findings);
        }
        if in_hot_crate && !in_test && (code.contains(".unwrap()") || code.contains(".expect(")) {
            push(Rule::D004, &mut findings);
        }
        if code.contains("#[allow(") || code.contains("#![allow(") {
            let comment_here = !comments[idx].trim().is_empty();
            let comment_above = idx > 0
                && source
                    .lines()
                    .nth(idx - 1)
                    .map(|l| l.trim_start().starts_with("//"))
                    .unwrap_or(false);
            if !comment_here && !comment_above {
                push(Rule::D005, &mut findings);
            }
        }
    }
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
        let scan = scan_source_inner(&rel, &source);
        fns.extend(parser::parse_file(&rel, &source, is_test_path(&rel)));
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
                   fn f(s: &S) -> Vec<u32> { s.m.values().copied().collect() }\n";
        assert_eq!(rules(DET, src), vec![Rule::D001]);
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
                   fn g() { let r = rand::thread_rng(); }\n";
        assert_eq!(
            rules("crates/ml/src/fixture.rs", src),
            vec![Rule::D002, Rule::D002]
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
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(rules(DET, src), vec![Rule::D003]);
    }

    #[test]
    fn d003_flags_typed_float_identifier() {
        let src = "fn f(score: f64, threshold: f64) -> bool { score != threshold }\n";
        assert_eq!(rules(DET, src), vec![Rule::D003]);
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
        let src = "fn f(v: &[u32]) -> u32 { *v.last().unwrap() }\n";
        assert_eq!(
            rules("crates/routing/src/fixture.rs", src),
            vec![Rule::D004]
        );
    }

    #[test]
    fn d004_allowed_with_reason_on_same_line() {
        let src = "fn f(v: &[u32]) -> u32 { *v.last().unwrap() } // audit: allow(D004, reason = \"caller guarantees non-empty\")\n";
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
        let src = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules("crates/ml/src/fixture.rs", src), vec![Rule::D005]);
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

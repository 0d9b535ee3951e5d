//! The taint layer — rules D012–D014.
//!
//! Untrusted input enters this workspace at exactly three kinds of
//! places: bytes read off a `TcpStream` in `crates/serve`, CLI arguments
//! and scenario files in `cfa-bench`, and the fleet driver's scenario
//! parsing under `src/`. A length or index derived from those bytes must
//! pass a *sanitizer* — a dominating comparison against a cap, a
//! `try_into`/`checked_*` conversion, or construction of a validated
//! newtype like `FrameLen` — before it may size an allocation (D012) or
//! index a slice / feed wrapping arithmetic (D013).
//!
//! Mining happens at parse time ([`mine`]) because tokens are file-local
//! and dropped after parsing: each function body is lowered into a small
//! straight-line IR of [`TaintOp`]s (assignments with their source
//! identifiers, bound checks, calls with per-argument identifier lists,
//! sinks, returns). The interprocedural fixpoint in [`check`] then
//! propagates taint through the workspace call graph — argument →
//! parameter binding, return values, and `read(&mut buf)`-style
//! out-parameters — using the same conservative resolution as D006
//! ([`CallGraph::resolve`]). Findings carry the full source → sink call
//! chain, like D006 panic-reachability notes.
//!
//! D014 is the lock-discipline half: the dataflow pass records every
//! lock acquisition with the identities already held
//! ([`crate::dataflow::LockAcq`]) and every call made under a live guard
//! ([`crate::dataflow::GuardedCall`]). This layer builds the
//! lock-acquisition-order graph over `crates/serve`, flags any
//! acquisition that closes a cycle (the classic AB/BA deadlock), and
//! flags a guard held across blocking socket I/O (`accept`/`read`/`write`
//! family), whether the guarded call is that I/O itself or transitively
//! reaches it.
//!
//! Suppression: `// audit: allow(D012, reason = "...")` at the sink (or
//! the line above), same as every other rule.

use crate::dataflow::BLOCKING_METHODS;
use crate::graph::CallGraph;
use crate::interproc::{render_chain, FileCtx};
use crate::lexer::{Token, TokenKind};
use crate::parser::{CallKind, NON_CALL_KEYWORDS, NON_INDEX_KEYWORDS};
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// What kind of dangerous operation a tainted value reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Allocation sized by the value (`with_capacity`, `reserve`,
    /// `resize`, `vec![x; n]`).
    AllocSize,
    /// Slice/array indexing with the value.
    Index,
    /// Wrapping or unchecked arithmetic on the value.
    Arith,
}

/// One operation in the per-function taint IR, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaintOp {
    /// `let dst = …;` / `dst = …;` / `dst op= …;`. `srcs` are the
    /// identifiers read by the initializer, `source` is `Some` when the
    /// initializer calls a taint source directly (`env::args()`),
    /// `sanitized` when it passes through a recognized sanitizer, and
    /// `calls` are the op indices of `Call` ops mined from the same
    /// initializer (for return-value taint).
    Assign {
        /// Bound or assigned name (field stores bind the field name).
        dst: String,
        /// Identifiers the initializer reads.
        srcs: Vec<String>,
        /// Source description when the initializer is itself a source.
        source: Option<String>,
        /// True when the initializer passes a sanitizer.
        sanitized: bool,
        /// Op indices of `Call` ops inside the initializer.
        calls: Vec<usize>,
        /// 1-based source line.
        line: usize,
    },
    /// An identifier compared in an `if`/`while` condition — a dominating
    /// bound check, which clears its taint downstream.
    Check {
        /// The checked identifier.
        name: String,
    },
    /// An out-parameter filled from a read-family source call
    /// (`stream.read(&mut buf)` taints `buf`).
    SourceFill {
        /// The identifier the read fills.
        dst: String,
        /// Human description of the source.
        desc: String,
    },
    /// A call expression with per-argument identifier lists, for
    /// argument → parameter taint binding.
    Call {
        /// Callee name (last path segment / method name).
        name: String,
        /// Call shape, for graph resolution.
        kind: CallKind,
        /// Identifiers appearing in each argument position.
        args: Vec<Vec<String>>,
        /// 1-based source line.
        line: usize,
    },
    /// A dangerous operation consuming identifiers.
    Sink {
        /// Which kind of sink.
        kind: SinkKind,
        /// Display form (`with_capacity()`, `index []`).
        what: String,
        /// Identifiers feeding the sink.
        names: Vec<String>,
        /// 1-based source line.
        line: usize,
    },
    /// A `return expr;` or trailing expression — the identifiers whose
    /// taint escapes through the return value.
    Return {
        /// Identifiers in the returned expression.
        names: Vec<String>,
    },
}

/// The taint IR of one function body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnTaint {
    /// Ops in source order.
    pub ops: Vec<TaintOp>,
}

/// Identifiers never collected as taint carriers.
const IDENT_SKIP: [&str; 22] = [
    "mut", "ref", "as", "in", "if", "else", "match", "return", "let", "move", "self", "Some",
    "None", "Ok", "Err", "true", "false", "box", "loop", "while", "for", "break",
];

/// Read-family methods whose `&mut` argument is filled with untrusted
/// bytes when called in a source crate.
const READ_FILL_METHODS: [&str; 5] = [
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
];

/// Methods/functions whose numeric argument sizes an allocation.
const ALLOC_SIZE_METHODS: [&str; 6] = [
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "set_len",
];

/// Validated-newtype constructors that launder taint by construction.
/// `FrameLen::parse` rejects any length over the frame cap, so a value
/// that came through it is bounded.
const SANITIZER_TYPES: [&str; 1] = ["FrameLen"];

/// Lowers one function body to taint IR. `rel` decides whether source
/// seeding applies: only the serving crate, the bench crate, and the
/// fleet driver under `src/` receive untrusted input by design — the
/// audit tool's own file reads must not taint themselves.
pub fn mine(src: &str, toks: &[Token], body: (usize, usize), rel: &str) -> FnTaint {
    let seed = rel.starts_with("crates/serve/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("src/");
    let mut m = Miner {
        src,
        toks,
        ops: Vec::new(),
        seed,
    };
    m.walk(body.0, body.1);
    m.trailing_return(body.0, body.1);
    FnTaint { ops: m.ops }
}

struct Miner<'s, 't> {
    src: &'s str,
    toks: &'t [Token],
    ops: Vec<TaintOp>,
    seed: bool,
}

impl Miner<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Punct && self.text(i) == p
    }

    fn is_ident_at(&self, i: usize, id: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Ident && self.text(i) == id
    }

    fn ident_kind(&self, i: usize) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Ident
    }

    /// Index one past the `)` matching the `(` at `open`.
    fn matching_paren(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is_punct(i, "(") {
                depth += 1;
            } else if self.is_punct(i, ")") {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Index one past the `]` matching the `[` at `open`.
    fn matching_bracket(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is_punct(i, "[") {
                depth += 1;
            } else if self.is_punct(i, "]") {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// First `;` or `{` at paren/bracket depth 0, or an unbalanced `)`.
    fn stmt_end(&self, start: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = start;
        while i < end {
            if self.is_punct(i, "(") || self.is_punct(i, "[") {
                depth += 1;
            } else if self.is_punct(i, ")") || self.is_punct(i, "]") {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            } else if depth == 0 && (self.is_punct(i, ";") || self.is_punct(i, "{")) {
                return i;
            }
            i += 1;
        }
        end
    }

    /// Identifiers in `[start, end)` that can carry a value: not call or
    /// macro heads, not keywords/ctor names.
    fn idents_in(&self, start: usize, end: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut i = start;
        while i < end {
            if self.ident_kind(i) && !self.is_punct(i + 1, "(") && !self.is_punct(i + 1, "!") {
                let t = self.text(i);
                if !IDENT_SKIP.contains(&t) && !out.iter().any(|o| o == t) {
                    out.push(t.to_string());
                }
            }
            i += 1;
        }
        out
    }

    /// Main statement walk over a body/block token range.
    fn walk(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.matching_bracket(i + 1, end);
                continue;
            }
            if self.ident_kind(i) {
                match self.text(i) {
                    "let" => {
                        i = self.let_stmt(i, end);
                        continue;
                    }
                    "if" | "while" => {
                        i = self.cond(i, end);
                        continue;
                    }
                    "return" => {
                        let stop = self.stmt_end(i + 1, end);
                        let names = self.idents_in(i + 1, stop);
                        if !names.is_empty() {
                            self.ops.push(TaintOp::Return { names });
                        }
                        // Keep walking into the expression for its calls
                        // and sinks.
                        i += 1;
                        continue;
                    }
                    _ => {
                        if let Some(next) = self.reassign(i, end) {
                            i = next;
                            continue;
                        }
                    }
                }
            }
            self.token_site(i, end);
            i += 1;
        }
    }

    /// `name = …` / `name op= …` at the identifier `i`; returns the resume
    /// index when it is one.
    fn reassign(&mut self, i: usize, end: usize) -> Option<usize> {
        let name = self.text(i).to_string();
        if IDENT_SKIP.contains(&name.as_str()) {
            return None;
        }
        let (eq_at, compound) = if self.is_punct(i + 1, "=") {
            (i + 1, false)
        } else if self
            .toks
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Punct)
            && matches!(
                self.text(i + 1),
                "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
            )
            && self.is_punct(i + 2, "=")
        {
            (i + 2, true)
        } else {
            return None;
        };
        // `a == b` (and `a &&= …`-ish shapes) are comparisons, not stores.
        if self.is_punct(eq_at + 1, "=") {
            return None;
        }
        if i.checked_sub(1)
            .is_some_and(|p| self.toks[p].kind == TokenKind::Punct)
            && matches!(self.text(i - 1), "=" | "<" | ">" | "!")
        {
            return None;
        }
        let line = self.toks[i].line;
        let stop = self.stmt_end(eq_at + 1, end);
        self.emit_assign(name, eq_at + 1, stop, compound, line);
        Some(stop)
    }

    /// `let [mut] name [: Ty] = init;` — patterns more complex than one
    /// identifier fall back to the plain walk (their calls and sinks are
    /// still mined, only the binding is untracked).
    fn let_stmt(&mut self, let_at: usize, end: usize) -> usize {
        let line = self.toks[let_at].line;
        let mut i = let_at + 1;
        if self.is_ident_at(i, "mut") {
            i += 1;
        }
        if i >= end || !self.ident_kind(i) {
            return let_at + 1;
        }
        let name = self.text(i).to_string();
        let mut j = i + 1;
        if self.is_punct(j, ":") {
            // Skip the type annotation: angles nest, `->` stays joined.
            let mut angle = 0i32;
            let mut depth = 0i32;
            j += 1;
            while j < end {
                if self.is_punct(j, "<") {
                    angle += 1;
                } else if self.is_punct(j, ">") {
                    angle -= 1;
                } else if self.is_punct(j, "(") || self.is_punct(j, "[") {
                    depth += 1;
                } else if self.is_punct(j, ")") || self.is_punct(j, "]") {
                    depth -= 1;
                } else if angle == 0
                    && depth == 0
                    && (self.is_punct(j, "=") || self.is_punct(j, ";"))
                {
                    break;
                }
                j += 1;
            }
        }
        if !self.is_punct(j, "=") {
            return let_at + 1;
        }
        let stop = self.stmt_end(j + 1, end);
        self.emit_assign(name, j + 1, stop, false, line);
        stop
    }

    /// Mines an initializer range for its call/sink ops, then pushes the
    /// `Assign` tying them to `dst`.
    fn emit_assign(&mut self, dst: String, start: usize, stop: usize, compound: bool, line: usize) {
        let before = self.ops.len();
        self.expr(start, stop);
        let calls: Vec<usize> = (before..self.ops.len())
            .filter(|&k| matches!(self.ops[k], TaintOp::Call { .. }))
            .collect();
        let mut srcs = self.idents_in(start, stop);
        if compound && !srcs.contains(&dst) {
            srcs.push(dst.clone());
        }
        let source = self.source_of(start, stop);
        let sanitized = self.is_sanitizing(start, stop);
        self.ops.push(TaintOp::Assign {
            dst,
            srcs,
            source,
            sanitized,
            calls,
            line,
        });
    }

    /// Token-by-token pass over an expression range (no statement
    /// structure): records calls, sources, and sinks.
    fn expr(&mut self, start: usize, stop: usize) {
        let mut i = start;
        while i < stop {
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.matching_bracket(i + 1, stop);
                continue;
            }
            self.token_site(i, stop);
            i += 1;
        }
    }

    /// `if`/`while` condition: mine its expression, then emit a `Check`
    /// for every identifier when the condition compares anything — the
    /// conservative model of a dominating bound check.
    fn cond(&mut self, kw_at: usize, end: usize) -> usize {
        let stop = self.stmt_end(kw_at + 1, end);
        self.expr(kw_at + 1, stop);
        if self.has_comparison(kw_at + 1, stop) {
            for name in self.idents_in(kw_at + 1, stop) {
                self.ops.push(TaintOp::Check { name });
            }
        }
        stop
    }

    /// Any `<`, `>`, `==`, `!=` in the range (the lexer leaves comparison
    /// operators as single-byte puncts).
    fn has_comparison(&self, start: usize, stop: usize) -> bool {
        let mut i = start;
        while i < stop {
            if self.toks[i].kind == TokenKind::Punct {
                match self.text(i) {
                    "<" | ">" => return true,
                    "=" | "!" if self.is_punct(i + 1, "=") => return true,
                    _ => {}
                }
            }
            i += 1;
        }
        false
    }

    /// Does the range call a direct untrusted-input source?
    fn source_of(&self, start: usize, stop: usize) -> Option<String> {
        if !self.seed {
            return None;
        }
        let mut i = start;
        while i + 2 < stop {
            if self.ident_kind(i) && self.is_punct(i + 1, "::") && self.ident_kind(i + 2) {
                let head = self.text(i);
                let name = self.text(i + 2);
                let hit = (head == "env" && matches!(name, "args" | "args_os" | "var" | "var_os"))
                    || (head == "fs" && matches!(name, "read" | "read_to_string"));
                if hit {
                    return Some(format!("{head}::{name}()"));
                }
            }
            i += 1;
        }
        None
    }

    /// Does the range pass a sanitizer? Covers `try_into`/`try_from`,
    /// `checked_*` arithmetic, `.min(cap)`/`clamp`, and validated-newtype
    /// constructors (`FrameLen::…`).
    fn is_sanitizing(&self, start: usize, stop: usize) -> bool {
        let mut i = start;
        while i < stop {
            if self.ident_kind(i) {
                let t = self.text(i);
                if matches!(t, "try_into" | "try_from" | "clamp") || t.starts_with("checked_") {
                    return true;
                }
                if t == "min" && i.checked_sub(1).is_some_and(|p| self.is_punct(p, ".")) {
                    return true;
                }
                if SANITIZER_TYPES.contains(&t) && self.is_punct(i + 1, "::") {
                    return true;
                }
            }
            i += 1;
        }
        false
    }

    /// Per-argument identifier lists of a call whose `(` is at `open`.
    fn call_args(&self, open: usize, close: usize) -> Vec<Vec<String>> {
        let mut args = Vec::new();
        let mut depth = 0i32;
        let mut seg = open + 1;
        let mut i = open;
        while i < close {
            if self.is_punct(i, "(") || self.is_punct(i, "[") || self.is_punct(i, "{") {
                depth += 1;
            } else if self.is_punct(i, ")") || self.is_punct(i, "]") || self.is_punct(i, "}") {
                depth -= 1;
                if depth == 0 {
                    if i > seg {
                        args.push(self.idents_in(seg, i));
                    }
                    break;
                }
            } else if depth == 1 && self.is_punct(i, ",") {
                args.push(self.idents_in(seg, i));
                seg = i + 1;
            }
            i += 1;
        }
        args
    }

    /// Records the call/source/sink ops anchored at token `i`.
    fn token_site(&mut self, i: usize, end: usize) {
        let t = &self.toks[i];
        // `vec![init; len]` sizes an allocation with `len`.
        if t.kind == TokenKind::Ident
            && self.text(i) == "vec"
            && self.is_punct(i + 1, "!")
            && self.is_punct(i + 2, "[")
        {
            let close = self.matching_bracket(i + 2, end);
            let mut depth = 0i32;
            for k in (i + 2)..close {
                if self.is_punct(k, "[") || self.is_punct(k, "(") {
                    depth += 1;
                } else if self.is_punct(k, "]") || self.is_punct(k, ")") {
                    depth -= 1;
                } else if depth == 1 && self.is_punct(k, ";") {
                    let names = self.idents_in(k + 1, close.saturating_sub(1));
                    if !names.is_empty() {
                        self.ops.push(TaintOp::Sink {
                            kind: SinkKind::AllocSize,
                            what: String::from("vec![_; n]"),
                            names,
                            line: t.line,
                        });
                    }
                    break;
                }
            }
            return;
        }
        if t.kind == TokenKind::Ident && self.is_punct(i + 1, "(") {
            let name = self.text(i).to_string();
            if NON_CALL_KEYWORDS.contains(&name.as_str()) {
                return;
            }
            let line = t.line;
            let prev = i.checked_sub(1);
            let prev_dot = prev.is_some_and(|p| self.is_punct(p, "."));
            let prev_path = prev.is_some_and(|p| self.is_punct(p, "::"));
            let close = self.matching_paren(i + 1, end);
            let args = self.call_args(i + 1, close);
            if self.seed && prev_dot && READ_FILL_METHODS.contains(&name.as_str()) {
                let recv = i
                    .checked_sub(2)
                    .filter(|&p| self.ident_kind(p))
                    .map(|p| self.text(p).to_string())
                    .unwrap_or_else(|| String::from("stream"));
                let fills: Vec<String> = args.iter().flatten().cloned().collect();
                for dst in fills {
                    self.ops.push(TaintOp::SourceFill {
                        dst,
                        desc: format!("bytes filled by `{recv}.{name}()`"),
                    });
                }
            }
            if ALLOC_SIZE_METHODS.contains(&name.as_str()) {
                let names: Vec<String> = args.iter().flatten().cloned().collect();
                if !names.is_empty() {
                    self.ops.push(TaintOp::Sink {
                        kind: SinkKind::AllocSize,
                        what: format!("{name}()"),
                        names,
                        line,
                    });
                }
            }
            if prev_dot && (name.starts_with("wrapping_") || name.starts_with("unchecked_")) {
                let mut names: Vec<String> = args.iter().flatten().cloned().collect();
                if let Some(recv) = i
                    .checked_sub(2)
                    .filter(|&p| self.ident_kind(p))
                    .map(|p| self.text(p).to_string())
                {
                    if !IDENT_SKIP.contains(&recv.as_str()) && !names.contains(&recv) {
                        names.push(recv);
                    }
                }
                if !names.is_empty() {
                    self.ops.push(TaintOp::Sink {
                        kind: SinkKind::Arith,
                        what: format!("{name}()"),
                        names,
                        line,
                    });
                }
            }
            let kind = if prev_dot {
                CallKind::Method {
                    recv: crate::parser::plain_receiver(self.src, self.toks, i),
                }
            } else if prev_path {
                let head = i
                    .checked_sub(2)
                    .filter(|&p| self.ident_kind(p))
                    .map(|p| self.text(p).to_string())
                    .unwrap_or_default();
                CallKind::Qualified { head }
            } else {
                CallKind::Free
            };
            self.ops.push(TaintOp::Call {
                name,
                kind,
                args,
                line,
            });
            return;
        }
        // Index expression: `[` whose previous token closes a value.
        if self.is_punct(i, "[") {
            if let Some(p) = i.checked_sub(1) {
                let indexes_value = match self.toks[p].kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&self.text(p)),
                    TokenKind::Punct => {
                        let s = self.text(p);
                        s == ")" || s == "]"
                    }
                    _ => false,
                };
                if indexes_value {
                    let close = self.matching_bracket(i, end);
                    let names = self.idents_in(i + 1, close.saturating_sub(1));
                    if !names.is_empty() {
                        self.ops.push(TaintOp::Sink {
                            kind: SinkKind::Index,
                            what: String::from("index []"),
                            names,
                            line: self.toks[i].line,
                        });
                    }
                }
            }
        }
    }

    /// The body's trailing expression is its return value. Only emitted
    /// for brace-free trailing segments — a trailing `if`/`match` block
    /// would over-approximate wildly.
    fn trailing_return(&mut self, start: usize, end: usize) {
        let mut depth = 0i32;
        let mut seg = start;
        let mut i = start;
        while i < end {
            if self.is_punct(i, "(") || self.is_punct(i, "[") || self.is_punct(i, "{") {
                depth += 1;
            } else if self.is_punct(i, ")") || self.is_punct(i, "]") || self.is_punct(i, "}") {
                depth -= 1;
            } else if depth == 0 && self.is_punct(i, ";") {
                seg = i + 1;
            }
            i += 1;
        }
        if (seg..end).any(|k| self.is_punct(k, "{")) {
            return;
        }
        let names = self.idents_in(seg, end);
        if !names.is_empty() {
            self.ops.push(TaintOp::Return { names });
        }
    }
}

// ---------------------------------------------------------------------------
// Interprocedural fixpoint
// ---------------------------------------------------------------------------

/// Where a tainted value came from: source description plus the call
/// chain walked so far (qualified fn names, source first).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Prov {
    desc: String,
    path: Vec<String>,
}

impl Prov {
    /// Extends the chain through `q`, skipping consecutive duplicates.
    fn via(&self, q: &str) -> Prov {
        let mut p = self.clone();
        if p.path.last().map(String::as_str) != Some(q) {
            p.path.push(q.to_string());
        }
        p
    }
}

/// Monotone interprocedural state, indexed by fn id.
struct State {
    /// Tainted parameter positions, seeded by callers.
    tainted: Vec<BTreeMap<usize, Prov>>,
    /// Taint of the return value.
    ret: Vec<Option<Prov>>,
    /// Parameter positions the fn taints in the *caller* (out-params).
    out: Vec<BTreeMap<usize, Prov>>,
}

/// One tainted value reaching a sink during an eval pass.
struct SinkHit {
    kind: SinkKind,
    what: String,
    line: usize,
    name: String,
    prov: Prov,
}

struct EvalOut {
    env: BTreeMap<String, Prov>,
    hits: Vec<SinkHit>,
    arg_out: Vec<(usize, usize, Prov)>,
    ret: Option<Prov>,
}

/// Abstract-interprets one function's taint IR. Two passes over the ops
/// catch loop-carried taint; hits and outward flows are collected from
/// the second (stable) pass only. `seeded` controls whether the fn's own
/// tainted-parameter state enters the environment — the unseeded run
/// isolates what the fn taints *by itself* (sources + callee
/// out-params), which is what callers may conclude about by-ref
/// arguments without cross-caller contamination.
fn eval(
    graph: &CallGraph,
    i: usize,
    targets: &BTreeMap<usize, Vec<usize>>,
    st: &State,
    seeded: bool,
) -> EvalOut {
    let f = &graph.fns[i];
    let q = f.qualified();
    let mut env: BTreeMap<String, Prov> = BTreeMap::new();
    if seeded {
        for (pos, prov) in &st.tainted[i] {
            if let Some((p, _)) = f.params.get(*pos) {
                env.entry(p.clone()).or_insert_with(|| prov.clone());
            }
        }
    }
    let mut hits: Vec<SinkHit> = Vec::new();
    let mut arg_out: Vec<(usize, usize, Prov)> = Vec::new();
    let mut ret: Option<Prov> = None;

    for pass in 0..2 {
        let collect = pass == 1;
        for (k, op) in f.taint.ops.iter().enumerate() {
            match op {
                TaintOp::SourceFill { dst, desc } => {
                    env.entry(dst.clone()).or_insert_with(|| Prov {
                        desc: desc.clone(),
                        path: vec![q.clone()],
                    });
                }
                TaintOp::Check { name } => {
                    env.remove(name);
                }
                TaintOp::Assign {
                    dst,
                    srcs,
                    source,
                    sanitized,
                    calls,
                    ..
                } => {
                    if *sanitized {
                        env.remove(dst);
                        continue;
                    }
                    if let Some(desc) = source {
                        env.entry(dst.clone()).or_insert_with(|| Prov {
                            desc: desc.clone(),
                            path: vec![q.clone()],
                        });
                        continue;
                    }
                    let mut prov = srcs.iter().find_map(|s| env.get(s).cloned());
                    if prov.is_none() {
                        prov = calls.iter().find_map(|c| {
                            targets
                                .get(c)
                                .and_then(|ts| ts.iter().find_map(|&t| st.ret[t].clone()))
                                .map(|p| p.via(&q))
                        });
                    }
                    match prov {
                        Some(p) => {
                            env.entry(dst.clone()).or_insert(p);
                        }
                        None => {
                            env.remove(dst);
                        }
                    }
                }
                TaintOp::Call { args, .. } => {
                    let Some(ts) = targets.get(&k) else { continue };
                    if collect {
                        for (pos, arg) in args.iter().enumerate() {
                            if let Some(prov) = arg.iter().find_map(|a| env.get(a)) {
                                for &t in ts {
                                    arg_out.push((t, pos, prov.clone()));
                                }
                            }
                        }
                    }
                    for &t in ts {
                        for (pos, prov) in &st.out[t] {
                            if let Some(arg) = args.get(*pos) {
                                for a in arg {
                                    env.entry(a.clone()).or_insert_with(|| prov.via(&q));
                                }
                            }
                        }
                    }
                }
                TaintOp::Sink {
                    kind,
                    what,
                    names,
                    line,
                } => {
                    if collect {
                        for n in names {
                            if let Some(prov) = env.get(n) {
                                hits.push(SinkHit {
                                    kind: *kind,
                                    what: what.clone(),
                                    line: *line,
                                    name: n.clone(),
                                    prov: prov.clone(),
                                });
                                break;
                            }
                        }
                    }
                }
                TaintOp::Return { names } => {
                    if collect && ret.is_none() {
                        ret = names.iter().find_map(|n| env.get(n).cloned());
                    }
                }
            }
        }
    }
    EvalOut {
        env,
        hits,
        arg_out,
        ret,
    }
}

/// Runs the taint fixpoint and D012/D013 emission, then the D014 lock
/// rules. `files` maps workspace-relative paths to lexical context.
pub fn check(graph: &CallGraph, files: &BTreeMap<String, FileCtx>) -> Vec<Finding> {
    let n = graph.fns.len();
    // Call-op targets, resolved once with the shared conservative policy.
    let targets: Vec<BTreeMap<usize, Vec<usize>>> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut m = BTreeMap::new();
            for (k, op) in f.taint.ops.iter().enumerate() {
                if let TaintOp::Call { name, kind, .. } = op {
                    let ts = graph.resolve(i, name, kind);
                    if !ts.is_empty() {
                        m.insert(k, ts);
                    }
                }
            }
            m
        })
        .collect();

    let mut st = State {
        tainted: vec![BTreeMap::new(); n],
        ret: vec![None; n],
        out: vec![BTreeMap::new(); n],
    };
    for _round in 0..24 {
        let mut changed = false;
        for (i, tgt) in targets.iter().enumerate() {
            if graph.fns[i].is_test {
                continue;
            }
            let out = eval(graph, i, tgt, &st, true);
            for (t, pos, prov) in out.arg_out {
                if graph.fns[t].is_test || pos >= graph.fns[t].params.len() {
                    continue;
                }
                st.tainted[t].entry(pos).or_insert_with(|| {
                    changed = true;
                    prov.via(&graph.fns[t].qualified())
                });
            }
            if st.ret[i].is_none() {
                if let Some(p) = out.ret {
                    st.ret[i] = Some(p);
                    changed = true;
                }
            }
            let o2 = eval(graph, i, tgt, &st, false);
            for (pos, (pname, _)) in graph.fns[i].params.iter().enumerate() {
                if let Some(prov) = o2.env.get(pname) {
                    st.out[i].entry(pos).or_insert_with(|| {
                        changed = true;
                        prov.clone()
                    });
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut findings = Vec::new();
    for (i, tgt) in targets.iter().enumerate() {
        let f = &graph.fns[i];
        if f.is_test {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let out = eval(graph, i, tgt, &st, true);
        let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
        for h in out.hits {
            if !seen.insert((h.line, h.what.clone())) {
                continue;
            }
            let rule = match h.kind {
                SinkKind::AllocSize => Rule::D012,
                SinkKind::Index | SinkKind::Arith => Rule::D013,
            };
            if ctx.is_allowed(rule, h.line - 1) {
                continue;
            }
            let mut chain = h.prov.path.clone();
            let q = f.qualified();
            if chain.last() != Some(&q) {
                chain.push(q);
            }
            findings.push(Finding {
                rule,
                file: f.file.clone(),
                line: h.line,
                snippet: ctx.snippet(h.line),
                note: Some(format!(
                    "`{}` carries {} into {} without a dominating bound check, via {}",
                    h.name,
                    h.prov.desc,
                    h.what,
                    render_chain(&chain)
                )),
                severity: rule.severity(),
            });
        }
    }
    findings.extend(lock_rules(graph, files));
    findings
}

// ---------------------------------------------------------------------------
// D014: lock-order cycles and guards held across blocking calls
// ---------------------------------------------------------------------------

/// True for a usable lock identity (the dataflow pass emits `?` when it
/// cannot name the lock).
fn named(l: &str) -> bool {
    l != "?"
}

/// Builds the serve-crate lock rules.
fn lock_rules(graph: &CallGraph, files: &BTreeMap<String, FileCtx>) -> Vec<Finding> {
    let n = graph.fns.len();
    let in_serve = |f: &crate::parser::FnDef| !f.is_test && f.file.starts_with("crates/serve/");

    // --- transitive "does this fn block?", seeded at direct socket I/O
    // sites in the serving crate and propagated caller-ward.
    let mut blocks: Vec<Option<String>> = graph
        .fns
        .iter()
        .map(|f| {
            in_serve(f)
                .then(|| f.flow.blocking.first().map(|s| s.what.clone()))
                .flatten()
        })
        .collect();
    for _ in 0..n.min(24) {
        let mut changed = false;
        for i in 0..n {
            if blocks[i].is_some() || graph.fns[i].is_test {
                continue;
            }
            let hit = graph.edges[i]
                .iter()
                .find_map(|&c| blocks[c].as_ref().map(|d| (c, d.clone())));
            if let Some((c, d)) = hit {
                blocks[i] = Some(format!("{} → {}", graph.fns[c].qualified(), d));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- transitive "which locks can this fn acquire?".
    let mut acq: Vec<BTreeSet<String>> = graph
        .fns
        .iter()
        .map(|f| {
            if in_serve(f) {
                f.flow
                    .acquires
                    .iter()
                    .filter(|a| named(&a.lock))
                    .map(|a| a.lock.clone())
                    .collect()
            } else {
                BTreeSet::new()
            }
        })
        .collect();
    for _ in 0..n.min(24) {
        let mut changed = false;
        for i in 0..n {
            if graph.fns[i].is_test {
                continue;
            }
            let mut add: Vec<String> = Vec::new();
            for &c in &graph.edges[i] {
                for l in &acq[c] {
                    if !acq[i].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                acq[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- the lock-acquisition-order graph: an edge `h → l` means `l` was
    // (or can be, through a guarded call) acquired while `h` was held.
    struct AcqSite {
        from: String,
        to: String,
        fn_idx: usize,
        line: usize,
        via: Option<usize>,
    }
    let mut order: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut sites: Vec<AcqSite> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !in_serve(f) {
            continue;
        }
        for a in &f.flow.acquires {
            if !named(&a.lock) {
                continue;
            }
            for h in a.held.iter().filter(|h| named(h)) {
                order.entry(h.clone()).or_default().insert(a.lock.clone());
                sites.push(AcqSite {
                    from: h.clone(),
                    to: a.lock.clone(),
                    fn_idx: i,
                    line: a.line,
                    via: None,
                });
            }
        }
        for g in &f.flow.guarded_calls {
            let held: Vec<&String> = g.held.iter().filter(|h| named(h)).collect();
            if held.is_empty() {
                continue;
            }
            for t in graph.resolve(i, &g.callee, &g.kind) {
                for l in acq[t].clone() {
                    for h in &held {
                        order.entry((*h).clone()).or_default().insert(l.clone());
                        sites.push(AcqSite {
                            from: (*h).clone(),
                            to: l.clone(),
                            fn_idx: i,
                            line: g.line,
                            via: Some(t),
                        });
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    let mut emitted: BTreeSet<(String, usize, String)> = BTreeSet::new();

    // Cycle check: acquiring `to` while holding `from` deadlocks if some
    // other path acquires `from` while holding `to` (transitively).
    for s in &sites {
        if !reaches(&order, &s.to, &s.from) {
            continue;
        }
        let f = &graph.fns[s.fn_idx];
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        if ctx.is_allowed(Rule::D014, s.line - 1) {
            continue;
        }
        let how = match s.via {
            Some(t) => format!("via {}", graph.fns[t].qualified()),
            None => String::from("directly"),
        };
        let key = (f.file.clone(), s.line, format!("cycle:{}:{}", s.from, s.to));
        if !emitted.insert(key) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::D014,
            file: f.file.clone(),
            line: s.line,
            snippet: ctx.snippet(s.line),
            note: Some(format!(
                "{} acquires `{}` while holding `{}` ({how}) — the reverse order is also taken, closing a lock-order cycle",
                f.qualified(),
                s.to,
                s.from,
            )),
            severity: Rule::D014.severity(),
        });
    }

    // Guard held across socket I/O: the guarded call blocks itself (any
    // live guard, named or not), or transitively reaches a call that does.
    for (i, f) in graph.fns.iter().enumerate() {
        if !in_serve(f) {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        for g in &f.flow.guarded_calls {
            let direct = matches!(g.kind, CallKind::Method { .. })
                && BLOCKING_METHODS.contains(&g.callee.as_str());
            let named_guard = g.held.iter().find(|h| named(h));
            let Some(h) = named_guard.or(g.held.first().filter(|_| direct)) else {
                continue;
            };
            if ctx.is_allowed(Rule::D014, g.line - 1) {
                continue;
            }
            let path = if direct {
                Some(format!("{}()", g.callee))
            } else {
                graph
                    .resolve(i, &g.callee, &g.kind)
                    .into_iter()
                    .find_map(|t| {
                        let d = blocks[t].as_ref()?;
                        Some(format!("{} → {d}", graph.fns[t].qualified()))
                    })
            };
            let Some(path) = path else { continue };
            if !emitted.insert((f.file.clone(), g.line, format!("block:{h}"))) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::D014,
                file: f.file.clone(),
                line: g.line,
                snippet: ctx.snippet(g.line),
                note: Some(format!(
                    "guard on `{h}` held across a blocking call: {path}"
                )),
                severity: Rule::D014.severity(),
            });
        }
    }

    findings
}

/// Is `to` reachable from `from` in the lock-order graph?
fn reaches(order: &BTreeMap<String, BTreeSet<String>>, from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = vec![from];
    while let Some(u) = stack.pop() {
        if !seen.insert(u) {
            continue;
        }
        if let Some(next) = order.get(u) {
            for v in next {
                if v == to {
                    return true;
                }
                stack.push(v);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Packages;
    use crate::parser::{parse_file, FnDef};

    /// The call graph of a tree without manifests (no package filter).
    fn graph_of(fns: Vec<FnDef>) -> CallGraph {
        CallGraph::build(fns, Packages::default())
    }

    fn mine_one(src: &str) -> FnTaint {
        let fns = parse_file("crates/serve/src/x.rs", src, false);
        fns[0].taint.clone()
    }

    #[test]
    fn read_fill_taints_buffer_and_reaches_index_sink() {
        let t = mine_one(
            "fn f(stream: &mut TcpStream, buf: &mut [u8], table: &[u8]) -> u8 {\n\
                 stream.read(&mut buf[..]).ok();\n\
                 let n = buf[0] as usize;\n\
                 table[n]\n\
             }\n",
        );
        assert!(t
            .ops
            .iter()
            .any(|o| matches!(o, TaintOp::SourceFill { dst, .. } if dst == "buf")));
        assert!(t.ops.iter().any(|o| matches!(
            o,
            TaintOp::Sink {
                kind: SinkKind::Index,
                ..
            }
        )));
        assert!(t
            .ops
            .iter()
            .any(|o| matches!(o, TaintOp::Return { names } if names.contains(&"n".into()))));
    }

    #[test]
    fn comparison_in_condition_emits_checks() {
        let t = mine_one(
            "fn f(len: usize) -> usize {\n\
                 if len > MAX {\n\
                     return 0;\n\
                 }\n\
                 len\n\
             }\n",
        );
        assert!(t
            .ops
            .iter()
            .any(|o| matches!(o, TaintOp::Check { name } if name == "len")));
    }

    #[test]
    fn sanitizer_marks_assign() {
        let t = mine_one(
            "fn f(len: usize) {\n\
                 let capped = len.min(64);\n\
                 let raw = len + 1;\n\
                 scratch.reserve(capped);\n\
             }\n",
        );
        let sanitized: Vec<bool> = t
            .ops
            .iter()
            .filter_map(|o| match o {
                TaintOp::Assign { sanitized, .. } => Some(*sanitized),
                _ => None,
            })
            .collect();
        assert_eq!(sanitized, vec![true, false]);
        assert!(t.ops.iter().any(|o| matches!(
            o,
            TaintOp::Sink {
                kind: SinkKind::AllocSize,
                ..
            }
        )));
    }

    #[test]
    fn env_args_is_a_source_only_in_seeded_paths() {
        let serve = mine_one("fn f() { let a = std::env::args().count(); }\n");
        assert!(serve.ops.iter().any(|o| matches!(
            o,
            TaintOp::Assign {
                source: Some(_),
                ..
            }
        )));
        let fns = parse_file(
            "crates/audit/src/x.rs",
            "fn f() { let a = std::env::args().count(); }\n",
            false,
        );
        assert!(!fns[0].taint.ops.iter().any(|o| matches!(
            o,
            TaintOp::Assign {
                source: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn interprocedural_chain_reaches_alloc_sink() {
        // read() taints buf in `recv`; the derived length flows through
        // `frame_len` into `alloc_for`, whose with_capacity is the sink.
        let src = "\
            fn recv(stream: &mut TcpStream) -> usize {\n\
                let mut hdr = [0u8; 4];\n\
                stream.read_exact(&mut hdr).ok();\n\
                let len = frame_len(hdr);\n\
                alloc_for(len)\n\
            }\n\
            fn frame_len(hdr: [u8; 4]) -> usize {\n\
                let n = u32::from_le_bytes(hdr);\n\
                let out = n as usize;\n\
                out\n\
            }\n\
            fn alloc_for(len: usize) -> usize {\n\
                let v: Vec<u8> = Vec::with_capacity(len);\n\
                v.capacity()\n\
            }\n";
        let fns = parse_file("crates/serve/src/x.rs", src, false);
        let graph = graph_of(fns);
        let mut files = BTreeMap::new();
        files.insert(
            "crates/serve/src/x.rs".to_string(),
            FileCtx {
                lines: src.lines().map(String::from).collect(),
                allowed: Vec::new(),
            },
        );
        let findings = check(&graph, &files);
        let d012: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::D012).collect();
        assert_eq!(d012.len(), 1, "{findings:?}");
        let note = d012[0].note.as_deref().unwrap();
        assert!(note.contains("recv"), "{note}");
        assert!(note.contains("alloc_for"), "{note}");
    }

    #[test]
    fn bound_check_clears_taint() {
        let src = "\
            fn recv(stream: &mut TcpStream) -> usize {\n\
                let mut hdr = [0u8; 4];\n\
                stream.read_exact(&mut hdr).ok();\n\
                let len = hdr[0] as usize;\n\
                if len > 64 {\n\
                    return 0;\n\
                }\n\
                let v: Vec<u8> = Vec::with_capacity(len);\n\
                v.capacity()\n\
            }\n";
        let fns = parse_file("crates/serve/src/x.rs", src, false);
        let graph = graph_of(fns);
        let mut files = BTreeMap::new();
        files.insert(
            "crates/serve/src/x.rs".to_string(),
            FileCtx {
                lines: src.lines().map(String::from).collect(),
                allowed: Vec::new(),
            },
        );
        let findings = check(&graph, &files);
        // The hdr[0] read itself is an index into locally-tainted hdr —
        // the with_capacity must NOT fire after the check.
        assert!(
            !findings.iter().any(|f| f.rule == Rule::D012),
            "{findings:?}"
        );
    }

    #[test]
    fn lock_cycle_and_blocking_guard_are_flagged() {
        let src = "\
            impl S {\n\
                fn ab(&self) {\n\
                    let ga = self.a.lock().unwrap();\n\
                    let gb = self.b.lock().unwrap();\n\
                    drop(gb);\n\
                    drop(ga);\n\
                }\n\
                fn ba(&self) {\n\
                    let gb = self.b.lock().unwrap();\n\
                    let ga = self.a.lock().unwrap();\n\
                    drop(ga);\n\
                    drop(gb);\n\
                }\n\
                fn pump(&self, stream: &mut TcpStream) {\n\
                    let g = self.a.lock().unwrap();\n\
                    self.relay(stream);\n\
                    drop(g);\n\
                }\n\
                fn relay(&self, stream: &mut TcpStream) {\n\
                    let mut b = [0u8; 8];\n\
                    stream.read_exact(&mut b).ok();\n\
                }\n\
            }\n";
        let fns = parse_file("crates/serve/src/x.rs", src, false);
        let graph = graph_of(fns);
        let mut files = BTreeMap::new();
        files.insert(
            "crates/serve/src/x.rs".to_string(),
            FileCtx {
                lines: src.lines().map(String::from).collect(),
                allowed: Vec::new(),
            },
        );
        let findings = lock_rules(&graph, &files);
        let notes: Vec<&str> = findings.iter().filter_map(|f| f.note.as_deref()).collect();
        assert!(
            notes.iter().any(|n| n.contains("lock-order cycle")),
            "{notes:?}"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("held across a blocking call")),
            "{notes:?}"
        );
    }

    #[test]
    fn taint_decisions_are_file_order_independent() {
        let a = "pub fn alloc_for(len: usize) { let v: Vec<u8> = Vec::with_capacity(len); v.capacity(); }\n";
        let b = "fn recv(stream: &mut TcpStream) {\n\
                     let mut hdr = [0u8; 4];\n\
                     stream.read_exact(&mut hdr).ok();\n\
                     let len = hdr[0] as usize;\n\
                     alloc_for(len);\n\
                 }\n";
        let order1 = {
            let mut fns = parse_file("crates/serve/src/a.rs", a, false);
            fns.extend(parse_file("crates/serve/src/b.rs", b, false));
            fns
        };
        let order2 = {
            let mut fns = parse_file("crates/serve/src/b.rs", b, false);
            fns.extend(parse_file("crates/serve/src/a.rs", a, false));
            fns
        };
        let mut files = BTreeMap::new();
        for (rel, src) in [("crates/serve/src/a.rs", a), ("crates/serve/src/b.rs", b)] {
            files.insert(
                rel.to_string(),
                FileCtx {
                    lines: src.lines().map(String::from).collect(),
                    allowed: Vec::new(),
                },
            );
        }
        let key = |fs: Vec<Finding>| -> Vec<(String, String, usize)> {
            let mut k: Vec<_> = fs
                .into_iter()
                .map(|f| (f.rule.id().to_string(), f.file, f.line))
                .collect();
            k.sort();
            k
        };
        let f1 = key(check(&graph_of(order1), &files));
        let f2 = key(check(&graph_of(order2), &files));
        assert_eq!(f1, f2);
        assert!(!f1.is_empty(), "the D012 sink must fire in both orders");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn random_source_to_sink_chains_decide_deterministically(
            hops in 0usize..3,
            sink_kind in 0usize..3,
            sanitized in proptest::bool::ANY,
            san_slot in 0usize..5,
        ) {
            // Synthesize a chain of single-function "crates": f0 reads
            // untrusted bytes, f1..f_hops pass the value along with a
            // little arithmetic, and the last function spends it in a
            // randomly chosen sink. Optionally one function on the chain
            // bound-checks the value first.
            let last = hops + 1;
            let san_pos = sanitized.then(|| san_slot % (last + 1));
            let guard = |pos: usize| -> &'static str {
                if san_pos == Some(pos) {
                    "    if v > 4096 { return; }\n"
                } else {
                    ""
                }
            };
            let mut files: Vec<(String, String)> = Vec::new();
            let mut src0 = String::from(
                "fn f0(stream: &mut TcpStream) {\n\
                 \x20   let mut hdr = [0u8; 4];\n\
                 \x20   stream.read_exact(&mut hdr).ok();\n\
                 \x20   let v = hdr[0] as usize;\n",
            );
            src0.push_str(guard(0));
            src0.push_str("    f1(v);\n}\n");
            files.push(("crates/serve/src/g0.rs".to_string(), src0));
            for i in 1..=hops {
                let mut s = format!("pub fn f{i}(v: usize) {{\n");
                s.push_str(guard(i));
                s.push_str(&format!("    let w = v + {i};\n    f{}(w);\n}}\n", i + 1));
                files.push((format!("crates/serve/src/g{i}.rs"), s));
            }
            let mut sink_src = format!("pub fn f{last}(v: usize) {{\n");
            sink_src.push_str(guard(last));
            sink_src.push_str(match sink_kind {
                0 => "    let buf: Vec<u8> = Vec::with_capacity(v);\n    buf.capacity();\n",
                1 => "    let table = [0u8; 8];\n    table[v];\n",
                _ => "    v.wrapping_mul(3);\n",
            });
            sink_src.push_str("}\n");
            files.push((format!("crates/serve/src/g{last}.rs"), sink_src));

            let mut ctxs = BTreeMap::new();
            for (rel, src) in &files {
                ctxs.insert(
                    rel.clone(),
                    FileCtx {
                        lines: src.lines().map(String::from).collect(),
                        allowed: Vec::new(),
                    },
                );
            }
            let parse_all = |order: &[&(String, String)]| {
                let mut fns = Vec::new();
                for (rel, src) in order {
                    fns.extend(parse_file(rel, src, false));
                }
                fns
            };
            let key = |fs: Vec<Finding>| -> Vec<(String, String, usize)> {
                let mut k: Vec<_> = fs
                    .into_iter()
                    .map(|f| (f.rule.id().to_string(), f.file, f.line))
                    .collect();
                k.sort();
                k
            };
            let fwd: Vec<&(String, String)> = files.iter().collect();
            let rev: Vec<&(String, String)> = files.iter().rev().collect();
            let k_fwd = key(check(&graph_of(parse_all(&fwd)), &ctxs));
            let k_fwd2 = key(check(&graph_of(parse_all(&fwd)), &ctxs));
            let k_rev = key(check(&graph_of(parse_all(&rev)), &ctxs));
            prop_assert_eq!(&k_fwd, &k_fwd2, "same inputs must decide identically");
            prop_assert_eq!(&k_fwd, &k_rev, "file order must not change taint decisions");

            let expect = if sink_kind == 0 { "D012" } else { "D013" };
            if san_pos.is_some() {
                prop_assert!(
                    k_fwd.is_empty(),
                    "a dominating bound check anywhere on the chain clears the sink; got {:?}",
                    k_fwd
                );
            } else {
                prop_assert!(
                    k_fwd.iter().any(|(rule, _, _)| rule == expect),
                    "unchecked chain of {} hops must reach the {} sink; got {:?}",
                    hops,
                    expect,
                    k_fwd
                );
            }
        }
    }
}

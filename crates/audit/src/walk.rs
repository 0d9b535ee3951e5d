//! The one body walker under the interprocedural, dataflow and taint
//! layers. [`body`] visits each token of a function body once and hands
//! it to three sinks: the call-graph facts kept here (call sites, panic
//! and allocation sites, growth and eviction of `self` fields — D006 to
//! D008), the value-tracking [`Flow`] (D009, D010, D014) and the taint
//! [`Miner`] (D012, D013). The shapes more than one sink reads are
//! classified here, once: call sites with their per-argument identifiers,
//! index sites, `let` statements, and the names a body may bind anew.
//!
//! Attribute spans (`#[cfg(..)] let …`) are skipped for every sink. A
//! nested `fn` item is attributed to the enclosing function —
//! conservative and rare.

use crate::dataflow::Flow;
use crate::lexer::Cursor;
use crate::parser::{Call, CallKind, FieldOp, FnDef, Site};
use crate::taint::Miner;

/// Keywords that look like call heads but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "loop", "return", "fn", "move", "else", "in",
];

/// Keywords allowed immediately before `[` without making it an index
/// expression (slice patterns, bindings).
const NON_INDEX_KEYWORDS: [&str; 12] = [
    "let", "in", "mut", "ref", "return", "if", "else", "match", "loop", "while", "for", "box",
];

/// Identifiers never collected as value carriers.
pub(crate) const IDENT_SKIP: [&str; 22] = [
    "mut", "ref", "as", "in", "if", "else", "match", "return", "let", "move", "self", "Some",
    "None", "Ok", "Err", "true", "false", "box", "loop", "while", "for", "break",
];

/// Methods whose call can panic.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that unconditionally (or on failure) panic.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Method calls that allocate.
const ALLOC_METHODS: [&str; 6] = [
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "collect",
    "join",
];

/// `Type::fn` pairs that allocate.
const ALLOC_QUALIFIED: [(&str, &str); 7] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Methods that grow a collection.
const GROW_METHODS: [&str; 7] = [
    "insert",
    "push",
    "push_back",
    "push_front",
    "extend",
    "entry",
    "entry_or_default",
];

/// Methods that shrink or bound a collection.
const EVICT_METHODS: [&str; 13] = [
    "remove",
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "clear",
    "retain",
    "truncate",
    "drain",
    "split_off",
    "swap_remove",
    "take",
];

/// One call expression at its name token, as every sink sees it.
pub(crate) struct CallAt {
    /// Callee name, shape and line, as the call graph records them.
    pub call: Call,
    /// Identifiers in each argument position.
    pub args: Vec<Vec<String>>,
}

/// A `let [mut] name [: T] [= init];` statement binding one identifier.
pub(crate) struct Let {
    /// Token of the bound name.
    pub name: usize,
    /// Token range of the type annotation (empty without one).
    pub ann: (usize, usize),
    /// Token range of the initializer, if there is one.
    pub init: Option<(usize, usize)>,
    /// The statement's end ([`Cursor::stmt_end`]).
    pub end: usize,
}

/// The names a body may bind anew, shadowing a parameter: names in a
/// `let`/`for` pattern, a closure parameter list or a match-arm head, or
/// any name once the body nests an `fn`. Over-approximate — a false "yes"
/// only costs the parameter its typed resolution.
#[derive(Default)]
pub(crate) struct Rebound<'s> {
    any: bool,
    names: Vec<&'s str>,
}

impl<'s> Rebound<'s> {
    /// Whether the body may rebind `name`.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.any || self.names.contains(&name)
    }

    /// Records the binding positions that start at token `i`.
    fn token(&mut self, c: &Cursor<'s>, i: usize, (start, end): (usize, usize)) {
        let (a, b) = if c.is_word(i, "fn") {
            self.any = true;
            return;
        } else if c.is_word(i, "let") || c.is_word(i, "for") {
            // To the `=` / `;` / `in` that ends the pattern.
            let mut depth = 0;
            let stop = (i + 1..end).find(|&k| {
                depth += c.nesting(k);
                depth <= 0 && (c.is_punct(k, "=") || c.is_punct(k, ";") || c.is_word(k, "in"))
            });
            (i + 1, stop.unwrap_or(end))
        } else if c.is_punct(i, "|")
            && match c.punct(i - 1) {
                Some(p) => !matches!(p, ")" | "]" | "|"),
                None => matches!(c.text(i - 1), "move" | "return" | "break"),
            }
        {
            // A closure's parameter list, to the closing `|`.
            let close = (i + 1..end).find(|&k| c.is_punct(k, "|"));
            (i + 1, close.unwrap_or(end))
        } else if c.is_punct(i, "=>") {
            // Back to the `,` / `{` that opens this arm's head, or the `}`
            // that closes the block of the arm before it. A `}` followed by
            // `=>`, a guard or an or-pattern closes a struct pattern of
            // this head instead.
            let mut depth = 0;
            let open = (start..i).rev().find(|&k| {
                let block_arm = c.is_punct(k, "}")
                    && !(c.is_punct(k + 1, "=>")
                        || c.is_word(k + 1, "if")
                        || c.is_punct(k + 1, "|"));
                depth -= c.nesting(k);
                depth < 0
                    || depth == 1 && block_arm
                    || depth == 0 && (c.is_punct(k, ",") || c.is_punct(k, ";"))
            });
            (open.unwrap_or(start), i)
        } else {
            return;
        };
        self.names
            .extend((a..b).filter(|&k| c.is_ident(k)).map(|k| c.text(k)));
    }
}

/// Walks the body `(start, end)` — the tokens strictly inside its braces
/// — of the fn whose parameters are `params` (`(name token, type end)`
/// pairs), once: fills `def`'s calls, panic, allocation, growth and
/// eviction sites, its dataflow facts and its taint IR, and returns the
/// names the body may bind anew.
pub(crate) fn body<'s>(
    c: &Cursor<'s>,
    rel: &str,
    params: &[(usize, usize)],
    (start, end): (usize, usize),
    def: &mut FnDef,
) -> Rebound<'s> {
    let mut flow = Flow::new(c, params);
    let mut taint = Miner::new(c, rel, start);
    let mut rebound = Rebound::default();
    let mut i = start;
    while i < end {
        if c.is_punct(i, "#") && c.is_punct(i + 1, "[") {
            i = c.matching(i + 1, end);
            continue;
        }
        let call = call_at(c, i, end);
        graph_facts(c, i, call.as_ref(), def);
        flow.token(i, call.as_ref(), end);
        taint.token(i, call.as_ref(), end);
        rebound.token(c, i, (start, end));
        i += 1;
    }
    def.flow = flow.finish();
    def.taint = taint.finish(end);
    rebound
}

/// The call whose name token is `i` — `name(…)` with a non-keyword head —
/// classified by what precedes the name: `.` makes it a method call, `::`
/// a path-qualified one, anything else a free call.
fn call_at(c: &Cursor<'_>, i: usize, end: usize) -> Option<CallAt> {
    let name = c.text(i);
    if !c.is_ident(i) || !c.is_punct(i + 1, "(") || NON_CALL_KEYWORDS.contains(&name) {
        return None;
    }
    let kind = if c.is_punct(i - 1, ".") {
        // The receiver, when it is one plain identifier: `self` in
        // `self.step()`, `sim` in `sim.run()`; not a field chain.
        let plain = c.is_ident(i - 2) && !c.is_punct(i.wrapping_sub(3), ".");
        CallKind::Method {
            recv: plain.then(|| c.text(i - 2).to_string()),
        }
    } else if c.is_punct(i - 1, "::") {
        let head = if c.is_ident(i - 2) { c.text(i - 2) } else { "" };
        CallKind::Qualified {
            head: head.to_string(),
        }
    } else {
        CallKind::Free
    };
    // Per-argument identifiers, split at the top-level commas.
    let close = c.matching(i + 1, end);
    let (mut args, mut depth, mut seg) = (Vec::new(), 0, i + 2);
    for k in i + 1..close {
        depth += c.nesting(k);
        if depth == 0 {
            if k > seg {
                args.push(value_idents(c, seg, k));
            }
        } else if depth == 1 && c.is_punct(k, ",") {
            args.push(value_idents(c, seg, k));
            seg = k + 1;
        }
    }
    Some(CallAt {
        call: Call {
            name: name.to_string(),
            kind,
            line: c.line(i),
        },
        args,
    })
}

/// Whether the `[` at `i` indexes a value: the token before it closes one
/// (an identifier that is not a binding keyword, `)`, `]`, or the `?` of
/// `expr?[i]`).
pub(crate) fn indexes(c: &Cursor<'_>, i: usize) -> bool {
    let p = i.wrapping_sub(1);
    c.is_punct(i, "[")
        && if c.is_ident(p) {
            !NON_INDEX_KEYWORDS.contains(&c.text(p))
        } else {
            matches!(c.punct(p), Some(")" | "]" | "?"))
        }
}

/// Parses the `let` at `let_at` when it binds one plain identifier.
/// Patterns (`let Some(x)`, `let (a, b)`, `let [a, b]`) give `None`.
pub(crate) fn let_stmt(c: &Cursor<'_>, let_at: usize, end: usize) -> Option<Let> {
    let name = let_at + 1 + usize::from(c.is_word(let_at + 1, "mut"));
    if !c.is_ident(name) || !(c.is_punct(name + 1, ":") || c.is_punct(name + 1, "=")) {
        return None;
    }
    let stop = c.stmt_end(name, end);
    // The annotation runs to the `=` outside every bracket, angle
    // brackets included.
    let mut eq = name + 1;
    if c.is_punct(eq, ":") {
        let (mut angle, mut depth) = (0, 0);
        eq += 1;
        while eq < stop {
            angle += i32::from(c.is_punct(eq, "<")) - i32::from(c.is_punct(eq, ">"));
            depth += c.nesting(eq);
            if angle == 0 && depth == 0 && c.is_punct(eq, "=") {
                break;
            }
            eq += 1;
        }
    }
    Some(Let {
        name,
        ann: (name + 2, eq.max(name + 2)),
        init: c.is_punct(eq, "=").then_some((eq + 1, stop)),
        end: stop,
    })
}

/// Identifiers in `[start, end)` that can carry a value: not call or
/// macro heads, not keywords or `Some`/`Ok`-style constructors.
pub(crate) fn value_idents(c: &Cursor<'_>, start: usize, end: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in start..end {
        let t = c.text(i);
        if c.is_ident(i)
            && !c.is_punct(i + 1, "(")
            && !c.is_punct(i + 1, "!")
            && !IDENT_SKIP.contains(&t)
            && !out.iter().any(|o| o == t)
        {
            out.push(t.to_string());
        }
    }
    out
}

/// The call-graph facts at token `i`: macro and call sites with the panic
/// and allocation sites they make, growth and eviction of `self` fields,
/// and index sites.
fn graph_facts(c: &Cursor<'_>, i: usize, call: Option<&CallAt>, def: &mut FnDef) {
    let name = c.text(i);
    let line = c.line(i);
    let site = |what: String| Site { what, line };
    if c.is_ident(i) && c.is_punct(i + 1, "!") && c.nesting(i + 2) == 1 {
        def.calls.push(Call {
            name: name.to_string(),
            kind: CallKind::Macro,
            line,
        });
        if PANIC_MACROS.contains(&name) {
            def.panics.push(site(format!("{name}!")));
        }
        if ALLOC_MACROS.contains(&name) {
            def.allocs.push(site(format!("{name}!")));
        }
    } else if let Some(CallAt { call, .. }) = call {
        def.calls.push(call.clone());
        match &call.kind {
            CallKind::Method { .. } => {
                if PANIC_METHODS.contains(&name) {
                    def.panics.push(site(format!("{name}()")));
                }
                if ALLOC_METHODS.contains(&name) {
                    def.allocs.push(site(format!("{name}()")));
                }
                // `self.field[.field…].grow_or_evict(...)`: the receiver
                // is the `.`-separated identifier chain before the name.
                let mut k = i - 1;
                while c.is_ident(k - 1) && c.is_punct(k.wrapping_sub(2), ".") {
                    k -= 2;
                }
                if c.is_word(k - 1, "self") && k < i - 1 {
                    let op = self_field(c, (k + 1, i - 1), name, line);
                    if GROW_METHODS.contains(&name) {
                        def.grows.push(op);
                    } else if EVICT_METHODS.contains(&name) {
                        def.evicts.push(op);
                    }
                }
            }
            CallKind::Qualified { head } => {
                if ALLOC_QUALIFIED.iter().any(|(h, n)| h == head && *n == name) {
                    def.allocs.push(site(format!("{head}::{name}")));
                }
                // `mem::take(&mut self.field)` / `mem::replace(&mut
                // self.field, …)` move the whole field out — that empties
                // (or swaps) it, so it counts as eviction.
                let self_at = i + 3 + usize::from(c.is_word(i + 3, "mut"));
                if head == "mem"
                    && matches!(name, "take" | "replace")
                    && c.is_punct(i + 2, "&")
                    && c.is_word(self_at, "self")
                {
                    let mut end = self_at + 1;
                    while c.is_punct(end, ".") && c.is_ident(end + 1) {
                        end += 2;
                    }
                    if end > self_at + 1 {
                        def.evicts
                            .push(self_field(c, (self_at + 2, end), name, line));
                    }
                }
            }
            _ => {}
        }
    } else if indexes(c, i) {
        def.panics.push(site("index []".to_string()));
    }
}

/// The `self` field whose `.`-separated segments are the identifiers at
/// every other token of `segs`, acted on by `method`.
fn self_field(c: &Cursor<'_>, segs: (usize, usize), method: &str, line: usize) -> FieldOp {
    let field: Vec<&str> = (segs.0..segs.1).step_by(2).map(|k| c.text(k)).collect();
    FieldOp {
        field: field.join("."),
        method: method.to_string(),
        line,
    }
}

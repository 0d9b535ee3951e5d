//! Intraprocedural value tracking over the [`lexer`](crate::lexer) token
//! stream — the dataflow layer under rules D009, D010 and D014.
//!
//! The `Flow` sink reads each function body token by token as the one
//! body walker (`walk`) hands it over, seeded from the parameter types,
//! and maintains a small abstract environment of local bindings:
//!
//! * **`Const(v)`** — an integer literal, propagated through simple
//!   assignment chains and two-term `+ - * / & | << >>` folds. Earns its
//!   keep in D010: a cast whose operand provably fits the target type is
//!   *not* a finding.
//! * **`Wide(ty)`** — a value of a 64/128-bit integer type (`u64`, `i64`,
//!   `u128`, `i128`, `usize`, `isize`, `SimTime`), seeded from `let`
//!   annotations and parameter types.
//! * **`Float`** — an `f64`/`f32` binding (annotation, float literal, or
//!   chain copy).
//! * **`Parallel`** — the output of a parallel fan-out: `map_chunks(..)`
//!   or a collection of joined thread results.
//! * **`Handle`** — a `spawn(..)` join handle (or a collection of them).
//! * **`ParallelElem`** — the loop variable of a `for` over a `Parallel`
//!   or `Handle` binding.
//! * **`Guard`** — a lock guard (`.lock()` or the serve crate's poison-
//!   handling `lock(&..)` helper), live until `drop(guard)` or scope end.
//!   Reassignment through `Condvar::wait` keeps the guard live — the
//!   standard condvar loop is *not* a violation.
//!
//! Everything else is `Other` (tracked only so shadowing stays sound).
//! The lattice is deliberately flat: no branches are joined, bindings die
//! at the closing brace of their block, and `drop` kills along all paths
//! — imprecision always errs toward *fewer* findings, never false ones.
//!
//! Facts extracted per body (consumed by [`interproc`](crate::interproc)):
//!
//! * **reductions** (D009) — float accumulation whose input is a
//!   `Parallel`/`Handle` value: `.sum::<f64>()` / `.fold(0.0, ..)` on a
//!   chain rooted at one, or `+=` into a `Float` binding from a joined
//!   thread result.
//! * **casts** (D010) — `x as u32`-style narrowing where `x` is a tracked
//!   `Wide` binding and the target type cannot hold every source value
//!   (`Const` operands that fit are skipped).
//! * **acquires / guarded_calls / blocking** (D014) — the raw material for
//!   the interprocedural lock-acquisition graph: every lock acquisition
//!   with the set of lock identities already held, every call made while a
//!   guard is live (a `BLOCKING_METHODS` call among them is stream I/O
//!   under the guard), and every direct blocking-I/O site. Nothing is
//!   flagged here — the taint layer's order-aware graph (D014) decides.

use crate::lexer::{Cursor, TokenKind};
use crate::parser::{Call, CallKind, Site};
use crate::walk::{CallAt, Let};

/// One lock acquisition with the lock identities already held at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockAcq {
    /// Identity of the acquired lock: the receiver field of `.lock()`
    /// (`queue` in `shared.queue.lock()`) or the last path segment of a
    /// `lock(&…)` helper argument.
    pub lock: String,
    /// Identities of locks already held, innermost last.
    pub held: Vec<String>,
    /// 1-based source line.
    pub line: usize,
}

/// A call made while at least one lock guard is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedCall {
    /// Callee name.
    pub callee: String,
    /// How the call was written (drives call-graph resolution).
    pub kind: crate::parser::CallKind,
    /// Identities of the locks held at the call.
    pub held: Vec<String>,
    /// 1-based source line.
    pub line: usize,
}

/// The dataflow facts mined from one function body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BodyFacts {
    /// D009 sites: float reductions over parallel/chunked results.
    pub reductions: Vec<Site>,
    /// D010 sites: truncating casts on tracked wide values.
    pub casts: Vec<Site>,
    /// D014: every lock acquisition with the held-set at it.
    pub acquires: Vec<LockAcq>,
    /// D014: calls made while a guard is live.
    pub guarded_calls: Vec<GuardedCall>,
    /// D014: direct blocking-I/O sites (socket read/write/accept family).
    pub blocking: Vec<Site>,
}

/// Abstract value of a local binding.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    /// Integer constant (literal or folded).
    Const(i128),
    /// Wide integer value; payload is the source type name.
    Wide(String),
    /// `f64`/`f32` value.
    Float,
    /// Ordered results of a parallel fan-out.
    Parallel,
    /// A join handle (or collection of them).
    Handle,
    /// Element drawn from a `Parallel`/`Handle` collection.
    ParallelElem,
    /// A live lock guard; payload is the lock's identity (receiver field
    /// of `.lock()`, or the argument of the `lock(&…)` helper).
    Guard(String),
    /// Anything else — tracked for shadowing only.
    Other,
}

/// One tracked binding with its block depth (for scope-exit cleanup).
struct Bind {
    name: String,
    val: Val,
    depth: usize,
}

/// 64/128-bit integer types whose narrowing casts D010 polices.
/// `SimTime` is the simulator's u64 tick wrapper.
const WIDE_TYPES: [&str; 7] = ["u64", "i64", "u128", "i128", "usize", "isize", "SimTime"];

/// Bit width of a wide source type (usize/isize assessed at 64).
fn wide_bits(ty: &str) -> u32 {
    match ty {
        "u128" | "i128" => 128,
        _ => 64,
    }
}

/// Narrow cast targets: `(name, bits, signed)`.
const NARROW_TARGETS: [(&str, u32, bool); 6] = [
    ("u8", 8, false),
    ("u16", 16, false),
    ("u32", 32, false),
    ("i8", 8, true),
    ("i16", 16, true),
    ("i32", 32, true),
];

/// 64-bit targets that still truncate a 128-bit source. `usize` is in
/// the ISSUE's list because it is 32-bit on some deploy targets, but
/// flagging every `u64 → usize` index cast would drown the signal; the
/// pass holds it to the provable case (128-bit sources).
const NARROW_FROM_128: [(&str, u32, bool); 4] = [
    ("u64", 64, false),
    ("i64", 64, true),
    ("usize", 64, false),
    ("isize", 64, true),
];

/// Method calls that block on a socket (D014 seeds; the interprocedural
/// pass only consults these for functions in the serving crate, where
/// `read`/`write`/`accept` receivers are streams and listeners). A guard
/// must never be live across one.
pub(crate) const BLOCKING_METHODS: [&str; 12] = [
    "write_all",
    "read_exact",
    "flush",
    "read_to_end",
    "read_to_string",
    "write_fmt",
    "write_vectored",
    "read",
    "write",
    "accept",
    "incoming",
    "connect",
];

/// Calls never worth recording as guarded work: the lock/condvar
/// machinery itself and poison plumbing.
const GUARD_MACHINERY: [&str; 8] = [
    "lock",
    "wait",
    "notify_one",
    "notify_all",
    "drop",
    "unwrap_or_else",
    "into_inner",
    "unwrap",
];

/// Whether `v` fits in the `bits`-wide (un)signed target.
fn const_fits(v: i128, bits: u32, signed: bool) -> bool {
    if signed {
        let min = -(1i128 << (bits - 1));
        let max = (1i128 << (bits - 1)) - 1;
        v >= min && v <= max
    } else {
        v >= 0 && (bits >= 127 || v < (1i128 << bits))
    }
}

/// Parses an integer literal token (decimal/hex/octal/binary, `_`
/// separators, type suffix) to its value, if it is one.
fn int_literal(text: &str) -> Option<i128> {
    let t = text.replace('_', "");
    // Strip a type suffix (`u32`, `i64`, `usize`, …).
    let strip = |s: &str| -> String {
        for suf in [
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        ] {
            if let Some(core) = s.strip_suffix(suf) {
                if !core.is_empty() {
                    return core.to_string();
                }
            }
        }
        s.to_string()
    };
    let t = strip(&t);
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return i128::from_str_radix(hex, 16).ok();
    }
    if let Some(oct) = t.strip_prefix("0o") {
        return i128::from_str_radix(oct, 8).ok();
    }
    if let Some(bin) = t.strip_prefix("0b") {
        return i128::from_str_radix(bin, 2).ok();
    }
    if t.contains('.') || t.contains('e') || t.contains('E') {
        return None;
    }
    t.parse().ok()
}

/// Whether a numeric literal token is a float (`0.5`, `1e-3`, `2f64`).
pub(crate) fn float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f64")
        || text.ends_with("f32")
        || (text.contains(['e', 'E']) && !text.starts_with("0x") && !text.starts_with("0X"))
}

/// The dataflow sink of the body walker (`walk`): it sees every
/// token of one body once, in order. A token is read as part of a
/// statement (`let`, `for`, `drop(x)`, reassignment, `+=`, braces) unless
/// it falls in the initializer or right-hand side of one already begun,
/// which is scanned as an expression: for call, cast and reduction sites
/// only.
pub(crate) struct Flow<'c, 's> {
    c: &'c Cursor<'s>,
    binds: Vec<Bind>,
    facts: BodyFacts,
    /// Brace depth of the statement walk (1 inside the body braces).
    depth: usize,
    /// Tokens before `skip` belong to a statement head already read.
    skip: usize,
    /// Tokens in `[skip, expr)` are one expression.
    expr: usize,
    /// The `let` binding that takes effect at `expr`, after its
    /// initializer.
    pending: Option<(String, Val)>,
}

impl<'c, 's> Flow<'c, 's> {
    /// The pass over one function, its bindings seeded from the types of
    /// its parameters: `(name token, type end)` pairs, each type running
    /// from two past its name.
    pub(crate) fn new(c: &'c Cursor<'s>, params: &[(usize, usize)]) -> Flow<'c, 's> {
        let mut flow = Flow {
            c,
            binds: Vec::new(),
            facts: BodyFacts::default(),
            depth: 1,
            skip: 0,
            expr: 0,
            pending: None,
        };
        for &(name, ty_end) in params {
            let ty: Vec<&str> = (name + 2..ty_end).map(|k| c.text(k)).collect();
            let val = Self::classify_type(&ty);
            if val != Val::Other {
                flow.bind(c.text(name), val, 0);
            }
        }
        flow
    }

    /// The facts, once the walk is over.
    pub(crate) fn finish(self) -> BodyFacts {
        self.facts
    }

    fn lookup(&self, name: &str) -> Option<&Val> {
        self.binds
            .iter()
            .rev()
            .find(|b| b.name == name)
            .map(|b| &b.val)
    }

    fn bind(&mut self, name: &str, val: Val, depth: usize) {
        self.binds.push(Bind {
            name: name.to_string(),
            val,
            depth,
        });
    }

    /// Kills the named binding (a moved-out guard, `drop(g)`).
    fn kill(&mut self, name: &str) {
        if let Some(pos) = self.binds.iter().rposition(|b| b.name == name) {
            self.binds[pos].val = Val::Other;
        }
    }

    /// Identities of every live guard, outermost first.
    fn held_locks(&self) -> Vec<String> {
        self.binds
            .iter()
            .filter_map(|b| match &b.val {
                Val::Guard(lock) => Some(lock.clone()),
                _ => None,
            })
            .collect()
    }

    /// Maps a type token sequence to an abstract value.
    fn classify_type(ty: &[&str]) -> Val {
        // A bare wide/float scalar, or one behind a `&` reference.
        let scalar: Vec<&&str> = ty.iter().filter(|t| **t != "&" && **t != "mut").collect();
        if scalar.len() == 1 {
            let t = *scalar[0];
            if WIDE_TYPES.contains(&t) {
                return Val::Wide(t.to_string());
            }
            if t == "f64" || t == "f32" {
                return Val::Float;
            }
        }
        if ty.contains(&"JoinHandle") {
            return Val::Handle;
        }
        if ty.contains(&"MutexGuard") {
            // Identity unknown from a type annotation alone.
            return Val::Guard(String::from("?"));
        }
        Val::Other
    }

    /// Classifies an initializer token range into an abstract value.
    fn classify_init(&self, start: usize, end: usize) -> Val {
        let c = self.c;
        // Single token: literal or chained binding.
        if end == start + 1 {
            let text = c.text(start);
            if c.toks[start].kind == TokenKind::Num {
                if float_literal(text) {
                    return Val::Float;
                }
                if let Some(v) = int_literal(text) {
                    return Val::Const(v);
                }
            } else if c.is_ident(start) {
                if let Some(v) = self.lookup(text) {
                    return v.clone();
                }
            }
            return Val::Other;
        }
        // Two-term constant fold: `A op B` over literals/const bindings.
        if end == start + 3 && c.punct(start + 1).is_some() {
            let term = |i: usize| -> Option<i128> {
                match c.toks[i].kind {
                    TokenKind::Num => int_literal(c.text(i)),
                    TokenKind::Ident => match self.lookup(c.text(i)) {
                        Some(Val::Const(v)) => Some(*v),
                        _ => None,
                    },
                    _ => None,
                }
            };
            if let (Some(a), Some(b)) = (term(start), term(start + 2)) {
                let folded = match c.text(start + 1) {
                    "+" => a.checked_add(b),
                    "-" => a.checked_sub(b),
                    "*" => a.checked_mul(b),
                    "/" if b != 0 => Some(a / b),
                    "&" => Some(a & b),
                    "|" => Some(a | b),
                    _ => None,
                };
                if let Some(v) = folded {
                    return Val::Const(v);
                }
            }
        }
        // `<expr> as <ty>` tail: the binding takes the cast-to type.
        if end >= start + 3 && c.is_ident(end - 1) && c.is_word(end - 2, "as") {
            let ty = c.text(end - 1);
            if WIDE_TYPES.contains(&ty) {
                return Val::Wide(ty.to_string());
            }
            if ty == "f64" || ty == "f32" {
                return Val::Float;
            }
        }
        // Call shapes: parallel fan-out, handles, guards.
        for j in start..end {
            if c.is_ident(j) && c.is_punct(j + 1, "(") {
                match c.text(j) {
                    "map_chunks" => return Val::Parallel,
                    "spawn" => return Val::Handle,
                    "lock" => return Val::Guard(self.lock_identity(j, end)),
                    _ => {}
                }
            }
        }
        // A chain rooted at a `Handle` binding whose tokens include a
        // no-arg `join()` produces joined thread results.
        if c.is_ident(start)
            && self.lookup(c.text(start)) == Some(&Val::Handle)
            && self.chain_has_join(start, end)
        {
            return Val::Parallel;
        }
        Val::Other
    }

    /// The identity of the lock acquired by the `lock` token at `at`:
    /// for a method call (`shared.queue.lock()`) the receiver's last
    /// field; for the free helper (`lock(&shared.queue)`) the last
    /// identifier inside the argument parens.
    fn lock_identity(&self, at: usize, end: usize) -> String {
        let c = self.c;
        // Method form: ident `.` lock — the preceding identifier.
        if c.is_punct(at - 1, ".") && c.is_ident(at.wrapping_sub(2)) {
            return c.text(at - 2).to_string();
        }
        // Free form: last identifier inside the balanced paren group.
        let close = c.matching(at + 1, end);
        (at + 1..close)
            .rev()
            .find(|&j| c.is_ident(j))
            .map_or_else(|| String::from("?"), |j| c.text(j).to_string())
    }

    /// Whether the range contains a no-argument `.join()` call (thread
    /// join — string `join(", ")` takes an argument and never matches).
    fn chain_has_join(&self, start: usize, end: usize) -> bool {
        let c = self.c;
        (start..end)
            .any(|j| c.is_word(j, "join") && c.is_punct(j + 1, "(") && c.is_punct(j + 2, ")"))
    }

    /// Walks a dotted receiver chain backwards from the `.` at `dot` and
    /// returns the index of its head identifier (`parts` in
    /// `parts.iter().copied()`), skipping balanced paren/turbofish
    /// groups. `None` when the receiver is not a simple chain.
    fn chain_head(&self, dot: usize) -> Option<usize> {
        let c = self.c;
        let mut i = dot; // points at a `.`
        for _ in 0..16 {
            // Before the dot: a call close, a turbofish close, or an ident.
            let mut j = i.checked_sub(1)?;
            if c.is_punct(j, ")") {
                // Skip the balanced paren group.
                let mut depth = 1i32;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    depth -= c.nesting(j);
                }
                j = j.checked_sub(1)?;
                // Skip a `::<T>` turbofish between name and parens.
                if c.is_punct(j, ">") {
                    let mut depth = 1i32;
                    while depth > 0 {
                        j = j.checked_sub(1)?;
                        depth += i32::from(c.is_punct(j, ">")) - i32::from(c.is_punct(j, "<"));
                    }
                    j = j.checked_sub(1)?;
                    if !c.is_punct(j, "::") {
                        return None;
                    }
                    j = j.checked_sub(1)?;
                }
            }
            if !c.is_ident(j) {
                return None;
            }
            // Head reached when no further `.` precedes.
            match j.checked_sub(1) {
                Some(p) if c.is_punct(p, ".") => i = p,
                _ => return Some(j),
            }
        }
        None
    }

    /// Reads token `i` of the body ending at `end`; `call` is the call
    /// whose name token it is, if any.
    pub(crate) fn token(&mut self, i: usize, call: Option<&CallAt>, end: usize) {
        let c = self.c;
        let stmt = i >= self.expr;
        if let Some((name, val)) = self.pending.take_if(|_| stmt) {
            self.bind(&name, val, self.depth);
        }
        if i < self.skip {
            return;
        }
        if stmt && c.is_punct(i, "{") {
            self.depth += 1;
        } else if stmt && c.is_punct(i, "}") {
            self.depth = self.depth.saturating_sub(1);
            let depth = self.depth;
            self.binds.retain(|b| b.depth <= depth);
        }
        if !c.is_ident(i) {
            return;
        }
        if let Some(call) = call {
            self.call_site(call);
        }
        match c.text(i) {
            "as" => self.cast_site(i),
            "sum" | "fold" if c.is_punct(i - 1, ".") => self.reduction_site(i),
            _ if !stmt => {}
            "let" => {
                if let Some(l) = crate::walk::let_stmt(c, i, end) {
                    self.let_stmt(&l, c.line(i));
                }
            }
            "for" => self.for_loop(i),
            "drop" if c.is_punct(i + 1, "(") => {
                if c.is_ident(i + 2) && c.is_punct(i + 3, ")") {
                    self.kill(c.text(i + 2));
                    self.skip = i + 4;
                }
            }
            "lock" if c.is_punct(i + 1, "(") => {
                // An acquisition outside a `let` (those are recorded in
                // let_stmt): feed the D014 graph.
                let lock = self.lock_identity(i, end);
                let held = self.held_locks();
                self.facts.acquires.push(LockAcq {
                    lock,
                    held,
                    line: c.line(i),
                });
            }
            name => self.assignment(i, name, end),
        }
    }

    /// `name = expr;` reclassifies a tracked binding; `name += expr;`
    /// into a float from a joined or parallel element is a reduction.
    fn assignment(&mut self, i: usize, name: &str, end: usize) {
        let c = self.c;
        let prev_op = matches!(
            c.punct(i - 1),
            Some("=" | "!" | "<" | ">" | "+" | "-" | "*" | "/")
        );
        if c.is_punct(i + 1, "=")
            && !c.is_punct(i + 2, "=")
            && !prev_op
            && self.lookup(name).is_some()
        {
            let stmt_end = c.stmt_end(i + 2, end);
            // `g = cv.wait(g)` keeps the guard live.
            let keeps_guard = matches!(self.lookup(name), Some(Val::Guard(_)))
                && (i + 2..stmt_end).any(|j| c.is_word(j, "wait") && c.is_punct(j + 1, "("));
            if !keeps_guard {
                let val = self.classify_init(i + 2, stmt_end);
                self.kill(name);
                self.bind(name, val, self.depth);
            }
            (self.skip, self.expr) = (i + 2, stmt_end);
        } else if c.is_punct(i + 1, "+")
            && c.is_punct(i + 2, "=")
            && c.toks[i + 1].end == c.toks[i + 2].start
            && self.lookup(name) == Some(&Val::Float)
        {
            let stmt_end = c.stmt_end(i + 3, end);
            let from_parallel = (i + 3..stmt_end).any(|j| {
                c.is_ident(j)
                    && matches!(
                        self.lookup(c.text(j)),
                        Some(Val::ParallelElem) | Some(Val::Parallel)
                    )
            }) || self.chain_has_join(i + 3, stmt_end);
            if from_parallel {
                self.facts.reductions.push(Site {
                    what: format!("float accumulation into `{name}` over joined thread results"),
                    line: c.line(i),
                });
            }
            (self.skip, self.expr) = (i + 3, stmt_end);
        }
    }

    /// Records D014 facts for a call: a direct blocking-I/O site, and —
    /// when a guard is live — a guarded call for the interprocedural
    /// blocking check.
    fn call_site(&mut self, call: &CallAt) {
        let Call { name, kind, line } = &call.call;
        if matches!(kind, CallKind::Method { .. }) && BLOCKING_METHODS.contains(&name.as_str()) {
            self.facts.blocking.push(Site {
                what: format!("{name}()"),
                line: *line,
            });
        }
        if GUARD_MACHINERY.contains(&name.as_str()) {
            return;
        }
        let held = self.held_locks();
        if held.is_empty() {
            return;
        }
        self.facts.guarded_calls.push(GuardedCall {
            callee: name.clone(),
            kind: kind.clone(),
            held,
            line: *line,
        });
    }

    /// Begins a `let` statement: the initializer is classified now, the
    /// binding takes effect after it.
    fn let_stmt(&mut self, l: &Let, line: usize) {
        let c = self.c;
        // A lock taken *as* a new guard binding is an acquisition site
        // for the D014 lock graph, with the current held-set.
        let init_val = l
            .init
            .map_or(Val::Other, |(start, end)| self.classify_init(start, end));
        if let Val::Guard(lock) = &init_val {
            self.facts.acquires.push(LockAcq {
                lock: lock.clone(),
                held: self.held_locks(),
                line,
            });
        }
        // Annotation beats initializer shape for scalar types; the
        // initializer wins for call shapes (Parallel/Handle/Guard).
        let ann: Vec<&str> = (l.ann.0..l.ann.1).map(|k| c.text(k)).collect();
        let val = match Self::classify_type(&ann) {
            Val::Other => init_val,
            ann_val => match init_val {
                Val::Parallel | Val::Handle | Val::Guard(_) | Val::Const(_) => init_val,
                _ => ann_val,
            },
        };
        self.pending = Some((c.text(l.name).to_string(), val));
        (self.skip, self.expr) = (l.init.map_or(l.end, |(start, _)| start), l.end);
    }

    /// `for [&] [mut] x in <chain>`: binds the loop variable when the
    /// chain is rooted at a Parallel/Handle value. The chain and the loop
    /// body are read as statements.
    fn for_loop(&mut self, i: usize) {
        let c = self.c;
        let mut j = i + 1;
        while c.is_punct(j, "&") || c.is_word(j, "mut") {
            j += 1;
        }
        if !c.is_ident(j) || !c.is_word(j + 1, "in") {
            return;
        }
        // The iterated chain's head identifier.
        let mut h = j + 2;
        while c.is_punct(h, "&") || c.is_word(h, "mut") {
            h += 1;
        }
        if c.is_ident(h) {
            if let Some(Val::Parallel | Val::Handle) = self.lookup(c.text(h)) {
                // The loop variable lives in the loop body block.
                self.bind(c.text(j), Val::ParallelElem, self.depth + 1);
            }
        }
        self.skip = j + 2;
    }

    /// Records a D010 site for the `as` keyword at `i` when the operand
    /// is a tracked wide binding and the target type truncates it.
    fn cast_site(&mut self, i: usize) {
        let c = self.c;
        // Operand: the single identifier immediately before `as` (calls,
        // closes and literals are expressions the pass does not judge);
        // `self.field as T` and `x.y as T` are untracked field reads.
        let op_at = i - 1;
        if !c.is_ident(op_at) || c.is_punct(op_at.wrapping_sub(1), ".") || !c.is_ident(i + 1) {
            return;
        }
        let operand = c.text(op_at);
        // Target type: the identifier after `as`.
        let target = c.text(i + 1);
        let src_ty = match self.lookup(operand) {
            Some(Val::Wide(ty)) => ty.clone(),
            Some(Val::Const(v)) => {
                // Const propagation: a value that provably fits is safe.
                if let Some(&(_, bits, signed)) = NARROW_TARGETS
                    .iter()
                    .chain(NARROW_FROM_128.iter())
                    .find(|(n, _, _)| *n == target)
                {
                    if const_fits(*v, bits, signed) {
                        return;
                    }
                    self.facts.casts.push(Site {
                        what: format!(
                            "constant {v} does not fit `{target}` (`{operand} as {target}`)"
                        ),
                        line: c.line(i),
                    });
                }
                return;
            }
            _ => return,
        };
        let truncates = NARROW_TARGETS.iter().any(|(n, _, _)| *n == target)
            || (wide_bits(&src_ty) == 128 && NARROW_FROM_128.iter().any(|(n, _, _)| *n == target));
        if truncates {
            self.facts.casts.push(Site {
                what: format!("`{operand}` ({src_ty}) truncated by `as {target}`"),
                line: c.line(i),
            });
        }
    }

    /// Records a D009 site for the `.sum`/`.fold` method name at `i` when
    /// the receiver chain is rooted at a parallel value and the reduction
    /// is float-typed.
    fn reduction_site(&mut self, i: usize) {
        let c = self.c;
        let name = c.text(i);
        let Some(head) = self.chain_head(i - 1) else {
            return;
        };
        let head_name = c.text(head);
        let parallel = match self.lookup(head_name) {
            Some(Val::Parallel) => true,
            Some(Val::Handle) => self.chain_has_join(head, i),
            _ => false,
        };
        // Float evidence: a `::<f64>` turbofish on `sum`, or a `fold`
        // seeded with a float literal.
        let is_float = if name == "sum" {
            c.is_punct(i + 1, "::")
                && c.is_punct(i + 2, "<")
                && matches!(c.text(i + 3), "f64" | "f32")
        } else {
            c.is_punct(i + 1, "(")
                && c.toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Num)
                && float_literal(c.text(i + 2))
        };
        if parallel && is_float {
            self.facts.reductions.push(Site {
                what: format!("f64 {name}() over `{head_name}` (parallel fan-out output)"),
                line: c.line(i),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    /// The dataflow facts the body walker mines from `src` (one fn).
    fn facts(src: &str) -> BodyFacts {
        let fns = parse_file("crates/x/src/lib.rs", src, &lex(src), false);
        fns[0].flow.clone()
    }

    // --- D009 ------------------------------------------------------------

    #[test]
    fn sum_over_map_chunks_output_is_a_reduction() {
        let f = facts(
            "fn f(par: Parallelism, n: usize) -> f64 {\n\
                 let parts = map_chunks(par, n, |r| r.len() as f64);\n\
                 parts.iter().sum::<f64>()\n\
             }\n",
        );
        assert_eq!(f.reductions.len(), 1, "{f:?}");
        assert_eq!(f.reductions[0].line, 3);
    }

    #[test]
    fn join_accumulation_into_float_is_a_reduction() {
        let f = facts(
            "fn f(handles: Vec<JoinHandle<f64>>) -> f64 {\n\
                 let mut total = 0.0f64;\n\
                 for h in handles {\n\
                     total += h.join().unwrap_or(0.0);\n\
                 }\n\
                 total\n\
             }\n",
        );
        assert_eq!(f.reductions.len(), 1, "{f:?}");
    }

    #[test]
    fn ordinary_slice_sum_is_not_a_reduction() {
        let f = facts(
            "fn f(intervals: &[f64]) -> f64 {\n\
                 intervals.iter().sum::<f64>() / intervals.len() as f64\n\
             }\n",
        );
        assert!(f.reductions.is_empty(), "{f:?}");
    }

    #[test]
    fn integer_sum_over_parallel_output_is_not_flagged() {
        let f = facts(
            "fn f(par: Parallelism, n: usize) -> u64 {\n\
                 let parts = map_chunks(par, n, |r| r.len() as u64);\n\
                 parts.iter().sum::<u64>()\n\
             }\n",
        );
        assert!(f.reductions.is_empty(), "{f:?}");
    }

    // --- D010 ------------------------------------------------------------

    #[test]
    fn wide_binding_narrow_cast_is_flagged() {
        let f = facts(
            "fn f(raw: u64) -> u16 {\n\
                 raw as u16\n\
             }\n",
        );
        assert_eq!(f.casts.len(), 1, "{f:?}");
        assert!(f.casts[0].what.contains("u64"));
    }

    #[test]
    fn annotated_let_and_chain_copy_are_tracked() {
        let f = facts(
            "fn f(seed: u64) -> u32 {\n\
                 let raw: u64 = seed;\n\
                 let id = raw;\n\
                 id as u32\n\
             }\n",
        );
        assert_eq!(f.casts.len(), 1, "{f:?}");
    }

    #[test]
    fn const_that_fits_is_not_flagged() {
        let f = facts(
            "fn f() -> u8 {\n\
                 let cap = 255;\n\
                 cap as u8\n\
             }\n",
        );
        assert!(f.casts.is_empty(), "{f:?}");
    }

    #[test]
    fn const_that_overflows_is_flagged() {
        let f = facts(
            "fn f() -> u8 {\n\
                 let cap = 256;\n\
                 cap as u8\n\
             }\n",
        );
        assert_eq!(f.casts.len(), 1, "{f:?}");
    }

    #[test]
    fn const_fold_through_arithmetic() {
        let f = facts(
            "fn f() -> (u16, u16) {\n\
                 let base = 60;\n\
                 let fits = base * 1000;\n\
                 let over = base * 2000;\n\
                 (fits as u16, over as u16)\n\
             }\n",
        );
        // 60_000 fits u16; 120_000 does not.
        assert_eq!(f.casts.len(), 1, "{f:?}");
        assert!(f.casts[0].what.contains("120000"), "{f:?}");
    }

    #[test]
    fn widening_and_expression_casts_are_not_judged() {
        let f = facts(
            "fn f(raw: u64, v: &[u8]) -> u64 {\n\
                 let a = raw as u128;\n\
                 let b = v.len() as u32;\n\
                 a as u64 + b as u64\n\
             }\n",
        );
        // `raw as u128` widens; `v.len() as u32` is an expression (not a
        // tracked binding); `a as u64` truncates a 128-bit source.
        assert_eq!(f.casts.len(), 1, "{f:?}");
        assert!(f.casts[0].what.contains("u128"), "{f:?}");
    }

    // --- guard liveness (D014 raw material) ------------------------------

    /// Callees of the guarded calls that block on a socket.
    fn blocking_under_guard(f: &BodyFacts) -> Vec<(&str, &[String])> {
        f.guarded_calls
            .iter()
            .filter(|g| BLOCKING_METHODS.contains(&g.callee.as_str()))
            .map(|g| (g.callee.as_str(), g.held.as_slice()))
            .collect()
    }

    #[test]
    fn guard_across_write_is_recorded() {
        let f = facts(
            "fn f(stream: &mut TcpStream, queue: &Mutex<VecDeque<Vec<u8>>>) {\n\
                 let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());\n\
                 while let Some(frame) = q.pop_front() {\n\
                     let _ = stream.write_all(&frame);\n\
                 }\n\
             }\n",
        );
        let queue = ["queue".to_string()];
        assert_eq!(
            blocking_under_guard(&f),
            vec![("write_all", &queue[..])],
            "{f:?}"
        );
        let write = f.guarded_calls.iter().find(|g| g.callee == "write_all");
        assert_eq!(write.map(|g| g.line), Some(4), "{f:?}");
    }

    #[test]
    fn second_lock_while_guard_live_records_acquisition_order() {
        // Nested acquisition is not flagged per function: the acquires
        // facts carry the held-set and D014's lock-order graph decides
        // whether the order is actually cyclic.
        let f = facts(
            "fn f(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                 let ga = a.lock().unwrap_or_else(|p| p.into_inner());\n\
                 let gb = b.lock().unwrap_or_else(|p| p.into_inner());\n\
                 *ga + *gb\n\
             }\n",
        );
        assert!(blocking_under_guard(&f).is_empty(), "{f:?}");
        assert_eq!(f.acquires.len(), 2, "{f:?}");
        assert_eq!(f.acquires[0].lock, "a");
        assert!(f.acquires[0].held.is_empty());
        assert_eq!(f.acquires[1].lock, "b");
        assert_eq!(f.acquires[1].held, vec!["a".to_string()]);
    }

    #[test]
    fn drop_before_io_is_clean() {
        let f = facts(
            "fn f(stream: &mut TcpStream, queue: &Mutex<VecDeque<Vec<u8>>>) {\n\
                 let q = queue.lock().unwrap_or_else(|p| p.into_inner());\n\
                 let n = q.len();\n\
                 drop(q);\n\
                 let _ = stream.write_all(&[n as u8]);\n\
             }\n",
        );
        assert!(blocking_under_guard(&f).is_empty(), "{f:?}");
        assert!(f.guarded_calls.iter().any(|g| g.callee == "len"), "{f:?}");
    }

    #[test]
    fn condvar_wait_keeps_guard_without_violation() {
        let f = facts(
            "fn f(shared: &Shared) {\n\
                 let mut q = lock(&shared.queue);\n\
                 loop {\n\
                     if q.is_empty() {\n\
                         q = shared.available.wait(q).unwrap_or_else(|p| p.into_inner());\n\
                     }\n\
                     q.pop_front();\n\
                 }\n\
             }\n",
        );
        assert!(blocking_under_guard(&f).is_empty(), "{f:?}");
        // The reassignment through `wait` keeps the guard live.
        let pop = f.guarded_calls.iter().find(|g| g.callee == "pop_front");
        assert_eq!(pop.map(|g| g.held.clone()), Some(vec!["queue".to_string()]));
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let f = facts(
            "fn f(stream: &mut TcpStream, queue: &Mutex<u64>) {\n\
                 {\n\
                     let g = queue.lock().unwrap_or_else(|p| p.into_inner());\n\
                     let _ = g.count_ones();\n\
                 }\n\
                 let _ = stream.flush();\n\
             }\n",
        );
        assert!(blocking_under_guard(&f).is_empty(), "{f:?}");
        assert!(
            f.guarded_calls.iter().any(|g| g.callee == "count_ones"),
            "{f:?}"
        );
    }
}

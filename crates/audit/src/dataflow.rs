//! Intraprocedural value tracking over the [`lexer`](crate::lexer) token
//! stream — the dataflow layer under rules D009, D010 and D014.
//!
//! The pass runs once per function body (the [`parser`](crate::parser)
//! hands it the signature and body token ranges) and maintains a small
//! abstract environment of local bindings:
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

use crate::lexer::{Token, TokenKind};
use crate::parser::Site;

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
fn float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f64")
        || text.ends_with("f32")
        || (text.contains(['e', 'E']) && !text.starts_with("0x") && !text.starts_with("0X"))
}

/// The analysis pass over one function. Construction borrows the token
/// stream and source text shared with the parser.
pub struct Analyzer<'s, 't> {
    src: &'s str,
    toks: &'t [Token],
    binds: Vec<Bind>,
    facts: BodyFacts,
}

/// Analyzes one function: `sig` is the token range of the signature
/// (from the `fn` keyword to the body `{`), `body` the range strictly
/// inside the braces.
pub fn analyze(src: &str, toks: &[Token], sig: (usize, usize), body: (usize, usize)) -> BodyFacts {
    let mut a = Analyzer {
        src,
        toks,
        binds: Vec::new(),
        facts: BodyFacts::default(),
    };
    a.seed_params(sig.0, sig.1);
    a.walk(body.0, body.1);
    a.facts
}

impl Analyzer<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Punct && self.text(i) == p
    }

    fn is_ident_tok(&self, i: usize) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Ident
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

    /// Seeds bindings from `name: Type` parameter pairs in the signature.
    fn seed_params(&mut self, start: usize, end: usize) {
        // Parameters live inside the first paren group of the signature.
        let Some(open) = (start..end).find(|&i| self.is_punct(i, "(")) else {
            return;
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.is_punct(i, "(") {
                depth += 1;
            } else if self.is_punct(i, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && self.is_punct(i, ":") && i > 0 && self.is_ident_tok(i - 1) {
                let name = self.text(i - 1).to_string();
                // Type tokens run to the `,` (or close paren) at depth 1.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut par = 0i32;
                let mut ty: Vec<&str> = Vec::new();
                while j < end {
                    if self.is_punct(j, "<") {
                        angle += 1;
                    } else if self.is_punct(j, ">") {
                        angle -= 1;
                    } else if self.is_punct(j, "(") {
                        par += 1;
                    } else if self.is_punct(j, ")") {
                        if par == 0 {
                            break;
                        }
                        par -= 1;
                    } else if angle == 0 && par == 0 && self.is_punct(j, ",") {
                        break;
                    }
                    ty.push(self.text(j));
                    j += 1;
                }
                let val = Self::classify_type(&ty);
                if val != Val::Other {
                    self.bind(&name, val, 0);
                }
            }
            i += 1;
        }
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

    /// Index one past the end of the statement starting at `i`: the `;`
    /// or `{` at balanced depth, or `end`.
    fn stmt_end(&self, i: usize, end: usize) -> usize {
        let (mut par, mut brk, mut brc) = (0i32, 0i32, 0i32);
        let mut j = i;
        while j < end {
            if self.is_punct(j, "(") {
                par += 1;
            } else if self.is_punct(j, ")") {
                par -= 1;
            } else if self.is_punct(j, "[") {
                brk += 1;
            } else if self.is_punct(j, "]") {
                brk -= 1;
            } else if self.is_punct(j, "{") {
                if par == 0 && brk == 0 && brc == 0 {
                    return j;
                }
                brc += 1;
            } else if self.is_punct(j, "}") {
                brc -= 1;
                if brc < 0 {
                    return j;
                }
            } else if self.is_punct(j, ";") && par == 0 && brk == 0 && brc == 0 {
                return j;
            }
            j += 1;
        }
        end
    }

    /// Classifies an initializer token range into an abstract value.
    fn classify_init(&self, start: usize, end: usize) -> Val {
        // Single token: literal or chained binding.
        if end == start + 1 {
            let t = &self.toks[start];
            match t.kind {
                TokenKind::Num => {
                    let text = self.text(start);
                    if float_literal(text) {
                        return Val::Float;
                    }
                    if let Some(v) = int_literal(text) {
                        return Val::Const(v);
                    }
                }
                TokenKind::Ident => {
                    if let Some(v) = self.lookup(self.text(start)) {
                        return v.clone();
                    }
                }
                _ => {}
            }
            return Val::Other;
        }
        // Two-term constant fold: `A op B` over literals/const bindings.
        if end == start + 3 && self.toks[start + 1].kind == TokenKind::Punct {
            let term = |i: usize| -> Option<i128> {
                match self.toks[i].kind {
                    TokenKind::Num => int_literal(self.text(i)),
                    TokenKind::Ident => match self.lookup(self.text(i)) {
                        Some(Val::Const(v)) => Some(*v),
                        _ => None,
                    },
                    _ => None,
                }
            };
            if let (Some(a), Some(b)) = (term(start), term(start + 2)) {
                let folded = match self.text(start + 1) {
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
        if end >= start + 3
            && self.is_ident_tok(end - 1)
            && self.is_ident_tok(end - 2)
            && self.text(end - 2) == "as"
        {
            let ty = self.text(end - 1);
            if WIDE_TYPES.contains(&ty) {
                return Val::Wide(ty.to_string());
            }
            if ty == "f64" || ty == "f32" {
                return Val::Float;
            }
        }
        // Call shapes: parallel fan-out, handles, guards.
        let mut j = start;
        while j < end {
            if self.is_ident_tok(j) && self.is_punct(j + 1, "(") {
                match self.text(j) {
                    "map_chunks" => return Val::Parallel,
                    "spawn" => return Val::Handle,
                    "lock" => return Val::Guard(self.lock_identity(j, end)),
                    _ => {}
                }
            }
            j += 1;
        }
        // A chain rooted at a `Handle` binding whose tokens include a
        // no-arg `join()` produces joined thread results.
        if self.is_ident_tok(start) {
            if let Some(Val::Handle) = self.lookup(self.text(start)) {
                if self.chain_has_join(start, end) {
                    return Val::Parallel;
                }
            }
        }
        Val::Other
    }

    /// The identity of the lock acquired by the `lock` token at `at`:
    /// for a method call (`shared.queue.lock()`) the receiver's last
    /// field; for the free helper (`lock(&shared.queue)`) the last
    /// identifier inside the argument parens.
    fn lock_identity(&self, at: usize, end: usize) -> String {
        // Method form: ident `.` lock — the preceding identifier.
        if let Some(recv) = at
            .checked_sub(2)
            .filter(|&p| self.is_punct(p + 1, ".") && self.is_ident_tok(p))
        {
            return self.text(recv).to_string();
        }
        // Free form: last identifier inside the balanced paren group.
        let mut depth = 0i32;
        let mut j = at + 1;
        let mut last = None;
        while j < end {
            if self.is_punct(j, "(") {
                depth += 1;
            } else if self.is_punct(j, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if self.is_ident_tok(j) {
                last = Some(self.text(j).to_string());
            }
            j += 1;
        }
        last.unwrap_or_else(|| String::from("?"))
    }

    /// Whether the range contains a no-argument `.join()` call (thread
    /// join — string `join(", ")` takes an argument and never matches).
    fn chain_has_join(&self, start: usize, end: usize) -> bool {
        (start..end).any(|j| {
            self.is_ident_tok(j)
                && self.text(j) == "join"
                && self.is_punct(j + 1, "(")
                && self.is_punct(j + 2, ")")
        })
    }

    /// Walks a dotted receiver chain backwards from the `.` at `dot` and
    /// returns the index of its head identifier (`parts` in
    /// `parts.iter().copied()`), skipping balanced paren/turbofish
    /// groups. `None` when the receiver is not a simple chain.
    fn chain_head(&self, dot: usize) -> Option<usize> {
        let mut i = dot; // points at a `.`
        for _ in 0..16 {
            // Before the dot: a call close, a turbofish close, or an ident.
            let mut j = i.checked_sub(1)?;
            if self.is_punct(j, ")") {
                // Skip the balanced paren group.
                let mut depth = 1i32;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    if self.is_punct(j, ")") {
                        depth += 1;
                    } else if self.is_punct(j, "(") {
                        depth -= 1;
                    }
                }
                j = j.checked_sub(1)?;
                // Skip a `::<T>` turbofish between name and parens.
                if self.is_punct(j, ">") {
                    let mut depth = 1i32;
                    while depth > 0 {
                        j = j.checked_sub(1)?;
                        if self.is_punct(j, ">") {
                            depth += 1;
                        } else if self.is_punct(j, "<") {
                            depth -= 1;
                        }
                    }
                    j = j.checked_sub(1)?;
                    if !self.is_punct(j, "::") {
                        return None;
                    }
                    j = j.checked_sub(1)?;
                }
            }
            if !self.is_ident_tok(j) {
                return None;
            }
            // Head reached when no further `.` precedes.
            match j.checked_sub(1) {
                Some(p) if self.is_punct(p, ".") => i = p,
                _ => return Some(j),
            }
        }
        None
    }

    /// Whether the tokens after a method name carry a float turbofish
    /// (`::<f64>` / `::<f32>`).
    fn float_turbofish(&self, name_at: usize) -> bool {
        self.is_punct(name_at + 1, "::")
            && self.is_punct(name_at + 2, "<")
            && name_at + 3 < self.toks.len()
            && matches!(self.text(name_at + 3), "f64" | "f32")
    }

    /// The main walk over the body token range.
    fn walk(&mut self, start: usize, end: usize) {
        let mut depth = 1usize; // inside the body braces
        let mut i = start;
        while i < end {
            if self.is_punct(i, "{") {
                depth += 1;
                i += 1;
                continue;
            }
            if self.is_punct(i, "}") {
                depth = depth.saturating_sub(1);
                self.binds.retain(|b| b.depth <= depth);
                i += 1;
                continue;
            }
            // Skip attributes inside bodies.
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                let mut d = 0i32;
                let mut j = i + 1;
                while j < end {
                    if self.is_punct(j, "[") {
                        d += 1;
                    } else if self.is_punct(j, "]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            if self.is_ident_tok(i) {
                if self.is_punct(i + 1, "(") {
                    self.call_site(i);
                }
                match self.text(i) {
                    "let" => {
                        i = self.let_stmt(i, end, depth);
                        continue;
                    }
                    "for" => {
                        if let Some(next) = self.for_loop(i, end, depth) {
                            i = next;
                            continue;
                        }
                    }
                    "drop" if self.is_punct(i + 1, "(") => {
                        if self.is_ident_tok(i + 2) && self.is_punct(i + 3, ")") {
                            let name = self.text(i + 2).to_string();
                            self.kill(&name);
                            i += 4;
                            continue;
                        }
                    }
                    "as" => {
                        self.cast_site(i);
                    }
                    "sum" | "fold" if i > 0 && self.is_punct(i - 1, ".") => {
                        self.reduction_site(i);
                    }
                    "lock" if self.is_punct(i + 1, "(") => {
                        // An acquisition outside a `let` (those are
                        // recorded in let_stmt): feed the D014 graph.
                        let lock = self.lock_identity(i, end);
                        let held = self.held_locks();
                        self.facts.acquires.push(LockAcq {
                            lock,
                            held,
                            line: self.toks[i].line,
                        });
                    }
                    _ => {
                        // Reassignment: `name = expr ;` — reclassify.
                        if self.is_punct(i + 1, "=")
                            && !self.is_punct(i + 2, "=")
                            && !(i > 0
                                && self.toks[i - 1].kind == TokenKind::Punct
                                && matches!(
                                    self.text(i - 1),
                                    "=" | "==" | "!" | "<" | ">" | "+" | "-" | "*" | "/"
                                ))
                            && self.lookup(self.text(i)).is_some()
                        {
                            let name = self.text(i).to_string();
                            let stmt_end = self.stmt_end(i + 2, end);
                            // `g = cv.wait(g)` keeps the guard live.
                            let keeps_guard = matches!(self.lookup(&name), Some(Val::Guard(_)))
                                && (i + 2..stmt_end).any(|j| {
                                    self.is_ident_tok(j)
                                        && self.text(j) == "wait"
                                        && self.is_punct(j + 1, "(")
                                });
                            if !keeps_guard {
                                let val = self.classify_init(i + 2, stmt_end);
                                self.kill(&name);
                                self.bind(&name, val, depth);
                            }
                            self.scan_expr(i + 2, stmt_end, depth);
                            i = stmt_end;
                            continue;
                        }
                        // `+=` accumulation into a float from a joined /
                        // parallel element.
                        if self.is_punct(i + 1, "+")
                            && self.is_punct(i + 2, "=")
                            && self.toks[i + 1].end == self.toks[i + 2].start
                            && self.lookup(self.text(i)) == Some(&Val::Float)
                        {
                            let stmt_end = self.stmt_end(i + 3, end);
                            let from_parallel = (i + 3..stmt_end).any(|j| {
                                self.is_ident_tok(j)
                                    && matches!(
                                        self.lookup(self.text(j)),
                                        Some(Val::ParallelElem) | Some(Val::Parallel)
                                    )
                            }) || self.chain_has_join(i + 3, stmt_end);
                            if from_parallel {
                                self.facts.reductions.push(Site {
                                    what: format!(
                                        "float accumulation into `{}` over joined thread results",
                                        self.text(i)
                                    ),
                                    line: self.toks[i].line,
                                });
                            }
                            self.scan_expr(i + 3, stmt_end, depth);
                            i = stmt_end;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// Scans an expression range for nested call/cast/reduction sites
    /// (used for initializers and RHS ranges consumed whole).
    fn scan_expr(&mut self, start: usize, end: usize, _depth: usize) {
        let mut i = start;
        while i < end {
            if self.is_ident_tok(i) {
                if self.is_punct(i + 1, "(") {
                    self.call_site(i);
                }
                match self.text(i) {
                    "as" => self.cast_site(i),
                    "sum" | "fold" if i > 0 && self.is_punct(i - 1, ".") => self.reduction_site(i),
                    _ => {}
                }
            }
            i += 1;
        }
    }

    /// Records D014 facts for the call whose name token is at `i` (next
    /// token is `(`): a direct blocking-I/O site, and — when a guard is
    /// live — a guarded call for the interprocedural blocking check.
    fn call_site(&mut self, i: usize) {
        let name = self.text(i).to_string();
        let name = name.as_str();
        if matches!(
            name,
            "if" | "while" | "for" | "match" | "loop" | "return" | "fn" | "move" | "else" | "in"
        ) {
            return;
        }
        let line = self.toks[i].line;
        let prev_dot = i.checked_sub(1).is_some_and(|p| self.is_punct(p, "."));
        let prev_path = i.checked_sub(1).is_some_and(|p| self.is_punct(p, "::"));
        if prev_dot && BLOCKING_METHODS.contains(&name) {
            self.facts.blocking.push(Site {
                what: format!("{name}()"),
                line,
            });
        }
        if GUARD_MACHINERY.contains(&name) {
            return;
        }
        let held = self.held_locks();
        if held.is_empty() {
            return;
        }
        let name = name.to_string();
        let kind = if prev_dot {
            crate::parser::CallKind::Method {
                recv: crate::parser::plain_receiver(self.src, self.toks, i),
            }
        } else if prev_path {
            let head = i
                .checked_sub(2)
                .filter(|&p| self.is_ident_tok(p))
                .map(|p| self.text(p).to_string())
                .unwrap_or_default();
            crate::parser::CallKind::Qualified { head }
        } else {
            crate::parser::CallKind::Free
        };
        self.facts.guarded_calls.push(GuardedCall {
            callee: name,
            kind,
            held,
            line,
        });
    }

    /// Handles a `let` statement at `i`; returns the resume index.
    fn let_stmt(&mut self, i: usize, end: usize, depth: usize) -> usize {
        let mut j = i + 1;
        if self.is_ident_tok(j) && self.text(j) == "mut" {
            j += 1;
        }
        // Only simple `let name [: Ty] = init ;` shapes are tracked;
        // patterns (`let Some(x)`, `let (a, b)`, `let [a, b]`) are not.
        if !self.is_ident_tok(j) || !(self.is_punct(j + 1, ":") || self.is_punct(j + 1, "=")) {
            return i + 1;
        }
        let name = self.text(j).to_string();
        let stmt_end = self.stmt_end(j, end);
        let mut ann: Vec<String> = Vec::new();
        let mut k = j + 1;
        if self.is_punct(k, ":") {
            k += 1;
            let mut angle = 0i32;
            while k < stmt_end {
                if self.is_punct(k, "<") {
                    angle += 1;
                } else if self.is_punct(k, ">") {
                    angle -= 1;
                } else if angle == 0 && self.is_punct(k, "=") {
                    break;
                }
                ann.push(self.text(k).to_string());
                k += 1;
            }
        }
        let init_start = if self.is_punct(k, "=") {
            k + 1
        } else {
            stmt_end
        };
        // A lock taken *as* a new guard binding is an acquisition site
        // for the D014 lock graph, with the current held-set.
        let init_val = self.classify_init(init_start, stmt_end);
        if let Val::Guard(lock) = &init_val {
            self.facts.acquires.push(LockAcq {
                lock: lock.clone(),
                held: self.held_locks(),
                line: self.toks[i].line,
            });
        }
        // Annotation beats initializer shape for scalar types; the
        // initializer wins for call shapes (Parallel/Handle/Guard).
        let ann_refs: Vec<&str> = ann.iter().map(String::as_str).collect();
        let val = match Self::classify_type(&ann_refs) {
            Val::Other => init_val,
            ann_val => match init_val {
                Val::Parallel | Val::Handle | Val::Guard(_) | Val::Const(_) => init_val,
                _ => ann_val,
            },
        };
        self.scan_expr(init_start, stmt_end, depth);
        self.bind(&name, val, depth);
        stmt_end
    }

    /// Handles `for x in <chain> {`: binds the loop variable when the
    /// chain is rooted at a Parallel/Handle value. Returns the resume
    /// index (just past `in`'s chain head detection — the body tokens are
    /// walked normally).
    fn for_loop(&mut self, i: usize, end: usize, depth: usize) -> Option<usize> {
        // `for [&] [mut] name in …`
        let mut j = i + 1;
        while self.is_punct(j, "&") || (self.is_ident_tok(j) && self.text(j) == "mut") {
            j += 1;
        }
        if !self.is_ident_tok(j) {
            return None;
        }
        let var = self.text(j).to_string();
        if !(self.is_ident_tok(j + 1) && self.text(j + 1) == "in") {
            return None;
        }
        // The iterated chain's head identifier.
        let head = j + 2;
        let mut h = head;
        while self.is_punct(h, "&") || (self.is_ident_tok(h) && self.text(h) == "mut") {
            h += 1;
        }
        if self.is_ident_tok(h) {
            if let Some(Val::Parallel | Val::Handle) = self.lookup(self.text(h)) {
                // The loop variable lives in the loop body block.
                self.bind(&var, Val::ParallelElem, depth + 1);
            }
        }
        let _ = end;
        Some(j + 2)
    }

    /// Records a D010 site for the `as` keyword at `i` when the operand
    /// is a tracked wide binding and the target type truncates it.
    fn cast_site(&mut self, i: usize) {
        // Operand: the single identifier immediately before `as` (calls,
        // closes and literals are expressions the pass does not judge).
        let Some(op_at) = i.checked_sub(1) else {
            return;
        };
        if !self.is_ident_tok(op_at) {
            return;
        }
        // `self.field as T` and `x.y as T` are untracked field reads.
        if op_at > 0 && self.is_punct(op_at - 1, ".") {
            return;
        }
        let operand = self.text(op_at).to_string();
        // Target type: the identifier after `as`.
        if !self.is_ident_tok(i + 1) {
            return;
        }
        let target = self.text(i + 1);
        let src_ty = match self.lookup(&operand) {
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
                        line: self.toks[i].line,
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
                line: self.toks[i].line,
            });
        }
    }

    /// Records a D009 site for the `.sum`/`.fold` method name at `i` when
    /// the receiver chain is rooted at a parallel value and the reduction
    /// is float-typed.
    fn reduction_site(&mut self, i: usize) {
        let name = self.text(i).to_string();
        let Some(head) = self.chain_head(i - 1) else {
            return;
        };
        let head_name = self.text(head).to_string();
        let parallel = match self.lookup(&head_name) {
            Some(Val::Parallel) => true,
            Some(Val::Handle) => self.chain_has_join(head, i),
            _ => false,
        };
        if !parallel {
            return;
        }
        // Float evidence: a `::<f64>` turbofish on `sum`, or a `fold`
        // seeded with a float literal.
        let is_float = if name == "sum" {
            self.float_turbofish(i)
        } else {
            // fold(0.0, …)
            self.is_punct(i + 1, "(")
                && i + 2 < self.toks.len()
                && self.toks[i + 2].kind == TokenKind::Num
                && float_literal(self.text(i + 2))
        };
        if is_float {
            self.facts.reductions.push(Site {
                what: format!("f64 {name}() over `{head_name}` (parallel fan-out output)"),
                line: self.toks[i].line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Lexes `src` (one fn), finds the signature/body split, runs the
    /// pass.
    fn facts(src: &str) -> BodyFacts {
        let toks: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    crate::lexer::TokenKind::LineComment | crate::lexer::TokenKind::BlockComment
                )
            })
            .collect();
        let fn_at = toks
            .iter()
            .position(|t| t.text(src) == "fn")
            .expect("fn keyword");
        let open = toks
            .iter()
            .enumerate()
            .position(|(i, t)| i > fn_at && t.kind == TokenKind::Punct && t.text(src) == "{")
            .expect("body open");
        analyze(src, &toks, (fn_at, open), (open + 1, toks.len() - 1))
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

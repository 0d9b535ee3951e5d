//! Item-level parser on top of the [`lexer`](crate::lexer): extracts `fn`
//! definitions with their module / `impl` / `trait` ownership, and mines
//! each body for the facts the interprocedural rules need — call
//! expressions (free, method, path-qualified, macro), panic sites
//! (`panic!` family, `unwrap`/`expect`, slice indexing), allocation sites
//! (`Vec::new`, `to_vec`, `clone`, `format!`, …), and growth/eviction
//! method calls on `self` fields.
//!
//! This is deliberately not a full Rust grammar: it tracks brace nesting,
//! angle-bracket balance in `impl` headers, and attribute spans, which is
//! enough to attribute every call to the right function with zero
//! dependencies. Alongside each function it records the two facts
//! resolution narrows by: whether the `fn` is private (no `pub`, outside
//! any trait), and the declared type head of each parameter. Trait
//! `dyn`/generic dispatch is handled conservatively at resolution time
//! (see [`graph`](crate::graph)), not here.

use crate::dataflow::{self, BodyFacts};
use crate::lexer::{lex, Token, TokenKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a free-function call.
    Free,
    /// `recv.name(...)`. `recv` is the receiver when it is one plain
    /// identifier (`self`, a parameter, a local); resolution scopes
    /// `self.name(...)` to the enclosing impl and `param.name(...)` to the
    /// parameter's declared type before falling back to any method of
    /// that name.
    Method {
        /// The plain-identifier receiver, if any.
        recv: Option<String>,
    },
    /// `Head::name(...)` — `head` is the path segment before the final
    /// `::`, e.g. `Vec` in `Vec::with_capacity`.
    Qualified {
        /// Path segment immediately before the called name.
        head: String,
    },
    /// `name!(...)` — a macro invocation.
    Macro,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment / method name / macro name).
    pub name: String,
    /// Shape of the call site.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
}

/// A potentially panicking expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// What the site is (`unwrap()`, `panic!`, `index []`, `clone()`, …).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// A growth or eviction method call on a `self` field
/// (`self.seen.insert(...)` → field `seen`, method `insert`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldOp {
    /// Dotted field path under `self` (`seen`, `windows.traffic`).
    pub field: String,
    /// The method invoked on it.
    pub method: String,
    /// 1-based source line.
    pub line: usize,
}

/// One parsed function definition with its mined body facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self type or `trait` name, if any.
    pub owner: Option<String>,
    /// Enclosing module path (lexical `mod` nesting only).
    pub module: Vec<String>,
    /// Workspace-relative file, forward slashes.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inside `#[cfg(test)]` scope, under `#[test]`, or in a test path.
    pub is_test: bool,
    /// Call expressions in the body, in source order.
    pub calls: Vec<Call>,
    /// Panic sites in the body.
    pub panics: Vec<Site>,
    /// Allocation sites in the body.
    pub allocs: Vec<Site>,
    /// Growth calls on `self` fields (`insert`/`push`/…).
    pub grows: Vec<FieldOp>,
    /// Eviction calls on `self` fields (`remove`/`pop`/`retain`/…).
    pub evicts: Vec<FieldOp>,
    /// No `pub`, outside any `trait`/`impl Trait for T`: callable only
    /// from its defining module's subtree.
    pub private: bool,
    /// Parameters in declaration order (`self` excluded), each with its
    /// declared type head (`Sim` for `&mut Sim<A>`; `None` for generic,
    /// `dyn`/`impl`, `Self` or non-path types) unless the body may rebind
    /// the name.
    pub params: Vec<(String, Option<String>)>,
    /// Dataflow facts (D009, D010, D014) from the value-tracking pass.
    pub flow: BodyFacts,
    /// Taint facts (D012–D014) mined from the body.
    pub taint: crate::taint::FnTaint,
}

impl FnDef {
    /// `Owner::name` when the fn is a method, else `name` — prefixed with
    /// the module path. The identity used in call chains and tests.
    pub fn qualified(&self) -> String {
        let mut q = String::new();
        for m in &self.module {
            q.push_str(m);
            q.push_str("::");
        }
        if let Some(o) = &self.owner {
            q.push_str(o);
            q.push_str("::");
        }
        q.push_str(&self.name);
        q
    }
}

/// Keywords that look like call heads but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "loop", "return", "fn", "move", "else", "in",
];

/// Keywords allowed immediately before `[` without making it an index
/// expression (slice patterns, bindings).
const NON_INDEX_KEYWORDS: [&str; 12] = [
    "let", "in", "mut", "ref", "return", "if", "else", "match", "loop", "while", "for", "box",
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

/// Parses one file into its function definitions. `rel` is the
/// workspace-relative path; `path_is_test` marks whole-file test
/// collateral (tests/, benches/, examples/).
pub fn parse_file(rel: &str, source: &str, path_is_test: bool) -> Vec<FnDef> {
    let tokens: Vec<Token> = lex(source)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut p = Parser {
        src: source,
        toks: &tokens,
        rel,
        fns: Vec::new(),
    };
    let end = tokens.len();
    p.items(
        0,
        end,
        &mut Scope {
            module: Vec::new(),
            owner: None,
            is_test: path_is_test,
            in_trait: false,
            generics: Vec::new(),
        },
    );
    p.fns
}

/// The receiver of the method call whose name token is at `name_at` (a
/// `.` precedes it) when that receiver is one plain identifier: `self` in
/// `self.step()`, `sim` in `sim.run()`. Field chains and expression
/// receivers give `None`.
pub(crate) fn plain_receiver(src: &str, toks: &[Token], name_at: usize) -> Option<String> {
    let recv = toks.get(name_at.checked_sub(2)?)?;
    let chained = name_at
        .checked_sub(3)
        .and_then(|k| toks.get(k))
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == ".");
    (recv.kind == TokenKind::Ident && !chained).then(|| recv.text(src).to_string())
}

/// Lexical context an item is parsed in.
struct Scope {
    module: Vec<String>,
    owner: Option<String>,
    is_test: bool,
    /// Inside a `trait` definition or an `impl Trait for T` block.
    in_trait: bool,
    /// Type parameters of the enclosing `impl`/`trait`.
    generics: Vec<String>,
}

struct Parser<'s, 't> {
    src: &'s str,
    toks: &'t [Token],
    rel: &'s str,
    fns: Vec<FnDef>,
}

impl Parser<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Punct && self.text(i) == p
    }

    fn is_ident(&self, i: usize, id: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Ident && self.text(i) == id
    }

    /// Index one past the `}` matching the `{` at `open` (bounded by `end`).
    fn matching_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.is_punct(i, "{") {
                depth += 1;
            } else if self.is_punct(i, "}") {
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
        let mut depth = 0usize;
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

    /// Walks the items in `[start, end)`.
    fn items(&mut self, start: usize, end: usize, scope: &mut Scope) {
        let mut i = start;
        // Attributes seen since the last item: is any `cfg(test)` / `test`?
        let mut pending_test_attr = false;
        while i < end {
            // Attribute: `#` `[` … `]` (also `#![…]`).
            if self.is_punct(i, "#") {
                let mut j = i + 1;
                if self.is_punct(j, "!") {
                    j += 1;
                }
                if self.is_punct(j, "[") {
                    let close = self.matching_bracket(j, end);
                    let attr_text: Vec<&str> = (j..close).map(|k| self.text(k)).collect();
                    let joined = attr_text.join("");
                    if joined.contains("cfg(test") || joined == "[test]" {
                        pending_test_attr = true;
                    }
                    i = close;
                    continue;
                }
            }
            if self.toks[i].kind == TokenKind::Ident {
                match self.text(i) {
                    "mod" => {
                        // `mod name { … }` or `mod name;`
                        let name = if i + 1 < end && self.toks[i + 1].kind == TokenKind::Ident {
                            self.text(i + 1).to_string()
                        } else {
                            String::new()
                        };
                        let mut j = i + 1;
                        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                            j += 1;
                        }
                        if j < end && self.is_punct(j, "{") {
                            let close = self.matching_brace(j, end);
                            let was_test = scope.is_test;
                            scope.is_test |= pending_test_attr;
                            scope.module.push(name);
                            self.items(j + 1, close - 1, scope);
                            scope.module.pop();
                            scope.is_test = was_test;
                            i = close;
                        } else {
                            i = j + 1;
                        }
                        pending_test_attr = false;
                        continue;
                    }
                    "impl" | "trait" => {
                        let is_impl = self.text(i) == "impl";
                        let (owner, body_open, in_trait) = if is_impl {
                            self.impl_header(i, end)
                        } else {
                            let name = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident);
                            let name = name.map_or(String::new(), |t| t.text(self.src).to_string());
                            (name, (i + 1..end).find(|&j| self.is_punct(j, "{")), true)
                        };
                        let Some(open) = body_open else {
                            i += 1;
                            pending_test_attr = false;
                            continue;
                        };
                        let close = self.matching_brace(open, end);
                        let mut inner = Scope {
                            module: scope.module.clone(),
                            owner: Some(owner),
                            is_test: scope.is_test || pending_test_attr,
                            in_trait,
                            // `impl<A>` / `trait Name<T>` type parameters.
                            generics: self.generic_names(i + 2 - usize::from(is_impl), open),
                        };
                        self.items(open + 1, close - 1, &mut inner);
                        i = close;
                        pending_test_attr = false;
                        continue;
                    }
                    "fn" => {
                        i = self.fn_def(i, end, scope, pending_test_attr);
                        pending_test_attr = false;
                        continue;
                    }
                    "struct" | "enum" | "union" | "macro_rules" => {
                        // Skip to `;` or over the balanced body.
                        let mut j = i + 1;
                        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                            // Tuple struct `struct S(u8);` — paren then `;`.
                            j += 1;
                        }
                        i = if j < end && self.is_punct(j, "{") {
                            self.matching_brace(j, end)
                        } else {
                            j + 1
                        };
                        pending_test_attr = false;
                        continue;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }

    /// Parses an `impl` header starting at the `impl` token: returns the
    /// self-type name, the index of the body `{`, and whether it is an
    /// `impl Trait for T`.
    fn impl_header(&self, impl_at: usize, end: usize) -> (String, Option<usize>, bool) {
        let mut i = impl_at + 1;
        // Find the body `{`; `<`/`>` never contain braces in a header.
        let mut body = None;
        let mut j = i;
        while j < end {
            if self.is_punct(j, "{") {
                body = Some(j);
                break;
            }
            if self.is_punct(j, ";") {
                break;
            }
            j += 1;
        }
        let header_end = body.unwrap_or(j);
        // If a `for` appears at angle-depth 0, the self type follows it.
        let mut angle = 0i32;
        let mut for_at = None;
        while i < header_end {
            if self.is_punct(i, "<") {
                angle += 1;
            } else if self.is_punct(i, ">") {
                angle -= 1;
            } else if angle == 0 && self.is_ident(i, "for") {
                for_at = Some(i);
            } else if angle == 0 && self.is_ident(i, "where") {
                break;
            }
            i += 1;
        }
        let type_start = for_at.map(|f| f + 1).unwrap_or(impl_at + 1);
        // Last angle-depth-0 identifier before `where`/body is the self
        // type's head segment (`Simulator` in `Simulator<A>`).
        let mut angle = 0i32;
        let mut name = String::new();
        let mut k = type_start;
        while k < header_end {
            if self.is_punct(k, "<") {
                angle += 1;
            } else if self.is_punct(k, ">") {
                angle -= 1;
            } else if angle == 0 && self.is_ident(k, "where") {
                break;
            } else if angle == 0
                && self.toks[k].kind == TokenKind::Ident
                && !matches!(
                    self.text(k),
                    "dyn" | "for" | "impl" | "mut" | "const" | "unsafe"
                )
            {
                name = self.text(k).to_string();
            }
            k += 1;
        }
        (name, body, for_at.is_some())
    }

    /// Identifiers inside the `<…>` list at `open` (`A` and `Agent` in
    /// `<A: Agent>`; empty when no list starts there): every type
    /// parameter, plus bound names — harmless, since a generic name only
    /// ever disables typed resolution.
    fn generic_names(&self, open: usize, end: usize) -> Vec<String> {
        let mut depth = 0i32;
        (open..end)
            .take_while(|&k| {
                depth += i32::from(self.is_punct(k, "<")) - i32::from(self.is_punct(k, ">"));
                depth > 0
            })
            .filter(|&k| self.toks[k].kind == TokenKind::Ident)
            .map(|k| self.text(k).to_string())
            .collect()
    }

    /// +1 for an opening bracket token, -1 for a closing one, else 0.
    fn nesting(&self, k: usize) -> i32 {
        match self.text(k) {
            "(" | "[" | "{" if self.toks[k].kind == TokenKind::Punct => 1,
            ")" | "]" | "}" if self.toks[k].kind == TokenKind::Punct => -1,
            _ => 0,
        }
    }

    /// Parses a `fn` item starting at the `fn` keyword; returns the index
    /// one past the definition.
    fn fn_def(&mut self, fn_at: usize, end: usize, scope: &Scope, test_attr: bool) -> usize {
        let name_at = fn_at + 1;
        if name_at >= end || self.toks[name_at].kind != TokenKind::Ident {
            return fn_at + 1;
        }
        let name = self.text(name_at).to_string();
        // Scan the signature for the body `{` or a `;` (trait fn without
        // default body). Generic bounds may contain braces only inside
        // const generics — rare enough to ignore.
        let mut j = name_at + 1;
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            j += 1;
        }
        if j >= end || self.is_punct(j, ";") {
            return j + 1;
        }
        let body_close = self.matching_brace(j, end);
        let body = (j + 1, body_close - 1);
        let mut generics = scope.generics.clone();
        generics.extend(self.generic_names(name_at + 1, j));
        let mut def = FnDef {
            name,
            owner: scope.owner.clone(),
            module: scope.module.clone(),
            file: self.rel.to_string(),
            line: self.toks[fn_at].line,
            is_test: scope.is_test || test_attr,
            calls: Vec::new(),
            panics: Vec::new(),
            allocs: Vec::new(),
            grows: Vec::new(),
            evicts: Vec::new(),
            // Any `pub` form (`pub(crate)`, `pub(in …)`) since the item's
            // start, past `const`/`unsafe`/`extern "abi"` qualifiers.
            private: !scope.in_trait
                && !(0..fn_at)
                    .rev()
                    .take_while(|&k| !["{", "}", ";", "]"].iter().any(|p| self.is_punct(k, p)))
                    .any(|k| self.is_ident(k, "pub")),
            params: self.params(name_at + 1, j, &generics, body),
            flow: BodyFacts::default(),
            taint: crate::taint::FnTaint::default(),
        };
        self.mine_body(body.0, body.1, &mut def);
        def.flow = dataflow::analyze(self.src, self.toks, (fn_at, j), body);
        def.taint = crate::taint::mine(self.src, self.toks, body, self.rel);
        self.fns.push(def);
        body_close
    }

    /// Mines the parameters out of a signature token range
    /// (`[after_name, body_open)`): identifiers at paren depth 1 that are
    /// immediately followed by `:`, skipping generic bounds (which may
    /// themselves contain parens, e.g. `F: Fn(usize) -> T`), each with
    /// its [`type_head`](Self::type_head) unless the body may rebind it.
    fn params(
        &self,
        start: usize,
        end: usize,
        generics: &[String],
        body: (usize, usize),
    ) -> Vec<(String, Option<String>)> {
        // The parameter list opens at the first `(` at angle depth 0.
        let mut angle = 0i32;
        let mut open = None;
        let mut i = start;
        while i < end {
            if self.is_punct(i, "<") {
                angle += 1;
            } else if self.is_punct(i, ">") {
                angle -= 1;
            } else if angle == 0 && self.is_punct(i, "(") {
                open = Some(i);
                break;
            }
            i += 1;
        }
        let Some(open) = open else {
            return Vec::new();
        };
        let mut names = Vec::new();
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is_punct(i, "(") || self.is_punct(i, "[") {
                depth += 1;
            } else if self.is_punct(i, ")") || self.is_punct(i, "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && self.toks[i].kind == TokenKind::Ident
                && self.is_punct(i + 1, ":")
                && i.checked_sub(1).is_some_and(|p| {
                    self.is_punct(p, "(") || self.is_punct(p, ",") || self.is_ident(p, "mut")
                })
            {
                let name = self.text(i).to_string();
                let ty = self
                    .type_head(i + 2, generics)
                    .filter(|_| !self.may_rebind(body, &name));
                names.push((name, ty));
            }
            i += 1;
        }
        names
    }

    /// The head of the type starting at token `k` when it names a concrete
    /// type: `Sim` for `Sim`, `&Sim`, `&'a mut Sim<A>` or `a::Sim`. `None`
    /// for generic parameters, `dyn`/`impl`, `Self` (or a path through
    /// one of them), and non-path types (slices, tuples, arrays).
    fn type_head(&self, mut k: usize, generics: &[String]) -> Option<String> {
        let skip =
            |t: &Token| t.kind == TokenKind::Lifetime || matches!(t.text(self.src), "&" | "mut");
        while self.toks.get(k).is_some_and(skip) {
            k += 1;
        }
        let mut head = None;
        while let Some(t) = self.toks.get(k).filter(|t| t.kind == TokenKind::Ident) {
            let seg = t.text(self.src);
            if matches!(seg, "dyn" | "impl" | "Self") || generics.iter().any(|g| g == seg) {
                return None;
            }
            head = Some(seg.to_string());
            if !self.is_punct(k + 1, "::") {
                break;
            }
            k += 2;
        }
        head
    }

    /// Whether the body may bind `name` anew, shadowing the parameter: it
    /// occurs in a `let`/`for` pattern, a closure parameter list or a
    /// match-arm head, or the body nests an `fn`. Over-approximate — a
    /// false "yes" only costs the parameter its typed resolution.
    fn may_rebind(&self, (start, end): (usize, usize), name: &str) -> bool {
        for i in start..end {
            let (a, b) = if self.is_ident(i, "fn") {
                return true;
            } else if self.is_ident(i, "let") || self.is_ident(i, "for") {
                // To the `=` / `;` / `in` that ends the pattern.
                let mut depth = 0;
                let stop = (i + 1..end).find(|&k| {
                    depth += self.nesting(k);
                    depth <= 0
                        && (self.is_punct(k, "=")
                            || self.is_punct(k, ";")
                            || self.is_ident(k, "in"))
                });
                (i + 1, stop.unwrap_or(end))
            } else if self.is_punct(i, "|")
                && match self.toks[i - 1].kind {
                    TokenKind::Punct => !matches!(self.text(i - 1), ")" | "]" | "|"),
                    _ => matches!(self.text(i - 1), "move" | "return" | "break"),
                }
            {
                // A closure's parameter list, to the closing `|`.
                let close = (i + 1..end).find(|&k| self.is_punct(k, "|"));
                (i + 1, close.unwrap_or(end))
            } else if self.is_punct(i, "=>") {
                // Back to the `,` / `{` that opens this arm's head.
                let mut depth = 0;
                let open = (start..i).rev().find(|&k| {
                    depth -= self.nesting(k);
                    depth < 0 || depth == 0 && (self.is_punct(k, ",") || self.is_punct(k, ";"))
                });
                (open.unwrap_or(start), i)
            } else {
                continue;
            };
            if (a..b).any(|k| self.is_ident(k, name)) {
                return true;
            }
        }
        false
    }

    /// Extracts calls and rule sites from a body token range. Nested `fn`
    /// items inside the body are attributed to the enclosing function —
    /// conservative and rare.
    fn mine_body(&self, start: usize, end: usize, def: &mut FnDef) {
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            // Skip attribute spans inside bodies (`#[cfg(...)] let …`).
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.matching_bracket(i + 1, end);
                continue;
            }
            if t.kind == TokenKind::Ident {
                let name = self.text(i);
                // Macro call: `name!(…)` / `name![…]` / `name!{…}`.
                if self.is_punct(i + 1, "!")
                    && (self.is_punct(i + 2, "(")
                        || self.is_punct(i + 2, "[")
                        || self.is_punct(i + 2, "{"))
                {
                    def.calls.push(Call {
                        name: name.to_string(),
                        kind: CallKind::Macro,
                        line: t.line,
                    });
                    if PANIC_MACROS.contains(&name) {
                        def.panics.push(Site {
                            what: format!("{name}!"),
                            line: t.line,
                        });
                    }
                    if ALLOC_MACROS.contains(&name) {
                        def.allocs.push(Site {
                            what: format!("{name}!"),
                            line: t.line,
                        });
                    }
                    i += 2;
                    continue;
                }
                // Call: `name(…)` with a non-keyword head.
                if self.is_punct(i + 1, "(") && !NON_CALL_KEYWORDS.contains(&name) {
                    let prev = i.checked_sub(1);
                    let prev_dot = prev.is_some_and(|p| self.is_punct(p, "."));
                    let prev_path = prev.is_some_and(|p| self.is_punct(p, "::"));
                    if prev_dot {
                        self.method_call(i, def);
                    } else if prev_path {
                        // Qualified: walk back the path head.
                        let head = i
                            .checked_sub(2)
                            .filter(|&p| self.toks[p].kind == TokenKind::Ident)
                            .map(|p| self.text(p).to_string())
                            .unwrap_or_default();
                        if ALLOC_QUALIFIED
                            .iter()
                            .any(|(h, n)| *h == head && *n == name)
                        {
                            def.allocs.push(Site {
                                what: format!("{head}::{name}"),
                                line: t.line,
                            });
                        }
                        // `mem::take(&mut self.field)` / `mem::replace(&mut
                        // self.field, …)` move the whole field out — that
                        // empties (or swaps) it, so it counts as eviction.
                        if head == "mem" && (name == "take" || name == "replace") {
                            if let Some(op) = self.mem_evict_target(i + 2, name, t.line) {
                                def.evicts.push(op);
                            }
                        }
                        def.calls.push(Call {
                            name: name.to_string(),
                            kind: CallKind::Qualified { head },
                            line: t.line,
                        });
                    } else {
                        def.calls.push(Call {
                            name: name.to_string(),
                            kind: CallKind::Free,
                            line: t.line,
                        });
                    }
                    i += 1;
                    continue;
                }
            }
            // Index expression: `[` whose previous token closes a value
            // (identifier, `)`, `]`) and is not a binding keyword.
            if self.is_punct(i, "[") {
                if let Some(p) = i.checked_sub(1) {
                    let pt = &self.toks[p];
                    let indexes_value = match pt.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&self.text(p)),
                        TokenKind::Punct => {
                            let s = self.text(p);
                            s == ")" || s == "]"
                        }
                        _ => false,
                    };
                    if indexes_value {
                        def.panics.push(Site {
                            what: "index []".to_string(),
                            line: self.toks[i].line,
                        });
                    }
                }
            }
            i += 1;
        }
    }

    /// Matches `&mut self.field[.field…]` starting at `args_at` (the token
    /// after the `(` of a `mem::take`/`mem::replace` call) and returns the
    /// field it evicts, if the argument has that exact shape.
    fn mem_evict_target(&self, args_at: usize, method: &str, line: usize) -> Option<FieldOp> {
        let mut k = args_at;
        if !self.is_punct(k, "&") {
            return None;
        }
        k += 1;
        if self.is_ident(k, "mut") {
            k += 1;
        }
        if !self.is_ident(k, "self") {
            return None;
        }
        k += 1;
        let mut segs: Vec<String> = Vec::new();
        while self.is_punct(k, ".")
            && k + 1 < self.toks.len()
            && self.toks[k + 1].kind == TokenKind::Ident
        {
            segs.push(self.text(k + 1).to_string());
            k += 2;
        }
        if segs.is_empty() {
            return None;
        }
        Some(FieldOp {
            field: segs.join("."),
            method: method.to_string(),
            line,
        })
    }

    /// Handles `recv.name(` at the name token `i`: classifies the call,
    /// records panic/alloc sites and `self`-field growth/eviction.
    fn method_call(&self, i: usize, def: &mut FnDef) {
        let name = self.text(i);
        let line = self.toks[i].line;
        // Walk the receiver back: `.`-separated identifier chain.
        let mut segs: Vec<String> = Vec::new();
        let mut k = i - 1; // the `.` before the name
        while let Some(prev) = k.checked_sub(1) {
            if self.toks[prev].kind != TokenKind::Ident {
                break;
            }
            segs.push(self.text(prev).to_string());
            let Some(dot) = prev.checked_sub(1) else {
                break;
            };
            if !self.is_punct(dot, ".") {
                break;
            }
            k = dot;
        }
        segs.reverse();
        def.calls.push(Call {
            name: name.to_string(),
            kind: CallKind::Method {
                recv: plain_receiver(self.src, self.toks, i),
            },
            line,
        });
        if PANIC_METHODS.contains(&name) {
            def.panics.push(Site {
                what: format!("{name}()"),
                line,
            });
        }
        if ALLOC_METHODS.contains(&name) {
            def.allocs.push(Site {
                what: format!("{name}()"),
                line,
            });
        }
        // `self.field[.field…].grow_or_evict(...)`.
        if segs.len() >= 2 && segs[0] == "self" {
            let field = segs[1..].join(".");
            if GROW_METHODS.contains(&name) {
                def.grows.push(FieldOp {
                    field,
                    method: name.to_string(),
                    line,
                });
            } else if EVICT_METHODS.contains(&name) {
                def.evicts.push(FieldOp {
                    field,
                    method: name.to_string(),
                    line,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_file("crates/x/src/lib.rs", src, false)
    }

    #[test]
    fn free_fn_and_method_ownership() {
        let fns = parse(
            "fn free() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             trait T { fn defaulted(&self) { self.method(); } }\n",
        );
        let names: Vec<String> = fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "S::method", "T::defaulted"]);
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let fns = parse("impl<A: Agent> Classifier for Simulator<A> { fn run(&self) {} }\n");
        assert_eq!(fns[0].qualified(), "Simulator::run");
    }

    #[test]
    fn module_nesting_and_cfg_test() {
        let fns = parse(
            "mod inner { fn a() {} }\n\
             #[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\n",
        );
        assert_eq!(fns[0].qualified(), "inner::a");
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test && fns[2].is_test);
    }

    #[test]
    fn calls_are_classified() {
        let fns = parse(
            "fn f(&self) {\n\
                 helper();\n\
                 self.dispatch();\n\
                 self.queue.push(1);\n\
                 EventQueue::new();\n\
                 println!(\"x\");\n\
             }\n",
        );
        let c = &fns[0].calls;
        assert_eq!(
            c[0],
            Call {
                name: "helper".into(),
                kind: CallKind::Free,
                line: 2
            }
        );
        assert_eq!(
            c[1],
            Call {
                name: "dispatch".into(),
                kind: CallKind::Method {
                    recv: Some("self".into())
                },
                line: 3
            }
        );
        assert_eq!(
            c[2],
            Call {
                name: "push".into(),
                kind: CallKind::Method { recv: None },
                line: 4
            }
        );
        assert_eq!(
            c[3],
            Call {
                name: "new".into(),
                kind: CallKind::Qualified {
                    head: "EventQueue".into()
                },
                line: 5
            }
        );
        assert_eq!(
            c[4],
            Call {
                name: "println".into(),
                kind: CallKind::Macro,
                line: 6
            }
        );
    }

    #[test]
    fn panic_sites_include_indexing_but_not_patterns() {
        let fns = parse(
            "fn f(v: &[u32], m: &M) -> u32 {\n\
                 let [a, b] = [1, 2];\n\
                 let x = v[0];\n\
                 let y = m.counts[a as usize];\n\
                 v.first().unwrap() + panic_free(x, y, b)\n\
             }\n",
        );
        let p = &fns[0].panics;
        assert_eq!(p.len(), 3, "{p:?}");
        assert_eq!(
            p[0],
            Site {
                what: "index []".into(),
                line: 3
            }
        );
        assert_eq!(
            p[1],
            Site {
                what: "index []".into(),
                line: 4
            }
        );
        assert_eq!(
            p[2],
            Site {
                what: "unwrap()".into(),
                line: 5
            }
        );
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        let fns = parse("fn f() {\n    #[allow(unused)]\n    let x = 1;\n}\n");
        assert!(fns[0].panics.is_empty());
    }

    #[test]
    fn vec_macro_is_alloc_not_index() {
        let fns = parse("fn f() { let v = vec![1, 2]; }\n");
        assert_eq!(fns[0].allocs.len(), 1);
        assert!(fns[0].panics.is_empty());
    }

    #[test]
    fn growth_and_eviction_field_ops() {
        let fns = parse(
            "impl A {\n\
                 fn grow(&mut self) { self.seen.insert(1); self.windows.traffic.push(2); }\n\
                 fn bound(&mut self) { self.seen.pop_first(); local.push(3); }\n\
             }\n",
        );
        assert_eq!(
            fns[0].grows,
            vec![
                FieldOp {
                    field: "seen".into(),
                    method: "insert".into(),
                    line: 2
                },
                FieldOp {
                    field: "windows.traffic".into(),
                    method: "push".into(),
                    line: 2
                },
            ]
        );
        assert_eq!(
            fns[1].evicts,
            vec![FieldOp {
                field: "seen".into(),
                method: "pop_first".into(),
                line: 3
            }]
        );
        // `local.push` is not a self-field growth.
        assert!(fns[1].grows.is_empty());
    }

    #[test]
    fn mem_take_and_replace_are_evictions() {
        let fns = parse(
            "impl A {\n\
                 fn grow(&mut self) { self.ready.push(1); }\n\
                 fn drain(&mut self) -> Vec<u32> { std::mem::take(&mut self.ready) }\n\
                 fn swap(&mut self) { let _ = std::mem::replace(&mut self.slot, 0); }\n\
                 fn not_a_field(&mut self, v: &mut Vec<u32>) { std::mem::take(v); }\n\
             }\n",
        );
        assert_eq!(
            fns[1].evicts,
            vec![FieldOp {
                field: "ready".into(),
                method: "take".into(),
                line: 3
            }]
        );
        assert_eq!(
            fns[2].evicts,
            vec![FieldOp {
                field: "slot".into(),
                method: "replace".into(),
                line: 4
            }]
        );
        assert!(fns[3].evicts.is_empty());
    }

    #[test]
    fn alloc_sites_cover_qualified_methods_and_macros() {
        let fns = parse(
            "fn f() {\n\
                 let a = Vec::new();\n\
                 let b = x.to_vec();\n\
                 let c = y.clone();\n\
                 let d = format!(\"{a:?}\");\n\
             }\n",
        );
        let whats: Vec<&str> = fns[0].allocs.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["Vec::new", "to_vec()", "clone()", "format!"]);
    }

    #[test]
    fn const_fn_is_parsed() {
        let fns = parse("impl E { pub const fn index(self) -> usize { 0 } }\n");
        assert_eq!(fns[0].qualified(), "E::index");
    }

    #[test]
    fn trait_fn_without_body_is_skipped() {
        let fns = parse("trait T { fn sig(&self); fn with_body(&self) { self.sig(); } }\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].qualified(), "T::with_body");
    }
}

//! Item-level parser on top of the [`lexer`](crate::lexer)'s
//! [`Cursor`]: extracts `fn` definitions with their module / `impl` /
//! `trait` ownership, and hands each body to the one body walker
//! (`walk`), which mines the facts every rule layer
//! needs — call expressions (free, method, path-qualified, macro), panic
//! sites (`panic!` family, `unwrap`/`expect`, slice indexing), allocation
//! sites (`Vec::new`, `to_vec`, `clone`, `format!`, …), growth/eviction
//! method calls on `self` fields, and the dataflow and taint facts.
//!
//! This is deliberately not a full Rust grammar: it tracks brace nesting,
//! angle-bracket balance in `impl` headers, and attribute spans, which is
//! enough to attribute every call to the right function with zero
//! dependencies. Alongside each function it records the facts resolution
//! narrows by: whether the `fn` is a trait item, whether it is private
//! (no `pub`, outside any trait), and the declared type head of each
//! parameter. Trait `dyn`/generic dispatch is handled conservatively at
//! resolution time (see [`graph`](crate::graph)), not here.

use crate::dataflow::BodyFacts;
use crate::lexer::{Cursor, Token, TokenKind};
use crate::taint::FnTaint;
use crate::walk;

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
    /// Inside a `trait` or an `impl Trait for T`: reachable through
    /// generic and `dyn` dispatch from any package.
    pub trait_item: bool,
    /// The trait of the enclosing `impl Trait for T` block: `T::m(..)`
    /// reaches the trait's default `m` when `T` defines none.
    pub implements: Option<String>,
    /// No `pub`, outside any `trait`/`impl Trait for T`: callable only
    /// from its defining module's subtree.
    pub private: bool,
    /// Parameters in declaration order (`self` excluded), each with its
    /// declared type head (`Sim` for `&mut Sim<A>`; `None` for generic,
    /// `dyn`/`impl`, `Self` or non-path types) unless the body may rebind
    /// the name.
    pub params: Vec<(String, Option<String>)>,
    /// Dataflow facts (D009, D010, D014) from the value-tracking sink.
    pub flow: BodyFacts,
    /// Taint facts (D012–D014) mined from the body.
    pub taint: FnTaint,
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

/// Parses one file into its function definitions. `rel` is the
/// workspace-relative path, `tokens` the [`lex`](crate::lexer::lex) of
/// `source`; `path_is_test` marks whole-file test collateral (tests/,
/// benches/, examples/).
pub fn parse_file(rel: &str, source: &str, tokens: &[Token], path_is_test: bool) -> Vec<FnDef> {
    let mut p = Parser {
        c: Cursor::new(source, tokens),
        rel,
        fns: Vec::new(),
    };
    let end = p.c.toks.len();
    p.items(
        0,
        end,
        &mut Scope {
            module: Vec::new(),
            owner: None,
            is_test: path_is_test,
            in_trait: false,
            implements: None,
            generics: Vec::new(),
        },
    );
    p.fns
}

/// Lexical context an item is parsed in.
struct Scope {
    module: Vec<String>,
    owner: Option<String>,
    is_test: bool,
    /// Inside a `trait` definition or an `impl Trait for T` block.
    in_trait: bool,
    /// The trait of an enclosing `impl Trait for T` block.
    implements: Option<String>,
    /// Type parameters of the enclosing `impl`/`trait`.
    generics: Vec<String>,
}

struct Parser<'s> {
    c: Cursor<'s>,
    rel: &'s str,
    fns: Vec<FnDef>,
}

impl Parser<'_> {
    /// Walks the items in `[start, end)`.
    fn items(&mut self, start: usize, end: usize, scope: &mut Scope) {
        let mut i = start;
        // Attributes seen since the last item: is any `cfg(test)` / `test`?
        let mut pending_test_attr = false;
        while i < end {
            // Attribute: `#` `[` … `]` (also `#![…]`).
            if self.c.is_punct(i, "#") {
                let mut j = i + 1;
                if self.c.is_punct(j, "!") {
                    j += 1;
                }
                if self.c.is_punct(j, "[") {
                    let close = self.c.matching(j, end);
                    let attr_text: Vec<&str> = (j..close).map(|k| self.c.text(k)).collect();
                    let joined = attr_text.join("");
                    if joined.contains("cfg(test") || joined == "[test]" {
                        pending_test_attr = true;
                    }
                    i = close;
                    continue;
                }
            }
            if self.c.is_ident(i) {
                match self.c.text(i) {
                    "mod" => {
                        // `mod name { … }` or `mod name;`
                        let name = if i + 1 < end && self.c.is_ident(i + 1) {
                            self.c.text(i + 1).to_string()
                        } else {
                            String::new()
                        };
                        let mut j = i + 1;
                        while j < end && !self.c.is_punct(j, "{") && !self.c.is_punct(j, ";") {
                            j += 1;
                        }
                        if j < end && self.c.is_punct(j, "{") {
                            let close = self.c.matching(j, end);
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
                        let is_impl = self.c.text(i) == "impl";
                        let (owner, body_open, implements) = if is_impl {
                            self.impl_header(i, end)
                        } else {
                            let name = if self.c.is_ident(i + 1) {
                                self.c.text(i + 1).to_string()
                            } else {
                                String::new()
                            };
                            (name, (i + 1..end).find(|&j| self.c.is_punct(j, "{")), None)
                        };
                        let Some(open) = body_open else {
                            i += 1;
                            pending_test_attr = false;
                            continue;
                        };
                        let close = self.c.matching(open, end);
                        let mut inner = Scope {
                            module: scope.module.clone(),
                            owner: Some(owner),
                            is_test: scope.is_test || pending_test_attr,
                            in_trait: !is_impl || implements.is_some(),
                            implements,
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
                        while j < end && !self.c.is_punct(j, "{") && !self.c.is_punct(j, ";") {
                            // Tuple struct `struct S(u8);` — paren then `;`.
                            j += 1;
                        }
                        i = if j < end && self.c.is_punct(j, "{") {
                            self.c.matching(j, end)
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
    /// self-type name, the index of the body `{`, and for an
    /// `impl Trait for T` the trait's name.
    fn impl_header(&self, impl_at: usize, end: usize) -> (String, Option<usize>, Option<String>) {
        let c = &self.c;
        // Find the body `{`; `<`/`>` never contain braces in a header.
        let stop = (impl_at + 1..end)
            .find(|&j| c.is_punct(j, "{") || c.is_punct(j, ";"))
            .unwrap_or(end);
        let body = c.is_punct(stop, "{").then_some(stop);
        // The last angle-depth-0 identifier of a path before `where` is
        // its head segment (`Simulator` in `Simulator<A>`); a `for` at
        // angle-depth 0 ends the trait path and starts the self type's.
        let (mut angle, mut name, mut of_trait) = (0, "", None);
        for k in impl_at + 1..stop {
            angle += i32::from(c.is_punct(k, "<")) - i32::from(c.is_punct(k, ">"));
            if angle != 0 || !c.is_ident(k) {
                continue;
            }
            match c.text(k) {
                "where" => break,
                "for" => of_trait = Some(std::mem::take(&mut name).to_string()),
                "dyn" | "impl" | "mut" | "const" | "unsafe" => {}
                seg => name = seg,
            }
        }
        (name.to_string(), body, of_trait)
    }

    /// Identifiers inside the `<…>` list at `open` (`A` and `Agent` in
    /// `<A: Agent>`; empty when no list starts there): every type
    /// parameter, plus bound names — harmless, since a generic name only
    /// ever disables typed resolution.
    fn generic_names(&self, open: usize, end: usize) -> Vec<String> {
        let mut depth = 0i32;
        (open..end)
            .take_while(|&k| {
                depth += i32::from(self.c.is_punct(k, "<")) - i32::from(self.c.is_punct(k, ">"));
                depth > 0
            })
            .filter(|&k| self.c.is_ident(k))
            .map(|k| self.c.text(k).to_string())
            .collect()
    }

    /// Parses a `fn` item starting at the `fn` keyword; returns the index
    /// one past the definition.
    fn fn_def(&mut self, fn_at: usize, end: usize, scope: &Scope, test_attr: bool) -> usize {
        let name_at = fn_at + 1;
        if name_at >= end || !self.c.is_ident(name_at) {
            return fn_at + 1;
        }
        let name = self.c.text(name_at).to_string();
        // Scan the signature for the body `{` or a `;` (trait fn without
        // default body). Generic bounds may contain braces only inside
        // const generics — rare enough to ignore.
        let mut j = name_at + 1;
        while j < end && !self.c.is_punct(j, "{") && !self.c.is_punct(j, ";") {
            j += 1;
        }
        if j >= end || self.c.is_punct(j, ";") {
            return j + 1;
        }
        let body_close = self.c.matching(j, end);
        let body = (j + 1, body_close - 1);
        let mut generics = scope.generics.clone();
        generics.extend(self.generic_names(name_at + 1, j));
        let params = self.params(name_at + 1, j);
        let mut def = FnDef {
            name,
            owner: scope.owner.clone(),
            module: scope.module.clone(),
            file: self.rel.to_string(),
            line: self.c.line(fn_at),
            is_test: scope.is_test || test_attr,
            calls: Vec::new(),
            panics: Vec::new(),
            allocs: Vec::new(),
            grows: Vec::new(),
            evicts: Vec::new(),
            trait_item: scope.in_trait,
            implements: scope.implements.clone(),
            // Any `pub` form (`pub(crate)`, `pub(in …)`) since the item's
            // start, past `const`/`unsafe`/`extern "abi"` qualifiers.
            private: !scope.in_trait
                && !(0..fn_at)
                    .rev()
                    .take_while(|&k| !["{", "}", ";", "]"].iter().any(|p| self.c.is_punct(k, p)))
                    .any(|k| self.c.is_word(k, "pub")),
            params: params
                .iter()
                .map(|&(p, _)| (self.c.text(p).to_string(), self.type_head(p + 2, &generics)))
                .collect(),
            flow: BodyFacts::default(),
            taint: FnTaint::default(),
        };
        let rebound = walk::body(&self.c, self.rel, &params, body, &mut def);
        for (name, ty) in &mut def.params {
            if rebound.contains(name) {
                *ty = None;
            }
        }
        self.fns.push(def);
        body_close
    }

    /// The parameters of a signature token range (`[after_name,
    /// body_open)`), `self` excluded: each name token at paren depth 1
    /// that is followed by `:`, with the end of its type, skipping generic
    /// bounds (which may themselves contain parens, e.g. `F: Fn(usize) ->
    /// T`). The type runs from two past the name.
    fn params(&self, start: usize, end: usize) -> Vec<(usize, usize)> {
        let c = &self.c;
        // The parameter list opens at the first `(` at angle depth 0.
        let mut angle = 0;
        let Some(open) = (start..end).find(|&i| {
            angle += i32::from(c.is_punct(i, "<")) - i32::from(c.is_punct(i, ">"));
            angle == 0 && c.is_punct(i, "(")
        }) else {
            return Vec::new();
        };
        let close = c.matching(open, end) - 1;
        let mut params = Vec::new();
        let mut i = open + 1;
        while i < close {
            if c.is_ident(i)
                && c.is_punct(i + 1, ":")
                && (c.is_punct(i - 1, "(") || c.is_punct(i - 1, ",") || c.is_word(i - 1, "mut"))
            {
                // The type runs to the `,` outside every bracket.
                let (mut angle, mut depth) = (0, 0);
                let mut k = i + 2;
                while k < close {
                    angle += i32::from(c.is_punct(k, "<")) - i32::from(c.is_punct(k, ">"));
                    depth += c.nesting(k);
                    if angle == 0 && depth == 0 && c.is_punct(k, ",") {
                        break;
                    }
                    k += 1;
                }
                params.push((i, k));
                i = k;
            } else {
                i = c.matching(i, close).max(i + 1);
            }
        }
        params
    }

    /// The head of the type starting at token `k` when it names a concrete
    /// type: `Sim` for `Sim`, `&Sim`, `&'a mut Sim<A>` or `a::Sim`. `None`
    /// for generic parameters, `dyn`/`impl`, `Self` (or a path through
    /// one of them), and non-path types (slices, tuples, arrays).
    fn type_head(&self, mut k: usize, generics: &[String]) -> Option<String> {
        let c = &self.c;
        while c.toks.get(k).is_some_and(|t| t.kind == TokenKind::Lifetime)
            || c.is_punct(k, "&")
            || c.is_word(k, "mut")
        {
            k += 1;
        }
        let mut head = None;
        while c.is_ident(k) {
            let seg = c.text(k);
            if matches!(seg, "dyn" | "impl" | "Self") || generics.iter().any(|g| g == seg) {
                return None;
            }
            head = Some(seg.to_string());
            if !self.c.is_punct(k + 1, "::") {
                break;
            }
            k += 2;
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_file("crates/x/src/lib.rs", src, &lex(src), false)
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
        let src = "impl<A: Agent> Classifier for Simulator<A> { fn run(&self) {} }\n\
                   impl Simulator { fn new() {} }\n";
        let fns = parse(src);
        assert_eq!(fns[0].qualified(), "Simulator::run");
        assert_eq!(fns[0].implements.as_deref(), Some("Classifier"));
        assert_eq!(fns[1].implements, None);
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
    fn indexing_a_try_result_is_a_panic_site() {
        let fns = parse("fn f(r: &mut Reader) -> u8 {\n    r.bytes(1)?[0]\n}\n");
        let index = Site {
            what: "index []".into(),
            line: 2,
        };
        assert_eq!(fns[0].panics, vec![index]);
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

    #[test]
    fn a_block_arm_before_a_match_arm_does_not_rebind_its_names() {
        // The arm scan stops at the `}` closing the block arm before it,
        // so `r` keeps its declared type; a struct pattern in the head
        // still rebinds.
        let fns = parse(
            "fn f(r: &mut Reader, t: u8) { match t { 0 => { r.u8(); } 1 => r.u32(), _ => {} } }\n\
             fn g(r: &mut Reader, t: T) { match t { S { r } => r.u8(), _ => {} } }\n",
        );
        assert_eq!(
            fns[0].params[0],
            ("r".to_string(), Some("Reader".to_string()))
        );
        assert_eq!(fns[1].params[0], ("r".to_string(), None));
    }
}

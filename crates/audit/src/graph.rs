//! The workspace call graph: name-based resolution of the call sites the
//! [`parser`](crate::parser) mined, plus deterministic reachability.
//!
//! Resolution policy (no type inference beyond declared signatures):
//!
//! * **Free calls** `name(...)` resolve to free functions only — same
//!   module first, then same file, then same crate, then workspace-wide.
//!   A method of the same name never captures a free call (shadowing
//!   stays sound).
//! * **Direct self calls** `self.name(...)` resolve to the method of the
//!   enclosing impl/trait type when one exists; otherwise they fall back
//!   to every method of that name (trait default methods live on the
//!   trait type).
//! * **Typed parameter calls** `p.name(...)`, where `p` is declared as
//!   `T`, `&T`, `&mut T` or `T<…>` and never rebound in the body, resolve
//!   to `T::name` when the workspace defines it: rustc's method probe
//!   tries the receiver's own type before any deref or trait object.
//! * **Other method calls** `recv.name(...)` resolve to *every* workspace
//!   method named `name` — the conservative answer for trait-object and
//!   generic dispatch (`Box<dyn App>`, `A: Agent`), `Self`, std wrappers,
//!   and receivers of unknown type.
//! * **Qualified calls** `Head::name(...)` resolve to `Head`'s method if
//!   the workspace defines one, else to free functions named `name`
//!   (module-qualified paths like `helpers::score`).
//!
//! Every candidate must also be visible to the caller under Rust's
//! privacy rules (an edge rustc would reject cannot be a real call): a
//! free fn or inherent method without `pub` is callable only from its
//! defining module's subtree — the same file, or files under `dir/stem/`
//! (`dir/` for a `lib.rs`/`main.rs`/`mod.rs`). Any `pub(…)` counts as
//! `pub`; `trait` items and `impl Trait for T` methods are never private.
//!
//! Calls that resolve to nothing are std/vendored-API calls and simply
//! add no edges. Edges are deduplicated and sorted, and BFS visits in
//! index order, so reachability and the recorded shortest call chains are
//! byte-for-byte reproducible run to run.

use crate::parser::{CallKind, FnDef};
use std::collections::BTreeMap;

/// The resolved workspace call graph over all parsed functions.
pub struct CallGraph {
    /// The parsed functions, in file-then-source order.
    pub fns: Vec<FnDef>,
    /// `edges[i]` = sorted, deduplicated callee indices of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
    /// Free functions by bare name (non-test only).
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by bare name (non-test only).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by `(owner, name)` (non-test only).
    methods_by_owner: BTreeMap<(String, String), Vec<usize>>,
}

/// Strips a workspace-relative path to its crate root (`crates/sim/` or
/// `src/`), the granularity used for same-crate resolution preferences.
fn crate_root(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        match rest.find('/') {
            Some(end) => rel.get(..7 + end + 1).unwrap_or(rel),
            None => rel,
        }
    } else {
        match rel.find('/') {
            Some(end) => rel.get(..end + 1).unwrap_or(rel),
            None => rel,
        }
    }
}

/// Whether an item declared without `pub` in `def` is visible from
/// `caller`: the same file, or a file in the defining module's subtree
/// (`dir/stem/…`, or all of `dir/…` for a `lib.rs`/`main.rs`/`mod.rs`).
fn private_visible(def: &str, caller: &str) -> bool {
    let (dir, file) = def.split_at(def.rfind('/').map_or(0, |k| k + 1));
    let stem = file.trim_end_matches(".rs");
    caller == def
        || caller.strip_prefix(dir).is_some_and(|rest| {
            matches!(stem, "lib" | "main" | "mod")
                || rest.strip_prefix(stem).is_some_and(|r| r.starts_with('/'))
        })
}

impl CallGraph {
    /// Builds the graph from parsed functions. Test functions participate
    /// as callees only if a non-test function actually names them — roots
    /// and rule reporting both exclude them downstream.
    pub fn build(fns: Vec<FnDef>) -> CallGraph {
        // Lookup indexes, retained for per-call-site resolution by the
        // taint layer. BTreeMap: lookups only, but ordered anyway so
        // that no future iteration can introduce nondeterminism.
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue; // never resolve *into* test code
            }
            match &f.owner {
                None => free_by_name.entry(f.name.clone()).or_default().push(i),
                Some(o) => {
                    methods_by_name.entry(f.name.clone()).or_default().push(i);
                    methods_by_owner
                        .entry((o.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        let mut g = CallGraph {
            fns,
            edges: Vec::new(),
            free_by_name,
            methods_by_name,
            methods_by_owner,
        };
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(g.fns.len());
        for (i, f) in g.fns.iter().enumerate() {
            let mut out: Vec<usize> = Vec::new();
            for call in &f.calls {
                out.extend(g.resolve(i, &call.name, &call.kind));
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        g.edges = edges;
        g
    }

    /// Resolves one call site in `fns[caller]` to its candidate callee
    /// indices under the privacy-, module- and type-scoped policy
    /// documented above.
    pub fn resolve(&self, caller: usize, name: &str, kind: &CallKind) -> Vec<usize> {
        let Some(f) = self.fns.get(caller) else {
            return Vec::new();
        };
        // The candidates of `set` that privacy lets `f` call.
        let visible = |set: Option<&Vec<usize>>| -> Vec<usize> {
            set.into_iter()
                .flatten()
                .copied()
                .filter(|&c| {
                    self.fns
                        .get(c)
                        .is_some_and(|g| !g.private || private_visible(&g.file, &f.file))
                })
                .collect()
        };
        let method = |owner: &str| {
            self.methods_by_owner
                .get(&(owner.to_string(), name.to_string()))
        };
        match kind {
            CallKind::Free => {
                let cands = visible(self.free_by_name.get(name));
                // Narrow by proximity: same module+file, then same file,
                // then same crate, then anywhere.
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| self.fns.get(c).is_some_and(|g| g.file == f.file))
                    .collect();
                let same_mod: Vec<usize> = same_file
                    .iter()
                    .copied()
                    .filter(|&c| self.fns.get(c).is_some_and(|g| g.module == f.module))
                    .collect();
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        self.fns
                            .get(c)
                            .is_some_and(|g| crate_root(&g.file) == crate_root(&f.file))
                    })
                    .collect();
                if !same_mod.is_empty() {
                    same_mod
                } else if !same_file.is_empty() {
                    same_file
                } else if !same_crate.is_empty() {
                    same_crate
                } else {
                    cands
                }
            }
            CallKind::Method { recv } => {
                // `self.m()` scopes to the enclosing impl, `p.m()` on a
                // typed parameter to its declared type.
                let owner = match recv.as_deref() {
                    Some("self") => f.owner.clone(),
                    Some(r) => f
                        .params
                        .iter()
                        .find(|(p, _)| p == r)
                        .and_then(|(_, t)| t.clone()),
                    None => None,
                };
                let scoped = visible(owner.and_then(|o| method(&o)));
                if scoped.is_empty() {
                    visible(self.methods_by_name.get(name))
                } else {
                    scoped
                }
            }
            CallKind::Qualified { head } => {
                let scoped = visible(method(head));
                if !scoped.is_empty() {
                    return scoped;
                }
                // Module-qualified free call (`helpers::f()`): accept free
                // fns whose module path ends with the head segment, or any
                // when head is a crate-ish qualifier.
                let crate_ish = matches!(head.as_str(), "crate" | "self" | "super");
                let mut cands = visible(self.free_by_name.get(name));
                cands.retain(|&c| {
                    crate_ish
                        || self
                            .fns
                            .get(c)
                            .is_some_and(|g| g.module.last().map(String::as_str) == Some(head))
                });
                cands
            }
            CallKind::Macro => Vec::new(),
        }
    }

    /// Indices of non-test functions whose qualified name ends with any of
    /// `suffixes` (`"Simulator::run"`) or whose bare name equals a suffix
    /// without `::` (`"predict_row"`).
    pub fn roots(&self, suffixes: &[&str]) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test)
            .filter(|(_, f)| {
                suffixes.iter().any(|s| {
                    if s.contains("::") {
                        let q = f.qualified();
                        q == *s || q.ends_with(&format!("::{s}"))
                    } else {
                        f.name == *s
                    }
                })
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `roots`: returns, for each function index, `Some(parent)`
    /// if reachable (`parent == usize::MAX` for a root). Cycles (mutual
    /// recursion) terminate because visited nodes are never re-enqueued.
    pub fn reachable(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for r in sorted_roots {
            if let Some(slot @ None) = parent.get_mut(r) {
                *slot = Some(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            let callees = self.edges.get(u).map(Vec::as_slice).unwrap_or(&[]);
            for &v in callees {
                if self.fns.get(v).is_some_and(|f| f.is_test) {
                    continue;
                }
                if let Some(slot @ None) = parent.get_mut(v) {
                    *slot = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// The discovery chain of `idx` back to its BFS root, as qualified
    /// names root-first (capped so messages stay readable).
    pub fn chain(&self, parent: &[Option<usize>], idx: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = idx;
        for _ in 0..64 {
            let Some(f) = self.fns.get(cur) else {
                break;
            };
            rev.push(f.qualified());
            match parent.get(cur) {
                Some(Some(p)) if *p != usize::MAX => cur = *p,
                _ => break,
            }
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let mut fns = Vec::new();
        for (rel, src) in files {
            fns.extend(parse_file(rel, src, false));
        }
        CallGraph::build(fns)
    }

    /// `file:Qualified::name` of every callee the fn named `caller` has
    /// an edge to.
    fn callees(g: &CallGraph, caller: &str) -> Vec<String> {
        g.edges[idx(g, caller)]
            .iter()
            .map(|&c| format!("{}:{}", g.fns[c].file, g.fns[c].qualified()))
            .collect()
    }

    fn idx(g: &CallGraph, q: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qualified() == q)
            .unwrap_or_else(|| panic!("no fn {q}"))
    }

    #[test]
    fn mutual_recursion_terminates_and_reaches_both() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\nfn main_like() { ping(); }\n",
        )]);
        let roots = g.roots(&["main_like"]);
        let parent = g.reachable(&roots);
        assert!(parent[idx(&g, "ping")].is_some());
        assert!(parent[idx(&g, "pong")].is_some());
    }

    #[test]
    fn cross_crate_method_edges() {
        let g = graph_of(&[
            (
                "crates/sim/src/simulator.rs",
                "impl Simulator { fn run(&mut self) { self.agent.on_packet(1); } }\n",
            ),
            (
                "crates/routing/src/agent.rs",
                "impl Agent for FloodAgent { fn on_packet(&mut self, x: u32) { self.table[0]; } }\n",
            ),
        ]);
        let parent = g.reachable(&g.roots(&["Simulator::run"]));
        assert!(
            parent[idx(&g, "FloodAgent::on_packet")].is_some(),
            "conservative dispatch must cross crates"
        );
    }

    #[test]
    fn shadowed_free_fn_beats_method_of_same_name() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn score() {}\n\
             impl Model { fn score(&self) { dangerous(); } }\n\
             fn dangerous() { Some(1).unwrap(); }\n\
             fn root() { score(); }\n",
        )]);
        let parent = g.reachable(&g.roots(&["root"]));
        // The bare call resolves to the free fn, not Model::score.
        assert!(parent[idx(&g, "score")].is_some());
        assert!(parent[idx(&g, "Model::score")].is_none());
        assert!(parent[idx(&g, "dangerous")].is_none());
    }

    #[test]
    fn self_calls_prefer_the_enclosing_impl() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) { Some(1).unwrap(); } }\n",
        )]);
        let parent = g.reachable(&g.roots(&["A::go"]));
        assert!(parent[idx(&g, "A::step")].is_some());
        assert!(parent[idx(&g, "B::step")].is_none());
    }

    #[test]
    fn free_calls_prefer_same_module_then_same_crate() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn root() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() { loop {} }\n"),
        ]);
        let parent = g.reachable(&g.roots(&["root"]));
        let a_helper = g
            .fns
            .iter()
            .position(|f| f.file.starts_with("crates/a/") && f.name == "helper")
            .unwrap();
        let b_helper = g
            .fns
            .iter()
            .position(|f| f.file.starts_with("crates/b/") && f.name == "helper")
            .unwrap();
        assert!(parent[a_helper].is_some());
        assert!(parent[b_helper].is_none());
    }

    #[test]
    fn test_fns_are_not_resolution_targets() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn root() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} }\n",
        )]);
        let parent = g.reachable(&g.roots(&["root"]));
        let t = idx(&g, "tests::helper");
        assert!(parent[t].is_none());
    }

    #[test]
    fn chains_walk_back_to_the_root() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let parent = g.reachable(&g.roots(&["a"]));
        assert_eq!(g.chain(&parent, idx(&g, "c")), vec!["a", "b", "c"]);
    }

    #[test]
    fn private_items_resolve_only_within_their_module_subtree() {
        let g = graph_of(&[
            (
                "crates/ml/src/c45.rs",
                "impl Builder { fn build(&mut self) {} }\nfn same_file(b: B) { b.build(); }\n",
            ),
            (
                "crates/ml/src/c45/child.rs",
                "fn child(b: B) { b.build(); }\n",
            ),
            (
                "crates/ml/src/c45_io.rs",
                "fn sibling(b: B) { b.build(); }\n",
            ),
            ("crates/ml/src/lib.rs", "fn helper() {}\n"),
            ("crates/ml/src/deep/er.rs", "fn deeper() { helper(); }\n"),
            (
                "crates/sim/src/scenario.rs",
                "fn other_crate(sim: S) { sim.build(); helper(); }\n",
            ),
        ]);
        let build = ["crates/ml/src/c45.rs:Builder::build"];
        assert_eq!(callees(&g, "same_file"), build);
        assert_eq!(callees(&g, "child"), build);
        assert_eq!(callees(&g, "deeper"), ["crates/ml/src/lib.rs:helper"]);
        assert!(callees(&g, "sibling").is_empty());
        assert!(callees(&g, "other_crate").is_empty());
    }

    #[test]
    fn every_pub_form_resolves_from_anywhere() {
        let g = graph_of(&[
            (
                "crates/a/src/inner.rs",
                "pub(crate) const fn krate() {}\n\
                 pub(super) fn sup() {}\n\
                 pub(in crate::a) unsafe fn within() {}\n\
                 impl T { pub fn method(&self) {} }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn caller(t: U) { krate(); sup(); within(); t.method(); }\n",
            ),
        ]);
        assert_eq!(
            callees(&g, "caller").len(),
            4,
            "{:?}",
            callees(&g, "caller")
        );
    }

    #[test]
    fn typed_parameters_narrow_method_calls() {
        let g = graph_of(&[
            (
                "crates/sim/src/sim.rs",
                "impl Sim { pub fn run(&mut self) {} }\n\
                 impl A { pub fn run(&mut self) {} }\n\
                 impl Table { pub fn len(&self) {} }\n",
            ),
            (
                "crates/core/src/pipeline.rs",
                "impl Pipeline { pub fn run(&self) {} }\n",
            ),
            (
                "crates/x/src/lib.rs",
                "fn typed(s: &mut Sim) { s.run(); }\n\
                 fn owned(s: Sim) { s.run(); }\n\
                 fn generic<A: Agent>(a: &mut A) { a.run(); }\n\
                 fn boxed(b: Box<Sim>) { b.run(); }\n\
                 fn dynamic(d: &dyn Agent) { d.run(); }\n\
                 fn lacking(t: &Table) { t.run(); }\n\
                 fn shadowed(s: &mut Sim) { let s = make(); s.run(); }\n\
                 fn closure(s: &mut Sim) { each(|s| s.run()); }\n",
            ),
        ]);
        let sim = ["crates/sim/src/sim.rs:Sim::run"];
        assert_eq!(callees(&g, "typed"), sim);
        assert_eq!(callees(&g, "owned"), sim);
        let all = [
            "crates/sim/src/sim.rs:Sim::run",
            "crates/sim/src/sim.rs:A::run",
            "crates/core/src/pipeline.rs:Pipeline::run",
        ];
        for f in [
            "generic", "boxed", "dynamic", "lacking", "shadowed", "closure",
        ] {
            assert_eq!(callees(&g, f), all, "{f} must keep the fallback");
        }
    }

    #[test]
    fn qualified_calls_resolve_to_workspace_methods() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl Table { fn new() -> Table { Table } }\nfn root() { Table::new(); }\n",
        )]);
        let parent = g.reachable(&g.roots(&["root"]));
        assert!(parent[idx(&g, "Table::new")].is_some());
    }
}

//! The workspace call graph: name-based resolution of the call sites the
//! [`parser`](crate::parser) mined, plus deterministic reachability.
//!
//! Resolution policy (no type inference beyond declared signatures):
//!
//! * **Free calls** `name(...)` resolve to free functions only — same
//!   module first, then same file, then same package, then workspace-wide.
//!   A method of the same name never captures a free call (shadowing
//!   stays sound).
//! * **Direct self calls** `self.name(...)` and `Self::name(...)` resolve
//!   to the method of the enclosing impl/trait type when one exists;
//!   otherwise they fall back to every method of that name (trait default
//!   methods live on the trait type).
//! * **Typed parameter calls** `p.name(...)`, where `p` is declared as
//!   `T`, `&T`, `&mut T` or `T<…>` and never rebound in the body, resolve
//!   to `T::name` when the workspace defines it: rustc's method probe
//!   tries the receiver's own type before any deref or trait object.
//! * **Other method calls** `recv.name(...)` resolve to *every* workspace
//!   method named `name` — the conservative answer for trait-object and
//!   generic dispatch (`Box<dyn App>`, `A: Agent`), std wrappers, and
//!   receivers of unknown type.
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
//! For the same reason a free fn or inherent method is a candidate only
//! for callers in its own package or in a package that depends on it,
//! directly or transitively ([`Packages`], read from the tree's
//! `Cargo.toml` files). Trait items and `impl Trait for T` methods stay
//! candidates from every package: generic and `dyn` dispatch runs against
//! the dependency direction (the simulator calls the routing agents it
//! never names). A tree without manifests is not filtered.
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
    /// The tree's packages, and `pkg[i]` = the package of `fns[i]`.
    packages: Packages,
    pkg: Vec<Option<usize>>,
}

/// The Cargo packages of a scanned tree: which package each file belongs
/// to, and which packages each one may call into. A package is named by
/// its directory, so a renamed dependency still resolves.
#[derive(Debug, Default)]
pub struct Packages {
    /// Package directories relative to the tree root with a trailing `/`
    /// (`""` for a package at the root), longest first.
    dirs: Vec<String>,
    /// `reach[p][q]`: package `p` is `q` or depends on it, directly or
    /// transitively.
    reach: Vec<Vec<bool>>,
}

/// What resolution needs from one `Cargo.toml`.
#[derive(Default)]
struct Manifest {
    dir: String,
    package: bool,
    /// `[dependencies]`: the key, and the directory of a `path` entry
    /// (`None` for `key.workspace = true`).
    deps: Vec<(String, Option<String>)>,
    /// `[workspace.dependencies]` path entries: key and directory.
    workspace_deps: Vec<(String, String)>,
}

/// `dir` joined with the relative `path`, `..` resolved, as a package
/// directory (trailing `/`, `""` for the root).
fn join_dir(dir: &str, path: &str) -> String {
    let mut segs: Vec<&str> = dir.split('/').filter(|s| !s.is_empty()).collect();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segs.pop();
            }
            seg => segs.push(seg),
        }
    }
    segs.iter().map(|s| format!("{s}/")).collect()
}

/// Reads the sections resolution uses out of the manifest at `rel`: line
/// by line, enough for `key = { path = "…" }`, `key.workspace = true` and
/// `key = { workspace = true }` entries.
fn parse_manifest(rel: &str, text: &str) -> Manifest {
    let mut m = Manifest {
        dir: join_dir(rel.trim_end_matches("Cargo.toml"), ""),
        ..Manifest::default()
    };
    let mut section = "";
    for line in text.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.split(']').next().unwrap_or("").trim();
            m.package |= section == "package";
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let (key, mut via_workspace) = match key.strip_suffix(".workspace") {
            Some(k) => (k.trim(), value.trim() == "true"),
            None => (key, false),
        };
        let mut path = None;
        for field in value.split(['{', ',', '}']) {
            match field.split_once('=').map(|(k, v)| (k.trim(), v.trim())) {
                Some(("path", v)) => path = Some(join_dir(&m.dir, v.trim_matches('"'))),
                Some(("workspace", "true")) => via_workspace = true,
                _ => {}
            }
        }
        match (section, path) {
            ("dependencies", path) if path.is_some() || via_workspace => {
                m.deps.push((key.to_string(), path));
            }
            ("workspace.dependencies", Some(dir)) => m.workspace_deps.push((key.to_string(), dir)),
            _ => {}
        }
    }
    m
}

impl Packages {
    /// Builds the package map from `(path, text)` of every `Cargo.toml`
    /// in the tree, paths relative to its root. A `key.workspace = true`
    /// dependency resolves through the root manifest's
    /// `[workspace.dependencies]`.
    pub fn from_manifests(manifests: &[(String, String)]) -> Packages {
        let mut parsed: Vec<Manifest> = manifests
            .iter()
            .map(|(rel, text)| parse_manifest(rel, text))
            .collect();
        parsed.sort_by(|a, b| b.dir.len().cmp(&a.dir.len()).then(a.dir.cmp(&b.dir)));
        let root = parsed.iter().find(|m| m.dir.is_empty());
        let packages: Vec<&Manifest> = parsed.iter().filter(|m| m.package).collect();
        let dirs: Vec<String> = packages.iter().map(|m| m.dir.clone()).collect();
        let direct: Vec<Vec<usize>> = packages
            .iter()
            .map(|m| {
                m.deps
                    .iter()
                    .filter_map(|(key, path)| {
                        let dir = path.as_ref().or_else(|| {
                            let ws = &root?.workspace_deps;
                            ws.iter().find(|(k, _)| k == key).map(|(_, dir)| dir)
                        })?;
                        dirs.iter().position(|d| d == dir)
                    })
                    .collect()
            })
            .collect();
        let reach = (0..dirs.len())
            .map(|p| {
                let mut seen = vec![false; dirs.len()];
                let mut stack = vec![p];
                while let Some(q) = stack.pop() {
                    if let Some(slot @ false) = seen.get_mut(q) {
                        *slot = true;
                        stack.extend(direct.get(q).into_iter().flatten());
                    }
                }
                seen
            })
            .collect();
        Packages { dirs, reach }
    }

    /// The package `file` belongs to: the deepest package directory that
    /// contains it.
    fn of(&self, file: &str) -> Option<usize> {
        self.dirs.iter().position(|d| file.starts_with(d.as_str()))
    }

    /// Whether code in package `caller` may name an item of package
    /// `def`. A file outside every package is unrestricted.
    fn reaches(&self, caller: Option<usize>, def: Option<usize>) -> bool {
        match (caller, def) {
            (Some(c), Some(d)) => self.reach.get(c).and_then(|r| r.get(d)) == Some(&true),
            _ => true,
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
    /// Builds the graph from parsed functions and the tree's packages.
    /// Test functions participate as callees only if a non-test function
    /// actually names them — roots and rule reporting both exclude them
    /// downstream.
    pub fn build(fns: Vec<FnDef>, packages: Packages) -> CallGraph {
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
        let pkg = fns.iter().map(|f| packages.of(&f.file)).collect();
        let mut g = CallGraph {
            fns,
            edges: Vec::new(),
            free_by_name,
            methods_by_name,
            methods_by_owner,
            packages,
            pkg,
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
    /// indices under the privacy-, package-, module- and type-scoped
    /// policy documented above.
    pub fn resolve(&self, caller: usize, name: &str, kind: &CallKind) -> Vec<usize> {
        let Some(f) = self.fns.get(caller) else {
            return Vec::new();
        };
        // The candidates of `set` that privacy and the package graph
        // let `f` call.
        let caller_pkg = self.pkg.get(caller).copied().flatten();
        let visible = |set: Option<&Vec<usize>>| -> Vec<usize> {
            set.into_iter()
                .flatten()
                .copied()
                .filter(|&c| {
                    self.fns.get(c).is_some_and(|g| {
                        (!g.private || private_visible(&g.file, &f.file))
                            && (g.trait_item
                                || self
                                    .packages
                                    .reaches(caller_pkg, self.pkg.get(c).copied().flatten()))
                    })
                })
                .collect()
        };
        let method = |owner: &str| {
            self.methods_by_owner
                .get(&(owner.to_string(), name.to_string()))
        };
        // The owner's method, else every method of that name.
        let owned_or_any = |owner: Option<String>| {
            let scoped = visible(owner.and_then(|o| method(&o)));
            if scoped.is_empty() {
                visible(self.methods_by_name.get(name))
            } else {
                scoped
            }
        };
        match kind {
            CallKind::Free => {
                let cands = visible(self.free_by_name.get(name));
                // Narrow by proximity: same module+file, then same file,
                // then same package, then anywhere.
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
                let same_package: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| self.pkg.get(c).copied().flatten() == caller_pkg)
                    .collect();
                if !same_mod.is_empty() {
                    same_mod
                } else if !same_file.is_empty() {
                    same_file
                } else if !same_package.is_empty() {
                    same_package
                } else {
                    cands
                }
            }
            CallKind::Method { recv } => {
                // `self.m()` scopes to the enclosing impl, `p.m()` on a
                // typed parameter to its declared type.
                owned_or_any(match recv.as_deref() {
                    Some("self") => f.owner.clone(),
                    Some(r) => f
                        .params
                        .iter()
                        .find(|(p, _)| p == r)
                        .and_then(|(_, t)| t.clone()),
                    None => None,
                })
            }
            CallKind::Qualified { head } if head == "Self" => owned_or_any(f.owner.clone()),
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
        graph_in(files, Packages::default())
    }

    fn graph_in(files: &[(&str, &str)], packages: Packages) -> CallGraph {
        let mut fns = Vec::new();
        for (rel, src) in files {
            fns.extend(parse_file(rel, src, false));
        }
        CallGraph::build(fns, packages)
    }

    fn packages(manifests: &[(&str, &str)]) -> Packages {
        let owned: Vec<(String, String)> = manifests
            .iter()
            .map(|(rel, text)| (rel.to_string(), text.to_string()))
            .collect();
        Packages::from_manifests(&owned)
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

    #[test]
    fn self_qualified_calls_resolve_to_the_enclosing_impl() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl A { fn go(&self) { Self::helper(); } fn helper() {} }\n\
             impl B { fn helper() { Some(1).unwrap(); } }\n",
        )]);
        assert_eq!(callees(&g, "A::go"), ["crates/a/src/lib.rs:A::helper"]);
    }

    #[test]
    fn calls_resolve_only_along_package_dependencies() {
        // `sim` depends on nothing, `routing` on `sim`, `bench` on `routing`.
        let packages = packages(&[
            ("crates/sim/Cargo.toml", "[package]\nname = \"sim\"\n"),
            (
                "crates/routing/Cargo.toml",
                "[package]\nname = \"routing\"\n[dependencies]\nsim.workspace = true\n",
            ),
            (
                "bench/Cargo.toml",
                "[package]\nname = \"bench\"\n[workspace]\n\n[dependencies]\n\
                 routing = { path = \"../crates/routing\" }\n",
            ),
            (
                "Cargo.toml",
                "[workspace.dependencies]\nsim = { path = \"crates/sim\", version = \"1\" }\n",
            ),
        ]);
        let g = graph_in(
            &[
                (
                    "crates/sim/src/radio.rs",
                    "impl Radio { pub fn count_within(&self) { it.count(); } }\n\
                     impl Simulator { pub fn run(&mut self) { agent.on_packet(); } }\n\
                     impl Queue { pub fn len(&self) {} }\n",
                ),
                (
                    "crates/routing/src/aodv.rs",
                    "impl Agent for AodvAgent { fn on_packet(&mut self) { q.len(); } }\n\
                     impl Table { pub fn count(&self) {} }\n\
                     fn route() { helper(); }\n",
                ),
                ("crates/routing/src/util.rs", "pub fn helper() {}\n"),
                ("crates/sim/src/util.rs", "pub fn helper() {}\n"),
                (
                    "bench/src/report.rs",
                    "impl Report { pub fn count(&mut self) {} }\n\
                     impl Report { pub fn on_packet(&mut self) {} }\n",
                ),
            ],
            packages,
        );
        // No package below `sim` defines an inherent `count`.
        assert!(callees(&g, "Radio::count_within").is_empty());
        // Trait dispatch runs against the dependency direction; the
        // inherent `Report::on_packet` of a dependent package does not.
        assert_eq!(
            callees(&g, "Simulator::run"),
            ["crates/routing/src/aodv.rs:AodvAgent::on_packet"]
        );
        // An inherent `pub` method of a dependency still resolves.
        assert_eq!(
            callees(&g, "AodvAgent::on_packet"),
            ["crates/sim/src/radio.rs:Queue::len"]
        );
        // A free call prefers its own package over a dependency's.
        assert_eq!(callees(&g, "route"), ["crates/routing/src/util.rs:helper"]);
    }

    #[test]
    fn manifests_of_this_repository_give_its_dependency_graph() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (mut sources, mut paths) = (Vec::new(), Vec::new());
        crate::collect_files(&root, &mut sources, &mut paths).expect("the repository walks");
        let manifests: Vec<(String, String)> = paths
            .iter()
            .map(|p| {
                let rel = p.strip_prefix(&root).expect("under the root");
                let text = std::fs::read_to_string(p).expect("a readable manifest");
                (rel.to_string_lossy().replace('\\', "/"), text)
            })
            .collect();
        let pk = Packages::from_manifests(&manifests);
        let dir = |d: &str| pk.dirs.iter().position(|x| x == d);
        let reached = |from: &str| -> Vec<&str> {
            pk.dirs
                .iter()
                .filter(|to| pk.reaches(dir(from), dir(to)))
                .map(String::as_str)
                .collect()
        };
        assert_eq!(reached("crates/sim/"), ["crates/rand/", "crates/sim/"]);
        let bench = reached("perfbench/");
        for dep in ["crates/serve/", "", "crates/sim/"] {
            assert!(
                bench.contains(&dep),
                "perfbench/ must reach {dep:?}: {bench:?}"
            );
        }
        assert!(!reached("crates/sim/").contains(&"perfbench/"));
        assert_eq!(pk.of("perfbench/src/report.rs"), dir("perfbench/"));
        assert_eq!(pk.of("src/fleet.rs"), dir(""));
    }
}

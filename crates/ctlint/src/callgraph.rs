//! The shared call graph and reachability engine.
//!
//! Each call resolves from the way the code writes it, against the
//! whole-workspace index — class hierarchy analysis (Dean, Grove and
//! Chambers, ECOOP 1995) with declared `impl` blocks for classes:
//!
//! * `recv.name(..)` reaches the fns named `name` that take a `self`
//!   receiver. Receiver types are not tracked, so method calls still
//!   resolve by simple name.
//! * `name(..)` and module paths — a lowercase qualifier, as in
//!   `ecdsa::verify(..)`, `crate::`, `self::` or `super::` — reach free
//!   fns only: no `impl`, no trait.
//! * `Type::name(..)` reaches `Type`'s own fns plus every fn declared
//!   in a trait or a trait impl. `Self` is the caller's impl type and
//!   `Foo::<T>::name(..)` reads as `Foo`. A module-level `type` alias
//!   reads as the type it names, on both sides: after
//!   `type Scalar = Residue<ModN>;`, `Scalar::f(..)` reaches the fns of
//!   `impl<M> Residue<M>`, and a fn of `impl Scalar` answers to
//!   `Residue::f(..)`. Any other qualifier (`<T as Trait>::`) reaches
//!   the trait fns only.
//!
//! A path `…::name` followed by neither `(` nor `::` is a function
//! passed as a value (`get_or_init(Comb::build)`) and resolves like a
//! call. What stays ambiguous connects to every candidate, erring
//! toward flagging; per-pass allowlists record the audited
//! exceptions. Reachability is a BFS from a pass-chosen root set, with
//! parent pointers retained so every finding can carry a root-first
//! call chain as reviewable evidence.

use crate::index::{FnItem, Index};
use crate::lexer::{is_keyword, partner, Tok, TokKind};
use std::collections::HashMap;

/// One call site or function reference in a fn body.
pub struct Call {
    /// The callee's simple name.
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// The indexed fns it may reach (indices into [`Index::fns`]).
    pub targets: Vec<usize>,
}

/// The call graph over one [`Index`].
pub struct CallGraph {
    /// Per-fn call sites, parallel to [`Index::fns`].
    pub calls: Vec<Vec<Call>>,
}

/// The result of a reachability sweep: the cone and its BFS tree.
pub struct Reach {
    /// Whether fn `i` is in the cone, parallel to [`Index::fns`].
    pub reachable: Vec<bool>,
    /// BFS parent of fn `i` (`None` for roots and unreached fns).
    parent: Vec<Option<usize>>,
}

/// How a call site names its callee, read from the tokens before it.
enum Shape {
    /// `recv.name(..)`.
    Method,
    /// `name(..)` or a module path.
    Free,
    /// `Q::name(..)` for a capitalized segment `Q` (`Self` included);
    /// `None` for any other qualifier.
    Path(Option<String>),
}

impl Shape {
    /// Whether a call of this shape in `caller` can reach `callee`.
    fn reaches(&self, ix: &Index, caller: &FnItem, callee: &FnItem) -> bool {
        match self {
            Shape::Method => callee.has_self,
            Shape::Free => callee.self_type.is_none() && !callee.in_trait,
            Shape::Path(q) => {
                let ty = match q.as_deref() {
                    Some("Self") => caller.self_type.as_deref(),
                    q => q,
                };
                let callee_ty = callee.self_type.as_deref().map(|s| ix.resolve(s));
                callee.in_trait || ty.is_some_and(|t| callee_ty == Some(ix.resolve(t)))
            }
        }
    }
}

impl CallGraph {
    /// Builds the graph for `ix`.
    pub fn build(ix: &Index) -> Self {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in ix.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let calls = ix
            .fns
            .iter()
            .map(|caller| {
                call_sites(&caller.body)
                    .into_iter()
                    .map(|(name, line, shape)| {
                        let targets = by_name
                            .get(name.as_str())
                            .into_iter()
                            .flatten()
                            .copied()
                            .filter(|&t| shape.reaches(ix, caller, &ix.fns[t]))
                            .collect();
                        Call {
                            name,
                            line,
                            targets,
                        }
                    })
                    .collect()
            })
            .collect();
        CallGraph { calls }
    }

    /// BFS from every fn where `seed` holds, following edges out of a
    /// fn only while `follow` holds for it (the secret-flow pass stops
    /// at the vartime boundary; the determinism/panic passes follow
    /// everything).
    pub fn reach(
        &self,
        ix: &Index,
        seed: impl Fn(&FnItem) -> bool,
        follow: impl Fn(&FnItem) -> bool,
    ) -> Reach {
        let mut reachable: Vec<bool> = ix.fns.iter().map(&seed).collect();
        let mut parent: Vec<Option<usize>> = vec![None; ix.fns.len()];
        // Visit in index order (a queue, not a stack) so parent chains
        // are shortest paths — the most readable evidence.
        let mut queue: std::collections::VecDeque<usize> = reachable
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| r.then_some(i))
            .collect();
        while let Some(i) = queue.pop_front() {
            if !follow(&ix.fns[i]) {
                continue;
            }
            for call in &self.calls[i] {
                for &t in &call.targets {
                    if !reachable[t] {
                        reachable[t] = true;
                        parent[t] = Some(i);
                        queue.push_back(t);
                    }
                }
            }
        }
        Reach { reachable, parent }
    }
}

impl Reach {
    /// The root-first chain of qualified fn names ending at fn `i`
    /// (just `[qual_i]` when `i` is itself a root). Empty when `i` is
    /// not in the cone.
    pub fn chain(&self, ix: &Index, i: usize) -> Vec<String> {
        if !self.reachable.get(i).copied().unwrap_or(false) {
            return Vec::new();
        }
        let mut rev = vec![ix.fns[i].qual.clone()];
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            rev.push(ix.fns[p].qual.clone());
            cur = p;
        }
        rev.reverse();
        rev
    }
}

/// Extracts `(callee simple name, line, shape)` triples from body
/// tokens: an identifier directly followed by `(`, or via turbofish
/// `::<T>(`, and a path's last segment followed by neither `(` nor
/// `::` (a function reference). Macro invocations (`name!(…)`) are
/// not calls, but their arguments are scanned like any other tokens.
fn call_sites(body: &[Tok]) -> Vec<(String, u32, Shape)> {
    let sig: Vec<&Tok> = body.iter().filter(|t| !t.is_comment()).collect();
    let punct_at = |k: usize, p: &str| sig.get(k).is_some_and(|n| n.is_punct(p));
    let mut out = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        let mut j = i + 1;
        // `name!` is a macro, not a call.
        if punct_at(j, "!") {
            continue;
        }
        // Turbofish: name::<...>(
        if punct_at(j, "::") && punct_at(j + 1, "<") {
            j = partner(&sig, j + 1).unwrap_or(sig.len()) + 1;
        }
        // In `a::b(…)` only `b` is the callee; a path segment ending
        // neither in `(` nor in `::` is a function reference.
        let reference = i > 0 && sig[i - 1].is_punct("::") && !punct_at(j, "::");
        if punct_at(j, "(") || reference {
            out.push((t.text.clone(), t.line, shape(&sig, i)));
        }
    }
    out
}

/// The shape of the call whose callee identifier is `sig[i]`.
fn shape(sig: &[&Tok], i: usize) -> Shape {
    let before = |k: usize| k.checked_sub(1).and_then(|k| sig.get(k));
    if before(i).is_some_and(|t| t.is_punct(".")) {
        return Shape::Method;
    }
    if !before(i).is_some_and(|t| t.is_punct("::")) {
        return Shape::Free;
    }
    // The qualifier segment, looking through a turbofish `Foo::<T>::`.
    let Some(mut q) = i.checked_sub(2) else {
        return Shape::Free; // `::name(` — an absolute path
    };
    if sig[q].is_punct(">") || sig[q].is_punct(">>") {
        let Some(open) = partner(sig, q) else {
            return Shape::Path(None);
        };
        if !before(open).is_some_and(|t| t.is_punct("::")) || open < 2 {
            return Shape::Path(None); // `<T as Trait>::name(`
        }
        q = open - 2;
    }
    let seg = sig[q];
    if seg.kind != TokKind::Ident {
        return Shape::Path(None);
    }
    if seg.text.starts_with(|c: char| c.is_ascii_uppercase()) {
        Shape::Path(Some(seg.text.clone()))
    } else {
        Shape::Free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_root_first() {
        let mut ix = Index::default();
        ix.add_file(
            "t.rs",
            "fn root() { a(); }\nfn a() { b(); }\nfn b() {}\nfn other() {}\n",
        );
        let cg = CallGraph::build(&ix);
        let reach = cg.reach(&ix, |f| f.name == "root", |_| true);
        let b = ix.fns.iter().position(|f| f.name == "b").unwrap();
        assert_eq!(reach.chain(&ix, b), vec!["root", "a", "b"]);
        let other = ix.fns.iter().position(|f| f.name == "other").unwrap();
        assert!(!reach.reachable[other]);
        assert!(reach.chain(&ix, other).is_empty());
    }

    #[test]
    fn follow_predicate_stops_propagation() {
        let mut ix = Index::default();
        ix.add_file(
            "t.rs",
            "fn root() { stop(); }\nfn stop() { hidden(); }\nfn hidden() {}\n",
        );
        let cg = CallGraph::build(&ix);
        let reach = cg.reach(&ix, |f| f.name == "root", |f| f.name != "stop");
        let stop = ix.fns.iter().position(|f| f.name == "stop").unwrap();
        let hidden = ix.fns.iter().position(|f| f.name == "hidden").unwrap();
        assert!(reach.reachable[stop]);
        assert!(!reach.reachable[hidden]);
    }

    /// Every candidate a shape may pick from, one item a line: a free
    /// fn, the inherent fns of `Foo` and `Bar`, a trait declaration and
    /// its impl on `Bar`.
    const CANDIDATES: &str = "fn f() {}\n\
        impl Foo { fn f() {} fn g(&self) {} fn build() {} }\n\
        impl<T> Bar<T> { fn f() {} fn g(&self) {} }\n\
        trait Tr { fn f(x: u8); }\n\
        impl Tr for Bar<u8> { fn f(x: u8) {} }\n";

    /// The targets (`qual@line`) the calls in `body` resolve to, from
    /// a caller inside `impl Foo`.
    fn resolve(body: &str) -> Vec<String> {
        let mut ix = Index::default();
        let caller = format!("impl Foo {{ fn caller(&self) {{ {body} }} }}\n");
        ix.add_file("t.rs", &(CANDIDATES.to_string() + &caller));
        let cg = CallGraph::build(&ix);
        let caller = ix.fns.iter().position(|f| f.name == "caller").unwrap();
        cg.calls[caller]
            .iter()
            .flat_map(|c| &c.targets)
            .map(|&t| format!("{}@{}", ix.fns[t].qual, ix.fns[t].line))
            .collect()
    }

    #[test]
    fn method_call_reaches_self_receivers() {
        assert_eq!(resolve("x.g();"), ["Foo::g@2", "Bar::g@3"]);
        assert_eq!(resolve("x.g::<u8>();"), ["Foo::g@2", "Bar::g@3"]);
    }

    #[test]
    fn bare_and_module_calls_reach_free_fns() {
        for body in [
            "f();",
            "m::f();",
            "crate::m::f();",
            "self::f();",
            "super::f();",
        ] {
            assert_eq!(resolve(body), ["f@1"], "{body}");
        }
    }

    #[test]
    fn type_path_reaches_its_impl_and_trait_fns() {
        assert_eq!(resolve("Foo::f();"), ["Foo::f@2", "f@4", "Bar::f@5"]);
        assert_eq!(resolve("Self::f();"), ["Foo::f@2", "f@4", "Bar::f@5"]);
        assert_eq!(resolve("Bar::<u8>::f();"), ["Bar::f@3", "f@4", "Bar::f@5"]);
    }

    #[test]
    fn other_qualifiers_reach_trait_fns_only() {
        for body in [
            "Tr::f(x);",
            "<T as Tr>::f(x);",
            "<Vec<u8> as Tr>::f(x);",
            "Vec::f();",
            "T::f();",
        ] {
            assert_eq!(resolve(body), ["f@4", "Bar::f@5"], "{body}");
        }
    }

    #[test]
    fn function_reference_is_an_edge() {
        assert_eq!(resolve("cell.get_or_init(Foo::build);"), ["Foo::build@2"]);
        // A path segment followed by `::` is no callee.
        assert!(resolve("Foo::build::f2();").is_empty());
    }
}

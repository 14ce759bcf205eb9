//! The panic-reachability pass.
//!
//! The ROADMAP's million-device-sweep item makes abort-on-panic
//! unacceptable: one poisoned session must fail closed as a typed
//! error counted in the report, not kill a multi-hour run. This pass
//! statically enumerates every potential panic site reachable from
//! the sweep hot paths, so each is either converted to a typed
//! fail-closed error (`ProtocolError` / `CertError` already model
//! this) or carries a justified allowlist entry naming the invariant
//! that makes it unreachable.
//!
//! **Roots.** The sweep drivers (`interleaved_sweep`, `run_sweep`,
//! `run_worker`), the rekey path (`handshake_sweep`, `run_epochs`),
//! every fn named `step` (the provided `Endpoint::step` message pump
//! among them) and the service daemon's `handle_connection`. The cone
//! is the transitive closure over the shared name-resolved call graph.
//!
//! **Finding classes** (anchored at the offending token, with the
//! root-first reach chain as evidence):
//! * `panic-unwrap` — `.unwrap()` / `.expect()` (and the `_err`
//!   variants). `unwrap_or*` never panics and is not flagged.
//! * `panic-macro` — `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!`. `assert!`/`debug_assert!` are deliberately
//!   excluded: they state API contracts at public boundaries and the
//!   dynamic suite exercises them.
//! * `panic-index` — `base[i]` where `base` resolves (via parameter,
//!   explicitly typed `let`, or `self` field) to a `Vec`/`VecDeque`/
//!   slice and `i` is not a bare literal. Unresolvable bases,
//!   fixed-length arrays (`[T; N]`, typically index-masked) and range
//!   slicing (`&b[..n]`, predominantly length-guarded decode framing
//!   covered by the fail-closed decode suite) are documented
//!   under-approximations.
//! * `panic-div` — integer `/` or `%` with a non-literal divisor
//!   (float division does not panic and is skipped).
//!
//! Tooling files ([`crate::pass::TOOLING_PREFIXES`]) are exempt from
//! emission; reachability still flows through them.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::index::Index;
use crate::lexer::{Tok, TokKind};
use crate::pass::{hot_path_file, Pass};
use std::collections::HashMap;

/// The pass name, as spelled on the CLI.
pub const NAME: &str = "panic-reach";

/// The class vocabulary.
pub const CLASSES: &[&str] = &["panic-unwrap", "panic-macro", "panic-index", "panic-div"];

/// Hot-path root functions (simple names). `step` is the one provided
/// `Endpoint::step`, which reaches every handshake state machine
/// through its protocol hook `advance` (a name-resolved edge that
/// `workspace_clean.rs` pins); `handle_connection` is the service
/// daemon's per-connection worker, which faces untrusted socket bytes.
pub const ROOT_FNS: &[&str] = &[
    "interleaved_sweep",
    "run_sweep",
    "run_worker",
    "handshake_sweep",
    "run_epochs",
    "step",
    "handle_connection",
];

/// The panic-reachability pass.
pub struct PanicReach;

impl Pass for PanicReach {
    fn name(&self) -> &'static str {
        NAME
    }

    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }

    fn default_allowlist(&self) -> &'static str {
        "ci/panic_allow.toml"
    }

    fn analyze(&self, ix: &Index) -> Vec<Finding> {
        analyze(ix)
    }
}

/// Runs the panic-reachability analysis.
pub fn analyze(ix: &Index) -> Vec<Finding> {
    let cg = CallGraph::build(ix);
    let reach = cg.reach(ix, |f| ROOT_FNS.contains(&f.name.as_str()), |_| true);

    // Struct name → (field name → field type), for `self.field[i]`.
    let struct_fields: HashMap<&str, HashMap<&str, &str>> = ix
        .structs
        .iter()
        .map(|s| {
            (
                s.name.as_str(),
                s.fields
                    .iter()
                    .map(|f| (f.name.as_str(), f.ty.as_str()))
                    .collect(),
            )
        })
        .collect();

    let mut findings = Vec::new();
    for (i, f) in ix.fns.iter().enumerate() {
        if !reach.reachable[i] || !hot_path_file(&ix.files[f.file]) {
            continue;
        }
        let chain = reach.chain(ix, i);
        let file = ix.files[f.file].clone();
        let mut emit = |line: u32, class: &str, ident: &str, message: String| {
            findings.push(Finding {
                file: file.clone(),
                line,
                pass: NAME.to_string(),
                class: class.to_string(),
                context: f.qual.clone(),
                ident: ident.to_string(),
                message,
                chain: chain.clone(),
            });
        };

        // Class 1: unwrap/expect call sites.
        for (callee, line) in &cg.calls[i] {
            if matches!(
                callee.as_str(),
                "unwrap" | "expect" | "unwrap_err" | "expect_err"
            ) {
                emit(
                    *line,
                    "panic-unwrap",
                    callee,
                    format!(
                        "`{}` calls `.{}()` on the sweep hot path (convert to a typed \
                         fail-closed error or justify the invariant)",
                        f.qual, callee
                    ),
                );
            }
        }

        let sig: Vec<&Tok> = f.body.iter().filter(|t| !t.is_comment()).collect();
        let lets = typed_lets(&sig);
        for (j, t) in sig.iter().enumerate() {
            // Class 2: panicking macros.
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && sig.get(j + 1).is_some_and(|n| n.is_punct("!"))
            {
                emit(
                    t.line,
                    "panic-macro",
                    &t.text,
                    format!(
                        "`{}` can `{}!` on the sweep hot path (fail closed instead)",
                        f.qual, t.text
                    ),
                );
            }
            // Class 3: dynamic indexing into a Vec/slice.
            if t.is_punct("[") && j > 0 {
                let prev = sig[j - 1];
                if prev.kind == TokKind::Ident && !is_keyword(&prev.text) {
                    if let Some(ty) = base_type(f, &struct_fields, &lets, &sig, j) {
                        if growable(&ty) {
                            if let Some(ident) = dynamic_index(&sig, j) {
                                emit(
                                    prev.line,
                                    "panic-index",
                                    &prev.text,
                                    format!(
                                        "`{}` indexes `{}` (a {}) by `{}` on the sweep hot \
                                         path (use .get() and fail closed, or justify the \
                                         bounds invariant)",
                                        f.qual,
                                        prev.text,
                                        ty.trim(),
                                        ident
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            // Class 4: integer division / remainder by a non-literal.
            if (t.is_punct("/") || t.is_punct("%")) && j > 0 {
                let prev = sig[j - 1];
                let binary_pos = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                    || prev.kind == TokKind::Num
                    || prev.is_punct(")")
                    || prev.is_punct("]");
                let next_literal = sig.get(j + 1).is_some_and(|n| n.kind == TokKind::Num);
                if binary_pos && !next_literal && !float_context(&sig, j, f, &lets) {
                    let divisor = sig.get(j + 1).map(|n| n.text.clone()).unwrap_or_default();
                    emit(
                        t.line,
                        "panic-div",
                        &divisor,
                        format!(
                            "`{}` divides (`{}`) by non-literal `{}` on the sweep hot path \
                             (guard the divisor or justify the nonzero invariant)",
                            f.qual, t.text, divisor
                        ),
                    );
                }
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// `let` bindings with an explicit type: name → space-joined type.
fn typed_lets(sig: &[&Tok]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for (i, t) in sig.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        let mut names = Vec::new();
        let mut ty = Vec::new();
        let mut in_ty = false;
        let mut depth = 0i32;
        for s in sig.iter().skip(i + 1) {
            if s.is_punct("(") || s.is_punct("[") || s.is_punct("<") {
                depth += 1;
            } else if s.is_punct(")") || s.is_punct("]") || s.is_punct(">") {
                depth -= 1;
            } else if s.is_punct(">>") {
                depth -= 2;
            } else if (s.is_punct("=") || s.is_punct(";")) && depth <= 0 {
                break;
            } else if s.is_punct(":") && depth <= 0 {
                in_ty = true;
                continue;
            }
            if in_ty {
                ty.push(s.text.clone());
            } else if s.kind == TokKind::Ident && s.text != "mut" && s.text != "ref" {
                names.push(s.text.clone());
            }
        }
        if !ty.is_empty() {
            let ty = ty.join(" ");
            for n in names {
                out.insert(n, ty.clone());
            }
        }
    }
    out
}

/// Resolves the type of the indexed base at `sig[j - 1]` (where
/// `sig[j]` is `[`): `self.field` via the impl type's fields, else a
/// parameter, else an explicitly typed `let`.
fn base_type(
    f: &crate::index::FnItem,
    struct_fields: &HashMap<&str, HashMap<&str, &str>>,
    lets: &HashMap<String, String>,
    sig: &[&Tok],
    j: usize,
) -> Option<String> {
    let name = &sig[j - 1].text;
    let is_self_field = j >= 3 && sig[j - 2].is_punct(".") && sig[j - 3].is_ident("self");
    if is_self_field {
        let st = f.self_type.as_deref()?;
        return struct_fields
            .get(st)?
            .get(name.as_str())
            .map(|t| t.to_string());
    }
    // A field access on something other than `self` is unresolvable.
    if j >= 2 && sig[j - 2].is_punct(".") {
        return None;
    }
    for p in &f.params {
        if p.names.iter().any(|n| n == name) {
            return Some(p.ty.clone());
        }
    }
    lets.get(name.as_str()).cloned()
}

/// Whether a resolved type is growable / dynamically sized — the
/// index-panic surface. Fixed-length arrays (`[T; N]`) are excluded.
fn growable(ty: &str) -> bool {
    let words: Vec<&str> = ty.split_whitespace().collect();
    words.iter().any(|w| *w == "Vec" || *w == "VecDeque") || (ty.contains('[') && !ty.contains(';'))
}

/// The index expression between `sig[j]` (`[`) and its matching `]`,
/// when it is dynamic: not a bare literal, not a range. Returns a
/// display name for the index.
fn dynamic_index(sig: &[&Tok], j: usize) -> Option<String> {
    let mut depth = 1i32;
    let mut k = j + 1;
    let mut inner: Vec<&Tok> = Vec::new();
    while k < sig.len() && depth > 0 {
        let s = sig[k];
        if s.is_punct("[") || s.is_punct("(") {
            depth += 1;
        } else if s.is_punct("]") || s.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        inner.push(s);
        k += 1;
    }
    if inner.is_empty() {
        return None;
    }
    // Bare literal index: `v[0]` (leading-element framing, checked at
    // decode boundaries).
    if inner.len() == 1 && inner[0].kind == TokKind::Num {
        return None;
    }
    // Range slicing: length-guarded decode framing, covered by the
    // fail-closed decode suite.
    if inner.iter().any(|s| s.is_punct("..") || s.is_punct("..=")) {
        return None;
    }
    Some(
        inner
            .iter()
            .map(|s| s.text.as_str())
            .collect::<Vec<_>>()
            .join(""),
    )
}

/// Whether the tokens around a `/` look like float arithmetic: a float
/// literal or `f64`/`f32` mention nearby, or an operand whose type
/// (via parameter or typed `let`) is a float.
fn float_context(
    sig: &[&Tok],
    j: usize,
    f: &crate::index::FnItem,
    lets: &HashMap<String, String>,
) -> bool {
    let lo = j.saturating_sub(4);
    let hi = (j + 5).min(sig.len());
    if sig[lo..hi].iter().any(|s| {
        (s.kind == TokKind::Num
            && (s.text.contains('.') || s.text.ends_with("f64") || s.text.ends_with("f32")))
            || (s.kind == TokKind::Ident && (s.text == "f64" || s.text == "f32"))
    }) {
        return true;
    }
    let is_float_ident = |t: &Tok| {
        if t.kind != TokKind::Ident {
            return false;
        }
        let ty = f
            .params
            .iter()
            .find(|p| p.names.contains(&t.text))
            .map(|p| p.ty.clone())
            .or_else(|| lets.get(&t.text).cloned());
        ty.is_some_and(|ty| ty.split_whitespace().any(|w| w == "f64" || w == "f32"))
    };
    (j > 0 && is_float_ident(sig[j - 1])) || sig.get(j + 1).is_some_and(|t| is_float_ident(t))
}

/// Keywords that can precede `[` / `/` without forming the flagged
/// expression shape.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "in"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "let"
            | "mut"
            | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let mut ix = Index::default();
        ix.add_file("t.rs", src);
        analyze(&ix)
    }

    #[test]
    fn flags_unwrap_with_chain() {
        let f = run("fn run_worker() { helper(); }\n\
             fn helper() { let x: Option<u8> = None; let y = x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "panic-unwrap");
        assert_eq!(f[0].chain, vec!["run_worker", "helper"]);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let f = run("fn step() { let x: Option<u8> = None; let y = x.unwrap_or(0); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn flags_panicking_macros_not_asserts() {
        let f = run("fn run_sweep(n: usize) {\n\
                 assert!(n > 0, \"contract\");\n\
                 if n > 9 { unreachable!(\"cannot happen\"); }\n\
             }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "panic-macro");
        assert_eq!(f[0].ident, "unreachable");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn flags_vec_index_not_array_or_literal() {
        let f = run("fn step(v: Vec<u8>, a: [u8; 4], i: usize) -> u8 {\n\
                 let x = v[i];\n\
                 let y = a[i];\n\
                 let z = v[0];\n\
                 x + y + z\n\
             }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "panic-index");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].ident, "v");
    }

    #[test]
    fn resolves_self_field_and_slice_param() {
        let f = run("struct Fleet { devices: Vec<u8> }\n\
             impl Fleet { fn step(&self, i: usize, buf: &[u8]) -> u8 {\n\
                 self.devices[i] + buf[i]\n\
             } }\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.class == "panic-index"));
    }

    #[test]
    fn range_slicing_is_exempt() {
        let f = run("fn step(buf: &[u8], n: usize) -> u8 { let s = &buf[..n]; s.len() as u8 }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn flags_nonliteral_division_only() {
        let f = run("fn run_sweep(total: usize, threads: usize) -> usize {\n\
                 let a = total / 2;\n\
                 let b = total / threads;\n\
                 let c = total % threads;\n\
                 a + b + c\n\
             }\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.class == "panic-div"));
        assert!(f.iter().all(|x| x.ident == "threads"));
    }

    #[test]
    fn float_division_is_exempt() {
        let f = run("fn run_sweep(total: f64, rate: f64) -> f64 { total / rate }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn outside_cone_is_clean() {
        let f = run("fn unrelated(v: Vec<u8>, i: usize) -> u8 { v[i].wrapping_add(1) }\n");
        assert!(f.is_empty());
    }
}

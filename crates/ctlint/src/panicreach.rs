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
//! is the transitive closure over the shared call graph.
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
//! * `panic-div` — integer division by a divisor that may be zero:
//!   the `/` and `%` operators, and the methods `.div_ceil(d)`,
//!   `.div_euclid(d)` and `.rem_euclid(d)`. A divisor is known nonzero
//!   when it is an integer literal, a `const` item whose initializer is
//!   a nonzero integer literal, or a binding or field declared
//!   `NonZero*` (std's `Div` and `Rem` impls for those cannot panic).
//!   Float division does not panic and is skipped: a float literal
//!   nearby, or an operand declared `f64`/`f32` — a binding, or a
//!   field `base.field` of `self`, a parameter or a typed `let`.
//!
//! Tooling files ([`crate::pass::TOOLING_PREFIXES`]) are exempt from
//! emission; reachability still flows through them.

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Hit};
use crate::index::{self, FnItem, Index};
use crate::lexer::{is_keyword, partner, Tok, TokKind};
use crate::pass::scan_hot_path;
use std::collections::HashMap;

/// The pass name, as spelled on the CLI.
pub const NAME: &str = "panic-reach";

/// The class vocabulary.
pub const CLASSES: &[&str] = &["panic-unwrap", "panic-macro", "panic-index", "panic-div"];

/// Hot-path root functions (simple names). `step` is the one provided
/// `Endpoint::step`, which reaches every handshake state machine
/// through its protocol hook `self.advance(..)` (a method-call edge,
/// resolved by simple name, that `workspace_clean.rs` pins);
/// `handle_connection` is the service daemon's per-connection worker,
/// which faces untrusted socket bytes.
pub const ROOT_FNS: &[&str] = &[
    "interleaved_sweep",
    "run_sweep",
    "run_worker",
    "handshake_sweep",
    "run_epochs",
    "step",
    "handle_connection",
];

/// Runs the panic-reachability analysis.
pub fn analyze(ix: &Index, cg: &CallGraph) -> Vec<Finding> {
    // Struct name → (field name → field type), for `self.field[i]` and
    // `x / base.field`.
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

    // Const name → whether every `const` of that name is a nonzero
    // integer literal.
    let mut nonzero_consts: HashMap<&str, bool> = HashMap::new();
    for c in &ix.consts {
        *nonzero_consts.entry(c.name.as_str()).or_insert(true) &= nonzero_int_literal(&c.init);
    }

    let root = |f: &FnItem| ROOT_FNS.contains(&f.name.as_str());
    scan_hot_path(ix, cg, NAME, root, |i, f| {
        let mut hits: Vec<Hit> = Vec::new();
        // Class 1: unwrap/expect call sites.
        for call in &cg.calls[i] {
            if matches!(
                call.name.as_str(),
                "unwrap" | "expect" | "unwrap_err" | "expect_err"
            ) {
                hits.push((
                    call.line,
                    "panic-unwrap",
                    call.name.clone(),
                    format!(
                        "`{}` calls `.{}()` on the sweep hot path (convert to a typed \
                         fail-closed error or justify the invariant)",
                        f.qual, call.name
                    ),
                ));
            }
        }

        let sig: Vec<&Tok> = f.body.iter().filter(|t| !t.is_comment()).collect();
        let lets = index::lets(&sig)
            .into_iter()
            .filter(|l| !l.ty.is_empty())
            .flat_map(|l| l.names.into_iter().map(move |n| (n, l.ty.clone())))
            .collect();
        let scope = Scope {
            f,
            lets,
            fields: &struct_fields,
            nonzero_consts: &nonzero_consts,
        };
        for (j, t) in sig.iter().enumerate() {
            // Class 2: panicking macros.
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && sig.get(j + 1).is_some_and(|n| n.is_punct("!"))
            {
                hits.push((
                    t.line,
                    "panic-macro",
                    t.text.clone(),
                    format!(
                        "`{}` can `{}!` on the sweep hot path (fail closed instead)",
                        f.qual, t.text
                    ),
                ));
            }
            // Class 3: dynamic indexing into a Vec/slice.
            if t.is_punct("[") && j > 0 {
                let prev = sig[j - 1];
                if prev.kind == TokKind::Ident && !is_keyword(&prev.text) {
                    if let Some(ty) = base_type(&scope, &sig, j) {
                        if growable(&ty) {
                            if let Some(ident) = dynamic_index(&sig, j) {
                                hits.push((
                                    prev.line,
                                    "panic-index",
                                    prev.text.clone(),
                                    format!(
                                        "`{}` indexes `{}` (a {}) by `{}` on the sweep hot \
                                         path (use .get() and fail closed, or justify the \
                                         bounds invariant)",
                                        f.qual,
                                        prev.text,
                                        ty.trim(),
                                        ident
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            // Class 4: integer division by a divisor that may be zero,
            // through an operator or a dividing method.
            let division = if (t.is_punct("/") || t.is_punct("%")) && j > 0 {
                let prev = sig[j - 1];
                let binary_pos = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                    || prev.kind == TokKind::Num
                    || prev.is_punct(")")
                    || prev.is_punct("]");
                binary_pos.then(|| (j, operand(&sig, j + 1)))
            } else if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "div_ceil" | "div_euclid" | "rem_euclid")
                && j > 0
                && sig[j - 1].is_punct(".")
                && sig.get(j + 1).is_some_and(|n| n.is_punct("("))
            {
                // The receiver stands left of the `.`.
                let close = partner(&sig, j + 1).unwrap_or(sig.len());
                Some((j - 1, &sig[j + 2..close]))
            } else {
                None
            };
            if let Some((op, divisor)) = division {
                if !scope.nonzero(divisor) && !float_context(&scope, &sig, op) {
                    let divisor = divisor.first().map(|d| d.text.clone()).unwrap_or_default();
                    hits.push((
                        t.line,
                        "panic-div",
                        divisor.clone(),
                        format!(
                            "`{}` divides (`{}`) by non-literal `{}` on the sweep hot path \
                             (guard the divisor or justify the nonzero invariant)",
                            f.qual, t.text, divisor
                        ),
                    ));
                }
            }
        }
        hits
    })
}

/// The declarations a fn body can name: its parameters, its typed
/// `let`s, the fields of every indexed struct and the `const`s that
/// are nonzero integer literals.
struct Scope<'a> {
    f: &'a FnItem,
    lets: HashMap<String, String>,
    fields: &'a HashMap<&'a str, HashMap<&'a str, &'a str>>,
    nonzero_consts: &'a HashMap<&'a str, bool>,
}

impl Scope<'_> {
    /// The declared type of the binding `name`, or of the field
    /// `base.name` when `base` is `self`, a parameter or a typed `let`.
    fn type_of(&self, base: Option<&Tok>, name: &Tok) -> Option<String> {
        let binding = |n: &str| {
            let param = self
                .f
                .params
                .iter()
                .find(|p| p.names.iter().any(|b| b == n));
            param
                .map(|p| p.ty.clone())
                .or_else(|| self.lets.get(n).cloned())
        };
        let Some(base) = base else {
            return binding(&name.text);
        };
        let owner = if base.is_ident("self") {
            self.f.self_type.clone()
        } else {
            binding(&base.text)
        }?;
        owner
            .split_whitespace()
            .find_map(|w| Some(self.fields.get(w)?.get(name.text.as_str())?.to_string()))
    }

    /// Whether a divisor operand cannot be zero: an integer literal, a
    /// nonzero literal `const`, or a binding or field `base.field`
    /// declared `NonZero*`.
    fn nonzero(&self, divisor: &[&Tok]) -> bool {
        let declared = match divisor {
            [lit] if lit.kind == TokKind::Num => return true,
            [name] if self.nonzero_consts.get(name.text.as_str()) == Some(&true) => return true,
            [name] => self.type_of(None, name),
            [base, dot, field] if dot.is_punct(".") => self.type_of(Some(base), field),
            _ => None,
        };
        declared.is_some_and(|ty| ty.split_whitespace().any(|w| w.starts_with("NonZero")))
    }
}

/// The operand that starts at `sig[k]`, as a nonzero check reads it:
/// a field `base.field` (not the method call `base.field(..)`), or
/// else the one token. A number is one token: the lexer splits `2.0`
/// at its `.`.
fn operand<'s, 't>(sig: &'s [&'t Tok], k: usize) -> &'s [&'t Tok] {
    let field = sig.get(k).is_some_and(|t| t.kind == TokKind::Ident)
        && sig.get(k + 1).is_some_and(|t| t.is_punct("."))
        && !sig.get(k + 3).is_some_and(|t| t.is_punct("("));
    let end = sig.len().min(if field { k + 3 } else { k + 1 });
    sig.get(k..end).unwrap_or_default()
}

/// Whether a literal's text is an integer other than zero: decimal,
/// hex, octal or binary, with `_` separators and a type suffix.
fn nonzero_int_literal(text: &str) -> bool {
    let digits: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, body) = match digits.get(..2) {
        Some("0x") => (16, &digits[2..]),
        Some("0o") => (8, &digits[2..]),
        Some("0b") => (2, &digits[2..]),
        _ => (10, digits.as_str()),
    };
    // A suffix starts at `u` or `i`, neither of which is a hex digit.
    let body = body.split(['u', 'i']).next().unwrap_or_default();
    u128::from_str_radix(body, radix).is_ok_and(|v| v != 0)
}

/// Resolves the type of the indexed base at `sig[j - 1]` (where
/// `sig[j]` is `[`): a parameter, a typed `let` or a field of `self`.
/// A field of anything else stays unresolved.
fn base_type(scope: &Scope, sig: &[&Tok], j: usize) -> Option<String> {
    if j < 2 || !sig[j - 2].is_punct(".") {
        return scope.type_of(None, sig[j - 1]);
    }
    match j.checked_sub(3).map(|k| sig[k]) {
        Some(base) if base.is_ident("self") => scope.type_of(Some(base), sig[j - 1]),
        _ => None,
    }
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
    let inner = &sig[j + 1..partner(sig, j).unwrap_or(sig.len())];
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
/// literal or `f64`/`f32` mention nearby, or an operand — a binding or
/// a field `base.field` — whose declared type is a float.
fn float_context(scope: &Scope, sig: &[&Tok], j: usize) -> bool {
    let lo = j.saturating_sub(4);
    let hi = (j + 5).min(sig.len());
    if sig[lo..hi].iter().any(|s| {
        (s.kind == TokKind::Num
            && (s.text.contains('.') || s.text.ends_with("f64") || s.text.ends_with("f32")))
            || (s.kind == TokKind::Ident && (s.text == "f64" || s.text == "f32"))
    }) {
        return true;
    }
    let left = if j >= 3 && sig[j - 2].is_punct(".") {
        scope.type_of(Some(sig[j - 3]), sig[j - 1])
    } else {
        j.checked_sub(1).and_then(|k| scope.type_of(None, sig[k]))
    };
    // `base.field`, not the method call `base.field(..)`.
    let field_after = sig.get(j + 2).is_some_and(|t| t.is_punct("."))
        && !sig.get(j + 4).is_some_and(|t| t.is_punct("("));
    let right = if field_after {
        sig.get(j + 3)
            .and_then(|n| scope.type_of(Some(sig[j + 1]), n))
    } else {
        sig.get(j + 1).and_then(|n| scope.type_of(None, n))
    };
    [left, right]
        .into_iter()
        .flatten()
        .any(|ty| ty.split_whitespace().any(|w| w == "f64" || w == "f32"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let mut ix = Index::default();
        ix.add_file("t.rs", src);
        analyze(&ix, &CallGraph::build(&ix))
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
    fn flags_dividing_methods_by_a_binding() {
        let f = run("fn run_sweep(total: usize, group: usize) -> usize {\n\
                 total.div_ceil(group) + total.rem_euclid(group) + total.div_euclid(2)\n\
             }\n");
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f
            .iter()
            .all(|x| x.class == "panic-div" && x.ident == "group"));
    }

    #[test]
    fn nonzero_divisors_are_exempt() {
        let f = run("const LEN: usize = 1_000usize;\n\
             struct S { n: NonZeroU32 }\n\
             fn run_sweep(s: &S, d: NonZeroUsize, x: usize, y: u32) -> usize {\n\
                 x / d + x % d + x.div_ceil(LEN) + (y / s.n) as usize\n\
             }\n");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn nonzero_literals_parse_in_every_radix() {
        for lit in ["1", "16usize", "0x10", "0b1", "0o7", "1_000", "0xffu8"] {
            assert!(nonzero_int_literal(lit), "{lit}");
        }
        for lit in ["0", "0x0", "0_u8", "1.5", "x", ""] {
            assert!(!nonzero_int_literal(lit), "{lit}");
        }
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

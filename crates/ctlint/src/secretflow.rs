//! The secret-flow pass: secrecy taint analysis over the item index.
//!
//! **Seeding.** A binding is tainted when its type mentions a marker
//! type ([`MARKERS`]: `Scalar`, `KeyPair`, `SessionKey`, `Zeroizing` —
//! the types the constant-time machinery was built for) or it
//! carries a `// ct-secret` annotation. The type a marker names through
//! a module-level `type` alias is a marker too ([`markers`]): after
//! `type Scalar = Residue<ModN>;`, the fns of `impl<M> Residue<M>` are
//! seeded as `impl Scalar`'s are. A struct field annotated
//! `// ct-public` is never tainted, whatever its type. A function is a
//! *secret context* when it binds tainted state: a marker-typed
//! parameter, a `self` whose type is a marker or holds a tainted
//! field, a marker-typed return (it manufactures secrets), or a
//! `// ct-secret` annotation.
//!
//! **Propagation.** For the vartime-reachability check, secrecy flows
//! through the shared call graph ([`crate::callgraph`]): every
//! function transitively callable from a secret context is treated as
//! operating under secret-derived state. Edges out of vartime-family
//! functions are not followed — their bodies are the audited boundary.
//!
//! **Finding classes.**
//! 1. `vartime-call` — a call to a `*_vartime` / `// ct-vartime`
//!    function from a function in the secret-reachable set (the
//!    vartime family's own bodies are the audited boundary and are
//!    exempt).
//! 2. `secret-branch` — an `if`/`while`/`match` condition or array
//!    index that mentions a tainted binding inside a secret context
//!    (early returns under such a condition are the same finding).
//! 3. `nonct-eq` — `==`/`!=` with a tainted operand inside a secret
//!    context instead of `ecq_crypto::ct::eq`.
//! 4. `missing-zeroize` — a struct holding tainted fields where
//!    neither the struct nor every tainted field's own type wipes
//!    itself on drop. Only a `Drop` impl or a `Zeroizing` holder
//!    counts: a `Zeroize` impl wipes only when someone calls it.

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Hit};
use crate::index::{self, FnItem, Index};
use crate::lexer::{is_keyword, partner, top_level, Nest, Tok, TokKind};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The marker types seeding the taint analysis.
pub const MARKERS: &[&str] = &["Scalar", "KeyPair", "SessionKey", "Zeroizing"];

/// The pass name, as spelled on the CLI.
pub const NAME: &str = "secret-flow";

/// The class vocabulary.
pub const CLASSES: &[&str] = &[
    "vartime-call",
    "secret-branch",
    "nonct-eq",
    "missing-zeroize",
];

/// The marker types of `ix`: [`MARKERS`], plus the type each of them
/// names through a module-level `type` alias.
pub fn markers(ix: &Index) -> HashSet<&str> {
    let aliased = MARKERS.iter().filter_map(|m| ix.aliases.get(*m));
    MARKERS
        .iter()
        .copied()
        .chain(aliased.map(String::as_str))
        .collect()
}

/// Whether a type's token text names one of `markers`.
fn mentions_marker(markers: &HashSet<&str>, ty: &str) -> bool {
    ty.split_whitespace().any(|w| markers.contains(w))
}

/// Runs all four checks over an index and its call graph. Findings
/// are sorted by (file, line).
pub fn analyze(ix: &Index, cg: &CallGraph) -> Vec<Finding> {
    let markers = markers(ix);
    let marked = |ty: &str| mentions_marker(&markers, ty);
    // Struct-level taint: which structs hold tainted fields.
    let mut tainted_fields: HashMap<&str, Vec<&crate::index::Field>> = HashMap::new();
    for s in &ix.structs {
        let tf: Vec<_> = s
            .fields
            .iter()
            .filter(|f| !f.ct_public && (f.ct_secret || marked(&f.ty)))
            .collect();
        if !tf.is_empty() || s.ct_secret {
            tainted_fields.insert(s.name.as_str(), tf);
        }
    }

    // Secret contexts (direct seeding). A `// ct-secret` annotation on
    // a `let` inside the body makes the whole function a secret context.
    let is_secret = |f: &FnItem| {
        f.ct_secret
            || f.body.iter().any(|t| t.is_annotation("ct-secret"))
            || f.params.iter().any(|p| marked(&p.ty))
            || marked(&f.ret)
            || (f.has_self
                && f.self_type
                    .as_deref()
                    .is_some_and(|st| markers.contains(st) || tainted_fields.contains_key(st)))
    };

    // Reachability: BFS from secret contexts through the call graph.
    // Edges out of vartime-family functions are not followed — their
    // bodies are the audited boundary.
    let reach = cg.reach(ix, is_secret, |f| !f.vartime);

    let mut findings = Vec::new();

    // Class 1: vartime calls from the secret-reachable set.
    for (i, f) in ix.fns.iter().enumerate() {
        if !reach.reachable[i] || f.vartime {
            continue;
        }
        for call in &cg.calls[i] {
            let is_vartime_call =
                call.name.ends_with("_vartime") || call.targets.iter().any(|&t| ix.fns[t].vartime);
            if is_vartime_call {
                let hit = (
                    call.line,
                    "vartime-call",
                    call.name.clone(),
                    format!(
                        "`{}` calls variable-time `{}` while reachable from a secret context",
                        f.qual, call.name
                    ),
                );
                findings.push(Finding {
                    chain: reach.chain(ix, i),
                    ..Finding::new(NAME, &ix.files[f.file], &f.qual, hit)
                });
            }
        }
    }

    // Classes 2 and 3: token scans of secret-context bodies.
    for f in ix.fns.iter() {
        if f.vartime || !is_secret(f) {
            continue;
        }
        let tainted = tainted_bindings(f, &markers, &tainted_fields);
        if tainted.is_empty() {
            continue;
        }
        for hit in scan_body(f, &tainted) {
            findings.push(Finding::new(NAME, &ix.files[f.file], &f.qual, hit));
        }
    }

    // Class 4: secret-holding structs without a wipe on drop.
    let wipes: HashSet<&str> = ix.drop_impls.iter().map(String::as_str).collect();
    for s in &ix.structs {
        let Some(tf) = tainted_fields.get(s.name.as_str()) else {
            continue;
        };
        if wipes.contains(s.name.as_str()) {
            continue;
        }
        // Safe containment: every tainted field's own type wipes
        // itself on drop (`Zeroizing<…>` or a type with a Drop impl).
        let self_wiping = |ty: &str| {
            ty.split_whitespace()
                .any(|w| w == "Zeroizing" || wipes.contains(w))
        };
        if !tf.is_empty() && tf.iter().all(|f| self_wiping(&f.ty)) {
            continue;
        }
        let culprit = tf
            .iter()
            .find(|f| !self_wiping(&f.ty))
            .map(|f| f.name.clone())
            .unwrap_or_default();
        let hit = (
            s.line,
            "missing-zeroize",
            culprit.clone(),
            format!(
                "struct `{}` holds secret field `{}` but has no Drop impl",
                s.name, culprit
            ),
        );
        findings.push(Finding::new(NAME, &ix.files[s.file], &s.name, hit));
    }

    // A `nonct-eq` on a line shadows the `secret-branch` the same
    // condition would also raise — keep the more specific class.
    let eq_lines: HashSet<(String, u32)> = findings
        .iter()
        .filter(|f| f.class == "nonct-eq")
        .map(|f| (f.file.clone(), f.line))
        .collect();
    findings
        .retain(|f| f.class != "secret-branch" || !eq_lines.contains(&(f.file.clone(), f.line)));

    findings.sort();
    findings.dedup();
    findings
}

/// The tainted binding names visible in a function body.
fn tainted_bindings(
    f: &FnItem,
    markers: &HashSet<&str>,
    tainted_fields: &HashMap<&str, Vec<&crate::index::Field>>,
) -> BTreeSet<String> {
    let mut tainted = BTreeSet::new();
    for p in &f.params {
        if mentions_marker(markers, &p.ty) {
            for n in &p.names {
                tainted.insert(n.clone());
            }
        }
    }
    if f.has_self {
        if let Some(st) = &f.self_type {
            if markers.contains(st.as_str()) {
                tainted.insert("self".to_string());
            }
            if let Some(tf) = tainted_fields.get(st.as_str()) {
                // Approximation: the field names themselves — catches
                // `self.key`-style accesses in conditions.
                for field in tf {
                    tainted.insert(field.name.clone());
                }
            }
        }
    }
    // `let` bindings with an explicit marker type or a ct-secret
    // comment on the same or preceding line.
    let secret_lines: HashSet<u32> = f
        .body
        .iter()
        .filter(|t| t.is_annotation("ct-secret"))
        .map(|t| t.line)
        .collect();
    let sig: Vec<&Tok> = f.body.iter().filter(|t| !t.is_comment()).collect();
    for l in index::lets(&sig) {
        let annotated =
            secret_lines.contains(&l.line) || secret_lines.contains(&l.line.saturating_sub(1));
        if annotated || mentions_marker(markers, &l.ty) {
            tainted.extend(l.names);
        }
    }
    tainted
}

/// Scans one secret-context body for classes 2 and 3.
fn scan_body(f: &FnItem, tainted: &BTreeSet<String>) -> Vec<Hit> {
    let sig: Vec<&Tok> = f.body.iter().filter(|t| !t.is_comment()).collect();
    let is_tainted = |t: &Tok| t.kind == TokKind::Ident && tainted.contains(&t.text);
    let mut hits = Vec::new();

    let mut i = 0usize;
    while i < sig.len() {
        let t = sig[i];
        // Conditions: if / while / match up to the opening `{`.
        if t.is_ident("if") || t.is_ident("while") || t.is_ident("match") {
            // The condition runs to its depth-0 `{`, or to the
            // unmatched bracket that ends it (a match guard, a macro).
            let cond = &sig[i + 1..];
            let end = top_level(cond, Nest::Expr)
                .find(|&k| cond[k].is_punct("{") || cond[k].nest_delta(Nest::Expr) < 0)
                .unwrap_or(cond.len());
            if let Some(c) = cond[..end].iter().find(|s| is_tainted(s)) {
                hits.push((
                    c.line,
                    "secret-branch",
                    c.text.clone(),
                    format!(
                        "`{}` branches (`{}`) on secret-derived `{}`",
                        f.qual, t.text, c.text
                    ),
                ));
            }
            i += 1 + end;
            continue;
        }
        // Array indexing by a tainted value: `expr [ … tainted … ]`
        // where `[` follows an ident/`)`/`]` (i.e. an index, not an
        // array literal).
        if t.is_punct("[") && i > 0 {
            let prev = sig[i - 1];
            let indexing = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(")")
                || prev.is_punct("]");
            if indexing {
                let close = partner(&sig, i).unwrap_or(sig.len());
                if let Some(c) = sig[i + 1..close].iter().find(|s| is_tainted(s)) {
                    hits.push((
                        c.line,
                        "secret-branch",
                        c.text.clone(),
                        format!(
                            "`{}` indexes by secret-derived `{}` (cache-line leak)",
                            f.qual, c.text
                        ),
                    ));
                    i = close + 1;
                    continue;
                }
            }
        }
        // Non-ct equality: `==` / `!=` with a tainted operand nearby.
        if t.is_punct("==") || t.is_punct("!=") {
            let lo = i.saturating_sub(6);
            let hi = (i + 7).min(sig.len());
            if let Some(c) = sig[lo..hi].iter().find(|s| is_tainted(s)) {
                hits.push((
                    t.line,
                    "nonct-eq",
                    c.text.clone(),
                    format!(
                        "`{}` compares secret-derived `{}` with `{}` (use ecq_crypto::ct::eq)",
                        f.qual, c.text, t.text
                    ),
                ));
            }
        }
        i += 1;
    }
    hits
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
    fn flags_vartime_call_from_secret_context() {
        let f = run("fn mul_vartime(k: u8) {}\nfn sign(d: &Scalar) { mul_vartime(3); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "vartime-call");
        assert_eq!(f[0].context, "sign");
        assert_eq!(f[0].chain, vec!["sign"]);
    }

    #[test]
    fn flags_transitive_vartime_reachability_with_chain() {
        let f = run(
            "fn mul_vartime(k: u8) {}\nfn helper(x: u8) { mul_vartime(x); }\n\
             fn sign(d: &Scalar) { helper(1); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].context, "helper");
        assert_eq!(f[0].chain, vec!["sign", "helper"]);
    }

    #[test]
    fn vartime_bodies_are_exempt() {
        let f =
            run("fn inner_vartime(k: u8) {}\nfn outer_vartime(k: &Scalar) { inner_vartime(1); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn flags_secret_branch_and_index() {
        let f = run("fn process(k: &Scalar, table: &[u8]) -> u8 {\n\
                 if k.is_zero() { return 0; }\n\
                 table[k.low_bits()]\n\
             }\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.class == "secret-branch"));
    }

    #[test]
    fn flags_nonct_eq_not_branch_on_same_line() {
        let f = run("fn check(pm: &Zeroizing<[u8; 32]>, other: &[u8; 32]) -> bool { pm.as_ref() == other }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "nonct-eq");
    }

    #[test]
    fn flags_missing_zeroize_and_accepts_drop() {
        let f = run("struct Bad { d: Scalar }\nstruct Good { d: Scalar }\nimpl Drop for Good { fn drop(&mut self) {} }\nimpl Drop for Scalar { fn drop(&mut self) {} }\n");
        // `Bad` holds a Scalar (which wipes itself) — containment is
        // safe, so only structs with genuinely unwiped fields flag.
        assert!(f.is_empty());
    }

    #[test]
    fn flags_ct_secret_field_without_wipe() {
        let f = run("struct Premaster {\n    // ct-secret\n    bytes: [u8; 32],\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "missing-zeroize");
        assert_eq!(f[0].context, "Premaster");
    }

    #[test]
    fn ct_secret_let_annotation_taints() {
        let f = run("fn kdf(seed: &[u8]) -> u8 {\n\
                 // ct-secret\n\
                 let k = expand(seed);\n\
                 if k > 3 { 1 } else { 0 }\n\
             }\n// ct-secret\nfn expand(s: &[u8]) -> u8 { 0 }\n");
        assert!(f
            .iter()
            .any(|x| x.class == "secret-branch" && x.ident == "k"));
    }
}

//! The table of built-in passes, and the hot-path walk two of them
//! share.
//!
//! A pass is plain data: a name, a finding-class vocabulary, a default
//! allowlist path and an analysis over the shared front end (lexer →
//! item index → call graph). [`crate::run`] builds the index and the
//! call graph once and hands both to every selected pass; each pass's
//! findings are gated by its own allowlist with the same stale-entry
//! discipline.

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Hit};
use crate::index::{FnItem, Index};
use crate::{determinism, panicreach, secretflow};

/// One analysis pass over the shared front end.
pub struct Pass {
    /// CLI / report name (`secret-flow`, `determinism`, `panic-reach`).
    pub name: &'static str,
    /// The finding classes this pass can emit — the valid vocabulary
    /// for its allowlist's `class` keys.
    pub classes: &'static [&'static str],
    /// Default allowlist path, relative to the workspace root.
    pub allowlist: &'static str,
    /// Runs the analysis. Findings come back sorted and deduplicated.
    pub analyze: fn(&Index, &CallGraph) -> Vec<Finding>,
}

/// All built-in passes, in canonical order.
pub const PASSES: &[Pass] = &[
    Pass {
        name: secretflow::NAME,
        classes: secretflow::CLASSES,
        allowlist: "ci/ctlint_allow.toml",
        analyze: secretflow::analyze,
    },
    Pass {
        name: determinism::NAME,
        classes: determinism::CLASSES,
        allowlist: "ci/determinism_allow.toml",
        analyze: determinism::analyze,
    },
    Pass {
        name: panicreach::NAME,
        classes: panicreach::CLASSES,
        allowlist: "ci/panic_allow.toml",
        analyze: panicreach::analyze,
    },
];

/// The tooling path prefixes the determinism and panic-reachability
/// passes do not report on: the analyzer itself, benches (wall-clock
/// measurement is their purpose), the conformance/analysis tooling and
/// demo binaries. The secret-flow pass still scans everything — a
/// timing leak in an example is a leak. The whole-workspace call graph
/// is built regardless; only finding *emission* is filtered, so
/// reachability through these files is still tracked.
pub const TOOLING_PREFIXES: &[&str] = &[
    "crates/ctlint/",
    "crates/bench/",
    "crates/analysis/",
    "examples/",
];

/// Whether `file` is eligible for determinism / panic-reach findings.
pub fn hot_path_file(file: &str) -> bool {
    !TOOLING_PREFIXES.iter().any(|p| file.starts_with(p))
}

/// The walk the determinism and panic-reach passes share: runs `scan`
/// on every fn reachable from a fn where `root` holds that sits in a
/// [`hot_path_file`], and turns each hit into a finding of `pass` in
/// that fn, carrying its root-first reach chain. Findings come back
/// sorted and deduplicated.
pub fn scan_hot_path(
    ix: &Index,
    cg: &CallGraph,
    pass: &str,
    root: impl Fn(&FnItem) -> bool,
    mut scan: impl FnMut(usize, &FnItem) -> Vec<Hit>,
) -> Vec<Finding> {
    let reach = cg.reach(ix, root, |_| true);
    let mut findings = Vec::new();
    for (i, f) in ix.fns.iter().enumerate() {
        if !reach.reachable[i] || !hot_path_file(&ix.files[f.file]) {
            continue;
        }
        let chain = reach.chain(ix, i);
        for hit in scan(i, f) {
            findings.push(Finding {
                chain: chain.clone(),
                ..Finding::new(pass, &ix.files[f.file], &f.qual, hit)
            });
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named() {
        let names: Vec<&str> = PASSES.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["secret-flow", "determinism", "panic-reach"]);
        for n in names {
            let selected = crate::select_passes(n).unwrap();
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].name, n);
        }
        assert_eq!(crate::select_passes("all").unwrap().len(), PASSES.len());
        assert!(crate::select_passes("none").is_none());
    }

    #[test]
    fn class_vocabularies_are_disjoint_and_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for p in PASSES {
            assert!(!p.classes.is_empty());
            for c in p.classes {
                assert!(seen.insert(*c), "class `{c}` appears in two passes");
            }
        }
    }

    #[test]
    fn tooling_filter() {
        assert!(hot_path_file("crates/fleet/src/interleave.rs"));
        assert!(hot_path_file("det_offend.rs"));
        assert!(!hot_path_file("crates/bench/src/bin/fleet.rs"));
        assert!(!hot_path_file("crates/ctlint/src/lib.rs"));
    }
}

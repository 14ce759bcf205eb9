//! `ecq_lint` — a workspace-wide multi-pass static analyzer.
//!
//! The paper's security argument and the reproduction's engineering
//! contracts are machine-checked here instead of left to `grep` and
//! review. One shared front end — a hand-rolled lexer (the container
//! is offline, so no `syn`), an item index and a call graph that
//! resolves each call from its shape ([`callgraph`]) — feeds three
//! passes, the rows of one table of plain data ([`pass::PASSES`]). A
//! run builds the index and the call graph once and hands both to
//! every selected pass:
//!
//! * **`secret-flow`** ([`secretflow`]) — PR 6's constant-time
//!   boundary audit: vartime calls reachable from secret contexts,
//!   secret-dependent control flow or indexing, non-constant-time
//!   equality on secrets, and secret-holding types without
//!   zeroize-on-drop.
//! * **`determinism`** ([`determinism`]) — the static half of the
//!   bit-identical `(config, seed)` report guarantee: no unordered
//!   iteration, wall-clock reads, thread identity, environment reads,
//!   unseeded randomness or address-based ordering reachable from the
//!   report-affecting roots.
//! * **`panic-reach`** ([`panicreach`]) — no `unwrap`/`expect`,
//!   panicking macros, dynamic `Vec`/slice indexing or unguarded
//!   division reachable from the sweep and `Endpoint::step` hot
//!   paths: a poisoned session must fail closed as a typed error, not
//!   abort a million-device run.
//!
//! Every pass shares the same finding model ([`findings::Finding`]:
//! class, `file:line` anchor, reach-chain evidence) and the same
//! allowlist discipline ([`allowlist`]): per-pass committed lists
//! (`ci/ctlint_allow.toml`, `ci/determinism_allow.toml`,
//! `ci/panic_allow.toml`) whose every entry carries a justification
//! naming the invariant, and whose stale entries fail the lint. So
//! `cargo run -p ecq_lint -- --pass all` is a CI-gated,
//! zero-findings-clean pass.

#![deny(missing_docs)]

pub mod allowlist;
pub mod callgraph;
pub mod determinism;
pub mod findings;
pub mod index;
pub mod lexer;
pub mod panicreach;
pub mod pass;
pub mod secretflow;

use callgraph::CallGraph;
use findings::Finding;
use index::Index;
use pass::Pass;
use std::path::{Path, PathBuf};

/// Directory names never scanned: build output, vendored stand-ins,
/// test code (which compares secrets with `assert_eq!` and `unwrap`s
/// by design) and the lint's own seeded-violation fixtures.
pub const SKIP_DIRS: &[&str] = &["target", "third_party", "tests", "fixtures", ".git"];

/// Recursively collects the `.rs` files to scan under `root`,
/// skipping [`SKIP_DIRS`]. Paths come back sorted, relative to `root`.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Builds the item index for every source under `root`.
pub fn index_workspace(root: &Path) -> std::io::Result<Index> {
    let mut ix = Index::default();
    for rel in workspace_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        ix.add_file(&rel.to_string_lossy().replace('\\', "/"), &src);
    }
    Ok(ix)
}

/// One pass's result: findings after allowlist application, plus any
/// allowlist problems.
#[derive(Debug, Default)]
pub struct PassReport {
    /// Pass name.
    pub pass: String,
    /// The allowlist file consulted (may not exist — then empty).
    pub allowlist_path: PathBuf,
    /// Findings not covered by the allowlist.
    pub unsuppressed: Vec<Finding>,
    /// Findings suppressed, with the justification that covered them.
    pub suppressed: Vec<(Finding, String)>,
    /// Stale allowlist entries (matched nothing).
    pub stale: Vec<allowlist::Entry>,
    /// Structural allowlist errors (bad class, missing justification).
    pub allowlist_errors: Vec<allowlist::AllowlistError>,
}

impl PassReport {
    /// Whether this pass is clean.
    pub fn is_clean(&self) -> bool {
        self.unsuppressed.is_empty() && self.stale.is_empty() && self.allowlist_errors.is_empty()
    }
}

/// A full lint run over the selected passes.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Functions indexed.
    pub fns: usize,
    /// Per-pass results, in selection order.
    pub passes: Vec<PassReport>,
}

impl Report {
    /// Whether the whole run is clean (gates CI).
    pub fn is_clean(&self) -> bool {
        self.passes.iter().all(PassReport::is_clean)
    }

    /// JSON rendering of the run: scan counts, per-pass findings
    /// (unsuppressed), suppression/stale/error counts, and the clean
    /// verdict. The findings artifact CI uploads.
    pub fn to_json(&self) -> String {
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                format!(
                    "{{\"pass\":\"{}\",\"unsuppressed\":{},\"suppressed\":{},\"stale\":{},\"allowlist_errors\":{},\"clean\":{}}}",
                    p.pass,
                    findings::findings_to_json(&p.unsuppressed),
                    p.suppressed.len(),
                    p.stale.len(),
                    p.allowlist_errors.len(),
                    p.is_clean()
                )
            })
            .collect();
        format!(
            "{{\"files\":{},\"fns\":{},\"clean\":{},\"passes\":[{}]}}",
            self.files,
            self.fns,
            self.is_clean(),
            passes.join(",")
        )
    }
}

/// Resolves a `--pass` argument to the passes to run (`"all"` selects
/// the whole table, in canonical order).
pub fn select_passes(name: &str) -> Option<&'static [Pass]> {
    if name == "all" {
        return Some(pass::PASSES);
    }
    pass::PASSES
        .iter()
        .find(|p| p.name == name)
        .map(std::slice::from_ref)
}

/// Runs `passes` over the workspace at `root`, on one index and one
/// call graph. Each pass's allowlist is its default path under `root`,
/// unless `allowlist_override` is given (the CLI only permits an
/// override with a single selected pass). A missing allowlist file is
/// treated as empty.
pub fn run(
    root: &Path,
    passes: &[Pass],
    allowlist_override: Option<&Path>,
) -> std::io::Result<Report> {
    let ix = index_workspace(root)?;
    let cg = CallGraph::build(&ix);
    let mut report = Report {
        files: ix.files.len(),
        fns: ix.fns.len(),
        passes: Vec::with_capacity(passes.len()),
    };
    for p in passes {
        let findings = (p.analyze)(&ix, &cg);
        let path = allowlist_override
            .map(Path::to_path_buf)
            .unwrap_or_else(|| root.join(p.allowlist));
        let (entries, allowlist_errors) = if path.exists() {
            allowlist::parse(&std::fs::read_to_string(&path)?, p.classes)
        } else {
            (Vec::new(), Vec::new())
        };
        let applied = allowlist::apply(findings, &entries);
        report.passes.push(PassReport {
            pass: p.name.to_string(),
            allowlist_path: path,
            unsuppressed: applied.unsuppressed,
            suppressed: applied
                .suppressed
                .into_iter()
                .map(|(f, i)| (f, entries[i].justification.clone()))
                .collect(),
            stale: applied.stale,
            allowlist_errors,
        });
    }
    Ok(report)
}

//! The determinism-flow pass.
//!
//! The reproduction's core guarantee is that a `(config, seed)` fleet
//! report is bit-identical for any thread count — including under
//! seeded fault schedules. This pass proves the *static* half of that
//! contract: no function reachable from a report-affecting root may
//! consult a source of nondeterminism.
//!
//! **Roots.** Taint seeds from the report-affecting entry points — the
//! sweep drivers (`interleaved_sweep`, `run_sweep`, `run_worker`,
//! `handshake_sweep`, `run_epochs`, `run_lifecycle`, `enroll_all`),
//! report/scenario finalization (`finalize`), and every method of the
//! shared-bus / fault / report types (`SharedBus`, `FaultSpec`,
//! `FaultPlan`, `FleetReport`, `FleetCoordinator`, `Scenario`). The
//! cone is the transitive closure over the shared call graph
//! ([`crate::callgraph`]).
//!
//! **Finding classes** (each anchored at the offending token, with the
//! root-first reach chain as evidence):
//! * `unordered-iter` — `HashMap`/`HashSet` (or a raw `RandomState`/
//!   `DefaultHasher`): iteration order is seeded per-process, so any
//!   use inside the cone can reorder report aggregation. Use
//!   `BTreeMap`/`BTreeSet` or index-keyed `Vec`s.
//! * `wall-clock` — `Instant`/`SystemTime`/`UNIX_EPOCH`: host time in
//!   a virtual-time simulation.
//! * `thread-id` — `thread::current()` / `ThreadId`: report content
//!   must not depend on which worker ran a session.
//! * `env-read` — `env::var*`: configuration must flow through
//!   `(config, seed)`, not ambient process state.
//! * `unseeded-rng` — `thread_rng`/`OsRng`/`getrandom`/`from_entropy`:
//!   all randomness must derive from the sweep seed.
//! * `addr-order` — `as_ptr()`/`as_mut_ptr()` cast to `usize`, or
//!   `addr_of!`: allocation addresses vary run to run, so
//!   address-keyed ordering is nondeterministic.
//!
//! Tooling files (the analyzer itself, benches, conformance tooling,
//! examples — see [`crate::pass::TOOLING_PREFIXES`]) are exempt from
//! *emission*: a bench measuring wall-clock time is doing its job.
//! Reachability still flows through them.

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Hit};
use crate::index::{FnItem, Index};
use crate::lexer::{Tok, TokKind};
use crate::pass::scan_hot_path;

/// The pass name, as spelled on the CLI.
pub const NAME: &str = "determinism";

/// The class vocabulary.
pub const CLASSES: &[&str] = &[
    "unordered-iter",
    "wall-clock",
    "thread-id",
    "env-read",
    "unseeded-rng",
    "addr-order",
];

/// Report-affecting root functions (simple names).
pub const ROOT_FNS: &[&str] = &[
    "interleaved_sweep",
    "run_sweep",
    "run_worker",
    "handshake_sweep",
    "run_epochs",
    "run_lifecycle",
    "enroll_all",
    "finalize",
];

/// Report-affecting root types: every method of these seeds the cone.
pub const ROOT_TYPES: &[&str] = &[
    "SharedBus",
    "FaultSpec",
    "FaultPlan",
    "FleetReport",
    "FleetCoordinator",
    "Scenario",
];

/// Runs the determinism-flow analysis.
pub fn analyze(ix: &Index, cg: &CallGraph) -> Vec<Finding> {
    let root = |f: &FnItem| {
        ROOT_FNS.contains(&f.name.as_str())
            || f.self_type
                .as_deref()
                .is_some_and(|t| ROOT_TYPES.contains(&t))
    };
    scan_hot_path(ix, cg, NAME, root, |_, f| {
        let mut hits: Vec<Hit> = Vec::new();
        let sig: Vec<&Tok> = f.body.iter().filter(|t| !t.is_comment()).collect();
        for (j, t) in sig.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit: Option<(&str, String)> = match t.text.as_str() {
                "HashMap" | "HashSet" | "RandomState" | "DefaultHasher" => Some((
                    "unordered-iter",
                    format!(
                        "`{}` uses `{}` in the report-affecting cone (iteration order is \
                         per-process; use BTreeMap/BTreeSet or index-keyed Vecs)",
                        f.qual, t.text
                    ),
                )),
                "Instant" | "SystemTime" | "UNIX_EPOCH" => Some((
                    "wall-clock",
                    format!(
                        "`{}` reads host time (`{}`) in the report-affecting cone (use the \
                         virtual clock)",
                        f.qual, t.text
                    ),
                )),
                "ThreadId" => Some((
                    "thread-id",
                    format!(
                        "`{}` depends on `ThreadId` in the report-affecting cone",
                        f.qual
                    ),
                )),
                "thread"
                    if sig.get(j + 1).is_some_and(|n| n.is_punct("::"))
                        && sig.get(j + 2).is_some_and(|n| n.is_ident("current")) =>
                {
                    Some((
                        "thread-id",
                        format!(
                            "`{}` calls `thread::current()` in the report-affecting cone",
                            f.qual
                        ),
                    ))
                }
                "env"
                    if sig.get(j + 1).is_some_and(|n| n.is_punct("::"))
                        && sig.get(j + 2).is_some_and(|n| {
                            n.kind == TokKind::Ident && n.text.starts_with("var")
                        }) =>
                {
                    Some((
                        "env-read",
                        format!(
                            "`{}` reads the process environment in the report-affecting cone \
                             (configuration must flow through (config, seed))",
                            f.qual
                        ),
                    ))
                }
                "thread_rng" | "OsRng" | "getrandom" | "from_entropy" => Some((
                    "unseeded-rng",
                    format!(
                        "`{}` draws unseeded randomness (`{}`) in the report-affecting cone \
                         (derive from the sweep seed)",
                        f.qual, t.text
                    ),
                )),
                "addr_of" | "addr_of_mut" => Some((
                    "addr-order",
                    format!(
                        "`{}` takes raw addresses (`{}`) in the report-affecting cone",
                        f.qual, t.text
                    ),
                )),
                "as_ptr" | "as_mut_ptr"
                    if sig[j + 1..].iter().take(6).any(|n| n.is_ident("usize")) =>
                {
                    Some((
                        "addr-order",
                        format!(
                            "`{}` orders by allocation address (`{} as usize`) in the \
                             report-affecting cone",
                            f.qual, t.text
                        ),
                    ))
                }
                _ => None,
            };
            if let Some((class, message)) = hit {
                hits.push((t.line, class, t.text.clone(), message));
            }
        }
        hits
    })
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
    fn flags_hashmap_in_cone_with_chain() {
        let f = run("fn run_worker() { drain(); }\n\
             fn drain() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        // Type annotation + constructor collapse to one finding (same
        // line, same ident).
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].class, "unordered-iter");
        assert_eq!(f[0].chain, vec!["run_worker", "drain"]);
    }

    #[test]
    fn ignores_hashmap_outside_cone() {
        let f = run("fn unrelated() { let m = HashMap::new(); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn flags_wall_clock_and_thread_id() {
        let f = run("impl SharedBus { fn poll(&self) { let t = Instant::now(); \
             let id = thread::current().id(); } }\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.class == "wall-clock"));
        assert!(f.iter().any(|x| x.class == "thread-id"));
    }

    #[test]
    fn flags_env_and_rng() {
        let f = run("fn finalize() { let v = env::var(\"X\"); let r = thread_rng(); }\n");
        assert!(f.iter().any(|x| x.class == "env-read"));
        assert!(f.iter().any(|x| x.class == "unseeded-rng"));
    }

    #[test]
    fn addr_order_needs_usize_cast() {
        // A bare as_ptr (e.g. a volatile zeroize write) is fine…
        let clean = run("fn run_sweep(b: &[u8]) { let p = b.as_ptr(); }\n");
        assert!(clean.is_empty());
        // …the usize cast for ordering is not.
        let bad = run("fn run_sweep(b: &[u8]) { let k = b.as_ptr() as usize; }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].class, "addr-order");
    }

    #[test]
    fn tooling_files_are_exempt() {
        let mut ix = Index::default();
        ix.add_file(
            "crates/bench/src/bin/fleet.rs",
            "fn run_sweep() { let t = Instant::now(); }\n",
        );
        assert!(analyze(&ix, &CallGraph::build(&ix)).is_empty());
    }
}

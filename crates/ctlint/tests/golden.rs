//! Golden-fixture tests for all three passes: every finding class must
//! be detected at the expected file/line anchors, the clean fixtures
//! must stay silent, and each pass's fixture allowlist must suppress
//! (and report staleness) exactly as documented.

use ecq_lint::allowlist;
use ecq_lint::findings::Finding;
use ecq_lint::index::Index;
use ecq_lint::{determinism, panicreach, secretflow};

/// Indexes a single fixture file (in isolation, so call-graph edges
/// never cross fixtures).
fn index_fixture(fixture: &str) -> Index {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut ix = Index::default();
    ix.add_file(fixture, &src);
    ix
}

fn secret_flow(fixture: &str) -> Vec<Finding> {
    secretflow::analyze(&index_fixture(fixture), &secretflow::SecretFlow::default())
}

fn read_allow(file: &str, classes: &[&str]) -> Vec<allowlist::Entry> {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    let (entries, errors) = allowlist::parse(&std::fs::read_to_string(path).unwrap(), classes);
    assert!(errors.is_empty(), "{errors:#?}");
    entries
}

fn anchors(findings: &[Finding]) -> Vec<(&str, u32, &str)> {
    findings
        .iter()
        .map(|f| (f.class.as_str(), f.line, f.ident.as_str()))
        .collect()
}

// ------------------------------------------------------- secret-flow

#[test]
fn vartime_call_fixture() {
    let found = secret_flow("vartime_call.rs");
    assert_eq!(
        anchors(&found),
        vec![
            // `derive` calls the vartime family directly...
            ("vartime-call", 11, "mul_vartime"),
            // ...and `helper` is reachable from `derive_indirect`'s
            // secret context (transitive taint).
            ("vartime-call", 21, "mul_vartime"),
        ],
        "{found:#?}"
    );
    assert_eq!(found[0].context, "derive");
    assert_eq!(found[1].context, "helper");
    // `mul_vartime`'s own body is the audited boundary — its call to
    // `table_walk` (line 5) must not be flagged.
    assert!(found.iter().all(|f| f.line != 5), "{found:#?}");
}

#[test]
fn secret_branch_fixture() {
    let found = secret_flow("secret_branch.rs");
    assert_eq!(
        anchors(&found),
        vec![
            ("secret-branch", 5, "key"),    // if key.is_zero()
            ("secret-branch", 9, "key"),    // while key.bit(..)
            ("secret-branch", 12, "key"),   // table[key.low_byte()..]
            ("secret-branch", 18, "nonce"), // match on ct-secret let
        ],
        "{found:#?}"
    );
}

#[test]
fn nonct_eq_fixture() {
    let found = secret_flow("nonct_eq.rs");
    assert_eq!(
        anchors(&found),
        vec![("nonct-eq", 5, "expected")],
        "{found:#?}"
    );
    assert_eq!(found[0].context, "tags_match");
}

#[test]
fn missing_zeroize_fixture() {
    let found = secret_flow("missing_zeroize.rs");
    assert_eq!(
        anchors(&found),
        vec![
            // Marker-typed field, no Drop anywhere.
            ("missing-zeroize", 5, "private"),
            // `// ct-secret` field annotation on a plain type.
            ("missing-zeroize", 11, "premaster"),
            // A `Zeroize` impl without a `Drop`.
            ("missing-zeroize", 34, "private"),
        ],
        "{found:#?}"
    );
    assert_eq!(found[0].context, "LeakyHandle");
    assert_eq!(found[1].context, "Draft");
    assert_eq!(found[2].context, "ManualWipe");
    assert_eq!(
        found[2].message,
        "struct `ManualWipe` holds secret field `private` but has no Drop impl"
    );
    // `Guarded` (own Drop impl), `Wrapped` (self-wiping Zeroizing
    // field) and `Published` (`// ct-public` field) must all pass.
    assert!(
        found
            .iter()
            .all(|f| !["Guarded", "Wrapped", "Published"].contains(&f.context.as_str())),
        "{found:#?}"
    );
}

#[test]
fn clean_fixture_is_silent() {
    let found = secret_flow("clean.rs");
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn secret_flow_allowlist_suppresses_and_reports_stale() {
    let found = secret_flow("allowlisted.rs");
    assert_eq!(
        anchors(&found),
        vec![("vartime-call", 9, "mul_vartime")],
        "{found:#?}"
    );

    let entries = read_allow("allow.toml", secretflow::CLASSES);
    assert_eq!(entries.len(), 2);

    let applied = allowlist::apply(found, &entries);
    assert!(
        applied.unsuppressed.is_empty(),
        "{:#?}",
        applied.unsuppressed
    );
    assert_eq!(applied.suppressed.len(), 1);
    // The second entry names a function the fixture no longer has:
    // exactly it must surface as stale.
    assert_eq!(applied.stale.len(), 1);
    assert_eq!(applied.stale[0].context, "removed_function");
}

// ------------------------------------------------------- determinism

#[test]
fn determinism_offending_fixture() {
    let found = determinism::analyze(&index_fixture("determinism_offending.rs"));
    assert_eq!(
        anchors(&found),
        vec![
            ("unordered-iter", 5, "HashMap"),
            ("wall-clock", 6, "Instant"),
            ("thread-id", 7, "thread"),
            ("env-read", 8, "env"),
            ("unseeded-rng", 9, "thread_rng"),
            ("addr-order", 14, "as_ptr"),
            ("thread-id", 19, "ThreadId"),
        ],
        "{found:#?}"
    );
    // The helper is reached transitively; the chain is the evidence.
    let addr = found.iter().find(|f| f.class == "addr-order").unwrap();
    assert_eq!(addr.context, "helper");
    assert_eq!(addr.chain, vec!["run_worker", "helper"]);
    // SharedBus methods are roots by type, not by call.
    let tid = found.iter().find(|f| f.line == 19).unwrap();
    assert_eq!(tid.context, "SharedBus::arbitrate");
}

#[test]
fn determinism_clean_fixture_is_silent() {
    let found = determinism::analyze(&index_fixture("determinism_clean.rs"));
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn determinism_allowlist_suppresses_and_reports_stale() {
    let found = determinism::analyze(&index_fixture("determinism_allowlisted.rs"));
    assert_eq!(
        anchors(&found),
        vec![
            ("wall-clock", 7, "Instant"),
            ("unordered-iter", 11, "HashMap")
        ],
        "{found:#?}"
    );

    let entries = read_allow("determinism_allow.toml", determinism::CLASSES);
    assert_eq!(entries.len(), 2);

    let applied = allowlist::apply(found, &entries);
    // Only the HashMap finding survives; the wall-clock one is
    // suppressed by the entry whose `context = "poll"` matches the
    // qualified `SharedBus::poll`.
    assert_eq!(applied.unsuppressed.len(), 1);
    assert_eq!(applied.unsuppressed[0].class, "unordered-iter");
    assert_eq!(applied.suppressed.len(), 1);
    assert_eq!(applied.stale.len(), 1);
    assert_eq!(applied.stale[0].context, "removed_function");
}

#[test]
fn determinism_allowlist_rejects_foreign_class() {
    // A panic-reach class inside the determinism allowlist is a
    // structural error, not a silently dead entry.
    let (entries, errors) = allowlist::parse(
        "[[allow]]\nclass = \"panic-unwrap\"\nfile = \"f\"\ncontext = \"c\"\n\
         justification = \"wrong vocabulary\"\n",
        determinism::CLASSES,
    );
    assert!(entries.is_empty());
    assert_eq!(errors.len(), 1, "{errors:#?}");
}

// ------------------------------------------------------- panic-reach

#[test]
fn panic_offending_fixture() {
    let found = panicreach::analyze(&index_fixture("panic_offending.rs"));
    assert_eq!(
        anchors(&found),
        vec![
            ("panic-unwrap", 4, "unwrap"),
            ("panic-unwrap", 5, "expect"),
            ("panic-macro", 7, "panic"),
            ("panic-index", 9, "items"),
            ("panic-div", 10, "n"),
            ("panic-macro", 15, "unreachable"),
        ],
        "{found:#?}"
    );
    // The transitive helper carries its reach chain as evidence.
    let helper = found.iter().find(|f| f.line == 15).unwrap();
    assert_eq!(helper.context, "helper");
    assert_eq!(helper.chain, vec!["run_sweep", "helper"]);
}

#[test]
fn panic_clean_fixture_is_silent() {
    let found = panicreach::analyze(&index_fixture("panic_clean.rs"));
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn panic_allowlist_suppresses_and_reports_stale() {
    let found = panicreach::analyze(&index_fixture("panic_allowlisted.rs"));
    assert_eq!(
        anchors(&found),
        vec![("panic-index", 6, "xs"), ("panic-unwrap", 7, "unwrap")],
        "{found:#?}"
    );

    let entries = read_allow("panic_allow.toml", panicreach::CLASSES);
    assert_eq!(entries.len(), 2);

    let applied = allowlist::apply(found, &entries);
    assert_eq!(applied.unsuppressed.len(), 1);
    assert_eq!(applied.unsuppressed[0].class, "panic-unwrap");
    assert_eq!(applied.suppressed.len(), 1);
    assert_eq!(applied.stale.len(), 1);
    assert_eq!(applied.stale[0].context, "removed_function");
}

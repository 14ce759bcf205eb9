//! Property tests for the finding wire format: `findings_to_json` ∘
//! `findings_from_json` is the identity, and the serialized artifact
//! is byte-stable across production order — both a permutation of the
//! same finding list and a different file-discovery order into the
//! index must yield identical JSON. CI diffs the uploaded artifact
//! between runs, so any order-dependence would show up as noise.

use ecq_lint::callgraph::CallGraph;
use ecq_lint::findings::{findings_from_json, findings_to_json, Finding};
use ecq_lint::index::Index;
use ecq_lint::{determinism, panicreach};
use proptest::prelude::*;

/// Deterministic in-place permutation driven by a test-supplied seed
/// (Fisher–Yates over an xorshift stream; the vendored proptest
/// stand-in has no `prop_shuffle`).
fn permute<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed as usize) % (i + 1));
    }
}

/// One arbitrary finding. Text fields go through lossy UTF-8 so the
/// escaper sees quotes, backslashes and control bytes.
fn finding(spec: (Vec<u8>, Vec<u8>, u32, u8, u8)) -> Finding {
    let (msg, ident, line, which, chain_len) = spec;
    let shape = [
        ("secret-flow", "vartime-call"),
        ("determinism", "unordered-iter"),
        ("panic-reach", "panic-unwrap"),
    ][which as usize % 3];
    Finding {
        file: format!("crates/x/src/{which}.rs"),
        line,
        pass: shape.0.into(),
        class: shape.1.into(),
        context: format!("f{}", which % 7),
        ident: String::from_utf8_lossy(&ident).into_owned(),
        message: String::from_utf8_lossy(&msg).into_owned(),
        chain: (0..chain_len % 4).map(|c| format!("hop{c}")).collect(),
    }
}

fn findings_strategy() -> impl Strategy<Value = Vec<Finding>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 0..48),
            proptest::collection::vec(any::<u8>(), 0..16),
            any::<u32>(),
            any::<u8>(),
            any::<u8>(),
        ),
        0..24,
    )
    .prop_map(|specs| specs.into_iter().map(finding).collect())
}

/// Synthetic sources with distinct function names: `a.rs` roots the
/// cone, the helpers in the other files are reached transitively and
/// carry one determinism and one panic-reach finding each.
const SOURCES: &[(&str, &str)] = &[
    (
        "a.rs",
        "fn run_sweep(xs: Vec<u32>, n: usize) -> u32 {\n    helper_b(xs, n) + helper_c(n)\n}\n",
    ),
    (
        "b.rs",
        "fn helper_b(xs: Vec<u32>, n: usize) -> u32 {\n    let m: HashMap<u32, u32> = HashMap::new();\n    xs[n] + m.len() as u32\n}\n",
    ),
    (
        "c.rs",
        "fn helper_c(n: usize) -> u32 {\n    let t = Instant::now();\n    100 / n as u32\n}\n",
    ),
];

fn analyze_in_order(order: &[usize]) -> String {
    let mut ix = Index::default();
    for &i in order {
        let (name, src) = SOURCES[i];
        ix.add_file(name, src);
    }
    let cg = CallGraph::build(&ix);
    let mut found = determinism::analyze(&ix, &cg);
    found.extend(panicreach::analyze(&ix, &cg));
    findings_to_json(&found)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_round_trips(findings in findings_strategy()) {
        let json = findings_to_json(&findings);
        let back = findings_from_json(&json).map_err(
            proptest::test_runner::TestCaseError::fail,
        )?;
        let mut expected = findings;
        expected.sort();
        prop_assert_eq!(back, expected);
    }

    #[test]
    fn json_is_stable_across_production_order(
        findings in findings_strategy(),
        seed in any::<u64>(),
    ) {
        let canonical = findings_to_json(&findings);
        let mut shuffled = findings;
        permute(&mut shuffled, seed);
        prop_assert_eq!(findings_to_json(&shuffled), canonical);
    }

    #[test]
    fn analysis_is_stable_across_file_discovery_order(seed in any::<u64>()) {
        let mut order = vec![0, 1, 2];
        permute(&mut order, seed);
        let json = analyze_in_order(&order);
        prop_assert_eq!(json, analyze_in_order(&[0, 1, 2]));
    }
}

/// The discovery-order fixture actually finds things (otherwise the
/// stability property above would pass vacuously on empty output).
#[test]
fn discovery_order_fixture_is_not_vacuous() {
    let json = analyze_in_order(&[0, 1, 2]);
    for class in ["unordered-iter", "wall-clock", "panic-index", "panic-div"] {
        assert!(json.contains(class), "missing {class} in {json}");
    }
}

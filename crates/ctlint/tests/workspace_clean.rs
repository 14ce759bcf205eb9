//! The CI gate as a test: the real workspace, scanned by all three
//! passes with their committed allowlists, must come back clean —
//! zero unsuppressed findings, zero stale entries, zero allowlist
//! errors per pass. This is the same check
//! `cargo run -p ecq_lint -- --pass all` and `scripts/verify.sh
//! ctlint` perform.

use ecq_lint::callgraph::CallGraph;
use ecq_lint::panicreach::ROOT_FNS;
use ecq_lint::{panicreach, secretflow};
use std::path::Path;

#[test]
fn workspace_is_clean_under_committed_allowlists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let passes = ecq_lint::select_passes("all").expect("`all` selects the registry");
    for p in passes {
        let allowlist = root.join(p.allowlist);
        assert!(
            allowlist.exists(),
            "missing committed allowlist {}",
            allowlist.display()
        );
    }

    let report = ecq_lint::run(&root, passes, None).expect("workspace scan");

    assert_eq!(report.passes.len(), 3, "all three passes must run");
    assert!(
        report.files > 50,
        "suspiciously few files scanned: {}",
        report.files
    );
    for pass in &report.passes {
        assert!(
            pass.is_clean(),
            "{} not clean under {}:\nunsuppressed: {:#?}\nstale: {:#?}\nerrors: {:#?}",
            pass.pass,
            pass.allowlist_path.display(),
            pass.unsuppressed,
            pass.stale,
            pass.allowlist_errors
        );
    }
    assert!(report.is_clean());

    // The committed lists document audited sites that exist today; the
    // secret-flow and panic-reach lists must stay live (staleness is
    // already a failure above, so a suppressed count of zero would
    // mean the list went dead wholesale). The determinism list is
    // deliberately empty: the hot path carries no justified
    // nondeterminism, and this pins that.
    let suppressed: std::collections::BTreeMap<&str, usize> = report
        .passes
        .iter()
        .map(|p| (p.pass.as_str(), p.suppressed.len()))
        .collect();
    assert!(
        suppressed.get("secret-flow").copied().unwrap_or(0) > 0,
        "secret-flow allowlist suppressed nothing"
    );
    // The panic-reach count is pinned exactly, next to its entry pin
    // below: a call-graph change that drops or adds a finding under a
    // live entry shows here.
    const PANIC_ALLOWED_FINDINGS: usize = 1;
    assert_eq!(
        suppressed.get("panic-reach").copied().unwrap_or(0),
        PANIC_ALLOWED_FINDINGS,
        "the panic-reach allowlist suppresses a different number of \
         findings than its pin says"
    );
    assert_eq!(
        suppressed.get("determinism").copied().unwrap_or(0),
        0,
        "the determinism allowlist is deliberately empty; a new entry \
         means the hot path grew a justified nondeterminism — update \
         this pin alongside the justification"
    );

    // The panic-reach and secret-flow allowlist sizes are tracked and
    // may only shrink: a refactor of the hot path deletes entries,
    // never adds them. Each size is pinned exactly, so a change that
    // deletes entries lowers its pin with them.
    const PANIC_ALLOW_MAX: usize = 1;
    const CT_ALLOW_MAX: usize = 5;
    for (name, max) in [
        (panicreach::NAME, PANIC_ALLOW_MAX),
        (secretflow::NAME, CT_ALLOW_MAX),
    ] {
        let pass = &ecq_lint::select_passes(name).expect("a built-in pass")[0];
        let text =
            std::fs::read_to_string(root.join(pass.allowlist)).expect("read a committed allowlist");
        let (entries, errors) = ecq_lint::allowlist::parse(&text, pass.classes);
        assert!(errors.is_empty(), "{errors:#?}");
        assert_eq!(
            entries.len(),
            max,
            "the {} allowlist has {} entries, its pin says {max}: \
             lower the pin with the entries a change deletes",
            pass.name,
            entries.len()
        );
    }

    // The JSON artifact CI uploads parses back, and a clean run's
    // per-pass finding arrays are empty.
    let json = report.to_json();
    assert!(json.contains("\"clean\":true"), "{json}");
    assert!(
        json.contains("\"unsuppressed\":[]"),
        "clean run must serialize empty finding arrays: {json}"
    );
}

/// Every fn the index reads without a body block is a declaration in
/// a `trait` block. A parse gap that drops a body (as an array return
/// type once did) leaves that fn with no calls, panic sites or taint;
/// this turns the next such gap into a failure instead of findings
/// that silently go missing.
#[test]
fn every_bodiless_fn_is_a_trait_declaration() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ix = ecq_lint::index_workspace(&root).expect("workspace index");
    let gaps: Vec<String> = ix
        .fns
        .iter()
        .filter(|f| !f.has_body)
        // A fn in a `trait` block has no `Self` type in the index.
        .filter(|f| !(f.in_trait && f.self_type.is_none()))
        .map(|f| format!("{}:{} {}", ix.files[f.file], f.line, f.qual))
        .collect();
    assert!(
        gaps.is_empty(),
        "{} fns indexed without a body: {gaps:#?}",
        gaps.len()
    );
}

/// Every finding's `file:line` anchor is a token's line, so the lexer
/// must count every newline it passes over, escaped ones included: a
/// newline it skips shifts the rest of its file one line early. For
/// every scanned file, each non-comment token's first line of text
/// must appear on the line the lexer reports for it.
#[test]
fn every_token_sits_on_its_reported_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut shifted = Vec::new();
    for rel in ecq_lint::workspace_sources(&root).expect("workspace sources") {
        let src = std::fs::read_to_string(root.join(&rel)).expect("read a scanned file");
        let lines: Vec<&str> = src.lines().collect();
        let first_off = ecq_lint::lexer::lex(&src).into_iter().find(|t| {
            let text = t.text.lines().next().unwrap_or("");
            !t.is_comment()
                && !(t.line as usize)
                    .checked_sub(1)
                    .and_then(|l| lines.get(l))
                    .is_some_and(|l| l.contains(text))
        });
        if let Some(t) = first_off {
            shifted.push(format!("{}:{} `{}`", rel.display(), t.line, t.text));
        }
    }
    assert!(
        shifted.is_empty(),
        "{} files hold a token off its reported line: {shifted:#?}",
        shifted.len()
    );
}

/// The panic-reach gate covers the handshake state machines only
/// through a name-resolved edge: `Endpoint::step` calls the protocol
/// hook `advance`, and each machine's hook calls its message handlers.
/// If that edge went unresolved, the gate would stop covering the
/// machines, and only allowlist entries that happen to sit behind the
/// edge would notice. Pin that the cone reaches a message handler of
/// every machine and the core's failure path.
#[test]
fn panic_cone_reaches_every_endpoint_handler() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ix = ecq_lint::index_workspace(&root).expect("workspace index");
    let cg = CallGraph::build(&ix);
    let reach = cg.reach(&ix, |f| ROOT_FNS.contains(&f.name.as_str()), |_| true);
    for qual in [
        "StsInitiator::handle_b1",
        "StsResponder::handle_a2",
        "SEcdsaInitiator::handle_ack",
        "SEcdsaResponder::handle_fin",
        "SciancInitiator::handle_mac",
        "SciancResponder::handle_a2",
        "PorambInitiator::handle_b3",
        "PorambResponder::handle_a3",
        "EndpointCore::fail",
    ] {
        let fns: Vec<usize> = (0..ix.fns.len())
            .filter(|&i| ix.fns[i].qual == qual)
            .collect();
        assert!(!fns.is_empty(), "`{qual}` is not in the workspace index");
        for i in fns {
            assert!(
                reach.reachable[i],
                "`{qual}` fell out of the panic-reach cone"
            );
        }
    }
}

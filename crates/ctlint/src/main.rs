//! `cargo run -p ecq_lint` — the CI entry point for the multi-pass
//! static analyzer. Exits nonzero on any unsuppressed finding, stale
//! allowlist entry or malformed allowlist in any selected pass.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut pass = String::from("all");
    let mut json = false;
    let mut verbose = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            flag @ ("--root" | "--allowlist" | "--pass" | "--format") => {
                let Some(value) = args.next() else {
                    eprintln!("ecq_lint: `{flag}` needs a value (try --help)");
                    return ExitCode::from(2);
                };
                match flag {
                    "--root" => root = PathBuf::from(value),
                    "--allowlist" => allowlist = Some(PathBuf::from(value)),
                    "--pass" => pass = value,
                    _ => match value.as_str() {
                        "json" => json = true,
                        "human" => json = false,
                        other => {
                            eprintln!("ecq_lint: unknown format `{other}` (human|json)");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: ecq_lint [--root DIR] [--pass NAME] [--format human|json]\n\
                     \x20               [--allowlist FILE] [--verbose]\n\
                     Scans DIR (default .) with the selected pass(es):\n\
                     \x20 secret-flow   ct/vartime boundary audit (ci/ctlint_allow.toml)\n\
                     \x20 determinism   report-affecting nondeterminism (ci/determinism_allow.toml)\n\
                     \x20 panic-reach   sweep hot-path panic sites (ci/panic_allow.toml)\n\
                     \x20 all           every pass (default)\n\
                     --allowlist overrides the default path (single pass only).\n\
                     --format json emits the findings artifact on stdout."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ecq_lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let Some(passes) = ecq_lint::select_passes(&pass) else {
        eprintln!("ecq_lint: unknown pass `{pass}` (secret-flow|determinism|panic-reach|all)");
        return ExitCode::from(2);
    };
    if allowlist.is_some() && passes.len() != 1 {
        eprintln!("ecq_lint: --allowlist needs a single --pass (it overrides that pass's file)");
        return ExitCode::from(2);
    }

    let report = match ecq_lint::run(&root, passes, allowlist.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ecq_lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        // JSON mode keeps stdout machine-readable: exactly one object.
        println!("{}", report.to_json());
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for p in &report.passes {
        let al = p.allowlist_path.display();
        for e in &p.allowlist_errors {
            println!("{}:{}: [{}/allowlist] {}", al, e.line, p.pass, e.message);
        }
        for e in &p.stale {
            println!(
                "{}:{}: [{}/allowlist] stale entry for `{}` in {} — no live finding matches it",
                al, e.line, p.pass, e.context, e.file
            );
        }
        for f in &p.unsuppressed {
            println!("{}:{}: [{}] {}", f.file, f.line, f.class, f.message);
            if !f.chain.is_empty() && f.chain.len() > 1 {
                println!("    reached via {}", f.chain_text());
            }
        }
        if verbose {
            for (f, why) in &p.suppressed {
                println!(
                    "{}:{}: [{}] allowed: {} — {}",
                    f.file, f.line, f.class, f.message, why
                );
            }
        }
        println!(
            "ecq_lint[{}]: {} finding(s), {} allowed, {} stale allowlist entr{}",
            p.pass,
            p.unsuppressed.len(),
            p.suppressed.len(),
            p.stale.len(),
            if p.stale.len() == 1 { "y" } else { "ies" }
        );
    }

    println!(
        "ecq_lint: {} files, {} fns scanned",
        report.files, report.fns
    );
    if report.is_clean() {
        println!("ecq_lint: clean");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The `ecq_lint` binary's argument handling: a flag that takes a
//! value must get one, or a trailing `--pass` would fall back to every
//! pass and a trailing `--allowlist` to the committed list.

use std::process::Command;

#[test]
fn missing_flag_value_is_a_usage_error() {
    for args in [
        &["--pass"][..],
        &["--pass", "panic-reach", "--allowlist"],
        &["--root"],
        &["--format"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ecq_lint"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("run ecq_lint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 1];
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{flag}` needs a value")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} scanned anyway");
    }
}

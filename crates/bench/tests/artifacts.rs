//! The deterministic paper artifacts, pinned: each binary's stdout
//! must equal its committed golden under `tests/golden/` byte for
//! byte. A refactor that keeps every table and figure unchanged keeps
//! these green; a change that moves a printed digit has to regenerate
//! the golden on purpose and say why.
//!
//! `ablation` is not pinned: it prints wall-clock times.

use std::process::Command;

/// Runs `exe` with `args` and compares its stdout with `golden`,
/// reporting the first line that differs.
fn assert_stdout(exe: &str, args: &[&str], golden: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(out.status.success(), "{exe} {args:?}: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if stdout == golden {
        return;
    }
    let mismatch = stdout
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want);
    match mismatch {
        Some((n, (got, want))) => panic!(
            "{exe} {args:?}: line {} differs from its golden\n  got:  {got}\n  want: {want}",
            n + 1
        ),
        None => panic!(
            "{exe} {args:?}: {} lines against {} in its golden",
            stdout.lines().count(),
            golden.lines().count()
        ),
    }
}

#[test]
fn table1() {
    let golden = include_str!("golden/table1.txt");
    assert_stdout(env!("CARGO_BIN_EXE_table1"), &[], golden);
}

#[test]
fn table2() {
    let golden = include_str!("golden/table2.txt");
    assert_stdout(env!("CARGO_BIN_EXE_table2"), &[], golden);
}

#[test]
fn table3() {
    let golden = include_str!("golden/table3.txt");
    assert_stdout(env!("CARGO_BIN_EXE_table3"), &[], golden);
}

#[test]
fn fig3() {
    let golden = include_str!("golden/fig3.txt");
    assert_stdout(env!("CARGO_BIN_EXE_fig3"), &[], golden);
}

#[test]
fn fig4() {
    let golden = include_str!("golden/fig4.txt");
    assert_stdout(env!("CARGO_BIN_EXE_fig4"), &[], golden);
}

#[test]
fn fig7() {
    let golden = include_str!("golden/fig7.txt");
    assert_stdout(env!("CARGO_BIN_EXE_fig7"), &[], golden);
}

#[test]
fn fig8() {
    let golden = include_str!("golden/fig8.txt");
    assert_stdout(env!("CARGO_BIN_EXE_fig8"), &[], golden);
}

#[test]
fn attacks() {
    let golden = include_str!("golden/attacks.txt");
    assert_stdout(env!("CARGO_BIN_EXE_attacks"), &[], golden);
}

#[test]
fn hsm() {
    let golden = include_str!("golden/hsm.txt");
    assert_stdout(env!("CARGO_BIN_EXE_hsm"), &[], golden);
}

#[test]
fn fleet_scenario_all() {
    let golden = include_str!("golden/fleet_scenario_all.txt");
    assert_stdout(env!("CARGO_BIN_EXE_fleet"), &["--scenario", "all"], golden);
}

#!/usr/bin/env bash
# Tier-1 verification. CI runs exactly these steps, split into jobs:
#
#   ./scripts/verify.sh          # everything (local pre-push default)
#   ./scripts/verify.sh lint     # fmt + clippy + docs + perfbench check (CI `lint`)
#   ./scripts/verify.sh test     # build + tests + ct suite  (CI `test`)
#   ./scripts/verify.sh fleet    # interleaved fleet smoke   (CI `fleet-smoke`)
#   ./scripts/verify.sh mega     # 1M-device streaming sweep  (CI `fleet-mega`)
#   ./scripts/verify.sh ctlint   # multi-pass static analysis (CI `ctlint`)
#   ./scripts/verify.sh scenario # adversarial conformance    (CI `scenario`)
#   ./scripts/verify.sh service  # socket daemon + load smoke (CI `service`)
#   ./scripts/verify.sh loc      # non-test line count, total and per crate
#
# `loc` measures rather than checks, so it is not part of `all`.
# `mega` is the hour-scale tier (a full million-device run per thread
# count) and is therefore not part of `all`; CI runs it as its own job
# and `fleet` carries a scaled-down streaming smoke against the same
# baseline so every local run still exercises the bounded-memory gate.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

run_test() {
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo test -q"
  cargo test -q

  # The constant-time suite (ct/vartime equivalence proptests + the
  # group-op schedule counters) re-runs in release mode: the dev profile
  # keeps debug assertions and different overflow semantics, and the ct
  # guarantees must hold for the optimized code that ships.
  echo "==> cargo test --release -p ecq_p256 (constant-time suite)"
  cargo test --release -q -p ecq_p256

  # The same holds across crates: full handshakes and batch enrollment
  # under the group-operation and divstep counters, on optimized code.
  echo "==> cargo test --release -p ecq_lint --test dynamic_schedule (cross-crate ct schedules)"
  cargo test --release -q -p ecq_lint --test dynamic_schedule
}

run_lint() {
  echo "==> cargo fmt --check"
  cargo fmt --check

  echo "==> cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> cargo doc -D warnings"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

  # perfbench is a workspace of its own, so nothing above builds it;
  # this keeps the public API it calls from drifting under it.
  echo "==> cargo check perfbench"
  cargo check --locked --quiet --manifest-path perfbench/Cargo.toml
}

run_ctlint() {
  # The multi-pass static analyzer: secret-flow, determinism and
  # panic-reach, each against its committed allowlist
  # (ci/ctlint_allow.toml, ci/determinism_allow.toml,
  # ci/panic_allow.toml) — zero unsuppressed findings, every entry
  # justified and live (stale entries fail). The JSON artifact is
  # written before the gate so a red run still uploads its evidence.
  echo "==> ecq_lint --pass all --format json (artifact: ctlint_findings.json)"
  cargo run --release -q -p ecq_lint -- --root . --pass all --format json \
    > ctlint_findings.json || true # the human run below is the gate

  echo "==> ecq_lint --pass all (gate)"
  cargo run --release -q -p ecq_lint -- --root . --pass all

  # The crate's own tests re-prove each finding class against the
  # golden fixtures, property-test the JSON wire format, and drive
  # real handshakes under the schedule counters.
  echo "==> cargo test -q -p ecq_lint"
  cargo test -q -p ecq_lint
}

run_fleet() {
  # The interleaved 1000-device sweep: bit-identical reports across
  # 1/2/8 worker threads, BENCH_fleet.json emitted, and host handshake
  # throughput gated at 20% below the committed baseline.
  echo "==> fleet smoke (interleaved sweep, determinism + perf gate)"
  cargo run --release -q --bin fleet -- --smoke \
    --threads 1,2,8 \
    --json BENCH_fleet.json \
    --baseline ci/BENCH_fleet_baseline.json \
    --gate-pct 20

  # Thread-scaling floor: 8 workers must not fall below 2 (release
  # mode, isolated from the rest of the suite — the test is #[ignore]d
  # under plain `cargo test` because a wall-clock comparison is noise
  # in the parallel debug harness).
  echo "==> fleet thread-scaling assertion (8 threads >= 2 threads)"
  cargo test --release -q -p ecq_fleet --test fleet_smoke -- --ignored

  # Streaming smoke: the bounded-memory pipeline at a CI-friendly
  # scale, gated against the committed million-device baseline. Both
  # throughput and peak RSS are scale-independent in steady state (the
  # admission window, not the fleet, bounds resident session state), so
  # the 50k run meaningfully gates the same numbers the full `mega`
  # tier measures — with extra headroom for the smaller roster.
  echo "==> fleet streaming smoke (bounded-memory pipeline, RSS gate)"
  cargo run --release -q --bin fleet -- --smoke --mega \
    --devices 50000 \
    --threads 1,2 \
    --json BENCH_fleet_stream.json \
    --baseline ci/BENCH_fleet_mega_baseline.json \
    --gate-pct 30

  # Host cost of every primitive and handshake, recorded next to
  # BENCH_fleet.json.
  echo "==> host timing table (BENCH_p256.json artifact)"
  cargo run --release -q --bin bench_p256 -- --json BENCH_p256.json
}

run_mega() {
  # The full million-device streaming sweep, once per thread count:
  # bit-identical reports across 1/2/8 workers, peak RSS bounded by the
  # admission window (gated against the committed baseline), and
  # throughput recorded honestly — the mega wall-clock includes the
  # lazily produced enrollment, so it gates against its own baseline,
  # never the materialized one. Regenerate with
  #   cargo run --release --bin fleet -- --smoke --mega --threads 1,2,8 \
  #     --write-baseline ci/BENCH_fleet_mega_baseline.json
  echo "==> fleet mega smoke (1,000,000 devices, streaming, RSS + perf gates)"
  cargo run --release -q --bin fleet -- --smoke --mega \
    --threads 1,2,8 \
    --json BENCH_fleet_mega.json \
    --baseline ci/BENCH_fleet_mega_baseline.json \
    --gate-pct 30
}

run_scenario() {
  # The adversarial conformance suite: every named fault scenario must
  # land on its paper-predicted outcome (matching keys, or the exact
  # fail-closed error — never a silent key mismatch, never a session
  # keyed against a revoked certificate).
  echo "==> adversarial conformance suite (analysis)"
  cargo test --release -q -p ecq_analysis --test conformance

  # The scenario catalog through the operator CLI — the same runs a
  # user gets from `fleet --scenario all`.
  echo "==> fleet --scenario all (catalog vs predicted outcomes)"
  cargo run --release -q --bin fleet -- --scenario all

  # Fixed-seed fault matrix: 4 device presets x 3 STS variants under a
  # heavy mixed fault schedule, release mode (#[ignore]d under plain
  # `cargo test` — it is the fuzz-pass tail of the scenario job).
  echo "==> fixed-seed fault matrix (release-mode fuzz pass)"
  cargo test --release -q -p ecq_fleet --test fault_soundness -- --ignored
}

run_service() {
  # Real-socket service mode: the wire-format fuzz gate, the
  # socket-vs-channel transcript equality proptest, the full
  # client/daemon integration suite, and a loopback load smoke with
  # >= 1000 concurrent connections (BENCH_service.json artifact).
  echo "==> wire-format decoder fuzz + golden frame fixtures"
  cargo test --release -q -p ecq_proto --test framing_fuzz --test golden_frames

  echo "==> service integration + transcript byte-equality suite"
  cargo test --release -q -p ecq_service

  echo "==> service load smoke (1000 concurrent loopback connections)"
  cargo run --release -q -p ecq_bench --bin service_load -- \
    --connections 1000 \
    --json BENCH_service.json
}

run_loc() {
  # The non-test line count that ROADMAP.md and CHANGES.md quote: each
  # .rs file under crates/*/src, src/ and examples/, counted up to its
  # first `#[cfg(test)]` line that is followed by a `mod` line.
  # crates/p256/src/mont.rs compiles only under cfg(test), so all of it
  # is test code.
  local files
  mapfile -t files < <(find crates/*/src src examples -name '*.rs' \
    ! -path crates/p256/src/mont.rs | sort)
  awk '
    FNR == 1 {
      split(FILENAME, part, "/")
      unit = part[1] == "crates" ? part[1] "/" part[2] : part[1]
      in_tests = 0
      cfg_test = 0
    }
    in_tests { next }
    cfg_test && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / {
      lines[unit]--
      in_tests = 1
      next
    }
    {
      cfg_test = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/
      lines[unit]++
    }
    END {
      for (u in lines) {
        printf "%7d  %s\n", lines[u], u
        total += lines[u]
      }
      printf "%7d  total\n", total
    }
  ' "${files[@]}" | sort -k2
}

case "$mode" in
  all)
    run_test
    run_lint
    run_ctlint
    run_fleet
    run_scenario
    run_service
    echo "OK: build, tests, fmt, clippy, docs, ctlint, fleet smoke, scenarios, service all green"
    ;;
  test)
    run_test
    echo "OK: build + tests green"
    ;;
  lint)
    run_lint
    echo "OK: fmt, clippy, docs, perfbench check green"
    ;;
  ctlint)
    run_ctlint
    echo "OK: static analysis green (secret-flow, determinism, panic-reach)"
    ;;
  fleet)
    run_fleet
    echo "OK: fleet smoke green"
    ;;
  mega)
    run_mega
    echo "OK: million-device streaming sweep green"
    ;;
  scenario)
    run_scenario
    echo "OK: adversarial conformance green"
    ;;
  service)
    run_service
    echo "OK: service mode green (fuzz, transcripts, load smoke)"
    ;;
  loc)
    run_loc
    ;;
  *)
    echo "usage: $0 [all|lint|test|ctlint|fleet|mega|scenario|service|loc]" >&2
    exit 2
    ;;
esac

#!/usr/bin/env bash
# CI entry point. Twelve stages:
#
#   1. tier-1: the gate every change must pass — release build + full test
#      suite with default features, exactly what `cargo tier1` runs. Also
#      runs `cargo clippy --workspace --all-targets -- -D warnings` over
#      every member crate (xtask and repro included) and their test
#      targets: the workspace is lint-clean and stays that way.
#   2. all-features: compile check with every optional feature enabled
#      (json-reports, proptest-suite) plus the
#      feature-gated test suites, so gated code can never rot, and
#      `cargo clippy --workspace --all-targets --all-features -- -D warnings`
#      so the gated code is lint-clean too.
#   3. resilience smoke: a chaos campaign (10% injected run panics,
#      --jobs 4) must report byte-identically to the serial run, a
#      kill-and-resume round-trip (journal cut mid-line, then --resume)
#      must report byte-identically to the uninterrupted baseline, and a
#      campaign recorded with --trace-out must pass `wasabi stats`
#      validation against its journal (schema, closed spans, attempt and
#      injection counts).
#   4. report digest: the seed-corpus `wasabi test --json` reports must
#      match the recorded digest (scripts/seed_report_digest.txt) — the
#      compile-once interning/index layer must never change observable
#      output. Timing is perfbench's job (`python3 perfbench/run.py`),
#      not CI's.
#   5. lint gate: `wasabi lint` over the pinned corpus apps (amplification
#      seeds included) must be byte-identical between --jobs 1 and
#      --jobs 4, and the baseline it writes must equal the checked-in
#      scripts/lint_baseline.txt exactly, so a finding that appears and
#      one that disappears both fail; a mismatch prints the added and
#      removed fingerprints (re-record deliberately with
#      `cargo xtask lint --record`).
#   6. serve smoke: a `wasabi serve` daemon on a loopback port must
#      answer two submissions of the seed app with byte-identical
#      reports whose digest equals the batch value pinned in
#      scripts/seed_report_digest.txt, and the second submission must
#      be a compiled-app cache hit.
#   7. chaos shard smoke: the seed app as a 4-shard multi-process
#      campaign with one shard chaos-killed mid-flight must recover and
#      merge to the exact single-process report bytes (digest-pinned),
#      `wasabi merge` must reproduce them offline from the shard
#      directory, and a same-chaos-seed rerun must be byte-identical.
#   8. adaptive gate: `wasabi test --adaptive` over all eight corpus
#      apps must report the exact fixed-grid bug set while executing at
#      least 40% fewer runs in aggregate (writes target/BENCH_PR8.json).
#   9. repair gate: `wasabi repair` over all eight corpus apps (small
#      scale, amplification seeds included) must fix at least 80% of the
#      fixable seeded W001/W002/A001 bugs — in aggregate and per class —
#      within the default 3 attempts, with reports byte-identical for
#      --jobs 1 and --jobs 4 and matching the per-app digests pinned in
#      scripts/repair_report_digest.txt (re-record deliberately with
#      `cargo xtask repair-gate --record`; writes target/BENCH_PR9.json).
#  10. lint gate (retry-policy abstract interpretation): `wasabi lint
#      --json --cross-check` over all eight corpus apps (small scale,
#      amplification and policy seeds included) must be byte-identical
#      between --jobs 1 and --jobs 4, the W004/W005/W006 findings
#      must score at least 0.9 precision and recall per code against the
#      policy_truth.json sidecars, and each app's report digest must match
#      scripts/lint_report_digest.txt (re-record deliberately with
#      `cargo xtask lint-gate --record`; writes target/BENCH_PR10.json).
#  11. repro gate (paper fidelity): `repro --scale paper all` must print
#      the checked-in repro_paper_output.txt byte for byte, pinning the
#      Table 3 counts, the Figure 3 counts and overlap, and the FP
#      taxonomy that EXPERIMENTS.md calls exact by measurement.
#  12. perfbench self-test: `perfbench/run.py --self-test` builds the
#      benchmark against the workspace crates (so a library API change
#      that breaks it fails here) and runs each workload once clean and
#      once per corruption, showing every ground-truth check can fail.
#      It times nothing that gates; it builds into target/perfbench.
#
# Gates write their measurements under target/.
#
# Everything resolves offline: the workspace has no registry dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== stage 1: tier-1 (default features + clippy) =="
cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

echo "== stage 2: all features =="
cargo build --all-features
cargo test -q --workspace --all-features
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== stage 3: resilience smoke =="
cargo xtask smoke

echo "== stage 4: report digest (seed-corpus reports vs recorded digest) =="
cargo xtask digest

echo "== stage 5: lint gate (static diagnostics equal the baseline exactly) =="
cargo xtask lint

echo "== stage 6: serve smoke (daemon vs batch digest, cache hit) =="
cargo xtask serve-smoke

echo "== stage 7: chaos shard smoke (killed shard recovers, digest-pinned merge) =="
cargo xtask chaos-shard-smoke

echo "== stage 8: adaptive gate (fixed-grid recall at reduced budget) =="
cargo xtask adaptive-gate

echo "== stage 9: repair gate (auto-repair fix rate vs seeded ground truth) =="
cargo xtask repair-gate

echo "== stage 10: lint gate (W004-W006 precision/recall, report digests) =="
cargo xtask lint-gate

echo "== stage 11: repro gate (paper tables byte-identical to repro_paper_output.txt) =="
cargo xtask repro-gate

echo "== stage 12: perfbench self-test (benchmark builds, truth checks can fail) =="
CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py --self-test

echo "== ci: all stages passed =="

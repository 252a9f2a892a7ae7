#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 gate.
# Usage: ./ci.sh  (add CARGO_FLAGS=--offline when the registry is absent)
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy $CARGO_FLAGS --workspace --all-targets -- -D warnings

echo "== benches compile"
cargo bench $CARGO_FLAGS --no-run

echo "== end-to-end benchmark harness compiles against the current API"
# --locked: a changed dependency edge in any crate perfbench builds fails
# here instead of silently rewriting perfbench/Cargo.lock.
cargo check $CARGO_FLAGS --locked --manifest-path perfbench/Cargo.toml

echo "== workspace builds warning-free"
RUSTFLAGS="-D warnings" cargo build $CARGO_FLAGS --workspace

echo "== tier-1: build + tests"
cargo build $CARGO_FLAGS --release
cargo test $CARGO_FLAGS -q

echo "== gpp lint (committed skeletons, deny warnings)"
cargo build $CARGO_FLAGS --release -p gpp-cli
target/release/gpp lint skeletons/*.gsk --deny warnings

echo "== gpp lint --fix (program corpus: fixes converge and are idempotent)"
# Every whole-program fixture must (a) re-lint clean after one --fix run
# (exit 0 under --deny warnings) and (b) be a byte-for-byte no-op on the
# second run. A drifting fix-it engine fails here before it ships.
FIX_TMP=$(mktemp -d)
for f in fixtures/bad/gpp01*_program_*.gsk; do
    cp "$f" "$FIX_TMP/work.gsk"
    target/release/gpp lint --fix "$FIX_TMP/work.gsk" --deny warnings 2>/dev/null
    cp "$FIX_TMP/work.gsk" "$FIX_TMP/once.gsk"
    target/release/gpp lint --fix "$FIX_TMP/work.gsk" --deny warnings 2>/dev/null
    cmp "$FIX_TMP/once.gsk" "$FIX_TMP/work.gsk" \
        || { echo "non-idempotent fix for $f"; exit 1; }
done
rm -rf "$FIX_TMP"

echo "== gpp machines (committed datasheets round-trip)"
target/release/gpp machines --check fixtures/machines/*.gmach

echo "== cross-fleet matrix (multi-GPU fixtures, pinned seed)"
# The crossfleet experiment loads every committed .gmach — including the
# multi-GPU dual-v2/quad-v2 nodes — under the pinned evaluation seed.
# Every machine column must quote an overlap delta, and the multi-GPU
# columns must carry their data-parallel split totals.
cargo build $CARGO_FLAGS --release -p gpp-bench --bin repro
CROSSFLEET=$(target/release/repro crossfleet)
for needle in "dual-v2:" "quad-v2:" " split2 " " split4 " " ov "; do
    grep -qF -- "$needle" <<<"$CROSSFLEET" \
        || { echo "crossfleet output lacks \`$needle\`"; exit 1; }
done

echo "== perf-regression gate (min-of-N vs committed BENCH_*.json)"
# Re-measure both bench harnesses to temporary files and fail on >25%
# regression against the committed baselines. Both harnesses report
# min-of-N, so a single noisy round cannot trip the gate — only a
# consistent slowdown across every round does.
PERF_TMP=$(mktemp -d)
trap 'rm -rf "$PERF_TMP"' EXIT
GPP_BENCH_OUT="$PERF_TMP/project.json" \
    cargo bench $CARGO_FLAGS -p gpp-bench --bench project_throughput >/dev/null
GPP_BENCH_OUT="$PERF_TMP/serve.json" \
    cargo bench $CARGO_FLAGS -p gpp-bench --bench serve_throughput >/dev/null
cargo build $CARGO_FLAGS --release -p gpp-bench --bin perfgate
target/release/perfgate BENCH_project.json "$PERF_TMP/project.json" --max-regress 0.25
target/release/perfgate BENCH_serve.json "$PERF_TMP/serve.json" --max-regress 0.25

echo "== chaos suite (pinned fault plan)"
# The chaos tests pin their own seeds (7, 42, 2013); the env var pins the
# plan for anything that consults GPP_FAULT_PLAN during the run.
GPP_FAULT_PLAN='seed=2013;pcie.transfer.error:p=0.02' \
    cargo test $CARGO_FLAGS -q -p gpp-serve --test chaos

echo "== gateway chaos suite (shard kills mid-load, pinned fault plan)"
# Seeds 7/42/2013 are pinned inside the tests (injected shard-down plans
# plus a real shard shutdown under concurrent clients); the env var pins
# the plan for anything that consults GPP_FAULT_PLAN during the run.
GPP_FAULT_PLAN='seed=7;gateway.shard.down@shard1:after=2' \
    cargo test $CARGO_FLAGS -q -p gpp-gateway --test chaos

echo "== overload chaos suites (deadlines, shedding, hedging; pinned plans)"
# Serve side: deadline admission against the observed median, mid-flight
# deadline enforcement under an injected compute stall, retry pacing on
# server hints. Gateway side: a slow shard under propagated deadlines —
# hedged goodput must beat the no-hedge baseline, no ok reply may land
# past its deadline, and fault-free replies stay bit-identical. The suites
# pin their own plans; the env var pins anything else consulted mid-run.
GPP_FAULT_PLAN='seed=7;serve.compute.slow:always,factor=40' \
    cargo test $CARGO_FLAGS -q -p gpp-serve --test overload --test retries
GPP_FAULT_PLAN='seed=7;gateway.shard.slow@shard1:after=2,factor=300' \
    cargo test $CARGO_FLAGS -q -p gpp-gateway --test overload

echo "== end-to-end smoke (perfbench workloads through real gpp processes)"
# Two seconds of each benchmark workload on real `gpp serve` (and, for
# `gateway`, `gpp gateway`) processes on loopback: `hot` and `miss` send
# `batch` frames straight to `gpp serve`, `gateway` single frames through
# the gateway. Reusing target/ avoids a second release build. The last
# line of a run is its JSON result; every reply must be correct and no
# request may fail.
for workload in hot miss gateway; do
    SMOKE=$(CARGO_TARGET_DIR="$PWD/target" python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "$SMOKE" \
        || { echo "end-to-end smoke failed ($workload): $SMOKE"; exit 1; }
done

echo "CI OK"

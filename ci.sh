#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 gate.
# Usage: ./ci.sh  (add CARGO_FLAGS=--offline when the registry is absent)
set -euo pipefail
cd "$(dirname "$0")"

# The golden tests rewrite their files instead of comparing them when
# GPP_BLESS=1. A check run refuses the variable at any value, so a bless
# meant for one test run cannot leak into it.
if [ -n "${GPP_BLESS+set}" ]; then
    echo "ci.sh: GPP_BLESS is set, so the golden tests would re-bless their files instead of checking them; unset GPP_BLESS and re-run" >&2
    exit 1
fi

CARGO_FLAGS=${CARGO_FLAGS:---offline}

# Scratch files of the smoke, gateway-log and perf-regression steps.
PERF_TMP=$(mktemp -d)
trap 'rm -rf "$PERF_TMP"' EXIT

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

echo "== docs build warning-free"
# A doc link to a renamed or deleted item fails here instead of going stale.
RUSTDOCFLAGS="-D warnings" cargo doc $CARGO_FLAGS --no-deps --workspace

echo "== tier-1: build + tests"
cargo build $CARGO_FLAGS --release
# No test may rewrite a golden: the files must hash the same afterwards.
sha256sum fixtures/goldens/* >"$PERF_TMP/goldens.sha256"
cargo test $CARGO_FLAGS -q
sha256sum --quiet -c "$PERF_TMP/goldens.sha256" \
    || { echo "the tier-1 tests rewrote a file under fixtures/goldens/"; exit 1; }

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
# request may fail, and nothing on the run's stderr may report a
# connection error, a dead worker or a panic.
LOG_ALARM='connection error|died|panicked'
SMOKE_ERR="$PERF_TMP/smoke.err"
for workload in hot miss gateway; do
    SMOKE=$(CARGO_TARGET_DIR="$PWD/target" python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 2>"$SMOKE_ERR" | tail -n 1) \
        || { cat "$SMOKE_ERR"; echo "end-to-end smoke did not run ($workload)"; exit 1; }
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "$SMOKE" \
        || { cat "$SMOKE_ERR"; echo "end-to-end smoke failed ($workload): $SMOKE"; exit 1; }
    if grep -E "$LOG_ALARM" "$SMOKE_ERR"; then
        echo "end-to-end smoke logged an error ($workload)"
        exit 1
    fi
done

echo "== gateway server logs (keep-alive forwards, an idle client at its read deadline)"
# perfbench discards its servers' stderr, so this run keeps it: one
# `gpp gateway` with two embedded shards and a 1 s read deadline serves
# forwards over its keep-alive shard connections, while a direct client
# of a shard sits idle past the deadline after one request. No server may
# log a connection error, a dead worker or a panic.
GW_OUT="$PERF_TMP/gateway.out"
GW_ERR="$PERF_TMP/gateway.err"
target/release/gpp gateway --shards 2 --timeout 1 --addr 127.0.0.1:0 >"$GW_OUT" 2>"$GW_ERR" &
GW_PID=$!
for _ in $(seq 100); do
    grep -q '^GPP_ADDR=' "$GW_OUT" && break
    sleep 0.05
done
GW_ADDR=$(sed -n 's/^GPP_ADDR=//p' "$GW_OUT")
SHARD_ADDR=$(sed -n 's/^GPP_SHARD_ADDR=//p' "$GW_OUT" | head -n 1)
# Each reply, through real gateway and shard sockets, must be byte for
# byte its pinned row in the `project` reply goldens; a repeat differs
# only in its `cached` flag.
GOLDEN=fixtures/goldens/project_replies.txt
for seed in 1 2 3 4 1 2 3 4; do
    target/release/gpp request skeletons/hotspot_1024.gsk --addr "$GW_ADDR" --seed "$seed" \
        | sed 's/"cached":true/"cached":false/' >"$PERF_TMP/reply.json"
    awk -F '\t' -v label="hotspot_1024 machine=eureka seed=$seed iters=1" \
        '$1 == label { print $2 }' "$GOLDEN" >"$PERF_TMP/golden.json"
    cmp "$PERF_TMP/golden.json" "$PERF_TMP/reply.json" \
        || { kill -TERM "$GW_PID"; echo "gateway reply for seed $seed differs from $GOLDEN"; exit 1; }
done
# The counters of those forwards: the gateway answered all eight, each
# seed missed once and hit once on its shard, and every latency
# percentile is a number. Each forward saw fewer than
# MIN_LATENCY_SAMPLES samples, so none can have hedged.
GW_STATS=$(target/release/gpp request --command stats --addr "$GW_ADDR")
SHARD_STATS=$(sed -n 's/^GPP_SHARD_ADDR=//p' "$GW_OUT" | while read -r shard; do
    target/release/gpp request --command stats --addr "$shard"
done)
python3 - "$GW_STATS" "$SHARD_STATS" <<'PY' || { kill -TERM "$GW_PID"; echo "gateway or shard stats are off"; exit 1; }
import json, sys
gateway = json.loads(sys.argv[1])["gateway"]
shards = [json.loads(line)["stats"] for line in sys.argv[2].splitlines() if line]
def percentiles(v):
    if isinstance(v, dict):
        for k, x in v.items():
            if k.startswith(("p50_", "p99_")):
                yield k, x
            yield from percentiles(x)
    elif isinstance(v, list):
        for x in v:
            yield from percentiles(x)
found = list(percentiles(gateway)) + [p for s in shards for p in percentiles(s)]
checks = {
    "gateway served_ok == 8": gateway["served_ok"] == 8,
    "gateway panics_caught == 0": gateway["panics_caught"] == 0,
    "two shards": len(shards) == 2,
    "shard projection_hits sum to 4": sum(s["projection_hits"] for s in shards) == 4,
    "shard projection_misses sum to 4": sum(s["projection_misses"] for s in shards) == 4,
    "every p50_/p99_ field is a number": bool(found) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for _, x in found),
}
for name, ok in checks.items():
    if not ok:
        print(f"stats check failed: {name}\n{gateway}\n{shards}")
sys.exit(0 if all(checks.values()) else 1)
PY
python3 - "$SHARD_ADDR" <<'PY'
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=5) as s:
    s.sendall(b"10\ngpp/1 ping")
    assert b'"ok":true' in s.recv(4096)
    time.sleep(1.5)
PY
kill -TERM "$GW_PID"
wait "$GW_PID"
if grep -E "$LOG_ALARM" "$GW_ERR"; then
    echo "gpp gateway or its shards logged an error"
    exit 1
fi

echo "== perf-regression gate (min-of-N vs committed BENCH_*.json)"
# Re-measure both bench harnesses to temporary files and fail on >25%
# regression against the committed baselines. Both harnesses report
# min-of-N, so a single noisy round cannot trip the gate — only a
# consistent slowdown across every round does. It runs last, so a
# noisy-host failure here cannot hide a failure of any gate above.
GPP_BENCH_OUT="$PERF_TMP/project.json" \
    cargo bench $CARGO_FLAGS -p gpp-bench --bench project_throughput >/dev/null
GPP_BENCH_OUT="$PERF_TMP/serve.json" \
    cargo bench $CARGO_FLAGS -p gpp-bench --bench serve_throughput >/dev/null
cargo build $CARGO_FLAGS --release -p gpp-bench --bin perfgate
target/release/perfgate BENCH_project.json "$PERF_TMP/project.json" --max-regress 0.25
target/release/perfgate BENCH_serve.json "$PERF_TMP/serve.json" --max-regress 0.25

echo "CI OK"

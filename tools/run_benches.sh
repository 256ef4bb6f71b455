#!/usr/bin/env bash
# Builds everything in Release, runs the tier-1 test suite and the
# cross-build determinism check as fail-fast gates, then runs the
# micro-inference, serving, and parallel throughput benches and diffs
# bench_out/BENCH_parallel.json against the previous run. Exits non-zero
# when best-thread-count throughput (steps/sec or pairs/sec) regressed by
# more than 20%, when the determinism check inside
# bench_training_throughput failed, or when the recorded-plan path broke
# its contract (zero steady-state allocations, bitwise-equal to eager).
#
# Knobs:
#   BUILD_DIR          build tree to use        (default: build-release)
#   HISRECT_BENCH_OUT  output/history directory (default: bench_out)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-release}
OUT_DIR=${HISRECT_BENCH_OUT:-bench_out}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Fail-fast correctness gate: never record bench numbers from a tree whose
# tier-1 suite is red. (cd rather than ctest --test-dir for older ctest.)
(cd "$BUILD_DIR" && ctest -L tier1 --output-on-failure)

# Cross-build determinism gate: default vs -march=native builds, eager vs
# plan+fuse, 1 vs 4 threads must all save byte-identical checkpoints.
bash tools/crossbuild_determinism.sh

# Fault-tolerance gate: the robustness suite (checkpoint round-trips,
# corruption rejection, kill-and-resume bitwise equality, divergence
# rollback) must also be green before numbers are recorded.
(cd "$BUILD_DIR" && ctest -L robustness --output-on-failure)

# Observability gate: obs unit tests, then a small CLI training run with all
# three telemetry surfaces enabled, validated by check_telemetry.py (schema,
# monotonic span timestamps, zero dropped events). Guards against the
# telemetry subsystem silently rotting while the flags stay off by default.
# The run goes through --plan, so the metrics scrape must also carry the
# recorded-plan series (tensor_allocs / arena_bytes / plan_cache_hits).
(cd "$BUILD_DIR" && ctest -L obs --output-on-failure)
obs_dir="$OUT_DIR/obs_smoke"
mkdir -p "$obs_dir"
"$BUILD_DIR/tools/hisrect_cli" train --preset nyc --scale 0.1 --seed 7 \
  --ssl-steps 60 --judge-steps 40 --plan \
  --trace-out "$obs_dir/trace.json" \
  --telemetry-out "$obs_dir/telemetry.jsonl" \
  --metrics-out "$obs_dir/metrics.json" > "$obs_dir/cli.log"
python3 tools/check_telemetry.py \
  --trace "$obs_dir/trace.json" \
  --telemetry "$obs_dir/telemetry.jsonl" \
  --metrics "$obs_dir/metrics.json" \
  --expect-plan

# Serving gate: the serve suite, then a closed-loop bench_serving run,
# validated by check_telemetry.py — latency percentiles present and ordered,
# zero lost requests, served scores bitwise-identical to offline eval, the
# bounded encoder cache holding its bound under a 10x-capacity soak, the
# recorded-plan serving path doing zero steady-state tensor allocations, and
# the open-loop overload record (interactive p99 within 2x uncontended while
# batch traffic is shed, plus a zero-downtime hot swap with every response
# attributable to exactly one model version), and the hash-sharded router
# record (a zero-drop drain after a parked burst, bitwise-identical scores
# across an all-or-nothing fleet deploy drill, balanced shard occupancy).
(cd "$BUILD_DIR" && ctest -L serve --output-on-failure)
(cd "$BUILD_DIR" && ctest -L router --output-on-failure)
HISRECT_BENCH_OUT="$OUT_DIR" "$BUILD_DIR/bench/bench_serving"
python3 tools/check_telemetry.py --serving "$OUT_DIR/BENCH_serving.json"

# Admin-plane smoke gate (DESIGN.md §14): stand up hisrect_serve with the
# live introspection endpoint — through a 2-shard router, so the smoke
# exercises the fleet-merged /statusz + /tracez surfaces — poll /statusz +
# /metrics 10x at 10 Hz while the process serves and then lingers, and
# validate the capture (required keys, monotonic counters, ordered live
# percentiles, stage-trace accounting) with check_telemetry.py --admin.
admin_dir="$OUT_DIR/admin_smoke"
mkdir -p "$admin_dir"
"$BUILD_DIR/tools/hisrect_serve" --preset nyc --scale 0.1 --seed 7 \
  --ssl-steps 60 --judge-steps 40 --requests 64 --router-shards 2 \
  --admin-port 0 --linger-ms 20000 > "$admin_dir/serve.log" 2>&1 &
serve_pid=$!
admin_port=""
for _ in $(seq 1 300); do
  admin_port=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$admin_dir/serve.log" \
    | head -1 | sed 's/.*://') || true
  [ -n "$admin_port" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "run_benches: hisrect_serve exited before the admin endpoint came up"
    cat "$admin_dir/serve.log"
    exit 1
  fi
  sleep 0.2
done
if [ -z "$admin_port" ]; then
  echo "run_benches: admin endpoint never appeared in serve.log"
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
python3 - "$admin_port" "$admin_dir/snapshots.jsonl" <<'EOF'
import json
import sys
import time
import urllib.request

port, out_path = sys.argv[1], sys.argv[2]

def get(path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return json.loads(response.read())

with open(out_path, "w", encoding="utf-8") as out:
    for poll in range(10):
        snapshot = {"statusz": get("/statusz"), "metrics": get("/metrics")}
        out.write(json.dumps(snapshot) + "\n")
        time.sleep(0.1)
healthz = get("/healthz")
if healthz.get("status") not in ("ok", "draining"):
    print(f"run_benches: unexpected /healthz: {healthz}")
    sys.exit(1)
tracez = get("/tracez?n=4")
if not tracez.get("traces"):
    print(f"run_benches: /tracez returned no traces: {tracez}")
    sys.exit(1)
print(f"run_benches: polled admin endpoint on :{port} 10x at 10 Hz")
EOF
python3 tools/check_telemetry.py --admin "$admin_dir/snapshots.jsonl"
wait "$serve_pid"

# Admin overhead gate: re-assert from BENCH_serving.json that a 10 Hz
# scraper against the instrumented server kept interactive p99 within 5% of
# the admin-disabled A/B leg.
python3 - "$OUT_DIR/BENCH_serving.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
admin = doc.get("admin")
if not admin:
    print("run_benches: BENCH_serving.json has no admin record")
    sys.exit(1)
if admin.get("ok") is not True:
    print(f"run_benches: admin overhead gate failed: {admin}")
    sys.exit(1)
print(
    "run_benches: admin overhead OK — p99 "
    f"{admin['p99_admin_ms']:.2f}ms with a 10 Hz scraper vs "
    f"{admin['p99_noadmin_ms']:.2f}ms without "
    f"({admin['polls']} polls, {admin['requests_per_mode']} req/mode)"
)
EOF

# Overload / hot-swap gate: restate the robustness numbers so a regression
# is visible in the bench log, not just as a check_telemetry failure.
python3 - "$OUT_DIR/BENCH_serving.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
overload = doc.get("overload")
if not overload:
    print("run_benches: BENCH_serving.json has no overload record")
    sys.exit(1)
if overload.get("ok") is not True:
    print(f"run_benches: overload/hot-swap gate failed: {overload}")
    sys.exit(1)
print(
    "run_benches: overload OK — interactive p99 "
    f"{overload['p99_overload_ms']:.2f}ms under {overload['offered_qps']:.0f} "
    f"offered qps (uncontended {overload['p99_uncontended_ms']:.2f}ms), "
    f"{overload['batch_shed']} batch shed, swap v{overload['swapped_version']} "
    f"with {overload['dropped']} dropped"
)
EOF

# Router gate (DESIGN.md §15): restate the hash-sharded router record —
# the parked burst must drain with zero dropped futures, the diurnal/burst
# replay must be bitwise-identical with zero drops across the injected
# one-shard-failed fleet deploy (full rollback, then a clean redeploy), and
# shard occupancy must stay within the max/min balance bound.
python3 - "$OUT_DIR/BENCH_serving.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
router = doc.get("router")
if not router:
    print("run_benches: BENCH_serving.json has no router record")
    sys.exit(1)
if router.get("ok") is not True:
    print(f"run_benches: router gate failed: {router}")
    sys.exit(1)
burst = router["burst"]
replay = router["replay"]
balance = router["balance"]
if burst["dropped"] != 0:
    print(f"run_benches: router burst drain dropped futures: {burst}")
    sys.exit(1)
if replay["dropped"] != 0 or replay["bitwise_identical"] is not True:
    print(f"run_benches: router replay dropped/diverged: {replay}")
    sys.exit(1)
if replay["failed_deploy_rolled_back"] is not True or \
        replay["swap_rollbacks"] != 1:
    print(f"run_benches: router fleet-deploy drill failed: {replay}")
    sys.exit(1)
if balance["max_min_ratio"] > balance["bound"]:
    print(f"run_benches: router shards imbalanced: {balance}")
    sys.exit(1)
print(
    "run_benches: router OK — burst of "
    f"{burst['admitted']} for {burst['shard_counts']} shards drained, replay "
    f"v{replay['incumbent_version']}->v{replay['fleet_version']} bitwise with "
    f"{replay['dropped']} dropped across the rollback drill, balance "
    f"max/min {balance['max_min_ratio']:.2f} (bound {balance['bound']})"
)
EOF

mkdir -p "$OUT_DIR"
current="$OUT_DIR/BENCH_parallel.json"
previous="$OUT_DIR/BENCH_parallel.prev.json"
if [ -f "$current" ]; then
  cp "$current" "$previous"
fi

"$BUILD_DIR/bench/bench_micro_inference" --benchmark_min_time=0.2 \
  | tee "$OUT_DIR/micro_inference.txt"
HISRECT_BENCH_OUT="$OUT_DIR" "$BUILD_DIR/bench/bench_training_throughput"

# Recorded-plan gate: the planned training path must do zero steady-state
# tensor allocations after prewarm and match the eager run bitwise. The
# bench exit code already enforces this; re-assert from the JSON so a future
# bench refactor cannot silently drop the check.
python3 - "$OUT_DIR/BENCH_parallel.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
plan = doc.get("plan")
if plan is None:
    print("run_benches: BENCH_parallel.json has no 'plan' record")
    sys.exit(1)
failed = False
for key in ("ssl_steady_tensor_allocs", "judge_steady_tensor_allocs"):
    if plan.get(key) != 0:
        print(f"run_benches: planned path {key} = {plan.get(key)}; want 0")
        failed = True
if plan.get("matches_eager") is not True:
    print("run_benches: planned path losses/scores differ from eager")
    failed = True
if failed:
    sys.exit(1)
print(f"run_benches: plan OK — 0 steady-state allocs, arena "
      f"{plan.get('arena_high_water_bytes')} B, bitwise-equal to eager")
EOF

if [ ! -f "$previous" ]; then
  echo "run_benches: no previous BENCH_parallel.json — baseline recorded."
  exit 0
fi

python3 - "$previous" "$current" <<'EOF'
import json
import sys

previous, current = (json.load(open(path)) for path in sys.argv[1:3])

def best(doc, key):
    return max(run[key] for run in doc["runs"])

failed = False
keys = ["steps_per_sec", "pairs_per_sec"]
# Phase throughputs exist only in records written after the sharded
# graph-build / encode phases landed; diff them once both sides have them.
for key in ("graph_build_pairs_per_sec", "encode_profiles_per_sec"):
    if all(key in doc["runs"][0] for doc in (previous, current)):
        keys.append(key)
for key in keys:
    prev_value, cur_value = best(previous, key), best(current, key)
    change = (cur_value - prev_value) / prev_value * 100.0
    print(f"run_benches: {key}: {prev_value:.2f} -> {cur_value:.2f} "
          f"({change:+.1f}%)")
    if cur_value < prev_value * 0.8:
        failed = True

if not current.get("deterministic_across_threads", False):
    print("run_benches: determinism check FAILED")
    failed = True

if failed:
    print("run_benches: REGRESSION — >20% throughput drop vs previous run")
    sys.exit(1)
print("run_benches: OK — within 20% of the previous run")
EOF

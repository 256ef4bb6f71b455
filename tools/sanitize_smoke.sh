#!/usr/bin/env bash
# Sanitizer smoke run: builds the tree under each requested sanitizer and
# runs the matching test label. ASan and UBSan run the robustness and plan
# suites — the checkpoint/resume and fault-injection paths exercise raw byte
# I/O, partial writes, and injected corruption, and the recorded-plan
# executor indexes raw arena offsets computed by the memory planner — exactly
# where memory and UB bugs like to hide. TSan runs the obs and serve suites —
# the metrics registry, trace ring buffers, and telemetry sink are written
# from worker threads and scraped concurrently, and the judgement server's
# submit/batch/drain paths cross client, batcher, and pool threads — exactly
# where data races like to hide. serve_robustness_test carries both the
# `serve` and `robustness` labels, so its cancel-vs-drain,
# deadline-vs-flush, and registry-swap-vs-Shutdown races run under TSan and
# its failpoint faults (serve.slow_batch, serve.score_abort,
# registry.corrupt_load) run under ASan/UBSan as well. The router suite
# rides along under TSan: shard fan-out, fleet swaps, and the routed_
# counters cross the router, shard batchers, and registry threads. So do the
# `parallel` suites (thread_pool_test, parallel_training_test,
# determinism_test): every sharded training step runs its chains on pool
# threads, each on its own replica, plan slots and forked RNG streams. The TSan
# leg is a soak: each suite runs up to three times (ctest --repeat
# until-fail:3), because one pass samples one interleaving of the batcher's
# inline scoring, the pool's cursor tasks and per-request resolution.
#
# Knobs:
#   SANITIZERS   space-separated subset of "address undefined thread"
#                (default: all three)
#   BUILD_ROOT   prefix for the build trees (default: build-san)
#   CTEST_LABEL  ctest -L selector override; empty picks per-sanitizer
#                defaults (robustness|plan|fusion for address/undefined,
#                obs|serve|fusion|router|parallel for thread)
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=${SANITIZERS:-"address undefined thread"}
BUILD_ROOT=${BUILD_ROOT:-build-san}
CTEST_LABEL=${CTEST_LABEL:-}

label_for() {
  case "$1" in
    thread) echo "obs|serve|fusion|router|parallel" ;;  # ctest -L: a regex
    *) echo "robustness|plan|fusion" ;;
  esac
}

for sanitizer in $SANITIZERS; do
  build_dir="${BUILD_ROOT}-${sanitizer}"
  label=${CTEST_LABEL:-$(label_for "$sanitizer")}
  echo "=== sanitize_smoke: ${sanitizer} -> ${build_dir} (ctest -L ${label}) ==="
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHISRECT_SANITIZE="$sanitizer"
  cmake --build "$build_dir" -j "$(nproc)"
  repeat=""
  if [ "$sanitizer" = thread ]; then repeat="--repeat until-fail:3"; fi
  # shellcheck disable=SC2086  # $repeat splits into two flags on purpose.
  (cd "$build_dir" && ctest -L "$label" --output-on-failure $repeat)
done

echo "sanitize_smoke: OK (${SANITIZERS})"

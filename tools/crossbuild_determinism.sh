#!/usr/bin/env bash
# Cross-build determinism gate: the default and HISRECT_NATIVE_ARCH=ON
# (-march=native) Release trees must train byte-identical checkpoints, on
# the eager tape and through fused recorded plans (--plan --fuse), at 1 and
# 4 threads. Eight trainings, one set of bytes: exits 1 unless every
# checkpoint matches the default-build eager 1-thread one, and that one has
# the recorded md5 below. The pin makes the gate absolute: a change that
# moved every build and executor in lockstep still fails it. It belongs to
# the toolchain it was recorded with (GCC 12.2, glibc 2.36, x86-64).
#
# Builds its own trees (build-crossbuild-default, build-crossbuild-native)
# and writes the checkpoints to a temporary directory removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

expected_md5=16963de5812eaf7b2789bfb6fdb7892b

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT

for arch in default native; do
  build_dir="build-crossbuild-${arch}"
  native=OFF
  [ "$arch" = native ] && native=ON
  echo "=== crossbuild_determinism: ${arch} -> ${build_dir} ==="
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
    -DHISRECT_NATIVE_ARCH="$native" > /dev/null
  cmake --build "$build_dir" -j "$(nproc)" --target hisrect_cli
  for threads in 1 4; do
    for mode in eager plan_fuse; do
      mode_flags=""
      [ "$mode" = plan_fuse ] && mode_flags="--plan --fuse"
      run="${arch}_t${threads}_${mode}"
      # shellcheck disable=SC2086  # mode_flags is a word list by design
      "$build_dir/tools/hisrect_cli" train --preset nyc --scale 0.1 --seed 7 \
        --ssl-steps 60 --judge-steps 40 --shards 2 --threads "$threads" \
        $mode_flags --out "$work_dir/${run}.bin" > "$work_dir/${run}.log"
    done
  done
done

reference="$work_dir/default_t1_eager.bin"
failed=0
for checkpoint in "$work_dir"/*.bin; do
  verdict=identical
  if ! cmp -s "$reference" "$checkpoint"; then
    verdict=DIFFERS
    failed=1
  fi
  echo "crossbuild_determinism: $(basename "$checkpoint" .bin)" \
    "$(wc -c < "$checkpoint") B md5 $(md5sum < "$checkpoint" | cut -d' ' -f1)" \
    "${verdict}"
done
if [ "$failed" -ne 0 ]; then
  echo "crossbuild_determinism: FAILED — checkpoints differ across builds," \
    "executors or thread counts"
  exit 1
fi
reference_md5=$(md5sum < "$reference" | cut -d' ' -f1)
if [ "$reference_md5" != "$expected_md5" ]; then
  echo "crossbuild_determinism: FAILED — reference md5 $reference_md5," \
    "recorded $expected_md5: the training trajectory changed"
  exit 1
fi
echo "crossbuild_determinism: OK — 8 byte-identical checkpoints, md5" \
  "$expected_md5"

#!/usr/bin/env sh
# Guard: the AVX-512 lane kernel stays inlined.
#
# The device window pass (spmd_selector.cpp) and the host tiled profile's
# lane pass (window_sweep.cpp) hand every residual to a caller-supplied
# write lambda that GCC inlines into `batch_resume_avx512_impl`, the
# AVX-512 lane kernel (core/detail/batched_lanes_avx512.hpp). That
# inlining decision is what keeps the kernel's loops free of calls, and an
# unrelated change to a caller can flip it: moving NW's pass onto another
# carry layout once made GCC emit 60 calls instead of 5 in the resident
# float kernel and cut the paper-wide-k benchmark from 47 to 27
# selections/s (DESIGN.md §12). This
# script disassembles kreg_core's objects and fails when any instantiation
# of the kernel holds more than 12 call instructions.
#
# Usage: scripts/check_lane_kernel_calls.sh [build-dir]
#   build-dir  a configured and built kreg tree (default: build)
set -eu

build="${1:-build}"
# The inlined kernels hold 2-6 calls; a lost inline puts dozens back
# (DESIGN.md §12).
max_calls=12
objects="$build/src/core/CMakeFiles/kreg_core.dir"
if [ ! -d "$objects" ]; then
  echo "check_lane_kernel_calls: '$objects' not found; build kreg_core first" >&2
  exit 2
fi
if ! command -v objdump >/dev/null 2>&1; then
  echo "check_lane_kernel_calls: objdump not found" >&2
  exit 2
fi

status=0
found=0
for obj in "$objects"/*.o; do
  report=$(objdump -d --no-show-raw-insn "$obj" | awk -v obj="$(basename "$obj")" '
    # A symbol header ("0000000000000000 <_ZN...>:") opens a function.
    /^[0-9a-f]+ <.*>:$/ {
      if (name != "") print obj, calls, name
      name = ""
      calls = 0
      if ($0 ~ /batch_resume_avx512_impl/) {
        name = $2
        sub(/^</, "", name)
        sub(/>:$/, "", name)
      }
      next
    }
    name != "" && $2 ~ /^call/ { calls++ }
    END { if (name != "") print obj, calls, name }
  ')
  [ -z "$report" ] && continue
  while read -r file calls symbol; do
    found=$((found + 1))
    if [ "$calls" -gt "$max_calls" ]; then
      echo "FAIL $file: $calls calls (> $max_calls) in $symbol"
      status=1
    else
      echo "ok   $file: $calls calls in $symbol"
    fi
  done <<EOF
$report
EOF
done

if [ "$found" -eq 0 ]; then
  echo "check_lane_kernel_calls: no batch_resume_avx512_impl instantiation in $objects" >&2
  echo "(the AVX-512 lane kernel is compiled on x86-64 GCC/Clang builds only)" >&2
  exit 2
fi
exit "$status"

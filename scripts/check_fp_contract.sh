#!/usr/bin/env sh
# Lint: no FMA contraction hazards under src/core/.
#
# The whole test suite pins BITWISE parity between backends of one sweep
# (resident vs streamed vs batched vs scalar, generic lanes vs the AVX-512
# lane kernel), and the build enforces it with a build-wide
# -ffp-contract=off (DESIGN.md §12): FMA contraction is chosen per call
# site under -ffp-contract=fast, so two inline expansions of the same
# kernel body could round differently, and the AVX-512 kernel's
# target("avx512f,...") functions could contract where the baseline
# scalar sweep cannot. That guarantee dies silently if
#   - core code reintroduces contraction by hand: an explicit std::fma, a
#     local `#pragma STDC FP_CONTRACT` or `#pragma clang fp`, or a
#     per-target -ffp-contract=fast;
#   - core code re-optimizes one function with `#pragma GCC optimize` or
#     an optimize attribute, either of which can turn contraction back on
#     for that function;
#   - the root CMakeLists.txt stops adding -ffp-contract=off to every
#     build (outside the optional `if(KREG_NATIVE)` block),
# so this script fails CI in each of those cases.
#
# Usage: scripts/check_fp_contract.sh [repo-root]
set -eu

root="${1:-.}"
core="$root/src/core"
if [ ! -d "$core" ]; then
  echo "check_fp_contract: '$core' is not a directory" >&2
  exit 2
fi

status=0
# \b keeps std::fmax/fmaf out; comment-only mentions (lines starting with
# // or *) are allowed, so prose that explains the policy does not trip it.
for pattern in 'std::fma\b' '#[[:space:]]*pragma[[:space:]]+STDC[[:space:]]+FP_CONTRACT' \
               '#[[:space:]]*pragma[[:space:]]+clang[[:space:]]+fp\b' \
               '\-ffp-contract=fast' \
               '#[[:space:]]*pragma[[:space:]]+GCC[[:space:]]+optimize' \
               '(__attribute__|gnu::).*\boptimize\b'; do
  # -r over the tree; -n so a finding is actionable; -I skips binaries.
  if matches=$(grep -rnIE -- "$pattern" "$core" 2>/dev/null |
               grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|\*)'); then
    printf "check_fp_contract: forbidden pattern '%s' under src/core/:\n" \
           "$pattern" >&2
    echo "$matches" >&2
    status=1
  fi
done

# The build-wide flag: some non-comment line of the root CMakeLists.txt
# must carry -ffp-contract=off outside the if(KREG_NATIVE) block (nesting
# aware), i.e. in every configuration.
cmake_lists="$root/CMakeLists.txt"
if ! awk '
  { line = $0; sub(/#.*/, "", line); cmd = tolower(line) }
  native > 0 && cmd ~ /^[ \t]*if[ \t]*\(/ { native++; next }
  native > 0 && cmd ~ /^[ \t]*endif[ \t]*\(/ { native--; next }
  native == 0 && line ~ /^[ \t]*[iI][fF][ \t]*\([ \t]*KREG_NATIVE[ \t]*\)/ {
    native = 1; next
  }
  native == 0 && line ~ /-ffp-contract=off/ { found = 1 }
  END { exit found ? 0 : 1 }
' "$cmake_lists"; then
  echo "check_fp_contract: $cmake_lists does not add -ffp-contract=off" \
       "to every build (outside if(KREG_NATIVE))" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_fp_contract: OK — src/core/ is contraction-free and every" \
       "build compiles with -ffp-contract=off"
fi
exit "$status"

#!/usr/bin/env bash
# End-to-end benchmark of the Bamboo reproduction (see README.md here).
#
#   bench/e2e/run.sh
#       build, then run every workload untraced and then traced (seed 1)
#   bench/e2e/run.sh --workload NAME --seed N [--seconds S] --trace 0|1
#       one run; its result is the last line of stdout. S, when given,
#       must equal BENCHMARK.json's run_seconds
#   bench/e2e/run.sh --smoke [--sanitize=thread]
#       every workload for about 1.5 s through the same code paths
#   bench/e2e/run.sh --sets=2 --runs=5
#       repeatability check of this commit (repeat.py)
#
# The repository's libraries are built with the root CMake into build/
# (build-tsan/ with --sanitize=thread), the directories scripts/tier1.sh
# uses, and the harness is linked against their archives into
# build/e2e/. Build output goes to stderr.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
BENCH="$ROOT/BENCHMARK.json"

for A in "$@"; do
  case "$A" in
    --sets=* | --runs=*) exec python3 "$HERE/repeat.py" "$@" ;;
  esac
done

SAN=""
ONE=""
ARGS=()
for A in "$@"; do
  case "$A" in
    --sanitize=*) SAN="${A#--sanitize=}" ;;
    --workload) ONE=1; ARGS+=("$A") ;;
    *) ARGS+=("$A") ;;
  esac
done

if [ ! -f "$ROOT/CMakeLists.txt" ] || [ ! -d "$ROOT/src" ] || [ ! -f "$BENCH" ]; then
  echo "run.sh: $ROOT does not hold the repository sources" >&2
  exit 2
fi

case "$SAN" in
  "") BUILD="$ROOT/build" ;;
  thread) BUILD="$ROOT/build-tsan" ;;
  *) echo "run.sh: --sanitize takes only 'thread'" >&2; exit 2 ;;
esac
if [ -f "$BUILD/CMakeCache.txt" ]; then
  # An existing tree is reused only when it builds what this benchmark
  # measures: the default optimized flags and the requested sanitizer.
  TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD/CMakeCache.txt")"
  HAS_SAN="$(sed -n 's/^BAMBOO_SANITIZE:STRING=//p' "$BUILD/CMakeCache.txt")"
  case "$TYPE" in "" | Release | RelWithDebInfo) ;; *)
    echo "run.sh: $BUILD is a $TYPE build; the benchmark needs an optimized one" >&2
    exit 2 ;;
  esac
  if [ "$HAS_SAN" != "$SAN" ]; then
    echo "run.sh: $BUILD is built with BAMBOO_SANITIZE='$HAS_SAN', not '$SAN'" >&2
    exit 2
  fi
else
  GEN=()
  if command -v ninja >/dev/null; then GEN=(-G Ninja); fi
  cmake -S "$ROOT" -B "$BUILD" "${GEN[@]}" ${SAN:+-DBAMBOO_SANITIZE=$SAN} >&2
fi

OUT="$BUILD/e2e"
HARNESS="$OUT/e2e_harness"
# Keep the compilers' temporary files inside the checkout too.
export TMPDIR="$OUT/tmp"
mkdir -p "$TMPDIR" "$OUT/spans"
cmake --build "$BUILD" -j "$(nproc)" --target bamboo_serve >&2
if [ ! -x "$HARNESS" ] || [ -n "$(find "$HERE" "$BUILD/src" \
    \( -name '*.cpp' -o -name '*.h' -o -name 'libbamboo_*.a' \) \
    -newer "$HARNESS" | head -n 1)" ]; then
  "${CXX:-g++}" -std=c++20 -O2 -Wall -Wextra -I"$ROOT/src" \
    ${SAN:+-g -fsanitize=$SAN} "$HERE"/*.cpp -o "$HARNESS" \
    -Wl,--start-group "$BUILD"/src/*/libbamboo_*.a -Wl,--end-group -pthread >&2
fi

harness() {
  "$HARNESS" --apps "$ROOT/examples/dsl" --benchmark "$BENCH" \
    --spans "$OUT/spans" "$@"
}

if [ -n "$ONE" ]; then
  harness "${ARGS[@]}"
  exit 0
fi

# Every workload, untraced then traced; fails when any run is incorrect.
STATUS=0
for W in $(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$BENCH"); do
  for T in 0 1; do
    LINE="$(harness --workload "$W" --seed 1 --trace "$T" "${ARGS[@]}" | tail -n 1)"
    echo "$W trace=$T $LINE"
    case "$LINE" in *'"correct": true'*) ;; *) STATUS=1 ;; esac
  done
done
echo "spans: $OUT/spans/" >&2
exit "$STATUS"

#!/usr/bin/env bash
# Source lint driver. The rules themselves live in the crocco-analyze
# static analyzer (tools/analyze/, built by the root CMake): token-aware
# re-implementations of the original grep rules (R1–R4, R7) plus the
# whole-program passes (A1, A3, A4, A6). See docs/correctness.md for the
# full rule catalogue and the `// crocco-analyze:allow(<rule>): reason`
# suppression syntax that replaced the old file-granular grep allowlists.
#
# This script only (1) builds the analyzer, (2) runs it over the repo,
# (3) runs clang-tidy when the toolchain provides it. Run from the repo
# root (`make lint` does).
set -eu
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
BUILD=${ANALYZE_BUILD:-build-analyze}

# Build (or reuse) the analyzer. The configure step is cached: a build tree
# that already has a generated CMakeCache is not reconfigured.
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
    cmake -B "$BUILD" -S . -DCROCCO_BUILD_TESTS=OFF -DCROCCO_BUILD_BENCH=OFF \
          -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
fi
cmake --build "$BUILD" --target crocco-analyze -j "$JOBS" >/dev/null

fail=0
if ! "$BUILD"/tools/analyze/crocco-analyze --root . ${ANALYZE_FLAGS:-}; then
    fail=1
fi

# clang-tidy: uses the pinned check list in .clang-tidy at the repo root.
# Needs a compile database; generate one on demand in build-tidy/. The lane
# is BLOCKING when clang-tidy is available (the check list is pinned, so a
# toolchain upgrade cannot spring new checks on the tree) and skipped with
# a notice when it is not.
if command -v clang-tidy >/dev/null 2>&1; then
    if [ ! -f build-tidy/compile_commands.json ]; then
        cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
              -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF \
              >/dev/null
    fi
    if ! clang-tidy -p build-tidy --quiet $(git ls-files 'src/*.cpp'); then
        echo "lint: clang-tidy reported findings"
        fail=1
    fi
else
    echo "lint: clang-tidy not found; skipping static-analysis pass"
fi

if [ "$fail" -eq 0 ]; then
    echo "lint: OK"
fi
exit "$fail"

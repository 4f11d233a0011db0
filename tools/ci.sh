#!/usr/bin/env bash
# Full CI sweep: the crocco-analyze lane (static analysis + deck-key
# registry drift), the Release tier-1 suite (plain and on a perturbed
# heap), the benchmark self-test, the fault-campaign seed matrix, the
# CROCCO_CHECK instrumentation suite, and the sanitizer suites (ASan +
# UBSan, ThreadSanitizer) — each in its own build tree so configurations
# never contaminate each other.
#
#   tools/ci.sh            # run everything
#   SKIP_SANITIZE=1 tools/ci.sh   # skip the (slow) sanitizer lanes
#
# Every artifact (the SARIF log) is written under build-ci/, and the last
# gate checks that the checkout is left as CI found it. The tier-1, check
# and sanitizer suites run JOBS tests at a time: every test writes its
# files under its own per-process temporary directory (tests/TempDir.hpp).
set -eu
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
STATUS_BEFORE=$(git status --porcelain)
mkdir -p build-ci

echo "== analyze (crocco-analyze, SARIF artifact) =="
# Gate: the analyzer must come back clean (inline-suppressed findings are
# fine, anything else fails). The SARIF log is the reviewable artifact.
ANALYZE_FLAGS="--sarif build-ci/crocco-analyze.sarif" tools/lint.sh
# The committed deck-key registry must match the query sites in the code.
build-analyze/tools/analyze/crocco-analyze --root . --write-deck-registry >/dev/null
if ! git diff --exit-code -- docs/deck-keys.md; then
    echo "ci: docs/deck-keys.md is stale — commit the regenerated registry"
    exit 1
fi

echo "== tier-1 (Release) =="
# Every ctest entry, the fault-injection soaks and the self-checking gates
# included, so no lane below re-runs a label of it:
#   resilience — the seeded comm-fault campaign (every fault kind injected
#     and recovered), the mid-run rank-death soak with regrids
#     (comm_recovery_test), and the SDC soaks at 1 and 8 threads;
#   perf — the modeled gates (recovery_bench: buddy beats disk at 4096
#     nodes; sdc_bench: zero undetected flips at interval 1, no false
#     positives, < 5% detection overhead, monotone ladder waste), the
#     comm-cache and thread-pool suites, and the tier-1 suites re-run at
#     GPU_NUM_THREADS=4. Measured performance is dmrbench's (BENCHMARK.json).
# `ctest -L resilience` and `ctest -L perf` select these for local runs.
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS" >/dev/null
(cd build-ci && ctest -j "$JOBS" --output-on-failure)

echo "== tier-1 (Release) on a perturbed heap (MALLOC_PERTURB_=165) =="
# Fab storage is not zero-filled (FArrayBox::resize), so a read of a
# never-written cell would see whatever the heap held. glibc fills every
# fresh allocation with a fixed non-zero byte pattern under this setting,
# so such a read cannot hide behind zeros or a recycled buffer's values,
# and any digest, CSV or bitwise comparison it reaches changes.
(cd build-ci && MALLOC_PERTURB_=165 ctest -j "$JOBS" --output-on-failure)

echo "== benchmark self-test (dmrbench/selftest.py, tiny sizes) =="
# Every BENCHMARK.json workload at a tiny size: each metric printed with its
# unit, every output check holding (shock position, plateau, flips
# repaired, restart bitwise, traced run bitwise equal to untraced), and a
# deliberately corrupted result counted as a failed operation.
python3 dmrbench/selftest.py

echo "== fault-campaign seed matrix (ctest -R 'sdc_soak|comm_recovery') =="
# The SDC soaks, the combined chaos soak (SDC + message faults + rank
# death) and the comm-fault soak (CommFaultSoak) re-run under several
# campaign seeds: every seed must drive the recovery path back to a
# bitwise-identical trajectory, with wire traffic that accounts exactly
# for the injected message faults. The default seed (2026) already ran in
# tier-1 above.
for seed in 7 1234 90210; do
    echo "-- CROCCO_SDC_SEED=$seed"
    (cd build-ci && CROCCO_SDC_SEED=$seed \
        ctest -R 'sdc_soak|comm_recovery' --output-on-failure)
done

echo "== CroccoCheck (Release + CROCCO_CHECK) =="
cmake -B build-ci-check -S . -DCMAKE_BUILD_TYPE=Release -DCROCCO_CHECK=ON \
      -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ci-check -j "$JOBS" >/dev/null
(cd build-ci-check && ctest -j "$JOBS" -L check --output-on-failure)

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== sanitizers (ASan + UBSan) =="
    # Debug keeps assertions on (no NDEBUG); -O1 instead of Debug's -O0
    # runs the same tests under the same sanitizers several times faster.
    cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug -DCROCCO_SANITIZE=ON \
          -DCMAKE_CXX_FLAGS_DEBUG="-g -O1" \
          -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-ci-asan -j "$JOBS" >/dev/null
    (cd build-ci-asan && ctest -j "$JOBS" -L check --output-on-failure)

    echo "== ThreadSanitizer (pooled suites) =="
    # The Array4 race detector of the check lane sees fab accesses only; a
    # race on other shared state (a lazily built BoxArray hash, a cache)
    # needs ThreadSanitizer. It runs the suites that drive the thread pool:
    # the _mt variants, the data-movement thread-count and concurrent
    # BoxArray query tests, FillPatch, and the checkpoint and rank-recovery
    # soaks. About 2.5 min to build and 5 min to run at -j4.
    cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS_DEBUG="-g -O1 -fsanitize=thread" \
          -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
          -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-ci-tsan -j "$JOBS" >/dev/null
    (cd build-ci-tsan && TSAN_OPTIONS="halt_on_error=1" ctest -j "$JOBS" \
        -R '_mt$|^(boxarray|datamove_threads|fillpatch|sgs_checkpoint|comm_recovery)_test$' \
        --output-on-failure)
fi

echo "== clean checkout (git status unchanged) =="
STATUS_AFTER=$(git status --porcelain)
if [ "$STATUS_AFTER" != "$STATUS_BEFORE" ]; then
    echo "ci: the run changed the checkout; git status before:"
    echo "$STATUS_BEFORE"
    echo "ci: and after:"
    echo "$STATUS_AFTER"
    exit 1
fi

echo "== CI OK =="

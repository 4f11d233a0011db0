#!/usr/bin/env bash
# Full CI sweep: the crocco-analyze lane (static analysis + deck-key
# registry drift), the Release tier-1 suite, the benchmark self-test, the
# CROCCO_CHECK instrumentation suite, and the sanitizer suite — each in its
# own build tree so configurations never contaminate each other.
#
#   tools/ci.sh            # run everything
#   SKIP_SANITIZE=1 tools/ci.sh   # skip the (slow) sanitizer lane
#
# Every artifact (the SARIF log) is written under build-ci/, and the last
# gate checks that the checkout is left as CI found it.
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
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS" >/dev/null
(cd build-ci && ctest --output-on-failure)

echo "== benchmark self-test (dmrbench/selftest.py, tiny sizes) =="
# Every BENCHMARK.json workload at a tiny size: each metric printed with its
# unit, every output check holding (shock position, plateau, flips
# repaired, restart bitwise, traced run bitwise equal to untraced), and a
# deliberately corrupted result counted as a failed operation.
python3 dmrbench/selftest.py

echo "== fault-injection soak (ctest -L resilience) =="
# The seeded comm-fault campaign: every fault kind injected and recovered,
# plus the mid-run rank-death soak with regrids (comm_recovery_test).
(cd build-ci && ctest -L resilience --output-on-failure)

echo "== SDC chaos lane (seed matrix over ctest -R sdc_soak) =="
# The combined chaos soak (SDC + message faults + rank death) re-run under
# several campaign seeds: every seed must drive the recovery ladder back to
# a bitwise-identical trajectory. The default seed (2026) already ran in
# the resilience lane above.
for seed in 7 1234 90210; do
    echo "-- CROCCO_SDC_SEED=$seed"
    (cd build-ci && CROCCO_SDC_SEED=$seed ctest -R sdc_soak --output-on-failure)
done

echo "== perf lane (ctest -L perf) =="
# The self-checking modeled gates (recovery_bench: buddy beats disk at 4096
# nodes; sdc_bench: zero undetected flips at interval 1, no false positives,
# < 5% detection overhead, monotone ladder waste), the comm-cache and
# thread-pool suites, and the tier-1 suites re-run at GPU_NUM_THREADS=4.
# Measured performance is dmrbench's (BENCHMARK.json).
(cd build-ci && ctest -L perf --output-on-failure)

echo "== CroccoCheck (Release + CROCCO_CHECK) =="
cmake -B build-ci-check -S . -DCMAKE_BUILD_TYPE=Release -DCROCCO_CHECK=ON \
      -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ci-check -j "$JOBS" >/dev/null
(cd build-ci-check && ctest -L check --output-on-failure)

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== sanitizers (ASan + UBSan) =="
    cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug -DCROCCO_SANITIZE=ON \
          -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-ci-asan -j "$JOBS" >/dev/null
    (cd build-ci-asan && ctest -L check --output-on-failure)
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

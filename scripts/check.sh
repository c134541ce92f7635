#!/usr/bin/env bash
# One-command verification gate for the zerodeg tree.
#
# Runs, in order:
#   1. hardened build (-DZERODEG_WERROR=ON: -Wconversion -Wshadow ... -Werror)
#      + the full ctest suite, which includes the `lint` label
#      (tools/zerodeg_lint over the tree + the checker's own unit tests)
#   2. the whole-project analyzer in the WERROR tree: include-graph layering
#      (ZD015), RNG-stream collisions (ZD016), ErrorCode discards (ZD017),
#      float reductions (ZD018), unsequenced RNG draws (ZD019), stale
#      suppressions (ZD097) — JSON findings
#      for a stable diffable failure summary, and build/include_graph.dot
#      left behind as a reviewable artifact
#   3. the `parallel` label rebuilt under ThreadSanitizer — the data-race
#      gate for the task-pool / sharded-sweep engine
#   4. the `resilience` + `chaos` + `traffic` labels rebuilt under ASan+UBSan
#      (plus float-cast-overflow, which GCC's `undefined` group leaves out;
#      every sanitizer finding is fatal) —
#      the gate for the journal/retry/error paths, the fault-injection/torture
#      machinery (crash-at-every-write-point resume, watchdog cancellation,
#      transport-fault and cross-process distributed-sweep torture) and the
#      traffic engine's bit-identical seasons — plus
#      cross-process smokes: coordinator + 2 workers over a unix socket with
#      a seeded FaultyTransport, merged journal byte-compared lossless/lossy,
#      and a lease-mode campaign where one worker is SIGKILLed permanently
#      and the survivor must absorb its lease byte-identically; and a
#      census at the held-out base seed 20110219 whose journal must be
#      byte-identical at --jobs 1 and --jobs 4 (archive verification is
#      settled in batches after the event loop)
#   5. a compose smoke: sanitizers + -Werror configured together must build
#      (sanitizer instrumentation must not be broken by the warning gate)
#   6. clang-tidy over the exported compile database, when clang-tidy exists
#   7. the perf gate, a same-host A/B: scripts/perf_pairs.py runs the
#      held-out census (base seed 20110219) on the merge base with main and
#      on the working tree and byte-compares stdout and journal, then runs
#      alternating pairs of every BENCHMARK.json workload through
#      perfbench/run.py.  It fails on any failed run or cell, and on an
#      end-to-end metric whose median pair ratio is past its BENCHMARK.json
#      bound with the tree worse in every pair, confirmed over a second
#      round of pairs (about 10 minutes)
#
# This is the sanitizer matrix PRs 1-2 documented as manual steps, made
# executable.  Every build tree is separate (build/, build-tsan/, build-asan/,
# build-asan-werror/, build-perf/) so switching configurations never causes a full rebuild
# of another.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
# UBSan findings are fatal in the sanitizer trees (-fno-sanitize-recover=all,
# CMakeLists.txt); give each one a stack trace.
export UBSAN_OPTIONS="print_stacktrace=1"
run() { echo "+ $*" >&2; "$@"; }

echo "=== [1/7] hardened warnings + full test suite ===" >&2
run cmake -B build -S . -DZERODEG_WERROR=ON
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [2/7] whole-project analyzer (layering / streams / discards) ===" >&2
run ./build/tools/zerodeg_lint --project --root . \
    --baseline tools/lint/baseline.txt \
    --graph-dot build/include_graph.dot \
    --format=json --error-on-new
echo "project analyzer: build/include_graph.dot written (render with: dot -Tsvg)" >&2

echo "=== [3/7] parallel label under ThreadSanitizer ===" >&2
run cmake -B build-tsan -S . -DZERODEG_SANITIZE=thread
run cmake --build build-tsan -j "$JOBS"
run ctest --test-dir build-tsan -L parallel --output-on-failure -j "$JOBS"

echo "=== [4/7] resilience + chaos + traffic labels under ASan+UBSan ===" >&2
run cmake -B build-asan -S . -DZERODEG_SANITIZE=address,undefined,float-cast-overflow
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan -L 'resilience|chaos|traffic' --output-on-failure -j "$JOBS"

# Distributed-torture smoke, cross-process: a real coordinator + 2 workers
# (ASan+UBSan instrumented) over a unix socket, both worker links running a
# deterministic FaultyTransport schedule.  The lossy campaign's merged
# journal must be byte-identical to a lossless one.
smoke="$(mktemp -d /tmp/zd_smoke.XXXXXX)"
trap 'rm -rf "$smoke"' EXIT
zd=./build-asan/tools/zerodeg
for mode in lossless lossy; do
    mkdir -p "$smoke/$mode"
    faults=""
    if [ "$mode" = lossy ]; then faults="--net-faults 20100219"; fi
    run "$zd" sweep --coordinator --socket "$smoke/$mode/s.sock" \
        --checkpoint "$smoke/$mode/merged.journal" --seeds 6 --synthetic \
        --idle-timeout-ms 60000 >"$smoke/$mode/coord.log" &
    coord=$!
    for w in 0 1; do
        run "$zd" sweep --worker --socket "$smoke/$mode/s.sock" \
            --checkpoint "$smoke/$mode/w$w.journal" --seeds 6 --synthetic $faults \
            >"$smoke/$mode/w$w.log" &
    done
    wait
    if kill -0 "$coord" 2>/dev/null; then
        echo "distributed smoke: coordinator still running" >&2
        exit 1
    fi
done
run cmp "$smoke/lossless/merged.journal" "$smoke/lossy/merged.journal"
echo "distributed smoke: lossy and lossless campaigns merged byte-identically" >&2

# Kill-a-worker smoke: two lease-mode workers, one SIGKILLed permanently
# mid-campaign.  Whatever the kill lands on (handshake, held lease, or after
# the victim already finished), the coordinator must not wedge: the orphaned
# lease is reassigned to the survivor and the merged journal is still
# byte-identical to the lossless run above.
mkdir -p "$smoke/killed"
run "$zd" sweep --coordinator --socket "$smoke/killed/s.sock" \
    --checkpoint "$smoke/killed/merged.journal" --seeds 6 --synthetic \
    --idle-timeout-ms 60000 >"$smoke/killed/coord.log" &
coord=$!
"$zd" sweep --worker --socket "$smoke/killed/s.sock" \
    --checkpoint "$smoke/killed/victim.journal" --seeds 6 --synthetic \
    >"$smoke/killed/victim.log" 2>&1 &
victim=$!
sleep 0.1
kill -KILL "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
run "$zd" sweep --worker --socket "$smoke/killed/s.sock" \
    --checkpoint "$smoke/killed/survivor.journal" --seeds 6 --synthetic \
    >"$smoke/killed/survivor.log"
wait "$coord"
run cmp "$smoke/lossless/merged.journal" "$smoke/killed/merged.journal"
echo "distributed smoke: campaign survived a SIGKILLed worker byte-identically" >&2

# Held-out census: archive seasons settle their corrupting runs in batches
# (four-lane MD5, touched-block forensics) after the event loop.  At a base
# seed the golden pins do not cover, the journal must not depend on --jobs.
for j in 1 4; do
    run "$zd" census --base-seed 20110219 --seeds 4 --jobs "$j" \
        --checkpoint "$smoke/held_out_j$j.journal" >"$smoke/held_out_j$j.log"
done
run cmp "$smoke/held_out_j1.journal" "$smoke/held_out_j4.journal"
echo "held-out census: --jobs 1 and --jobs 4 journals byte-identical" >&2

echo "=== [5/7] compose smoke: sanitize + werror together ===" >&2
run cmake -B build-asan-werror -S . -DZERODEG_SANITIZE=address,undefined,float-cast-overflow \
    -DZERODEG_WERROR=ON
run cmake --build build-asan-werror -j "$JOBS" --target zerodeg_core zerodeg_lint

echo "=== [6/7] clang-tidy (optional) ===" >&2
if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json was exported by step 1's configure.
    mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'tools/**/*.cpp')
    run clang-tidy -p build --quiet "${sources[@]}"
else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)" >&2
fi

echo "=== [7/7] perf gate: merge base against the tree, same host (perfbench pairs) ===" >&2
run python3 scripts/perf_pairs.py

echo "check.sh: all gates passed" >&2

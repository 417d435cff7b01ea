#!/usr/bin/env sh
# CI entry point: a check that every perf record perf/baselines/README.md
# names is present and that every perf/trajectory.jsonl row is well
# formed, tier-1 verification, an AddressSanitizer pass over
# the graph-store, GraphBLAS and dynamic-graph tests (the code most
# exposed to the zero-copy view lifetimes introduced by the GraphStore
# refactor, and the merge's offset-shifted row writes), a
# ThreadSanitizer pass over the tracing, thread-pool, serve, plan, and
# dynamic-graph tests (the code with cross-thread counter/span/queue
# traffic, and concurrent reads while mutations install generations), a
# profile-pipeline smoke run that fails on unparseable Chrome trace JSON,
# a perf-gate smoke that records a baseline, self-compares it (must
# pass), then re-runs with a fault-injected slowdown on one cell (must
# fail), a determinism tier that fingerprints every framework x kernel
# x graph cell at GM_THREADS=1 and GM_THREADS=8 and fails on any byte
# difference (the contract DESIGN.md section 13 pins), a serve smoke
# that drives the query service closed-loop (cache warm-up) with a
# mixed-width request population (lane-leased parallel execution),
# open-loop under injected overload (deadline misses + shedding), and
# through tools/serve_perf_check.sh (width-8 vs width-1 baselines must
# show zero perf_gate regressions), and a
# chaos smoke that runs serve_bench --chaos under a pinned fault storm
# and gates on the availability SLO plus full circuit-breaker
# open/half-open/closed cycles — now scraped live: gmtop hits the
# --metrics-port endpoint mid-storm (format + counter-monotonicity
# checks across two scrapes), the SLO burn monitor must fire in the
# storm and clear by the settle phase, the scraped lifetime
# availability must agree with the post-hoc SLO JSONL, and the
# disabled-telemetry probe budget is enforced via
# bench/telemetry_overhead, and a dynamic-graph smoke that re-runs the
# chaos storm with a 10% write mix (Server::mutate batches between
# queries), gating storm availability >= 99%, the monotone
# gm_dyn_generation gauge across two mid-run scrapes, and
# profile_report's consumption of the serve.mutation JSONL records
# (tabulated in a per-graph MUTATIONS table),
# and a plan smoke that re-runs the chaos storm with a 20% query-plan
# mix on top of the 10% write mix (multi-kernel DAGs through
# Server::submit_plan), gating storm availability >= 99%, plan-counter
# coherence via a mid-run gmtop --check scrape, profile_report's PLANS
# table over the serve.plan JSONL records, and the >=4x multi-source
# fusion win via bench/plan_batch perf_gated against the committed
# perf/baselines/plan_batch.jsonl.
#
#   tools/ci.sh              # from the repo root
#   BUILD_DIR=ci tools/ci.sh # custom build directory prefix
#
# Exits non-zero on the first failing step.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier 0: perf records exist and the perf history is well formed =="
missing=0
for record in $(grep -oE '[A-Za-z0-9_]+\.jsonl' perf/baselines/README.md |
    sort -u); do
    if [ ! -f "perf/baselines/$record" ]; then
        echo "perf/baselines/$record is named in the README but missing" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ]
# Every perf-history row parses and names its sha, host and medians.
python3 tools/trajectory.py check perf/trajectory.jsonl

echo "== tier 1: configure + build + full test suite =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== tier 2: AddressSanitizer build of the store/view/dyn tests =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DGM_SANITIZE=address
cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target store_test grb_test grb_ops_edge_test converter_test dyn_test
"$ASAN_DIR/tests/store_test"
"$ASAN_DIR/tests/grb_test"
"$ASAN_DIR/tests/grb_ops_edge_test"
"$ASAN_DIR/tests/converter_test"
"$ASAN_DIR/tests/dyn_test"

echo "== tier 3: ThreadSanitizer build of the obs/par/serve/dyn tests =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DGM_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target obs_test par_test par_stress_test serve_test \
    serve_resilience_test telemetry_test plan_test dyn_test
"$TSAN_DIR/tests/obs_test"
"$TSAN_DIR/tests/par_test"
"$TSAN_DIR/tests/par_stress_test"
"$TSAN_DIR/tests/serve_test"
"$TSAN_DIR/tests/serve_resilience_test"
"$TSAN_DIR/tests/telemetry_test"
"$TSAN_DIR/tests/plan_test"
"$TSAN_DIR/tests/dyn_test"

echo "== tier 4: profile pipeline smoke (suite --trace-out + validation) =="
SMOKE_DIR="$BUILD_DIR/ci-profile-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
"$BUILD_DIR/tools/suite" --scale 6 --trials 1 \
    --trace-out "$SMOKE_DIR/traces" \
    --metrics-out "$SMOKE_DIR/metrics.jsonl" \
    --csv-prefix "$SMOKE_DIR/results" > "$SMOKE_DIR/suite.log"
# Fails (exit 1) on any trace file that does not parse as JSON, and
# (exit 2) when the sweep produced no trace files at all.
"$BUILD_DIR/tools/profile_report" --check-trace "$SMOKE_DIR/traces"
"$BUILD_DIR/tools/profile_report" --metrics "$SMOKE_DIR/metrics.jsonl" \
    --csv "$SMOKE_DIR/workload.csv" > /dev/null
test -s "$SMOKE_DIR/workload.csv"

echo "== tier 5: perf-gate smoke (record, self-compare, injected regression) =="
GATE_DIR="$BUILD_DIR/ci-perf-gate"
rm -rf "$GATE_DIR"
mkdir -p "$GATE_DIR"
# 5 trials: with fewer than 4 per side Mann-Whitney cannot reach
# p < 0.05, so the gate could never flag anything (see gm/perf/gate.hh).
"$BUILD_DIR/tools/suite" --scale 6 --trials 5 --warmup 1 \
    --baseline-out "$GATE_DIR/ref.jsonl" \
    --csv-prefix "$GATE_DIR/ref" > "$GATE_DIR/ref.log"
# Self-comparison: identical trial vectors, zero regressions, exit 0.
"$BUILD_DIR/tools/perf_gate" --ref "$GATE_DIR/ref.jsonl" \
    --cand "$GATE_DIR/ref.jsonl" \
    --report-out "$GATE_DIR/self.report.jsonl"
# Inject a 150 ms sleep inside the timed region of one cell and re-run:
# the gate must spot the manufactured regression and exit non-zero.
GM_FAULTS="trial.timed.GAP.BFS.Kron:1:7:delay=150" \
    "$BUILD_DIR/tools/suite" --scale 6 --trials 5 --warmup 1 \
    --baseline-out "$GATE_DIR/slow.jsonl" \
    --csv-prefix "$GATE_DIR/slow" > "$GATE_DIR/slow.log"
if "$BUILD_DIR/tools/perf_gate" --ref "$GATE_DIR/ref.jsonl" \
    --cand "$GATE_DIR/slow.jsonl" \
    --report-out "$GATE_DIR/slow.report.jsonl" > "$GATE_DIR/gate.log"; then
    echo "perf_gate missed an injected 150 ms regression" >&2
    cat "$GATE_DIR/gate.log" >&2
    exit 1
fi
grep -q '"verdict":"regressed"' "$GATE_DIR/slow.report.jsonl"

echo "== tier 6: determinism (fingerprints at GM_THREADS=1 vs 8) =="
DET_DIR="$BUILD_DIR/ci-determinism"
rm -rf "$DET_DIR"
mkdir -p "$DET_DIR"
# Every framework x kernel x graph cell must produce a bit-identical
# result payload at any thread count; detcheck prints one FNV-1a
# fingerprint per cell, so any scheduling-dependent result shows up as
# a CSV diff.  This is the end-to-end gate on the deterministic
# parallel substrate (ordered reductions, min-combine claims, fixed
# RNG chunk grids in the generators).  --dyn appends one structure
# fingerprint per topology for the scripted gm::dyn mutation workload:
# the final post-compaction CSR generation must also be bit-identical
# across thread counts.  --plan appends one
# folded fingerprint per scripted query plan (a 70-source fused BFS
# batch with aggregations, and a mixed CC/PR/SSSP DAG with a
# per-component reduce) executed through Server::run_plan at width 8,
# pinning the plan executor's concurrent DAG scheduling to the same
# bit-identical contract.
GM_THREADS=1 "$BUILD_DIR/tools/detcheck" --scale 6 --dyn --plan \
    > "$DET_DIR/det1.csv"
GM_THREADS=8 "$BUILD_DIR/tools/detcheck" --scale 6 --dyn --plan \
    > "$DET_DIR/det8.csv"
if ! diff "$DET_DIR/det1.csv" "$DET_DIR/det8.csv"; then
    echo "kernel results differ between GM_THREADS=1 and GM_THREADS=8" >&2
    exit 1
fi
# An empty --dyn block would diff clean; require its two topology rows.
dyn_rows="$(grep -c '^dyn,structure,' "$DET_DIR/det1.csv" || true)"
if [ "$dyn_rows" -ne 2 ]; then
    echo "detcheck --dyn printed $dyn_rows dyn,structure rows, want 2" >&2
    exit 1
fi

echo "== tier 7: serve smoke (closed-loop mixed load, open-loop overload) =="
SERVE_DIR="$BUILD_DIR/ci-serve-smoke"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
# Closed loop: a mixed seeded workload must complete with zero failures
# and a warm cache (hits > 0 is guaranteed: 200 draws from 32 queries).
# The width distribution exercises the lane-budget scheduler: 70% of
# requests run width-1, 30% ask for 4 lanes, and every answer must
# still be served (identical payloads regardless of width).
"$BUILD_DIR/tools/serve_bench" --scale 6 --requests 200 --distinct 32 \
    --workers 4 --clients 8 --seed 42 --width 1:0.7,4:0.3 \
    --csv "$SERVE_DIR/closed.csv" \
    --baseline-out "$SERVE_DIR/closed.jsonl" \
    --metrics-out "$SERVE_DIR/closed_metrics.jsonl" \
    | tee "$SERVE_DIR/closed.log"
grep -q "failed=0" "$SERVE_DIR/closed.log"
grep -q "mean lanes/request" "$SERVE_DIR/closed.log"
if grep -q "cache:       0 hits" "$SERVE_DIR/closed.log"; then
    echo "serve_bench closed loop produced no cache hits" >&2
    exit 1
fi
test -s "$SERVE_DIR/closed.csv"
test -s "$SERVE_DIR/closed.jsonl"
# Open-loop overload: a 40 ms injected delay in serve.execute against a
# 2-worker / 4-slot server at 400 req/s must exercise both protective
# paths — deadline misses and queue shedding — and still exit 0.
GM_FAULTS="serve.execute:1:9:delay=40" \
    "$BUILD_DIR/tools/serve_bench" --scale 6 --requests 60 --distinct 60 \
    --workers 2 --queue 4 --open-loop --rate 400 --deadline-ms 100 \
    --cache-mb 0 --seed 42 | tee "$SERVE_DIR/open.log"
if grep -q "deadline_exceeded=0 " "$SERVE_DIR/open.log"; then
    echo "serve_bench overload exercised no deadline misses" >&2
    exit 1
fi
if grep -q " shed=0 " "$SERVE_DIR/open.log"; then
    echo "serve_bench overload shed nothing" >&2
    exit 1
fi
grep -q "failed=0" "$SERVE_DIR/open.log"
# Lane-leased execution must never cost width-1-equivalent traffic:
# records fresh width-1 vs width-8 baselines over the same seeded heavy
# workload and perf_gates them (and, on >=4-core hosts, requires a
# significant large-query improvement).  The committed reference pair
# lives in perf/baselines/.
BUILD_DIR="$BUILD_DIR" tools/serve_perf_check.sh

echo "== tier 8: chaos smoke (pinned fault storm, availability SLO) =="
CHAOS_DIR="$BUILD_DIR/ci-chaos-smoke"
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
# A pinned storm — 20% serve.execute errors, 30% cache-insert drops, and
# injected admission delays — against an allow_stale mixed-priority
# workload with a 10 ms cache TTL.  The run must (a) keep storm-phase
# availability at or above 99% (degraded answers count as available;
# serve_bench exits 4 below the floor), (b) exercise the circuit
# breakers through full open -> half-open -> closed cycles, and (c) log
# those transitions into the metrics JSONL without breaking
# profile_report.  The bench runs in the background with a live metrics
# endpoint (--metrics-port 0) so gmtop can scrape it mid-storm: two
# scrapes ~0.3 s apart must pass the structural format check and the
# counter-monotonicity check, proving the endpoint answers while the
# server is under fault load, not just at the edges.
"$BUILD_DIR/tools/serve_bench" --chaos --scale 8 --kernels BFS \
    --distinct 6 --requests 800 --clients 4 --workers 2 \
    --cache-ttl-ms 10 --think-ms 2 --seed 42 \
    --chaos-faults "serve.execute:0.2:9,serve.cache.insert:0.3:13,serve.admission:0.02:11:delay=5" \
    --min-availability 0.99 \
    --metrics-port 0 \
    --telemetry-out "$CHAOS_DIR/telemetry.jsonl" \
    --telemetry-flush-ms 100 \
    --slo-out "$CHAOS_DIR/slo.jsonl" \
    --metrics-out "$CHAOS_DIR/chaos_metrics.jsonl" \
    > "$CHAOS_DIR/chaos.log" 2>&1 &
CHAOS_PID=$!
# The port line is flushed as soon as the listener binds; poll for it.
METRICS_PORT=""
for _ in $(seq 1 100); do
    METRICS_PORT="$(sed -n \
        's/^metrics exposition on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$CHAOS_DIR/chaos.log")"
    [ -n "$METRICS_PORT" ] && break
    sleep 0.05
done
if [ -z "$METRICS_PORT" ]; then
    echo "serve_bench never announced a metrics port" >&2
    wait "$CHAOS_PID" || true
    cat "$CHAOS_DIR/chaos.log" >&2
    exit 1
fi
"$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" --check
"$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" --raw \
    > "$CHAOS_DIR/scrape1.txt"
sleep 0.3
# Second scrape: counters must only have grown since the first.
"$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --monotone-against "$CHAOS_DIR/scrape1.txt"
SCRAPED_AVAIL="$("$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --get gm_slo_availability_lifetime)"
if ! wait "$CHAOS_PID"; then
    echo "serve_bench chaos run failed" >&2
    cat "$CHAOS_DIR/chaos.log" >&2
    exit 1
fi
cat "$CHAOS_DIR/chaos.log"
grep -q "failed=0" "$CHAOS_DIR/chaos.log"
if grep -q "breaker_transitions=0 " "$CHAOS_DIR/chaos.log"; then
    echo "chaos storm opened no circuit breakers" >&2
    exit 1
fi
grep -q '"to":"open"' "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"to":"half_open"' "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"to":"closed"' "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"kind":"serve.slo","phase":"storm"' "$CHAOS_DIR/slo.jsonl"
# The SLO burn monitor must fire during the storm and have cleared by
# the settle phase, leaving firing/clear transition records behind.
grep -q "slo storm:.*firing=1" "$CHAOS_DIR/chaos.log"
grep -q "slo settle:.*firing=0" "$CHAOS_DIR/chaos.log"
grep -q '"kind":"serve.slo.burn","state":"firing"' \
    "$CHAOS_DIR/chaos_metrics.jsonl"
grep -q '"kind":"serve.slo.burn","state":"clear"' \
    "$CHAOS_DIR/chaos_metrics.jsonl"
# The periodic flusher left crash-safe telemetry snapshots behind.
grep -q '"kind":"serve.telemetry"' "$CHAOS_DIR/telemetry.jsonl"
# The availability the live endpoint reported mid-run must agree with
# what the SLO JSONL records post-hoc (same monitor, so the scrape can
# only lag it, never contradict it).
REPORTED_AVAIL="$(sed -n \
    's/.*"phase":"overall".*"availability":\([0-9.]*\).*/\1/p' \
    "$CHAOS_DIR/slo.jsonl")"
awk -v a="$SCRAPED_AVAIL" -v b="$REPORTED_AVAIL" 'BEGIN {
    d = a - b; if (d < 0) d = -d;
    if (d > 0.05) {
        printf "scraped availability %s vs slo.jsonl %s: drift > 0.05\n",
               a, b > "/dev/stderr";
        exit 1;
    }
}'
# The metrics stream (per-request records + breaker/slo side-records)
# must still be consumable by the profile pipeline, and the --slo view
# must tabulate the phase records, burn transitions, and snapshots.
"$BUILD_DIR/tools/profile_report" --metrics "$CHAOS_DIR/chaos_metrics.jsonl" \
    > /dev/null 2> "$CHAOS_DIR/report.err"
if grep -q "skipping unreadable record" "$CHAOS_DIR/report.err"; then
    echo "profile_report warned on serve side-records" >&2
    exit 1
fi
cat "$CHAOS_DIR/slo.jsonl" "$CHAOS_DIR/chaos_metrics.jsonl" \
    "$CHAOS_DIR/telemetry.jsonl" > "$CHAOS_DIR/combined.jsonl"
"$BUILD_DIR/tools/profile_report" --slo "$CHAOS_DIR/combined.jsonl" \
    > "$CHAOS_DIR/slo_report.txt"
grep -q "storm" "$CHAOS_DIR/slo_report.txt"
grep -q "BURN TRANSITIONS" "$CHAOS_DIR/slo_report.txt"
# Telemetry must be free when off: the disabled-registry probe budget
# (bench/telemetry_overhead exits non-zero above ~10 ns/op).
"$BUILD_DIR/bench/telemetry_overhead" | tail -1

echo "== tier 9: dynamic-graph smoke (chaos + write-mix, generation gauge) =="
DYN_DIR="$BUILD_DIR/ci-dyn-smoke"
rm -rf "$DYN_DIR"
mkdir -p "$DYN_DIR"
# The chaos storm re-runs with a 10% write mix: seeded mutation batches
# land between queries (Server::mutate merges each batch into a fresh
# CSR generation and installs it beside running queries, which read the
# generation they pinned, and lets generation-tagged cache entries go
# stale).  The run must
# (a) hold storm-phase availability at or above 99% even while the graph
# mutates under faults (serve_bench exits 4 below the floor), (b) expose
# a gm_dyn_generation gauge that only moves forward — scraped twice
# mid-run — and (c) leave serve.mutation records in the metrics JSONL
# that profile_report --slo tabulates without warnings.
"$BUILD_DIR/tools/serve_bench" --chaos --scale 8 --kernels CC,PR \
    --distinct 6 --requests 800 --clients 4 --workers 2 \
    --cache-ttl-ms 10 --think-ms 2 --seed 42 --write-mix 0.1 \
    --min-availability 0.99 \
    --metrics-port 0 \
    --metrics-out "$DYN_DIR/dyn_metrics.jsonl" \
    > "$DYN_DIR/dyn.log" 2>&1 &
DYN_PID=$!
METRICS_PORT=""
for _ in $(seq 1 100); do
    METRICS_PORT="$(sed -n \
        's/^metrics exposition on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$DYN_DIR/dyn.log")"
    [ -n "$METRICS_PORT" ] && break
    sleep 0.05
done
if [ -z "$METRICS_PORT" ]; then
    echo "serve_bench never announced a metrics port" >&2
    wait "$DYN_PID" || true
    cat "$DYN_DIR/dyn.log" >&2
    exit 1
fi
# Two scrapes of the generation gauge ~0.4 s apart: an install can
# only ever advance it, so the second sample must not be smaller.
GEN1="$("$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --get gm_dyn_generation)"
sleep 0.4
GEN2="$("$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" \
    --get gm_dyn_generation)"
awk -v a="$GEN1" -v b="$GEN2" 'BEGIN {
    if (b + 0 < a + 0) {
        printf "gm_dyn_generation went backwards: %s -> %s\n",
               a, b > "/dev/stderr";
        exit 1;
    }
}'
if ! wait "$DYN_PID"; then
    echo "serve_bench write-mix chaos run failed" >&2
    cat "$DYN_DIR/dyn.log" >&2
    exit 1
fi
cat "$DYN_DIR/dyn.log"
grep -q "failed=0" "$DYN_DIR/dyn.log"
# The write mix must actually have mutated (applied= with a non-zero
# count) and every batch must have succeeded.
grep -q "mutations:   applied=" "$DYN_DIR/dyn.log"
if grep -q "mutations:   applied=0 " "$DYN_DIR/dyn.log"; then
    echo "write-mix run applied no mutations" >&2
    exit 1
fi
grep -q " failed=0 inserted_arcs=" "$DYN_DIR/dyn.log"
# The finished run's generation must be ahead of (or equal to) the last
# mid-run scrape, and mutation records must be in the stream.
grep -q '"kind":"serve.mutation"' "$DYN_DIR/dyn_metrics.jsonl"
"$BUILD_DIR/tools/profile_report" --slo "$DYN_DIR/dyn_metrics.jsonl" \
    > "$DYN_DIR/dyn_report.txt"
grep -q "MUTATIONS" "$DYN_DIR/dyn_report.txt"
# The per-request records still feed the workload table cleanly.
"$BUILD_DIR/tools/profile_report" --metrics "$DYN_DIR/dyn_metrics.jsonl" \
    > /dev/null 2> "$DYN_DIR/report.err"
if grep -q "skipping unreadable record" "$DYN_DIR/report.err"; then
    echo "profile_report warned on serve.mutation records" >&2
    exit 1
fi

echo "== tier 10: plan smoke (chaos + plan mix, fusion perf gate) =="
PLAN_DIR="$BUILD_DIR/ci-plan-smoke"
rm -rf "$PLAN_DIR"
mkdir -p "$PLAN_DIR"
# The chaos storm re-runs with a 20% query-plan mix on top of the 10%
# write mix: seeded multi-kernel DAGs (fused BFS batches, histogram /
# top-k aggregations, per-component reduces) flow through
# Server::submit_plan between point queries and mutation batches.  The
# run must (a) hold storm-phase availability at or above 99% with plan
# failures counting against the SLO (serve_bench exits 4 below the
# floor, 3 on any plan failure), (b) pass gmtop --check's gm_plan_*
# accounting coherence on a mid-run scrape, and (c) leave serve.plan
# records in the metrics JSONL that profile_report --slo tabulates as a
# PLANS table without warnings.
"$BUILD_DIR/tools/serve_bench" --chaos --scale 8 --kernels BFS,CC,PR \
    --distinct 6 --requests 800 --clients 4 --workers 2 \
    --cache-ttl-ms 10 --think-ms 2 --seed 42 --write-mix 0.1 \
    --plan-mix 0.2 \
    --min-availability 0.99 \
    --metrics-port 0 \
    --metrics-out "$PLAN_DIR/plan_metrics.jsonl" \
    > "$PLAN_DIR/plan.log" 2>&1 &
PLAN_PID=$!
METRICS_PORT=""
for _ in $(seq 1 100); do
    METRICS_PORT="$(sed -n \
        's/^metrics exposition on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$PLAN_DIR/plan.log")"
    [ -n "$METRICS_PORT" ] && break
    sleep 0.05
done
if [ -z "$METRICS_PORT" ]; then
    echo "serve_bench never announced a metrics port" >&2
    wait "$PLAN_PID" || true
    cat "$PLAN_DIR/plan.log" >&2
    exit 1
fi
# Mid-run scrape: structural format check plus the plan-accounting
# coherence invariants (completed/failed within submitted, node
# outcomes within nodes_total, bounded inflight gauge).
"$BUILD_DIR/tools/gmtop" --port "$METRICS_PORT" --check \
    | tee "$PLAN_DIR/check.log"
if ! wait "$PLAN_PID"; then
    echo "serve_bench plan-mix chaos run failed" >&2
    cat "$PLAN_DIR/plan.log" >&2
    exit 1
fi
cat "$PLAN_DIR/plan.log"
grep -q "failed=0" "$PLAN_DIR/plan.log"
# The plan mix must actually have submitted plans, all successfully,
# and the fused batches must have collapsed sources into shared sweeps.
grep -q "plans:       submitted=" "$PLAN_DIR/plan.log"
if grep -q "plans:       submitted=0 " "$PLAN_DIR/plan.log"; then
    echo "plan-mix run submitted no plans" >&2
    exit 1
fi
grep -q "plans:       submitted=[0-9]* ok=[0-9]* failed=0 " \
    "$PLAN_DIR/plan.log"
if grep -q " sources_fused=0$" "$PLAN_DIR/plan.log"; then
    echo "plan-mix run fused no multi-source batches" >&2
    exit 1
fi
# serve.plan records feed the SLO view's PLANS table cleanly.
grep -q '"kind":"serve.plan"' "$PLAN_DIR/plan_metrics.jsonl"
"$BUILD_DIR/tools/profile_report" --slo "$PLAN_DIR/plan_metrics.jsonl" \
    > "$PLAN_DIR/plan_report.txt"
grep -q "PLANS" "$PLAN_DIR/plan_report.txt"
"$BUILD_DIR/tools/profile_report" --metrics "$PLAN_DIR/plan_metrics.jsonl" \
    > /dev/null 2> "$PLAN_DIR/report.err"
if grep -q "skipping unreadable record" "$PLAN_DIR/report.err"; then
    echo "profile_report warned on serve.plan records" >&2
    exit 1
fi
# The headline fusion win: a 64-source fused BFS batch must beat 64
# sequential single-source plans by >=4x through the same executor,
# with every fused slice verified bit-identical (exit 2 on divergence,
# exit 4 below the floor), and the fresh timings must show no
# regression against the committed reference baseline.
"$BUILD_DIR/bench/plan_batch" --out "$PLAN_DIR/plan_batch.jsonl" | tail -5
"$BUILD_DIR/tools/perf_gate" --ref perf/baselines/plan_batch.jsonl \
    --cand "$PLAN_DIR/plan_batch.jsonl" \
    --report-out "$PLAN_DIR/plan_batch.report.jsonl"

echo "== ci.sh: all green =="

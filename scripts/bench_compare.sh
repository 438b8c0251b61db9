#!/bin/sh
# bench_compare.sh — benchmark the working tree, optionally against a
# baseline git ref, and feed both runs to benchstat when it is installed
# (raw outputs are printed otherwise; nothing is downloaded).
#
# Usage:
#   scripts/bench_compare.sh [-r ref] [-c count] [-p pattern] [-s] [-S] [-B] [-M] [-P] [-C] [-W]
#
#   -r ref      baseline git ref to compare against (default: no baseline,
#               bench the working tree only)
#   -c count    benchmark repetitions per side (default 5)
#   -p pattern  -bench regexp (default: every benchmark)
#   -s          smoke mode: one iteration of the matched benchmarks under
#               the race detector at -cpu 1,2, so the parallel generation,
#               solve, sweep, and simulation paths run both the degenerate
#               and a multi-worker schedule in CI. No baseline, no timing.
#   -S          sweep-reuse mode: time the BenchmarkSweepReuseFresh /
#               BenchmarkSweepReuseRebind pair (same six-point Fig. 3
#               timeout sweep, per-point pipeline vs generate-once rebind)
#               and write results/BENCH_sweepreuse.json with the median
#               ns/op of each side and the per-point speedup ratio.
#   -B          batch-solve mode: time the BenchmarkBatchSolve* six
#               (16-point sweep on the rpc and streaming chains: rebind +
#               per-point solve, per-point with the cached plan, and the
#               batched eight-lane SolveBatch) and write
#               results/BENCH_batchsolve.json with the median ns/op of
#               each variant and the per-model and aggregate speedups of
#               the batched kernel over the per-point path.
#   -M          multilevel-solver mode: time the BenchmarkMultilevel*
#               family (the ε-coupled two-cluster chain under Gauss-
#               Seidel and the multilevel IAD cycle, the
#               rpc and streaming study chains under Gauss-Seidel vs
#               multilevel, and the 8-lane batched ε sweep) and write
#               results/BENCH_multilevel.json with the median ns/op and
#               iteration counts of every scheme and the iteration and
#               wall-clock reductions of the multilevel cycle.
#   -C          compositional-minimization mode: time the BenchmarkCompose*
#               six (full parallel-product generation vs component lumping
#               plus fold on the rpc model, the streaming model, and the
#               10×-buffer streaming variant whose full product is ~2.7M
#               states) and write results/BENCH_compose.json with the
#               median ns/op, composed state and edge counts of each side,
#               and the per-model speedup and state/edge reductions.
#   -P          pipeline-session mode: time the BenchmarkPipeline* six
#               (the Phase2 question on both study models asked cold — a
#               fresh ephemeral session, full build+generate+solve — vs
#               warm — a re-opened handle on a staged Manager session —
#               vs cache-hit — a cold session answering from a populated
#               ResultCache) and write results/BENCH_pipeline.json with
#               the median ns/op of each variant and the warm and
#               cache-hit speedups over cold per model.
#   -W          weak-bisimulation mode (requires -r): time BenchmarkWeakBisim
#               (the Quick-scale streaming noninterference pair, buffer
#               capacity 2) and BenchmarkWeakBisimFull (the paper's
#               Sect. 3.2 pair, capacity 10) on the working tree and on
#               the baseline ref, and write results/BENCH_weakbisim.json
#               with the median ns/op, B/op and allocs/op of each side,
#               the input and quotient state counts, and the speedup and
#               allocation reduction. The ref is exported with git archive
#               and runs the working tree's bench_test.go, so both sides
#               time identical benchmark code.
set -eu
cd "$(dirname "$0")/.."

ref=""
count=5
pattern="."
smoke=0
sweepjson=0
batchjson=0
mljson=0
pipejson=0
compjson=0
weakjson=0
while getopts "r:c:p:sSBMPCW" opt; do
    case "$opt" in
    r) ref=$OPTARG ;;
    c) count=$OPTARG ;;
    p) pattern=$OPTARG ;;
    s) smoke=1 ;;
    S) sweepjson=1 ;;
    B) batchjson=1 ;;
    M) mljson=1 ;;
    P) pipejson=1 ;;
    C) compjson=1 ;;
    W) weakjson=1 ;;
    *) echo "usage: $0 [-r ref] [-c count] [-p pattern] [-s] [-S] [-B] [-M] [-P] [-C] [-W]" >&2; exit 2 ;;
    esac
done

if [ "$smoke" = 1 ]; then
    # -timeout 30m: one race-instrumented iteration of the solver benches
    # can exceed go test's default 10m on a small CI box.
    exec go test -race -run '^$' -bench "$pattern" -benchtime 1x -cpu 1,2 -timeout 30m ./...
fi

if [ "$sweepjson" = 1 ]; then
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    benchtime=10x
    echo "== bench: sweep reuse (benchtime $benchtime, count $count) =="
    go test -run '^$' -bench 'SweepReuse(Fresh|Rebind)$' -benchtime "$benchtime" \
        -count "$count" . | tee "$out"
    median() {
        awk -v name="$1" '$1 == "Benchmark"name {print $3}' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    fresh=$(median SweepReuseFresh)
    rebind=$(median SweepReuseRebind)
    cpu=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$out")
    mkdir -p results
    awk -v fresh="$fresh" -v rebind="$rebind" -v cpu="$cpu" \
        -v cores="$(getconf _NPROCESSORS_ONLN)" \
        -v go="$(go env GOVERSION)" -v os="$(go env GOOS)/$(go env GOARCH)" \
        -v benchtime="$benchtime, count $count (median reported)" 'BEGIN {
        printf "{\n"
        printf "  \"description\": \"Per-point cost of a Markovian rate sweep, before vs after the rate-parametric sweep engine. Both benchmarks run the same six-point Fig. 3 shutdown-timeout sweep on the revised rpc model: Fresh runs the full generate+build+solve pipeline per point (the pre-engine behaviour), Rebind generates and builds once, rewrites only the rate values per point (ctmc.Rebind, O(edges)) and warm-starts each solve from the anchor point solution (pipeline.Session.Sweep). Elaboration is outside the timer on both sides. Equal points per iteration, so the ns/op ratio is the per-point speedup; the rebound chains and the sweep outputs are pinned bit-identical/within solver tolerance by tests, so the delta is pure wall-clock.\",\n"
        printf "  \"environment\": {\n"
        printf "    \"cpu\": \"%s\",\n", cpu
        printf "    \"cores\": %d,\n", cores
        printf "    \"go\": \"%s\",\n", go
        printf "    \"os\": \"%s\"\n", os
        printf "  },\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"sweep\": \"rpc revised model, shutdown timeouts {0.5, 1, 2, 5, 10, 25}, 6 points per op\",\n"
        printf "  \"fresh_ns_per_op\": %d,\n", fresh
        printf "  \"rebind_ns_per_op\": %d,\n", rebind
        printf "  \"per_point_speedup\": %.2f\n", fresh / rebind
        printf "}\n"
    }' > results/BENCH_sweepreuse.json
    echo "== results/BENCH_sweepreuse.json =="
    cat results/BENCH_sweepreuse.json
    exit 0
fi

if [ "$batchjson" = 1 ]; then
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    benchtime=5x
    echo "== bench: batched solver (benchtime $benchtime, count $count) =="
    go test -run '^$' -bench 'BatchSolve(RPC|Streaming)(PerPoint|CachedPoint|Batched)$' \
        -benchtime "$benchtime" -count "$count" . | tee "$out"
    median() {
        awk -v name="$1" '$1 == "Benchmark"name {print $3}' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    rpc_pp=$(median BatchSolveRPCPerPoint)
    rpc_cp=$(median BatchSolveRPCCachedPoint)
    rpc_b=$(median BatchSolveRPCBatched)
    str_pp=$(median BatchSolveStreamingPerPoint)
    str_cp=$(median BatchSolveStreamingCachedPoint)
    str_b=$(median BatchSolveStreamingBatched)
    cpu=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$out")
    mkdir -p results
    awk -v rpc_pp="$rpc_pp" -v rpc_cp="$rpc_cp" -v rpc_b="$rpc_b" \
        -v str_pp="$str_pp" -v str_cp="$str_cp" -v str_b="$str_b" \
        -v cpu="$cpu" -v cores="$(getconf _NPROCESSORS_ONLN)" \
        -v go="$(go env GOVERSION)" -v os="$(go env GOOS)/$(go env GOARCH)" \
        -v benchtime="$benchtime, count $count (median reported)" 'BEGIN {
        printf "{\n"
        printf "  \"description\": \"Cost of a 16-point Markovian rate sweep, per-point solves vs the batched multi-lane kernel. All variants solve the same 16 points on the same prebuilt chain, every lane warm-started from the anchor-point solution, and are pinned bit-identical by the property tests. per_point re-runs the PR 5 path per point: invalidate the cached solve plan, Rebind, solo SteadyState. cached_point keeps the solve-plan cache (this PR) but still solves points one at a time. batched solves the points in eight-lane SolveBatch calls: one CSR traversal per sweep feeds all lanes (vectorized on amd64), finished lanes deactivate and the batch compacts to narrower kernels. Ratios are per-model ns/op quotients; the aggregate is total per-point time over total batched time across both models.\",\n"
        printf "  \"environment\": {\n"
        printf "    \"cpu\": \"%s\",\n", cpu
        printf "    \"cores\": %d,\n", cores
        printf "    \"go\": \"%s\",\n", go
        printf "    \"os\": \"%s\"\n", os
        printf "  },\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"sweep\": \"16 points, 8 lanes per SolveBatch call, tolerance 1e-12\",\n"
        printf "  \"rpc\": {\n"
        printf "    \"model\": \"revised rpc, parametric shutdown timeout\",\n"
        printf "    \"per_point_ns_per_op\": %d,\n", rpc_pp
        printf "    \"cached_point_ns_per_op\": %d,\n", rpc_cp
        printf "    \"batched_ns_per_op\": %d,\n", rpc_b
        printf "    \"speedup_vs_per_point\": %.2f,\n", rpc_pp / rpc_b
        printf "    \"speedup_vs_cached_point\": %.2f\n", rpc_cp / rpc_b
        printf "  },\n"
        printf "  \"streaming\": {\n"
        printf "    \"model\": \"streaming, parametric awake period\",\n"
        printf "    \"per_point_ns_per_op\": %d,\n", str_pp
        printf "    \"cached_point_ns_per_op\": %d,\n", str_cp
        printf "    \"batched_ns_per_op\": %d,\n", str_b
        printf "    \"speedup_vs_per_point\": %.2f,\n", str_pp / str_b
        printf "    \"speedup_vs_cached_point\": %.2f\n", str_cp / str_b
        printf "  },\n"
        printf "  \"aggregate_speedup_vs_per_point\": %.2f\n", (rpc_pp + str_pp) / (rpc_b + str_b)
        printf "}\n"
    }' > results/BENCH_batchsolve.json
    echo "== results/BENCH_batchsolve.json =="
    cat results/BENCH_batchsolve.json
    exit 0
fi

if [ "$mljson" = 1 ]; then
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    benchtime=5x
    echo "== bench: multilevel solver (benchtime $benchtime, count $count) =="
    # -timeout 30m: the batched Gauss-Seidel reference alone grinds for
    # minutes at count 5 on a small CI box.
    go test -run '^$' -bench 'Multilevel(Eps(GaussSeidel|Multilevel)|(RPC|Streaming)(GaussSeidel|Multilevel)|EpsBatched(GaussSeidel|Multilevel))$' \
        -benchtime "$benchtime" -count "$count" -timeout 30m . | tee "$out"
    median() {
        awk -v name="$1" '$1 == "Benchmark"name {print $3}' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    # metric pulls a b.ReportMetric value (the field preceding its unit:
    # "... 180935 iters/op"); multilevel rows also carry cycles/op, so the
    # column position varies and a fixed-field awk would misread it.
    metric() {
        awk -v name="$1" -v unit="$2" '$1 == "Benchmark"name {
            for (i = 4; i <= NF; i++) if ($i == unit) print $(i-1)
        }' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    eps_gs=$(median MultilevelEpsGaussSeidel)
    eps_ml=$(median MultilevelEpsMultilevel)
    eps_gs_it=$(metric MultilevelEpsGaussSeidel "iters/op")
    eps_ml_it=$(metric MultilevelEpsMultilevel "iters/op")
    eps_ml_cy=$(metric MultilevelEpsMultilevel "cycles/op")
    rpc_gs=$(median MultilevelRPCGaussSeidel)
    rpc_ml=$(median MultilevelRPCMultilevel)
    rpc_gs_it=$(metric MultilevelRPCGaussSeidel "iters/op")
    rpc_ml_it=$(metric MultilevelRPCMultilevel "iters/op")
    str_gs=$(median MultilevelStreamingGaussSeidel)
    str_ml=$(median MultilevelStreamingMultilevel)
    str_gs_it=$(metric MultilevelStreamingGaussSeidel "iters/op")
    str_ml_it=$(metric MultilevelStreamingMultilevel "iters/op")
    bat_gs=$(median MultilevelEpsBatchedGaussSeidel)
    bat_ml=$(median MultilevelEpsBatchedMultilevel)
    cpu=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$out")
    mkdir -p results
    awk -v eps_gs="$eps_gs" -v eps_ml="$eps_ml" \
        -v eps_gs_it="$eps_gs_it" \
        -v eps_ml_it="$eps_ml_it" -v eps_ml_cy="$eps_ml_cy" \
        -v rpc_gs="$rpc_gs" -v rpc_ml="$rpc_ml" \
        -v rpc_gs_it="$rpc_gs_it" -v rpc_ml_it="$rpc_ml_it" \
        -v str_gs="$str_gs" -v str_ml="$str_ml" \
        -v str_gs_it="$str_gs_it" -v str_ml_it="$str_ml_it" \
        -v bat_gs="$bat_gs" -v bat_ml="$bat_ml" \
        -v cpu="$cpu" -v cores="$(getconf _NPROCESSORS_ONLN)" \
        -v go="$(go env GOVERSION)" -v os="$(go env GOOS)/$(go env GOARCH)" \
        -v benchtime="$benchtime, count $count (median reported)" 'BEGIN {
        printf "{\n"
        printf "  \"description\": \"Work to converge one steady-state solve, point sweeps vs the multilevel aggregation/disaggregation cycle. epsilon is the two-cluster ε-coupled birth-death chain (80 states, ε = 1e-3, tolerance 1e-10), the near-completely-decomposable regime the multilevel solver targets: iters_per_op counts fine-level sweeps of the converged attempt, cycles_per_op the outer IAD cycles. rpc and streaming are the study chains at their default points (tolerance 1e-12): multilevel cuts iterations there too, but the exact coarse solve per cycle costs more wall-clock than the cheap fast-mixing fine sweeps it saves — reported honestly; the win condition is the decomposable regime, not these. batched_epsilon sweeps 8 couplings spanning one decade in one 8-lane SolveBatch call (tolerance 1e-10): the slowest lane needs ~10x the sweeps of the fastest, and the equalized multilevel cycles collapse exactly that skew. All schemes produce identical results within solver tolerance, pinned by the ctmc tests; multilevel output is additionally pinned bit-identical at any lane count.\",\n"
        printf "  \"environment\": {\n"
        printf "    \"cpu\": \"%s\",\n", cpu
        printf "    \"cores\": %d,\n", cores
        printf "    \"go\": \"%s\",\n", go
        printf "    \"os\": \"%s\"\n", os
        printf "  },\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"epsilon\": {\n"
        printf "    \"model\": \"two 40-state birth-death clusters bridged by rate-1e-3 edges, tolerance 1e-10\",\n"
        printf "    \"gauss_seidel\": { \"ns_per_op\": %.0f, \"iters_per_op\": %d },\n", eps_gs, eps_gs_it
        printf "    \"multilevel\": { \"ns_per_op\": %.0f, \"iters_per_op\": %d, \"cycles_per_op\": %d },\n", eps_ml, eps_ml_it, eps_ml_cy
        printf "    \"iteration_reduction_vs_gauss_seidel\": %.0f,\n", eps_gs_it / eps_ml_it
        printf "    \"wall_clock_speedup_vs_gauss_seidel\": %.1f\n", eps_gs / eps_ml
        printf "  },\n"
        printf "  \"rpc\": {\n"
        printf "    \"model\": \"revised rpc, first sweep point, tolerance 1e-12\",\n"
        printf "    \"gauss_seidel\": { \"ns_per_op\": %.0f, \"iters_per_op\": %d },\n", rpc_gs, rpc_gs_it
        printf "    \"multilevel\": { \"ns_per_op\": %.0f, \"iters_per_op\": %d },\n", rpc_ml, rpc_ml_it
        printf "    \"iteration_reduction_vs_gauss_seidel\": %.2f,\n", rpc_gs_it / rpc_ml_it
        printf "    \"wall_clock_speedup_vs_gauss_seidel\": %.2f\n", rpc_gs / rpc_ml
        printf "  },\n"
        printf "  \"streaming\": {\n"
        printf "    \"model\": \"streaming, default awake period, tolerance 1e-12\",\n"
        printf "    \"gauss_seidel\": { \"ns_per_op\": %.0f, \"iters_per_op\": %d },\n", str_gs, str_gs_it
        printf "    \"multilevel\": { \"ns_per_op\": %.0f, \"iters_per_op\": %d },\n", str_ml, str_ml_it
        printf "    \"iteration_reduction_vs_gauss_seidel\": %.2f,\n", str_gs_it / str_ml_it
        printf "    \"wall_clock_speedup_vs_gauss_seidel\": %.2f\n", str_gs / str_ml
        printf "  },\n"
        printf "  \"batched_epsilon\": {\n"
        printf "    \"model\": \"8 couplings 1e-3..1e-4 in one 8-lane SolveBatch, tolerance 1e-10\",\n"
        printf "    \"gauss_seidel_ns_per_op\": %.0f,\n", bat_gs
        printf "    \"multilevel_ns_per_op\": %.0f,\n", bat_ml
        printf "    \"wall_clock_speedup\": %.0f\n", bat_gs / bat_ml
        printf "  }\n"
        printf "}\n"
    }' > results/BENCH_multilevel.json
    echo "== results/BENCH_multilevel.json =="
    cat results/BENCH_multilevel.json
    exit 0
fi

if [ "$pipejson" = 1 ]; then
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    benchtime=5x
    echo "== bench: pipeline sessions (benchtime $benchtime, count $count) =="
    go test -run '^$' -bench 'Pipeline(RPC|Streaming)(Cold|Warm|CacheHit)$' \
        -benchtime "$benchtime" -count "$count" . | tee "$out"
    median() {
        awk -v name="$1" '$1 == "Benchmark"name {print $3}' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    rpc_cold=$(median PipelineRPCCold)
    rpc_warm=$(median PipelineRPCWarm)
    rpc_hit=$(median PipelineRPCCacheHit)
    str_cold=$(median PipelineStreamingCold)
    str_warm=$(median PipelineStreamingWarm)
    str_hit=$(median PipelineStreamingCacheHit)
    cpu=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$out")
    mkdir -p results
    awk -v rpc_cold="$rpc_cold" -v rpc_warm="$rpc_warm" -v rpc_hit="$rpc_hit" \
        -v str_cold="$str_cold" -v str_warm="$str_warm" -v str_hit="$str_hit" \
        -v cpu="$cpu" -v cores="$(getconf _NPROCESSORS_ONLN)" \
        -v go="$(go env GOVERSION)" -v os="$(go env GOOS)/$(go env GOARCH)" \
        -v benchtime="$benchtime, count $count (median reported)" 'BEGIN {
        printf "{\n"
        printf "  \"description\": \"Cost of one exact Markovian Phase2 answer through the session/handle layer, on both study models. cold runs a fresh ephemeral session per op: build the architectural description, elaborate, generate the state space, build the chain, solve, evaluate the measures — what a one-shot CLI invocation pays. warm re-opens a handle on an already-staged Manager session per op: the spec is content-hashed and interned onto the shared state, so the op costs one SHA-256 of the spec plus a deep clone of the staged report. cache_hit runs a cold session state per op against a populated ResultCache: one spec hash plus a store lookup and clone, no staged artifacts at all — what a re-run with a persistent store would pay. All three paths return deep-equal reports (pinned by the pipeline tests), so the ratios are pure reuse savings.\",\n"
        printf "  \"environment\": {\n"
        printf "    \"cpu\": \"%s\",\n", cpu
        printf "    \"cores\": %d,\n", cores
        printf "    \"go\": \"%s\",\n", go
        printf "    \"os\": \"%s\"\n", os
        printf "  },\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"rpc\": {\n"
        printf "    \"model\": \"revised rpc, default parameters\",\n"
        printf "    \"cold_ns_per_op\": %d,\n", rpc_cold
        printf "    \"warm_ns_per_op\": %d,\n", rpc_warm
        printf "    \"cache_hit_ns_per_op\": %d,\n", rpc_hit
        printf "    \"warm_speedup_vs_cold\": %.0f,\n", rpc_cold / rpc_warm
        printf "    \"cache_hit_speedup_vs_cold\": %.0f\n", rpc_cold / rpc_hit
        printf "  },\n"
        printf "  \"streaming\": {\n"
        printf "    \"model\": \"streaming, default parameters (~50k states)\",\n"
        printf "    \"cold_ns_per_op\": %d,\n", str_cold
        printf "    \"warm_ns_per_op\": %d,\n", str_warm
        printf "    \"cache_hit_ns_per_op\": %d,\n", str_hit
        printf "    \"warm_speedup_vs_cold\": %.0f,\n", str_cold / str_warm
        printf "    \"cache_hit_speedup_vs_cold\": %.0f\n", str_cold / str_hit
        printf "  }\n"
        printf "}\n"
    }' > results/BENCH_pipeline.json
    echo "== results/BENCH_pipeline.json =="
    cat results/BENCH_pipeline.json
    exit 0
fi

if [ "$compjson" = 1 ]; then
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    benchtime=1x
    echo "== bench: compositional minimization (benchtime $benchtime, count $count) =="
    # -timeout 60m: one full-product generation of the 10×-buffer
    # streaming variant alone takes ~80s on a small CI box, and it runs
    # count times.
    go test -run '^$' -bench 'Compose(RPC|Streaming|Streaming10x)(Full|Minimized)$' \
        -benchtime "$benchtime" -count "$count" -timeout 60m . | tee "$out"
    median() {
        awk -v name="$1" '$1 == "Benchmark"name {print $3}' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    # metric pulls a b.ReportMetric value (the field preceding its unit:
    # "... 38016 states/op"); the rows also carry edges/op and B/op, so
    # the column position varies and a fixed-field awk would misread it.
    metric() {
        awk -v name="$1" -v unit="$2" '$1 == "Benchmark"name {
            for (i = 4; i <= NF; i++) if ($i == unit) print $(i-1)
        }' "$out" |
            sort -n | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    emit_model() {
        name=$1
        full_ns=$(median "Compose${name}Full")
        min_ns=$(median "Compose${name}Minimized")
        full_st=$(metric "Compose${name}Full" "states/op")
        min_st=$(metric "Compose${name}Minimized" "states/op")
        full_ed=$(metric "Compose${name}Full" "edges/op")
        min_ed=$(metric "Compose${name}Minimized" "edges/op")
        awk -v full_ns="$full_ns" -v min_ns="$min_ns" \
            -v full_st="$full_st" -v min_st="$min_st" \
            -v full_ed="$full_ed" -v min_ed="$min_ed" 'BEGIN {
            printf "    \"full\": { \"ns_per_op\": %.0f, \"states\": %d, \"edges\": %d },\n", full_ns, full_st, full_ed
            printf "    \"minimized\": { \"ns_per_op\": %.0f, \"states\": %d, \"edges\": %d },\n", min_ns, min_st, min_ed
            printf "    \"state_reduction\": %.1f,\n", full_st / min_st
            printf "    \"edge_reduction\": %.1f,\n", full_ed / min_ed
            printf "    \"wall_clock_speedup\": %.1f\n", full_ns / min_ns
        }'
    }
    cpu=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$out")
    mkdir -p results
    {
        awk -v cpu="$cpu" -v cores="$(getconf _NPROCESSORS_ONLN)" \
            -v go="$(go env GOVERSION)" -v os="$(go env GOOS)/$(go env GOARCH)" \
            -v benchtime="$benchtime, count $count (median reported)" 'BEGIN {
            printf "{\n"
            printf "  \"description\": \"Cost of composing a Markovian state space, full parallel product vs compositional minimization. Full generates the plain product of the architectural description. Minimized lumps each component instance first (ordinary-lumpability partition refinement of its reachable local configuration graph, initial partition keyed by enabled-interaction signature) and generates from the composed quotient with vanishing-state folding, so the full product never materializes. The composed state/edge counts of each side are reported by the benchmarks themselves; every analysis measure is identical on both paths (pinned within 1e-6 by the golden minimize test, bit-identical across worker/lane counts). rpc and streaming are the paper models at their default parameters; streaming_10x raises both stream buffers to 100 frames, the regime where the full product (~2.7M states) dwarfs the quotient and the reduction pays for the lumping many times over.\",\n"
            printf "  \"environment\": {\n"
            printf "    \"cpu\": \"%s\",\n", cpu
            printf "    \"cores\": %d,\n", cores
            printf "    \"go\": \"%s\",\n", go
            printf "    \"os\": \"%s\"\n", os
            printf "  },\n"
            printf "  \"benchtime\": \"%s\",\n", benchtime
            printf "  \"rpc\": {\n"
            printf "    \"model\": \"revised rpc, default parameters\",\n"
        }'
        emit_model RPC
        printf '  },\n  "streaming": {\n    "model": "streaming, default 10-frame buffers",\n'
        emit_model Streaming
        printf '  },\n  "streaming_10x": {\n    "model": "streaming, 100-frame AP and client buffers",\n'
        emit_model Streaming10x
        printf '  }\n}\n'
    } > results/BENCH_compose.json
    echo "== results/BENCH_compose.json =="
    cat results/BENCH_compose.json
    exit 0
fi

if [ "$weakjson" = 1 ]; then
    if [ -z "$ref" ]; then
        echo "-W needs a baseline: -r ref" >&2
        exit 2
    fi
    new_out=$(mktemp)
    old_out=$(mktemp)
    base=$(mktemp -d)
    trap 'rm -rf "$new_out" "$old_out" "$base"' EXIT
    benchtime=3x
    # -timeout 60m: before the branching quotient one Full check took ~9 s,
    # and a side runs it benchtime+1 times per count.
    wbench() {
        go test -run '^$' -bench '^BenchmarkWeakBisim(Full)?$' -benchmem \
            -benchtime "$benchtime" -count "$count" -timeout 60m .
    }
    echo "== bench: weak bisimulation, working tree (benchtime $benchtime, count $count) =="
    wbench | tee "$new_out"
    git archive "$ref" | tar -x -C "$base"
    cp bench_test.go "$base/bench_test.go"
    echo "== bench: weak bisimulation, $ref =="
    (cd "$base" && wbench) | tee "$old_out"
    # metric prints the median of the value preceding unit on the rows of
    # one benchmark (its -N GOMAXPROCS suffix stripped).
    metric() {
        awk -v name="Benchmark$2" -v unit="$3" '{ sub(/-[0-9]+$/, "", $1) }
            $1 == name { for (i = 3; i <= NF; i++) if ($i == unit) print $(i-1) }' "$1" |
            sort -g | awk '{v[NR]=$1} END {
                if (NR == 0) { print "error: no samples" > "/dev/stderr"; exit 1 }
                print v[int((NR+1)/2)]
            }'
    }
    emit_pair() {
        awk -v new_ns="$(metric "$new_out" "$1" ns/op)" \
            -v old_ns="$(metric "$old_out" "$1" ns/op)" \
            -v new_b="$(metric "$new_out" "$1" B/op)" \
            -v old_b="$(metric "$old_out" "$1" B/op)" \
            -v new_a="$(metric "$new_out" "$1" allocs/op)" \
            -v old_a="$(metric "$old_out" "$1" allocs/op)" \
            -v states="$(metric "$new_out" "$1" states/op)" \
            -v qstates="$(metric "$new_out" "$1" quotient-states/op)" 'BEGIN {
            printf "    \"states\": %d,\n", states
            printf "    \"quotient_states\": %d,\n", qstates
            printf "    \"baseline\": { \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f },\n", old_ns, old_b, old_a
            printf "    \"change\": { \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f },\n", new_ns, new_b, new_a
            printf "    \"speedup\": %.1f,\n", old_ns / new_ns
            printf "    \"alloc_reduction\": %.1f\n", old_b / new_b
        }'
    }
    cpu=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$new_out")
    mkdir -p results
    {
        awk -v cpu="$cpu" -v cores="$(getconf _NPROCESSORS_ONLN)" \
            -v go="$(go env GOVERSION)" -v os="$(go env GOOS)/$(go env GOARCH)" \
            -v ref="$ref" -v refsha="$(git rev-parse --short "$ref")" \
            -v benchtime="$benchtime, count $count (median reported)" 'BEGIN {
            printf "{\n"
            printf "  \"description\": \"Cost of one weak-bisimulation check of the streaming noninterference analysis (paper Sect. 3.2): the model with the DPM hidden against the model with the DPM prevented, state-space generation outside the timer. baseline saturates and refines the tau-SCC condensation of the disjoint union of the two variants; change first reduces the union to its branching-bisimulation quotient and saturates and refines that. states counts the states of the two input variants, quotient_states the states the change refines. Both sides run the same benchmark code and reach the same verdict.\",\n"
            printf "  \"environment\": {\n"
            printf "    \"cpu\": \"%s\",\n", cpu
            printf "    \"cores\": %d,\n", cores
            printf "    \"go\": \"%s\",\n", go
            printf "    \"os\": \"%s\"\n", os
            printf "  },\n"
            printf "  \"benchtime\": \"%s\",\n", benchtime
            printf "  \"baseline_ref\": \"%s (%s)\",\n", ref, refsha
            printf "  \"quick\": {\n"
            printf "    \"model\": \"streaming functional, buffer capacity 2\",\n"
        }'
        emit_pair WeakBisim
        printf '  },\n  "full": {\n    "model": "streaming functional, buffer capacity 10 (the paper setting)",\n'
        emit_pair WeakBisimFull
        printf '  }\n}\n'
    } > results/BENCH_weakbisim.json
    echo "== results/BENCH_weakbisim.json =="
    cat results/BENCH_weakbisim.json
    exit 0
fi

bench() {
    go test -run '^$' -bench "$pattern" -benchtime 1x -count "$count" ./...
}

new_out=$(mktemp)
trap 'rm -f "$new_out" "${old_out:-}"' EXIT

echo "== bench: working tree =="
bench | tee "$new_out"

if [ -z "$ref" ]; then
    exit 0
fi

old_out=$(mktemp)
worktree=$(mktemp -d)
git worktree add --detach "$worktree" "$ref" >/dev/null
trap 'rm -f "$new_out" "$old_out"; git worktree remove --force "$worktree" >/dev/null 2>&1 || true' EXIT

echo "== bench: $ref =="
(cd "$worktree" && bench) | tee "$old_out"

if command -v benchstat >/dev/null 2>&1; then
    echo "== benchstat ($ref vs working tree) =="
    benchstat "$old_out" "$new_out"
else
    echo "benchstat not installed; raw outputs above (old: $ref, new: working tree)"
fi

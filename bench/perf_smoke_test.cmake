# Perf-smoke regression gate: run the perf_simulator grids once — the
# paper grid and the N=1024 scaling grid (a never-matching
# --benchmark_filter skips the microbenchmarks) — and compare each
# record's runner.grid.refs_per_second against the committed baseline
# via bench/compare_bench.py. The threshold is
# deliberately generous — the gate exists to catch hot-path
# regressions (a per-reference allocation, a hash probe back on the
# hot path), not scheduler noise on a loaded host. The grids run at
# DIRSIM_JOBS=1 because the baseline's records were taken at jobs=1:
# compare_bench.py refuses pairs whose runner.grid.jobs differ, so a
# bigger host cannot hide a sequential regression.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
        DIRSIM_BENCH_JSON=${WORKDIR}/perf_smoke.jsonl
        DIRSIM_JOBS=1
        ${BENCH} --benchmark_filter=^$
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_simulator failed (${rc})")
endif()

execute_process(
    COMMAND ${PYTHON} ${COMPARE}
        ${BASELINE} ${WORKDIR}/perf_smoke.jsonl --threshold 0.5
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message(STATUS "${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "grid throughput regressed vs the committed baseline "
        "(rc=${rc}); rerun on an idle host, then investigate the "
        "decode/dense hot path before updating BENCH_9.json")
endif()

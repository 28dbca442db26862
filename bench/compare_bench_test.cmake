# compare_bench.py exit codes on small synthetic artifact files:
# 0 within the threshold, 1 on a throughput regression, 2 when a
# record pair differs in runner.grid.jobs, in
# runner.grid.hardware_threads or in runner.build.optimized, 0 when
# only one record carries hardware_threads or optimized, and 2 when
# the baseline lacks a gating gauge the candidate has.
#
# metrics_file(path jobs refs_per_second [hardware_threads
#              [optimized]]); an empty optional value is left out.
function(metrics_file path jobs refs_per_second)
    set(gauges "\"runner.grid.jobs\":{\"kind\":\"gauge\",\"value\":${jobs}}")
    if(NOT refs_per_second STREQUAL "")
        string(APPEND gauges ",\"runner.grid.refs_per_second\":"
               "{\"kind\":\"gauge\",\"value\":${refs_per_second}}")
    endif()
    if(ARGC GREATER 3 AND NOT ARGV3 STREQUAL "")
        string(APPEND gauges ",\"runner.grid.hardware_threads\":"
               "{\"kind\":\"gauge\",\"value\":${ARGV3}}")
    endif()
    if(ARGC GREATER 4)
        string(APPEND gauges ",\"runner.build.optimized\":"
               "{\"kind\":\"gauge\",\"value\":${ARGV4}}")
    endif()
    file(WRITE ${path} "{\"kind\":\"metrics\",\"metrics\":{${gauges}}}\n")
endfunction()

function(expect_exit expected baseline candidate)
    execute_process(
        COMMAND ${PYTHON} ${COMPARE} ${baseline} ${candidate}
            --threshold 0.5
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL expected)
        message(FATAL_ERROR
            "compare_bench.py ${baseline} ${candidate}: exit ${rc}, "
            "expected ${expected}\n${out}${err}")
    endif()
endfunction()

set(dir "${WORKDIR}/compare_bench_test")
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
metrics_file(${dir}/base.jsonl 1 1000)
metrics_file(${dir}/close.jsonl 1 700)
metrics_file(${dir}/slow.jsonl 1 400)
metrics_file(${dir}/jobs4.jsonl 4 1000)
metrics_file(${dir}/no_gauge.jsonl 1 "")
metrics_file(${dir}/hw4.jsonl 1 1000 4)
metrics_file(${dir}/hw8.jsonl 1 1000 8)
metrics_file(${dir}/release.jsonl 1 1000 "" 1)
metrics_file(${dir}/debug.jsonl 1 1000 "" 0)

expect_exit(0 ${dir}/base.jsonl ${dir}/close.jsonl)
expect_exit(1 ${dir}/base.jsonl ${dir}/slow.jsonl)
expect_exit(2 ${dir}/base.jsonl ${dir}/jobs4.jsonl)
expect_exit(2 ${dir}/no_gauge.jsonl ${dir}/base.jsonl)
expect_exit(2 ${dir}/hw4.jsonl ${dir}/hw8.jsonl)
expect_exit(0 ${dir}/base.jsonl ${dir}/hw4.jsonl)
expect_exit(2 ${dir}/release.jsonl ${dir}/debug.jsonl)
expect_exit(0 ${dir}/base.jsonl ${dir}/release.jsonl)

# Golden cell-record check: re-run a committed grid with today's
# binaries and require `dirsim_report --diff <golden> <fresh>` to exit
# 0 for every output. The goldens under tests/golden/ were produced by
# the sparse (hash-map) reference engine; `--diff` compares every
# deterministic per-cell metric (events, ops, the Figure 1 histogram,
# derived costs) and ignores wall-clock fields.
#
# -DKIND=paper    repro_table4_event_frequencies at 20000 refs/trace
# -DKIND=scaling  dirsim_scaling run at N in {4, 6, 13, 1024}
# -DKIND=sweep    dirsim_sweep run on each committed sweep spec
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

function(check_golden golden fresh)
    execute_process(COMMAND ${REPORT} --diff ${golden} ${fresh}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${fresh} diverged from ${golden} (rc=${rc}):\n${out}")
    endif()
endfunction()

set(work "${WORKDIR}/golden_${KIND}")
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

if(KIND STREQUAL "paper")
    run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
        ${BENCH} --jsonl ${work}/paper_grid.jsonl)
    check_golden(${GOLDEN}/paper_grid.jsonl ${work}/paper_grid.jsonl)
elseif(KIND STREQUAL "scaling")
    run(${CMAKE_COMMAND} -E env DIRSIM_SCALING_NS=4,6,13,1024
        DIRSIM_SCALING_REFS=30000
        ${SCALING} run ${work})
    foreach(n 4 6 13 1024)
        check_golden(${GOLDEN}/scale${n}.jsonl ${work}/scale${n}.jsonl)
    endforeach()
elseif(KIND STREQUAL "sweep")
    foreach(spec finite_sweep processor_sweep)
        run(${SWEEP} run ${GOLDEN}/${spec}.json
            --out ${work}/${spec} --jobs 2)
        check_golden(${GOLDEN}/${spec}.jsonl
                     ${work}/${spec}/results.jsonl)
    endforeach()
else()
    message(FATAL_ERROR "unknown golden KIND '${KIND}'")
endif()

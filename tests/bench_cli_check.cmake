# Command-line checks of a bench binary; run with cmake -P.
#
#   -DBENCH=<binary> -DFLAG=<flag>
#       The bench must reject FLAG: exit non-zero with an "invalid"
#       message on stderr.
#   -DBENCH=bench_fig8_random4k -DOBS_DIR=<dir>
#       A BM_NvdcCached/rand_read_4k run under --obs=<dir> must leave
#       the six record files, all non-empty, with schema_version in
#       meta.json and the nvdc.page_faults stat in stats.jsonl.

if(DEFINED FLAG)
    execute_process(COMMAND ${BENCH} ${FLAG} --benchmark_filter=^$
                    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "${FLAG} was accepted")
    endif()
    string(FIND "${err}" "invalid" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "${FLAG} failed without a message: ${err}")
    endif()
    return()
endif()

file(REMOVE_RECURSE ${OBS_DIR})
execute_process(COMMAND ${BENCH} --obs=${OBS_DIR}
                        --benchmark_filter=BM_NvdcCached/rand_read_4k
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--obs run failed: ${rc}")
endif()
foreach(f meta.json stats.jsonl telemetry.jsonl breakdown.jsonl
          trace.json flight.json)
    if(NOT EXISTS ${OBS_DIR}/${f})
        message(FATAL_ERROR "missing ${OBS_DIR}/${f}")
    endif()
    file(SIZE ${OBS_DIR}/${f} size)
    if(size EQUAL 0)
        message(FATAL_ERROR "empty ${OBS_DIR}/${f}")
    endif()
endforeach()
file(READ ${OBS_DIR}/meta.json meta)
string(FIND "${meta}" "\"schema_version\":" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "meta.json lacks schema_version: ${meta}")
endif()
file(READ ${OBS_DIR}/stats.jsonl stats)
string(FIND "${stats}" "\"nvdc.page_faults\"" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "stats.jsonl lacks nvdc.page_faults")
endif()

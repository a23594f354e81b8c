# Generate a 4-processor trace into DIR and run the faulted protocol
# sweep over it with trace and metrics export (the observability smoke
# run), then require exit status 0 and every job violation-free.
#
#   cmake -DEXE=<trace_driven> -DDIR=<output dir> -P faulted_sweep.cmake
set(trace "${DIR}/faulted_sweep.trace")
execute_process(COMMAND "${EXE}" --generate "${trace}" 4 20000
                RESULT_VARIABLE gen_status
                OUTPUT_VARIABLE gen_out
                ERROR_VARIABLE gen_err
                TIMEOUT 120)
if(NOT gen_status STREQUAL "0")
    message(FATAL_ERROR "${EXE} --generate: exit status ${gen_status}\n"
                        "${gen_out}${gen_err}")
endif()
execute_process(COMMAND "${EXE}" "${trace}" all 4 --jobs 2 --faults
                        --trace-job 3
                        --trace-out "${DIR}/faulted_sweep_trace.json"
                        --metrics-out "${DIR}/faulted_sweep_metrics.json"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "faulted sweep: exit status ${status}\n"
                        "${out}${err}")
endif()
string(FIND "${out}" "consistency: 6/6 jobs violation-free" at)
if(at EQUAL -1)
    message(FATAL_ERROR "faulted sweep: not every job is violation-free\n"
                        "${out}")
endif()

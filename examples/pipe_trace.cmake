# Run trace_driven on TRACE twice, once by name and once through a pipe
# into /dev/stdin, and require the same exit status and output: a pipe
# is read exactly like a file.  ARGS is the command line after the trace
# file, its arguments separated by '|'.
#
#   cmake -DEXE=<trace_driven> -DTRACE=example.trace -DARGS=moesi \
#         -P pipe_trace.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" "${TRACE}" ${args}
                RESULT_VARIABLE file_status
                OUTPUT_VARIABLE file_out
                ERROR_VARIABLE file_err
                TIMEOUT 120)
execute_process(COMMAND "${CMAKE_COMMAND}" -E cat "${TRACE}"
                COMMAND "${EXE}" /dev/stdin ${args}
                RESULT_VARIABLE pipe_status
                OUTPUT_VARIABLE pipe_out
                ERROR_VARIABLE pipe_err
                TIMEOUT 120)
if(NOT file_status STREQUAL "0")
    message(FATAL_ERROR "${EXE} ${TRACE} ${ARGS}: exit status "
                        "${file_status}\n${file_out}${file_err}")
endif()
if(NOT pipe_status STREQUAL file_status)
    message(FATAL_ERROR "piped run: exit status ${pipe_status}, file run "
                        "${file_status}\n${pipe_out}${pipe_err}")
endif()
if(NOT pipe_out STREQUAL file_out)
    message(FATAL_ERROR "piped run printed\n${pipe_out}\nfile run "
                        "printed\n${file_out}")
endif()

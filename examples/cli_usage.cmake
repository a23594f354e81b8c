# Run an example with one malformed numeric argument and require the
# usage error contract: exit status 2 and the diagnostic
# "<PROG>: invalid value '<VALUE>' for <WHAT>" on stderr.  ARGS is the
# command line, its arguments separated by '|'.
#
#   cmake -DEXE=<mc_explore> -DPROG=mc_explore -DWHAT=--caches \
#         -DVALUE=3x -DARGS='--caches|3x' -P cli_usage.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR
            "${PROG} ${ARGS}: exit status ${status}, want 2\n"
            "${out}${err}")
endif()
set(want "${PROG}: invalid value '${VALUE}' for ${WHAT}")
string(FIND "${err}" "${want}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${want}\":\n${err}")
endif()

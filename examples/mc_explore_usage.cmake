# Run mc_explore with one malformed numeric flag and require the usage
# error contract: exit status 2 and the diagnostic
# "mc_explore: invalid value '<VALUE>' for <FLAG>" on stderr.
#
#   cmake -DEXE=<mc_explore> -DFLAG=--caches -DVALUE=3x \
#         -P mc_explore_usage.cmake
execute_process(COMMAND "${EXE}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR
            "mc_explore ${FLAG} ${VALUE}: exit status ${status}, want 2\n"
            "${out}${err}")
endif()
set(want "mc_explore: invalid value '${VALUE}' for ${FLAG}")
string(FIND "${err}" "${want}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${want}\":\n${err}")
endif()

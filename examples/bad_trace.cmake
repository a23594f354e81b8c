# Run trace_driven on a trace it must refuse and require the bad-input
# contract: exit status 1 (never a crash, a hang or a silently different
# run) and the diagnostic WANT on stderr.  TRACE holds the trace's lines
# separated by '|'; INPUT is where it is written; ARGS is the command
# line after the trace file, its arguments separated by '|'.
#
#   cmake -DEXE=<trace_driven> '-DTRACE=0 R 0|100000 W 20' -DARGS=moesi \
#         -DINPUT=wide.trace '-DWANT=more than the 1024 supported' \
#         -P bad_trace.cmake
string(REPLACE "|" "\n" text "${TRACE}")
file(WRITE "${INPUT}" "${text}\n")
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" "${INPUT}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${EXE} ${INPUT} ${ARGS}: exit status ${status}, "
                        "want 1\n${out}${err}")
endif()
string(FIND "${err}" "${WANT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${WANT}\":\n${err}")
endif()

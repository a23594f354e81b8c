# Feed an example a script on stdin and require the malformed-line
# contract: exit status 0 and exactly BAD "? bad line" replies.  SCRIPT
# holds the script's lines separated by '|'; INPUT is where it is
# written; ARGS is the command line, its arguments separated by '|'.
#
#   cmake -DEXE=<protocol_explorer> -DARGS=moesi \
#         '-DSCRIPT=r 0 zz|w 0 100 abc' -DBAD=2 -DINPUT=bad.script \
#         -P bad_script.cmake
string(REPLACE "|" "\n" text "${SCRIPT}")
file(WRITE "${INPUT}" "${text}\n")
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                INPUT_FILE "${INPUT}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS}: exit status ${status}, want 0\n"
                        "${out}${err}")
endif()
string(REGEX MATCHALL "\\? bad line" replies "${out}")
list(LENGTH replies n)
if(NOT n EQUAL BAD)
    message(FATAL_ERROR "${n} \"? bad line\" replies, want ${BAD}:\n${out}")
endif()

# Runs tristream_cli and passes only when it exits 2 with "unknown flag
# <FLAG> for '<COMMAND>'" on stderr: a misspelt or removed flag must never
# be silently ignored.
#
#   cmake -DCLI=<tristream_cli> -DARGS="count|--input|g.txt|--pipeline|0"
#         -DFLAG=--pipeline -DCOMMAND=count -P expect_unknown_flag.cmake
#
# ARGS separates arguments with '|' (a ';' list would be split by add_test).
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${code}'\nstdout: ${out}\n"
                      "stderr: ${err}")
endif()
set(expected "unknown flag ${FLAG} for '${COMMAND}'")
string(FIND "${err}" "${expected}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${expected}\":\n${err}")
endif()

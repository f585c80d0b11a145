# Runs tristream_cli and passes only when it exits 2 with EXPECT on
# stderr: a misspelt or removed flag, or a malformed flag value, must
# never be silently ignored or misread.
#
#   cmake -DCLI=<tristream_cli> -DARGS="count|--input|g.txt|--pipeline|0"
#         "-DEXPECT=unknown flag --pipeline for 'count'"
#         -P expect_usage_error.cmake
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
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${EXPECT}\":\n${err}")
endif()

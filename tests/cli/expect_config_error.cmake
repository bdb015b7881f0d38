# Runs PROGRAM with the whitespace-separated ARGS and passes iff it exits 2
# (a reported configuration error) and its stderr names FLAG. A contract
# abort exits 134 and fails here.
#
#   cmake -DPROGRAM=path -DARGS="--flag value ..." -DFLAG=--flag \
#         -P expect_config_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()

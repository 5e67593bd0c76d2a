# Runs COMMAND (a ;-list) and passes only when it exits non-zero with a
# usage message on stderr — a clean rejection, not a crash or a silent run.
#   cmake -DCOMMAND="prog;--flag;value" -P expect_usage_error.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "expected a non-zero exit, got '${status}'")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "expected a usage message on stderr, got '${err}'")
endif()

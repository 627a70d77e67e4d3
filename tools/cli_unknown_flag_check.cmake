# Runs `${CLI} ${ARGS}` (ARGS is a ;-list) and demands exit code 2, nothing
# on stdout, and a one-line stderr naming `--${FLAG}` as unknown.
execute_process(COMMAND ${CLI} ${ARGS} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(STRIP "${err}" err)
if(NOT code EQUAL 2 OR NOT out STREQUAL "" OR err MATCHES "\n"
   OR NOT err MATCHES "unknown flag --${FLAG}")
  message(FATAL_ERROR "exit ${code}\nstdout: ${out}\nstderr: ${err}")
endif()

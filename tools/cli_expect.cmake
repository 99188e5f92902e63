# Runs one kshot-sim command line and checks its exit code and output.
#
#   cmake -DBIN=<kshot-sim> -DARGS="<space-separated args>" -DRC=<exit code>
#         [-DOUT=<regex on stdout>] [-DERR=<regex on stderr>]
#         -P cli_expect.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "kshot-sim ${ARGS}: exit ${rc}, expected ${RC}\n${err}")
endif()
if(DEFINED OUT AND NOT out MATCHES "${OUT}")
  message(FATAL_ERROR "kshot-sim ${ARGS}: stdout lacks '${OUT}':\n${out}")
endif()
if(DEFINED ERR AND NOT err MATCHES "${ERR}")
  message(FATAL_ERROR "kshot-sim ${ARGS}: stderr lacks '${ERR}':\n${err}")
endif()

# Runs EXE with the space-separated ARGS and fails unless it exits with
# EXPECT. Used by the eplace_cli exit-code tests (examples/CMakeLists.txt):
#   cmake -DEXE=<path> -DARGS="<args>" -DEXPECT=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "eplace_cli ${ARGS}: exit ${rc}, expected ${EXPECT}")
endif()

# Runs one command line that must be rejected: EXE with ARGS (a shell-style
# string) must exit with code 1 and print a stderr line matching EXPECT.
# A crash (an uncaught exception ends in SIGABRT) or any other exit code
# fails.
#
#   cmake -DEXE=<binary> "-DARGS=--threads -1" "-DEXPECT=<regex>" \
#     -P tests/cli_exit_test.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "'${ARGS}': exit status '${code}', want 1\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "'${ARGS}': stderr does not match '${EXPECT}'\nstderr: ${err}")
endif()

# Runs one command line that must be rejected: EXE with ARGS (a shell-style
# string) must exit with code 1 and print a stderr line matching EXPECT.
# A crash (an uncaught exception ends in SIGABRT) or any other exit code
# fails.  So does a program still running after 30 s: a count flag that
# wraps to a huge size_t can spin until killed, and without a timeout it
# would hold CTest until the CI job's own limit.
#
#   cmake -DEXE=<binary> "-DARGS=--threads -1" "-DEXPECT=<regex>" \
#     -P tests/cli_exit_test.cmake
set(timeout 30)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                TIMEOUT ${timeout}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code MATCHES "timeout")
  message(FATAL_ERROR "'${ARGS}': still running after the ${timeout} s "
                      "timeout, want exit 1 (${code})")
endif()
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "'${ARGS}': exit status '${code}', want 1\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "'${ARGS}': stderr does not match '${EXPECT}'\nstderr: ${err}")
endif()

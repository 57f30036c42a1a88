# Runs PROGRAM with ARGS (one space-separated string) and fails unless it
# exits 0 and its stdout equals EXPECTED byte for byte. The stdout is kept
# in ACTUAL for inspection. Used by the `figures` tests:
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DEXPECTED=<file> -DACTUAL=<file>
#         -P check_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${EXPECTED} ${ACTUAL})
  endif()
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${EXPECTED} "
                      "(this run's stdout: ${ACTUAL})")
endif()

# An example program's stdout against its golden copy, byte for byte.
# Run via ctest (example_golden_<name>); expects -DEXAMPLE=<program>,
# -DGOLDEN=<tests/golden/examples/<name>.txt> and -DACTUAL=<file the run's
# stdout is written to, left behind for a diff on failure>.

foreach(var EXAMPLE GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DEXAMPLE=... -DGOLDEN=... -DACTUAL=... "
                        "-P example_golden_test.cmake")
  endif()
endforeach()

execute_process(COMMAND "${EXAMPLE}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${EXAMPLE}' exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${ACTUAL}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of '${EXAMPLE}' differs from ${GOLDEN}; "
                      "see ${ACTUAL}")
endif()

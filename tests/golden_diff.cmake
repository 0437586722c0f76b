# Runs BIN with the ;-separated ARGS and requires its stdout to equal the
# file GOLDEN byte for byte. On a mismatch the actual output is written
# beside the build's copy of the test for diffing.
#   cmake -DBIN=... -DARGS=--suite\;all -DGOLDEN=... -DACTUAL=... -P golden_diff.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; actual output in ${ACTUAL}")
endif()

# Scans every app directory under APPS with scan_directory and echoes
# each report; an app that is not reported vulnerable (exit 1 and a
# "verdict: Vulnerable" line) fails the run with a CMake error.
#   cmake -DSCAN=... -DAPPS=... -P scan_each.cmake
file(GLOB apps LIST_DIRECTORIES true ${APPS}/*)
set(scanned 0)
foreach(app IN LISTS apps)
  if(NOT IS_DIRECTORY ${app})
    continue()
  endif()
  execute_process(COMMAND ${SCAN} ${app}
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE rc)
  message("${app}:\n${out}")
  if(NOT rc EQUAL 1 OR NOT out MATCHES "verdict: Vulnerable")
    message(FATAL_ERROR "${app}: scan_directory exited ${rc}, not vulnerable")
  endif()
  math(EXPR scanned "${scanned} + 1")
endforeach()
if(scanned EQUAL 0)
  message(FATAL_ERROR "no app directory under ${APPS}")
endif()

# Scans every app of a corpus_verdicts --dump tree with scan_directory
# --explain --all-findings --sarif-out and structurally validates each
# SARIF file with validate_sarif. A vulnerable app (exit 1) must carry
# results with codeFlows, and at least one app must be vulnerable. The
# same scan writes --trace-out and --metrics-out: the Chrome trace and
# the metrics file must parse, and the metrics must count one scan.
#   cmake -DSCAN=... -DVALIDATE=... -DCORPUS=... -DOUT=... -P sarif_sweep.cmake
file(GLOB apps LIST_DIRECTORIES true ${CORPUS}/*)
file(MAKE_DIRECTORY ${OUT})
set(scanned 0)
set(vulnerable 0)
foreach(app IN LISTS apps)
  if(NOT IS_DIRECTORY ${app})
    continue()
  endif()
  get_filename_component(name ${app} NAME)
  string(REPLACE " " "_" name "${name}")
  set(sarif ${OUT}/${name}.sarif)
  execute_process(COMMAND ${SCAN} ${app} --quiet --explain --all-findings
                          --sarif-out=${sarif}
                          --trace-out=${OUT}/${name}.trace.json
                          --metrics-out=${OUT}/${name}.metrics.json
                  OUTPUT_QUIET
                  RESULT_VARIABLE rc)
  if(rc EQUAL 1)
    set(require --require-result --require-codeflow)
    math(EXPR vulnerable "${vulnerable} + 1")
  elseif(rc EQUAL 0)
    set(require "")
  else()
    message(FATAL_ERROR "scan_directory exited ${rc} on ${app}")
  endif()
  execute_process(COMMAND ${VALIDATE} ${sarif} ${require}
                  OUTPUT_QUIET
                  ERROR_VARIABLE error
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "validate_sarif rejected ${sarif}: ${error}")
  endif()
  file(READ ${OUT}/${name}.trace.json trace)
  string(JSON unit ERROR_VARIABLE error GET "${trace}" displayTimeUnit)
  if(error OR NOT unit STREQUAL "ms")
    message(FATAL_ERROR "bad Chrome trace for ${app}: ${error}")
  endif()
  file(READ ${OUT}/${name}.metrics.json metrics)
  string(JSON scans ERROR_VARIABLE error GET "${metrics}" counters scan.count)
  if(error OR NOT scans EQUAL 1)
    message(FATAL_ERROR "bad metrics for ${app}: ${error}")
  endif()
  math(EXPR scanned "${scanned} + 1")
endforeach()
if(vulnerable EQUAL 0)
  message(FATAL_ERROR "no app under ${CORPUS} produced a vulnerable SARIF result")
endif()
message(STATUS "validated ${scanned} SARIF file(s), ${vulnerable} with codeFlows")

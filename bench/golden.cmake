# Byte-exact stdout check of one bench binary, run by ctest:
#   cmake -DBIN=<binary> -DGOLDEN=<expected stdout> -DACTUAL=<scratch file>
#         -P bench/golden.cmake
# Fails if the binary exits nonzero or its stdout differs from GOLDEN in any
# byte; ACTUAL keeps the run's stdout, so `diff ACTUAL GOLDEN` shows why.
execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout differs from the golden: diff ${ACTUAL} ${GOLDEN}")
endif()

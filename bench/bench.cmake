# Reproduction benches: one standalone binary per paper table/figure plus
# ablations. Declared from the top level so build/bench/ contains only
# runnable binaries (the harness runs `for b in build/bench/*; do $b; done`).

function(bladed_add_bench name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE bladed)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

bladed_add_bench(table1_microkernel)
bladed_add_bench(table2_scalability)
bladed_add_bench(table3_npb)
bladed_add_bench(table4_treecode)
bladed_add_bench(table5_tco)
bladed_add_bench(table6_perf_space)
bladed_add_bench(table7_perf_power)
bladed_add_bench(fig3_nbody)
bladed_add_bench(topper_metric)
bladed_add_bench(ablation_cms)
bladed_add_bench(ablation_treecode)

# Host-level google-benchmark microbenches (wall-clock on this machine).
add_executable(micro_host bench/micro_host.cpp)
target_link_libraries(micro_host PRIVATE bladed benchmark::benchmark)
target_include_directories(micro_host PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(micro_host PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

bladed_add_bench(ablation_reliability)
bladed_add_bench(greendestiny_scaleout)
bladed_add_bench(npb_classw)
bladed_add_bench(ablation_tco)
bladed_add_bench(ablation_longrun)
bladed_add_bench(green500_preview)
bladed_add_bench(npb_parallel)
bladed_add_bench(roofline_report)
bladed_add_bench(ops_montecarlo)
bladed_add_bench(ablation_faultrun)
# Its stdout is deterministic, so the whole table is gated byte for byte
# against bench/golden/ablation_faultrun.txt; a change meant to move a
# number regenerates the golden from the bench's stdout.
add_test(NAME ablation_faultrun_golden
         COMMAND ${CMAKE_COMMAND} -DBIN=$<TARGET_FILE:ablation_faultrun>
                 -DGOLDEN=${CMAKE_SOURCE_DIR}/bench/golden/ablation_faultrun.txt
                 -DACTUAL=${CMAKE_BINARY_DIR}/ablation_faultrun.stdout
                 -P ${CMAKE_SOURCE_DIR}/bench/golden.cmake)
set_tests_properties(ablation_faultrun_golden PROPERTIES
  TIMEOUT 120 LABELS "bench_golden")

# Serving-layer acceptance bench: saturation backpressure, the seeded chaos
# wave (deterministic shed/degrade counts + replay), and 2x-overload. Also a
# ctest entry — the bench exits nonzero when any serving invariant breaks,
# so the suite gates on it at --quick scale.
bladed_add_bench(serve_saturation)
add_test(NAME serve_saturation_quick COMMAND serve_saturation --quick)
set_tests_properties(serve_saturation_quick PROPERTIES
  TIMEOUT 300 LABELS "bench_serve" PROCESSORS 4)

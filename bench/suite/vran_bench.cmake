# Build file of the vran_bench package (see README.md). It is not a
# CMakeLists.txt: it is injected into the repository's own build, so the
# benchmark compiles from source with exactly the root's language level,
# flags and library targets:
#
#   cmake -S . -B .bench_build/vran_bench -G Ninja \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/suite/vran_bench.cmake
#   cmake --build .bench_build/vran_bench --target vran_bench
#   ctest --test-dir .bench_build/vran_bench -L bench
#
# run.py does the first two steps itself before every run (the first only
# once). The build type is the root's default.
#
# CMake includes this file at the end of the root project() call, before
# any library exists; the deferred call defines the benchmark targets once
# the root CMakeLists.txt has been read to the end.
if(COMMAND vran_bench_define_targets)
  return()
endif()
set(VRAN_BENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

macro(vran_bench_define_targets)
  add_executable(vran_bench
    ${VRAN_BENCH_DIR}/vran_bench.cc
    ${VRAN_BENCH_DIR}/workloads.cc
    ${VRAN_BENCH_DIR}/replay.cc)
  set_target_properties(vran_bench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}")
  target_include_directories(vran_bench PRIVATE "${CMAKE_SOURCE_DIR}")
  # The meta block's git SHA ("unknown" outside a git checkout).
  execute_process(COMMAND git rev-parse --short HEAD
    WORKING_DIRECTORY "${CMAKE_SOURCE_DIR}"
    OUTPUT_VARIABLE VRAN_BENCH_SHA OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE VRAN_BENCH_SHA_RC ERROR_QUIET)
  if(NOT VRAN_BENCH_SHA_RC EQUAL 0 OR VRAN_BENCH_SHA STREQUAL "")
    set(VRAN_BENCH_SHA "unknown")
  endif()
  target_compile_definitions(vran_bench PRIVATE
    VRAN_GIT_SHA="${VRAN_BENCH_SHA}")
  # vran_alloc_interpose: the counting allocator behind allocs_per_tti.
  target_link_libraries(vran_bench PRIVATE
    vran_pipeline vran_net vran_alloc_interpose vran_warnings)

  # Tests (label "bench"), driven through selftest.py.
  find_package(Python3 COMPONENTS Interpreter)
  if(Python3_FOUND)
    add_test(NAME vran_bench_selftest
      COMMAND ${Python3_EXECUTABLE} ${VRAN_BENCH_DIR}/selftest.py
              --bin $<TARGET_FILE:vran_bench>
              --out ${CMAKE_BINARY_DIR}/vran_bench_selftest)
    add_test(NAME vran_bench_seed
      COMMAND ${Python3_EXECUTABLE} ${VRAN_BENCH_DIR}/selftest.py
              --bin $<TARGET_FILE:vran_bench>
              --out ${CMAKE_BINARY_DIR}/vran_bench_seedtest --seed-only)
    set_tests_properties(vran_bench_selftest vran_bench_seed PROPERTIES
      LABELS bench TIMEOUT 120)
  endif()
  add_test(NAME vran_bench_names
    COMMAND vran_bench --check-names ${CMAKE_SOURCE_DIR}/BENCHMARK.json)
  set_tests_properties(vran_bench_names PROPERTIES LABELS bench TIMEOUT 60)
endmacro()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL vran_bench_define_targets)

# Build file of the repository benchmark. It is passed to the placer's own
# top-level project as CMAKE_PROJECT_INCLUDE, so the benchmark binary and the
# libraries it links compile with exactly the flags a normal build uses,
# without editing any file of the placer. run.py does this on first use:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/eplace_bench/eplace_bench.cmake
#   cmake --build .bench_build --target eplace_bench -j
#
# CMake includes this file right after project(); the library targets exist
# only once the top-level CMakeLists.txt has run, so the target is defined
# by a deferred call.
set(EP_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(ep_add_repo_bench)
  add_executable(eplace_bench ${EP_BENCH_DIR}/eplace_bench.cpp)
  target_link_libraries(eplace_bench PRIVATE
    ep_eplace ep_serve ep_gen ep_bookshelf ep_cluster ep_density ep_fft
    ep_wirelength ep_eval ep_legal ep_qp ep_util)
  target_compile_definitions(eplace_bench PRIVATE
    EP_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL ep_add_repo_bench)

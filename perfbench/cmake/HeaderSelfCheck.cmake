# Stand-in for the repository's cmake/HeaderSelfCheck.cmake.  The real one
# globs ${CMAKE_SOURCE_DIR}/src, which in this build is perfbench/src (it
# does not exist); the benchmark never builds the header self-check target.
function(neurfill_add_header_self_check target)
endfunction()

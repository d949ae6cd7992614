# Sanitizer wiring for NeurFill.
#
# Configure with a semicolon-separated list, e.g.
#   cmake -B build -S . -DNEURFILL_SANITIZE="address;undefined"
#   cmake -B build -S . -DNEURFILL_SANITIZE=thread
#
# Supported: address, undefined, leak, thread.  ThreadSanitizer cannot be
# combined with AddressSanitizer or LeakSanitizer.  UBSan is configured with
# -fno-sanitize-recover so any report aborts the process and fails ctest
# instead of scrolling past.  "undefined" also turns on float-cast-overflow,
# which GCC leaves out of -fsanitize=undefined: an out-of-range
# float-to-integer cast is undefined behaviour all the same.

set(NEURFILL_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizer list: address, undefined, leak, thread")

if(NEURFILL_SANITIZE)
  set(_nf_san_flags "")
  set(_nf_san_thread FALSE)
  set(_nf_san_addr_or_leak FALSE)
  foreach(_nf_san IN LISTS NEURFILL_SANITIZE)
    if(_nf_san STREQUAL "address" OR _nf_san STREQUAL "leak")
      set(_nf_san_addr_or_leak TRUE)
    elseif(_nf_san STREQUAL "thread")
      set(_nf_san_thread TRUE)
    elseif(NOT _nf_san STREQUAL "undefined")
      message(FATAL_ERROR
          "NEURFILL_SANITIZE: unknown sanitizer '${_nf_san}' "
          "(expected address, undefined, leak, or thread)")
    endif()
    list(APPEND _nf_san_flags "-fsanitize=${_nf_san}")
    if(_nf_san STREQUAL "undefined")
      list(APPEND _nf_san_flags "-fsanitize=float-cast-overflow")
    endif()
  endforeach()

  if(_nf_san_thread AND _nf_san_addr_or_leak)
    message(FATAL_ERROR
        "NEURFILL_SANITIZE: 'thread' cannot be combined with "
        "'address' or 'leak'")
  endif()

  add_compile_options(${_nf_san_flags}
                      -fno-omit-frame-pointer
                      -fno-sanitize-recover=all)
  add_link_options(${_nf_san_flags})
  message(STATUS "NeurFill: sanitizers enabled: ${NEURFILL_SANITIZE}")
endif()

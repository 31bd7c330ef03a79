# Fails when a function declared in iatf/capi/iatf.h has no IATF_ENTRY
# row in test_fuzz_capi.cpp's entry-point table.
#
#   cmake -DCOMPILER=<cc> -DINCLUDE_DIR=<repo>/include
#         -DTABLE_SOURCE=<repo>/tests/fuzz/test_fuzz_capi.cpp
#         -P check_capi_coverage.cmake
#
# The header is preprocessed (as C) so the IATF_DECLARE_* macros expand
# into the per-type declarations they generate.
foreach(var COMPILER INCLUDE_DIR TABLE_SOURCE)
  if(NOT ${var})
    message(FATAL_ERROR "check_capi_coverage: ${var} is not set")
  endif()
endforeach()

execute_process(
  COMMAND ${COMPILER} -E -P -x c -I ${INCLUDE_DIR}
          ${INCLUDE_DIR}/iatf/capi/iatf.h
  OUTPUT_VARIABLE expanded
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_capi_coverage: preprocessing failed:\n${errors}")
endif()

# A declaration is an iatf_* identifier followed by its parameter list.
string(REGEX MATCHALL "iatf_[a-z0-9_]+[ \t\r\n]*\\(" calls "${expanded}")
set(declared "")
foreach(call IN LISTS calls)
  string(REGEX REPLACE "[ \t\r\n]*\\($" "" name "${call}")
  list(APPEND declared ${name})
endforeach()
list(REMOVE_DUPLICATES declared)
list(LENGTH declared declared_count)
if(declared_count EQUAL 0)
  message(FATAL_ERROR "check_capi_coverage: no declarations found")
endif()

file(READ ${TABLE_SOURCE} table)
set(missing "")
foreach(name IN LISTS declared)
  string(FIND "${table}" "IATF_ENTRY(${name}," pos)
  if(pos EQUAL -1)
    list(APPEND missing ${name})
  endif()
endforeach()

if(missing)
  list(JOIN missing "\n  " missing_lines)
  message(FATAL_ERROR
    "C entry points declared in iatf.h but missing from the fuzz table "
    "in ${TABLE_SOURCE}:\n  ${missing_lines}")
endif()
message(STATUS "all ${declared_count} declared C entry points are in the table")

# Fails when the C symbol surface of the library moves: the sorted list
# of defined text symbols named iatf_* in libiatf must equal the
# committed list, one symbol per line.
#
#   cmake -DNM=<nm> -DLIBRARY=<build>/src/libiatf.a
#         -DEXPECTED=<repo>/tests/capi/c_symbols.txt
#         -P check_c_symbols.cmake
#
# A change to the C ABI updates c_symbols.txt in the same commit, so the
# diff shows every added or removed entry point.
foreach(var NM LIBRARY EXPECTED)
  if(NOT ${var})
    message(FATAL_ERROR "check_c_symbols: ${var} is not set")
  endif()
endforeach()

execute_process(
  COMMAND ${NM} ${LIBRARY}
  OUTPUT_VARIABLE listing
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_c_symbols: ${NM} failed:\n${errors}")
endif()

# C++ symbols are mangled (_Z...), so an iatf_ prefix is a C entry point.
string(REGEX MATCHALL "[ \t]T[ \t]+iatf_[A-Za-z0-9_]+" rows "${listing}")
set(actual "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^[ \t]T[ \t]+" "" name "${row}")
  list(APPEND actual ${name})
endforeach()
list(REMOVE_DUPLICATES actual)
list(SORT actual)
file(STRINGS ${EXPECTED} expected)
if(NOT actual OR NOT expected)
  message(FATAL_ERROR "check_c_symbols: no iatf_* symbols to compare")
endif()

set(added ${actual})
list(REMOVE_ITEM added ${expected})
set(removed ${expected})
list(REMOVE_ITEM removed ${actual})
if(added OR removed)
  string(REPLACE ";" "\n  " added_lines "${added}")
  string(REPLACE ";" "\n  " removed_lines "${removed}")
  message(FATAL_ERROR
    "check_c_symbols: the C symbol surface differs from ${EXPECTED}\n"
    "added:\n  ${added_lines}\nremoved:\n  ${removed_lines}")
endif()
list(LENGTH actual count)
message(STATUS "check_c_symbols: ${count} iatf_* symbols match")

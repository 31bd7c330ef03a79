# Fails when the runtime library defines a symbol of the paper study:
# any defined symbol of libiatf whose demangled name lies in
# iatf::codegen (the kernel generator and the kernel optimizer),
# iatf::pipesim or iatf::baselines.
#
#   cmake -DNM=<nm> -DLIBRARY=<build>/src/libiatf.a
#         -P check_no_study.cmake
foreach(var NM LIBRARY)
  if(NOT ${var})
    message(FATAL_ERROR "check_no_study: ${var} is not set")
  endif()
endforeach()

execute_process(
  COMMAND ${NM} -C --defined-only ${LIBRARY}
  OUTPUT_VARIABLE listing
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_no_study: ${NM} failed:\n${errors}")
endif()
if(NOT listing MATCHES "iatf::")
  message(FATAL_ERROR "check_no_study: no iatf:: symbols in ${LIBRARY}")
endif()

# One symbol per line: "<address> <type> <demangled name>".
string(REGEX MATCHALL "[^\n]*iatf::(codegen|pipesim|baselines)::[^\n]*"
       study "${listing}")
if(study)
  list(LENGTH study count)
  string(REPLACE ";" "\n  " lines "${study}")
  message(FATAL_ERROR
    "check_no_study: ${LIBRARY} defines ${count} study symbols:\n  ${lines}")
endif()
message(STATUS "check_no_study: no study symbols in ${LIBRARY}")

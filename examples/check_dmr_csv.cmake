# Fig. 2 data gate: runs the DMR example with its default arguments in a
# fresh directory and requires the density slice it writes to be
# byte-identical to the committed dmr_density.csv.
#
#   cmake -DDMR=<dmr binary> -DEXPECTED=<dmr_density.csv> -DWORKDIR=<dir>
#         -P check_dmr_csv.cmake
foreach(var DMR EXPECTED WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_dmr_csv: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${DMR}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_dmr_csv: ${DMR} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORKDIR}/dmr_density.csv" "${EXPECTED}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "check_dmr_csv: ${WORKDIR}/dmr_density.csv differs "
                      "from ${EXPECTED}; a change to the DMR trajectory must "
                      "regenerate the committed Fig. 2 data")
endif()
file(REMOVE_RECURSE "${WORKDIR}")

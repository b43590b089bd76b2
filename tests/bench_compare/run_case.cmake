# One bench_compare verdict on the fixtures beside this file: runs
# TOOL DIR/base.json DIR/NEW and fails unless the tool exits with STATUS
# and, when EXPECT is non-empty, prints EXPECT.
execute_process(COMMAND ${TOOL} ${DIR}/base.json ${DIR}/${NEW}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT status EQUAL STATUS)
  message(FATAL_ERROR "bench_compare exited ${status}, expected ${STATUS}")
endif()
if(EXPECT)
  string(FIND "${out}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "bench_compare printed no \"${EXPECT}\"")
  endif()
endif()

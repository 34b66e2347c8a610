# A forced native build whose host compiler fails must never degrade
# silently: kccc still succeeds on the decoded artifact, counts the failure on
# its `native:` line, and passes the compiler's diagnostics through to stderr.
# Invoked by ctest with -DKCCC=... -DKERNEL=... -DFAKE_CXX=... -DWORK_DIR=...
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(ENV{KSPEC_NATIVE_CXX} "${FAKE_CXX}")
execute_process(COMMAND "${KCCC}" "${KERNEL}" -D CT_LOOP_COUNT=1 -D LOOP_COUNT=5
    --cache-dir "${WORK_DIR}/cache" --tier native
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kccc failed on a native build failure (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "native: builds-started=1 completed=0 failures=1")
  message(FATAL_ERROR "the native: line should count one failed build:\n${out}\n${err}")
endif()
if(NOT err MATCHES "host compiler failed")
  message(FATAL_ERROR "the host compiler's error should reach stderr:\n${err}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")

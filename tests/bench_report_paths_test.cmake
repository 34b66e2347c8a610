# Runs bench_report without -o in a scratch work dir: a bench_compile_overhead
# session must land in BENCH_compile.json, and a bench with no report of its
# own must exit non-zero. Neither may touch the BENCH_interp.json beside them.
# Invoked by ctest with -DBENCH_REPORT=... -DWORK_DIR=...
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(sentinel "{\"benches\": [{\"bench\": \"bench_interp\", \"records\": []}]}\n")
file(WRITE "${WORK_DIR}/BENCH_interp.json" "${sentinel}")
file(WRITE "${WORK_DIR}/compile.json"
  "{\"bench\": \"bench_compile_overhead\", \"records\": [{\"name\": \"cold\", \"wall_ms\": 1.5}]}\n")
file(WRITE "${WORK_DIR}/unknown.json" "{\"bench\": \"bench_unknown\", \"records\": []}\n")

execute_process(COMMAND "${BENCH_REPORT}" compile.json
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out1 ERROR_VARIABLE err1 RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "bench_report failed on a compile session (rc=${rc1}):\n${out1}\n${err1}")
endif()
if(NOT EXISTS "${WORK_DIR}/BENCH_compile.json")
  message(FATAL_ERROR "a bench_compile_overhead session must default to BENCH_compile.json:\n${out1}")
endif()
file(READ "${WORK_DIR}/BENCH_compile.json" compile_report)
if(NOT compile_report MATCHES "bench_compile_overhead")
  message(FATAL_ERROR "BENCH_compile.json does not hold the session:\n${compile_report}")
endif()

execute_process(COMMAND "${BENCH_REPORT}" unknown.json
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out2 ERROR_VARIABLE err2 RESULT_VARIABLE rc2)
if(rc2 EQUAL 0)
  message(FATAL_ERROR "an unknown bench without -o must exit non-zero:\n${out2}\n${err2}")
endif()

file(READ "${WORK_DIR}/BENCH_interp.json" interp_report)
if(NOT interp_report STREQUAL sentinel)
  message(FATAL_ERROR "BENCH_interp.json was overwritten:\n${interp_report}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")

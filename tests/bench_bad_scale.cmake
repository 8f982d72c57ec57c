# Runs a bench binary (-DBIN=...) under DCPIM_BENCH_SCALE values that are
# not a finite number > 0 and requires each to exit 2 with its one-line
# diagnostic on stderr and nothing on stdout.
foreach(scale 0 -1 nan inf)
  set(ENV{DCPIM_BENCH_SCALE} ${scale})
  execute_process(COMMAND ${BIN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "DCPIM_BENCH_SCALE=${scale}: exit '${code}', want 2")
  endif()
  set(want "DCPIM_BENCH_SCALE=${scale}: must be a finite number > 0\n")
  if(NOT err STREQUAL want OR NOT out STREQUAL "")
    message(FATAL_ERROR "DCPIM_BENCH_SCALE=${scale}: stdout '${out}', "
                        "stderr '${err}', want stderr '${want}'")
  endif()
endforeach()

# Runs the campaign binary (-DBIN=..., -DSPEC=...) with each numeric flag
# and environment knob set to `abc` and requires exit 2 with the one-line
# diagnostic `<name>=abc: must be a whole number` on stderr and nothing on
# stdout. A lenient parse would run SPEC instead and exit 0.
function(expect_rejected name)
  execute_process(COMMAND ${BIN} --spec ${SPEC} --journal none ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(want "${name}=abc: must be a whole number\n")
  if(NOT code EQUAL 2 OR NOT err STREQUAL want OR NOT out STREQUAL "")
    message(FATAL_ERROR "${name}=abc: exit '${code}', stdout '${out}', "
                        "stderr '${err}'; want exit 2 and stderr '${want}'")
  endif()
endfunction()

expect_rejected(--max-cells --max-cells abc)
expect_rejected(--fault-seed --fault-seed abc)
expect_rejected(--jobs --jobs abc)
set(ENV{DCPIM_JOBS} abc)
expect_rejected(DCPIM_JOBS)

# Smoke run of wgtt-sim's traced path: a multi-channel drive with --csv must
# exit 0 and leave a non-empty event CSV.
# Invoked by the wgtt_sim_csv_smoke CTest target:
#   cmake -DSIM=<wgtt-sim> -DCSV=<out.csv> -P csv_smoke.cmake
get_filename_component(csv_dir "${CSV}" DIRECTORY)
file(MAKE_DIRECTORY "${csv_dir}")
file(REMOVE "${CSV}")
execute_process(
  COMMAND "${SIM}" --channel-reuse 3 --mph 25 --csv "${CSV}"
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "wgtt-sim --channel-reuse 3 --csv failed with ${sim_rc}")
endif()
file(SIZE "${CSV}" csv_size)
if(csv_size EQUAL 0)
  message(FATAL_ERROR "wgtt-sim wrote an empty trace CSV")
endif()

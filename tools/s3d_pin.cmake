# S3D exact-outcome pin. The DES is deterministic, so this plan's
# virtual-time outcome is fixed: classifier, directory or store changes
# (bucket order, neighbour marking, victim choice) must leave every
# pinned line as it is. Mirrors the CI "S3D exact-outcome gate".
#
# Usage: cmake -DSIM=<path to corec-sim> -P s3d_pin.cmake
execute_process(
  COMMAND "${SIM}" --s3d 4480 --scale 4 --steps 10 --verify
          --fail 4:2 --replace 6:2
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corec-sim exited ${rc}\n${out}")
endif()
foreach(want
    "29.596 ms avg over 40960 puts"
    "0.284 ms avg over 1280 gets"
    "storage eff.    : 67%"
    "makespan        : 1.026 s"
    "32616 demotions, 403 promotions, repair backlog 0"
    "all reads byte-exact")
  string(FIND "${out}" "${want}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "missing: ${want}\n${out}")
  endif()
endforeach()

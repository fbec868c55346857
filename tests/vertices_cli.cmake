# Runs a driver with a vertex count the RMAT generator cannot build (CASE)
# and checks that it fails cleanly: exit status 1 and a message naming
# `vertices` on stderr, never a hang or an abort. tests/CMakeLists.txt
# registers one CTest case per CASE with a short TIMEOUT, so a hang fails
# too:
#
#   cmake -DSIM=<graphpim_sim> -DSERVE=<graphpim_serve> -DCASE=<name>
#         -P vertices_cli.cmake
set(bin "${SIM}")
if(CASE STREQUAL "SimOneVertex")
  set(arg "--vertices=1")
elseif(CASE STREQUAL "SimNoVertices")
  set(arg "--vertices=0")
elseif(CASE STREQUAL "SimWrappedCount")
  # 2^32 + 1: truncated to a 32-bit id it would be one vertex again.
  set(arg "--vertices=4294967297")
elseif(CASE STREQUAL "SweepOneVertex")
  set(arg "--sweep=workloads=bfs;modes=baseline;vertices=1")
elseif(CASE STREQUAL "ServeOneVertex")
  set(bin "${SERVE}")
  set(arg "--vertices=1")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

# "${arg}" stays one argument even though the sweep spec holds semicolons.
execute_process(
  COMMAND "${bin}" "${arg}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${CASE}: exit status '${status}', want 1\n${out}${err}")
endif()
string(FIND "${err}" "vertices" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${CASE}: stderr lacks 'vertices':\n${err}")
endif()

# Runs graphpim_sim down one of the paths that swap the replayed trace or
# cap its telemetry (CASE) and checks what it replays or reports:
#
#   TraceRoundTrip            a --trace-out run, then a --trace-in run of
#                             that file, print the same cycles: lines;
#   FuseReplaysTheFusedTrace  --fuse=1 reports fused comparison blocks and
#                             replays a trace whose GraphPIM cycles differ
#                             from the unfused run's;
#   TimelineCapReportsDroppedWindows
#                             a run capped by --telemetry-max-windows keeps
#                             that many windows, and its --timeline-out and
#                             --metrics-out lines name the windows it
#                             dropped.
#
# tests/CMakeLists.txt registers one CTest case per CASE:
#
#   cmake -DSIM=<graphpim_sim> -DWORK=<work dir> -DCASE=<name> -P sim_cli.cmake
file(MAKE_DIRECTORY "${WORK}")

# Runs the simulator with ARGN and stores its stdout in `out`; any exit
# status but 0 fails the case.
function(run_sim out)
  execute_process(COMMAND "${SIM}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${CASE}: exit status '${status}' for ${ARGN}\n${stdout}${stderr}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

# The report's "cycles: N" lines, one per replayed mode, in `out`.
function(cycles_of out text)
  string(REGEX MATCHALL "\ncycles: [0-9]+" lines "\n${text}")
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "TraceRoundTrip")
  set(trace "${WORK}/bfs.bin")
  file(REMOVE "${trace}")
  set(run --workload=bfs --vertices=2048 --mode=baseline,graphpim)
  run_sim(direct ${run} --trace-out=${trace})
  run_sim(replayed ${run} --trace-in=${trace})
  string(FIND "${replayed}" "replaying trace from ${trace}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CASE}: the --trace-in run did not load ${trace}:\n${replayed}")
  endif()
  cycles_of(want "${direct}")
  cycles_of(got "${replayed}")
  list(LENGTH want modes)
  if(NOT modes EQUAL 2 OR NOT want STREQUAL got)
    message(FATAL_ERROR "${CASE}: direct run printed '${want}', "
                        "the --trace-in run '${got}'")
  endif()
elseif(CASE STREQUAL "FuseReplaysTheFusedTrace")
  set(run --workload=sssp --vertices=2048 --mode=graphpim)
  run_sim(plain ${run})
  run_sim(fused ${run} --fuse=1)
  string(REGEX MATCH "fusion: ([0-9]+) comparison blocks" line "${fused}")
  if(line STREQUAL "" OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "${CASE}: no fused comparison blocks reported:\n${fused}")
  endif()
  cycles_of(unfused_cycles "${plain}")
  cycles_of(fused_cycles "${fused}")
  if(unfused_cycles STREQUAL "" OR unfused_cycles STREQUAL fused_cycles)
    message(FATAL_ERROR "${CASE}: --fuse=1 replayed '${fused_cycles}', "
                        "the unfused run '${unfused_cycles}'")
  endif()
elseif(CASE STREQUAL "TimelineCapReportsDroppedWindows")
  set(run --workload=bfs --vertices=2048 --mode=graphpim
          --telemetry-window-ns=5000)
  run_sim(full ${run} --timeline-out=${WORK}/full.jsonl)
  run_sim(capped ${run} --telemetry-max-windows=3
          --timeline-out=${WORK}/capped.jsonl
          --metrics-out=${WORK}/capped.json)
  file(STRINGS "${WORK}/full.jsonl" full_windows)
  file(STRINGS "${WORK}/capped.jsonl" kept_windows)
  list(LENGTH full_windows total)
  list(LENGTH kept_windows kept)
  math(EXPR dropped "${total} - 3")
  if(NOT kept EQUAL 3 OR dropped LESS 1)
    message(FATAL_ERROR "${CASE}: kept ${kept} of ${total} windows, want 3 "
                        "of more than 3")
  endif()
  string(FIND "${full}" "past telemetry.max_windows" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${CASE}: the uncapped run reports dropped windows:\n${full}")
  endif()
  # The --timeline-out line, then the --metrics-out line.
  set(note "; ${dropped} windows past telemetry.max_windows dropped\n")
  foreach(line
      "telemetry timeline (3 windows, mode GraphPIM) written to ${WORK}/capped.jsonl${note}"
      "3 windows, mode GraphPIM) written to ${WORK}/capped.json${note}")
    string(FIND "${capped}" "${line}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${CASE}: no line ending '${line}' in:\n${capped}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

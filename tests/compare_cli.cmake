# Runs graphpim_compare on one hostile flag or input (CASE) and checks that
# it fails cleanly: exit status 1 and the expected message on stderr, never
# a crash or a pass. tests/CMakeLists.txt registers one CTest case per
# CASE:
#
#   cmake -DCOMPARE=<graphpim_compare> -DWORK=<scratch dir> -DCASE=<name>
#         -P compare_cli.cmake
set(valid "{\"cycles\":16,\"ipc\":1,\"x\":1}\n")
set(head "${valid}")
set(flag "")
if(CASE STREQUAL "InfTolerance")
  set(flag "--tolerance=inf")
  set(expect "bad --tolerance value")
elseif(CASE STREQUAL "NanAbsTolerance")
  set(flag "--abs-tolerance=nan")
  set(expect "bad --abs-tolerance value")
elseif(CASE STREQUAL "InfPerKeyTolerance")
  set(flag "--tol=cycles=inf")
  set(expect "bad --tol entry")
elseif(CASE STREQUAL "NonIntegerMaxRows")
  set(flag "--max-rows=1e300")
  set(expect "bad --max-rows value")
elseif(CASE STREQUAL "NanMaxRows")
  set(flag "--max-rows=nan")
  set(expect "bad --max-rows value")
elseif(CASE STREQUAL "DeepInput")
  string(REPEAT "[" 200000 head)
  set(expect "malformed JSON")
elseif(CASE STREQUAL "NonJsonNumbers")
  # strtod takes all three numbers; RFC 8259 takes none.
  set(head "{\"cycles\":0x10,\"ipc\":inf,\"x\":+1}\n")
  set(expect "malformed JSON")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/base.json" "${valid}")
file(WRITE "${WORK}/head.json" "${head}")
execute_process(
  COMMAND "${COMPARE}" "${WORK}/base.json" "${WORK}/head.json" ${flag}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${CASE}: exit status '${status}', want 1\n${out}${err}")
endif()
string(FIND "${err}" "${expect}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${CASE}: stderr lacks '${expect}':\n${err}")
endif()

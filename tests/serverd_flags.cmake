# gbda_serverd's argument checks: a numeric flag that is not a whole,
# in-range number of its type must fail with the usage (exit 2) before the
# corpus is built or a port is bound, instead of serving with a silently
# truncated or defaulted value. A well-formed invocation still serves and
# exits 0 when --duration elapses.
# Registered with ctest by tests/CMakeLists.txt:
#   cmake -DSERVERD=<gbda_serverd> -DWORK_DIR=<dir> -P serverd_flags.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(port_file ${WORK_DIR}/serverd.port)

function(expect_exit expected)
  file(REMOVE ${port_file})
  execute_process(COMMAND ${SERVERD} --scale=0.01 --duration=1
                          --port-file=${port_file} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "gbda_serverd ${ARGN}: expected exit ${expected}, got ${rc}:\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

# Malformed numbers: usage error, nothing built, nothing bound.
foreach(flag --port=70000 --port=abc --threads=4x --scale=x --max-queue=-1
             --metrics-port=70000 --metrics-port=-2)
  expect_exit(2 ${flag})
  if(err MATCHES "listening" OR EXISTS ${port_file})
    message(FATAL_ERROR "gbda_serverd ${flag} started listening:\n${err}")
  endif()
endforeach()

# A good invocation serves for --duration seconds and exits cleanly.
expect_exit(0 --port=0 --threads=2 --max-queue=8 --metrics-port=-1)
if(NOT err MATCHES "listening" OR NOT EXISTS ${port_file})
  message(FATAL_ERROR "gbda_serverd did not listen:\n${err}")
endif()
if(NOT out MATCHES "\"tool\": \"gbda_serverd\"")
  message(FATAL_ERROR "gbda_serverd printed no stats on shutdown:\n${out}")
endif()

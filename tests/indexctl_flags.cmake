# gbda_indexctl's argument checks: a numeric flag that is not a whole,
# in-range number must fail with the usage (exit 2) instead of building
# with a silently truncated value, and a tau_max the arena reader would
# reject must fail at build time instead of writing an unreadable artifact.
# Registered with ctest by tests/CMakeLists.txt:
#   cmake -DINDEXCTL=<gbda_indexctl> -DWORK_DIR=<dir> -P indexctl_flags.cmake

function(expect_exit expected)
  execute_process(COMMAND ${INDEXCTL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "gbda_indexctl ${ARGN}: expected exit ${expected}, got ${rc}:\n${out}${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(db ${WORK_DIR}/db.txt)
set(artifact ${WORK_DIR}/index.v3)
file(WRITE ${db}
  "t # 0\nv 0 C\nv 1 O\nv 2 N\ne 0 1 s\ne 1 2 d\n"
  "t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 0 2 s\n"
  "t # 2\nv 0 N\nv 1 O\ne 0 1 d\n")

# Malformed numbers: usage error, nothing written.
foreach(flag --tau-max=abc --tau-max=6x --tau-max= --tau-max=99999999999999999999
             --sample-pairs=-5 --seed=1.5 --ann-degree=4294967296
             --ann-alpha=fast)
  expect_exit(2 build --db=${db} --out=${artifact} ${flag})
endforeach()
if(EXISTS ${artifact})
  message(FATAL_ERROR "a rejected build wrote ${artifact}")
endif()

# Well-formed but implausible: Build refuses it with the reader's own check.
expect_exit(1 build --db=${db} --out=${artifact} --tau-max=1500)
expect_exit(1 build --db=${db} --out=${artifact} --tau-max=99999999999)
expect_exit(1 build --db=${db} --out=${artifact} --tau-max=-1)
if(EXISTS ${artifact})
  message(FATAL_ERROR "a rejected build wrote ${artifact}")
endif()

# The accepted bound still builds, and the artifact verifies.
expect_exit(0 build --db=${db} --out=${artifact} --tau-max=6 --sample-pairs=50)
expect_exit(0 verify ${artifact})
expect_exit(2 graph --in=${artifact} --out=${artifact} --ann-window=-1)

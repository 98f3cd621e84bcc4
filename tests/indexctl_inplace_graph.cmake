# gbda_indexctl's crash-safe writes: `graph --in A --out A` must rewrite the
# artifact it still has mapped without corrupting it, and the result must
# pass a full `verify`. The new artifact must replace the old one by rename,
# never by rewriting its bytes: a hard link to the old artifact (standing in
# for a reader that still has it open) keeps the old, valid contents.
# Registered with ctest by tests/CMakeLists.txt:
#   cmake -DINDEXCTL=<gbda_indexctl> -DWORK_DIR=<dir> -P indexctl_inplace_graph.cmake

function(run_indexctl)
  execute_process(COMMAND ${INDEXCTL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gbda_indexctl ${ARGN} failed (${rc}):\n${out}${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(db ${WORK_DIR}/db.txt)
set(artifact ${WORK_DIR}/index.v3)
file(WRITE ${db}
  "t # 0\nv 0 C\nv 1 O\nv 2 N\ne 0 1 s\ne 1 2 d\n"
  "t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 0 2 s\n"
  "t # 2\nv 0 N\nv 1 O\ne 0 1 d\n"
  "t # 3\nv 0 C\nv 1 N\nv 2 O\nv 3 C\ne 0 1 s\ne 1 2 s\ne 2 3 d\n"
  "t # 4\nv 0 O\nv 1 C\nv 2 C\ne 0 1 d\ne 1 2 s\n")

run_indexctl(build --db=${db} --out=${artifact} --tau-max=6 --sample-pairs=50)
run_indexctl(graph --in=${artifact} --out=${artifact} --ann-degree=2)
run_indexctl(verify ${artifact})
# Rewriting a second time replaces the existing ann_graph section.
set(old_reader ${WORK_DIR}/old_reader.v3)
file(CREATE_LINK ${artifact} ${old_reader})
run_indexctl(graph --in=${artifact} --out=${artifact} --ann-degree=3)
run_indexctl(verify ${artifact})
run_indexctl(inspect ${artifact})
if(NOT last_output MATCHES "\"degree_bound\": 3")
  message(FATAL_ERROR "rewritten artifact lacks the new ann_graph:\n${last_output}")
endif()
run_indexctl(verify ${old_reader})
run_indexctl(inspect ${old_reader})
if(NOT last_output MATCHES "\"degree_bound\": 2")
  message(FATAL_ERROR "the old artifact was overwritten in place:\n${last_output}")
endif()
if(EXISTS ${artifact}.tmp)
  message(FATAL_ERROR "a temporary file was left behind: ${artifact}.tmp")
endif()

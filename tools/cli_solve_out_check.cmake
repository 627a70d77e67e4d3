# Generates a small scenario in ${WORK}, runs `${CLI} solve --algorithm
# online-haste --out`, then `${CLI} eval` on the written schedule, and
# demands that eval accepts it and prints the overall weighted utility line
# solve printed.
file(MAKE_DIRECTORY ${WORK})
set(scenario ${WORK}/scenario.json)
set(schedule ${WORK}/schedule.json)
file(REMOVE ${schedule})
execute_process(COMMAND ${CLI} generate --out ${scenario} --preset small
                        --chargers 4 --tasks 10 --seed 3
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate: exit ${code}\n${out}${err}")
endif()
execute_process(COMMAND ${CLI} solve --in ${scenario} --algorithm online-haste
                        --colors 2 --out ${schedule}
                RESULT_VARIABLE code OUTPUT_VARIABLE solved ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT EXISTS ${schedule})
  message(FATAL_ERROR "solve: exit ${code}, schedule written: "
                      "${schedule}\n${solved}${err}")
endif()
execute_process(COMMAND ${CLI} eval --in ${scenario} --schedule ${schedule}
                RESULT_VARIABLE code OUTPUT_VARIABLE evaluated ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "eval: exit ${code}\n${evaluated}${err}")
endif()
string(REGEX MATCH "overall weighted utility: [^\n]*" solved_line "${solved}")
string(REGEX MATCH "overall weighted utility: [^\n]*" evaluated_line "${evaluated}")
if(solved_line STREQUAL "" OR NOT solved_line STREQUAL evaluated_line)
  message(FATAL_ERROR "solve printed '${solved_line}', eval printed "
                      "'${evaluated_line}'")
endif()

# Fails unless every key of the `stages` object in a dra-batch --json-out
# report names a pipeline stage (no function task spans, no `.round`
# substages). Run as: cmake -DREPORT=<report.json> -P check_report_stages.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)

file(READ "${REPORT}" Json)
string(JSON Count LENGTH "${Json}" stages)
if(Count EQUAL 0)
  message(FATAL_ERROR "${REPORT}: `stages` is empty")
endif()
set(PipelineStages alloc ospill coalesce recolor remap encode)
math(EXPR Last "${Count} - 1")
foreach(I RANGE ${Last})
  string(JSON Stage MEMBER "${Json}" stages ${I})
  if(NOT Stage IN_LIST PipelineStages)
    message(FATAL_ERROR "${REPORT}: `stages` lists '${Stage}', "
                        "which is not a pipeline stage")
  endif()
endforeach()
message(STATUS "${REPORT}: ${Count} pipeline stage(s)")

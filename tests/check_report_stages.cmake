# Fails unless every `stage` label of a `stage_us` histogram series in a
# dra-batch --metrics-out file names a pipeline stage (no function task
# spans, no `.round` substages): the series dra-batch's stdout stage table
# is built from. Run as:
#   cmake -DMETRICS=<metrics.json> -P check_report_stages.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)

file(READ "${METRICS}" Json)
string(JSON NumHists LENGTH "${Json}" histograms)
set(PipelineStages alloc ospill coalesce recolor remap encode)
set(Count 0)
if(NumHists GREATER 0)
  math(EXPR Last "${NumHists} - 1")
  foreach(I RANGE ${Last})
    string(JSON Name GET "${Json}" histograms ${I} name)
    if(NOT Name STREQUAL "stage_us")
      continue()
    endif()
    string(JSON Stage GET "${Json}" histograms ${I} labels stage)
    if(NOT Stage IN_LIST PipelineStages)
      message(FATAL_ERROR "${METRICS}: `stage_us` has a series for "
                          "'${Stage}', which is not a pipeline stage")
    endif()
    math(EXPR Count "${Count} + 1")
  endforeach()
endif()
if(Count EQUAL 0)
  message(FATAL_ERROR "${METRICS}: no `stage_us` series")
endif()
message(STATUS "${METRICS}: ${Count} pipeline stage series")

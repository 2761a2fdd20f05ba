# Runs one command and fails unless it exits 0 and its stdout contains
# every string in EXPECT. Run as:
#   cmake -DCMD=<exe> [-DARGS=<a|b>] [-DINPUT=<file>] [-DEXPECT=<x|y>]
#         -P check_command.cmake
# ARGS and EXPECT are '|'-separated lists; INPUT, when given, is the
# command's stdin.
cmake_minimum_required(VERSION 3.16)

string(REPLACE "|" ";" ArgList "${ARGS}")
string(REPLACE "|" ";" ExpectList "${EXPECT}")
if(DEFINED INPUT)
  set(InputOpt INPUT_FILE "${INPUT}")
endif()
execute_process(COMMAND "${CMD}" ${ArgList} ${InputOpt}
                OUTPUT_VARIABLE Out RESULT_VARIABLE Status)
message("${Out}")
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with '${Status}'")
endif()
foreach(Want IN LISTS ExpectList)
  string(FIND "${Out}" "${Want}" Pos)
  if(Pos EQUAL -1)
    message(FATAL_ERROR "${CMD}: output lacks '${Want}'")
  endif()
endforeach()

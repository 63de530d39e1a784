# Golden-output check: run a command and compare what it produced, byte for
# byte, with a checked-in golden file.
#
#   cmake -DGOLDEN=<file> [-DOUTPUT=<file>] [-DEXPECT_RC=<n>]
#         -P compare.cmake -- <cmd> [args...]
#
# Without OUTPUT the command's stdout is compared; with it, the file the
# command writes there (OUTPUT is deleted first, so a stale copy never
# passes). The command must exit with EXPECT_RC (default 0). On a mismatch
# the first differing line of both is printed.

if(NOT GOLDEN)
  message(FATAL_ERROR "compare.cmake: pass -DGOLDEN=<file>")
endif()
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()

set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(seen_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "compare.cmake: no command after --")
endif()

if(OUTPUT)
  file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND ${cmd} OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
    "command exited with ${rc} (expected ${EXPECT_RC}): ${cmd}")
endif()
if(OUTPUT)
  if(NOT EXISTS "${OUTPUT}")
    message(FATAL_ERROR "command wrote no ${OUTPUT}")
  endif()
  file(READ "${OUTPUT}" actual)
else()
  set(actual "${stdout}")
endif()
file(READ "${GOLDEN}" golden)

if(actual STREQUAL golden)
  return()
endif()

# Longest common prefix by bisection, then the line it ends in.
string(LENGTH "${golden}" len_golden)
string(LENGTH "${actual}" len_actual)
set(lo 0)
if(len_golden LESS len_actual)
  set(hi ${len_golden})
else()
  set(hi ${len_actual})
endif()
while(lo LESS hi)
  math(EXPR mid "(${lo} + ${hi} + 1) / 2")
  string(SUBSTRING "${golden}" 0 ${mid} g)
  string(SUBSTRING "${actual}" 0 ${mid} a)
  if(g STREQUAL a)
    set(lo ${mid})
  else()
    math(EXPR hi "${mid} - 1")
  endif()
endwhile()
string(SUBSTRING "${golden}" 0 ${lo} prefix)
string(REGEX MATCHALL "\n" newlines "${prefix}")
list(LENGTH newlines line)
math(EXPR line "${line} + 1")
string(FIND "${prefix}" "\n" line_start REVERSE)
math(EXPR line_start "${line_start} + 1")

function(line_at text start out)
  string(SUBSTRING "${text}" ${start} -1 rest)
  string(FIND "${rest}" "\n" end)
  string(SUBSTRING "${rest}" 0 ${end} l)
  set(${out} "${l}" PARENT_SCOPE)
endfunction()
line_at("${golden}" ${line_start} golden_line)
line_at("${actual}" ${line_start} actual_line)
message(FATAL_ERROR
  "output differs from ${GOLDEN} at line ${line}\n"
  "  golden: ${golden_line}\n"
  "  actual: ${actual_line}")

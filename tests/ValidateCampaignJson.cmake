# Smoke-tests the `gpuwmm campaign` CLI: runs a tiny grid and validates
# that the JSON report parses and contains every grid cell, using CMake's
# native string(JSON) parser (no Python/network dependency).
#
# Usage:
#   cmake -DGPUWMM_BIN=<path-to-gpuwmm> -DOUT=<scratch.json>
#         [-DMODE=tpo_hang] -P ValidateCampaignJson.cmake
#
# MODE=tpo_hang instead runs tpo-tm on both chips under every environment
# and requires hung runs to be reported (timeouts > 0): its CTest TIMEOUT
# only holds while the hang watchdog ends those runs early.

if(NOT GPUWMM_BIN OR NOT OUT)
  message(FATAL_ERROR "pass -DGPUWMM_BIN=... and -DOUT=...")
endif()

if(MODE STREQUAL "tpo_hang")
  execute_process(
    COMMAND "${GPUWMM_BIN}" campaign --chips=titan,980 --apps=tpo-tm
            --runs=10 --seed=3 --jobs=2 "--out=${OUT}"
    RESULT_VARIABLE RV)
  if(NOT RV EQUAL 0)
    message(FATAL_ERROR "gpuwmm campaign exited with ${RV}")
  endif()
  file(READ "${OUT}" REPORT)
  string(JSON NCELLS LENGTH "${REPORT}" cells)
  if(NOT NCELLS EQUAL 16) # 2 chips * 8 envs * 1 app
    message(FATAL_ERROR "expected 16 cells, got ${NCELLS}")
  endif()
  set(TIMEOUTS 0)
  math(EXPR LAST "${NCELLS} - 1")
  foreach(I RANGE ${LAST})
    string(JSON CERRS GET "${REPORT}" cells ${I} errors)
    string(JSON CTIMEOUTS GET "${REPORT}" cells ${I} timeouts)
    if(CTIMEOUTS GREATER CERRS)
      message(FATAL_ERROR "cell ${I}: timeouts ${CTIMEOUTS} > errors ${CERRS}")
    endif()
    math(EXPR TIMEOUTS "${TIMEOUTS} + ${CTIMEOUTS}")
  endforeach()
  if(NOT TIMEOUTS GREATER 0)
    message(FATAL_ERROR "tpo-tm must time out somewhere in the grid")
  endif()
  message(STATUS "tpo-tm campaign valid: ${TIMEOUTS} timeouts in ${NCELLS} cells")
  return()
endif()

set(CHIPS titan k20)
set(ENVS no-str- sys-str+)
set(APPS cbe-dot cbe-ht)
set(LITMUS MP IRIW)
list(JOIN CHIPS "," CHIPS_CSV)
list(JOIN ENVS "," ENVS_CSV)
list(JOIN APPS "," APPS_CSV)
list(JOIN LITMUS "," LITMUS_CSV)

execute_process(
  COMMAND "${GPUWMM_BIN}" campaign "--chips=${CHIPS_CSV}"
          "--envs=${ENVS_CSV}" "--apps=${APPS_CSV}"
          "--litmus=${LITMUS_CSV}" --runs=10 --seed=3
          --jobs=2 --oracle=5 "--out=${OUT}"
  RESULT_VARIABLE RV)
if(NOT RV EQUAL 0)
  message(FATAL_ERROR "gpuwmm campaign exited with ${RV}")
endif()

file(READ "${OUT}" REPORT)

string(JSON SCHEMA ERROR_VARIABLE ERR GET "${REPORT}" schema)
if(NOT SCHEMA STREQUAL "gpuwmm-campaign-v2")
  message(FATAL_ERROR "bad or missing schema: ${SCHEMA} ${ERR}")
endif()

# The schema_version + tool/build metadata header (pinned: consumers key
# migrations off these fields).
string(JSON SCHEMA_VERSION ERROR_VARIABLE ERR GET "${REPORT}" schema_version)
if(NOT SCHEMA_VERSION EQUAL 2)
  message(FATAL_ERROR "bad or missing schema_version: ${SCHEMA_VERSION} ${ERR}")
endif()
string(JSON TOOL_NAME ERROR_VARIABLE ERR GET "${REPORT}" tool name)
if(NOT TOOL_NAME STREQUAL "gpuwmm")
  message(FATAL_ERROR "bad or missing tool.name: ${TOOL_NAME} ${ERR}")
endif()
string(JSON TOOL_VERSION ERROR_VARIABLE ERR GET "${REPORT}" tool version)
if(TOOL_VERSION STREQUAL "" OR TOOL_VERSION STREQUAL "unknown")
  message(FATAL_ERROR "bad or missing tool.version: ${TOOL_VERSION}")
endif()
string(JSON ORACLE_EVERY ERROR_VARIABLE ERR GET "${REPORT}" oracle_every)
if(NOT ORACLE_EVERY EQUAL 5)
  message(FATAL_ERROR "bad or missing oracle_every: ${ORACLE_EVERY} ${ERR}")
endif()

string(JSON NCELLS LENGTH "${REPORT}" cells)
if(NOT NCELLS EQUAL 8) # 2 chips * 2 envs * 2 apps
  message(FATAL_ERROR "expected 8 cells, got ${NCELLS}")
endif()

string(JSON NSUMMARIES LENGTH "${REPORT}" summaries)
if(NOT NSUMMARIES EQUAL 4) # 2 chips * 2 envs
  message(FATAL_ERROR "expected 4 summaries, got ${NSUMMARIES}")
endif()

# Collect the (chip, env, app) triple of every reported cell, checking
# each cell carries well-formed counts.
set(SEEN "")
math(EXPR LAST "${NCELLS} - 1")
foreach(I RANGE ${LAST})
  string(JSON CCHIP GET "${REPORT}" cells ${I} chip)
  string(JSON CENV GET "${REPORT}" cells ${I} env)
  string(JSON CAPP GET "${REPORT}" cells ${I} app)
  string(JSON CRUNS GET "${REPORT}" cells ${I} runs)
  string(JSON CERRS GET "${REPORT}" cells ${I} errors)
  if(NOT CRUNS EQUAL 10)
    message(FATAL_ERROR "cell ${I}: expected 10 runs, got ${CRUNS}")
  endif()
  if(CERRS GREATER CRUNS)
    message(FATAL_ERROR "cell ${I}: errors ${CERRS} > runs ${CRUNS}")
  endif()
  # The oracle sampled this cell: axiom validation must be clean.
  string(JSON CCHECKED GET "${REPORT}" cells ${I} oracle_checked)
  string(JSON CVIOL GET "${REPORT}" cells ${I} oracle_violations)
  if(CCHECKED EQUAL 0)
    message(FATAL_ERROR "cell ${I}: oracle sampled no runs")
  endif()
  if(NOT CVIOL EQUAL 0)
    message(FATAL_ERROR "cell ${I}: ${CVIOL} oracle violation(s)")
  endif()
  # The engine field (schema v2, additive): both grid apps lower to the
  # batched engine, and this validator runs without --engine, so every
  # cell must report the batched path.
  string(JSON CENGINE ERROR_VARIABLE ERR GET "${REPORT}" cells ${I} engine)
  if(NOT CENGINE STREQUAL "batched")
    message(FATAL_ERROR "cell ${I}: expected engine 'batched', got"
                        " ${CENGINE} ${ERR}")
  endif()
  list(APPEND SEEN "${CCHIP}/${CENV}/${CAPP}")
endforeach()

# Every grid cell must be present exactly once.
foreach(CHIP IN LISTS CHIPS)
  foreach(ENV IN LISTS ENVS)
    foreach(APP IN LISTS APPS)
      set(KEY "${CHIP}/${ENV}/${APP}")
      list(FIND SEEN "${KEY}" IDX)
      if(IDX EQUAL -1)
        message(FATAL_ERROR "missing grid cell ${KEY}")
      endif()
    endforeach()
  endforeach()
endforeach()

# The litmus dimension: one cell per (chip, test), counts well-formed.
string(JSON NLITMUS LENGTH "${REPORT}" litmus)
if(NOT NLITMUS EQUAL 4) # 2 chips * 2 tests
  message(FATAL_ERROR "expected 4 litmus cells, got ${NLITMUS}")
endif()
math(EXPR LAST "${NLITMUS} - 1")
foreach(I RANGE ${LAST})
  string(JSON LTEST GET "${REPORT}" litmus ${I} test)
  string(JSON LRUNS GET "${REPORT}" litmus ${I} runs)
  string(JSON LWEAK GET "${REPORT}" litmus ${I} weak)
  list(FIND LITMUS "${LTEST}" IDX)
  if(IDX EQUAL -1)
    message(FATAL_ERROR "litmus cell ${I}: unexpected test ${LTEST}")
  endif()
  if(LWEAK GREATER LRUNS)
    message(FATAL_ERROR "litmus cell ${I}: weak ${LWEAK} > runs ${LRUNS}")
  endif()
  # Sampled litmus runs additionally pin checker-vs-simulator agreement.
  string(JSON LVIOL GET "${REPORT}" litmus ${I} oracle_violations)
  if(NOT LVIOL EQUAL 0)
    message(FATAL_ERROR "litmus cell ${I}: ${LVIOL} oracle violation(s)")
  endif()
endforeach()

message(STATUS "campaign JSON valid: ${NCELLS} cells, ${NSUMMARIES} summaries, ${NLITMUS} litmus cells")

# --- --oracle=all: every run of every cell is verified ----------------------
# A second 2x3-cell grid (1 chip x 2 envs x 3 apps) with the streaming
# oracle on every run: per-cell oracle_checked must equal runs and stay
# violation-free, and the cell counts must be bit-identical to the same
# grid with the oracle off (the oracle observes only).
set(ALL_OUT "${OUT}.oracle-all.json")
set(OFF_OUT "${OUT}.oracle-off.json")
execute_process(
  COMMAND "${GPUWMM_BIN}" campaign --chips=titan
          "--envs=no-str-,sys-str+" "--apps=cbe-dot,cbe-ht,sdk-red"
          --runs=10 --seed=3 --jobs=2 --oracle=all "--out=${ALL_OUT}"
  RESULT_VARIABLE RV)
if(NOT RV EQUAL 0)
  message(FATAL_ERROR "gpuwmm campaign --oracle=all exited with ${RV}")
endif()
execute_process(
  COMMAND "${GPUWMM_BIN}" campaign --chips=titan
          "--envs=no-str-,sys-str+" "--apps=cbe-dot,cbe-ht,sdk-red"
          --runs=10 --seed=3 --jobs=2 "--out=${OFF_OUT}"
  RESULT_VARIABLE RV)
if(NOT RV EQUAL 0)
  message(FATAL_ERROR "gpuwmm campaign (oracle off) exited with ${RV}")
endif()

file(READ "${ALL_OUT}" ALL_REPORT)
string(JSON ORACLE_EVERY ERROR_VARIABLE ERR GET "${ALL_REPORT}" oracle_every)
if(NOT ORACLE_EVERY EQUAL 1)
  message(FATAL_ERROR "--oracle=all: expected oracle_every 1, got"
                      " ${ORACLE_EVERY} ${ERR}")
endif()
string(JSON NALL LENGTH "${ALL_REPORT}" cells)
if(NOT NALL EQUAL 6) # 1 chip * 2 envs * 3 apps
  message(FATAL_ERROR "--oracle=all: expected 6 cells, got ${NALL}")
endif()
file(READ "${OFF_OUT}" OFF_REPORT)
math(EXPR LAST "${NALL} - 1")
foreach(I RANGE ${LAST})
  string(JSON ARUNS GET "${ALL_REPORT}" cells ${I} runs)
  string(JSON ACHECKED GET "${ALL_REPORT}" cells ${I} oracle_checked)
  string(JSON AVIOL GET "${ALL_REPORT}" cells ${I} oracle_violations)
  if(NOT ACHECKED EQUAL ARUNS)
    message(FATAL_ERROR "--oracle=all cell ${I}: oracle_checked"
                        " ${ACHECKED} != runs ${ARUNS}")
  endif()
  if(NOT AVIOL EQUAL 0)
    message(FATAL_ERROR "--oracle=all cell ${I}: ${AVIOL} violation(s)")
  endif()
  # Counts must not depend on the oracle: compare against the oracle-off
  # report field by field.
  foreach(FIELD chip env app runs errors timeouts engine)
    string(JSON AVAL GET "${ALL_REPORT}" cells ${I} ${FIELD})
    string(JSON OVAL GET "${OFF_REPORT}" cells ${I} ${FIELD})
    if(NOT AVAL STREQUAL OVAL)
      message(FATAL_ERROR "--oracle=all cell ${I}: ${FIELD} perturbed"
                          " (${AVAL} vs ${OVAL})")
    endif()
  endforeach()
endforeach()

message(STATUS "campaign --oracle=all valid: ${NALL} cells, every run checked")

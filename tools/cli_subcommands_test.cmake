# snipr_cli's subcommand surface: each subcommand answers --help, the
# mode flags that predate subcommands (--batch, --fleet, --trace,
# --list-scenarios, --list-traces) exit with a usage error on their own
# and under a subcommand, `trace NAME --batch` still sweeps a replay, a
# number or config the run would silently zero out is a usage error, and
# so is a flag the subcommand does not read.
# Run via ctest (cli_subcommands); expects -DSNIPR_CLI=<path>.

if(NOT DEFINED SNIPR_CLI)
  message(FATAL_ERROR
          "usage: cmake -DSNIPR_CLI=... -P cli_subcommands_test.cmake")
endif()

function(run_cli out_var rc_var)
  execute_process(COMMAND "${SNIPR_CLI}" ${ARGN}
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  set(${out_var} "${stdout}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
  set(last_stderr "${stderr}" PARENT_SCOPE)
endfunction()

# 1. Per-subcommand help answers without running anything.
foreach(sub run batch fleet trace list)
  run_cli(help rc ${sub} --help)
  if(NOT rc EQUAL 0 OR NOT help MATCHES "usage:")
    message(FATAL_ERROR "'${sub} --help' failed (rc ${rc})")
  endif()
endforeach()

# 2. The top-level mode flags are rejected: a bare flag means `run`.
foreach(flag --batch "--fleet;fleet-highway-1k"
             "--trace;synthetic-metro-drift" --list-scenarios --list-traces)
  run_cli(out rc ${flag})
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${flag}' should exit 2 (got ${rc})")
  endif()
endforeach()

# 3. So are they under a subcommand.
run_cli(out rc run --fleet fleet-highway-1k)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "'run --fleet' should exit 2 (got ${rc})")
endif()

# 4. --batch keeps its one remaining meaning: a sweep over a replay.
run_cli(out rc trace synthetic-metro-drift --batch --mechanisms rh
        --targets 16 --seeds 1 --epochs 2)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^{\"schema\":\"snipr\\.batch\\.v1\"")
  message(FATAL_ERROR "'trace NAME --batch' failed (rc ${rc})")
endif()

# 5. Non-finite numbers and configs with nothing to aggregate exit 2,
#    naming the flag or the field.
foreach(case "--budget;run --budget inf" "--target;run --target nan"
             "--targets;batch --targets 16,nan --seeds 1 --epochs 2"
             "warmup_epochs;run --warmup 20 --epochs 14"
             "epochs;run --epochs 0"
             "epochs;fleet fleet-rural-sparse --epochs 0"
             "ton;run --ton 0" "tcontact;run --tcontact 0"
             "tcontact;run --mechanism at --tcontact 0"
             "ton;trace synthetic-metro-drift --ton 0 --epochs 2")
  list(POP_FRONT case expected)
  separate_arguments(args UNIX_COMMAND "${case}")
  run_cli(out rc ${args})
  if(NOT rc EQUAL 2 OR NOT last_stderr MATCHES "${expected}")
    message(FATAL_ERROR "'${case}' should exit 2 naming ${expected} "
                        "(got ${rc}: ${last_stderr})")
  endif()
endforeach()

# 6. A subcommand rejects every flag it would parse and then ignore,
#    naming the flag and the subcommand. One row per (subcommand, foreign
#    flag), each on an otherwise valid command line.
function(expect_foreign sub command)
  separate_arguments(command_args UNIX_COMMAND "${command}")
  foreach(row ${ARGN})
    separate_arguments(flag_args UNIX_COMMAND "${row}")
    list(GET flag_args 0 flag)
    run_cli(out rc ${command_args} ${flag_args})
    if(NOT rc EQUAL 2 OR
       NOT last_stderr MATCHES "'${flag}' is not an option of '${sub}'")
      message(FATAL_ERROR "'${command} ${row}' should exit 2 naming "
                          "${flag} and ${sub} (got ${rc}: ${last_stderr})")
    endif()
  endforeach()
endfunction()

expect_foreign(run "run"
  "--mechanisms rh" "--targets 16" "--budgets 1" "--seeds 1"
  "--threads 1" "--json out.json" "--shards 2" "--trace-dir data"
  "--replay-jitter 0")
expect_foreign(run ""
  "--mechanisms rh" "--json out.json" "--shards 2")
expect_foreign(batch "batch"
  "--mechanism rh" "--seed 1" "--csv" "--shards 2" "--trace-dir data"
  "--replay-jitter 0")
expect_foreign(fleet "fleet fleet-rural-sparse --epochs 3"
  "--scenario roadside" "--mechanism at" "--target 48" "--budget 1"
  "--warmup 2" "--csv" "--deterministic" "--ton 0.02" "--tcontact 2"
  "--mechanisms rh" "--targets 16" "--budgets 1" "--seeds 1"
  "--trace-dir data" "--replay-jitter 0")
expect_foreign(trace "trace synthetic-metro-drift"
  "--scenario roadside" "--mechanisms rh" "--targets 16" "--budgets 1"
  "--seeds 1" "--threads 1" "--json out.json" "--shards 2")
expect_foreign("trace --batch" "trace synthetic-metro-drift --batch"
  "--scenario roadside" "--mechanism rh" "--seed 1" "--csv" "--shards 2")
expect_foreign(list "list"
  "--scenario roadside" "--mechanism rh" "--target 16" "--budget 1"
  "--csv" "--seed 1" "--epochs 2" "--warmup 1" "--deterministic"
  "--ton 0.02" "--tcontact 2" "--mechanisms rh" "--targets 16"
  "--budgets 1" "--seeds 1" "--threads 1" "--json out.json"
  "--shards 2" "--trace-dir data" "--replay-jitter 0")

message(STATUS "cli subcommands: all checks passed")

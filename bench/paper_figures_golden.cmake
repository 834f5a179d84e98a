# Runs `bench_paper table1 fig3 fig4 fig5` and compares the SHA-256 of its
# stdout with a golden digest.
#
#   cmake -DBENCH_PAPER=<path to bench_paper> -P paper_figures_golden.cmake
#
# The golden was captured at commit 51cf841 from the four separate binaries
# that printed these figures before bench_paper existed
# (bench_table1_datasets, bench_fig3_batch_opencyc,
# bench_fig4_specific_domains, bench_fig5_filtering), their stdout
# concatenated in that order. It therefore proves that one process running
# several figures prints what separate processes printed. It cannot be
# regenerated from bench_paper itself: an intended change to these figures
# must be explained in CHANGES.md together with the new digest.
#
# Changes since the capture:
#  - a run that never converged prints `strict_convergence=none` instead of
#    `strict_convergence=0` (one line, Figure 4(c)); the old output with
#    that one substitution is byte-identical to the new.
set(golden 0187231dd1994e00bbf412987bd80931cbe4e7ea955c20cfcfe5caf5bff38c96)

execute_process(
  COMMAND ${BENCH_PAPER} table1 fig3 fig4 fig5
  OUTPUT_VARIABLE figures
  ERROR_VARIABLE log
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_paper exited with ${status}:\n${log}")
endif()
string(SHA256 digest "${figures}")
if(NOT digest STREQUAL golden)
  message(FATAL_ERROR
    "printed figures changed: sha256 ${digest}, golden ${golden}\n${figures}")
endif()
message(STATUS "paper figures match the golden digest ${golden}")

/**
 * @file
 * The paper's figures, tables and Section 5 ablations, one function
 * each. `mcd_cli regen <target>[,<target>...]` lists them in one table
 * and runs the requested ones in order in one process, so every target
 * shares the process-wide ArtifactCache: an artifact two targets need
 * simulates once, and with a disk store (--store / MCD_STORE) once
 * across invocations.
 *
 * Each function prints its table to stdout and progress to stderr.
 * `config` is the methodology (standardConfig() plus any --store
 * override); a target may adjust its copy (the traces start at
 * instruction 0) or ignore it (Table 3 is analytic).
 */

#ifndef MCD_BENCH_FIGURES_HH
#define MCD_BENCH_FIGURES_HH

#include "harness/runner.hh"

namespace mcd::bench
{

void fig2LsqTrace(RunnerConfig config);
void fig3FiqTrace(RunnerConfig config);
void fig4PerApp(RunnerConfig config);
void fig5PerfdegTarget(RunnerConfig config);
void fig6EdpSensitivity(RunnerConfig config);
void fig7PprSensitivity(RunnerConfig config);
void table3Gates(RunnerConfig config);
void table6Summary(RunnerConfig config);
void ablationEndstop(RunnerConfig config);
void ablationFrontend(RunnerConfig config);
void ablationGlobal(RunnerConfig config);
void ablationInterval(RunnerConfig config);
void ablationListing(RunnerConfig config);
void ablationMcdOverhead(RunnerConfig config);

} // namespace mcd::bench

#endif // MCD_BENCH_FIGURES_HH

/**
 * @file
 * Parallel sweep walkthrough: a small Figure 4-style sweep that fans a
 * batch of per-benchmark experiment specs across the worker threads
 * with runExperiments and compares Attack/Decay against the fully
 * synchronous machine.
 *
 * Each benchmark contributes two specs — the synchronous reference and
 * the Attack/Decay run — on one methodology whose clock seed is derived
 * from the benchmark's index, so both consume the same clock stream
 * and their comparison is apples-to-apples. Results (and the printed
 * table) are bit-identical for any worker count; rerun with MCD_JOBS=1
 * to check.
 *
 * Usage: example_parallel_sweep_demo            # all workers
 *        MCD_JOBS=2 example_parallel_sweep_demo # forced worker count
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/metrics.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table.hh"

int
main()
{
    const std::vector<std::string> benches = {"adpcm", "epic", "gsm",
                                              "mcf", "swim"};

    mcd::RunnerConfig config;
    config.instructions = 100000;
    config.warmup = 20000;
    config.applyEnvOverrides();

    // Build the batch: two variants per benchmark, one derived clock
    // seed per benchmark.
    std::vector<mcd::ExperimentSpec> specs;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        mcd::RunnerConfig seeded = config;
        seeded.clockSeed = mcd::deriveJobSeed(config.clockSeed, i);
        specs.push_back({.benchmark = benches[i],
                         .mode = mcd::ClockMode::Synchronous,
                         .config = seeded});
        specs.push_back(
            {.benchmark = benches[i],
             .controller = mcd::attackDecaySpec(mcd::AttackDecayConfig{}),
             .config = seeded});
    }

    mcd::ParallelSweep sweep(config.jobs); // MCD_JOBS or all threads
    std::printf("running %zu jobs on %d workers\n\n", specs.size(),
                sweep.workers());
    auto results = mcd::runExperiments(specs, config.jobs);

    // Aggregate in spec order through the metrics layer.
    mcd::TextTable table(
        "Attack/Decay vs fully synchronous (mini Figure 4)");
    table.setHeader({"benchmark", "perf degradation", "energy savings",
                     "EDP improvement"});
    std::vector<mcd::ComparisonMetrics> all;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const mcd::SimStats &sync = results[2 * i];
        const mcd::SimStats &ad = results[2 * i + 1];
        mcd::ComparisonMetrics m = mcd::compare(sync, ad);
        all.push_back(m);
        table.addRow({benches[i], mcd::pct(m.perfDegradation),
                      mcd::pct(m.energySavings),
                      mcd::pct(m.edpImprovement)});
    }
    table.addRow({"average",
                  mcd::pct(mcd::meanOf(
                      all, &mcd::ComparisonMetrics::perfDegradation)),
                  mcd::pct(mcd::meanOf(
                      all, &mcd::ComparisonMetrics::energySavings)),
                  mcd::pct(mcd::meanOf(
                      all, &mcd::ComparisonMetrics::edpImprovement))});
    std::printf("%s", table.render().c_str());
    return 0;
}

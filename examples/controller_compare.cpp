/**
 * @file
 * Controller bake-off example: runs a handful of benchmarks under the
 * fully synchronous machine, the baseline MCD machine, Attack/Decay,
 * the off-line Dynamic-1%, and matched global scaling, and prints one
 * comparison table per benchmark — a miniature Table 6.
 *
 * Usage: controller_compare [bench1,bench2,...]
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/table.hh"
#include "workload/scenario_registry.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> benches = {"epic", "mcf", "swim"};
    if (argc > 1) {
        benches.clear();
        std::stringstream ss(argv[1]);
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty())
                benches.push_back(item);
    }
    for (const auto &bench : benches) {
        mcd::BenchmarkSpec spec;
        std::string error;
        if (!mcd::ScenarioRegistry::instance().resolve(bench, spec,
                                                       &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
    }

    mcd::RunnerConfig config;
    config.instructions = 150000;
    config.warmup = 30000;
    config.applyEnvOverrides();
    mcd::ArtifactCache &cache = mcd::ArtifactCache::instance();

    for (const auto &bench : benches) {
        std::fprintf(stderr, "running %s ...\n", bench.c_str());
        // Every variant is a spec: cached products resolve through
        // getOrRun, the one-off runs go straight to runExperiment.
        mcd::ProfileSpec baseline{.benchmark = bench, .config = config};
        std::vector<mcd::IntervalProfile> profile =
            cache.getOrRun(baseline);
        mcd::SimStats mcd_base = cache.getOrRun(baseline.experimentSpec());
        mcd::SimStats sync = mcd::runExperiment(
            {.benchmark = bench,
             .mode = mcd::ClockMode::Synchronous,
             .startFreq = 1.0e9,
             .config = config});
        mcd::SimStats ad = mcd::runExperiment(
            {.benchmark = bench,
             .controller = mcd::attackDecaySpec(mcd::AttackDecayConfig{}),
             .config = config});
        mcd::OfflineResult dyn1 = cache.getOrRun(
            mcd::OfflineSearchSpec{.benchmark = bench,
                                   .targetDeg = 0.01,
                                   .mcdBase = mcd_base,
                                   .profile = profile,
                                   .config = config});
        mcd::ComparisonMetrics m_ad = mcd::compare(mcd_base, ad);
        mcd::GlobalResult global;
        global.freq =
            mcd::globalMatchedFrequency(config.dvfs, m_ad.perfDegradation);
        global.stats = cache.getOrRun(
            mcd::ExperimentSpec{.benchmark = bench,
                                .mode = mcd::ClockMode::Synchronous,
                                .startFreq = global.freq,
                                .config = config});

        mcd::TextTable table(bench + " — relative to baseline MCD");
        table.setHeader({"variant", "perf deg", "energy savings",
                         "EDP improvement"});
        auto add = [&table, &mcd_base](const std::string &name,
                                       const mcd::SimStats &stats) {
            mcd::ComparisonMetrics m = mcd::compare(mcd_base, stats);
            table.addRow({name, mcd::pct(m.perfDegradation),
                          mcd::pct(m.energySavings),
                          mcd::pct(m.edpImprovement)});
        };
        add("fully synchronous @1GHz", sync);
        add("Attack/Decay", ad);
        add("Dynamic-1% (off-line)", dyn1.stats);
        add("Global @" + mcd::ghz(global.freq), global.stats);
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}

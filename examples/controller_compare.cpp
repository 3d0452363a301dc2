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

#include "harness/runner.hh"
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
    mcd::Runner runner(config);

    for (const auto &bench : benches) {
        std::fprintf(stderr, "running %s ...\n", bench.c_str());
        std::vector<mcd::IntervalProfile> profile;
        mcd::SimStats mcd_base = runner.runMcdBaseline(bench, &profile);
        mcd::SimStats sync = runner.runSynchronous(bench, 1.0e9);
        mcd::SimStats ad =
            runner.runAttackDecay(bench, mcd::AttackDecayConfig{});
        mcd::OfflineResult dyn1 =
            runner.runOfflineDynamic(bench, 0.01, mcd_base, profile);
        mcd::ComparisonMetrics m_ad = mcd::compare(mcd_base, ad);
        mcd::GlobalResult global =
            runner.runGlobalAtDegradation(bench, m_ad.perfDegradation);

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

/**
 * @file
 * Regenerates Figure 2 of the paper: (a) the percent change in
 * load/store queue utilization between successive intervals for `epic`
 * (decode), against the +/- DeviationThreshold band (1.75 %), and
 * (b) the load/store domain frequency the Attack/Decay algorithm
 * chooses. The paper shows the 4-5M instruction window; we print the
 * proportional window of our scaled run (the middle 20 %).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "figures.hh"
#include "bench_util.hh"
#include "harness/metrics.hh"

using namespace mcd;
using namespace mcd::bench;

void
mcd::bench::fig2LsqTrace(RunnerConfig config)
{
    std::printf("=== Figure 2: load/store domain statistics for epic "
                "decode ===\n");
    config.warmup = 0;
    printMethodology(config);

    struct Sample
    {
        std::uint64_t instructions;
        double lsqUtilization;
        double lsFreq;
    };
    std::vector<Sample> samples;

    std::uint64_t insns = 0;
    AttackDecayConfig adc = scaledAttackDecayConfig();
    runExperiment({.benchmark = "epic",
                   .controller = attackDecaySpec(adc),
                   .config = config},
                  [&](const IntervalStats &stats) {
                      insns += stats.instructions;
                      samples.push_back(
                          {insns, stats.domains[CTL_LS].queueUtilization,
                           stats.domains[CTL_LS].frequency});
                  });

    // The paper's window is 4-5M of 6.7M instructions; take the same
    // relative slice (60 % - 75 % of the run).
    std::size_t begin = samples.size() * 60 / 100;
    std::size_t end = samples.size() * 75 / 100;

    std::printf("deviation threshold: +/- %s\n\n",
                pct(adc.deviationThreshold, 2).c_str());
    std::printf("instructions,lsq_util_change_pct,ls_freq_ghz\n");
    double prev = begin > 0 ? samples[begin - 1].lsqUtilization : 0.0;
    for (std::size_t i = begin; i < end && i < samples.size(); ++i) {
        double change = prev > 0.0
            ? (samples[i].lsqUtilization - prev) / prev
            : 0.0;
        std::printf("%llu,%.3f,%.4f\n",
                    static_cast<unsigned long long>(
                        samples[i].instructions),
                    change * 100.0, samples[i].lsFreq / 1e9);
        prev = samples[i].lsqUtilization;
    }

    std::printf("\nFigure 2(b) sketch (load/store frequency):\n");
    prev = begin > 0 ? samples[begin - 1].lsqUtilization : 0.0;
    for (std::size_t i = begin; i < end && i < samples.size(); ++i) {
        double f = samples[i].lsFreq / 1e9;
        int bar = static_cast<int>((f - 0.25) / 0.75 * 50.0 + 0.5);
        double change = prev > 0.0
            ? (samples[i].lsqUtilization - prev) / prev * 100.0
            : 0.0;
        prev = samples[i].lsqUtilization;
        std::printf("%9llu |%-50s| %.2f GHz  d=%+.1f%%\n",
                    static_cast<unsigned long long>(
                        samples[i].instructions),
                    std::string(static_cast<std::size_t>(
                                    std::max(bar, 0)), '#')
                        .c_str(),
                    f, change);
    }
}

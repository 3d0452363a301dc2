/**
 * @file
 * Regenerates Figure 3 of the paper: (a) floating-point issue queue
 * utilization and (b) the floating-point domain frequency chosen by the
 * Attack/Decay algorithm, over the run of `epic` (decode). The paper's
 * signature shape: the FP domain is unused except for two distinct
 * phases; frequency decays while unused and attacks upward when the
 * phases begin.
 *
 * The paper plots 0-6.7M instructions with 10k-instruction intervals
 * (~670 samples). Our scaled run keeps the same number of control
 * epochs; the instruction axis is proportionally compressed.
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "bench_util.hh"
#include "harness/metrics.hh"

using namespace mcd;
using namespace mcd::bench;

void
mcd::bench::fig3FiqTrace(RunnerConfig config)
{
    std::printf("=== Figure 3: floating-point domain statistics for "
                "epic decode ===\n");
    config.warmup = 0; // the figure starts at instruction 0
    printMethodology(config);

    struct Sample
    {
        std::uint64_t instructions;
        double fiqUtilization;
        double fpFreq;
    };
    std::vector<Sample> samples;

    std::uint64_t insns = 0;
    runExperiment({.benchmark = "epic",
                   .controller = attackDecaySpec(scaledAttackDecayConfig()),
                   .config = config},
                  [&](const IntervalStats &stats) {
                      insns += stats.instructions;
                      samples.push_back(
                          {insns, stats.domains[CTL_FP].queueUtilization,
                           stats.domains[CTL_FP].frequency});
                  });

    std::printf("instructions,fiq_utilization,fp_freq_ghz\n");
    for (const auto &s : samples) {
        std::printf("%llu,%.3f,%.4f\n",
                    static_cast<unsigned long long>(s.instructions),
                    s.fiqUtilization, s.fpFreq / 1e9);
    }

    // Compact ASCII rendition of Figure 3(b).
    std::printf("\nFigure 3(b) sketch (each row = 1/40 of the run; "
                "# bar = FP frequency 0.25-1.0 GHz, u = utilization):\n");
    std::size_t stride = samples.size() / 40 + 1;
    for (std::size_t i = 0; i < samples.size(); i += stride) {
        double f = samples[i].fpFreq / 1e9;
        int bar = static_cast<int>((f - 0.25) / 0.75 * 50.0 + 0.5);
        std::printf("%9llu |%-50s| %.2f GHz  u=%.2f\n",
                    static_cast<unsigned long long>(
                        samples[i].instructions),
                    std::string(static_cast<std::size_t>(
                                    std::max(bar, 0)), '#')
                        .c_str(),
                    f, samples[i].fiqUtilization);
    }
}

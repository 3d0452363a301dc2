/**
 * @file
 * Regenerates Figure 6 of the paper: sensitivity of the energy-delay-
 * product improvement (relative to the baseline MCD processor) to the
 * three Attack/Decay parameters:
 *   (a) DecayPercent            (config 1.500_04.0_X.XXX_3.0)
 *   (b) ReactionChangePercent   (config 1.500_XX.X_0.750_3.0)
 *   (c) DeviationThresholdPercent (config X.XXX_06.0_0.175_2.5)
 */

#include <cstdio>
#include <vector>

#include "figures.hh"
#include "sweep_util.hh"

using namespace mcd;
using namespace mcd::bench;

namespace
{

void
sweep(const RunnerConfig &config, const std::vector<std::string> &names,
      const SweepBaselines &baselines, const char *title,
      const std::vector<double> &values,
      AttackDecayConfig (*make)(double))
{
    TextTable table(title);
    table.setHeader({"parameter", "EDP improvement (vs MCD)",
                     "energy savings (vs MCD)"});
    for (double v : values) {
        std::fprintf(stderr, "  sweep %s = %.3f%%\n", title, v * 100);
        SweepPoint p =
            runSweepPoint(config, names, baselines, make(v), v);
        table.addRow({pct(v, 3), pct(p.edpImprovementVsMcd),
                      pct(p.energySavingsVsMcd)});
    }
    std::printf("%s\ncsv:\n%s\n", table.render().c_str(),
                table.csv().c_str());
}

} // namespace

void
mcd::bench::fig6EdpSensitivity(RunnerConfig config)
{
    std::printf("=== Figure 6: Attack/Decay sensitivity analysis, "
                "energy-delay product improvements ===\n");
    printMethodology(config);

    auto names = sweepBenchmarks();
    auto baselines = computeBaselines(config, names);

    sweep(config, names, baselines,
          "Figure 6(a): DecayPercent sensitivity (1.500_04.0_X.XXX_3.0)",
          {0.0005, 0.00175, 0.005, 0.0075, 0.010, 0.015, 0.020},
          [](double v) {
              AttackDecayConfig adc;
              adc.deviationThreshold = 0.015;
              adc.reactionChange = 0.04;
              adc.decay = v;
              adc.perfDegThreshold = 0.03;
              return adc;
          });

    sweep(config, names, baselines,
          "Figure 6(b): ReactionChange sensitivity "
          "(1.500_XX.X_0.750_3.0)",
          {0.005, 0.02, 0.04, 0.06, 0.09, 0.12, 0.155},
          [](double v) {
              AttackDecayConfig adc;
              adc.deviationThreshold = 0.015;
              adc.reactionChange = v;
              adc.decay = 0.0075;
              adc.perfDegThreshold = 0.03;
              return adc;
          });

    sweep(config, names, baselines,
          "Figure 6(c): DeviationThreshold sensitivity "
          "(X.XXX_06.0_0.175_2.5)",
          {0.0, 0.005, 0.0075, 0.0125, 0.0175, 0.025},
          [](double v) {
              AttackDecayConfig adc;
              adc.deviationThreshold = v;
              adc.reactionChange = 0.06;
              adc.decay = 0.00175;
              adc.perfDegThreshold = 0.025;
              return adc;
          });

    std::printf("paper shape: each curve peaks in a broad flat middle "
                "range and falls off at the extremes.\n");
}

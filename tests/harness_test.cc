/**
 * @file
 * Tests for the experiment harness: metric arithmetic, table/CSV
 * rendering, and the canonical experiment specs and searches on small
 * windows.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/metrics.hh"
#include "harness/experiment.hh"
#include "harness/table.hh"

namespace mcd
{
namespace
{

SimStats
makeStats(Tick time, NanoJoule energy, std::uint64_t insts = 1000)
{
    SimStats stats;
    stats.instructions = insts;
    stats.time = time;
    stats.chipEnergy = energy;
    stats.feCycles = static_cast<std::uint64_t>(time);
    stats.cpi = static_cast<double>(stats.feCycles) /
                static_cast<double>(insts);
    stats.epi = energy / static_cast<double>(insts);
    return stats;
}

TEST(Metrics, CompareBasics)
{
    SimStats ref = makeStats(1000, 1000.0);
    SimStats x = makeStats(1100, 800.0);
    ComparisonMetrics m = compare(ref, x);
    EXPECT_NEAR(m.perfDegradation, 0.10, 1e-12);
    EXPECT_NEAR(m.energySavings, 0.20, 1e-12);
    // EDP: 1 - (800*1100)/(1000*1000) = 0.12
    EXPECT_NEAR(m.edpImprovement, 0.12, 1e-12);
    // Power: 1 - (800/1100)/(1000/1000) = 1 - 0.7272..
    EXPECT_NEAR(m.powerSavings, 1.0 - 800.0 / 1100.0, 1e-12);
    EXPECT_NEAR(m.epiReduction, 0.20, 1e-12);
    EXPECT_NEAR(m.cpiIncrease, 0.10, 1e-12);
}

TEST(Metrics, IdenticalRunsAreAllZero)
{
    SimStats s = makeStats(1000, 1000.0);
    ComparisonMetrics m = compare(s, s);
    EXPECT_DOUBLE_EQ(m.perfDegradation, 0.0);
    EXPECT_DOUBLE_EQ(m.energySavings, 0.0);
    EXPECT_DOUBLE_EQ(m.edpImprovement, 0.0);
}

TEST(Metrics, MeanOf)
{
    std::vector<ComparisonMetrics> all(2);
    all[0].energySavings = 0.10;
    all[1].energySavings = 0.30;
    EXPECT_DOUBLE_EQ(meanOf(all, &ComparisonMetrics::energySavings),
                     0.20);
    EXPECT_DOUBLE_EQ(meanOf({}, &ComparisonMetrics::energySavings),
                     0.0);
}

TEST(Metrics, PowerPerfRatio)
{
    std::vector<ComparisonMetrics> all(2);
    all[0].powerSavings = 0.20;
    all[0].perfDegradation = 0.05;
    all[1].powerSavings = 0.10;
    all[1].perfDegradation = 0.05;
    // mean power 15% / mean deg 5% = 3.
    EXPECT_NEAR(powerPerfRatio(all), 3.0, 1e-12);
}

TEST(Metrics, PowerPerfRatioZeroWhenNoDegradation)
{
    std::vector<ComparisonMetrics> all(1);
    all[0].powerSavings = 0.2;
    all[0].perfDegradation = 0.0;
    EXPECT_DOUBLE_EQ(powerPerfRatio(all), 0.0);
}

TEST(Table, RenderAlignsColumns)
{
    TextTable table("title");
    table.setHeader({"a", "bbbb"});
    table.addRow({"xx", "y"});
    std::string out = table.render();
    EXPECT_NE(out.find("title\n"), std::string::npos);
    EXPECT_NE(out.find("a   bbbb\n"), std::string::npos);
    EXPECT_NE(out.find("xx  y\n"), std::string::npos);
}

TEST(Table, CsvIsCommaSeparated)
{
    TextTable table;
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    EXPECT_EQ(table.csv(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(pct(0.032), "3.2%");
    EXPECT_EQ(pct(0.0175, 2), "1.75%");
    EXPECT_EQ(num(4.567, 1), "4.6");
    EXPECT_EQ(ghz(1.0e9, 1), "1.0 GHz");
    EXPECT_EQ(ghz(6.544e8, 3), "0.654 GHz");
}

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 20000;
    config.warmup = 5000;
    config.intervalInstructions = 500;
    return config;
}

ArtifactCache &
cache()
{
    return ArtifactCache::instance();
}

/** The baseline MCD run (the profiling pass's SimStats artifact). */
ExperimentSpec
mcdBaseline(const std::string &bench)
{
    return ProfileSpec{.benchmark = bench, .config = tinyConfig()}
        .experimentSpec();
}

ExperimentSpec
synchronous(const std::string &bench, Hertz freq)
{
    return {.benchmark = bench,
            .mode = ClockMode::Synchronous,
            .startFreq = freq,
            .config = tinyConfig()};
}

ExperimentSpec
schedule(const std::string &bench, std::vector<FrequencyVector> freqs)
{
    return {.benchmark = bench,
            .controller = {.name = "schedule", .schedule = freqs},
            .config = tinyConfig()};
}

TEST(Experiments, SynchronousAndMcdBaselines)
{
    SimStats sync = runExperiment(synchronous("gsm", 1.0e9));
    SimStats mcd = cache().getOrRun(mcdBaseline("gsm"));
    EXPECT_EQ(sync.instructions, 20000u);
    EXPECT_EQ(mcd.instructions, 20000u);
    // MCD pays sync penalties and clock overhead.
    EXPECT_GT(mcd.time, sync.time);
    EXPECT_GT(mcd.epi, sync.epi);
}

TEST(Experiments, BaselineProfilesEveryMeasuredInterval)
{
    std::vector<IntervalProfile> profile = cache().getOrRun(
        ProfileSpec{.benchmark = "gsm", .config = tinyConfig()});
    // Methodology v2: the observer engages at the measurement
    // boundary, so only measured / interval boundaries are recorded.
    EXPECT_GE(profile.size(), 40u);
    EXPECT_LE(profile.size(), 41u);
    for (const auto &p : profile) {
        EXPECT_EQ(p.instructions, 500u);
        EXPECT_GT(p.cycles[CTL_INT], 0u);
    }
}

TEST(Experiments, AttackDecaySavesEnergyOnPhasedWorkload)
{
    SimStats mcd = cache().getOrRun(mcdBaseline("adpcm"));
    SimStats ad = runExperiment(
        {.benchmark = "adpcm",
         .controller = attackDecaySpec(AttackDecayConfig{}),
         .config = tinyConfig()});
    ComparisonMetrics m = compare(mcd, ad);
    EXPECT_GT(m.energySavings, 0.01);
    EXPECT_LT(m.perfDegradation, 0.15);
}

TEST(Experiments, ScheduleRunsApplySchedules)
{
    SimStats fast = runExperiment(
        schedule("gsm", {FrequencyVector{1.0e9, 1.0e9, 1.0e9}}));
    SimStats slow = runExperiment(
        schedule("gsm", {FrequencyVector{250.0e6, 250.0e6, 250.0e6}}));
    EXPECT_GT(slow.time, fast.time);
    EXPECT_LT(slow.chipEnergy, fast.chipEnergy);
}

/** The off-line Dynamic-X% search of `bench` against its baseline. */
struct OfflineRun
{
    SimStats mcd;
    OfflineResult result;
};

OfflineRun
offline(const std::string &bench, double target_deg)
{
    ProfileSpec baseline{.benchmark = bench, .config = tinyConfig()};
    std::vector<IntervalProfile> profile = cache().getOrRun(baseline);
    SimStats mcd = cache().getOrRun(baseline.experimentSpec());
    return {mcd, cache().getOrRun(OfflineSearchSpec{
                     .benchmark = bench,
                     .targetDeg = target_deg,
                     .mcdBase = mcd,
                     .profile = profile,
                     .config = tinyConfig()})};
}

TEST(Experiments, OfflineSearchRespectsCap)
{
    auto [mcd, result] = offline("gsm", 0.05);
    EXPECT_LE(result.achievedDeg, 0.05 + 1e-9);
    EXPECT_GE(result.margin, 0.0);
    EXPECT_LE(result.margin, 1.0);
    // The schedule must save energy against the baseline.
    EXPECT_LT(result.stats.chipEnergy, mcd.chipEnergy);
}

TEST(Experiments, OfflineFiveIsAtLeastAsAggressiveAsOne)
{
    OfflineResult dyn1 = offline("epic", 0.01).result;
    OfflineResult dyn5 = offline("epic", 0.05).result;
    EXPECT_LE(dyn5.stats.chipEnergy, dyn1.stats.chipEnergy * 1.001);
}

TEST(Experiments, GlobalAtDegradationScalesFrequency)
{
    Hertz freq = globalMatchedFrequency(tinyConfig().dvfs, 0.10);
    SimStats global = cache().getOrRun(synchronous("gsm", freq));
    EXPECT_NEAR(freq, 1.0e9 / 1.10, 1.0e9 / 1.10 * 0.01);
    SimStats sync = runExperiment(synchronous("gsm", 1.0e9));
    ComparisonMetrics m = compare(sync, global);
    EXPECT_GT(m.perfDegradation, 0.0);
    EXPECT_GT(m.energySavings, 0.0);
}

TEST(Experiments, GlobalMatchingHitsTargetTime)
{
    SimStats sync = runExperiment(synchronous("gsm", 1.0e9));
    Tick target = static_cast<Tick>(
        static_cast<double>(sync.time) * 1.08);
    GlobalResult result = cache().getOrRun(GlobalMatchSpec{
        .benchmark = "gsm", .targetTime = target, .config = tinyConfig()});
    double error = std::abs(static_cast<double>(result.stats.time) -
                            static_cast<double>(target)) /
                   static_cast<double>(target);
    EXPECT_LT(error, 0.03);
    EXPECT_LT(result.freq, 1.0e9);
}

/** Scoped unsetter so env-var tests cannot leak into one another. */
class EnvGuard
{
  public:
    EnvGuard()
    {
        clear();
    }

    ~EnvGuard()
    {
        clear();
    }

  private:
    void
    clear()
    {
        unsetenv("MCD_INSNS");
        unsetenv("MCD_WARMUP");
        unsetenv("MCD_INTERVAL");
        unsetenv("MCD_JOBS");
    }
};

TEST(RunnerConfig, EnvOverrides)
{
    EnvGuard guard;
    setenv("MCD_INSNS", "12345", 1);
    setenv("MCD_WARMUP", "678", 1);
    setenv("MCD_INTERVAL", "250", 1);
    setenv("MCD_JOBS", "4", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    EXPECT_EQ(config.instructions, 12345u);
    EXPECT_EQ(config.warmup, 678u);
    EXPECT_EQ(config.intervalInstructions, 250);
    EXPECT_EQ(config.jobs, 4);
}

TEST(RunnerConfig, EnvOverridesAbsentLeaveDefaults)
{
    EnvGuard guard;
    RunnerConfig config;
    config.applyEnvOverrides();
    RunnerConfig defaults;
    EXPECT_EQ(config.instructions, defaults.instructions);
    EXPECT_EQ(config.warmup, defaults.warmup);
    EXPECT_EQ(config.intervalInstructions,
              defaults.intervalInstructions);
    EXPECT_EQ(config.jobs, defaults.jobs);
}

TEST(RunnerConfig, EnvOverridesIgnoreBadValues)
{
    EnvGuard guard;
    // Non-numeric, zero, and negative values must not clobber a sane
    // configuration (zero instructions or interval would hang or
    // divide by zero downstream).
    setenv("MCD_INSNS", "banana", 1);
    setenv("MCD_WARMUP", "-5", 1);
    setenv("MCD_INTERVAL", "0", 1);
    setenv("MCD_JOBS", "-2", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    RunnerConfig defaults;
    EXPECT_EQ(config.instructions, defaults.instructions);
    EXPECT_EQ(config.warmup, defaults.warmup);
    EXPECT_EQ(config.intervalInstructions,
              defaults.intervalInstructions);
    EXPECT_EQ(config.jobs, defaults.jobs);
}

TEST(RunnerConfig, EnvOverridesAllowZeroWarmup)
{
    EnvGuard guard;
    // Warm-up may legitimately be disabled entirely.
    setenv("MCD_WARMUP", "0", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    EXPECT_EQ(config.warmup, 0u);
}

TEST(RunnerConfig, EnvOverridesPartialSetTouchesOnlyThatKnob)
{
    EnvGuard guard;
    setenv("MCD_INTERVAL", "750", 1);
    RunnerConfig config;
    config.applyEnvOverrides();
    RunnerConfig defaults;
    EXPECT_EQ(config.intervalInstructions, 750);
    EXPECT_EQ(config.instructions, defaults.instructions);
    EXPECT_EQ(config.warmup, defaults.warmup);
    EXPECT_EQ(config.jobs, defaults.jobs);
}

TEST(Experiments, IdenticalVariantsShareTheWorkloadStream)
{
    // Two baseline runs of the same benchmark must be bit-identical:
    // the workload and clocks are seeded deterministically.
    SimStats a = runExperiment(mcdBaseline("bh"));
    SimStats b = runExperiment(mcdBaseline("bh"));
    EXPECT_EQ(a.time, b.time);
    EXPECT_DOUBLE_EQ(a.chipEnergy, b.chipEnergy);
}

} // namespace
} // namespace mcd

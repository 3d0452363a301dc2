/**
 * @file
 * Tests for the batch sweep engine: the thread pool, deterministic
 * per-job seed derivation, and the central property that a sweep (and
 * everything layered on it, including the offline Dynamic-X% search)
 * produces bit-identical results for any worker count, with
 * aggregation independent of completion order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/metrics.hh"
#include "harness/parallel_sweep.hh"

namespace mcd
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableBetweenBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 10 * (batch + 1));
    }
}

TEST(ThreadPool, ClampsWorkerCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(DeriveJobSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(deriveJobSeed(12345, 0), deriveJobSeed(12345, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(deriveJobSeed(12345, i));
    EXPECT_EQ(seeds.size(), 1000u);
    // Different bases give different streams.
    EXPECT_NE(deriveJobSeed(1, 0), deriveJobSeed(2, 0));
}

TEST(ParallelSweep, ForEachCoversEveryIndexOnce)
{
    ParallelSweep sweep(4);
    std::vector<std::atomic<int>> hits(257);
    sweep.forEach(hits.size(),
                  [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelSweep, MapReturnsResultsInIndexOrder)
{
    ParallelSweep sweep(8);
    auto values = sweep.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], i * i);
}

TEST(ParallelSweep, ForEachRethrowsLowestIndexException)
{
    ParallelSweep sweep(4);
    try {
        sweep.forEach(16, [](std::size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("job " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 3");
    }
}

TEST(ParallelSweep, DefaultWorkersHonorsMcdJobs)
{
    setenv("MCD_JOBS", "3", 1);
    EXPECT_EQ(ParallelSweep::defaultWorkers(), 3);
    EXPECT_EQ(ParallelSweep(0).workers(), 3);
    EXPECT_EQ(ParallelSweep(5).workers(), 5); // explicit wins
    setenv("MCD_JOBS", "junk", 1);
    EXPECT_GE(ParallelSweep::defaultWorkers(), 1);
    unsetenv("MCD_JOBS");
    EXPECT_GE(ParallelSweep::defaultWorkers(), 1);
}

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 8000;
    config.warmup = 2000;
    config.intervalInstructions = 500;
    return config;
}

/** `bench` under `controller` on the clock stream of `seed_index`:
 *  the seed-matching rule every bench-side batch follows. */
ExperimentSpec
seeded(const std::string &bench, std::uint64_t seed_index,
       const ControllerSpec &controller = {.name = "profiling"})
{
    RunnerConfig config = tinyConfig();
    config.clockSeed = deriveJobSeed(config.clockSeed, seed_index);
    return {.benchmark = bench, .controller = controller, .config = config};
}

const std::vector<std::string> kNames = {"adpcm", "gsm", "mcf", "epic",
                                         "swim"};

/** One baseline MCD spec per benchmark, seed index = position. */
std::vector<ExperimentSpec>
tinySpecs(const ControllerSpec &controller = {.name = "profiling"})
{
    std::vector<ExperimentSpec> specs;
    for (std::size_t i = 0; i < kNames.size(); ++i)
        specs.push_back(seeded(kNames[i], i, controller));
    return specs;
}

/** runExperiments on a cold cache: every spec really simulates on the
 *  given worker count (a warm cache would answer from memory). */
std::vector<SimStats>
runCold(const std::vector<ExperimentSpec> &specs, int workers)
{
    ArtifactCache cold;
    return runExperiments(specs, workers, cold);
}

void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.feCycles, b.feCycles);
    EXPECT_EQ(a.time, b.time);
    // Bit-identical, not approximately equal: the whole point is that
    // scheduling never perturbs a single floating-point operation.
    EXPECT_EQ(a.chipEnergy, b.chipEnergy);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epi, b.epi);
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        EXPECT_EQ(a.domainEnergy[static_cast<std::size_t>(d)],
                  b.domainEnergy[static_cast<std::size_t>(d)]);
    }
}

TEST(ParallelSweepRuns, OneWorkerAndManyWorkersAreBitIdentical)
{
    auto specs = tinySpecs();
    auto serial = runCold(specs, 1);
    auto parallel4 = runCold(specs, 4);
    auto parallel8 = runCold(specs, 8);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel4.size(), specs.size());
    ASSERT_EQ(parallel8.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Results land in spec order...
        expectIdenticalStats(serial[i], runExperiment(specs[i]));
        // ...bit-identically for any worker count.
        expectIdenticalStats(serial[i], parallel4[i]);
        expectIdenticalStats(serial[i], parallel8[i]);
    }
}

TEST(ParallelSweepRuns, SeedIndexSelectsTheClockStream)
{
    // Same seed index => identical machine; different seed index =>
    // different jittered clock stream => different timings. Uncached
    // runs, so the two equal specs really simulate twice.
    std::vector<ExperimentSpec> specs = {
        seeded("gsm", 7), seeded("gsm", 7), seeded("gsm", 8)};
    auto results = ParallelSweep(3).map<SimStats>(
        specs.size(),
        [&](std::size_t i) { return runExperiment(specs[i]); });
    expectIdenticalStats(results[0], results[1]);
    EXPECT_NE(results[0].time, results[2].time);
}

TEST(ParallelSweepRuns, AggregationIsIndependentOfCompletionOrder)
{
    // Aggregate the same batch through the metrics layer from result
    // vectors produced under different worker counts (and hence
    // different completion orders): because results land in spec
    // order, every floating-point accumulation is performed in the
    // same sequence and the aggregate is bit-identical.
    auto specs = tinySpecs();
    auto ad_specs = tinySpecs(attackDecaySpec(AttackDecayConfig{}));

    auto aggregate = [&](int workers) {
        ArtifactCache cache;
        auto base = runExperiments(specs, workers, cache);
        auto variant = runExperiments(ad_specs, workers, cache);
        std::vector<ComparisonMetrics> all;
        for (std::size_t i = 0; i < base.size(); ++i)
            all.push_back(compare(base[i], variant[i]));
        return std::pair<double, double>(
            meanOf(all, &ComparisonMetrics::energySavings),
            powerPerfRatio(all));
    };

    auto [mean1, ppr1] = aggregate(1);
    auto [mean2, ppr2] = aggregate(2);
    auto [mean7, ppr7] = aggregate(7);
    EXPECT_EQ(mean1, mean2);
    EXPECT_EQ(mean1, mean7);
    EXPECT_EQ(ppr1, ppr2);
    EXPECT_EQ(ppr1, ppr7);
}

TEST(ParallelSweepRuns, OfflineSearchIsBitIdenticalForAnyWorkerCount)
{
    // The offline Dynamic-X% margin search fans its schedule probes
    // through the engine; its result must not depend on the worker
    // count either. Each search starts from a cold cache, so its
    // probes really run on that many workers.
    auto search = [](int jobs) {
        ArtifactCache cache;
        RunnerConfig config = tinyConfig();
        config.jobs = jobs;
        ProfileSpec baseline{.benchmark = "gsm", .config = config};
        std::vector<IntervalProfile> profile = cache.getOrRun(baseline);
        SimStats mcd = cache.getOrRun(baseline.experimentSpec());
        return cache.getOrRun(OfflineSearchSpec{.benchmark = "gsm",
                                                .targetDeg = 0.05,
                                                .mcdBase = mcd,
                                                .profile = profile,
                                                .config = config});
    };

    OfflineResult serial = search(1);
    OfflineResult parallel = search(6);
    EXPECT_EQ(serial.margin, parallel.margin);
    EXPECT_EQ(serial.achievedDeg, parallel.achievedDeg);
    expectIdenticalStats(serial.stats, parallel.stats);
}

} // namespace
} // namespace mcd

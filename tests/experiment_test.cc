/**
 * @file
 * Tests for the declarative experiment layer: ExperimentSpec cache
 * keys, the ControllerRegistry, the ArtifactCache (hit/miss behavior,
 * shared baselines, batch dedup, nested work staying in the cache that
 * asked for it), and the fewer-total-simulations property of
 * figure-style sweeps run in one process.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/serial.hh"
#include "eval/trace.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "workload/scenario_registry.hh"

namespace mcd
{
namespace
{

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 4000;
    config.warmup = 1000;
    config.intervalInstructions = 500;
    return config;
}

ExperimentSpec
tinySpec(const std::string &bench,
         const ControllerSpec &controller = ControllerSpec{},
         ClockMode mode = ClockMode::Mcd)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.mode = mode;
    spec.controller = controller;
    spec.config = tinyConfig();
    return spec;
}

ControllerSpec
profilingSpec()
{
    ControllerSpec spec;
    spec.name = "profiling";
    return spec;
}

class ArtifactCacheTest : public ::testing::Test
{
  protected:
    ArtifactCache cache;
};

// ---------------------------------------------------------- cache keys

TEST(ExperimentSpec, EqualSpecsShareAKey)
{
    EXPECT_EQ(tinySpec("gsm").cacheKey(), tinySpec("gsm").cacheKey());
}

TEST(ExperimentSpec, KeyDistinguishesEveryAxis)
{
    ExperimentSpec base = tinySpec("gsm");

    EXPECT_NE(base.cacheKey(), tinySpec("adpcm").cacheKey());

    ExperimentSpec mode = base;
    mode.mode = ClockMode::Synchronous;
    EXPECT_NE(base.cacheKey(), mode.cacheKey());

    ExperimentSpec freq = base;
    freq.startFreq = 0.5e9;
    EXPECT_NE(base.cacheKey(), freq.cacheKey());

    ExperimentSpec controller = base;
    controller.controller = attackDecaySpec(AttackDecayConfig{});
    EXPECT_NE(base.cacheKey(), controller.cacheKey());

    ExperimentSpec params = controller;
    params.controller.params["decay"] = 0.0125;
    EXPECT_NE(controller.cacheKey(), params.cacheKey());

    ExperimentSpec seed = base;
    seed.config.clockSeed = 999;
    EXPECT_NE(base.cacheKey(), seed.cacheKey());

    ExperimentSpec window = base;
    window.config.instructions = 8000;
    EXPECT_NE(base.cacheKey(), window.cacheKey());
}

TEST(ExperimentSpec, WorkerCountIsNotPartOfTheKey)
{
    // The determinism contract makes results independent of the
    // worker count, so differing `jobs` must still share a cache slot.
    ExperimentSpec serial = tinySpec("gsm");
    serial.config.jobs = 1;
    ExperimentSpec wide = tinySpec("gsm");
    wide.config.jobs = 8;
    EXPECT_EQ(serial.cacheKey(), wide.cacheKey());
}

TEST(ExperimentSpec, StoreRootIsNotPartOfTheKey)
{
    // Where a result is stored never changes its value, so configs
    // differing only in `store` must share a cache slot.
    ExperimentSpec local = tinySpec("gsm");
    ExperimentSpec stored = tinySpec("gsm");
    stored.config.store = "/tmp/somewhere";
    EXPECT_EQ(local.cacheKey(), stored.cacheKey());
}

TEST(ExperimentSpec, TypedSpecKeyNamespacesNeverCollide)
{
    // Four spec types over one benchmark and config: every pair of
    // keys must differ, including ProfileSpec against the profiling
    // ExperimentSpec of the same run (distinct artifacts of it).
    ProfileSpec profile;
    profile.benchmark = "gsm";
    profile.config = tinyConfig();

    OfflineSearchSpec offline;
    offline.benchmark = "gsm";
    offline.config = tinyConfig();

    GlobalMatchSpec global;
    global.benchmark = "gsm";
    global.config = tinyConfig();

    std::vector<std::string> keys = {
        profile.cacheKey(), profile.experimentSpec().cacheKey(),
        offline.cacheKey(), global.cacheKey(),
        tinySpec("gsm").cacheKey()};
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(ExperimentSpec, SearchSpecKeysCoverTheirInputs)
{
    OfflineSearchSpec base;
    base.benchmark = "gsm";
    base.config = tinyConfig();

    OfflineSearchSpec target = base;
    target.targetDeg = 0.05;
    EXPECT_NE(base.cacheKey(), target.cacheKey());

    OfflineSearchSpec stats = base;
    stats.mcdBase.time = 123;
    EXPECT_NE(base.cacheKey(), stats.cacheKey());

    OfflineSearchSpec profiled = base;
    profiled.profile.emplace_back();
    EXPECT_NE(base.cacheKey(), profiled.cacheKey());

    GlobalMatchSpec gbase;
    gbase.benchmark = "gsm";
    gbase.config = tinyConfig();
    GlobalMatchSpec gtime = gbase;
    gtime.targetTime = 777;
    EXPECT_NE(gbase.cacheKey(), gtime.cacheKey());
}

TEST(ExperimentSpec, OfflineSearchKeysAreDigestSizedNotPayloadSized)
{
    // Key format v2: the baseline stats and interval profile enter as
    // fixed-width digests, so the key must not grow with the profile
    // (v1 embedded both payloads, producing multi-KB keys duplicated
    // into every store entry).
    OfflineSearchSpec small;
    small.benchmark = "gsm";
    small.config = tinyConfig();

    OfflineSearchSpec big = small;
    big.profile.resize(5000);
    for (std::size_t i = 0; i < big.profile.size(); ++i)
        big.profile[i].instructions = i;

    EXPECT_EQ(small.cacheKey().size(), big.cacheKey().size());
    EXPECT_LT(big.cacheKey().size(), 600u);
    EXPECT_NE(small.cacheKey(), big.cacheKey());
    EXPECT_NE(big.cacheKey().find("offline_search/2"),
              std::string::npos);

    // The digests still cover the payloads: a one-field flip anywhere
    // inside either nested input is a different key.
    OfflineSearchSpec flipped_profile = big;
    flipped_profile.profile[4999].ipc = 1.0e-9;
    EXPECT_NE(big.cacheKey(), flipped_profile.cacheKey());
    OfflineSearchSpec flipped_base = big;
    flipped_base.mcdBase.chipEnergy += 1.0;
    EXPECT_NE(big.cacheKey(), flipped_base.cacheKey());
}

TEST(ExperimentSpec, DescribeNamesTheSpecForProvenance)
{
    ExperimentSpec spec = tinySpec("gsm");
    spec.controller = attackDecaySpec(AttackDecayConfig{});
    std::string text = spec.describe();
    EXPECT_NE(text.find("type=experiment"), std::string::npos);
    EXPECT_NE(text.find("benchmark=gsm"), std::string::npos);
    EXPECT_NE(text.find("controller=attack_decay"), std::string::npos);

    OfflineSearchSpec search;
    search.benchmark = "em3d";
    search.targetDeg = 0.05;
    search.config = tinyConfig();
    EXPECT_NE(search.describe().find("type=offline_search"),
              std::string::npos);
    EXPECT_NE(search.describe().find("target_deg=0.05"),
              std::string::npos);
}

/**
 * The exact key bytes of every artifact namespace, pinned as FNV-1a
 * digests. A store entry is found only by its key, so a refactor that
 * reorders, adds or drops key bytes orphans every existing store
 * without any error; it must fail here instead. Changing a layout on
 * purpose means bumping its namespace (or METHODOLOGY_VERSION) and
 * re-recording these constants.
 */
TEST(ExperimentSpec, CacheKeyLayoutIsPinned)
{
    RunnerConfig config = tinyConfig();
    config.clockSeed = 777;
    // Excluded from every key: changing them must not move a digest.
    config.jobs = 3;
    config.store = "/nonexistent/store";
    config.checkpointEvery = 500;

    ExperimentSpec experiment;
    experiment.benchmark = "gsm";
    experiment.mode = ClockMode::Synchronous;
    experiment.startFreq = 0.8e9;
    experiment.controller = attackDecaySpec(AttackDecayConfig{});
    experiment.config = config;

    ProfileSpec profile;
    profile.benchmark = "em3d";
    profile.config = config;

    OfflineSearchSpec offline;
    offline.benchmark = "gsm";
    offline.targetDeg = 0.05;
    offline.mcdBase.time = 123456;
    offline.mcdBase.chipEnergy = 42.5;
    offline.profile.resize(2);
    offline.profile[1].instructions = 500;
    offline.profile[1].ipc = 1.25;
    offline.config = config;

    GlobalMatchSpec global;
    global.benchmark = "adpcm";
    global.targetTime = 987654321;
    global.config = config;

    CheckpointSpec checkpoint;
    checkpoint.benchmark = "gsm";
    checkpoint.mode = ClockMode::Mcd;
    checkpoint.at = 1000;
    checkpoint.config = config;

    TraceSpec trace;
    trace.benchmark = "gsm";
    trace.controller.name = "schedule";
    trace.controller.schedule = {FrequencyVector{0.5e9, 0.6e9, 0.7e9}};
    trace.oracle = {FrequencyVector{0.9e9, 0.8e9, 0.7e9}};
    trace.config = config;

    EXPECT_EQ(serial::fnv1a(experiment.cacheKey()), 0x123e8ffd69b082c6ull);
    EXPECT_EQ(serial::fnv1a(profile.cacheKey()), 0x33d578289e83f29full);
    EXPECT_EQ(serial::fnv1a(offline.cacheKey()), 0x52e45dcb5cc290e6ull);
    EXPECT_EQ(serial::fnv1a(global.cacheKey()), 0xc047edde3e6d85f8ull);
    EXPECT_EQ(serial::fnv1a(checkpoint.cacheKey()), 0x03bb71a2bdd21601ull);
    EXPECT_EQ(serial::fnv1a(trace.cacheKey()), 0x35577ad631ec2b34ull);
}

TEST(ExperimentSpec, ExplicitMaxFrequencyMatchesDefault)
{
    ExperimentSpec implicit = tinySpec("gsm");
    ExperimentSpec explicit_max = tinySpec("gsm");
    explicit_max.startFreq = explicit_max.config.dvfs.freqMax;
    EXPECT_EQ(implicit.cacheKey(), explicit_max.cacheKey());
}

// ------------------------------------------------------------ registry

TEST(ControllerRegistry, BuiltinsAreRegistered)
{
    ControllerRegistry &registry = ControllerRegistry::instance();
    for (const char *name :
         {"none", "constant", "profiling", "schedule", "attack_decay",
          "frontend_attack_decay"})
        EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_GE(registry.list().size(), 4u);
    EXPECT_FALSE(registry.contains("no_such_controller"));
}

TEST(ControllerRegistry, NoneCreatesNull)
{
    EXPECT_EQ(ControllerRegistry::instance().create(ControllerSpec{}),
              nullptr);
}

TEST(ControllerRegistry, AttackDecaySpecRoundTripsExactly)
{
    AttackDecayConfig config;
    config.deviationThreshold = 0.0123;
    config.reactionChange = 0.045;
    config.decay = 0.00275;
    config.perfDegThreshold = 0.031;
    config.endstopCount = 7;
    config.literalListingGuard = true;

    AttackDecayConfig back =
        attackDecayConfigFromSpec(attackDecaySpec(config));
    EXPECT_EQ(back.deviationThreshold, config.deviationThreshold);
    EXPECT_EQ(back.reactionChange, config.reactionChange);
    EXPECT_EQ(back.decay, config.decay);
    EXPECT_EQ(back.perfDegThreshold, config.perfDegThreshold);
    EXPECT_EQ(back.endstopCount, config.endstopCount);
    EXPECT_EQ(back.literalListingGuard, config.literalListingGuard);
}

TEST(ControllerRegistry, ParseControllerSpec)
{
    ControllerSpec plain = parseControllerSpec("attack_decay");
    EXPECT_EQ(plain.name, "attack_decay");
    EXPECT_TRUE(plain.params.empty());

    ControllerSpec with_params =
        parseControllerSpec("attack_decay:decay=0.0125,endstop_count=5");
    EXPECT_EQ(with_params.name, "attack_decay");
    EXPECT_DOUBLE_EQ(with_params.params.at("decay"), 0.0125);
    EXPECT_DOUBLE_EQ(with_params.params.at("endstop_count"), 5.0);
}

TEST(ControllerRegistry, MalformedControllerTextIsAnErrorValue)
{
    ControllerSpec spec;
    std::string error;
    EXPECT_FALSE(parseControllerSpec("attack_decay:decay", spec, &error));
    EXPECT_EQ("controller parameter 'decay' is not key=value", error);
    EXPECT_FALSE(parseControllerSpec("attack_decay:decay=fast", spec,
                                     &error));
    EXPECT_EQ("controller parameter 'decay': 'fast' is not a number",
              error);
    EXPECT_FALSE(parseControllerSpec(":decay=1", spec, &error));
    EXPECT_EQ("empty controller name in ':decay=1'", error);
    // The grammar does not consult the registry: names and params are
    // ControllerRegistry::check's job.
    EXPECT_TRUE(parseControllerSpec("attack_decay:bogus=1", spec, &error));
}

TEST(ControllerRegistry, CheckRejectsUndeclaredAndMissingParams)
{
    ControllerRegistry &registry = ControllerRegistry::instance();
    std::string error;
    EXPECT_TRUE(registry.check(parseControllerSpec("attack_decay:decay=0.01"),
                               &error))
        << error;
    EXPECT_TRUE(registry.check(parseControllerSpec("constant:freq=5e8"),
                               &error))
        << error;

    EXPECT_FALSE(
        registry.check(parseControllerSpec("attack_decay:bogus=1"), &error));
    EXPECT_EQ("controller 'attack_decay' has no parameter 'bogus'", error);
    EXPECT_FALSE(registry.check(parseControllerSpec("constant"), &error));
    EXPECT_EQ("controller 'constant' requires a 'freq' parameter (Hz)",
              error);
    EXPECT_FALSE(registry.check(parseControllerSpec("no_such"), &error));
    EXPECT_EQ("unknown controller 'no_such' (mcd_cli list shows "
              "registered names)",
              error);
}

TEST(ExperimentSpec, ValidateChecksScenarioAndController)
{
    ExperimentSpec spec;
    spec.benchmark = "gsm";
    std::string error;
    EXPECT_TRUE(validateExperiment(spec, &error)) << error;

    spec.benchmark = "synthetic:bogus=1";
    EXPECT_FALSE(validateExperiment(spec, &error));
    EXPECT_NE(std::string::npos, error.find("unknown knob 'bogus'"))
        << error;

    spec.benchmark = "gsm";
    spec.controller = parseControllerSpec("constant");
    EXPECT_FALSE(validateExperiment(spec, &error));
    EXPECT_EQ("controller 'constant' requires a 'freq' parameter (Hz)",
              error);

    // The methodology: a positive window and interval, and a horizon
    // (instructions + warmup) that does not wrap.
    spec.controller = ControllerSpec{};
    spec.config.instructions = 0;
    EXPECT_FALSE(validateExperiment(spec, &error));
    EXPECT_EQ("\"instructions\" and \"interval\" must be positive", error);
    spec.config.instructions = 1ull << 63;
    spec.config.warmup = 1ull << 63;
    EXPECT_FALSE(validateExperiment(spec, &error));
    EXPECT_EQ("\"instructions\" + \"warmup\" must be below 2^64", error);
    spec.config.warmup = (1ull << 63) - 1;
    EXPECT_TRUE(validateExperiment(spec, &error)) << error;
}

// --------------------------------------------------------- ArtifactCache

TEST_F(ArtifactCacheTest, MissThenHit)
{
    ExperimentSpec spec = tinySpec("gsm");

    SimStats first = cache.getOrRun(spec);
    EXPECT_EQ(cache.lookups(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.simulationsRun(), 1u);

    SimStats second = cache.getOrRun(spec);
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.simulationsRun(), 1u);

    // A cached result is indistinguishable from re-simulating.
    EXPECT_EQ(first.time, second.time);
    EXPECT_EQ(first.chipEnergy, second.chipEnergy);

    SimStats fresh = runExperiment(spec, {}, cache);
    EXPECT_EQ(first.time, fresh.time);
    EXPECT_EQ(first.chipEnergy, fresh.chipEnergy);
    EXPECT_EQ(first.feCycles, fresh.feCycles);
}

TEST_F(ArtifactCacheTest, DistinctSpecsMissIndependently)
{
    cache.getOrRun(tinySpec("gsm"));
    cache.getOrRun(tinySpec("adpcm"));
    EXPECT_EQ(cache.simulationsRun(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(ArtifactCacheTest, SeedMatchedVariantsShareACachedBaseline)
{
    // Two variant workflows of one benchmark — a figure comparing
    // Attack/Decay against the MCD baseline, and a sweep comparing a
    // schedule replay against the same baseline — request the same
    // seed-matched baseline spec. It must simulate exactly once.
    RunnerConfig seeded = tinyConfig();
    seeded.clockSeed = deriveJobSeed(seeded.clockSeed, 3);

    ExperimentSpec baseline = tinySpec("gsm", profilingSpec());
    baseline.config = seeded;

    // Workflow 1: baseline + Attack/Decay.
    cache.getOrRun(baseline);
    ExperimentSpec ad =
        tinySpec("gsm", attackDecaySpec(AttackDecayConfig{}));
    ad.config = seeded;
    cache.getOrRun(ad);

    // Workflow 2 re-requests the baseline for its own comparison.
    cache.getOrRun(baseline);

    EXPECT_EQ(cache.simulationsRun(), 2u); // baseline once, A/D once
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(ArtifactCacheTest, BatchDeduplicatesAgainstItselfAndTheCache)
{
    ExperimentSpec spec = tinySpec("gsm");

    std::vector<ExperimentSpec> batch = {spec, spec, spec};
    auto results = runExperiments(batch, 2, cache);
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(cache.simulationsRun(), 1u);
    EXPECT_EQ(results[0].time, results[1].time);
    EXPECT_EQ(results[0].time, results[2].time);

    // A later batch containing the same spec is served from cache.
    auto again = runExperiments({spec}, 1, cache);
    EXPECT_EQ(cache.simulationsRun(), 1u);
    EXPECT_EQ(again[0].time, results[0].time);
}

TEST_F(ArtifactCacheTest, InflightMapDrainsOnceRequestsResolve)
{
    // Regression: fetch used to leave one resolved Inflight per unique
    // key in the map forever, growing it by every spec a process ever
    // requested. The map must be empty whenever no request is active —
    // including after concurrent batches, repeats, and nested
    // (search-probe) requests.
    EXPECT_EQ(cache.inflightEntries(), 0u);

    std::vector<ExperimentSpec> batch;
    for (const char *bench : {"gsm", "em3d", "adpcm"}) {
        batch.push_back(tinySpec(bench));
        batch.push_back(tinySpec(bench)); // duplicates share a flight
    }
    runExperiments(batch, 4, cache);
    EXPECT_EQ(cache.inflightEntries(), 0u);
    EXPECT_EQ(cache.size(), 3u);

    cache.getOrRun(tinySpec("gsm")); // re-request after the erase
    EXPECT_EQ(cache.simulationsRun(), 3u);
    EXPECT_EQ(cache.inflightEntries(), 0u);

    // Nested requests: an offline search fans out probe requests
    // through the same map.
    ProfileSpec baseline{.benchmark = "gsm", .config = tinyConfig()};
    std::vector<IntervalProfile> profile = cache.getOrRun(baseline);
    SimStats mcd = cache.getOrRun(baseline.experimentSpec());
    cache.getOrRun(OfflineSearchSpec{.benchmark = "gsm",
                                     .targetDeg = 0.05,
                                     .mcdBase = mcd,
                                     .profile = profile,
                                     .config = tinyConfig()});
    EXPECT_GT(cache.lookups(), 6u);
    EXPECT_EQ(cache.inflightEntries(), 0u);
}

TEST_F(ArtifactCacheTest, SyntheticScenariosRunThroughTheLayer)
{
    SimStats stats =
        cache.getOrRun(tinySpec("synthetic:mem=0.9,ilp=4,phases=4"));
    EXPECT_EQ(stats.instructions, tinyConfig().instructions);
    EXPECT_GT(stats.time, 0u);
}

/**
 * The figure-sweep property the cache exists for: fig5/fig6/fig7-style
 * sweeps over one benchmark list, run in one process, issue strictly
 * fewer simulations than the naive one-run-per-request count, because
 * the per-benchmark baselines — and any sweep points whose
 * configurations coincide (Figure 6(a) at decay 0.75% equals Figure
 * 6(b) at reaction 4%) — simulate once.
 */
TEST_F(ArtifactCacheTest, FigureStyleSweepsIssueStrictlyFewerSimulations)
{
    RunnerConfig base = tinyConfig();
    std::vector<std::string> names = {"gsm", "em3d"};

    auto seedMatched = [&](const ControllerSpec &controller,
                           ClockMode mode) {
        std::vector<ExperimentSpec> specs;
        for (std::size_t i = 0; i < names.size(); ++i) {
            ExperimentSpec spec = tinySpec(names[i], controller, mode);
            spec.config.clockSeed =
                deriveJobSeed(base.clockSeed, i);
            specs.push_back(spec);
        }
        return specs;
    };

    auto adConfig = [](double dev, double rc, double decay,
                       double pdt) {
        AttackDecayConfig adc;
        adc.deviationThreshold = dev;
        adc.reactionChange = rc;
        adc.decay = decay;
        adc.perfDegThreshold = pdt;
        return adc;
    };

    std::uint64_t naive = 0;
    auto runSweep = [&](const AttackDecayConfig &adc) {
        naive += names.size();
        runExperiments(seedMatched(attackDecaySpec(adc),
                                   ClockMode::Mcd), 1, cache);
    };

    // Baselines, as computeBaselines issues them.
    naive += 2 * names.size();
    runExperiments(seedMatched(profilingSpec(), ClockMode::Mcd), 1,
                   cache);
    runExperiments(seedMatched(ControllerSpec{},
                               ClockMode::Synchronous), 1, cache);

    // fig6(a)-style decay sweep and fig6(b)-style reaction sweep: the
    // (0.015, 0.04, 0.0075, 0.03) point appears in both.
    for (double decay : {0.005, 0.0075})
        runSweep(adConfig(0.015, 0.04, decay, 0.03));
    for (double rc : {0.04, 0.06})
        runSweep(adConfig(0.015, rc, 0.0075, 0.03));

    std::uint64_t after_fig6 = cache.simulationsRun();
    EXPECT_LT(after_fig6, naive);

    // A fig7-style pass re-runs the same configurations for its own
    // metric; in one process it must not simulate at all.
    for (double decay : {0.005, 0.0075})
        runSweep(adConfig(0.015, 0.04, decay, 0.03));
    for (double rc : {0.04, 0.06})
        runSweep(adConfig(0.015, rc, 0.0075, 0.03));

    EXPECT_EQ(cache.simulationsRun(), after_fig6);
    EXPECT_LT(cache.simulationsRun(), naive);
    EXPECT_EQ(cache.lookups(), naive);
}

/**
 * The offline Dynamic-1% and Dynamic-5% searches of one benchmark
 * share their coarse probe grid; running both through the cache must
 * issue strictly fewer schedule replays than the two searches probe.
 */
TEST_F(ArtifactCacheTest, OfflineSearchesShareCoarseProbes)
{
    ProfileSpec baseline{.benchmark = "gsm", .config = tinyConfig()};
    std::vector<IntervalProfile> profile = cache.getOrRun(baseline);
    OfflineSearchSpec search{.benchmark = "gsm",
                             .mcdBase =
                                 cache.getOrRun(baseline.experimentSpec()),
                             .profile = profile,
                             .config = tinyConfig()};

    search.targetDeg = 0.01;
    cache.getOrRun(search);
    std::uint64_t after_first = cache.simulationsRun();
    std::uint64_t lookups_first = cache.lookups();
    EXPECT_GT(after_first, 0u);

    search.targetDeg = 0.05;
    cache.getOrRun(search);
    std::uint64_t second_lookups = cache.lookups() - lookups_first;
    std::uint64_t second_sims = cache.simulationsRun() - after_first;
    // The second search re-probes the identical coarse grid (and
    // possibly more): strictly fewer simulations than probes.
    EXPECT_LT(second_sims, second_lookups);
}

/**
 * Every nested request of a build — a run's warm-up checkpoint, a
 * global-DVFS search's calibration probes — resolves in, and is
 * counted by, the cache that asked for it. The process-wide instance()
 * sees none of it.
 */
TEST(ArtifactCache, PrivateCacheOwnsItsNestedWork)
{
    ArtifactCache &global = ArtifactCache::instance();
    const std::uint64_t global_lookups = global.lookups();
    const std::uint64_t global_sims = global.simulationsRun();
    const std::uint64_t global_insns = global.simulatedInstructions();

    RunnerConfig config;
    config.instructions = 3000;
    config.warmup = 500;

    // A checkpointed run: the run and its warm-up checkpoint, with the
    // warm-up the checkpoint stepped credited here too.
    ArtifactCache checkpointed;
    RunnerConfig ladder = config;
    ladder.checkpointEvery = 500;
    checkpointed.getOrRun(
        ExperimentSpec{.benchmark = "gsm", .config = ladder});
    EXPECT_EQ(checkpointed.lookups(), 2u);
    EXPECT_EQ(checkpointed.simulationsRun(), 2u);
    EXPECT_EQ(checkpointed.simulatedInstructions(), 3501u);

    // A global-DVFS match to a 5% slower run: its f_max calibration
    // probe is the run this cache already holds, so it hits instead of
    // simulating again.
    ArtifactCache matched;
    SimStats full = matched.getOrRun(
        ExperimentSpec{.benchmark = "gsm",
                       .mode = ClockMode::Synchronous,
                       .config = config});
    matched.getOrRun(GlobalMatchSpec{.benchmark = "gsm",
                                     .targetTime = full.time * 21 / 20,
                                     .config = config});
    EXPECT_EQ(matched.lookups(), 5u);
    EXPECT_EQ(matched.simulationsRun(), 3u);
    EXPECT_EQ(matched.simulatedInstructions(), 10503u);

    EXPECT_EQ(global.lookups(), global_lookups);
    EXPECT_EQ(global.simulationsRun(), global_sims);
    EXPECT_EQ(global.simulatedInstructions(), global_insns);
}

} // namespace
} // namespace mcd

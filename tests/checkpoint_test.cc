/**
 * @file
 * Tests for warm-up checkpoints, core to harness: exact
 * save/restore/resume at the Simulator level, the SimCheckpoint
 * artifact encoding (round trips and decode rejection), stale or
 * corrupt store entries reading as misses that heal, the bit-identity
 * contract of simulate()'s fast-forward path (checkpointed and
 * straight-through runs produce byte-identical SimStats, on paper
 * apps and adversarial synthetics alike), checkpoint sharing across
 * controllers, and the per-op/batched power-accounting equivalence
 * the interval batching refactor must preserve.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "common/serial.hh"
#include "control/attack_decay.hh"
#include "control/controller_registry.hh"
#include "core/simulator.hh"
#include "harness/artifact_store.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "workload/benchmark_factory.hh"

namespace mcd
{
namespace
{

namespace fs = std::filesystem;

void
expectStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.feCycles, b.feCycles);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.chipEnergy, b.chipEnergy); // exact, not NEAR
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epi, b.epi);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.domainEnergy, b.domainEnergy);
}

RunnerConfig
tinyConfig()
{
    RunnerConfig config;
    config.instructions = 4000;
    config.warmup = 3000;
    config.intervalInstructions = 500;
    return config;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = (fs::temp_directory_path() /
                 (std::string("mcd_checkpoint_test.") + info->name() +
                  "." + std::to_string(::getpid())))
                    .string();
        fs::remove_all(root_);
        // simulate() resolves checkpoints through the process-wide
        // cache; start (and leave) it empty and memory-only.
        ArtifactCache::instance().clear();
        ArtifactCache::instance().detachDiskStore();
    }

    void
    TearDown() override
    {
        ArtifactCache::instance().clear();
        ArtifactCache::instance().detachDiskStore();
        fs::remove_all(root_);
    }

    /** Flip one byte in the middle of a store entry file. */
    static void
    corruptFile(const std::string &path)
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good()) << path;
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 0);
        f.seekg(size / 2);
        char c = 0;
        f.read(&c, 1);
        f.seekp(size / 2);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    }

    CheckpointSpec
    tinyCheckpointSpec(std::uint64_t at) const
    {
        CheckpointSpec spec;
        spec.benchmark = "gsm";
        spec.at = at;
        spec.config = tinyConfig();
        return spec;
    }

    ExperimentSpec
    tinyExperimentSpec(const std::string &bench,
                       const ControllerSpec &controller) const
    {
        ExperimentSpec spec;
        spec.benchmark = bench;
        spec.controller = controller;
        spec.config = tinyConfig();
        return spec;
    }

    std::string root_;
};

// ------------------------------------------------------ core save/load

TEST(SimulatorCheckpoint, RestoreResumesBitIdentically)
{
    auto straight = [] {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(12000);
        return sim.stats();
    };

    std::string snapshot;
    {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        Simulator sim(SimConfig{}, *workload);
        sim.runTo(7000);
        sim.saveCheckpoint(snapshot);
    }

    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(SimConfig{}, *workload);
    serial::Reader in(snapshot);
    ASSERT_TRUE(sim.restoreCheckpoint(in));
    EXPECT_GE(sim.committed(), 7000u);
    sim.runTo(12000);

    expectStatsIdentical(straight(), sim.stats());
}

TEST(SimulatorCheckpoint, RestoreRejectsWrongFormatAndTruncation)
{
    auto workload = BenchmarkFactory::create("gsm", 100000);
    Simulator sim(SimConfig{}, *workload);
    sim.runTo(2000);
    std::string snapshot;
    sim.saveCheckpoint(snapshot);

    auto fresh = BenchmarkFactory::create("gsm", 100000);
    Simulator target(SimConfig{}, *fresh);

    // Future format version (the leading u64) must read as a failure.
    std::string bumped = snapshot;
    bumped[0] = static_cast<char>(bumped[0] + 1);
    serial::Reader bad_version(bumped);
    EXPECT_FALSE(target.restoreCheckpoint(bad_version));

    // Truncation latches the reader and must fail, not zero-fill.
    std::string cut = snapshot.substr(0, snapshot.size() / 2);
    serial::Reader truncated(cut);
    EXPECT_FALSE(target.restoreCheckpoint(truncated));
}

// ------------------------------------------------- artifact encoding

TEST(CheckpointArtifact, RoundTripIsExact)
{
    SimCheckpoint ckpt;
    ckpt.atInstructions = 123456789;
    ckpt.state = std::string("\x00\x01machine\xff bytes\x00", 16);

    SimCheckpoint back;
    ASSERT_TRUE(decodeArtifact(encodeArtifact(ckpt), back));
    EXPECT_EQ(back.atInstructions, ckpt.atInstructions);
    EXPECT_EQ(back.state, ckpt.state);
}

TEST(CheckpointArtifact, DecodeRejectsVersionTypeAndTruncation)
{
    SimCheckpoint ckpt;
    ckpt.atInstructions = 42;
    ckpt.state = "snapshot-bytes";
    std::string blob = encodeArtifact(ckpt);
    SimCheckpoint back;

    // Bump the artifact version (the u64 right after the
    // length-prefixed type name): future blobs read as misses.
    std::string bumped = blob;
    std::size_t version_at =
        sizeof(std::uint64_t) + std::string("sim_checkpoint").size();
    bumped[version_at] = 2;
    EXPECT_FALSE(decodeArtifact(bumped, back));

    // A checkpoint blob must not decode as another artifact type,
    // and vice versa.
    SimStats stats;
    EXPECT_FALSE(decodeArtifact(blob, stats));
    EXPECT_FALSE(decodeArtifact(encodeArtifact(SimStats{}), back));

    EXPECT_FALSE(decodeArtifact(blob.substr(0, blob.size() - 1), back));
    EXPECT_FALSE(decodeArtifact(blob + '\0', back));
    EXPECT_FALSE(decodeArtifact(std::string(), back));
}

// --------------------------------------------------- artifact builds

TEST_F(CheckpointTest, LadderedBuildMatchesColdBuildByteForByte)
{
    // `checkpointEvery` shapes the build ladder, never the value: it
    // must stay out of the key, and the laddered snapshot (resume at
    // 1000, then 2000, then step to 2500) must be byte-identical to
    // one cold run straight to 2500.
    CheckpointSpec spec = tinyCheckpointSpec(2500);
    spec.config.checkpointEvery = 0;

    CheckpointSpec laddered = spec;
    laddered.config.checkpointEvery = 1000;
    EXPECT_EQ(spec.cacheKey(), laddered.cacheKey());

    ArtifactCache cold;
    SimCheckpoint direct = cold.getOrRun(spec);
    EXPECT_EQ(cold.simulationsRun(), 1u);
    EXPECT_GE(direct.atInstructions, 2500u);

    ArtifactCache warm;
    SimCheckpoint resumed = warm.getOrRun(laddered);
    EXPECT_EQ(warm.simulationsRun(), 3u); // at 1000, 2000, 2500

    EXPECT_EQ(direct.atInstructions, resumed.atInstructions);
    EXPECT_EQ(direct.state, resumed.state);
}

TEST_F(CheckpointTest, CorruptStoreEntryMissesAndHeals)
{
    CheckpointSpec spec = tinyCheckpointSpec(2000);
    spec.config.store = root_;

    ArtifactCache first;
    SimCheckpoint reference = first.getOrRun(spec);
    EXPECT_EQ(first.simulationsRun(), 1u);
    corruptFile(DiskStore(root_).pathFor(spec.cacheKey()));

    ArtifactCache rerun;
    SimCheckpoint healed = rerun.getOrRun(spec);
    EXPECT_EQ(rerun.simulationsRun(), 1u); // miss: re-simulated
    EXPECT_EQ(rerun.diskHits(), 0u);
    EXPECT_EQ(healed.atInstructions, reference.atInstructions);
    EXPECT_EQ(healed.state, reference.state);

    // The rerun healed the entry: the next process hits again.
    ArtifactCache after;
    after.getOrRun(spec);
    EXPECT_EQ(after.simulationsRun(), 0u);
    EXPECT_EQ(after.diskHits(), 1u);
}

// ------------------------------------------------------- bit identity

TEST_F(CheckpointTest, FastForwardedRunIsBitIdenticalOnPaperApp)
{
    ExperimentSpec spec = tinyExperimentSpec(
        "gsm", attackDecaySpec(AttackDecayConfig{}));

    ExperimentSpec warm = spec;
    warm.config.checkpointEvery = 1000;
    EXPECT_EQ(spec.cacheKey(), warm.cacheKey()); // cost knob only

    // Independent caches: both runs miss and actually simulate.
    ArtifactCache cold_cache;
    SimStats direct = cold_cache.getOrRun(spec);
    ArtifactCache warm_cache;
    SimStats resumed = warm_cache.getOrRun(warm);

    expectStatsIdentical(direct, resumed);
}

TEST_F(CheckpointTest, FastForwardedRunIsBitIdenticalOnSynthetic)
{
    // An adversarial synthetic (seeded Markov regime switcher) with
    // an uncontrolled machine: the restore path must reproduce the
    // scenario's internal RNG state exactly, not just the core's.
    ExperimentSpec spec = tinyExperimentSpec(
        "synthetic:markov=8,mem=0.5", ControllerSpec{});

    ExperimentSpec warm = spec;
    warm.config.checkpointEvery = 1000;

    ArtifactCache cold_cache;
    SimStats direct = cold_cache.getOrRun(spec);
    ArtifactCache warm_cache;
    SimStats resumed = warm_cache.getOrRun(warm);

    expectStatsIdentical(direct, resumed);
}

TEST_F(CheckpointTest, CheckpointsAreSharedAcrossControllers)
{
    // Warm-up runs uncontrolled, so the snapshot ladder built for one
    // controller serves every other variant of the figure: the second
    // controller's run simulates only its measured window.
    ExperimentSpec uncontrolled =
        tinyExperimentSpec("gsm", ControllerSpec{});
    uncontrolled.config.checkpointEvery = 1000;
    ExperimentSpec controlled = tinyExperimentSpec(
        "gsm", attackDecaySpec(AttackDecayConfig{}));
    controlled.config.checkpointEvery = 1000;

    ArtifactCache &shared = ArtifactCache::instance();
    std::uint64_t before = shared.simulatedInstructions();

    ArtifactCache uncontrolled_cache;
    uncontrolled_cache.getOrRun(uncontrolled);
    std::uint64_t cold = shared.simulatedInstructions() - before;

    ArtifactCache controlled_cache;
    controlled_cache.getOrRun(controlled);
    std::uint64_t resumed =
        shared.simulatedInstructions() - before - cold;

    // Cold pays warm-up + measurement; the resumed run pays only the
    // measured window (plus retire-width slop).
    const RunnerConfig &config = uncontrolled.config;
    EXPECT_GE(cold, config.warmup + config.instructions);
    EXPECT_LT(resumed, cold);
    EXPECT_LT(resumed, config.instructions + 100);
}

// -------------------------------------------------- power accounting

TEST(PowerBatching, PerOpFlushMatchesBatchedAccounting)
{
    // The interval-batched accountant sums the same charges as the
    // legacy per-op flush (SimConfig::powerPerOp), just in coarser
    // groups; timing must be untouched and energy equal to rounding.
    auto run_once = [](bool per_op) {
        auto workload = BenchmarkFactory::create("gsm", 100000);
        SimConfig config;
        config.core.intervalInstructions = 1000;
        config.powerPerOp = per_op;
        AttackDecayController controller;
        Simulator sim(config, *workload, &controller);
        sim.run(30000);
        return sim.stats();
    };

    SimStats batched = run_once(false);
    SimStats per_op = run_once(true);

    EXPECT_EQ(batched.instructions, per_op.instructions);
    EXPECT_EQ(batched.feCycles, per_op.feCycles);
    EXPECT_EQ(batched.time, per_op.time);
    EXPECT_EQ(batched.branches, per_op.branches);
    EXPECT_EQ(batched.mispredicts, per_op.mispredicts);
    EXPECT_EQ(batched.loads, per_op.loads);
    EXPECT_EQ(batched.stores, per_op.stores);
    EXPECT_EQ(batched.l1dMisses, per_op.l1dMisses);
    EXPECT_EQ(batched.l2Misses, per_op.l2Misses);

    // Energy differs only by floating-point summation order.
    EXPECT_NEAR(batched.chipEnergy, per_op.chipEnergy,
                1e-9 * per_op.chipEnergy);
    ASSERT_EQ(batched.domainEnergy.size(), per_op.domainEnergy.size());
    for (std::size_t i = 0; i < batched.domainEnergy.size(); ++i)
        EXPECT_NEAR(batched.domainEnergy[i], per_op.domainEnergy[i],
                    1e-9 * per_op.chipEnergy);
}

} // namespace
} // namespace mcd

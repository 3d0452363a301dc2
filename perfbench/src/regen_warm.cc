/**
 * @file
 * regen-warm: warm figure regeneration plus checkpoint resume, with
 * writes beside reads. Setup fills a private disk store (checkpoint
 * ladder on) with a mini Figure 5 / Table 6 set for four apps: the
 * profile + MCD-baseline pair, the synchronous baseline, and two
 * Attack/Decay targets, each after a long warm-up and a short window.
 *
 * Each op starts a cold-process view (`clear()`), re-reads that set
 * through getOrRun — all disk hits, zero simulations — then resolves
 * one new Attack/Decay variant per app (a perf-degradation threshold
 * no other op uses). The variant fast-forwards from the stored
 * warm-up checkpoint, simulates only its window, and writes its
 * artifact and sidecar back. The disk store, the artifact codec and
 * checkpoint restore do most of the work. Reads come from the page
 * cache, so nothing here speaks for real disks.
 */

#include <array>
#include <filesystem>

#include "bench.hh"
#include "control/controller_registry.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "workload/benchmark_factory.hh"

namespace perfbench
{

namespace
{

using namespace mcd;

constexpr std::array<const char *, 4> kApps = {"adpcm", "gsm", "g721",
                                               "pegwit"};
constexpr std::uint64_t kWarmup = 60000;
constexpr std::uint64_t kWindow = 2000;
constexpr std::uint64_t kLadder = kWarmup / 2;

/** Per app: the read set besides the profile (baseline pair's stats,
 *  synchronous baseline, two Attack/Decay targets). */
constexpr std::size_t kReadsPerApp = 4;

class RegenWarm : public Workload
{
  public:
    RegenWarm(std::uint64_t seed, std::string root)
        : seed_(seed), root_(std::move(root))
    {
    }

    ~RegenWarm() override
    {
        ArtifactCache::instance().clear();
        ArtifactCache::instance().detachDiskStore();
        std::error_code ignored;
        std::filesystem::remove_all(root_, ignored);
    }

    RegenWarm(const RegenWarm &) = delete;
    RegenWarm &operator=(const RegenWarm &) = delete;

    void
    setup() override
    {
        ArtifactCache &cache = ArtifactCache::instance();
        cache.detachDiskStore();
        cache.clear();
        std::filesystem::create_directories(root_);

        config_.warmup = kWarmup;
        config_.instructions = kWindow;
        config_.clockSeed = deriveJobSeed(seed_, 0);
        config_.checkpointEvery = kLadder;
        config_.store = root_;
        base_ = scaledAttackDecayConfig();
        base_.perfDegThreshold =
            0.01 + 0.001 * static_cast<double>(deriveJobSeed(seed_, 1) % 11);

        for (std::size_t a = 0; a < kApps.size(); ++a) {
            profiles_[a].benchmark = kApps[a];
            profiles_[a].config = config_;
            ExperimentSpec sync;
            sync.benchmark = kApps[a];
            sync.mode = ClockMode::Synchronous;
            sync.config = config_;
            reads_[a] = {profiles_[a].experimentSpec(), sync,
                         variant(a, base_.perfDegThreshold),
                         variant(a, 2.0 * base_.perfDegThreshold)};
            CheckpointSpec ckpt;
            ckpt.benchmark = kApps[a];
            ckpt.at = kWarmup;
            ckpt.config = config_;
            checkpoints_[a] = ckpt;
        }
        // Filled serially: a parallel fill spreads allocations over
        // per-thread arenas and makes peak RSS vary run to run.
        for (std::size_t a = 0; a < kApps.size(); ++a) {
            cache.getOrRun(profiles_[a]);
            for (std::size_t k = 0; k < kReadsPerApp; ++k)
                expected_[a][k] = digest(cache.getOrRun(reads_[a][k]));
        }
        second_ = std::make_unique<DiskStore>(root_);

        // Warm-up op: fault in the page cache and lazy library state.
        Layers unused;
        runOp(false, unused);
    }

    std::vector<OpSample>
    run(std::uint64_t count, bool trace, Layers &layers) override
    {
        std::vector<OpSample> samples;
        samples.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
            samples.push_back(runOp(tracedOp(trace, i), layers));
        return samples;
    }

    Exact
    exact() override
    {
        Exact out;
        double ops = static_cast<double>(ops_);
        out["cache.lookups"] = static_cast<double>(lookups_) / ops;
        out["cache.disk_hits"] = static_cast<double>(diskHits_) / ops;
        out["cache.simulations"] = static_cast<double>(simulations_) / ops;
        out["cache.sim_insns"] = static_cast<double>(simInsns_) / ops;
        std::uint64_t bytes = 0;
        for (const CheckpointSpec &ckpt : checkpoints_) {
            std::string blob;
            if (second_->get(ckpt.cacheKey(), blob))
                bytes += blob.size();
        }
        out["checkpoint.bytes"] = static_cast<double>(bytes);
        return out;
    }

  private:
    ExperimentSpec
    variant(std::size_t app, double perf_deg_threshold) const
    {
        AttackDecayConfig adc = base_;
        adc.perfDegThreshold = perf_deg_threshold;
        ExperimentSpec spec;
        spec.benchmark = kApps[app];
        spec.controller = attackDecaySpec(adc);
        spec.config = config_;
        return spec;
    }

    OpSample
    runOp(bool traced, Layers &layers)
    {
        ArtifactCache &cache = ArtifactCache::instance();
        // A threshold unique to this op, so its variants always miss.
        double threshold = base_.perfDegThreshold *
                           (1.5 + 1e-6 * static_cast<double>(++next_));
        std::array<ExperimentSpec, kApps.size()> variants;
        for (std::size_t a = 0; a < kApps.size(); ++a)
            variants[a] = variant(a, threshold);
        std::array<std::array<SimStats, kReadsPerApp>, kApps.size()> read;
        std::array<SimStats, kApps.size()> resumed;

        auto start = SteadyClock::now();
        cache.clear();
        for (std::size_t a = 0; a < kApps.size(); ++a) {
            cache.getOrRun(profiles_[a]);
            for (std::size_t k = 0; k < kReadsPerApp; ++k)
                read[a][k] = cache.getOrRun(reads_[a][k]);
        }
        double read_ns = nsSince(start);
        auto resume_start = SteadyClock::now();
        for (std::size_t a = 0; a < kApps.size(); ++a)
            resumed[a] = cache.getOrRun(variants[a]);
        double resume_ns = nsSince(resume_start);
        OpSample sample;
        sample.ms = nsSince(start) * 1e-6;
        sample.traced = traced;

        // Reads cost zero simulations; each resume simulates only its
        // window (plus the commit stage's retire-group overshoot).
        std::uint64_t reads = kApps.size() * (1 + kReadsPerApp);
        std::uint64_t insns = cache.simulatedInstructions();
        std::uint64_t overshoot = static_cast<std::uint64_t>(
            config_.core.retireWidth - 1);
        bool ok = cache.lookups() == reads + 2 * kApps.size() &&
                  cache.diskHits() == reads + kApps.size() &&
                  cache.simulationsRun() == kApps.size() &&
                  insns >= kApps.size() * kWindow &&
                  insns <= kApps.size() * (kWindow + overshoot);
        ++ops_;
        lookups_ += cache.lookups();
        diskHits_ += cache.diskHits();
        simulations_ += cache.simulationsRun();
        simInsns_ += insns;
        for (std::size_t a = 0; a < kApps.size(); ++a)
            for (std::size_t k = 0; k < kReadsPerApp; ++k)
                ok = ok && digest(read[a][k]) == expected_[a][k];
        // New artifacts read back from a second handle to the root.
        for (std::size_t a = 0; a < kApps.size(); ++a) {
            std::string blob;
            SimStats back;
            ok = ok && second_->get(variants[a].cacheKey(), blob) &&
                 decodeArtifact(blob, back) &&
                 digest(back) == digest(resumed[a]);
        }
        if (traced) {
            layers.add("harness.read_set_ms", read_ns * 1e-6);
            layers.add("harness.resume_ms", resume_ns * 1e-6);
            ok = replayLayers(variants, resumed, layers) && ok;
        }
        sample.ok = ok;
        return sample;
    }

    /** The op's keys through a second DiskStore handle, the codec and
     *  Simulator::restoreCheckpoint; false on any mismatch. */
    bool
    replayLayers(const std::array<ExperimentSpec, kApps.size()> &variants,
                 const std::array<SimStats, kApps.size()> &resumed,
                 Layers &layers)
    {
        bool ok = true;
        std::vector<std::string> profile_blobs, stats_blobs, ckpt_blobs;
        std::uint64_t bytes = 0;
        auto start = SteadyClock::now();
        for (std::size_t a = 0; a < kApps.size(); ++a) {
            std::string blob;
            ok = second_->get(profiles_[a].cacheKey(), blob) && ok;
            bytes += blob.size();
            profile_blobs.push_back(std::move(blob));
            for (const ExperimentSpec &spec : reads_[a]) {
                ok = second_->get(spec.cacheKey(), blob) && ok;
                bytes += blob.size();
                stats_blobs.push_back(std::move(blob));
            }
            ok = second_->get(checkpoints_[a].cacheKey(), blob) && ok;
            bytes += blob.size();
            ckpt_blobs.push_back(std::move(blob));
        }
        layers.add("store.read_mb_s", static_cast<double>(bytes) * 1e3 /
                                          nsSince(start));

        std::vector<IntervalProfile> profile;
        SimStats stats;
        std::array<SimCheckpoint, kApps.size()> ckpts;
        start = SteadyClock::now();
        for (const std::string &blob : profile_blobs)
            ok = decodeArtifact(blob, profile) && ok;
        for (const std::string &blob : stats_blobs)
            ok = decodeArtifact(blob, stats) && ok;
        for (std::size_t a = 0; a < kApps.size(); ++a)
            ok = decodeArtifact(ckpt_blobs[a], ckpts[a]) && ok;
        layers.add("codec.decode_mb_s", static_cast<double>(bytes) * 1e3 /
                                            nsSince(start));

        for (std::size_t a = 0; a < kApps.size(); ++a) {
            auto workload =
                BenchmarkFactory::create(kApps[a], kWarmup + kWindow);
            Simulator sim(makeSimConfig(config_, ClockMode::Mcd,
                                        config_.dvfs.freqMax),
                          *workload, nullptr);
            serial::Reader in(ckpts[a].state);
            start = SteadyClock::now();
            ok = sim.restoreCheckpoint(in) && ok;
            layers.add("checkpoint.restore_us", nsSince(start) * 1e-3);
        }

        for (std::size_t a = 0; a < kApps.size(); ++a) {
            std::string blob = encodeArtifact(resumed[a]);
            std::string provenance = variants[a].describe();
            start = SteadyClock::now();
            second_->put(variants[a].cacheKey(), blob, provenance);
            layers.add("store.write_us", nsSince(start) * 1e-3);
        }
        return ok;
    }

    std::uint64_t seed_;
    std::string root_;
    RunnerConfig config_;
    AttackDecayConfig base_;
    std::array<ProfileSpec, kApps.size()> profiles_;
    std::array<std::array<ExperimentSpec, kReadsPerApp>, kApps.size()>
        reads_;
    std::array<CheckpointSpec, kApps.size()> checkpoints_;
    std::array<std::array<std::uint64_t, kReadsPerApp>, kApps.size()>
        expected_{};
    std::unique_ptr<DiskStore> second_;
    std::uint64_t next_ = 0;
    std::uint64_t ops_ = 0, lookups_ = 0, diskHits_ = 0, simulations_ = 0,
                  simInsns_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeRegenWarm(std::uint64_t seed, const std::string &tmp)
{
    return std::make_unique<RegenWarm>(seed, tmp + "/store");
}

} // namespace perfbench

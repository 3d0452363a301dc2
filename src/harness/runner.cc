#include "harness/runner.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "harness/checkpoint.hh"

namespace mcd
{

namespace
{

using serial::appendDouble;
using serial::appendI64;
using serial::appendU64;

void
appendCacheConfig(std::string &out, const CacheConfig &c)
{
    serial::appendString(out, c.name);
    appendU64(out, c.sizeBytes);
    appendI64(out, c.associativity);
    appendI64(out, c.lineBytes);
}

void
appendMemoryConfig(std::string &out, const MemoryHierarchyConfig &m)
{
    appendCacheConfig(out, m.l1i);
    appendCacheConfig(out, m.l1d);
    appendCacheConfig(out, m.l2);
    appendI64(out, static_cast<std::int64_t>(m.memory.accessLatency));
    appendI64(out,
              static_cast<std::int64_t>(m.memory.channelOccupancy));
    appendI64(out, m.l1Latency);
    appendI64(out, m.l2Latency);
}

void
appendCoreConfig(std::string &out, const CoreConfig &c)
{
    appendI64(out, c.decodeWidth);
    appendI64(out, c.intIssueWidth);
    appendI64(out, c.fpIssueWidth);
    appendI64(out, c.memIssueWidth);
    appendI64(out, c.retireWidth);
    appendI64(out, c.robSize);
    appendI64(out, c.intIqSize);
    appendI64(out, c.fpIqSize);
    appendI64(out, c.lsqSize);
    appendI64(out, c.intPhysRegs);
    appendI64(out, c.fpPhysRegs);
    appendI64(out, c.branchMispredictPenalty);
    appendI64(out, c.intAluCount);
    appendI64(out, c.fpAluCount);
    appendI64(out, c.intAluLatency);
    appendI64(out, c.intMultLatency);
    appendI64(out, c.intDivLatency);
    appendI64(out, c.fpAddLatency);
    appendI64(out, c.fpMultLatency);
    appendI64(out, c.fpDivLatency);
    appendI64(out, c.fpSqrtLatency);
    appendI64(out, c.mshrCount);
    appendMemoryConfig(out, c.memory);
    appendI64(out, c.intervalInstructions);
}

void
appendDvfsConfig(std::string &out, const DvfsConfig &d)
{
    appendDouble(out, d.freqMax);
    appendDouble(out, d.freqMin);
    appendDouble(out, d.voltMax);
    appendDouble(out, d.voltMin);
    appendI64(out, d.numPoints);
    appendDouble(out, d.slewNsPerMhz);
    appendDouble(out, d.jitterSigmaPs);
    appendDouble(out, d.syncWindowFraction);
}

void
appendEnergyConfig(std::string &out, const EnergyConfig &e)
{
    appendDouble(out, e.referenceVoltage);
    appendDouble(out, e.idleFraction);
    appendDouble(out, e.mcdClockOverhead);
    appendDouble(out, e.mainMemoryAccess);
}

} // namespace

void
RunnerConfig::applyEnvOverrides()
{
    instructions = envU64("MCD_INSNS", instructions);
    warmup = envU64("MCD_WARMUP", warmup, /*min=*/0);
    intervalInstructions = envInt("MCD_INTERVAL", intervalInstructions);
    jobs = envInt("MCD_JOBS", jobs);
    store = envString("MCD_STORE", store);
    checkpointEvery = envU64("MCD_CHECKPOINT", checkpointEvery,
                             /*min=*/0);
}

void
RunnerConfig::appendTo(std::string &out) const
{
    // v2: warm-up runs uncontrolled; the controller and interval
    // observer engage at the measurement boundary. Bumping the version
    // retires every v1 artifact (measured under controller-driven
    // warm-up) as a plain cache miss.
    constexpr std::uint64_t METHODOLOGY_VERSION = 2;
    appendU64(out, METHODOLOGY_VERSION);
    appendU64(out, instructions);
    appendU64(out, warmup);
    appendU64(out, clockSeed);
    appendI64(out, jitter ? 1 : 0);
    appendI64(out, intervalInstructions);
    appendCoreConfig(out, core);
    appendDvfsConfig(out, dvfs);
    appendEnergyConfig(out, energy);
}

std::string
RunnerConfig::describe() const
{
    return logging_detail::format(
        "insns=%llu warmup=%llu interval=%d seed=%llu jitter=%d",
        static_cast<unsigned long long>(instructions),
        static_cast<unsigned long long>(warmup), intervalInstructions,
        static_cast<unsigned long long>(clockSeed), jitter ? 1 : 0);
}

bool
RunnerConfig::check(std::string *error) const
{
    if (instructions == 0 || intervalInstructions <= 0)
        return failWith(error, "\"instructions\" and \"interval\" must be "
                               "positive");
    if (warmup > UINT64_MAX - instructions)
        return failWith(error, "\"instructions\" + \"warmup\" must be "
                               "below 2^64");
    return true;
}

SimConfig
makeSimConfig(const RunnerConfig &config, ClockMode mode,
              Hertz start_freq)
{
    SimConfig sim_config;
    sim_config.core = config.core;
    sim_config.core.intervalInstructions = config.intervalInstructions;
    sim_config.dvfs = config.dvfs;
    sim_config.energy = config.energy;
    sim_config.clocks.mode = mode;
    sim_config.clocks.startFreq = start_freq;
    sim_config.clocks.seed = config.clockSeed;
    sim_config.clocks.jittered = config.jitter;
    return sim_config;
}

SimStats
simulate(ArtifactCache &cache, const RunnerConfig &config,
         const std::string &bench, ClockMode mode, Hertz start_freq,
         FrequencyController *controller,
         std::function<void(const IntervalStats &)> observer)
{
    auto workload = BenchmarkFactory::create(
        bench, config.instructions + config.warmup);
    SimConfig sim_config = makeSimConfig(config, mode, start_freq);

    // Warm-up runs uncontrolled (methodology v2): the pre-measurement
    // machine state is controller-independent, so a checkpoint of it
    // fast-forwards every variant of this benchmark.
    Simulator sim(sim_config, *workload, nullptr);
    std::uint64_t stepped_from = 0;

    if (config.warmup > 0) {
        if (config.checkpointEvery > 0) {
            // Resolve the warm-up prefix through the checkpoint
            // artifact; by the run-composition contract the restored
            // machine is bit-identical to having simulated it here.
            SimCheckpoint ckpt = cache.getOrRun(
                CheckpointSpec{.benchmark = bench,
                               .mode = mode,
                               .startFreq = start_freq,
                               .at = config.warmup,
                               .config = config});
            serial::Reader in(ckpt.state);
            if (!sim.restoreCheckpoint(in))
                mcd_panic("validated checkpoint artifact failed to "
                          "restore");
            stepped_from = sim.committed();
        } else {
            sim.run(config.warmup);
        }
        sim.resetMeasurement();
    }
    sim.engageController(controller);
    if (observer)
        sim.setIntervalObserver(std::move(observer));
    sim.run(config.instructions);
    cache.noteInstructions(sim.committed() - stepped_from);
    return sim.stats();
}

Hertz
globalMatchedFrequency(const DvfsConfig &dvfs, double target_deg)
{
    return std::clamp(dvfs.freqMax / (1.0 + std::max(0.0, target_deg)),
                      dvfs.freqMin, dvfs.freqMax);
}

} // namespace mcd

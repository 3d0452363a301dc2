/**
 * @file
 * sim-cold: cold figure regeneration. Each op drops the in-process
 * artifact cache and resolves one composite batch — two compute-bound
 * apps (adpcm, gsm) and two memory-bound apps (mcf, health), all under
 * Attack/Decay in MCD mode — through runExperiments on two workers.
 * The simulator and the sweep fan-out do all the work; no store is
 * attached.
 *
 * Windows are sized so every spec costs about the same host time
 * (host time tracks simulated CPI: adpcm ~0.8, gsm ~1.6, mcf ~10,
 * health ~16), so neither class hides behind the other on the
 * two-worker critical path. Each app runs under two clock seeds per
 * op, queued longest first: with four specs per worker the op time is
 * unimodal, where two specs per worker made it flip between two
 * clusters on which worker drew which spec, and moved the median by
 * more than the host's own speed changes. Clock seeds cycle over
 * kSlots sets, so every op recurs and its SimStats digests must equal
 * those of its first occurrence (the warm-up ops in setup).
 */

#include <array>

#include "bench.hh"
#include "clock/domain_clock.hh"
#include "control/controller_registry.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "memory/cache.hh"
#include "predictor/branch_predictor.hh"
#include "workload/benchmark_factory.hh"

namespace perfbench
{

namespace
{

using namespace mcd;

struct App
{
    const char *name;
    bool memoryBound;
    std::uint64_t window; //!< measured instructions
};

/** Longest host time first (ThreadPool runs specs in queue order). */
constexpr std::array<App, 4> kApps = {{
    {"mcf", true, 1600},
    {"adpcm", false, 12000},
    {"gsm", false, 8000},
    {"health", true, 1200},
}};

constexpr std::uint64_t kWarmup = 1000;
/** Short windows still span a few control intervals. */
constexpr int kInterval = 500;
constexpr int kSeedsPerOp = 2;
constexpr std::size_t kSpecsPerOp = kApps.size() * kSeedsPerOp;
// Odd, so the traced run's alternating ops visit every slot.
constexpr int kSlots = 3;
constexpr int kWorkers = 2;

/** The app of spec `j` of an op. */
const App &
appOf(std::size_t j)
{
    return kApps[j / kSeedsPerOp];
}

/** One replayed spec: the runner path rebuilt from public parts. */
struct Replay
{
    SimStats stats;
    double runNs = 0.0;             //!< span around Simulator::run
    std::uint64_t committed = 0;    //!< whole run, warm-up included
    std::uint64_t edges = 0;        //!< sum of per-domain cycles
    std::vector<IntervalStats> intervals;
};

Replay
replaySimulation(const ExperimentSpec &spec)
{
    const RunnerConfig &c = spec.config;
    auto workload =
        BenchmarkFactory::create(spec.benchmark, c.warmup + c.instructions);
    Simulator sim(makeSimConfig(c, spec.mode, spec.resolvedStartFreq()),
                  *workload, nullptr);
    sim.run(c.warmup);
    sim.resetMeasurement();
    auto controller = ControllerRegistry::instance().create(spec.controller);
    sim.engageController(controller.get());
    Replay r;
    sim.setIntervalObserver(
        [&](const IntervalStats &s) { r.intervals.push_back(s); });
    auto start = SteadyClock::now();
    sim.run(c.instructions);
    r.runNs = nsSince(start);
    r.stats = sim.stats();
    r.committed = sim.committed();
    StatDump dump;
    sim.dumpStats(dump);
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d)
        r.edges += static_cast<std::uint64_t>(dump.get(
            std::string("domain.") + domainName(static_cast<DomainId>(d)) +
            ".cycles"));
    return r;
}

class SimCold : public Workload
{
  public:
    explicit SimCold(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        AttackDecayConfig adc = scaledAttackDecayConfig();
        adc.perfDegThreshold =
            0.01 + 0.001 * static_cast<double>(deriveJobSeed(seed_, 99) % 11);
        for (int s = 0; s < kSlots; ++s) {
            for (std::size_t j = 0; j < kSpecsPerOp; ++j) {
                ExperimentSpec spec;
                spec.benchmark = appOf(j).name;
                spec.controller = attackDecaySpec(adc);
                spec.config.warmup = kWarmup;
                spec.config.instructions = appOf(j).window;
                spec.config.intervalInstructions = kInterval;
                spec.config.clockSeed =
                    deriveJobSeed(seed_, s * kSeedsPerOp + j % kSeedsPerOp);
                slots_[s].push_back(spec);
            }
        }
        // Warm-up: the first occurrence of every slot fixes its digest.
        Layers unused;
        for (int s = 0; s < kSlots; ++s)
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
        // Per-op means over one cycle of slots; every op recurs, so
        // these are the counts of any kSlots consecutive ops.
        Exact out;
        std::uint64_t edges = 0, committed = 0;
        for (int s = 0; s < kSlots; ++s) {
            for (std::size_t j = 0; j < kSpecsPerOp; ++j) {
                const SimStats &st = first_[s][j];
                out["sim.insns"] += st.instructions;
                out["sim.fe_cycles"] += st.feCycles;
                out["sim.l2_misses"] += st.l2Misses;
                out["sim.mispredicts"] += st.mispredicts;
            }
        }
        for (auto &[name, value] : out)
            value /= kSlots;
        for (const ExperimentSpec &spec : slots_[0]) {
            Replay r = replaySimulation(spec);
            edges += r.edges;
            committed += r.committed;
        }
        out["clock.edges_per_insn"] =
            static_cast<double>(edges) / static_cast<double>(committed);
        return out;
    }

  private:
    OpSample
    runOp(bool traced, Layers &layers)
    {
        int slot = static_cast<int>(next_++ % kSlots);
        const std::vector<ExperimentSpec> &specs = slots_[slot];
        std::array<double, kSpecsPerOp> span_ns{};

        auto start = SteadyClock::now();
        ArtifactCache::instance().clear();
        std::vector<SimStats> stats;
        if (!traced) {
            stats = runExperiments(specs, kWorkers);
        } else {
            // runExperiments' own fan-out, with a span per spec.
            stats = ParallelSweep(kWorkers).map<SimStats>(
                specs.size(), [&](std::size_t j) {
                    auto t = SteadyClock::now();
                    SimStats s = ArtifactCache::instance().getOrRun(specs[j]);
                    span_ns[j] = nsSince(t);
                    return s;
                });
        }
        OpSample sample;
        sample.ms = nsSince(start) * 1e-6;
        sample.traced = traced;

        bool ok = ArtifactCache::instance().simulationsRun() == specs.size();
        if (!seen_[slot]) {
            seen_[slot] = true;
            for (std::size_t j = 0; j < specs.size(); ++j)
                first_[slot][j] = stats[j];
        }
        for (std::size_t j = 0; j < specs.size(); ++j)
            ok = ok && digest(stats[j]) == digest(first_[slot][j]);
        if (traced) {
            double busy = 0.0;
            for (double ns : span_ns)
                busy += ns;
            layers.add("harness.sweep.busy_share",
                       busy / (sample.ms * 1e6 * kWorkers));
            for (std::size_t j = 0; j < specs.size(); ++j)
                ok = replayLayers(specs[j], appOf(j), stats[j], layers) && ok;
        }
        sample.ok = ok;
        return sample;
    }

    /** Feed one spec's own inputs through each layer's public calls;
     *  false when the rebuilt runner path disagrees with the op. */
    static bool
    replayLayers(const ExperimentSpec &spec, const App &app,
                 const SimStats &expected, Layers &layers)
    {
        const RunnerConfig &c = spec.config;
        Replay r = replaySimulation(spec);
        double insns = static_cast<double>(r.stats.instructions);
        if (app.memoryBound) {
            layers.add("core.ns_per_insn.memory", r.runNs / insns);
            layers.add("core.ns_per_fe_cycle.memory",
                       r.runNs / static_cast<double>(r.stats.feCycles));
        } else {
            layers.add("core.ns_per_insn.compute", r.runNs / insns);
        }

        // Clock: one domain clock advanced as many edges as the run saw.
        DvfsModel dvfs(c.dvfs);
        DomainClock clock(DomainId::Integer, dvfs, c.dvfs.freqMax,
                          c.clockSeed, c.jitter);
        Tick sink = 0;
        auto start = SteadyClock::now();
        for (std::uint64_t e = 0; e < r.edges; ++e)
            sink ^= clock.advance();
        layers.add("clock.ns_per_edge",
                   nsSince(start) / static_cast<double>(r.edges));

        // Workload: drain the op's micro-op stream.
        std::uint64_t horizon = c.warmup + c.instructions;
        auto gen = BenchmarkFactory::create(spec.benchmark, horizon);
        std::vector<MicroOp> uops;
        uops.reserve(horizon);
        start = SteadyClock::now();
        for (std::uint64_t n = 0; n < horizon; ++n)
            uops.push_back(gen->next());
        layers.add("workload.ns_per_uop",
                   nsSince(start) / static_cast<double>(horizon));

        // Memory: the stream's data addresses through L1D, then L2.
        Cache l1d(c.core.memory.l1d), l2(c.core.memory.l2);
        std::uint64_t accesses = 0;
        start = SteadyClock::now();
        for (const MicroOp &op : uops) {
            if (!isMemClass(op.cls))
                continue;
            CacheAccessResult res = l1d.access(op.memAddr,
                                               isStoreClass(op.cls));
            ++accesses;
            if (res.writeback) {
                l2.access(res.victimAddr, true);
                ++accesses;
            }
            if (!res.hit) {
                sink ^= l2.access(op.memAddr, false).hit;
                ++accesses;
            }
        }
        layers.add("memory.ns_per_access",
                   nsSince(start) / static_cast<double>(accesses));

        // Predictor: the stream's control ops, predicted then trained.
        BranchPredictor bpred;
        std::uint64_t branches = 0;
        start = SteadyClock::now();
        for (const MicroOp &op : uops) {
            if (!isControlClass(op.cls))
                continue;
            bool call = op.cls == OpClass::Call;
            bool ret = op.cls == OpClass::Return;
            sink ^= bpred.predict(op.pc, call, ret, op.fallthrough())
                        .predictTaken;
            bpred.update(op.pc, op.taken, op.target, call, ret);
            ++branches;
        }
        layers.add("predictor.ns_per_branch",
                   nsSince(start) / static_cast<double>(branches));

        // Control: the run's interval samples through a fresh
        // controller of the op's spec.
        SimConfig sc = makeSimConfig(c, spec.mode, spec.resolvedStartFreq());
        DvfsModel sim_dvfs(sc.dvfs);
        ClockSystem clocks(sim_dvfs, sc.clocks);
        auto controller =
            ControllerRegistry::instance().create(spec.controller);
        controller->onStart(clocks);
        start = SteadyClock::now();
        for (const IntervalStats &s : r.intervals)
            controller->onInterval(s, clocks);
        layers.add("control.ns_per_interval",
                   nsSince(start) /
                       static_cast<double>(r.intervals.size()));

        keep(sink);
        return digest(r.stats) == digest(expected);
    }

    std::uint64_t seed_;
    std::uint64_t next_ = 0;
    std::array<std::vector<ExperimentSpec>, kSlots> slots_;
    std::array<bool, kSlots> seen_{};
    std::array<std::array<SimStats, kSpecsPerOp>, kSlots> first_{};
};

} // namespace

std::unique_ptr<Workload>
makeSimCold(std::uint64_t seed)
{
    return std::make_unique<SimCold>(seed);
}

} // namespace perfbench

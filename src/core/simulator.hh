/**
 * @file
 * The cycle-level MCD out-of-order processor simulator.
 *
 * Structure follows Figure 1: a front-end domain (fetch, L1I, branch
 * prediction, rename, ROB, retire), integer and floating-point execution
 * domains (issue queue + FUs + register file each), and a load/store
 * domain (LSQ, L1D, unified L2), with main memory externally clocked.
 * Each domain runs on its own jittered clock; the main loop always
 * advances whichever clock has the earliest pending edge, so the
 * relationship among all clock edges is tracked cycle by cycle and every
 * cross-domain transfer (dispatch into an issue queue, register result
 * consumption, branch-resolution redirect, cache-fill return) pays the
 * synchronization-window penalty when edges fall too close (Section 4).
 *
 * The model is trace-driven on the correct path: fetch consults the real
 * predictor hierarchy and, on a wrong prediction, stalls at the branch
 * until it resolves plus the 7-cycle redirect penalty (wrong-path
 * instructions are not executed; fetch energy is still charged during
 * the redirect shadow). All Table 4 structures are modeled: 80-entry
 * ROB, 20/15-entry issue queues, 64-entry LSQ with store-to-load
 * forwarding and conservative disambiguation, 72+72 physical registers,
 * MSHR-limited non-blocking caches.
 *
 * All mutable machine state lives in a SimState aggregate (see
 * sim_state.hh), so a run can be checkpointed at any stopping point and
 * resumed bit-identically: runTo(X) followed by runTo(Y) executes the
 * exact same step sequence as a single runTo(Y). To keep stopping
 * behavior-free, the commit stage never caps commits at a run target —
 * a run may overshoot its target by up to retireWidth-1 instructions.
 *
 * Energy accounting is batched: per-edge cycle charges and per-access
 * structure charges accumulate in integer counters and are applied to
 * the PowerAccountant only when a domain voltage changes, at interval
 * boundaries, at measurement resets, and when stats are read. Setting
 * SimConfig::powerPerOp flushes after every charge, reproducing the old
 * per-op accounting order (for equivalence tests).
 */

#ifndef MCD_CORE_SIMULATOR_HH
#define MCD_CORE_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clock/clock_system.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "core/core_config.hh"
#include "core/inst.hh"
#include "core/interval.hh"
#include "core/regfile.hh"
#include "core/sim_state.hh"
#include "memory/memory_hierarchy.hh"
#include "power/power_accountant.hh"
#include "predictor/branch_predictor.hh"
#include "workload/workload.hh"

namespace mcd
{

/** Everything needed to instantiate one simulated machine. */
struct SimConfig
{
    CoreConfig core{};
    DvfsConfig dvfs{};
    ClockSystemConfig clocks{};
    EnergyConfig energy{};
    /** Flush the power batch after every charge: the per-op accounting
     *  order the batched path is tested against. */
    bool powerPerOp = false;
};

/** Aggregate results of a run, in absolute units. */
struct SimStats
{
    std::uint64_t instructions = 0;
    std::uint64_t feCycles = 0;
    Tick time = 0;               //!< simulated wall-clock (ps)
    NanoJoule chipEnergy = 0.0;
    double cpi = 0.0;            //!< front-end cycles per instruction
    double epi = 0.0;            //!< nJ per instruction
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::array<NanoJoule, NUM_CLOCKED_DOMAINS> domainEnergy{};
};

/** The MCD processor simulator. */
class Simulator
{
  public:
    /**
     * @param config      machine configuration
     * @param workload    correct-path micro-op stream (not owned)
     * @param controller  frequency controller, may be null (constant
     *                    maximum frequencies)
     */
    Simulator(const SimConfig &config, WorkloadGenerator &workload,
              FrequencyController *controller = nullptr);

    /**
     * Run until at least `instructions` more have committed. The run may
     * overshoot by up to retireWidth-1 commits; stopping is behavior-
     * free, so run(a); run(b) is identical to run(a + b).
     */
    void run(std::uint64_t instructions);

    /** Run until the absolute commit count reaches `target`. */
    void runTo(std::uint64_t target);

    /**
     * Install (or replace) the frequency controller mid-run; its
     * onStart hook fires immediately. Used to run warm-up uncontrolled
     * so warm-up checkpoints are shared across controllers.
     */
    void engageController(FrequencyController *controller);

    /**
     * Reset measurement state (energy, cycle/instruction counters,
     * interval numbering and accumulators) without flushing micro-
     * architectural state; used to exclude warm-up from measurements.
     */
    void resetMeasurement();

    /** Per-interval observer (figures 2/3 traces), called after the
     *  controller. */
    void
    setIntervalObserver(std::function<void(const IntervalStats &)> cb)
    {
        interval_observer_ = std::move(cb);
    }

    /** Results so far. */
    SimStats stats() const;

    /**
     * Full machine-readable statistics dump: run counters, per-domain
     * cycles/frequencies/energy, per-structure energy, cache and
     * predictor statistics, and main-memory channel metrics.
     */
    void dumpStats(StatDump &dump) const;

    /**
     * Serialize the entire machine — SimState, clocks, caches,
     * predictor, register files, energy accumulators (pending charge
     * batch included, so flush points replay identically), and the
     * workload position. Side-effect free: saving does not perturb the
     * run. A simulator built from the identical SimConfig + workload
     * spec that restores this blob continues bit-identically to the
     * run that saved it.
     */
    void saveCheckpoint(std::string &out) const;

    /** Inverse of saveCheckpoint; false leaves no guarantees about
     *  partial state, so callers must treat failure as fatal for this
     *  instance (checkpoint artifacts re-simulate on failure). */
    bool restoreCheckpoint(serial::Reader &in);

    ClockSystem &clocks() { return clocks_; }
    const PowerAccountant &power() const { return power_; }
    MemoryHierarchy &memory() { return memory_; }
    std::uint64_t committed() const { return state_.committed; }
    Tick now() const { return state_.now; }
    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
    WorkloadGenerator *workload_;
    FrequencyController *controller_;

    DvfsModel dvfs_;
    ClockSystem clocks_;
    EnergyModel energy_model_;
    mutable PowerAccountant power_;
    MemoryHierarchy memory_;
    BranchPredictor bpred_;

    PhysRegFile int_regs_;
    PhysRegFile fp_regs_;
    RenameMap rename_;

    /** All mutable machine state (window ring, queues, counters). */
    SimState state_;

    /**
     * Pending energy charges, accumulated as integer counts and applied
     * at the cached per-domain voltages on flush. Structure accesses
     * are keyed by (structure, charging domain) because a few charges
     * (result writeback) bill a structure at the producing domain's
     * voltage rather than the structure's own.
     */
    struct PowerBatch
    {
        std::array<Hertz, NUM_CLOCKED_DOMAINS> freq{};
        std::array<Volt, NUM_CLOCKED_DOMAINS> volt{};
        std::array<std::uint64_t, NUM_CLOCKED_DOMAINS> cycles{};
        std::array<std::array<std::uint64_t, NUM_CLOCKED_DOMAINS>,
                   NUM_STRUCTURES>
            accesses{};
        std::uint64_t memAccesses = 0;
    };
    mutable PowerBatch batch_;

    std::function<void(const IntervalStats &)> interval_observer_;

    // --- energy batching ---
    void flushPower() const;
    void refreshBatchVoltages() const;
    void syncBatchVoltages();
    void chargeCycleB(DomainId domain);
    void chargeAccessB(StructureId structure, DomainId domain,
                       std::uint64_t count = 1);
    void chargeMemB();

    // --- main loop ---
    void step();
    void tickDomain(DomainId domain, Tick edge);

    // --- per-domain stages ---
    void frontEndTick(Tick edge);
    void integerTick(Tick edge);
    void fpTick(Tick edge);
    void loadStoreTick(Tick edge);

    // Front-end helpers.
    void commitStage(Tick edge);
    void fetchAndDispatch(Tick edge);
    bool dispatchOne(const MicroOp &op, Tick edge);
    bool resourcesAvailable(const MicroOp &op) const;
    void handleIntervalBoundary(Tick edge);

    // Execution helpers.
    void processCompletions(std::vector<std::uint64_t> &exec_list,
                            DomainId domain, Tick edge);
    void completeInst(Inst &inst, DomainId domain, Tick edge);
    void issueInteger(Tick edge);
    void issueFp(Tick edge);
    void issueLoadStore(Tick edge);
    bool operandsReady(const Inst &inst, DomainId domain,
                       Tick edge) const;
    bool regReady(int logical, int phys, DomainId domain,
                  Tick edge) const;
    int execLatency(OpClass cls) const;

    // Load/store helpers.
    bool olderStoreBlocks(const Inst &load, const Inst *&forward) const;
    void startDataAccess(Inst &inst, Tick edge, bool is_write);

    Volt voltage(DomainId domain) const;
    std::uint64_t lineOf(std::uint64_t addr) const;
};

} // namespace mcd

#endif // MCD_CORE_SIMULATOR_HH

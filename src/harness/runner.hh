/**
 * @file
 * The shared measurement methodology (RunnerConfig), the machine it
 * describes (makeSimConfig), and the one simulation kernel (simulate)
 * under every experiment product of harness/experiment.hh.
 *
 * Every variant of one benchmark consumes the identical micro-op stream
 * (same spec, seed, and horizon) and identical clock seeds, so measured
 * differences come from the machine, not the workload.
 */

#ifndef MCD_HARNESS_RUNNER_HH
#define MCD_HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/attack_decay.hh"
#include "control/basic_controllers.hh"
#include "control/controller_registry.hh"
#include "core/simulator.hh"
#include "harness/metrics.hh"
#include "workload/benchmark_factory.hh"

namespace mcd
{

/** Shared measurement methodology for a set of experiments. */
struct RunnerConfig
{
    std::uint64_t instructions = 400000; //!< measured window
    std::uint64_t warmup = 50000;        //!< excluded from measurement
    std::uint64_t clockSeed = 12345;
    bool jitter = true;
    CoreConfig core{};
    DvfsConfig dvfs{};
    EnergyConfig energy{};

    /**
     * Control interval in committed instructions. The paper samples
     * every 10,000 instructions over 50M-200M instruction windows
     * (5,000-20,000 control epochs). Our scaled windows keep the
     * controller's per-epoch dynamics identical but shrink the epoch so
     * the number of control epochs stays paper-like (DESIGN.md,
     * substitution 4). 1,000 instructions is still an order of
     * magnitude above the control-loop delay, preserving stability.
     */
    int intervalInstructions = 1000;

    /**
     * Worker threads for batched searches (the offline Dynamic-X%
     * margin probes) and for ParallelSweep instances built from this
     * config. 0 selects ParallelSweep::defaultWorkers() (MCD_JOBS env
     * override, else hardware concurrency); 1 forces serial execution.
     * Results are bit-identical for any value.
     */
    int jobs = 0;

    /**
     * Root directory of the persistent artifact store ("" = in-memory
     * only). When set — directly, via `MCD_STORE`, or via `mcd_cli
     * --store` — every artifact request made with this config attaches
     * the process-wide ArtifactCache's disk layer to it, so results
     * persist across processes. Like `jobs`, this is excluded from
     * cache keys: where a result is stored never changes its value.
     */
    std::string store;

    /**
     * Checkpoint ladder spacing in committed instructions (0 = off;
     * `MCD_CHECKPOINT` / `mcd_cli --checkpoint-every`). When set, the
     * uncontrolled warm-up prefix of every run resolves through a
     * `CheckpointSpec` artifact (harness/checkpoint.hh): a warm store
     * fast-forwards the machine to the warm-up point by deserializing
     * a snapshot instead of re-simulating it, bit-identically to the
     * cold run. Like `jobs` and `store`, excluded from cache keys —
     * the run-composition contract makes results independent of where
     * (or whether) a run was checkpointed; only the cost of producing
     * them changes.
     */
    std::uint64_t checkpointEvery = 0;

    /** Apply MCD_INSNS / MCD_WARMUP / MCD_INTERVAL / MCD_JOBS /
     *  MCD_STORE / MCD_CHECKPOINT env overrides. */
    void applyEnvOverrides();

    /**
     * Append the exact methodology+machine serialization every
     * artifact cache key embeds (common/serial.hh byte layout). The
     * leading methodology version retires every cached artifact when
     * the measurement procedure itself changes (v2: warm-up runs
     * uncontrolled and the controller engages at the measurement
     * boundary). `jobs`, `store`, and `checkpointEvery` are
     * deliberately excluded: the determinism contract makes results
     * worker-count independent, the storage location never changes a
     * value, and checkpointing changes only the cost of a run, never
     * its result.
     */
    void appendTo(std::string &out) const;

    /** One-line human-readable summary (provenance sidecars). */
    std::string describe() const;

    /** The run methodology a user may set: a positive measured window
     *  and interval, and a horizon (instructions + warmup) that fits
     *  in 64 bits. False, with the message in `error`, otherwise. */
    bool check(std::string *error) const;
};

/**
 * The machine a RunnerConfig describes, assembled for one (mode,
 * start-frequency) operating point. Single definition shared by
 * simulate() and the checkpoint builder
 * (harness/checkpoint.cc) so a restored snapshot always meets the
 * exact machine that produced it.
 */
SimConfig makeSimConfig(const RunnerConfig &config, ClockMode mode,
                        Hertz start_freq);

/** Result of an off-line Dynamic-X% search. */
struct OfflineResult
{
    SimStats stats;
    double margin = 0.0;      //!< tuned aggressiveness knob
    double achievedDeg = 0.0; //!< degradation vs the baseline MCD run
};

/** Result of a global-DVFS frequency match. */
struct GlobalResult
{
    SimStats stats;
    Hertz freq = 0.0;
};

/**
 * The one simulation kernel every experiment product runs through: run
 * `bench` under the methodology and machine of `config`, in clock
 * `mode` starting at `start_freq`, with `controller` (null =
 * uncontrolled). `observer`, when set, receives every measured
 * interval.
 *
 * Methodology v2: the warm-up prefix always runs uncontrolled
 * (domains at the start frequency); the controller and the interval
 * observer engage at the measurement boundary, right after
 * `resetMeasurement()`. The warm-up machine state is therefore a pure
 * function of (benchmark, mode, start frequency, config) — shared by
 * every controller — which is what lets `checkpointEvery` fast-forward
 * all of a figure's variants from one stored snapshot.
 */
SimStats simulate(const RunnerConfig &config, const std::string &bench,
                  ClockMode mode, Hertz start_freq,
                  FrequencyController *controller,
                  std::function<void(const IntervalStats &)> observer = {});

/**
 * The global-DVFS frequency matched to a degradation target (Table 6's
 * frequency-matched interpretation): the whole synchronous chip slowed
 * by the target factor, f = f_max / (1 + target_deg), clamped to the
 * DVFS range. This is the paper's "realistic global frequency/voltage
 * scaling", which treats the frequency cut as the performance cost
 * (and hence reports a power/performance ratio near 2).
 */
Hertz globalMatchedFrequency(const DvfsConfig &dvfs, double target_deg);

} // namespace mcd

#endif // MCD_HARNESS_RUNNER_HH

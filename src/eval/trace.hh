/**
 * @file
 * Per-interval telemetry traces for the controller stress lab.
 *
 * An `EvalTrace` records, for every control interval of one run, what
 * the online controller actually did — per-domain target frequency and
 * queue utilization, plus interval IPC and on-chip energy — alongside
 * the frequency the offline Dynamic-X% oracle chose for that interval.
 * It is a first-class versioned artifact (`ArtifactTraits<EvalTrace>`)
 * requested through a `TraceSpec` and resolved by an `ArtifactCache`
 * via its generic spec path, so traces share the layered
 * memory-over-disk store, dedup across processes, and replay from a
 * warm store with zero simulations like every other experiment
 * product.
 *
 * Intervals are recorded from the measurement boundary (methodology
 * v2: the controller and observer engage after the uncontrolled
 * warm-up, and interval numbering restarts there), so trace index i
 * aligns directly with profile index i and oracle-schedule index i —
 * no warm-up prefix to skip.
 */

#ifndef MCD_EVAL_TRACE_HH
#define MCD_EVAL_TRACE_HH

#include <array>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace mcd
{

/** One controlled domain's telemetry at one interval boundary. */
struct TraceDomainPoint
{
    Hertz frequency = 0.0;        //!< online target frequency
    double queueUtilization = 0.0;
    Hertz oracleFrequency = 0.0;  //!< the oracle schedule's choice
};

/** Everything the stress lab keeps about one control interval. */
struct TracePoint
{
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    Tick endTime = 0;
    NanoJoule chipEnergy = 0.0; //!< on-chip energy in this interval
    std::array<TraceDomainPoint, NUM_CONTROLLED> domains{};
};

/** The per-interval telemetry artifact of one controlled run. */
struct EvalTrace
{
    SimStats stats;                 //!< the run's aggregate results
    std::vector<TracePoint> points; //!< one per interval, from start
};

template <> struct ArtifactTraits<EvalTrace>
{
    static constexpr const char *name = "eval_trace";
    // v2: points cover the measured window only (post-warm-up
    // engagement); v1 traces included the warm-up prefix.
    static constexpr std::uint64_t version = 2;
    static void encodePayload(std::string &out, const EvalTrace &t);
    static bool decodePayload(serial::Reader &in, EvalTrace &t);
};

/**
 * Request spec for one telemetry trace: run `benchmark` under
 * `controller` (MCD machine, starting at f_max) and annotate every
 * interval with the oracle schedule's choice. The oracle schedule
 * enters the cache key as a fixed-width digest of its exact
 * serialization (the OfflineSearchSpec convention): under the
 * determinism contract it is a pure function of the profiling pass
 * and the tuned margin, so the digest is collision-safe in practice
 * and keeps keys small.
 */
struct TraceSpec
{
    using Artifact = EvalTrace;

    std::string benchmark;
    ControllerSpec controller;
    std::vector<FrequencyVector> oracle; //!< per-interval schedule
    RunnerConfig config;

    /** Exact artifact key (namespace "eval_trace/2"). */
    std::string cacheKey() const;

    /** One-line human-readable description (provenance sidecars). */
    std::string describe() const;

    /** Simulate the run with an interval observer (one simulation). */
    EvalTrace build(ArtifactCache &cache) const;
};

} // namespace mcd

#endif // MCD_EVAL_TRACE_HH

/**
 * @file
 * Shared pieces of the repository benchmark binary: the workload
 * interface, wall-clock spans taken from outside the library, and the
 * per-layer sample collector the traced run fills.
 *
 * Every op of a workload is the same composite unit, and a run is a
 * fixed number of ops. Spans are recorded only by benchmark code
 * around calls into the library's public API; the library itself is
 * never instrumented here.
 */

#ifndef MCD_PERFBENCH_BENCH_HH
#define MCD_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/simulator.hh"

namespace perfbench
{

using SteadyClock = std::chrono::steady_clock;

/** Nanoseconds elapsed since `start`. */
inline double
nsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double, std::nano>(SteadyClock::now() -
                                                    start)
        .count();
}

/** Keep a replay loop's result observable so it is not optimized
 *  away. */
inline void
keep(std::uint64_t value)
{
    static volatile std::uint64_t sink = 0;
    sink = sink + value;
}

/** One timed op: its wall time, whether its output checks passed, and
 *  whether it ran with spans on. */
struct OpSample
{
    double ms = 0.0;
    bool ok = false;
    bool traced = false;
};

/**
 * Per-layer measurements of a traced run. Timed quantities collect
 * one sample per traced op (or per replayed call) and report their
 * median; exact counts are set once. Thread-safe: serve-warm's two
 * client threads add concurrently.
 */
class Layers
{
  public:
    void add(const std::string &name, double value);
    void set(const std::string &name, double value);

    /** Medians of the samples plus the set values, by name. */
    std::map<std::string, double> summary() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
};

/** Deterministic work counts of a run, by metric name. */
using Exact = std::map<std::string, double>;

/**
 * One workload. Construction is cheap; `setup` builds everything the
 * ops need, including the warm-up ops, and is what `setup_s` times.
 * The destructor releases what setup built (temp stores, the daemon).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;

    /**
     * Run `count` timed ops. With `trace`, every second op records
     * spans and feeds its inputs through the layer replays into
     * `layers`; the others run exactly as in an untraced run, so the
     * two kinds measure the tracing overhead under the same host
     * conditions.
     */
    virtual std::vector<OpSample> run(std::uint64_t count, bool trace,
                                      Layers &layers) = 0;

    /** Exact work counts of the ops run so far (after timing). */
    virtual Exact exact() = 0;
};

/** Whether op `index` of a traced run records spans. */
inline bool
tracedOp(bool trace, std::uint64_t index)
{
    return trace && index % 2 == 1;
}

/**
 * Build a workload. `seed` drives clock seeds and variant parameters;
 * `tmp` is a private scratch directory (stores, sockets) inside the
 * checkout. Returns nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &tmp);

std::unique_ptr<Workload> makeSimCold(std::uint64_t seed);
std::unique_ptr<Workload> makeRegenWarm(std::uint64_t seed,
                                        const std::string &tmp);
std::unique_ptr<Workload> makeServeWarm(std::uint64_t seed,
                                        const std::string &tmp);

/** FNV-1a of a SimStats artifact's exact encoding. */
std::uint64_t digest(const mcd::SimStats &stats);

} // namespace perfbench

#endif // MCD_PERFBENCH_BENCH_HH

/**
 * @file
 * Open workload-scenario registry. Fixed scenarios (the paper's 30
 * Table 5 applications, plus anything user code registers) and
 * parametric families (prefix + knob string -> spec) resolve through
 * one lookup, so every spec-driven consumer — simulate(), the
 * ExperimentSpec layer, the figure benches, `mcd_cli`, and
 * `MCD_BENCHMARKS` — accepts a new scenario the moment it is
 * registered.
 *
 * Built-in family:
 *   synthetic:<k=v,...>   parametric workload, e.g.
 *                         "synthetic:mem=0.8,ilp=4,phases=6". Knobs:
 *       mem     [0..1]  memory-boundedness: scales load fraction,
 *                       data footprint (16 KB .. 24 MB, geometric)
 *                       and pointer-chase share      (default 0.3)
 *       ilp     [1..64] dependence window: how far back sources
 *                       reach, bigger = more ILP     (default 8)
 *       phases  [1..64] alternating busy/memory phase count; the
 *                       phase period is horizon/phases (default 1:
 *                       one uniform phase)
 *       burst   [0..1]  io-like idle/burst alternation: the share of
 *                       each phase period spent in an "idle" phase of
 *                       serial pointer-chasing over a huge footprint
 *                       (the core mostly waits, as if blocked on io)
 *                       before the busy mix resumes   (default 0:
 *                       no idle phases)
 *       markov  [2..256] adversarial: seeded Markov chain over
 *                       compute/mixed/memory regimes, that many
 *                       segments per run — sticky enough to reward
 *                       tracking, abrupt enough to punish decay
 *                       (default 0: off)
 *       square  [500..10000000] adversarial: square wave between a
 *                       compute-bound and a memory-bound regime,
 *                       flipping every `square` *instructions*
 *                       (an absolute period — pick it near the
 *                       controller's reaction window) (default 0: off)
 *       drift   (0..1]  adversarial: slow monotonic memory-boundedness
 *                       ramp spanning `drift` around `mem` over the
 *                       whole run; per-interval deltas stay below the
 *                       attack threshold, so only decay can track it
 *                       (default 0: off)
 *       fp      [0..1]  floating-point fraction      (default 0)
 *       branch  [0..1]  data-branch unpredictability (default 0.25)
 *       seed    integer workload RNG seed            (default: from
 *                       the scenario name)
 *   The adversarial knobs (markov, square, drift) are mutually
 *   exclusive, and exclusive with burst and phases.
 */

#ifndef MCD_WORKLOAD_SCENARIO_REGISTRY_HH
#define MCD_WORKLOAD_SCENARIO_REGISTRY_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace mcd
{

/** Fixed scenarios + parametric families, resolved by name. */
class ScenarioRegistry
{
  public:
    /** Builds the spec for one full family name ("prefix:knobs");
     *  false, with the reason in `error`, on bad knobs. */
    using FamilyFn = std::function<bool(
        const std::string &name, BenchmarkSpec &out, std::string *error)>;

    /** One knob of a parametric family, for listings and errors. */
    struct KnobInfo
    {
        std::string name;
        std::string doc; //!< range + one-line semantics
    };

    struct FamilyInfo
    {
        std::string prefix;      //!< including the trailing ':'
        std::string description; //!< one line for `mcd_cli list`
        std::vector<KnobInfo> knobs; //!< full knob set, in doc order
    };

    /** The process-wide registry, with built-ins pre-registered. */
    static ScenarioRegistry &instance();

    /** Register a fixed scenario; panics on duplicate names. */
    void add(BenchmarkSpec spec);

    /**
     * Register a parametric family under "prefix:"; any lookup whose
     * name starts with the prefix is delegated to `fn`. `knobs`
     * documents the family's full knob set for `mcd_cli list`.
     */
    void addFamily(const std::string &prefix,
                   const std::string &description, FamilyFn fn,
                   std::vector<KnobInfo> knobs = {});

    /** Resolve a name to its spec; false, with the reason in `error`
     *  (when non-null), for unknown names and bad family knobs. */
    bool resolve(const std::string &name, BenchmarkSpec &out,
                 std::string *error) const;

    /** Fixed scenario names, in registration order (paper order for
     *  the built-in 30). */
    std::vector<std::string> scenarioNames() const;

    /** Registered parametric families. */
    std::vector<FamilyInfo> families() const;

  private:
    ScenarioRegistry() = default;

    std::vector<std::string> order_;
    std::map<std::string, BenchmarkSpec> fixed_;
    struct Family
    {
        FamilyInfo info;
        FamilyFn fn;
    };
    std::vector<Family> families_;
};

} // namespace mcd

#endif // MCD_WORKLOAD_SCENARIO_REGISTRY_HH

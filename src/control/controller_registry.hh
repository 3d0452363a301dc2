/**
 * @file
 * Declarative controller layer: a `ControllerSpec` names a registered
 * controller family plus its numeric parameters, and the
 * `ControllerRegistry` turns specs into `FrequencyController`
 * instances. Adding a controller to the experiment stack is one
 * registration — every spec-driven consumer (ExperimentSpec, the
 * figure benches, mcd_cli) picks it up with no new plumbing.
 *
 * Built-in registrations:
 *   none                   uncontrolled (domains stay at the start
 *                          frequency; the synchronous reference and
 *                          baseline machines)
 *   constant               all controlled domains pinned to `freq`
 *   profiling              domains at maximum, per-interval activity
 *                          recorded (the off-line profiling pass)
 *   schedule               replays ControllerSpec::schedule
 *   attack_decay           the paper's Listing 1 controller
 *   frontend_attack_decay  Section 7 future-work extension: Listing 1
 *                          applied to the front end too
 */

#ifndef MCD_CONTROL_CONTROLLER_REGISTRY_HH
#define MCD_CONTROL_CONTROLLER_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "control/attack_decay.hh"
#include "control/basic_controllers.hh"

namespace mcd
{

/** A controller, declaratively: registry name + parameters. */
struct ControllerSpec
{
    std::string name = "none";

    /**
     * Numeric knobs, interpreted by the named factory. Undeclared keys
     * fail ControllerRegistry::check (typos, not extensions). Booleans
     * are 0/1.
     */
    std::map<std::string, double> params{};

    /** Payload for the "schedule" controller (ignored by others). */
    std::vector<FrequencyVector> schedule{};

    /**
     * Append an exact, unambiguous serialization (length-prefixed
     * strings, raw IEEE-754 bytes for doubles) to `out`; the
     * artifact cache key builders use this, so equal serializations
     * must imply bit-identical controller behavior.
     */
    void appendTo(std::string &out) const;
};

/** Parse "name" or "name:k=v,k=v" (parseKeyValues) into `out`; false,
 *  with the reason in `error`, on malformed text. */
bool parseControllerSpec(const std::string &text, ControllerSpec &out,
                         std::string *error);

/** The same, for text the program supplies itself (panics). */
ControllerSpec parseControllerSpec(const std::string &text);

/** The spec equivalent of an AttackDecayConfig (exact round-trip). */
ControllerSpec attackDecaySpec(const AttackDecayConfig &config,
                               const std::string &name = "attack_decay");

/** Rebuild an AttackDecayConfig from spec params (exact round-trip). */
AttackDecayConfig attackDecayConfigFromSpec(const ControllerSpec &spec);

/** Name + params -> FrequencyController factories. */
class ControllerRegistry
{
  public:
    /**
     * A factory may return nullptr to mean "run uncontrolled" (the
     * built-in "none" does); the simulator treats a null controller as
     * constant maximum frequencies.
     */
    using Factory = std::function<std::unique_ptr<FrequencyController>(
        const ControllerSpec &)>;

    /** One parameter a registration accepts. */
    struct Param
    {
        std::string name;
        bool required = false;
        std::string unit; //!< named when a required param is missing
    };

    struct Info
    {
        std::string name;
        std::string description;
    };

    /** The process-wide registry, with built-ins pre-registered. */
    static ControllerRegistry &instance();

    /** Register a family taking exactly `params`; panics on a
     *  duplicate name. */
    void add(const std::string &name, const std::string &description,
             std::vector<Param> params, Factory factory);

    bool contains(const std::string &name) const;

    /** The one check of a spec: a registered name, declared params
     *  only, required params present. */
    bool check(const ControllerSpec &spec, std::string *error) const;

    /** Instantiate a checked spec; panics on a spec `check` rejects. */
    std::unique_ptr<FrequencyController>
    create(const ControllerSpec &spec) const;

    /** All registered families, sorted by name. */
    std::vector<Info> list() const;

  private:
    ControllerRegistry() = default;

    struct Entry
    {
        Info info;
        std::vector<Param> params;
        Factory factory;
    };
    std::map<std::string, Entry> entries_;
};

} // namespace mcd

#endif // MCD_CONTROL_CONTROLLER_REGISTRY_HH

#include "control/controller_registry.hh"

#include <algorithm>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"

namespace mcd
{

namespace
{

using serial::appendDouble;
using serial::appendString;
using serial::appendU64;

std::mutex registry_mutex;

double
paramOr(const ControllerSpec &spec, const char *key, double fallback)
{
    auto it = spec.params.find(key);
    return it == spec.params.end() ? fallback : it->second;
}

const std::vector<ControllerRegistry::Param> attack_decay_params = {
    {"deviation_threshold", false, ""}, {"reaction_change", false, ""},
    {"decay", false, ""}, {"perf_deg_threshold", false, ""},
    {"endstop_count", false, ""}, {"literal_guard", false, ""},
};

void
registerBuiltins(ControllerRegistry &registry)
{
    using Controller = std::unique_ptr<FrequencyController>;
    registry.add("none",
                 "uncontrolled: all domains stay at the start frequency",
                 {}, [](const ControllerSpec &) -> Controller {
                     return nullptr;
                 });
    registry.add("constant",
                 "all controlled domains pinned to `freq` (Hz)",
                 {{"freq", true, "Hz"}},
                 [](const ControllerSpec &spec) -> Controller {
                     return std::make_unique<ConstantController>(
                         spec.params.at("freq"));
                 });
    registry.add(
        "profiling",
        "domains at maximum; records the off-line per-interval profile",
        {}, [](const ControllerSpec &) -> Controller {
            return std::make_unique<ProfilingController>();
        });
    registry.add("schedule",
                 "replays the spec's precomputed per-interval schedule",
                 {}, [](const ControllerSpec &spec) -> Controller {
                     return std::make_unique<ScheduleController>(
                         spec.schedule);
                 });
    registry.add("attack_decay",
                 "the paper's Listing 1 on-line controller (Section 3.1)",
                 attack_decay_params,
                 [](const ControllerSpec &spec) -> Controller {
                     return std::make_unique<AttackDecayController>(
                         attackDecayConfigFromSpec(spec));
                 });
    registry.add(
        "frontend_attack_decay",
        "Attack/Decay extended to the front end (Section 7 future work)",
        attack_decay_params, [](const ControllerSpec &spec) -> Controller {
            return std::make_unique<FrontEndAttackDecayController>(
                attackDecayConfigFromSpec(spec));
        });
}

} // namespace

void
ControllerSpec::appendTo(std::string &out) const
{
    appendString(out, name);
    appendU64(out, params.size());
    for (const auto &[key, value] : params) {
        appendString(out, key);
        appendDouble(out, value);
    }
    appendU64(out, schedule.size());
    for (const FrequencyVector &freqs : schedule)
        for (Hertz f : freqs)
            appendDouble(out, f);
}

bool
parseControllerSpec(const std::string &text, ControllerSpec &out,
                    std::string *error)
{
    ControllerSpec spec;
    auto colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (spec.name.empty())
        return failWith(error, "empty controller name in '" + text + "'");
    KeyValueError bad;
    if (colon != std::string::npos &&
        !parseKeyValues(text.substr(colon + 1), spec.params, bad))
        return failWith(error, bad.kind == KeyValueError::NotKeyValue
                                   ? "controller parameter '" + bad.key +
                                         "' is not key=value"
                                   : "controller parameter '" + bad.key +
                                         "': '" + bad.value +
                                         "' is not a number");
    out = std::move(spec);
    return true;
}

ControllerSpec
parseControllerSpec(const std::string &text)
{
    ControllerSpec spec;
    std::string error;
    if (!parseControllerSpec(text, spec, &error))
        mcd_panic("malformed controller text: %s", error.c_str());
    return spec;
}

ControllerSpec
attackDecaySpec(const AttackDecayConfig &config, const std::string &name)
{
    ControllerSpec spec;
    spec.name = name;
    spec.params["deviation_threshold"] = config.deviationThreshold;
    spec.params["reaction_change"] = config.reactionChange;
    spec.params["decay"] = config.decay;
    spec.params["perf_deg_threshold"] = config.perfDegThreshold;
    spec.params["endstop_count"] = config.endstopCount;
    spec.params["literal_guard"] = config.literalListingGuard ? 1.0 : 0.0;
    return spec;
}

AttackDecayConfig
attackDecayConfigFromSpec(const ControllerSpec &spec)
{
    AttackDecayConfig config;
    config.deviationThreshold =
        paramOr(spec, "deviation_threshold", config.deviationThreshold);
    config.reactionChange =
        paramOr(spec, "reaction_change", config.reactionChange);
    config.decay = paramOr(spec, "decay", config.decay);
    config.perfDegThreshold =
        paramOr(spec, "perf_deg_threshold", config.perfDegThreshold);
    config.endstopCount = static_cast<int>(
        paramOr(spec, "endstop_count", config.endstopCount));
    config.literalListingGuard =
        paramOr(spec, "literal_guard",
                config.literalListingGuard ? 1.0 : 0.0) != 0.0;
    return config;
}

ControllerRegistry &
ControllerRegistry::instance()
{
    static ControllerRegistry *registry = [] {
        auto *r = new ControllerRegistry();
        registerBuiltins(*r);
        return r;
    }();
    return *registry;
}

void
ControllerRegistry::add(const std::string &name,
                        const std::string &description,
                        std::vector<Param> params, Factory factory)
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    if (entries_.count(name))
        mcd_panic("controller '%s' registered twice", name.c_str());
    entries_[name] = Entry{Info{name, description}, std::move(params),
                           std::move(factory)};
}

bool
ControllerRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    return entries_.count(name) > 0;
}

bool
ControllerRegistry::check(const ControllerSpec &spec,
                          std::string *error) const
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto it = entries_.find(spec.name);
    if (it == entries_.end())
        return failWith(error, "unknown controller '" + spec.name +
                                   "' (mcd_cli list shows registered "
                                   "names)");
    const std::vector<Param> &declared = it->second.params;
    for (const auto &[key, value] : spec.params)
        if (std::none_of(declared.begin(), declared.end(),
                         [&](const Param &p) { return p.name == key; }))
            return failWith(error, "controller '" + spec.name +
                                       "' has no parameter '" + key +
                                       "'");
    for (const Param &p : declared)
        if (p.required && !spec.params.count(p.name))
            return failWith(error,
                            "controller '" + spec.name +
                                "' requires a '" + p.name +
                                "' parameter" +
                                (p.unit.empty() ? ""
                                                : " (" + p.unit + ")"));
    return true;
}

std::unique_ptr<FrequencyController>
ControllerRegistry::create(const ControllerSpec &spec) const
{
    std::string error;
    if (!check(spec, &error))
        mcd_panic("unchecked controller spec reached the library: %s",
                  error.c_str());
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(registry_mutex);
        factory = entries_.at(spec.name).factory;
    }
    return factory(spec);
}

std::vector<ControllerRegistry::Info>
ControllerRegistry::list() const
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    std::vector<Info> infos;
    for (const auto &entry : entries_)
        infos.push_back(entry.second.info);
    return infos;
}

} // namespace mcd

/**
 * @file
 * perfbench: the binary that runs the repository benchmark's workloads.
 *
 *   perfbench --workload NAME --seed N --ops N --trace 0|1
 *             --tmp DIR --out FILE
 *
 * Runs `--ops` timed ops in kSetups chunks. Each chunk gets a workload
 * set up from scratch (timed; one setup_s sample) and runs its share
 * of the ops on it, so the set-up samples are spread over the whole
 * run like the op samples are. Writes one JSON document of raw samples
 * to `--out`: setup seconds, per-op milliseconds and check outcomes,
 * timed wall seconds of the ops, peak RSS, exact work counts, and
 * (with --trace 1) the per-layer summary. With --trace 1 the other
 * workloads also run their secondary ops, traced, so one traced run
 * reports every layer; their failed ops are counted apart. run.py
 * turns the samples into the benchmark's metrics. The library writes
 * status lines to stdout, which is why the document goes to a file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hh"
#include "common/json.hh"
#include "harness/artifact.hh"
#include "common/serial.hh"

namespace perfbench
{

void
Layers::add(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[name].push_back(value);
}

void
Layers::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] = value;
}

std::map<std::string, double>
Layers::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out = values_;
    for (auto [name, values] : samples_) {
        std::sort(values.begin(), values.end());
        std::size_t n = values.size();
        out[name] = n % 2 ? values[n / 2]
                          : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    }
    return out;
}

std::uint64_t
digest(const mcd::SimStats &stats)
{
    return mcd::serial::fnv1a(mcd::encodeArtifact(stats));
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &tmp)
{
    if (name == "sim-cold")
        return makeSimCold(seed);
    if (name == "regen-warm")
        return makeRegenWarm(seed, tmp);
    if (name == "serve-warm")
        return makeServeWarm(seed, tmp);
    return nullptr;
}

} // namespace perfbench

namespace
{

using namespace perfbench;
namespace json = mcd::json;

/** Set-ups per run, each followed by its chunk of the ops. */
constexpr std::uint64_t kSetups = 15;

/** The workloads, with the traced ops each runs as a secondary of
 *  another workload's traced run. serve-warm's ops are short, so it
 *  runs hundreds: its per-request layers and the daemon's latency
 *  histograms then rest on many samples, not on set-up's warm-up
 *  requests. */
struct WorkloadInfo
{
    const char *name;
    std::uint64_t secondaryOps;
};
constexpr WorkloadInfo kWorkloads[] = {
    {"sim-cold", 8}, {"regen-warm", 8}, {"serve-warm", 400}};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t ops = 0;
    bool trace = false;
    std::string tmp;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --ops N --trace 0|1 --tmp DIR --out FILE\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &text, const char *flag)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage(flag);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = parseU64(value, "--seed");
        else if (flag == "--ops")
            args.ops = parseU64(value, "--ops");
        else if (flag == "--trace")
            args.trace = parseU64(value, "--trace") != 0;
        else if (flag == "--tmp")
            args.tmp = value;
        else if (flag == "--out")
            args.out = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.ops == 0 || args.tmp.empty() || args.out.empty())
        usage("--ops, --tmp and --out are required");
    return args;
}

std::string
numberList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + json::num(values[i]);
    return out + "]";
}

std::string
numberMap(const std::map<std::string, double> &values)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : values) {
        out += (first ? "" : ", ") + json::str(name) + ": " +
               json::num(value);
        first = false;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.tmp);

    // Chunk r sets up a fresh workload and runs its share of the ops;
    // only one workload is alive at a time. The last one's exact counts
    // are reported (every chunk does the same work per op).
    std::vector<double> setup_s;
    std::vector<OpSample> samples;
    double wall_s = 0.0;
    Layers layers;
    Exact exact;
    for (std::uint64_t r = 0; r < kSetups; ++r) {
        auto workload =
            makeWorkload(args.workload, args.seed,
                         args.tmp + "/setup" + std::to_string(r));
        if (!workload)
            usage(("unknown workload " + args.workload).c_str());
        auto start = SteadyClock::now();
        workload->setup();
        setup_s.push_back(nsSince(start) * 1e-9);

        std::uint64_t count = args.ops * (r + 1) / kSetups -
                              args.ops * r / kSetups;
        start = SteadyClock::now();
        std::vector<OpSample> chunk =
            workload->run(count, args.trace, layers);
        wall_s += nsSince(start) * 1e-9;
        samples.insert(samples.end(), chunk.begin(), chunk.end());
        if (r + 1 == kSetups)
            exact = workload->exact();
    }

    std::uint64_t secondary_failed = 0;
    if (args.trace) {
        for (const WorkloadInfo &other : kWorkloads) {
            if (args.workload == other.name)
                continue;
            auto secondary =
                makeWorkload(other.name, args.seed,
                             args.tmp + "/" + other.name);
            secondary->setup();
            for (const OpSample &s :
                 secondary->run(other.secondaryOps, true, layers))
                secondary_failed += s.ok ? 0 : 1;
            for (const auto &[name, value] : secondary->exact())
                layers.set(name, value);
        }
        for (const auto &[name, value] : exact)
            layers.set(name, value);
    }

    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);

    std::vector<double> op_ms;
    std::string ok = "[", traced = "[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        op_ms.push_back(samples[i].ms);
        ok += std::string(i ? ", " : "") +
              (samples[i].ok ? "true" : "false");
        traced += std::string(i ? ", " : "") +
                  (samples[i].traced ? "true" : "false");
    }

    std::ofstream out(args.out);
    out << "{\"workload\": " << json::str(args.workload)
        << ",\n \"setup_s\": " << numberList(setup_s)
        << ",\n \"wall_s\": " << json::num(wall_s)
        << ",\n \"rss_peak_kb\": " << usage_self.ru_maxrss
        << ",\n \"secondary_failed\": " << secondary_failed
        << ",\n \"exact\": " << numberMap(exact)
        << ",\n \"layers\": " << numberMap(layers.summary())
        << ",\n \"op_ok\": " << ok << "]"
        << ",\n \"op_traced\": " << traced << "]"
        << ",\n \"op_ms\": " << numberList(op_ms) << "}\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    std::filesystem::remove_all(args.tmp);
    return 0;
}

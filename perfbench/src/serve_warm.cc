/**
 * @file
 * serve-warm: the daemon's warm path and its error path. An
 * in-process serve::Server (two workers, private cache primed in
 * setup) answers two ServeClient connections in a closed loop. Each
 * op sends one warm `run` for four benches under a controller cycled
 * from a fixed list — four `result` frames plus `done`, all memory
 * hits — then one request the daemon must reject as `bad-request`.
 * Protocol, JSON, rendering, admission and the cache's memory-hit
 * path do all the work; nothing simulates.
 */

#include <array>
#include <atomic>
#include <filesystem>
#include <thread>

#include "bench.hh"
#include "common/json.hh"
#include "control/controller_registry.hh"
#include "harness/parallel_sweep.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

using namespace mcd;
namespace json = mcd::json;

constexpr std::array<const char *, 4> kBenches = {"adpcm", "gsm", "mcf",
                                                  "health"};
constexpr std::array<const char *, 3> kControllers = {
    "attack_decay", "none", "attack_decay:decay=0.0125"};
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kWindow = 2000;
constexpr int kClients = 2;
const char *const kBadRequest =
    "{\"op\": \"run\", \"benches\": [\"synthetic:bogus=1\"]}";

class ServeWarm : public Workload
{
  public:
    ServeWarm(std::uint64_t seed, std::string dir)
        : seed_(seed), dir_(std::move(dir))
    {
    }

    ~ServeWarm() override
    {
        if (server_) {
            server_->requestStop();
            thread_.join();
        }
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
    }

    ServeWarm(const ServeWarm &) = delete;
    ServeWarm &operator=(const ServeWarm &) = delete;

    void
    setup() override
    {
        std::filesystem::create_directories(dir_);
        serve::ServeOptions options;
        options.socketPath = dir_ + "/serve.sock";
        options.workers = 2;
        options.maxInflight = 4 * static_cast<int>(kBenches.size());
        options.config.warmup = kWarmup;
        options.config.instructions = kWindow;
        options.cache = &cache_;
        // Requests carry the seed as a JSON number (a double): keep it
        // exactly representable.
        clockSeed_ = deriveJobSeed(seed_, 0) & 0xffffffffu;

        // Prime the private cache and record what the daemon must
        // serve: the direct renderer over a direct simulation.
        std::vector<ExperimentSpec> specs;
        for (const char *controller : kControllers) {
            for (const char *bench : kBenches) {
                ExperimentSpec spec;
                spec.benchmark = bench;
                spec.controller = parseControllerSpec(controller);
                spec.config = options.config;
                spec.config.clockSeed = clockSeed_;
                specs.push_back(spec);
            }
        }
        expected_.resize(specs.size());
        stats_.resize(specs.size());
        ParallelSweep(2).forEach(specs.size(), [&](std::size_t i) {
            stats_[i] = runExperiment(specs[i]);
            expected_[i] = serve::experimentResultJson(specs[i], stats_[i]);
            cache_.getOrRun(specs[i]);
        });
        specs_ = std::move(specs);

        server_ = std::make_unique<serve::Server>(options);
        thread_ = std::thread([this] { server_->run(); });

        // Warm-up: one op per controller on one connection.
        Layers unused;
        serve::ServeClient client;
        std::string error;
        if (!client.connect(server_->socketPath(), &error))
            throw std::runtime_error("serve-warm: " + error);
        for (std::size_t c = 0; c < kControllers.size(); ++c)
            if (!runOp(client, c, false, unused).ok)
                throw std::runtime_error("serve-warm: warm-up op failed");
        hitsBefore_ = cache_.hits();
        frames_ = 0;
    }

    std::vector<OpSample>
    run(std::uint64_t count, bool trace, Layers &layers) override
    {
        std::vector<OpSample> samples(count);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                serve::ServeClient client;
                bool connected =
                    client.connect(server_->socketPath(), nullptr);
                // Each client alternates traced and plain ops itself.
                for (std::uint64_t i = c; i < count; i += kClients) {
                    samples[i] = connected
                        ? runOp(client, i, tracedOp(trace, i / kClients),
                                layers)
                        : OpSample{};
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        ops_ += count;
        hitsAfter_ = cache_.hits();
        if (trace)
            daemonLatency(layers);
        return samples;
    }

    Exact
    exact() override
    {
        Exact out;
        double ops = static_cast<double>(ops_);
        out["serve.frames"] = static_cast<double>(frames_) / ops;
        // Reply bytes depend only on the controller: the mean over one
        // cycle of them, whatever the op count.
        double bytes = 0.0;
        for (std::uint64_t b : cycleBytes_)
            bytes += static_cast<double>(b);
        out["serve.bytes"] = bytes / static_cast<double>(kControllers.size());
        out["cache.hits"] =
            static_cast<double>(hitsAfter_ - hitsBefore_) / ops;
        return out;
    }

  private:
    std::string
    runRequest(std::size_t controller) const
    {
        std::string benches;
        for (const char *bench : kBenches)
            benches += std::string(benches.empty() ? "" : ", ") +
                       json::str(bench);
        return "{\"op\": \"run\", \"benches\": [" + benches +
               "], \"controller\": " +
               json::str(kControllers[controller]) +
               ", \"instructions\": " + json::u64(kWindow) +
               ", \"warmup\": " + json::u64(kWarmup) +
               ", \"seed\": " + json::u64(clockSeed_) + "}";
    }

    /** Send one request and collect reply frames up to the terminal
     *  one (ServeClient::call's loop, keeping the raw frames). */
    static bool
    exchange(serve::ServeClient &client, const std::string &request,
             std::vector<std::string> &frames,
             std::vector<json::Value> &events)
    {
        if (!client.send(request, nullptr))
            return false;
        while (true) {
            std::string payload;
            if (client.recv(payload) != serve::FrameStatus::Ok)
                return false;
            json::Value event;
            if (!json::parse(payload, event) || !event.isObject())
                return false;
            frames.push_back(std::move(payload));
            events.push_back(std::move(event));
            if (events.back().getString("event") != "result")
                return true;
        }
    }

    OpSample
    runOp(serve::ServeClient &client, std::uint64_t index, bool traced,
          Layers &layers)
    {
        std::size_t controller = index % kControllers.size();
        std::string request = runRequest(controller);
        std::vector<std::string> frames;
        std::vector<json::Value> events;

        auto start = SteadyClock::now();
        bool ok = exchange(client, request, frames, events);
        double run_ns = nsSince(start);
        auto bad_start = SteadyClock::now();
        std::size_t run_frames = frames.size();
        ok = exchange(client, kBadRequest, frames, events) && ok;
        double bad_ns = nsSince(bad_start);
        OpSample sample;
        sample.ms = nsSince(start) * 1e-6;
        sample.traced = traced;

        // Four results byte-identical to the direct renderer, sealed by
        // an all-warm `done`; then a bad-request error.
        std::size_t base = controller * kBenches.size();
        ok = ok && run_frames == kBenches.size() + 1 &&
             frames.size() == run_frames + 1;
        for (std::size_t k = 0; ok && k < kBenches.size(); ++k) {
            std::size_t index_in_run =
                static_cast<std::size_t>(events[k].getU64("index", 99));
            ok = index_in_run < kBenches.size() &&
                 events[k].getString("payload") ==
                     expected_[base + index_in_run];
        }
        if (ok) {
            const json::Value &done = events[kBenches.size()];
            const json::Value &bad = events.back();
            ok = done.getString("event") == "done" &&
                 done.getU64("results", 0) == kBenches.size() &&
                 done.getU64("cold_units", 1) == 0 &&
                 bad.getString("event") == "error" &&
                 bad.getString("code") == "bad-request";
        }
        std::uint64_t bytes = 0;
        for (const std::string &frame : frames)
            bytes += frame.size();
        frames_ += frames.size();
        // Every op under one controller gets the same reply bytes as
        // that controller's warm-up op (set-up runs those serially).
        if (cycleBytes_[controller] == 0)
            cycleBytes_[controller] = bytes;
        ok = ok && bytes == cycleBytes_[controller];
        if (traced && ok) {
            layers.add("serve.run_us", run_ns * 1e-3);
            layers.add("serve.bad_request_us", bad_ns * 1e-3);
            replayLayers(client, base, frames, bytes, layers);
        }
        sample.ok = ok;
        return sample;
    }

    void
    replayLayers(serve::ServeClient &client, std::size_t base,
                 const std::vector<std::string> &frames,
                 std::uint64_t bytes, Layers &layers) const
    {
        json::Value reply;
        auto start = SteadyClock::now();
        if (client.call("{\"op\": \"ping\"}", {}, reply, nullptr))
            layers.add("serve.ping_us", nsSince(start) * 1e-3);

        start = SteadyClock::now();
        for (const std::string &frame : frames)
            json::parse(frame, reply);
        layers.add("json.parse_us_per_kb",
                   nsSince(start) * 1e-3 /
                       (static_cast<double>(bytes) / 1024.0));

        std::uint64_t sink = 0;
        for (std::size_t k = 0; k < kBenches.size(); ++k) {
            const ExperimentSpec &spec = specs_[base + k];
            start = SteadyClock::now();
            sink += serve::experimentResultJson(spec, stats_[base + k])
                        .size();
            layers.add("serve.render_us", nsSince(start) * 1e-3);
            // The daemon builds each served unit's key twice (cachedHint
            // and getOrRun).
            start = SteadyClock::now();
            sink += spec.cacheKey().size() + spec.cacheKey().size();
            layers.add("harness.cache_key_us", nsSince(start) * 1e-3 / 2);
        }
        keep(sink);
    }

    /** The daemon's own queue and execution latency histograms, read
     *  through the `metrics` verb. */
    void
    daemonLatency(Layers &layers) const
    {
        serve::ServeClient client;
        json::Value reply;
        if (!client.connect(server_->socketPath(), nullptr) ||
            !client.call("{\"op\": \"metrics\"}", {}, reply, nullptr))
            return;
        const json::Value *stats = reply.get("stats");
        if (!stats)
            return;
        for (auto [path, name] :
             {std::pair{"serve.request.queue_ns", "serve.queue_us_p50"},
              std::pair{"serve.request.exec_ns", "serve.exec_us_p50"}}) {
            const json::Value *hist = stats->get(path);
            if (hist)
                layers.set(name, hist->getNumber("p50", 0.0) * 1e-3);
        }
    }

    std::uint64_t seed_;
    std::string dir_;
    std::uint64_t clockSeed_ = 0;
    ArtifactCache cache_;
    std::vector<ExperimentSpec> specs_;
    std::vector<SimStats> stats_;
    std::vector<std::string> expected_;
    std::atomic<std::uint64_t> frames_{0};
    std::array<std::uint64_t, kControllers.size()> cycleBytes_{};
    std::uint64_t ops_ = 0, hitsBefore_ = 0, hitsAfter_ = 0;
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

} // namespace

std::unique_ptr<Workload>
makeServeWarm(std::uint64_t seed, const std::string &tmp)
{
    return std::make_unique<ServeWarm>(seed, tmp + "/serve");
}

} // namespace perfbench

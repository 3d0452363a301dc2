/**
 * @file
 * The serve subsystem under test: framed-protocol edge cases, the
 * daemon's request handling (validation errors as structured replies,
 * admission control, clean shutdown), byte-identity of served results
 * against the direct renderer, and the headline cross-client
 * guarantee — two concurrent clients requesting the same uncached
 * spec cost exactly one simulation.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "harness/experiment.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace mcd;
using namespace mcd::serve;

namespace
{

/** A per-test socket path that cannot collide across test runs. */
std::string
socketPath(const std::string &tag)
{
    return "/tmp/mcd_serve_" + tag + "_" + std::to_string(::getpid()) +
           ".sock";
}

/** The test methodology: small enough that a unit runs in tens of
 *  milliseconds, so whole-daemon tests stay fast. */
RunnerConfig
testConfig()
{
    RunnerConfig config;
    config.instructions = 20000;
    config.warmup = 5000;
    config.intervalInstructions = 500;
    return config;
}

/**
 * One daemon on a private ArtifactCache (never the process-wide
 * instance — tests must not contaminate each other's counters), run
 * on a background thread for the test body to talk to. Connects are
 * retried by connectTo(), so there is no startup handshake.
 */
class TestDaemon
{
  public:
    explicit TestDaemon(const std::string &tag, int max_inflight = -1,
                        int workers = 2, const std::string &store = "")
    {
        ServeOptions options;
        options.socketPath = socketPath(tag);
        options.workers = workers;
        options.maxInflight = max_inflight;
        options.config = testConfig();
        options.config.store = store;
        options.cache = &cache_;
        server_ = std::make_unique<Server>(options);
        thread_ = std::thread([this] { server_->run(); });
    }

    ~TestDaemon()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
    }

    /** Wait for run() to return (a `shutdown` request landed). */
    void join() { thread_.join(); }

    ArtifactCache &cache() { return cache_; }
    Server &server() { return *server_; }
    const std::string &path() const { return server_->socketPath(); }

  private:
    ArtifactCache cache_;
    std::unique_ptr<Server> server_;
    std::thread thread_;
};

/** Connect, retrying briefly (the daemon thread may still be between
 *  construction and run(); the listening socket itself exists from
 *  construction, so this converges fast). */
void
connectTo(ServeClient &client, const std::string &path)
{
    std::string error;
    for (int i = 0; i < 100; ++i) {
        if (client.connect(path, &error))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "could not connect to " << path << ": " << error;
}

/** One request -> one reply frame, parsed. */
json::Value
callOne(ServeClient &client, const std::string &request)
{
    std::string error;
    EXPECT_TRUE(client.send(request, &error)) << error;
    std::string raw;
    EXPECT_EQ(FrameStatus::Ok, client.recv(raw));
    json::Value reply;
    EXPECT_TRUE(json::parse(raw, reply, &error)) << error;
    return reply;
}

/** A collected `run` reply stream. */
struct RunReply
{
    std::vector<std::string> payloads; //!< by result index
    std::vector<bool> cold;            //!< by result index
    json::Value terminal;              //!< `done` or `error`
    bool transport_ok = false;
};

/** Read reply frames for an already-sent request until the stream's
 *  terminal event. */
RunReply
drainRun(ServeClient &client)
{
    RunReply out;
    while (true) {
        std::string raw;
        if (client.recv(raw) != FrameStatus::Ok)
            return out;
        json::Value event;
        std::string error;
        if (!json::parse(raw, event, &error))
            return out;
        if (event.getString("event") != "result") {
            out.terminal = std::move(event);
            out.transport_ok = true;
            return out;
        }
        std::size_t index =
            static_cast<std::size_t>(event.getU64("index", 0));
        if (out.payloads.size() <= index) {
            out.payloads.resize(index + 1);
            out.cold.resize(index + 1, false);
        }
        out.payloads[index] = event.getString("payload");
        out.cold[index] = event.getBool("cold", false);
    }
}

/** Send one `run` request and collect its whole stream. */
RunReply
runRequest(ServeClient &client, const std::string &request)
{
    std::string error;
    if (!client.send(request, &error)) {
        ADD_FAILURE() << error;
        return RunReply{};
    }
    return drainRun(client);
}

/** A raw (unframed-at-will) connection for protocol-abuse tests. */
struct RawConnection
{
    int fd = -1;

    ~RawConnection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    connect(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        return ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0;
    }
};

/** Big-endian frame header for a declared payload length. */
void
packHeader(std::uint32_t length, unsigned char out[4])
{
    out[0] = static_cast<unsigned char>(length >> 24);
    out[1] = static_cast<unsigned char>(length >> 16);
    out[2] = static_cast<unsigned char>(length >> 8);
    out[3] = static_cast<unsigned char>(length);
}

} // namespace

// ------------------------------------------------------ framing layer

TEST(ServeProtocol, FramesRoundTrip)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    EXPECT_TRUE(writeFrame(fds[0], "{\"op\": \"ping\"}"));
    EXPECT_TRUE(writeFrame(fds[0], "")); // empty frames are legal
    std::string payload;
    EXPECT_EQ(FrameStatus::Ok, readFrame(fds[1], payload));
    EXPECT_EQ("{\"op\": \"ping\"}", payload);
    EXPECT_EQ(FrameStatus::Ok, readFrame(fds[1], payload));
    EXPECT_EQ("", payload);
    ::close(fds[0]);
    // EOF at a frame boundary is the clean end of a conversation.
    EXPECT_EQ(FrameStatus::Eof, readFrame(fds[1], payload));
    ::close(fds[1]);
}

TEST(ServeProtocol, TruncationIsNeverCleanEof)
{
    // Mid-payload: the header promises 10 bytes, only 3 arrive.
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    unsigned char header[4];
    packHeader(10, header);
    ASSERT_EQ(4, ::write(fds[0], header, 4));
    ASSERT_EQ(3, ::write(fds[0], "abc", 3));
    ::close(fds[0]);
    std::string payload;
    EXPECT_EQ(FrameStatus::Truncated, readFrame(fds[1], payload));
    ::close(fds[1]);

    // Mid-header: the peer dies two bytes into the length prefix.
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    ASSERT_EQ(2, ::write(fds[0], header, 2));
    ::close(fds[0]);
    EXPECT_EQ(FrameStatus::Truncated, readFrame(fds[1], payload));
    ::close(fds[1]);
}

TEST(ServeProtocol, OversizedFrameRejectedOnDeclaredLength)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    // Declare a frame just over the limit and send no payload at all:
    // the reader must reject on the header alone, without buffering.
    unsigned char header[4];
    packHeader(kMaxFrameBytes + 1, header);
    ASSERT_EQ(4, ::write(fds[0], header, 4));
    std::string payload;
    EXPECT_EQ(FrameStatus::TooLarge, readFrame(fds[1], payload));
    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------------------- daemon verbs

TEST(ServeDaemon, PingAndStats)
{
    TestDaemon daemon("ping");
    ServeClient client;
    connectTo(client, daemon.path());

    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
    EXPECT_EQ(kProtocolVersion, pong.getU64("protocol", 0));

    json::Value stats = callOne(client, "{\"op\": \"cache-stats\"}");
    EXPECT_EQ("stats", stats.getString("event"));
    const json::Value *serve = stats.get("serve");
    ASSERT_NE(nullptr, serve);
    EXPECT_EQ(2u, serve->getU64("requests", 0)); // ping + this one
    EXPECT_EQ(0u, serve->getU64("units_executed", 99));
    EXPECT_EQ(2u, serve->getU64("workers", 0));
    const json::Value *cache = stats.get("cache");
    ASSERT_NE(nullptr, cache);
    EXPECT_EQ(0u, cache->getU64("simulations", 99));
}

TEST(ServeDaemon, MalformedJsonGetsErrorAndConnectionSurvives)
{
    TestDaemon daemon("badjson");
    ServeClient client;
    connectTo(client, daemon.path());

    json::Value error = callOne(client, "{\"op\": \"ping\""); // cut off
    EXPECT_EQ("error", error.getString("event"));
    EXPECT_EQ("bad-request", error.getString("code"));

    error = callOne(client, "[1, 2, 3]"); // valid JSON, not an object
    EXPECT_EQ("bad-request", error.getString("code"));

    error = callOne(client, "{\"op\": \"transmogrify\"}");
    EXPECT_EQ("bad-request", error.getString("code"));

    // The framing never desynchronized: the same connection still
    // answers.
    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
    // Unparseable frames never reach dispatch, so only the unknown op
    // and the ping count as requests; all three failures count as bad.
    EXPECT_EQ(2u, daemon.server().stats().requests);
    EXPECT_EQ(3u, daemon.server().stats().badRequests);
}

TEST(ServeDaemon, UserErrorFatalsBecomeBadRequestReplies)
{
    TestDaemon daemon("fatals");
    ServeClient client;
    connectTo(client, daemon.path());
    // The tournament verb resolves through the process-wide cache.
    std::uint64_t global_sims = ArtifactCache::instance().simulationsRun();

    // Every user error is caught by validation before any work is
    // admitted: unknown names, bad family knobs, bad controller text
    // and params, and numeric fields that are present but not a
    // whole number in range (never silently rewritten to a default).
    for (const char *request : {
             "{\"op\": \"run\", \"benches\": [\"nosuch\"]}",
             "{\"op\": \"run\", \"benches\": "
             "[\"synthetic:bogus_knob=1\"]}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"controller\": \"attack_decay:bogus=1\"}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"controller\": \"attack_decay:decay\"}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"controller\": \"constant\"}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"interval\": 4294967297}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"instructions\": -5}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"instructions\": 2000.7}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"seed\": \"abc\"}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"seed\": 1e20}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"instructions\": 0}",
             // Each field in range, but the horizon wraps to 0.
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"instructions\": 9223372036854775808, "
             "\"warmup\": 9223372036854775808}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"freq\": \"fast\"}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], \"mode\": 5}",
             "{\"op\": \"run\", \"benches\": [\"gsm\"], "
             "\"controller\": 7}",
             "{\"op\": \"tournament\", \"scenarios\": [\"nosuch\"]}",
             "{\"op\": \"tournament\", \"scenarios\": "
             "[\"synthetic:markov=1\"]}",
             "{\"op\": \"tournament\", \"controllers\": "
             "[\"constant\"]}",
             "{\"op\": \"tournament\", \"controllers\": "
             "[\"attack_decay:decay=fast\"]}",
             "{\"op\": \"tournament\", \"target_deg\": \"x\"}",
         }) {
        json::Value error = callOne(client, request);
        EXPECT_EQ("bad-request", error.getString("code")) << request;
    }

    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
    EXPECT_EQ(0u, daemon.cache().simulationsRun());
    EXPECT_EQ(global_sims, ArtifactCache::instance().simulationsRun());
}

TEST(ServeDaemon, StoreWriteFailureIsInternalAndDaemonSurvives)
{
    namespace fs = std::filesystem;
    std::string root = socketPath("store") + ".d";
    fs::remove_all(root);
    TestDaemon daemon("storefail", -1, 2, root);

    // Make the spec's entry path a non-empty directory: the store's
    // rename onto it fails (whatever the user's privileges), an
    // environment fault the daemon must survive.
    ExperimentSpec spec;
    spec.benchmark = "gsm";
    spec.config = testConfig();
    fs::create_directories(fs::path(DiskStore(root).pathFor(
                               spec.cacheKey())) / "blocker");

    ServeClient client;
    connectTo(client, daemon.path());
    RunReply reply =
        runRequest(client, "{\"op\": \"run\", \"benches\": [\"gsm\"]}");
    ASSERT_TRUE(reply.transport_ok);
    EXPECT_EQ("error", reply.terminal.getString("event"));
    EXPECT_EQ("internal", reply.terminal.getString("code"));
    EXPECT_NE(std::string::npos,
              reply.terminal.getString("error").find(
                  "cannot finalize artifact store entry"))
        << reply.terminal.getString("error");
    // The stream is still sealed with `done`, carrying no results.
    std::string raw;
    ASSERT_EQ(FrameStatus::Ok, client.recv(raw));
    json::Value done;
    ASSERT_TRUE(json::parse(raw, done));
    EXPECT_EQ("done", done.getString("event"));
    EXPECT_EQ(0u, done.getU64("results", 99));

    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
    // The failed fetch retired its in-flight slot.
    EXPECT_EQ(0u, daemon.cache().inflightEntries());
    fs::remove_all(root);
}

TEST(ServeDaemon, OversizedFrameGetsErrorThenHangup)
{
    TestDaemon daemon("oversize");
    RawConnection raw;
    ASSERT_TRUE(raw.connect(daemon.path()));

    // A header declaring an over-limit payload, nothing behind it. The
    // daemon cannot resync past an unread payload, so the contract is
    // a structured `too-large` error followed by a hangup.
    unsigned char header[4];
    packHeader(kMaxFrameBytes + 1, header);
    ASSERT_EQ(4, ::write(raw.fd, header, 4));

    std::string payload;
    ASSERT_EQ(FrameStatus::Ok, readFrame(raw.fd, payload));
    json::Value reply;
    std::string error;
    ASSERT_TRUE(json::parse(payload, reply, &error)) << error;
    EXPECT_EQ("error", reply.getString("event"));
    EXPECT_EQ("too-large", reply.getString("code"));
    EXPECT_EQ(FrameStatus::Eof, readFrame(raw.fd, payload));

    // The daemon itself is unaffected.
    ServeClient client;
    connectTo(client, daemon.path());
    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
}

TEST(ServeDaemon, WarmRepeatIsByteIdenticalWithZeroSimulations)
{
    TestDaemon daemon("warm");
    ServeClient a;
    connectTo(a, daemon.path());
    const std::string request =
        "{\"op\": \"run\", \"benches\": [\"gsm\"]}";

    RunReply first = runRequest(a, request);
    ASSERT_TRUE(first.transport_ok);
    ASSERT_EQ(1u, first.payloads.size());
    EXPECT_TRUE(first.cold[0]);
    EXPECT_EQ("done", first.terminal.getString("event"));
    EXPECT_EQ(1u, daemon.cache().simulationsRun());

    // A second client, same spec: served warm — zero new simulations,
    // `cold_units: 0`, byte-identical payload.
    ServeClient b;
    connectTo(b, daemon.path());
    RunReply second = runRequest(b, request);
    ASSERT_TRUE(second.transport_ok);
    ASSERT_EQ(1u, second.payloads.size());
    EXPECT_FALSE(second.cold[0]);
    EXPECT_EQ(0u, second.terminal.getU64("cold_units", 99));
    EXPECT_EQ(1u, daemon.cache().simulationsRun());
    EXPECT_EQ(first.payloads[0], second.payloads[0]);

    // And byte-identical to the shared renderer over a direct run —
    // the exact per-experiment document `mcd_cli run --json` embeds.
    ExperimentSpec spec;
    spec.benchmark = "gsm";
    spec.config = testConfig();
    EXPECT_EQ(experimentResultJson(spec, runExperiment(spec)),
              first.payloads[0]);
}

TEST(ServeDaemon, ConcurrentClientsOneUncachedSpecSimulateOnce)
{
    TestDaemon daemon("dedup");
    // A deliberately long unit (a per-request methodology override) so
    // the second client reliably arrives while the first's simulation
    // is still in flight.
    const std::string request =
        "{\"op\": \"run\", \"benches\": [\"gsm\"], "
        "\"instructions\": 2000000, \"warmup\": 5000}";

    ServeClient a;
    connectTo(a, daemon.path());
    std::string error;
    ASSERT_TRUE(a.send(request, &error)) << error;

    // Wait until A's unit is admitted (the in-flight gauge is visible
    // through cache-stats) before B asks for the same spec.
    ServeClient probe;
    connectTo(probe, daemon.path());
    bool inflight = false;
    for (int i = 0; i < 1000 && !inflight; ++i) {
        json::Value stats = callOne(probe, "{\"op\": \"cache-stats\"}");
        const json::Value *serve = stats.get("serve");
        ASSERT_NE(nullptr, serve);
        inflight = serve->getU64("inflight_units", 0) >= 1;
        if (!inflight)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(inflight) << "first request never started";

    ServeClient b;
    connectTo(b, daemon.path());
    RunReply reply_b = runRequest(b, request);
    RunReply reply_a = drainRun(a);

    ASSERT_TRUE(reply_a.transport_ok);
    ASSERT_TRUE(reply_b.transport_ok);
    EXPECT_EQ("done", reply_a.terminal.getString("event"));
    EXPECT_EQ("done", reply_b.terminal.getString("event"));
    ASSERT_EQ(1u, reply_a.payloads.size());
    ASSERT_EQ(1u, reply_b.payloads.size());

    // The headline guarantee: one simulation total, byte-identical
    // replies to both clients.
    EXPECT_EQ(1u, daemon.cache().simulationsRun());
    EXPECT_EQ(reply_a.payloads[0], reply_b.payloads[0]);

    // B's unit joined A's in-flight compute rather than re-resolving
    // (the gauge poll above pinned A in flight when B was admitted).
    EXPECT_GE(daemon.cache().inflightJoins(), 1u);
    EXPECT_EQ(2u, daemon.server().stats().unitsExecuted);
}

TEST(ServeDaemon, AdmissionControlRejectsBeyondBound)
{
    TestDaemon daemon("admission", /*max_inflight=*/0);
    ServeClient client;
    connectTo(client, daemon.path());

    json::Value error =
        callOne(client, "{\"op\": \"run\", \"benches\": [\"gsm\"]}");
    EXPECT_EQ("error", error.getString("event"));
    EXPECT_EQ("overloaded", error.getString("code"));
    EXPECT_EQ(1u, daemon.server().stats().rejected);
    EXPECT_EQ(0u, daemon.cache().simulationsRun());

    // Cheap verbs are not load: still answered.
    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
}

TEST(ServeDaemon, ClientDisconnectMidStreamLandsResultAndSurvives)
{
    TestDaemon daemon("disconnect");
    const std::string request =
        "{\"op\": \"run\", \"benches\": [\"mcf\"], "
        "\"instructions\": 500000, \"warmup\": 5000}";

    {
        ServeClient doomed;
        connectTo(doomed, daemon.path());
        std::string error;
        ASSERT_TRUE(doomed.send(request, &error)) << error;
        // Vanish without reading a single reply frame.
    }

    // The admitted unit still completes and its artifact lands in the
    // cache (poll; the worker owns it now and tells no one).
    bool landed = false;
    for (int i = 0; i < 3000 && !landed; ++i) {
        landed = daemon.cache().simulationsRun() >= 1;
        if (!landed)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(landed) << "unit never completed after disconnect";

    // And the daemon is unharmed: a fresh client gets served, and the
    // orphaned result is warm for it now.
    ServeClient client;
    connectTo(client, daemon.path());
    json::Value pong = callOne(client, "{\"op\": \"ping\"}");
    EXPECT_EQ("pong", pong.getString("event"));
    RunReply warm = runRequest(client, request);
    ASSERT_TRUE(warm.transport_ok);
    ASSERT_EQ(1u, warm.payloads.size());
    EXPECT_FALSE(warm.cold[0]);
    EXPECT_EQ(1u, daemon.cache().simulationsRun());
}

TEST(ServeDaemon, ShutdownVerbDrainsAndRemovesSocket)
{
    TestDaemon daemon("shutdown");
    std::string path = daemon.path();
    ServeClient client;
    connectTo(client, path);

    json::Value ack = callOne(client, "{\"op\": \"shutdown\"}");
    EXPECT_EQ("shutdown", ack.getString("event"));

    daemon.join(); // run() returns only after a full drain
    struct stat st;
    EXPECT_NE(0, ::stat(path.c_str(), &st))
        << "socket file survived shutdown";
}

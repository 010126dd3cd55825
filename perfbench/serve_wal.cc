/**
 * @file
 * Workload serve-wal: the daemon operators run. An in-process
 * serve::PlacementServer on 64 racks with a WAL and periodic
 * auto-snapshots, under an open loop of Poisson arrivals over four
 * loopback connections with the place/depart/query/stats mix of
 * bench_serve (40/40/10/10). It is the only workload that exercises the
 * admission queue, the NDJSON codecs, the WAL, stateDigest and what-if
 * clones.
 *
 * Open-loop honesty: requests go out on a seeded schedule whatever the
 * server does; each is timed from when it was due; the generator's own
 * lateness is reported and a ladder step where the generator (not the
 * server) fell behind is invalid; queue_full rejections and errors are
 * failures that miss the latency limit. Departs name only jobs whose
 * place reply has arrived. The generator keeps the running population
 * near a fixed target, so every ladder step sees the same state size;
 * place and depart each stay 40% of requests in the long run.
 *
 * Threads: the service thread, one what-if pool thread and the
 * generator (this thread, busy while it sends) — within a 4-core machine.
 *
 * Check, outside the timed region: once the live server has drained, a
 * server restarted with recover=true on its WAL reports the same state
 * digest and sequence.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <unordered_map>

#include "common/check.h"
#include "common/net_io.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "serve/client.h"
#include "serve/placement_server.h"
#include "workload/models.h"

namespace perfbench {

using namespace netpack;

namespace {

/** Loopback connections, each with at most one request in flight. */
constexpr int kConnections = 4;
/** Fixed reference rate for p50/p99 (requests/s): about a third of the
 * rate at which p99 reaches the latency limit with kTargetRunning jobs
 * running (1.5-1.8k req/s on a 4-vCPU VM). Nearer that rate, queueing
 * multiplies every swing in the machine's speed into the tail. */
constexpr double kReferenceRate = 600.0;
/** Rate of ladder rung 0 (requests/s), below the knee; the reference
 * phase stands in for the rungs under it. */
constexpr double kLadderBase = 1000.0;
/** Latency limit on the client p99 of a ladder step (the median p99 of
 * its kTailWindow-request windows, so one stall of the machine does not
 * decide a step). */
constexpr double kLimitMs = 10.0;
/** Ratio between ladder rungs; one rung is smaller than the bound on
 * throughput_per_s in BENCHMARK.json. */
constexpr double kLadderRatio = 1.04;
/** Requests per ladder step: three p99 windows. */
constexpr double kStepRequests = 3000.0;
/** A step is invalid when the generator's own p99 lateness exceeds this. */
constexpr double kMaxLagMs = 2.5;
/** Running jobs the generator steers the cluster towards: the mean
 * running population of bench/bench_serve's default run (4 clients x
 * 2,500 requests of the same mix; mean 76.5, peak 149, ~8% of the GPUs),
 * the state its closed-loop capacity figures were measured in. */
constexpr std::size_t kTargetRunning = 76;
constexpr std::uint64_t kSnapshotEvery = 1000;
constexpr int kSetupRepeats = 9;
/** Rungs skipped per step of the coarse climb. */
constexpr int kCoarseStride = 4;
/** Fine ladder climbs per run; max rate is their median. */
constexpr int kClimbs = 5;
/** Requests per window of a windowed p99 (>= 10 beyond it). */
constexpr std::size_t kTailWindow = 1000;
/** Give up waiting for replies this long after the last request. */
constexpr double kDrainTimeoutS = 20.0;

serve::ServerConfig
serverConfig(const Options &options, bool recover)
{
    serve::ServerConfig config;
    config.engine.cluster.numRacks = 64;
    config.engine.cluster.serversPerRack = 16;
    config.engine.cluster.gpusPerServer = 4;
    config.engine.cluster.serverLinkGbps = 100.0;
    config.engine.cluster.oversubscription = 1.0;
    config.engine.cluster.torPatGbps = 1000.0;
    config.engine.cluster.rtt = 50e-6;
    config.engine.seed = options.seed;
    config.walPath = options.workDir + "/serve.wal";
    config.recover = recover;
    config.snapshotEvery = kSnapshotEvery;
    config.queryThreads = 1;
    return config;
}

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    NETPACK_REQUIRE(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        ::close(fd);
        throw ConfigError("cannot connect to the server");
    }
    return fd;
}

/** What one open-loop phase at a fixed rate measured. */
struct Phase
{
    double rate = 0.0;
    double seconds = 0.0;
    /** Client latency from the due time; failures are +inf. */
    std::vector<double> latencyMs;
    /** How late each request left the generator. */
    std::vector<double> lagMs;
    /** Requests in flight, sampled evenly over the phase. */
    std::vector<double> outstanding;
    std::int64_t sent = 0;
    std::int64_t failed = 0;
    /** Failures other than queue_full shedding (protocol or server
     * errors — a correctness problem). */
    std::int64_t errors = 0;
};

/**
 * The open-loop generator over kConnections connections. Like the
 * repository's own client (serve::ServeClient), a connection carries one
 * request at a time; a request that falls due while every connection
 * waits for a reply queues here, and that wait counts because latency
 * runs from the due time.
 */
class LoadGen
{
  public:
    LoadGen(std::uint16_t port, std::uint64_t seed, bool recordLines)
        : arrivals_(seed * 2 + 1), ops_(seed * 2 + 2), record_(recordLines)
    {
        for (int c = 0; c < kConnections; ++c)
            conns_.push_back(Conn{connectLoopback(port), {}, false});
    }

    ~LoadGen()
    {
        for (Conn &conn : conns_)
            ::close(conn.fd);
    }

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /** Place jobs until kTargetRunning are running: each round sends
     * the shortfall at once and waits for every reply. */
    void prepopulate()
    {
        while (running_.size() < kTargetRunning) {
            for (std::size_t i = running_.size(); i < kTargetRunning; ++i)
                send(makePlace(), secondsSince(epoch_), nullptr);
            while (!inflight_.empty())
                receive(1.0, nullptr);
        }
    }

    /** Offer Poisson arrivals at @p rate for @p seconds, then collect
     * every reply. */
    Phase run(double rate, double seconds)
    {
        Phase phase;
        phase.rate = rate;
        phase.seconds = seconds;
        const double begin = secondsSince(epoch_);
        const double end = begin + seconds;
        const double sampleEvery = seconds / 64.0;
        double nextSample = begin;
        double due = begin + arrivals_.exponential(rate);
        while (true) {
            double now = secondsSince(epoch_);
            while (due < end && due <= now) {
                phase.lagMs.push_back((now - due) * 1e3);
                send(nextRequest(), due, &phase);
                due += arrivals_.exponential(rate);
                now = secondsSince(epoch_);
            }
            while (nextSample <= now && nextSample < end) {
                phase.outstanding.push_back(
                    static_cast<double>(inflight_.size()));
                nextSample += sampleEvery;
            }
            if (due >= end) {
                if (inflight_.empty())
                    break;
                if (now > end + kDrainTimeoutS) {
                    // Replies that never came are failures (they miss the
                    // latency limit) but not errors: a stalled machine
                    // looks the same from here.
                    for (std::size_t i = 0; i < inflight_.size(); ++i)
                        phase.latencyMs.push_back(INFINITY);
                    phase.failed += static_cast<std::int64_t>(inflight_.size());
                    inflight_.clear();
                    queued_.clear();
                    break;
                }
            }
            // While requests are still due the generator polls without
            // sleeping: a timed sleep on a virtual machine can wake
            // milliseconds late, and then the generator, not the server,
            // would set the latency. Afterwards it blocks until replies.
            const double wake =
                due < end ? now
                          : std::min(end + kDrainTimeoutS,
                                     nextSample < end ? nextSample : INFINITY);
            receive(std::max(0.0, wake - now), &phase);
        }
        return phase;
    }

    /** Every request line sent so far, in send order (when recording). */
    const std::vector<std::string> &lines() const { return lines_; }

  private:
    struct Conn
    {
        int fd = -1;
        std::string inbuf;
        /** A request was sent and its reply has not arrived. */
        bool busy = false;
    };

    JobSpec randomSpec(int id)
    {
        const auto &models = ModelZoo::all();
        JobSpec spec;
        spec.id = JobId(id);
        spec.modelName = models[ops_() % models.size()].name;
        spec.gpuDemand = 1 + static_cast<int>(ops_() % 8);
        spec.iterations = 1000;
        return spec;
    }

    serve::Request makePlace()
    {
        serve::Request request;
        request.op = serve::Op::Place;
        request.jobs.push_back(randomSpec(nextJob_++));
        return request;
    }

    serve::Request nextRequest()
    {
        const std::uint64_t slot = ops_() % 10;
        serve::Request request;
        if (slot < 8) {
            // Place or depart, steering the population to the target.
            const bool depart =
                !running_.empty() &&
                (running_.size() > kTargetRunning ||
                 (running_.size() == kTargetRunning && slot >= 4));
            if (!depart)
                return makePlace();
            request.op = serve::Op::Depart;
            request.departs.push_back(running_.front());
            running_.pop_front();
        } else if (slot == 8) {
            request.op = serve::Op::Query;
            request.jobs.push_back(randomSpec(nextJob_++));
        } else {
            request.op = serve::Op::Stats;
        }
        return request;
    }

    void send(serve::Request request, double due, Phase *phase)
    {
        request.id = nextId_++;
        inflight_[request.id] = due;
        queued_.push_back(serve::serializeRequest(request));
        if (phase != nullptr)
            ++phase->sent;
        dispatch();
    }

    /** Hand queued requests to idle connections, oldest first. */
    void dispatch()
    {
        for (Conn &conn : conns_) {
            if (queued_.empty())
                return;
            if (conn.busy)
                continue;
            if (record_)
                lines_.push_back(queued_.front());
            NETPACK_REQUIRE(sendAll(conn.fd, queued_.front() + "\n"),
                            "server hung up");
            conn.busy = true;
            queued_.pop_front();
        }
    }

    /** Wait up to @p timeout seconds for replies and consume them. */
    void receive(double timeout, Phase *phase)
    {
        std::vector<pollfd> fds;
        for (const Conn &conn : conns_)
            fds.push_back(pollfd{conn.fd, POLLIN, 0});
        timespec ts;
        ts.tv_sec = static_cast<time_t>(timeout);
        ts.tv_nsec = static_cast<long>((timeout - std::floor(timeout)) * 1e9);
        const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready <= 0)
            return;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            char buf[65536];
            const long n = recvSome(conns_[c].fd, buf, sizeof buf);
            NETPACK_REQUIRE(n > 0, "server closed a connection");
            const double now = secondsSince(epoch_);
            std::string &in = conns_[c].inbuf;
            in.append(buf, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (std::size_t eol; (eol = in.find('\n', start)) != std::string::npos;
                 start = eol + 1) {
                conns_[c].busy = false;
                consume(serve::parseResponse(
                            std::string_view(in).substr(start, eol - start)),
                        now, phase);
            }
            in.erase(0, start);
        }
        dispatch();
    }

    void consume(const serve::Response &response, double now, Phase *phase)
    {
        const auto it = inflight_.find(response.id);
        if (it == inflight_.end())
            return; // arrived after its phase counted it as failed
        const double due = it->second;
        inflight_.erase(it);
        for (const PlacedJob &placed : response.placed)
            running_.push_back(placed.id);
        if (phase == nullptr) {
            NETPACK_REQUIRE(response.ok, "set-up request failed: " << response.error);
            return;
        }
        if (!response.ok) {
            ++phase->failed;
            if (!response.rejected)
                ++phase->errors;
            phase->latencyMs.push_back(INFINITY);
            return;
        }
        phase->latencyMs.push_back((now - due) * 1e3);
    }

    std::vector<Conn> conns_;
    Rng arrivals_;
    Rng ops_;
    bool record_;
    const Clock::time_point epoch_ = Clock::now();
    /** Due time of every request awaiting its reply (queued here or
     * sent), by request id. */
    std::unordered_map<std::int64_t, double> inflight_;
    /** Request lines waiting for an idle connection, in due order. */
    std::deque<std::string> queued_;
    std::deque<JobId> running_;
    int nextJob_ = 1;
    std::int64_t nextId_ = 1;
    std::vector<std::string> lines_;
};

/** A ladder step passes when its p99 meets the limit with no failure
 * and no growing backlog. */
bool
stepPassed(const Phase &phase)
{
    const double tolerance =
        std::max(8.0, 0.02 * phase.rate * phase.seconds);
    return phase.failed == 0 &&
           windowedPercentile(phase.latencyMs, kTailWindow, 99.0) <=
               kLimitMs &&
           !backlogGrowing(phase.outstanding, tolerance);
}

serve::Response
stats(std::uint16_t port)
{
    serve::ServeClient client(port);
    serve::Request request;
    request.op = serve::Op::Stats;
    return client.call(request);
}

/**
 * Drain and stop the live server, restart it from its WAL and compare
 * the restarted server's stats digest and sequence with the live
 * engine's final ones. Returns the restart time in seconds.
 */
double
checkRecovery(const Options &options,
              std::unique_ptr<serve::PlacementServer> &server,
              std::unique_ptr<LoadGen> &gen, Result &result)
{
    // Close the load first: once the service loop has drained and
    // exited, the engine holds exactly the mutations the WAL logged.
    gen.reset();
    server->stop();
    server->join();
    const std::uint64_t liveSeq = server->seq();
    const std::string liveDigest = server->engine().stateDigest(liveSeq);
    server.reset();
    const auto start = Clock::now();
    serve::PlacementServer recovered(serverConfig(options, true));
    const double seconds = secondsSince(start);
    const serve::Response again = stats(recovered.port());
    recovered.stop();
    recovered.join();
    if (!again.ok || again.stats.digest != liveDigest ||
        again.stats.seq != liveSeq)
        result.fail("recovered server digest " + again.stats.digest +
                    " (seq " + std::to_string(again.stats.seq) +
                    ") differs from the live digest " + liveDigest +
                    " (seq " + std::to_string(liveSeq) + ")");
    return seconds;
}

void
account(const Phase &phase, Result &result)
{
    result.attempted += phase.sent;
    result.failed += phase.failed;
    if (phase.errors > 0)
        result.fail(std::to_string(phase.errors) +
                    " requests failed with an error at " +
                    std::to_string(phase.rate) + " req/s");
}

/** Offered rate of ladder rung @p k. */
double
rungRate(int k)
{
    return kLadderBase * std::pow(kLadderRatio, k);
}

/** Measure ladder rung @p k once. */
LadderStep
measureRung(LoadGen &gen, int k, Result &result)
{
    const double rate = rungRate(k);
    const Phase step = gen.run(rate, kStepRequests / rate);
    account(step, result);
    LadderStep rung;
    rung.rate = rate;
    rung.valid = percentile(step.lagMs, 99.0) <= kMaxLagMs;
    rung.passed = rung.valid && stepPassed(step);
    std::printf("ladder %8.1f req/s: p99 %7.3f ms, lag p99 %6.3f ms, %s\n",
                rate, windowedPercentile(step.latencyMs, kTailWindow, 99.0),
                percentile(step.lagMs, 99.0),
                !rung.valid ? "invalid (generator behind)"
                            : rung.passed ? "pass" : "fail");
    return rung;
}

/**
 * One climb of the rate ladder: rungs first, first + stride, ... until
 * a rung fails or @p deadline passes. A rung that fails or is invalid
 * is measured once more and the second verdict stands, so one stall of
 * the machine does not end a climb that the server would pass.
 */
std::vector<LadderStep>
climbLadder(LoadGen &gen, int first, int stride, Clock::time_point deadline,
            Result &result)
{
    std::vector<LadderStep> rungs;
    for (int k = first; Clock::now() < deadline; k += stride) {
        LadderStep rung = measureRung(gen, k, result);
        if (!rung.passed)
            rung = measureRung(gen, k, result);
        rungs.push_back(rung);
        if (!rung.passed)
            break;
    }
    return rungs;
}

/** The ladder index of rung rate @p rate. */
int
rungIndex(double rate)
{
    return static_cast<int>(
        std::lround(std::log(rate / kLadderBase) / std::log(kLadderRatio)));
}

/** Replay the recorded request lines through the pieces the service
 * thread uses, each call inside a span; returns the wall seconds. */
double
replay(const Options &options, const std::vector<std::string> &lines,
       Result *layers)
{
    const serve::ServerConfig config = serverConfig(options, false);
    const std::string walPath = options.workDir + "/replay.wal";
    serve::PlacementEngine engine(config.engine);
    serve::WalHeader header;
    header.cluster = config.engine.cluster;
    header.placer = config.engine.placer;
    header.seed = config.engine.seed;
    serve::WalWriter wal(walPath, header);
    exec::ThreadPool pool(1);
    const PlacementContext::Stats before = engine.context().stats();

    std::uint64_t seq = 0;
    std::uint64_t sinceSnapshot = 0;
    std::int64_t offered = 0;
    std::int64_t placed = 0;
    std::int64_t rejectedInReplay = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        NETPACK_SPAN(requestSpan, "serve.request");
        serve::Request request;
        {
            NETPACK_SPAN(span, "protocol.parse");
            request = serve::parseRequest(lines[i]);
        }
        serve::Response response;
        response.id = request.id;
        response.ok = true;
        try {
            switch (request.op) {
              case serve::Op::Place: {
                {
                    NETPACK_SPAN(span, "engine.validate");
                    engine.validatePlace(request.jobs);
                }
                {
                    NETPACK_SPAN(span, "wal.append");
                    wal.appendPlace(++seq, request.jobs);
                }
                BatchResult out;
                {
                    NETPACK_SPAN(span, "engine.apply");
                    out = engine.applyPlace(request.jobs);
                }
                offered += static_cast<std::int64_t>(request.jobs.size());
                placed += static_cast<std::int64_t>(out.placed.size());
                response.placed = std::move(out.placed);
                response.deferred = std::move(out.deferred);
                ++sinceSnapshot;
                break;
              }
              case serve::Op::Depart: {
                {
                    NETPACK_SPAN(span, "engine.validate");
                    engine.validateDepart(request.departs);
                }
                {
                    NETPACK_SPAN(span, "wal.append");
                    wal.appendDepart(++seq, request.departs);
                }
                {
                    NETPACK_SPAN(span, "engine.apply");
                    engine.applyDepart(request.departs);
                }
                ++sinceSnapshot;
                break;
              }
              case serve::Op::Query: {
                NETPACK_SPAN(span, "engine.whatif");
                response.queryResults = engine.whatIf(request.jobs, &pool);
                break;
              }
              default: {
                serve::StatsBody &body = response.stats;
                body.seq = seq;
                body.runningJobs = engine.runningJobs();
                body.freeGpus = engine.freeGpus();
                body.placedJobs = engine.placedJobs();
                body.departedJobs = engine.departedJobs();
                body.deferredJobs = engine.deferredJobs();
                {
                    NETPACK_SPAN(span, "engine.digest");
                    body.digest = engine.stateDigest(seq);
                }
                response.hasStats = true;
                break;
              }
            }
        } catch (const ConfigError &err) {
            // The live server may have ordered requests from different
            // connections differently; count, do not abort.
            ++rejectedInReplay;
            response.ok = false;
            response.error = err.what();
        }
        if (sinceSnapshot >= kSnapshotEvery) {
            NETPACK_SPAN(span, "wal.snapshot");
            wal.appendSnapshot(engine.snapshot(seq));
            sinceSnapshot = 0;
        }
        {
            NETPACK_SPAN(span, "protocol.serialize");
            const std::string out = serve::serializeResponse(response);
            (void)out;
        }
    }
    const double wall = secondsSince(start);
    if (layers != nullptr) {
        layers->metric("placement.placed_share",
                       offered > 0 ? static_cast<double>(placed) /
                                         static_cast<double>(offered)
                                   : 0.0,
                       "share");
        layers->metric("wal.bytes_per_mutation",
                       seq > 0 ? static_cast<double>(
                                     std::filesystem::file_size(walPath)) /
                                     static_cast<double>(seq)
                               : 0.0,
                       "bytes");
        contextLayerMetrics(statsDelta(engine.context().stats(), before),
                            *layers);
        if (rejectedInReplay > 0)
            std::cout << "replay: " << rejectedInReplay
                      << " requests were invalid in send order\n";
    }
    std::filesystem::remove(walPath);
    return wall;
}

/** p50 per call of every span named @p name, microseconds. */
double
spanP50(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> us;
    for (const Span &span : spans)
        if (span.name == name)
            us.push_back(span.durUs);
    return median(us);
}

double
histogramP50(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const auto it = snap.logHistograms.find(name);
    return it == snap.logHistograms.end() || it->second.total == 0
               ? 0.0
               : it->second.quantile(0.5);
}

} // namespace

Result
runServeWal(const Options &options)
{
    Result result;
    std::unique_ptr<serve::PlacementServer> server;
    std::unique_ptr<LoadGen> gen;
    std::vector<double> setups;
    for (int r = 0; r < kSetupRepeats; ++r) {
        // Set-up: a fresh server on a new WAL, brought to the target
        // population. The previous repeat is torn down untimed.
        gen.reset();
        server.reset();
        std::filesystem::remove(options.workDir + "/serve.wal");
        const auto start = Clock::now();
        server = std::make_unique<serve::PlacementServer>(
            serverConfig(options, false));
        gen = std::make_unique<LoadGen>(server->port(), options.seed,
                                        options.trace);
        gen->prepopulate();
        setups.push_back(secondsSince(start));
    }
    if (!options.trace) {
        const Phase reference =
            gen->run(kReferenceRate, 0.4 * options.seconds);
        account(reference, result);

        // A coarse climb (every kCoarseStride-th rung from rung 0)
        // brackets the knee; kClimbs fine climbs from the last coarse
        // pass find it.
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   0.6 * options.seconds));
        const double coarse = maxPassingRate(climbLadder(
            *gen, 0, kCoarseStride, deadline, result));
        // When even rung 0 fails, the reference phase is the lowest
        // rung, judged on its windowed p99 like the others.
        const bool referencePassed =
            reference.failed == 0 &&
            windowedPercentile(reference.latencyMs, kTailWindow, 99.0) <=
                kLimitMs;
        const double floor =
            coarse > 0.0 ? coarse : (referencePassed ? kReferenceRate : 0.0);
        const int base = coarse > 0.0 ? rungIndex(coarse) : -1;
        std::vector<double> climbs;
        double lowerBound = floor;
        while (static_cast<int>(climbs.size()) < kClimbs &&
               Clock::now() < deadline) {
            const std::vector<LadderStep> rungs =
                climbLadder(*gen, base + 1, 1, deadline, result);
            const double best = std::max(maxPassingRate(rungs), floor);
            if (rungs.empty() || rungs.back().passed) {
                lowerBound = std::max(lowerBound, best);
                break; // cut short by the budget
            }
            if (!rungs.back().valid)
                continue; // ended with the generator behind: no verdict
            climbs.push_back(best);
        }
        if (climbs.empty()) {
            std::cout << "note: no fine climb reached a failing rung; the "
                         "max rate is a lower bound\n";
            climbs.push_back(lowerBound);
        }
        // A run in which no rate met the limit reports 0: a performance
        // outcome (a slow or contended machine), not a wrong output.
        const double maxRps = median(climbs);
        if (maxRps <= 0.0)
            std::cout << "note: no ladder step met the latency limit\n";

        result.metric("peak_rss_mb", peakRssMb(), "MB");
        const double recoverS = checkRecovery(options, server, gen, result);
        // tail_ms is the windowed p95: at this load the p99 is set by
        // stalls of the machine (its ten-seed spread was ~48%, beyond
        // the bound), the p95 by the server. Both are printed.
        const double tail = windowedPercentile(reference.latencyMs,
                                               kTailWindow, 95.0);
        result.metric("setup_s", median(setups), "s");
        result.metric("throughput_per_s", maxRps, "1/s");
        result.metric("p50_ms", median(reference.latencyMs), "ms");
        result.metric("tail_ms", tail, "ms");
        std::cout << "serve-wal: max " << maxRps << " req/s at p99 <= "
                  << kLimitMs << " ms; at " << kReferenceRate << " req/s "
                  << reference.latencyMs.size() << " requests p50 "
                  << median(reference.latencyMs) << " ms p95 " << tail
                  << " ms p99 "
                  << windowedPercentile(reference.latencyMs, kTailWindow, 99.0)
                  << " ms (medians over " << kTailWindow
                  << "-request windows; whole-phase p99 "
                  << percentile(reference.latencyMs, 99.0) << " ms), lag p99 "
                  << percentile(reference.lagMs, 99.0) << " ms; recovery "
                  << recoverS << " s\n";
        return result;
    }

    // Traced run. Live phase at the reference rate with the server's
    // metrics on (service-time histograms), no spans.
    obs::Registry::instance().reset();
    obs::setMetricsEnabled(true);
    const Phase live = gen->run(kReferenceRate, 0.5 * options.seconds);
    obs::setMetricsEnabled(false);
    const obs::MetricsSnapshot snap = obs::snapshot();
    account(live, result);
    const std::vector<std::string> lines = gen->lines();
    const double recoverS = checkRecovery(options, server, gen, result);

    double serviceUs = 0.0;
    double served = 0.0;
    if (const auto it = snap.logHistograms.find("serve.request_us");
        it != snap.logHistograms.end()) {
        serviceUs = it->second.sum;
        served = static_cast<double>(it->second.total);
    }
    std::vector<double> finite;
    for (double ms : live.latencyMs)
        if (std::isfinite(ms))
            finite.push_back(ms * 1e3);
    for (const char *op : {"place", "depart", "query", "stats"})
        result.metric(std::string("serve.") + op + "_us",
                      histogramP50(snap, std::string("serve.") + op + "_us"),
                      "us");
    result.metric("serve.wait_us",
                  std::max(0.0, mean(finite) -
                                    (served > 0.0 ? serviceUs / served : 0.0)),
                  "us");
    result.metric("serve.busy_share", serviceUs / (live.seconds * 1e6),
                  "share");
    result.metric("loadgen.lag_p99_ms", percentile(live.lagMs, 99.0), "ms");
    result.metric("wal.recover_s", recoverS, "s");

    // Replay the exact request lines through the service thread's
    // pieces: once plain, once traced.
    const double plainS = replay(options, lines, nullptr);
    startTracing(options);
    const double tracedS = replay(options, lines, &result);
    const std::vector<Span> spans = stopTracing(options);
    const double overhead = tracedS / plainS;
    placementLayerMetrics(spans, result);
    result.metric("protocol.parse_us", spanP50(spans, "protocol.parse"), "us");
    result.metric("protocol.serialize_us",
                  spanP50(spans, "protocol.serialize"), "us");
    result.metric("wal.append_us", spanP50(spans, "wal.append"), "us");
    result.metric("wal.snapshot_us", spanP50(spans, "wal.snapshot"), "us");
    result.metric("engine.digest_us", spanP50(spans, "engine.digest"), "us");
    result.metric("engine.whatif_us", spanP50(spans, "engine.whatif"), "us");
    result.metric("trace.overhead", overhead, "ratio");
    printLayerTable("serve-wal, replay of " + std::to_string(lines.size()) +
                        " request lines (shares of the service thread)",
                    spans, tracedS * 1e6, overhead);
    return result;
}

} // namespace perfbench

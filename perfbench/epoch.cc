/**
 * @file
 * Workload epoch-256: NetPackPlacer::placeBatch driven directly at the
 * serving default (one worker) on the Figure 9 scale point — 256 racks,
 * 4:1 core oversubscription — with batches of 32 Philly-like jobs and
 * churn that retires the oldest jobs above 60% GPU occupancy. Pure
 * placer plus incremental water-filling: no sockets, WAL or simulator.
 *
 * Checks, outside the timed region: every epoch conserves the GPU
 * ledger, and the first epochs match the frozen reference placer
 * (NetPackRef) decision for decision, scores bitwise.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>

#include "exec/sweep.h"
#include "placement/netpack_placer.h"
#include "placement/reference_placer.h"
#include "perfbench.h"
#include "workload/trace_gen.h"

namespace perfbench {

using namespace netpack;

namespace {

constexpr int kBatchJobs = 32;
/** Epochs compared against the reference placer (the first is the
 * warm-up); never timed. */
constexpr int kReferenceEpochs = 3;
constexpr int kSetupRepeats = 15;
/** Timed epochs per second of --seconds: a run's work is fixed by its
 * budget, not by how fast the machine is (~30 ms an epoch fills about
 * 60% of the budget on a 4-vCPU VM). */
constexpr double kEpochsPerBudgetSecond = 20.0;
/** Cap on the traced run's epochs (~1,000 spans each). */
constexpr int kMaxTracedEpochs = 200;
/** A run whose timed epochs take longer than this many budgets fails
 * instead of overrunning the caller's time limit. */
constexpr double kOverrunBudgets = 3.0;

ClusterConfig
epochCluster()
{
    ClusterConfig config;
    config.numRacks = 256;
    config.serversPerRack = 16;
    config.gpusPerServer = 4;
    config.serverLinkGbps = 100.0;
    config.oversubscription = 4.0;
    config.torPatGbps = 1000.0;
    config.rtt = 50e-6;
    return config;
}

/** Batch @p index of the seed's job stream (ids unique across batches). */
std::vector<JobSpec>
makeBatch(std::uint64_t seed, int index)
{
    TraceGenConfig gen;
    gen.numJobs = kBatchJobs;
    gen.seed = exec::streamSeed(seed, static_cast<std::uint64_t>(index));
    gen.maxGpuDemand = 64;
    std::vector<JobSpec> batch = generateTrace(gen).jobs();
    for (int i = 0; i < kBatchJobs; ++i)
        batch[static_cast<std::size_t>(i)].id = JobId(index * kBatchJobs + i);
    return batch;
}

/** Cluster state one placer mutates epoch after epoch. */
template <class PlacerT> struct Lane
{
    explicit Lane(const ClusterTopology &t) : topo(t), gpus(t), ctx(t) {}

    const ClusterTopology &topo;
    PlacerT placer;
    GpuLedger gpus;
    PlacementContext ctx;
    std::deque<JobId> running;
    std::map<JobId, int> demand;
    long long heldGpus = 0;

    /** One timed placeBatch; returns its wall seconds. */
    double place(const std::vector<JobSpec> &batch, BatchResult &out)
    {
        const auto start = Clock::now();
        out = placer.placeBatch(batch, topo, gpus, ctx);
        return secondsSince(start);
    }

    /** Bookkeeping + the ledger check after an epoch, then churn. */
    void settle(const std::vector<JobSpec> &batch, const BatchResult &out,
                Result &result)
    {
        std::map<JobId, int> offered;
        for (const JobSpec &spec : batch)
            offered[spec.id] = spec.gpuDemand;
        for (const PlacedJob &job : out.placed) {
            int workers = 0;
            for (const auto &[server, count] : job.placement.workers) {
                workers += count;
                if (gpus.heldGpus(server, job.id) != count)
                    result.fail("ledger disagrees with placement of job " +
                                std::to_string(job.id.value));
            }
            if (workers != offered[job.id])
                result.fail("job " + std::to_string(job.id.value) +
                            " got " + std::to_string(workers) +
                            " GPUs for a demand of " +
                            std::to_string(offered[job.id]));
            running.push_back(job.id);
            demand[job.id] = offered[job.id];
            heldGpus += offered[job.id];
        }
        if (gpus.totalFreeGpus() != topo.totalGpus() - heldGpus)
            result.fail("GPU ledger does not conserve GPUs");
        // Retire the oldest jobs once occupancy passes 60%.
        while (gpus.totalFreeGpus() < topo.totalGpus() * 2 / 5 &&
               !running.empty()) {
            const JobId victim = running.front();
            running.pop_front();
            gpus.releaseJob(victim);
            ctx.removeJob(victim);
            heldGpus -= demand[victim];
            demand.erase(victim);
        }
    }
};

bool
sameDecisions(const BatchResult &a, const BatchResult &b)
{
    if (a.placed.size() != b.placed.size() || a.deferred != b.deferred)
        return false;
    for (std::size_t i = 0; i < a.placed.size(); ++i) {
        const Placement &x = a.placed[i].placement;
        const Placement &y = b.placed[i].placement;
        if (a.placed[i].id != b.placed[i].id || x.workers != y.workers ||
            x.psServer != y.psServer ||
            x.extraPsServers != y.extraPsServers || x.inaRacks != y.inaRacks)
            return false;
    }
    return true;
}

bool
sameScores(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/** Per-epoch figures of a run of timed epochs. */
struct EpochRun
{
    std::vector<double> seconds;
    std::int64_t offered = 0;
    std::int64_t placed = 0;
};

/** Timed epochs of a run with a budget of @p seconds. */
int
epochsFor(double seconds)
{
    return std::max(1, static_cast<int>(std::lround(seconds *
                                                    kEpochsPerBudgetSecond)));
}

/** Run @p count epochs from @p first; fail the run and stop early once
 * they take longer than @p cap seconds (0 = no cap). */
EpochRun
runEpochs(Lane<NetPackPlacer> &lane, std::uint64_t seed, int first, int count,
          double cap, Result &result)
{
    EpochRun run;
    const auto start = Clock::now();
    for (int epoch = first; epoch - first < count; ++epoch) {
        if (cap > 0.0 && secondsSince(start) > cap) {
            result.fail(std::to_string(count) + " epochs did not finish in " +
                        std::to_string(cap) + " s");
            break;
        }
        const std::vector<JobSpec> batch = makeBatch(seed, epoch);
        BatchResult out;
        run.seconds.push_back(lane.place(batch, out));
        run.offered += static_cast<std::int64_t>(batch.size());
        run.placed += static_cast<std::int64_t>(out.placed.size());
        lane.settle(batch, out, result);
    }
    return run;
}

} // namespace

Result
runEpoch256(const Options &options)
{
    Result result;

    // Set-up: the 256-rack topology and an empty cluster state, several
    // times. It is seed-independent; the warm-up epoch follows untimed.
    std::vector<double> setups;
    std::unique_ptr<ClusterTopology> topology;
    std::unique_ptr<Lane<NetPackPlacer>> lane;
    for (int r = 0; r < kSetupRepeats; ++r) {
        lane.reset();
        topology.reset();
        const auto start = Clock::now();
        topology = std::make_unique<ClusterTopology>(epochCluster());
        lane = std::make_unique<Lane<NetPackPlacer>>(*topology);
        setups.push_back(secondsSince(start));
    }
    const ClusterTopology &topo = *topology;
    const std::vector<JobSpec> firstBatch = makeBatch(options.seed, 0);
    const BatchResult warmup =
        lane->placer.placeBatch(firstBatch, topo, lane->gpus, lane->ctx);
    lane->settle(firstBatch, warmup, result);

    // Reference check on the first epochs (untimed).
    {
        Lane<ReferenceNetPackPlacer> ref(topo);
        for (int epoch = 0; epoch < kReferenceEpochs; ++epoch) {
            const std::vector<JobSpec> batch = makeBatch(options.seed, epoch);
            BatchResult expected;
            ref.place(batch, expected);
            BatchResult actual = warmup;
            if (epoch > 0) {
                lane->place(batch, actual);
                lane->settle(batch, actual, result);
            }
            ref.settle(batch, expected, result);
            if (!sameDecisions(expected, actual) ||
                !sameScores(ref.placer.lastScores(),
                            lane->placer.lastScores()))
                result.fail("epoch " + std::to_string(epoch) +
                            ": NetPack diverged from NetPackRef");
        }
    }

    if (!options.trace) {
        const EpochRun run = runEpochs(*lane, options.seed, kReferenceEpochs,
                                       epochsFor(options.seconds),
                                       kOverrunBudgets * options.seconds,
                                       result);
        result.metric("peak_rss_mb", peakRssMb(), "MB");
        double busy = 0.0;
        for (double s : run.seconds)
            busy += s;
        const std::size_t n = run.seconds.size();
        const double tail = supportedTail(n, 95.0);
        std::vector<double> ms;
        for (double s : run.seconds)
            ms.push_back(s * 1e3);
        result.attempted = run.offered;
        result.metric("setup_s", median(setups), "s");
        result.metric("throughput_per_s",
                      static_cast<double>(run.offered) / busy, "1/s");
        result.metric("p50_ms", median(ms), "ms");
        result.metric("tail_ms", percentile(ms, tail), "ms");
        std::cout << "epoch-256: " << n << " epochs of " << kBatchJobs
                  << " jobs, p50 " << median(ms) << " ms, p" << tail << " "
                  << percentile(ms, tail) << " ms, " << run.placed << "/"
                  << run.offered << " jobs placed\n";
        return result;
    }

    // Traced run: the same epochs untraced on this lane, then traced on
    // an identical second lane, so the overhead compares equal work.
    const EpochRun plain = runEpochs(
        *lane, options.seed, kReferenceEpochs,
        std::min(kMaxTracedEpochs, epochsFor(options.seconds / 2.0)),
        kOverrunBudgets * options.seconds / 2.0, result);
    const int epochs = static_cast<int>(plain.seconds.size());
    Lane<NetPackPlacer> traced(topo);
    runEpochs(traced, options.seed, 0, kReferenceEpochs, 0.0, result);
    const PlacementContext::Stats before = traced.ctx.stats();
    startTracing(options);
    const auto start = Clock::now();
    const EpochRun run = runEpochs(traced, options.seed, kReferenceEpochs,
                                   epochs, 0.0, result);
    const double wallUs = secondsSince(start) * 1e6;
    const std::vector<Span> spans = stopTracing(options);

    double plainBusy = 0.0;
    double tracedBusy = 0.0;
    for (double s : plain.seconds)
        plainBusy += s;
    for (double s : run.seconds)
        tracedBusy += s;
    const double overhead = plainBusy > 0.0 ? tracedBusy / plainBusy : 0.0;
    result.attempted = run.offered;
    placementLayerMetrics(spans, result);
    contextLayerMetrics(statsDelta(traced.ctx.stats(), before), result);
    result.metric("placement.placed_share",
                  static_cast<double>(run.placed) /
                      static_cast<double>(run.offered),
                  "share");
    result.metric("trace.overhead", overhead, "ratio");
    printLayerTable("epoch-256, " + std::to_string(epochs) + " epochs",
                    spans, wallUs, overhead);
    return result;
}

} // namespace perfbench

/**
 * @file
 * Workload sim-philly: the offline path. Trace-driven flow simulations
 * (ClusterSimulator, journal recording on) of NetPack over a fixed set
 * of seed replicates on the paper-default 16-rack cluster, fanned out
 * over an exec::ThreadPool of two workers the way the sweep runner does
 * (the calling thread helps). The Philly-like traces are loaded enough
 * that jobs queue, so placement rounds carry real backlogs; step ④'s
 * water-filling and the simulator's own loop dominate, step ③ does not.
 *
 * Each placement round is timed through a Placer decorator; journal
 * appends (traced run) through a SimJournalSink decorator around the
 * JournalWriter. Checks, outside the timed region: every trace job
 * finishes, and one replicate's journal replays through
 * journal::Replayer::verify with zero divergences.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>

#include "core/experiment.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "journal/journal.h"
#include "journal/replayer.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "placement/baselines.h"
#include "workload/trace_gen.h"

namespace perfbench {

using namespace netpack;

namespace {

/** Replicates per pass: two per pool thread plus two for the helping
 * caller, so one long trace does not set a pass's wall time. Every pass
 * runs the same replicates, so every pass does the same work. */
constexpr int kReplicates = 6;
constexpr int kTraceJobs = 2000;
constexpr std::size_t kPoolWorkers = 2;
constexpr int kSetupRepeats = 15;
/** Seconds of --seconds per timed pass: a run's work is fixed by its
 * budget, not by how fast the machine is (a pass takes ~4.5 s on a
 * 4-vCPU VM, so the passes fill about 75% of the budget). */
constexpr double kBudgetSecondsPerPass = 6.0;
/** A run whose timed passes take longer than this many budgets fails
 * instead of overrunning the caller's time limit. */
constexpr double kOverrunBudgets = 3.0;
/** Passes of the traced run, first untraced then traced. */
constexpr int kTracedPasses = 2;

ExperimentConfig
simConfig(std::uint64_t seed)
{
    ExperimentConfig config;
    config.cluster.numRacks = 16;
    config.cluster.serversPerRack = 16;
    config.cluster.gpusPerServer = 4;
    config.cluster.serverLinkGbps = 100.0;
    config.cluster.oversubscription = 1.0;
    config.cluster.torPatGbps = 1000.0;
    config.cluster.rtt = 50e-6;
    config.fidelity = Fidelity::Flow;
    config.sim.placementPeriod = 10.0;
    config.placer = "NetPack";
    config.seed = seed;
    return config;
}

JobTrace
philly(std::uint64_t seed)
{
    TraceGenConfig gen;
    gen.numJobs = kTraceJobs;
    gen.seed = seed;
    gen.distribution = DemandDistribution::Philly;
    gen.maxGpuDemand = 64;
    gen.meanInterarrival = 2.0;
    gen.durationLogMu = 5.5;
    return generateTrace(gen);
}

/** Times every placement round of the wrapped placer. */
class TimedPlacer final : public Placer
{
  public:
    explicit TimedPlacer(std::unique_ptr<Placer> inner)
        : inner_(std::move(inner))
    {
    }

    using Placer::placeBatch;

    std::string name() const override { return inner_->name(); }

    BatchResult placeBatch(const std::vector<JobSpec> &batch,
                           const ClusterTopology &topo, GpuLedger &gpus,
                           PlacementContext &ctx) override
    {
        const auto start = Clock::now();
        BatchResult result = inner_->placeBatch(batch, topo, gpus, ctx);
        roundMs.push_back(secondsSince(start) * 1e3);
        offered += static_cast<std::int64_t>(batch.size());
        placed += static_cast<std::int64_t>(result.placed.size());
        return result;
    }

    const std::vector<double> *batchScores() const override
    {
        return inner_->batchScores();
    }

    bool captureRngState(Rng::State &out) const override
    {
        return inner_->captureRngState(out);
    }

    void restoreRngState(const Rng::State &state) override
    {
        inner_->restoreRngState(state);
    }

    std::vector<double> roundMs;
    std::int64_t offered = 0;
    std::int64_t placed = 0;

  private:
    std::unique_ptr<Placer> inner_;
};

/** Times every journal append of the wrapped writer. */
class TimedSink final : public SimJournalSink
{
  public:
    explicit TimedSink(SimJournalSink &inner) : inner_(inner) {}

    void onArrival(Seconds now, const JobSpec &spec) override
    {
        time([&] { inner_.onArrival(now, spec); });
    }
    void onPlacement(Seconds now, long long round,
                     const std::vector<PlacedJob> &placed,
                     const std::vector<double> *scores,
                     const std::vector<JobSpec> &deferred) override
    {
        time([&] { inner_.onPlacement(now, round, placed, scores, deferred); });
    }
    void onJobStart(Seconds now, const JobSpec &spec,
                    const Placement &placement) override
    {
        time([&] { inner_.onJobStart(now, spec, placement); });
    }
    void onJobFinish(Seconds now, const JobRecord &record) override
    {
        time([&] { inner_.onJobFinish(now, record); });
    }
    void onServerFailure(Seconds now, ServerId server, Seconds downtime,
                         const std::vector<JobId> &victims) override
    {
        time([&] { inner_.onServerFailure(now, server, downtime, victims); });
    }
    void onServerRecovery(Seconds now, ServerId server) override
    {
        time([&] { inner_.onServerRecovery(now, server); });
    }
    void onRebalance(Seconds now, const RebalanceOutcome &outcome) override
    {
        time([&] { inner_.onRebalance(now, outcome); });
    }
    void onWaterfill(Seconds now,
                     const PlacementContext::Stats &stats) override
    {
        lastStats = stats;
        time([&] { inner_.onWaterfill(now, stats); });
    }

    std::int64_t appends = 0;
    double appendUs = 0.0;
    PlacementContext::Stats lastStats;

  private:
    template <class Fn> void time(Fn &&fn)
    {
        NETPACK_SPAN(span, "journal.append");
        const auto start = Clock::now();
        fn();
        appendUs += secondsSince(start) * 1e6;
        ++appends;
    }

    SimJournalSink &inner_;
};

/** One finished replicate. */
struct Replicate
{
    RunMetrics metrics;
    std::size_t traceJobs = 0;
    double wallS = 0.0;
    std::vector<double> roundMs;
    std::int64_t offered = 0;
    std::int64_t placed = 0;
    std::int64_t appends = 0;
    double appendUs = 0.0;
    PlacementContext::Stats stats;
    std::uintmax_t journalBytes = 0;
};

/** Inputs of the replicate set: configs and traces from the seed. */
struct ReplicateSet
{
    std::vector<ExperimentConfig> configs;
    std::vector<JobTrace> traces;
    std::vector<std::string> journals;
};

ReplicateSet
makeReplicates(const Options &options)
{
    ReplicateSet set;
    for (int r = 0; r < kReplicates; ++r) {
        const std::uint64_t traceSeed =
            exec::streamSeed(options.seed, static_cast<std::uint64_t>(r));
        set.configs.push_back(simConfig(exec::streamSeed(traceSeed, 0)));
        set.traces.push_back(philly(traceSeed));
        set.journals.push_back(options.workDir + "/replicate" +
                               std::to_string(r) + ".jsonl");
    }
    return set;
}

Replicate
runReplicate(const ReplicateSet &set, std::size_t r, bool timedJournal)
{
    Replicate out;
    const auto start = Clock::now();
    const ExperimentConfig &config = set.configs[r];
    const JobTrace &trace = set.traces[r];
    ClusterTopology topo(config.cluster);
    auto timed = std::make_unique<TimedPlacer>(
        makePlacerByName(config.placer, config.seed));
    TimedPlacer &placer = *timed;
    ClusterSimulator sim(topo, makeNetworkModel(config, topo),
                         std::move(timed), config.sim);
    journal::JournalHeader header;
    header.label = "sim-philly-" + std::to_string(r);
    header.config = config;
    header.trace = trace.jobs();
    {
        journal::JournalWriter writer(set.journals[r], header);
        TimedSink sink(writer);
        sim.setJournal(timedJournal ? static_cast<SimJournalSink *>(&sink)
                                    : &writer);
        {
            // Its self time in the traced table is the simulator's own
            // loop: everything no placement, water-filling or journal
            // span covers.
            NETPACK_SPAN(span, "sim.run");
            out.metrics = sim.run(trace);
        }
        writer.writeRunEnd(out.metrics);
        out.appends = sink.appends;
        out.appendUs = sink.appendUs;
        out.stats = sink.lastStats;
    }
    out.wallS = secondsSince(start);
    out.traceJobs = trace.size();
    out.roundMs = std::move(placer.roundMs);
    out.offered = placer.offered;
    out.placed = placer.placed;
    out.journalBytes = std::filesystem::file_size(set.journals[r]);
    return out;
}

/** One pass over the replicate set on the pool. */
struct Pass
{
    std::vector<Replicate> replicates;
    double wallS = 0.0;
    /** Task seconds summed over replicates. */
    double busyS = 0.0;
    std::size_t jobs = 0;
};

Pass
runPass(exec::ThreadPool &pool, const ReplicateSet &set, bool timedJournal)
{
    Pass pass;
    pass.replicates.resize(set.traces.size());
    const auto start = Clock::now();
    exec::parallelFor(pool, pass.replicates.size(), [&](std::size_t r) {
        pass.replicates[r] = runReplicate(set, r, timedJournal);
    });
    pass.wallS = secondsSince(start);
    for (const Replicate &rep : pass.replicates) {
        pass.busyS += rep.wallS;
        pass.jobs += rep.metrics.records.size();
    }
    return pass;
}

void
checkPass(const Pass &pass, Result &result)
{
    for (std::size_t r = 0; r < pass.replicates.size(); ++r) {
        const Replicate &rep = pass.replicates[r];
        std::set<int> finished;
        for (const JobRecord &record : rep.metrics.records)
            finished.insert(record.spec.id.value);
        if (finished.size() != rep.traceJobs ||
            rep.metrics.records.size() != rep.traceJobs)
            result.fail("replicate " + std::to_string(r) + ": " +
                        std::to_string(finished.size()) + " of " +
                        std::to_string(rep.traceJobs) + " jobs finished");
    }
}

} // namespace

Result
runSimPhilly(const Options &options)
{
    Result result;

    // Set-up: generating the replicate inputs and starting the pool.
    std::vector<double> setups;
    ReplicateSet set;
    std::unique_ptr<exec::ThreadPool> pool;
    for (int r = 0; r < kSetupRepeats; ++r) {
        // The previous repeat is released untimed, so the old and the
        // new inputs are never alive together.
        pool.reset();
        set = ReplicateSet{};
        const auto start = Clock::now();
        pool = std::make_unique<exec::ThreadPool>(kPoolWorkers);
        set = makeReplicates(options);
        setups.push_back(secondsSince(start));
    }

    std::vector<Pass> passes;
    if (!options.trace) {
        const int count = std::max(
            1, static_cast<int>(std::lround(options.seconds /
                                            kBudgetSecondsPerPass)));
        const double cap = kOverrunBudgets * options.seconds;
        const auto start = Clock::now();
        for (int p = 0; p < count; ++p) {
            if (secondsSince(start) > cap) {
                result.fail(std::to_string(count) + " passes did not finish in " +
                            std::to_string(cap) + " s");
                break;
            }
            passes.push_back(runPass(*pool, set, false));
        }
    } else {
        // The first pass of a process runs cold; keep it out of the
        // traced-vs-untraced comparison.
        runPass(*pool, set, false);
        for (int p = 0; p < kTracedPasses; ++p)
            passes.push_back(runPass(*pool, set, false));
    }
    if (!options.trace)
        result.metric("peak_rss_mb", peakRssMb(), "MB");
    for (const Pass &pass : passes)
        checkPass(pass, result);

    if (!options.trace) {
        std::vector<double> rates;
        std::vector<double> roundMs;
        for (const Pass &pass : passes) {
            rates.push_back(static_cast<double>(pass.jobs) / pass.wallS);
            for (const Replicate &rep : pass.replicates) {
                roundMs.insert(roundMs.end(), rep.roundMs.begin(),
                               rep.roundMs.end());
                result.attempted += static_cast<std::int64_t>(rep.traceJobs);
            }
        }
        const double tail = supportedTail(roundMs.size(), 99.0);
        result.metric("setup_s", median(setups), "s");
        result.metric("throughput_per_s", median(rates), "1/s");
        result.metric("p50_ms", median(roundMs), "ms");
        result.metric("tail_ms", percentile(roundMs, tail), "ms");
        const RunMetrics &first = passes.front().replicates.front().metrics;
        std::cout << "sim-philly: " << passes.size() << " passes of the same "
                  << kReplicates << " replicates x " << kTraceJobs
                  << " jobs, " << median(rates) << " jobs/s, "
                  << roundMs.size() << " rounds p50 " << median(roundMs)
                  << " ms p" << tail << " " << percentile(roundMs, tail)
                  << " ms; replicate 0 avg JCT " << first.avgJct()
                  << " s, avg DE " << first.avgDe() << "\npass jobs/s:";
        for (double rate : rates)
            std::cout << " " << static_cast<long>(rate);
        std::cout << "\n";
    }

    // Replay verification of one replicate's journal (untimed).
    {
        const journal::Replayer replayer(set.journals.front());
        const journal::VerifyResult verify = replayer.verify();
        if (!verify.ok)
            result.fail("journal replay diverged: " +
                        (verify.divergence ? verify.divergence->describe()
                                           : std::string("final metrics")));
    }
    if (!options.trace)
        return result;

    // Traced passes: the same replicates, spans on, journal appends timed.
    std::vector<Pass> traced;
    startTracing(options);
    for (int p = 0; p < kTracedPasses; ++p)
        traced.push_back(runPass(*pool, set, true));
    const std::vector<Span> spans = stopTracing(options);

    double plainS = 0.0;
    double tracedS = 0.0;
    double busyS = 0.0;
    for (const Pass &pass : passes)
        plainS += pass.wallS;
    double selfS = 0.0;
    double rounds = 0.0;
    double jct = 0.0;
    double de = 0.0;
    double appendUs = 0.0;
    double appends = 0.0;
    double bytes = 0.0;
    double n = 0.0;
    std::int64_t offered = 0;
    std::int64_t placed = 0;
    PlacementContext::Stats stats;
    for (const Pass &pass : traced) {
        checkPass(pass, result);
        tracedS += pass.wallS;
        busyS += pass.busyS;
        for (const Replicate &rep : pass.replicates) {
            selfS += rep.wallS - rep.metrics.placementSeconds;
            rounds += static_cast<double>(rep.metrics.placementRounds);
            jct += rep.metrics.avgJct();
            de += rep.metrics.avgDe();
            appendUs += rep.appendUs;
            appends += static_cast<double>(rep.appends);
            bytes += static_cast<double>(rep.journalBytes);
            offered += rep.offered;
            placed += rep.placed;
            stats.fullEstimates += rep.stats.fullEstimates;
            stats.incrementalEstimates += rep.stats.incrementalEstimates;
            stats.cacheHits += rep.stats.cacheHits;
            stats.jobsReconverged += rep.stats.jobsReconverged;
            stats.viewRebuilds += rep.stats.viewRebuilds;
            stats.viewReuses += rep.stats.viewReuses;
            result.attempted += static_cast<std::int64_t>(rep.traceJobs);
            n += 1.0;
        }
    }
    const double overhead = tracedS / plainS;
    const double threads = static_cast<double>(kPoolWorkers + 1);
    placementLayerMetrics(spans, result);
    contextLayerMetrics(stats, result);
    result.metric("placement.placed_share",
                  static_cast<double>(placed) / static_cast<double>(offered),
                  "share");
    result.metric("sim.self_s", selfS / n, "s");
    result.metric("sim.rounds", rounds / n, "count");
    result.metric("sim.avg_jct_s", jct / n, "s");
    result.metric("sim.avg_de", de / n, "share");
    result.metric("journal.append_us", appends > 0 ? appendUs / appends : 0.0,
                  "us");
    result.metric("journal.bytes", bytes / n, "bytes");
    result.metric("exec.pool_idle_share",
                  1.0 - busyS / (threads * tracedS), "share");
    result.metric("trace.overhead", overhead, "ratio");
    printLayerTable("sim-philly, " + std::to_string(kTracedPasses) +
                        " passes of " + std::to_string(kReplicates) +
                        " replicates on " + std::to_string(kPoolWorkers) +
                        " workers + caller",
                    spans, threads * tracedS * 1e6, overhead);
    return result;
}

} // namespace perfbench

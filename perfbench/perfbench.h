/**
 * @file
 * Shared pieces of the repository benchmark program: options, the result
 * record every workload fills, clocks, and the traced-run helpers that
 * collect spans (the program's own plus the ones the benchmark records
 * around its calls into each layer) and print the "where the time went"
 * table.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "core/placement_context.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget of the run, seconds. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Scratch directory for WAL, journal and trace files. */
    std::string workDir;
};

/** What one workload run measured and checked. */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** (name, value, unit) in report order. */
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Correctness checks that missed, one line each. */
    std::vector<std::string> problems;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void fail(const std::string &problem)
    {
        correct = false;
        problems.push_back(problem);
    }
};

Result runServeWal(const Options &options);
Result runEpoch256(const Options &options);
Result runSimPhilly(const Options &options);

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Turn on the program's span tracer (buffering to a file under
 * @p options.workDir) and its metrics registry, both cleared.
 */
void startTracing(const Options &options);

/** Stop tracing and metrics; return the spans recorded since
 * startTracing, read back from the tracer's output file. */
std::vector<Span> stopTracing(const Options &options);

/** Per-epoch placement and water-filling figures of a traced phase. */
void placementLayerMetrics(const std::vector<Span> &spans, Result &result);

/** Counter increments between two PlacementContext::stats() reads. */
netpack::PlacementContext::Stats
statsDelta(const netpack::PlacementContext::Stats &after,
           const netpack::PlacementContext::Stats &before);

/** context.* shares from the PlacementContext counters accumulated
 * over a traced phase. */
void contextLayerMetrics(const netpack::PlacementContext::Stats &stats,
                         Result &result);

/**
 * Print the "where the time went" table: per span name the call count,
 * p50 and p99 per call, self time, and self time as a share of
 * @p threadWallUs (wall time summed over the threads that ran).
 */
void printLayerTable(const std::string &title, const std::vector<Span> &spans,
                     double threadWallUs, double traceOverhead);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H

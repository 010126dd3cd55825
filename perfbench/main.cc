/**
 * @file
 * Entry point of the repository benchmark binary:
 *   perfbench --workload <serve-wal|epoch-256|sim-philly> --seed N
 *             --seconds S --trace 0|1 --work-dir DIR
 * Prints human-readable progress and, as its last line, one JSON object
 * {"correct","attempted","failed","metrics":{name:{value,unit}},
 * "problems":[...]}; perfbench/run.py builds this binary, checks that
 * object against BENCHMARK.json and prints the final result line.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/json_text.h"
#include "journal/record.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

std::string
tracePath(const Options &options)
{
    return options.workDir + "/trace.json";
}

} // namespace

void
startTracing(const Options &options)
{
    netpack::obs::clearTrace();
    netpack::obs::Registry::instance().reset();
    netpack::obs::setMetricsEnabled(true);
    netpack::obs::configureTrace(tracePath(options));
}

std::vector<Span>
stopTracing(const Options &options)
{
    netpack::obs::flushTrace();
    netpack::obs::configureTrace("");
    netpack::obs::setMetricsEnabled(false);
    netpack::obs::clearTrace();

    std::ifstream in(tracePath(options));
    std::stringstream text;
    text << in.rdbuf();
    const netpack::obs::JsonValue doc = netpack::obs::parseJson(text.str());
    std::vector<Span> spans;
    for (const netpack::obs::JsonValue &event : doc.at("traceEvents").items()) {
        Span span;
        span.name = event.at("name").asString();
        span.tid = static_cast<int>(event.at("tid").asInt64());
        span.startUs = event.at("ts").asDouble();
        span.durUs = event.at("dur").asDouble();
        spans.push_back(std::move(span));
    }
    std::remove(tracePath(options).c_str());
    return spans;
}

void
placementLayerMetrics(const std::vector<Span> &spans, Result &result)
{
    std::map<std::string, double> total;
    double batches = 0.0;
    for (const Span &span : spans) {
        total[span.name] += span.durUs;
        if (span.name == "placement.batch")
            batches += 1.0;
    }
    // Per placement epoch (placement.batch call). Spans nest, so these
    // are not a partition of batch_us: estimate_us counts every
    // waterfill.estimate call, including the ones inside the
    // incremental and full re-estimates (incremental_us, full_us).
    const auto perEpoch = [&](double us) {
        return batches > 0.0 ? us / batches : 0.0;
    };
    result.metric("placement.batch_us", perEpoch(total["placement.batch"]),
                  "us");
    result.metric("placement.knapsack_us",
                  perEpoch(total["placement.knapsack"]), "us");
    result.metric("placement.worker_dp_us",
                  perEpoch(total["placement.worker_dp"]), "us");
    result.metric("placement.ps_scoring_us",
                  perEpoch(total["placement.ps_scoring"]), "us");
    result.metric("placement.selective_ina_self_us",
                  perEpoch(timeOutside(spans, "placement.selective_ina",
                                       "waterfill.")),
                  "us");
    result.metric("waterfill.estimate_us",
                  perEpoch(total["waterfill.estimate"]), "us");
    result.metric("waterfill.incremental_us",
                  perEpoch(total["waterfill.incremental_estimate"]), "us");
    result.metric("waterfill.full_us",
                  perEpoch(total["waterfill.full_estimate"]), "us");
    const auto counters = netpack::obs::snapshot().counters;
    const auto pruned = counters.find("placement.dp_states_pruned");
    result.metric("placement.dp_states_pruned",
                  perEpoch(pruned == counters.end()
                               ? 0.0
                               : static_cast<double>(pruned->second)),
                  "count");
}

netpack::PlacementContext::Stats
statsDelta(const netpack::PlacementContext::Stats &after,
           const netpack::PlacementContext::Stats &before)
{
    netpack::PlacementContext::Stats delta;
    delta.fullEstimates = after.fullEstimates - before.fullEstimates;
    delta.incrementalEstimates =
        after.incrementalEstimates - before.incrementalEstimates;
    delta.cacheHits = after.cacheHits - before.cacheHits;
    delta.jobsReconverged = after.jobsReconverged - before.jobsReconverged;
    delta.viewRebuilds = after.viewRebuilds - before.viewRebuilds;
    delta.viewReuses = after.viewReuses - before.viewReuses;
    return delta;
}

void
contextLayerMetrics(const netpack::PlacementContext::Stats &stats,
                    Result &result)
{
    const auto share = [](double part, double whole) {
        return whole > 0.0 ? part / whole : 0.0;
    };
    const double incremental = static_cast<double>(stats.incrementalEstimates);
    const double full = static_cast<double>(stats.fullEstimates);
    const double hits = static_cast<double>(stats.cacheHits);
    result.metric("context.incremental_share",
                  share(incremental, incremental + full), "share");
    result.metric("context.cache_hit_share",
                  share(hits, hits + incremental + full), "share");
    result.metric("context.view_reuse_share",
                  share(static_cast<double>(stats.viewReuses),
                        static_cast<double>(stats.viewReuses +
                                            stats.viewRebuilds)),
                  "share");
    result.metric("context.jobs_reconverged",
                  share(static_cast<double>(stats.jobsReconverged),
                        incremental),
                  "count");
}

void
printLayerTable(const std::string &title, const std::vector<Span> &spans,
                double threadWallUs, double traceOverhead)
{
    std::printf("\nwhere the time went: %s (%zu spans, trace.overhead %.3f)\n",
                title.c_str(), spans.size(), traceOverhead);
    std::printf("%-36s %9s %11s %11s %12s %8s\n", "layer", "count",
                "p50 us", "p99 us", "self ms", "share");
    for (const LayerRow &row : layerRows(spans)) {
        std::printf("%-36s %9zu %11.1f %11.1f %12.2f %7.1f%%\n",
                    row.name.c_str(), row.count, row.p50Us, row.p99Us,
                    row.selfUs / 1000.0,
                    threadWallUs > 0.0 ? 100.0 * row.selfUs / threadWallUs
                                       : 0.0);
    }
    std::fflush(stdout);
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message
              << "\nusage: perfbench --workload serve-wal|epoch-256|"
                 "sim-philly --seed N --seconds S --trace 0|1 --work-dir DIR\n";
    std::exit(2);
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (arg == "--work-dir")
                options.workDir = value;
            else
                usage("unknown option " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (options.workDir.empty())
        usage("--work-dir is required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    netpack::journal::ensureDirectory(options.workDir);

    Result result;
    try {
        if (options.workload == "serve-wal")
            result = runServeWal(options);
        else if (options.workload == "epoch-256")
            result = runEpoch256(options);
        else if (options.workload == "sim-philly")
            result = runSimPhilly(options);
        else
            usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << options.workload
                  << " failed: " << err.what() << "\n";
        return 1;
    }
    for (const Result::Metric &m : result.metrics) {
        if (!std::isfinite(m.value))
            result.fail("metric " + m.name + " is not finite");
    }

    std::ostringstream line;
    line << "{\"correct\":" << (result.correct ? "true" : "false")
         << ",\"attempted\":" << result.attempted
         << ",\"failed\":" << result.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Result::Metric &m = result.metrics[i];
        line <<(i ? "," : "") << "\"" << m.name << "\":{\"value\":"
             << (std::isfinite(m.value) ? number(m.value) : "null")
             << ",\"unit\":\"" << m.unit << "\"}";
    }
    line << "},\"problems\":[";
    for (std::size_t i = 0; i < result.problems.size(); ++i)
        line << (i ? "," : "") << "\""
             << netpack::jsonEscapeText(result.problems[i]) << "\"";
    line << "]}";
    for (const std::string &problem : result.problems)
        std::cout << "CHECK FAILED: " << problem << "\n";
    std::cout << line.str() << std::endl;
    return 0;
}

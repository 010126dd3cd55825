/**
 * @file
 * The benchmark's own arithmetic, kept free of any netpack type so the
 * self-test (selftest.cc) can pin it: nearest-rank percentiles and the
 * rule that picks the highest percentile a sample supports, the
 * open-loop rate ladder's pass/fail bookkeeping, backlog-growth
 * detection, and span self-time subtraction for the traced run.
 */

#ifndef PERFBENCH_BENCH_MATH_H
#define PERFBENCH_BENCH_MATH_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it. @p p in (0, 100]; 0 for an empty set.
 */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &samples);

/** Samples strictly above the nearest-rank p-th percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/** A tail percentile is reported only when this many samples lie
 * beyond it. */
inline constexpr std::size_t kMinTailSamples = 10;

/**
 * The highest percentile, no higher than @p preferred, from the ladder
 * {99.9, 99, 98, 95, 90, 75, 50} that leaves at least kMinTailSamples
 * samples beyond it in a sample of @p n. 0 when not even the median
 * qualifies.
 */
double supportedTail(std::size_t n, double preferred);

/**
 * Median over consecutive windows of @p window samples (in arrival
 * order; a shorter last window is dropped) of each window's p-th
 * percentile. A tail that one stall of the machine would otherwise set
 * becomes the typical tail of a window. The whole-sample percentile
 * when fewer than @p window samples exist.
 */
double windowedPercentile(const std::vector<double> &samples,
                          std::size_t window, double p);

/** One rung of the open-loop rate ladder, as measured. */
struct LadderStep
{
    /** Offered rate (requests/s). */
    double rate = 0.0;
    /** False when the generator, not the server, fell behind. */
    bool valid = true;
    /** Met the latency limit with no backlog growth and no failure. */
    bool passed = false;
};

/**
 * The sustainable rate of a climbed ladder (steps in climb order,
 * ascending rates): the highest passing rate below the first valid
 * failure. Invalid steps neither pass nor stop the climb. 0 when no
 * step passed.
 */
double maxPassingRate(const std::vector<LadderStep> &steps);

/**
 * Whether a queue grew over a measurement window. @p outstanding holds
 * the number of requests in flight sampled at even intervals across the
 * window; the backlog grows when the mean of the last quarter exceeds
 * the mean of the first quarter by more than @p tolerance requests.
 * Fewer than 4 samples never count as growth.
 */
bool backlogGrowing(const std::vector<double> &outstanding,
                    double tolerance);

/** One finished span: a named interval on one thread. */
struct Span
{
    std::string name;
    int tid = 0;
    double startUs = 0.0;
    double durUs = 0.0;
};

/**
 * Self time of every span (same order as @p spans): its duration minus
 * the part of its interval covered by its direct children. A child is
 * a span on the same thread nested inside it; the spans of one thread
 * must nest properly (RAII scopes do).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Total time inside spans named @p parent that is not covered by any
 * descendant whose name starts with @p childPrefix (e.g. placement step
 * ④ minus the water-filling it calls).
 */
double timeOutside(const std::vector<Span> &spans,
                   const std::string &parent,
                   const std::string &childPrefix);

/** Per-name aggregate of a span set ("where the time went"). */
struct LayerRow
{
    std::string name;
    std::size_t count = 0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double selfUs = 0.0;
};

/** Rows for every span name, largest self time first. */
std::vector<LayerRow> layerRows(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_MATH_H

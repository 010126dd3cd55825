#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    const std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    return sum / static_cast<double>(samples.size());
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
        1, n);
    return n - rank;
}

double
supportedTail(std::size_t n, double preferred)
{
    for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
        if (p <= preferred && samplesBeyond(n, p) >= kMinTailSamples)
            return p;
    }
    return 0.0;
}

double
windowedPercentile(const std::vector<double> &samples, std::size_t window,
                   double p)
{
    if (window == 0 || samples.size() < window)
        return percentile(samples, p);
    std::vector<double> tails;
    for (std::size_t begin = 0; begin + window <= samples.size();
         begin += window) {
        const auto first =
            samples.begin() + static_cast<std::ptrdiff_t>(begin);
        tails.push_back(percentile(
            std::vector<double>(first,
                                first + static_cast<std::ptrdiff_t>(window)),
            p));
    }
    return median(std::move(tails));
}

double
maxPassingRate(const std::vector<LadderStep> &steps)
{
    double best = 0.0;
    for (const LadderStep &step : steps) {
        if (!step.valid)
            continue;
        if (!step.passed)
            break;
        best = std::max(best, step.rate);
    }
    return best;
}

bool
backlogGrowing(const std::vector<double> &outstanding, double tolerance)
{
    const std::size_t quarter = outstanding.size() / 4;
    if (quarter == 0)
        return false;
    const std::vector<double> first(outstanding.begin(),
                                    outstanding.begin() +
                                        static_cast<std::ptrdiff_t>(quarter));
    const std::vector<double> last(outstanding.end() -
                                       static_cast<std::ptrdiff_t>(quarter),
                                   outstanding.end());
    return mean(last) - mean(first) > tolerance;
}

namespace {

/** Span indices grouped per thread, each group in start order with an
 * enclosing span before the spans it contains. */
std::map<int, std::vector<std::size_t>>
byThread(const std::vector<Span> &spans)
{
    std::map<int, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < spans.size(); ++i)
        groups[spans[i].tid].push_back(i);
    for (auto &[tid, order] : groups) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (spans[a].startUs != spans[b].startUs)
                          return spans[a].startUs < spans[b].startUs;
                      return spans[a].durUs > spans[b].durUs;
                  });
    }
    return groups;
}

/**
 * Walk every thread's spans with a stack of open ancestors and call
 * visit(span, ancestors) for each span, innermost ancestor last.
 */
template <class Visit>
void
walkNested(const std::vector<Span> &spans, Visit &&visit)
{
    for (const auto &[tid, order] : byThread(spans)) {
        std::vector<std::size_t> open;
        for (std::size_t i : order) {
            const double start = spans[i].startUs;
            while (!open.empty() && spans[open.back()].startUs +
                                            spans[open.back()].durUs <=
                                        start)
                open.pop_back();
            visit(i, open);
            open.push_back(i);
        }
    }
}

} // namespace

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> covered(spans.size(), 0.0);
    walkNested(spans, [&](std::size_t i, const std::vector<std::size_t> &open) {
        if (!open.empty())
            covered[open.back()] += spans[i].durUs;
    });
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = std::max(0.0, spans[i].durUs - covered[i]);
    return self;
}

double
timeOutside(const std::vector<Span> &spans, const std::string &parent,
            const std::string &childPrefix)
{
    const auto matches = [&](std::size_t i) {
        return spans[i].name.compare(0, childPrefix.size(), childPrefix) == 0;
    };
    std::vector<double> covered(spans.size(), 0.0);
    walkNested(spans, [&](std::size_t i, const std::vector<std::size_t> &open) {
        if (!matches(i))
            return;
        // Charge only the outermost matching descendant of the nearest
        // enclosing parent span.
        for (auto it = open.rbegin(); it != open.rend(); ++it) {
            if (spans[*it].name == parent) {
                covered[*it] += spans[i].durUs;
                return;
            }
            if (matches(*it))
                return;
        }
    });
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == parent)
            total += std::max(0.0, spans[i].durUs - covered[i]);
    }
    return total;
}

std::vector<LayerRow>
layerRows(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < spans.size(); ++i)
        groups[spans[i].name].push_back(i);
    std::vector<LayerRow> rows;
    for (const auto &[name, members] : groups) {
        LayerRow row;
        row.name = name;
        row.count = members.size();
        std::vector<double> durations;
        durations.reserve(members.size());
        for (std::size_t i : members) {
            durations.push_back(spans[i].durUs);
            row.selfUs += self[i];
        }
        row.p50Us = percentile(durations, 50.0);
        row.p99Us = percentile(std::move(durations), 99.0);
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const LayerRow &a, const LayerRow &b) {
                  return a.selfUs > b.selfUs;
              });
    return rows;
}

} // namespace perfbench

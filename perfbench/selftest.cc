/**
 * @file
 * Self-test of the benchmark's arithmetic (bench_math.h). Runs without
 * the netpack libraries; exits non-zero on the first failed check.
 *   cmake --build .bench_build --target perfbench_selftest
 *   .bench_build/perfbench_selftest
 * or `python3 perfbench/run.py --self-test`.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_math.h"

namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++g_failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

using perfbench::Span;

void
testPercentiles()
{
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    check(near(perfbench::percentile(hundred, 50.0), 50.0), "p50 of 1..100");
    check(near(perfbench::percentile(hundred, 99.0), 99.0), "p99 of 1..100");
    check(near(perfbench::percentile(hundred, 100.0), 100.0), "p100 = max");
    check(near(perfbench::percentile({7.0}, 99.0), 7.0), "single sample");
    check(near(perfbench::percentile({}, 50.0), 0.0), "empty set");
    check(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "unsorted median");
}

void
testTailRule()
{
    // p99 needs at least 10 samples beyond it: n >= 1000.
    check(perfbench::samplesBeyond(1000, 99.0) == 10, "1000 -> 10 beyond p99");
    check(perfbench::samplesBeyond(999, 99.0) == 9, "999 -> 9 beyond p99");
    check(near(perfbench::supportedTail(1000, 99.0), 99.0), "n=1000 gives p99");
    check(near(perfbench::supportedTail(999, 99.0), 98.0),
          "n=999 falls back to p98");
    check(near(perfbench::supportedTail(200, 95.0), 95.0), "n=200 gives p95");
    check(near(perfbench::supportedTail(199, 95.0), 90.0),
          "n=199 falls back to p90");
    check(near(perfbench::supportedTail(100000, 95.0), 95.0),
          "preferred caps the tail");
    check(near(perfbench::supportedTail(15, 99.0), 0.0),
          "tiny sample supports no tail");
}

void
testWindowedTail()
{
    // Three windows of 100; the middle one holds a stall.
    std::vector<double> samples;
    for (int w = 0; w < 3; ++w)
        for (int i = 1; i <= 100; ++i)
            samples.push_back(w == 1 && i > 50 ? 1000.0 : i);
    check(near(perfbench::windowedPercentile(samples, 100, 99.0), 99.0),
          "one stalled window does not set the tail");
    check(near(perfbench::percentile(samples, 99.0), 1000.0),
          "whole-sample p99 is the stall");
    check(near(perfbench::windowedPercentile(samples, 1000, 99.0), 1000.0),
          "short sample falls back to the whole-sample percentile");
    samples.push_back(5000.0); // partial last window is dropped
    check(near(perfbench::windowedPercentile(samples, 100, 99.0), 99.0),
          "partial window ignored");
}

void
testLadder()
{
    using perfbench::LadderStep;
    check(near(perfbench::maxPassingRate({{100, true, true},
                                          {110, true, true},
                                          {120, true, false},
                                          {130, true, true}}),
               110.0),
          "stops at the first valid failure");
    check(near(perfbench::maxPassingRate({{100, true, true},
                                          {110, false, false},
                                          {110, true, true},
                                          {120, true, false}}),
               110.0),
          "invalid steps are skipped");
    check(near(perfbench::maxPassingRate({{100, true, false}}), 0.0),
          "nothing passed");
    check(near(perfbench::maxPassingRate({}), 0.0), "empty ladder");
}

void
testBacklog()
{
    check(!perfbench::backlogGrowing({2, 3, 1, 2, 3, 2, 1, 2}, 8.0),
          "steady queue");
    check(perfbench::backlogGrowing({1, 2, 5, 9, 14, 20, 27, 35}, 8.0),
          "growing queue");
    check(!perfbench::backlogGrowing({30, 25, 20, 15, 10, 6, 3, 1}, 8.0),
          "draining queue");
    check(!perfbench::backlogGrowing({1, 50, 100}, 8.0),
          "too few samples");
}

void
testSelfTime()
{
    // batch [0,100) holds knapsack [0,10) and ina [20,70), which holds
    // estimate [30,50); another thread's span never counts as a child.
    const std::vector<Span> spans = {
        {"placement.batch", 1, 0.0, 100.0},
        {"placement.knapsack", 1, 0.0, 10.0},
        {"placement.selective_ina", 1, 20.0, 50.0},
        {"waterfill.estimate", 1, 30.0, 20.0},
        {"waterfill.estimate", 2, 5.0, 80.0},
    };
    const std::vector<double> self = perfbench::selfTimes(spans);
    check(near(self[0], 40.0), "batch self = 100 - 10 - 50");
    check(near(self[1], 10.0), "leaf self = duration");
    check(near(self[2], 30.0), "ina self = 50 - 20");
    check(near(self[4], 80.0), "other thread is not a child");
    check(near(perfbench::timeOutside(spans, "placement.selective_ina",
                                      "waterfill."),
               30.0),
          "step 4 minus water-filling");
    check(near(perfbench::timeOutside(spans, "placement.batch", "waterfill."),
               80.0),
          "deep descendants are subtracted");

    const std::vector<perfbench::LayerRow> rows = perfbench::layerRows(spans);
    check(rows.size() == 4, "one row per name");
    check(rows.front().name == "waterfill.estimate" &&
              near(rows.front().selfUs, 100.0) && rows.front().count == 2,
          "rows sorted by self time");
}

} // namespace

int
main()
{
    testPercentiles();
    testTailRule();
    testWindowedTail();
    testLadder();
    testBacklog();
    testSelfTime();
    if (g_failures != 0) {
        std::cerr << g_failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-test: all checks passed\n";
    return 0;
}

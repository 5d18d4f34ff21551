#include "tpcbench/stats.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <numeric>

#include "search/executor.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point&
epoch()
{
    static const Clock::time_point start = Clock::now();
    return start;
}

double
clockMs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

} // namespace

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch())
        .count();
}

long long
epochNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               epoch().time_since_epoch())
        .count();
}

double
processCpuMs()
{
    return clockMs(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuMs()
{
    return clockMs(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

void
burnCpuMs(double ms)
{
    if (ms <= 0.0)
        return;
    // Spin in slices of a few microseconds between CPU-clock reads, so the
    // burn tracks the thread's own CPU time however often it is preempted.
    const double until = threadCpuMs() + ms;
    double seed = ms;
    while (threadCpuMs() < until)
        seed = tpc::search::spinWork(2000, seed);
}

double
percentile(std::vector<double>& values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

} // namespace perfbench

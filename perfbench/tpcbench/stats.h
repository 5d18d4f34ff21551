/**
 * @file
 * Small measurement helpers shared by the benchmark: the common clock,
 * percentiles over raw samples, and CPU-time readings.
 */
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/** Milliseconds on the steady clock since the process's first call; every
 *  thread of the benchmark (client, event loops, workers) stamps with it,
 *  so stamps from different layers of one request subtract directly. */
double nowMs();

/** The steady-clock time of nowMs() == 0, in ns since the clock's epoch
 *  (CLOCK_MONOTONIC on Linux), for absolute timer deadlines. */
long long epochNs();

/** CPU time of the whole process, in ms. */
double processCpuMs();

/** CPU time of the calling thread, in ms. */
double threadCpuMs();

/** Peak resident set size of the process, in MB. */
double peakRssMb();

/** Burns @p ms of the calling thread's CPU time in deterministic work. */
void burnCpuMs(double ms);

/**
 * Percentile @p q in [0, 1] of @p values by linear interpolation between
 * closest ranks (0 for an empty sample). Sorts its argument.
 */
double percentile(std::vector<double>& values, double q);

/** Arithmetic mean (0 for an empty sample). */
double mean(const std::vector<double>& values);

} // namespace perfbench

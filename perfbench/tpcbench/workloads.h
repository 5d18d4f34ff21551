/**
 * @file
 * The benchmark's workloads: each builds a serving stack from the
 * library's public classes, drives it over loopback TCP with the
 * open-loop client, checks every reply, and reports its metrics.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tpc::search {
class SearchWorkload;
}

namespace perfbench {

/** What one benchmark run is asked to do. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured time of the run (set-up not included). */
    double seconds = 30.0;
    /** Per-layer run: stamp layer boundaries, report per_layer metrics. */
    bool traced = false;
    /** Directory for the run's files (Chrome trace of a traced run). */
    std::string outDir = ".bench_out";
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The outcome of one run. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Reasons the checks failed (empty when correct). */
    std::vector<std::string> problems;
};

/**
 * The search data behind a workload, built as examples/search_server
 * builds it: a synthetic corpus of @p docs documents (vocabulary of the
 * same size), a predictor trained on 6000 queries, and a trace of
 * @p traceQueries queries. Deterministic: the workload seed is fixed.
 */
std::unique_ptr<tpc::search::SearchWorkload>
buildSearchWorkload(std::uint32_t docs, std::size_t traceQueries);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** Runs one workload end to end; fatal on a broken stack. */
RunResult runWorkload(const RunOptions& options);

} // namespace perfbench

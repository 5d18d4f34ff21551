/**
 * @file
 * Span trees of traced requests: per-layer self time and Chrome-trace
 * export. A span's self time is its duration minus the part of it that
 * its child spans cover (overlapping children, such as parallel tasks,
 * count once).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One span of a request's tree; parent is an index into the same tree
 *  (-1 for the root, which is always element 0). */
struct SpanRec
{
    const char* name = "";
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;
};

/** Duration of the union of @p intervals clipped to [lo, hi]. */
double coveredMs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi);

/** Sums duration and self time per span name over many trees. */
class SelfTimeTable
{
  public:
    void add(const std::vector<SpanRec>& tree);

    /** Text table, one row per layer, sorted by self time; shares are of
     *  the roots' total duration. */
    std::string render() const;

  private:
    struct Row
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Row> rows_;
    std::uint64_t trees_ = 0;
    double rootMs_ = 0.0;
};

/** Collects span trees and writes them as Chrome trace-event JSON (one
 *  row per request, timestamps in µs of the benchmark clock). */
class ChromeTraceWriter
{
  public:
    void add(std::uint64_t seq, const std::vector<SpanRec>& tree);

    /** Writes the collected trees; false when the file cannot be
     *  written. */
    bool write(const std::string& path) const;

    std::size_t size() const { return trees_.size(); }

  private:
    std::vector<std::pair<std::uint64_t, std::vector<SpanRec>>> trees_;
};

} // namespace perfbench

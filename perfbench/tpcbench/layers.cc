#include "tpcbench/layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
coveredMs(std::vector<std::pair<double, double>> intervals, double lo,
          double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

void
SelfTimeTable::add(const std::vector<SpanRec>& tree)
{
    if (tree.empty())
        return;
    ++trees_;
    rootMs_ += tree.front().endMs - tree.front().startMs;
    std::vector<std::vector<std::pair<double, double>>> children(tree.size());
    for (std::size_t i = 1; i < tree.size(); ++i)
        children[static_cast<std::size_t>(tree[i].parent)].emplace_back(
            tree[i].startMs, tree[i].endMs);
    for (std::size_t i = 0; i < tree.size(); ++i) {
        const SpanRec& span = tree[i];
        const double dur = std::max(0.0, span.endMs - span.startMs);
        Row& row = rows_[span.name];
        ++row.count;
        row.totalMs += dur;
        row.selfMs += std::max(
            0.0, dur - coveredMs(children[i], span.startMs, span.endMs));
    }
}

std::string
SelfTimeTable::render() const
{
    std::vector<std::pair<std::string, Row>> sorted(rows_.begin(),
                                                    rows_.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second.selfMs > b.second.selfMs;
    });
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-22s %10s %12s %14s %14s %8s\n", "layer", "spans",
                  "spans/req", "dur ms/req", "self ms/req", "self %");
    out += line;
    const double trees = static_cast<double>(std::max<std::uint64_t>(trees_, 1));
    for (const auto& [name, row] : sorted) {
        std::snprintf(line, sizeof(line),
                      "%-22s %10llu %12.2f %14.4f %14.4f %7.2f%%\n",
                      name.c_str(), static_cast<unsigned long long>(row.count),
                      static_cast<double>(row.count) / trees,
                      row.totalMs / trees, row.selfMs / trees,
                      rootMs_ > 0.0 ? 100.0 * row.selfMs / rootMs_ : 0.0);
        out += line;
    }
    return out;
}

void
ChromeTraceWriter::add(std::uint64_t seq, const std::vector<SpanRec>& tree)
{
    trees_.emplace_back(seq, tree);
}

bool
ChromeTraceWriter::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char event[512];
    for (const auto& [seq, tree] : trees_) {
        for (const SpanRec& span : tree) {
            const char* parent =
                span.parent < 0
                    ? ""
                    : tree[static_cast<std::size_t>(span.parent)].name;
            std::snprintf(
                event, sizeof(event),
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%llu,"
                "\"parent\":\"%s\"}}",
                first ? "" : ",", span.name,
                static_cast<unsigned long long>(seq), span.startMs * 1e3,
                std::max(0.0, span.endMs - span.startMs) * 1e3,
                static_cast<unsigned long long>(seq), parent);
            out << event;
            first = false;
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench

/**
 * @file
 * tpcbench: the serving benchmark.
 *
 *   tpcbench --workload search|fanout|correction --seed N --seconds S
 *            --trace 0|1 [--out-dir DIR]
 *
 * Builds the workload's serving stack in-process, drives it over
 * loopback TCP with an open-loop Poisson client, checks every reply, and
 * prints the metrics as a table and, on the last line of standard
 * output, as one JSON object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. --trace 0 reports the
 * end-to-end metrics; --trace 1 stamps every layer boundary and reports
 * the per-layer metrics, a self-time table and a Chrome trace in DIR.
 * Exits 2 on bad arguments; a run whose checks fail still prints its
 * result with "correct": false.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tpcbench/stats.h"
#include "tpcbench/workloads.h"

namespace {

int
usage(const char* problem)
{
    std::fprintf(stderr,
                 "tpcbench: %s\nusage: tpcbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n",
                 problem);
    return 2;
}

bool
parseNumber(const std::string& text, double* out)
{
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && end != nullptr && *end == '\0';
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::nowMs(); // Set-up time is measured from here.
    perfbench::RunOptions options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed" && parseNumber(value, &number) &&
                   number >= 0) {
            options.seed = static_cast<std::uint64_t>(number);
        } else if (flag == "--seconds" && parseNumber(value, &number) &&
                   number >= 1 && number <= 600) {
            options.seconds = number;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            options.traced = value == "1";
        } else if (flag == "--out-dir" && !value.empty()) {
            options.outDir = value;
        } else {
            return usage(("bad argument " + flag + " " + value).c_str());
        }
    }
    bool known = false;
    for (const std::string& name : perfbench::workloadNames())
        known = known || name == options.workload;
    if (!haveWorkload || !known)
        return usage("--workload must be search, fanout or correction");

    const perfbench::RunResult result = perfbench::runWorkload(options);
    for (const std::string& problem : result.problems)
        std::fprintf(stderr, "check failed: %s\n", problem.c_str());
    std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
    for (const perfbench::Metric& m : result.metrics)
        std::printf("%-36s %16.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", result.metrics[i].name.c_str(),
                    result.metrics[i].value, result.metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}

#include "tpcbench/checks.h"

#include <algorithm>
#include <iterator>

namespace perfbench {

namespace {

std::string
str(std::uint64_t value)
{
    return std::to_string(value);
}

} // namespace

std::uint64_t
oracleMatchCount(const tpc::search::InvertedIndex& index,
                 const tpc::search::Query& query)
{
    if (query.terms.empty())
        return 0;
    std::vector<std::uint32_t> docs =
        index.postings(query.terms.front()).docIds();
    std::vector<std::uint32_t> next;
    for (std::size_t t = 1; t < query.terms.size() && !docs.empty(); ++t) {
        const std::vector<std::uint32_t>& other =
            index.postings(query.terms[t]).docIds();
        next.clear();
        std::set_intersection(docs.begin(), docs.end(), other.begin(),
                              other.end(), std::back_inserter(next));
        docs.swap(next);
    }
    return docs.size();
}

std::string
checkSearchReply(const tpc::net::Frame& reply, std::uint64_t expected)
{
    if (reply.status != tpc::net::FrameStatus::kOk)
        return "status " + str(static_cast<std::uint64_t>(reply.status));
    std::uint64_t count = 0;
    if (reply.payload.size() != 8 ||
        !tpc::net::readU64(reply.payload, 0, &count))
        return "payload of " + str(reply.payload.size()) + " bytes";
    if (count != expected)
        return "match count " + str(count) + ", oracle " + str(expected);
    return {};
}

std::string
checkMergedReply(const tpc::net::Frame& reply, std::uint64_t expected,
                 std::size_t shards)
{
    if (reply.status != tpc::net::FrameStatus::kOk)
        return "status " + str(static_cast<std::uint64_t>(reply.status));
    if (reply.degraded() || reply.shardsTotal != shards ||
        reply.shardsAnswered != shards)
        return "coverage " + str(reply.shardsAnswered) + "/" +
               str(reply.shardsTotal);
    // mergeTopK layout: contributing shards, candidates, k', k' entries.
    std::uint64_t contributed = 0;
    std::uint64_t candidates = 0;
    std::uint64_t kept = 0;
    if (!tpc::net::readU64(reply.payload, 0, &contributed) ||
        !tpc::net::readU64(reply.payload, 8, &candidates) ||
        !tpc::net::readU64(reply.payload, 16, &kept))
        return "short merged payload";
    if (contributed != shards || candidates != shards)
        return "merged " + str(contributed) + " shards, " + str(candidates) +
               " candidates";
    if (kept == 0 || kept > shards ||
        reply.payload.size() != 24 + 8 * kept)
        return "merged payload of " + str(reply.payload.size()) +
               " bytes for " + str(kept) + " entries";
    for (std::uint64_t i = 0; i < kept; ++i) {
        std::uint64_t entry = 0;
        tpc::net::readU64(reply.payload, 24 + 8 * i, &entry);
        if (entry != expected)
            return "shard entry " + str(entry) + ", oracle " + str(expected);
    }
    return {};
}

std::string
checkTaskRuns(const std::vector<std::uint8_t>& runsPerTask)
{
    for (std::size_t t = 0; t < runsPerTask.size(); ++t)
        if (runsPerTask[t] != 1)
            return "task " + str(t) + " ran " + str(runsPerTask[t]) +
                   " times";
    return {};
}

std::string
checkOutcome(const tpc::server::ThreadedOutcome& outcome, int maxDegree)
{
    if (outcome.initialDegree < 1 || outcome.maxDegree < outcome.initialDegree)
        return "degrees " + std::to_string(outcome.initialDegree) + " -> " +
               std::to_string(outcome.maxDegree);
    if (outcome.maxDegree > maxDegree)
        return "degree " + std::to_string(outcome.maxDegree) +
               " above the maximum " + std::to_string(maxDegree);
    if (outcome.corrected != (outcome.firstCorrectionDelayMs >= 0.0))
        return "correction flag and first-raise time disagree";
    // The recheck deadline is dispatch + E truncated to the clock's
    // nanosecond tick, hence the one-nanosecond allowance.
    if (outcome.corrected &&
        outcome.firstCorrectionDelayMs < outcome.targetMs - 1e-6)
        return "first degree raise at " +
               std::to_string(outcome.firstCorrectionDelayMs) +
               " ms, before E = " + std::to_string(outcome.targetMs) + " ms";
    return {};
}

std::string
checkTotals(std::uint64_t clientOk, std::uint64_t responsesSent,
            std::uint64_t outcomes)
{
    if (clientOk != responsesSent || responsesSent != outcomes)
        return "client OK " + str(clientOk) + ", responses sent " +
               str(responsesSent) + ", server outcomes " + str(outcomes);
    return {};
}

} // namespace perfbench

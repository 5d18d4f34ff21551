// Tests of the benchmark's own correctness checks: each check passes on a
// good reply and rejects the bad input it exists to catch, and the
// posting-list oracle agrees with the executor on the benchmark's trace.
#include <gtest/gtest.h>

#include "fanout/merge.h"
#include "search/executor.h"
#include "search/workload.h"
#include "tpcbench/checks.h"
#include "tpcbench/workloads.h"

namespace {

using perfbench::checkMergedReply;
using perfbench::checkOutcome;
using perfbench::checkSearchReply;
using perfbench::checkTaskRuns;
using perfbench::checkTotals;

tpc::net::Frame
okReply(std::vector<std::uint8_t> payload)
{
    tpc::net::Frame frame;
    frame.type = tpc::net::FrameType::kResponse;
    frame.status = tpc::net::FrameStatus::kOk;
    frame.payload = std::move(payload);
    return frame;
}

std::vector<std::uint8_t>
u64(std::uint64_t value)
{
    std::vector<std::uint8_t> out;
    tpc::net::appendU64(out, value);
    return out;
}

/** What an aggregator answers when @p answering shards replied with
 *  @p count each, out of @p total. */
tpc::net::Frame
mergedReply(std::size_t answering, std::size_t total, std::uint64_t count)
{
    std::vector<tpc::fanout::ShardReply> replies;
    for (std::size_t s = 0; s < answering; ++s)
        replies.push_back({s, u64(count)});
    tpc::net::Frame frame = okReply({});
    tpc::fanout::mergeTopK(replies, 10, frame.payload);
    frame.shardsAnswered = static_cast<std::uint16_t>(answering);
    frame.shardsTotal = static_cast<std::uint16_t>(total);
    return frame;
}

TEST(PerfbenchChecks, SearchReplyWithTamperedMatchCountIsRejected)
{
    EXPECT_EQ(checkSearchReply(okReply(u64(17)), 17), "");
    EXPECT_NE(checkSearchReply(okReply(u64(18)), 17), "");
    EXPECT_NE(checkSearchReply(okReply({}), 17), "");
    tpc::net::Frame busy = okReply(u64(17));
    busy.status = tpc::net::FrameStatus::kBusy;
    EXPECT_NE(checkSearchReply(busy, 17), "");
}

TEST(PerfbenchChecks, MergedReplyMissingAShardIsRejected)
{
    EXPECT_EQ(checkMergedReply(mergedReply(4, 4, 9), 9, 4), "");
    // Degraded coverage in the header.
    EXPECT_NE(checkMergedReply(mergedReply(3, 4, 9), 9, 4), "");
    // Full coverage claimed, but only three shards merged.
    tpc::net::Frame short3 = mergedReply(3, 4, 9);
    short3.shardsAnswered = 4;
    EXPECT_NE(checkMergedReply(short3, 9, 4), "");
    // A shard entry that disagrees with the oracle.
    EXPECT_NE(checkMergedReply(mergedReply(4, 4, 8), 9, 4), "");
}

TEST(PerfbenchChecks, TaskIndexRunTwiceIsRejected)
{
    std::vector<std::uint8_t> runs(48, 1);
    EXPECT_EQ(checkTaskRuns(runs), "");
    runs[17] = 2;
    EXPECT_NE(checkTaskRuns(runs), "");
    runs[17] = 0;
    EXPECT_NE(checkTaskRuns(runs), "");
}

TEST(PerfbenchChecks, FirstCorrectionBeforeTargetIsRejected)
{
    tpc::server::ThreadedOutcome outcome;
    outcome.targetMs = 40.0;
    outcome.initialDegree = 1;
    outcome.maxDegree = 6;
    outcome.corrected = true;
    outcome.firstCorrectionDelayMs = 40.3;
    EXPECT_EQ(checkOutcome(outcome, 6), "");
    outcome.firstCorrectionDelayMs = 39.5;
    EXPECT_NE(checkOutcome(outcome, 6), "");
    outcome.firstCorrectionDelayMs = 40.3;
    outcome.maxDegree = 7;
    EXPECT_NE(checkOutcome(outcome, 6), "");
    outcome.maxDegree = 6;
    outcome.corrected = false;
    EXPECT_NE(checkOutcome(outcome, 6), "");
}

TEST(PerfbenchChecks, DisagreeingTotalsAreRejected)
{
    EXPECT_EQ(checkTotals(5, 5, 5), "");
    EXPECT_NE(checkTotals(5, 5, 6), "");
    EXPECT_NE(checkTotals(4, 5, 5), "");
}

TEST(PerfbenchChecks, OracleAgreesWithExecutorOnEveryTraceQuery)
{
    const auto workload = perfbench::buildSearchWorkload(20000, 800);
    const tpc::search::QueryExecutor executor(workload->index(),
                                              tpc::search::ExecutorParams{});
    std::size_t mismatches = 0;
    for (const tpc::search::Query& q : workload->traceQueries())
        if (perfbench::oracleMatchCount(workload->index(), q) !=
            executor.executeSequential(q).matchCount)
            ++mismatches;
    EXPECT_EQ(workload->traceQueries().size(), 800u);
    EXPECT_EQ(mismatches, 0u);
}

} // namespace

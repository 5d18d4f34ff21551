/**
 * @file
 * The benchmark's correctness checks. Each compares what the serving
 * stack answered against a computation made apart from it, or against a
 * property the method must have; each returns an empty string when the
 * check passes and a one-line reason when it fails.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "search/inverted_index.h"
#include "search/query.h"
#include "server/threaded_server.h"

namespace perfbench {

/**
 * Number of documents containing every term of @p query: the conjunctive
 * intersection of the query's posting lists, read directly from
 * InvertedIndex::postings (no executor code involved).
 */
std::uint64_t oracleMatchCount(const tpc::search::InvertedIndex& index,
                               const tpc::search::Query& query);

/** A single node's reply: status OK and a u64 match count equal to
 *  @p expected. */
std::string checkSearchReply(const tpc::net::Frame& reply,
                             std::uint64_t expected);

/**
 * An aggregator's merged reply over @p shards identical shards: status
 * OK, full coverage in the header, and a mergeTopK payload that reports
 * every shard and whose every entry equals @p expected. A degraded
 * (partial) reply fails.
 */
std::string checkMergedReply(const tpc::net::Frame& reply,
                             std::uint64_t expected, std::size_t shards);

/** A synthetic job's run counts: every task index ran exactly once. */
std::string checkTaskRuns(const std::vector<std::uint8_t>& runsPerTask);

/**
 * A completion record under TPC: no degree above @p maxDegree, the
 * degree never lowered, and a first degree raise (if any) no earlier
 * than the target E the policy applied at dispatch.
 */
std::string checkOutcome(const tpc::server::ThreadedOutcome& outcome,
                         int maxDegree);

/** The three independently kept totals agree: OK replies the client
 *  read, responses the RPC layer sent, and completions the engine
 *  recorded. */
std::string checkTotals(std::uint64_t clientOk, std::uint64_t responsesSent,
                        std::uint64_t outcomes);

} // namespace perfbench

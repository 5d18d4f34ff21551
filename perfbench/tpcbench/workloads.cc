#include "tpcbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "core/target_table.h"
#include "core/tpc_policy.h"
#include "fanout/aggregator.h"
#include "harness/policies.h"
#include "net/rpc_server.h"
#include "obs/span_collector.h"
#include "obs/stage_stats.h"
#include "predict/flat_forest.h"
#include "predict/versioned_model.h"
#include "search/executor.h"
#include "search/features.h"
#include "search/workload.h"
#include "server/threaded_server.h"
#include "tpcbench/checks.h"
#include "tpcbench/client.h"
#include "tpcbench/layers.h"
#include "tpcbench/ledger.h"
#include "tpcbench/stats.h"
#include "util/distributions.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace tpc;

constexpr int kShards = 4;
/** Document ranges (parallel tasks) of a fan-out leg. */
constexpr int kFanoutChunks = 4;
constexpr int kMaxDegree = 6;
/** Samples scheduled in the first part of the run are warm-up. */
constexpr double kWarmupMs = 1500.0;
/** p99_ms is the median of the p99s of blocks of whole passes over the
 *  trace deck, each block the fewest passes that hold this many samples
 *  (eight beyond each block's p99): every block asks for the same mix,
 *  and a host stall of tens of ms moves one block's p99, not the run's
 *  figure. */
constexpr std::size_t kBlockSamples = 800;

/** What is fixed per workload (see README: rates and inputs). */
struct Spec
{
    std::string name;
    /** Offered open-loop rate (req/s). */
    double rateRps;
};

const std::vector<Spec>&
specs()
{
    static const std::vector<Spec> all = {
        {"search", 500.0},
        {"fanout", 300.0},
        {"correction", 150.0},
    };
    return all;
}

const Spec&
specFor(const std::string& name)
{
    for (const Spec& spec : specs())
        if (spec.name == name)
            return spec;
    util::fatal("unknown workload '" + name + "'");
}

/** The synthetic job split: the share of a request's sequential demand
 *  that cannot run in parallel, from Amdahl's law fitted to the speedup
 *  its true demand's class reaches at the profile's maximum degree. */
double
sequentialShare(double trueMs)
{
    const policy::SpeedupProfile& profile =
        harness::webSearchExecutionModel().profileFor(trueMs);
    const double d = static_cast<double>(profile.maxDegree());
    const double s = profile.speedup(profile.maxDegree());
    return std::clamp((1.0 / s - 1.0 / d) / (1.0 - 1.0 / d), 0.0, 1.0);
}

/**
 * One serving node wired the way examples/search_server --listen wires
 * it: RpcServer in front of a ThreadedServer under TpcPolicy, with the
 * stage-stats collector, its sampler and a span collector attached. The
 * event loop runs on its own thread from construction to stop().
 */
class Node
{
  public:
    Node(int index, const server::ThreadedServerConfig& config,
         net::RequestHandler handler)
        : stageStats_({"short", "long"},
                      static_cast<std::size_t>(config.numWorkers) + 3),
          sampler_(stageStats_),
          spans_(static_cast<std::size_t>(config.numWorkers) + 3,
                 spanConfig(index)),
          policy_(harness::webSearchExecutionModel(),
                  core::TargetTable::webSearchDefault(), tpcOptions()),
          server_(config, policy_),
          rpc_(rpcConfig(), server_, std::move(handler))
    {
        server_.attachStageStats(&stageStats_);
        rpc_.attachStageStats(&stageStats_);
        server_.attachSpans(&spans_);
    }

    ~Node() { stop(); }

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    void start()
    {
        loop_ = std::thread([this] { rpc_.run(); });
    }

    /** Stops the loop; run() drains the engine before returning. */
    void stop()
    {
        if (!loop_.joinable())
            return;
        rpc_.requestStop();
        loop_.join();
    }

    std::uint16_t port() const { return rpc_.port(); }
    server::ThreadedServer& server() { return server_; }
    net::RpcServer& rpc() { return rpc_; }
    int workers() const { return server_.config().numWorkers; }

    double busyMs() const
    {
        double total = 0.0;
        for (const double ms : server_.workerBusyMs())
            total += ms;
        return total;
    }

  private:
    static obs::SpanCollectorConfig spanConfig(int index)
    {
        obs::SpanCollectorConfig config;
        config.serverId = index;
        config.role = "shard";
        return config;
    }

    static core::TpcOptions tpcOptions()
    {
        core::TpcOptions options;
        options.maxDegree = kMaxDegree;
        return options;
    }

    /** Admission far above any backlog the fixed rates build, so a stall
     *  of the shared host shows as latency, not as shed requests. */
    static net::RpcServerConfig rpcConfig()
    {
        net::RpcServerConfig config;
        config.admission.maxPending = 4096;
        config.admission.maxInFlight = 4096;
        return config;
    }

    // Declared first so they outlive the engine that records into them.
    obs::StageStatsCollector stageStats_;
    obs::StatsSampler sampler_;
    obs::SpanCollector spans_;
    core::TpcPolicy policy_;
    server::ThreadedServer server_;
    net::RpcServer rpc_;
    std::thread loop_;
};

/** search_server's engine: two workers per hardware thread, shared by
 *  the @p nodes engines of the process (at least two workers each). */
server::ThreadedServerConfig
engineConfig(double longThresholdMs, int nodes = 1)
{
    server::ThreadedServerConfig config;
    config.numWorkers = std::max(
        2, static_cast<int>(std::max(4u, std::thread::hardware_concurrency() * 2)) /
               nodes);
    config.longThresholdMs = longThresholdMs;
    return config;
}

/** The built serving stack of one workload and the data behind it. */
struct Stack
{
    std::unique_ptr<search::SearchWorkload> workload;
    std::unique_ptr<search::QueryExecutor> executor;
    std::vector<search::DocRange> chunks;
    /** Real ms per latent ms of the executor (search nodes). */
    double scale = 1.0;
    std::unique_ptr<predict::VersionedPredictor> predictor;
    std::vector<std::vector<double>> features;
    std::unique_ptr<Ledger> ledger;
    std::vector<std::unique_ptr<Node>> nodes;
    std::unique_ptr<obs::SpanCollector> aggregatorSpans;
    std::unique_ptr<fanout::AggregatorServer> aggregator;
    std::thread aggregatorLoop;

    ~Stack() { stop(); }

    std::size_t items() const { return workload->traceQueries().size(); }

    std::uint16_t port() const
    {
        return aggregator ? aggregator->port() : nodes.front()->port();
    }

    void stop()
    {
        if (aggregatorLoop.joinable()) {
            aggregator->requestStop();
            aggregatorLoop.join();
        }
        for (auto& node : nodes)
            node->stop();
    }
};

/** search_server's calibration: real executor ms per latent ms, from
 *  timed sequential runs of the first trace queries. */
double
calibrate(const search::SearchWorkload& workload,
          const search::QueryExecutor& executor)
{
    double latent = 0.0;
    double real = 0.0;
    const std::size_t n = std::min<std::size_t>(60, workload.traceQueries().size());
    for (std::size_t i = 0; i < n; ++i) {
        const search::Query& q = workload.traceQueries()[i];
        const double start = nowMs();
        executor.executeSequential(q);
        real += nowMs() - start;
        latent += q.trueSequentialMs;
    }
    return real / latent;
}

/** A search node's job builder: the search_server handler, with the
 *  benchmark's stamps around each call into the executor. */
net::RequestHandler
searchHandler(Stack& stack, int node, double longThresholdMs)
{
    return [&stack, node, longThresholdMs](
               const net::Frame& request,
               std::vector<std::uint8_t>& responsePayload) {
        Ledger& ledger = *stack.ledger;
        const bool traced = ledger.traced();
        const double callMs = traced ? nowMs() : 0.0;
        std::uint64_t seq = 0;
        std::uint32_t item = 0;
        TPC_CHECK(decodeRequestPayload(request.payload, &seq, &item));
        item %= static_cast<std::uint32_t>(stack.items());
        const std::size_t slot = ledger.open(seq, item, node);
        const search::Query& q = stack.workload->traceQueries()[item];
        const search::QueryExecutor& executor = *stack.executor;

        server::ThreadedJob job;
        job.predictedMs = stack.workload->trace()[item].predictedMs * stack.scale;
        job.cls = job.predictedMs >= longThresholdMs ? 1u : 0u;
        if (stack.predictor != nullptr)
            job.features = stack.features[item];
        auto results = std::make_shared<std::vector<search::ChunkResult>>();
        results->reserve(stack.chunks.size());
        for (std::size_t c = 0; c < stack.chunks.size(); ++c)
            results->emplace_back(10);
        job.preamble = [&ledger, &executor, &q, slot, traced] {
            const double start = traced ? nowMs() : 0.0;
            executor.parsePhase(q);
            if (traced) {
                ledger.at(slot).preStartMs = start;
                ledger.at(slot).preEndMs = nowMs();
            }
        };
        job.numTasks = static_cast<int>(stack.chunks.size());
        job.task = [&ledger, &executor, &q, &chunks = stack.chunks, results,
                    slot, traced](int c) {
            const double start = traced ? nowMs() : 0.0;
            executor.executeRange(q, chunks[static_cast<std::size_t>(c)],
                                  (*results)[static_cast<std::size_t>(c)]);
            ledger.taskRan(slot, c, start, traced ? nowMs() : 0.0);
        };
        job.postamble = [&ledger, &executor, &q, results, &responsePayload,
                         slot, traced] {
            const double start = traced ? nowMs() : 0.0;
            const search::SearchResult merged =
                executor.mergeAndRescore(q, *results);
            net::appendU64(responsePayload, merged.matchCount);
            if (traced) {
                ledger.at(slot).postStartMs = start;
                ledger.at(slot).postEndMs = nowMs();
            }
        };
        if (traced) {
            ledger.at(slot).callMs = callMs;
            ledger.at(slot).returnMs = nowMs();
        }
        return job;
    };
}

/** Tasks of a synthetic correction job (the search executor's chunking). */
constexpr int kSyntheticTasks = 48;

/** The correction node's job builder: replays one trace entry as real
 *  CPU work and hands the policy the entry's predicted demand. */
net::RequestHandler
correctionHandler(Stack& stack)
{
    return [&stack](const net::Frame& request,
                    std::vector<std::uint8_t>& responsePayload) {
        Ledger& ledger = *stack.ledger;
        const bool traced = ledger.traced();
        const double callMs = traced ? nowMs() : 0.0;
        std::uint64_t seq = 0;
        std::uint32_t item = 0;
        TPC_CHECK(decodeRequestPayload(request.payload, &seq, &item));
        item %= static_cast<std::uint32_t>(stack.items());
        const std::size_t slot = ledger.open(seq, item, 0);
        const search::TraceEntry& entry = stack.workload->trace()[item];
        const double serialMs = entry.trueMs * sequentialShare(entry.trueMs);
        const double taskMs = (entry.trueMs - serialMs) / kSyntheticTasks;

        server::ThreadedJob job;
        job.predictedMs = entry.predictedMs;
        job.cls = job.predictedMs >= 80.0 ? 1u : 0u;
        job.preamble = [&ledger, slot, serialMs, traced] {
            const double start = traced ? nowMs() : 0.0;
            burnCpuMs(serialMs);
            if (traced) {
                ledger.at(slot).preStartMs = start;
                ledger.at(slot).preEndMs = nowMs();
            }
        };
        job.numTasks = kSyntheticTasks;
        job.task = [&ledger, slot, taskMs, traced](int t) {
            const double start = traced ? nowMs() : 0.0;
            burnCpuMs(taskMs);
            ledger.taskRan(slot, t, start, traced ? nowMs() : 0.0);
        };
        job.postamble = [&ledger, &responsePayload, slot, traced] {
            const double start = traced ? nowMs() : 0.0;
            net::appendU64(responsePayload, ledger.runsOf(slot));
            if (traced) {
                ledger.at(slot).postStartMs = start;
                ledger.at(slot).postEndMs = nowMs();
            }
        };
        if (traced) {
            ledger.at(slot).callMs = callMs;
            ledger.at(slot).returnMs = nowMs();
        }
        return job;
    };
}

/** Builds the workload's stack and starts its event loops. */
void
buildStack(const std::string& workload, std::size_t ledgerSlots, bool traced,
           Stack& stack)
{
    if (workload == "fanout") {
        // The shard tier of scripts/fanout_topology.sh: four search nodes
        // over identical small indexes (so a ring replica holds the same
        // data as the primary it backs up).
        stack.workload = buildSearchWorkload(3000, 200);
    } else {
        stack.workload = buildSearchWorkload(20000, 800);
    }
    search::ExecutorParams executorParams;
    if (workload == "fanout") {
        // A tenth of the fixed per-query parse and rescoring work, and a
        // leg split into kFanoutChunks ranges instead of 48, so a leg
        // costs under a millisecond and the fan-out path itself
        // (five sockets, loop wake-ups, hedge timers, merge) carries the
        // request; the search workload covers execution at full weight.
        executorParams.parseRounds /= 10;
        executorParams.parseRoundsPerTerm /= 10;
        executorParams.rescoreRounds /= 10;
        executorParams.taskChunks = kFanoutChunks;
    }
    const int tasks =
        workload == "correction" ? kSyntheticTasks : executorParams.taskChunks;
    stack.ledger = std::make_unique<Ledger>(
        ledgerSlots, tasks, workload == "fanout" ? kShards : 1, traced);

    if (workload == "correction") {
        // Latent ms are burnt as real ms, so the trace's predictions and
        // the target table need no rescaling.
        stack.nodes.push_back(std::make_unique<Node>(
            0, engineConfig(80.0), correctionHandler(stack)));
        stack.nodes.front()->start();
        return;
    }

    stack.executor = std::make_unique<search::QueryExecutor>(
        stack.workload->index(), executorParams);
    stack.chunks = stack.executor->makeChunks();
    stack.scale = calibrate(*stack.workload, *stack.executor);
    const double longThresholdMs = 80.0 * stack.scale;

    if (workload == "search") {
        // Dispatch-time prediction from query features, as search_server
        // serves with a live model (--model-file / --retrain).
        stack.predictor = std::make_unique<predict::VersionedPredictor>(
            stack.workload->predictor());
        const search::FeatureExtractor extractor(stack.workload->index());
        for (const search::Query& q : stack.workload->traceQueries())
            stack.features.push_back(extractor.extract(q));
        stack.nodes.push_back(std::make_unique<Node>(
            0, engineConfig(longThresholdMs),
            searchHandler(stack, 0, longThresholdMs)));
        stack.nodes.front()->server().attachPredictor(stack.predictor.get(),
                                                      stack.scale);
        stack.nodes.front()->start();
        return;
    }

    for (int i = 0; i < kShards; ++i) {
        stack.nodes.push_back(std::make_unique<Node>(
            i, engineConfig(longThresholdMs, kShards),
            searchHandler(stack, i, longThresholdMs)));
        stack.nodes.back()->start();
    }
    // examples/aggregator_server --hedge --hedge-min-samples 16
    // --hedge-fallback-ms 25 (ring replicas, web target table).
    fanout::AggregatorConfig config;
    for (int i = 0; i < kShards; ++i) {
        fanout::ShardSpec shard;
        shard.primary.port = stack.nodes[static_cast<std::size_t>(i)]->port();
        shard.replica.port =
            stack.nodes[static_cast<std::size_t>((i + 1) % kShards)]->port();
        config.shards.push_back(shard);
    }
    config.hedge.enabled = true;
    config.hedge.minSamples = 16;
    config.hedge.fallbackDelayMs = 25.0;
    // A partial answer at E x 4 (160 ms unloaded) and 256 fan-outs in
    // flight would turn a host stall into degraded or shed replies; here
    // a stall shows as latency and every reply covers all shards.
    config.deadlineFactor = 25.0;
    config.maxInFlight = 4096;
    const core::TpcPolicy policy(harness::webSearchExecutionModel(),
                                 core::TargetTable::webSearchDefault(),
                                 core::TpcOptions{});
    const policy::PolicySnapshot snap = policy.introspect();
    for (const auto& [load, targetMs] : snap.targetTable)
        config.targetTable.push_back({load, targetMs});
    config.policyName = "fanout-aggregator/" + snap.name;
    stack.aggregator = std::make_unique<fanout::AggregatorServer>(config);
    obs::SpanCollectorConfig spanConfig;
    spanConfig.serverId = kShards;
    spanConfig.role = "aggregator";
    stack.aggregatorSpans = std::make_unique<obs::SpanCollector>(1, spanConfig);
    stack.aggregator->attachSpans(stack.aggregatorSpans.get());
    stack.aggregatorLoop =
        std::thread([&stack] { stack.aggregator->run(); });
}

/**
 * The run's open-loop schedule: Poisson arrivals at @p rateRps over
 * @p durationMs from @p startMs, seqs from 1 (0 is the set-up probe).
 * Arrival times and items come from two streams seeded by the run seed.
 * Items are dealt from shuffled decks of the whole trace, so every seed
 * asks for the same mix (each item once per pass over the trace) in a
 * different order.
 */
std::vector<ScheduledRequest>
poissonSchedule(std::uint64_t seed, double rateRps, double startMs,
                double durationMs, std::size_t items)
{
    util::PoissonProcess arrivals(rateRps, util::Rng(seed * 2));
    util::Rng shuffler(seed * 2 + 1);
    std::vector<std::uint32_t> deck(items);
    std::size_t dealt = items;
    std::vector<ScheduledRequest> schedule;
    while (true) {
        const double at = arrivals.nextArrivalMs();
        if (at >= durationMs)
            break;
        if (dealt == items) {
            for (std::size_t i = 0; i < items; ++i)
                deck[i] = static_cast<std::uint32_t>(i);
            std::shuffle(deck.begin(), deck.end(), shuffler);
            dealt = 0;
        }
        ScheduledRequest r;
        r.seq = 1 + schedule.size();
        r.item = deck[dealt++];
        r.scheduledMs = startMs + at;
        schedule.push_back(r);
    }
    return schedule;
}

/** One phase (the set-up probe, the measured run): what was sent and
 *  what came back. */
struct Phase
{
    std::vector<ScheduledRequest> schedule;
    std::vector<ClientReply> replies;
    double startMs = 0.0;

    /** Response times (ms from the scheduled send) of requests scheduled
     *  after @p warmupMs that were answered OK. */
    std::vector<double> latencies(double warmupMs) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < schedule.size(); ++i)
            if (schedule[i].scheduledMs >= startMs + warmupMs &&
                replies[i].answered() &&
                replies[i].frame.status == net::FrameStatus::kOk)
                out.push_back(replies[i].recvMs - schedule[i].scheduledMs);
        return out;
    }

    bool allOk() const
    {
        for (const ClientReply& r : replies)
            if (!r.answered() || r.frame.status != net::FrameStatus::kOk)
                return false;
        return true;
    }
};

Phase
runPhase(OpenLoopClient& client, std::uint64_t seed, double rateRps,
         double durationMs, std::size_t items)
{
    Phase p;
    p.startMs = nowMs() + 2.0;
    p.schedule = poissonSchedule(seed, rateRps, p.startMs, durationMs, items);
    // Every reply is awaited: the three-way totals check needs the client
    // to have read everything the servers sent.
    client.run(p.schedule, p.replies, 30000.0);
    return p;
}

/** p99_ms of a phase whose schedule deals @p items per pass (see
 *  kBlockSamples): passes that begin in the first @p warmupMs or that the
 *  run's end cuts short are left out, as are passes that do not fill a
 *  last block. Falls back to the p99 of every post-warm-up sample when
 *  the run holds no whole block. */
double
passBlockedP99(const Phase& phase, std::size_t items, double warmupMs)
{
    const std::size_t passesPerBlock = (kBlockSamples + items - 1) / items;
    const std::size_t blockRequests = passesPerBlock * items;
    std::size_t first = 0;
    while (first < phase.schedule.size() &&
           phase.schedule[first].scheduledMs < phase.startMs + warmupMs)
        first += items;
    std::vector<double> p99s;
    for (std::size_t begin = first;
         begin + blockRequests <= phase.schedule.size();
         begin += blockRequests) {
        std::vector<double> block;
        for (std::size_t i = begin; i < begin + blockRequests; ++i)
            if (phase.replies[i].answered() &&
                phase.replies[i].frame.status == net::FrameStatus::kOk)
                block.push_back(phase.replies[i].recvMs -
                                phase.schedule[i].scheduledMs);
        p99s.push_back(percentile(block, 0.99));
    }
    if (p99s.empty()) {
        std::fprintf(stderr, "warning: no whole block of %zu passes after "
                             "warm-up; p99_ms pools every sample\n",
                     passesPerBlock);
        std::vector<double> all = phase.latencies(warmupMs);
        return percentile(all, 0.99);
    }
    return percentile(p99s, 0.5);
}

/** The oracle's answer for a workload item. */
struct Oracle
{
    const Stack& stack;
    std::map<std::uint32_t, std::uint64_t> cache;

    std::uint64_t matchCount(std::uint32_t item)
    {
        auto it = cache.find(item);
        if (it == cache.end())
            it = cache
                     .emplace(item, oracleMatchCount(
                                        stack.workload->index(),
                                        stack.workload->traceQueries()[item]))
                     .first;
        return it->second;
    }
};

/** Checks one OK reply's payload against the workload's oracle. */
std::string
checkReply(const std::string& workload, Oracle& oracle, const Ledger& ledger,
           const ScheduledRequest& request, const net::Frame& reply)
{
    if (workload == "search")
        return checkSearchReply(reply, oracle.matchCount(request.item));
    if (workload == "fanout")
        return checkMergedReply(reply, oracle.matchCount(request.item),
                                kShards);
    std::uint64_t runs = 0;
    if (!net::readU64(reply.payload, 0, &runs) ||
        runs != static_cast<std::uint64_t>(ledger.tasks()))
        return "reply reports " + std::to_string(runs) + " task runs";
    return {};
}

/** Waits until every node has answered everything it executed (hedge
 *  losers may still be running when the client has its last reply). */
void
awaitQuietNodes(Stack& stack)
{
    const double until = nowMs() + 20000.0;
    while (nowMs() < until) {
        bool quiet = true;
        for (auto& node : stack.nodes)
            quiet = quiet && node->server().inFlightCount() == 0 &&
                    node->rpc().stats().responsesSent ==
                        node->server().outcomes().size();
        if (quiet)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/** Per-layer metrics of a traced run's fixed-rate phase. */
struct LayerInputs
{
    const std::string& workload;
    const Stack& stack;
    const Phase& phase;
    double busyShare = 0.0;
    std::uint64_t hedgesIssued = 0;
    std::uint64_t hedgesWon = 0;
    const std::vector<std::vector<server::ThreadedOutcome>>& outcomes;
};

void
addLayerMetrics(const LayerInputs& in, const RunOptions& options,
                RunResult& result)
{
    const Ledger& ledger = *in.stack.ledger;
    const bool fan = in.workload == "fanout";
    const bool synthetic = in.workload == "correction";

    // Invocation slots by seq (a fan-out request has one per leg, plus
    // one per hedge).
    std::map<std::uint64_t, std::vector<std::size_t>> slotsBySeq;
    for (std::size_t slot = 0; slot < ledger.size(); ++slot)
        slotsBySeq[ledger.at(slot).seq].push_back(slot);

    std::vector<double> lateness, inbound, outbound, dispatchWait, overhead,
        spread, parse, range, merge, execPerReq, tracedLatency;
    std::uint64_t requests = 0;
    std::uint64_t invocations = 0;
    SelfTimeTable selfTime;
    ChromeTraceWriter chrome;
    std::vector<std::pair<double, std::size_t>> slowest;
    std::vector<std::uint64_t> treeSeqs;

    std::vector<std::vector<SpanRec>> trees;
    for (std::size_t i = 0; i < in.phase.schedule.size(); ++i) {
        const ScheduledRequest& req = in.phase.schedule[i];
        const ClientReply& reply = in.phase.replies[i];
        if (req.scheduledMs < in.phase.startMs + kWarmupMs ||
            !reply.answered())
            continue;
        const auto found = slotsBySeq.find(req.seq);
        if (found == slotsBySeq.end())
            continue;
        const std::vector<std::size_t>& slots = found->second;

        // The invocation that answered each leg: on a single node the one
        // invocation; in the fan-out, leg j is answered by the earlier of
        // node j's first invocation (its primary) and any later
        // invocation on node j+1 (the ring replica's hedge of leg j).
        std::vector<std::size_t> answering;
        if (!fan) {
            answering.push_back(slots.front());
        } else {
            std::vector<std::vector<std::size_t>> byNode(kShards);
            for (const std::size_t s : slots)
                byNode[static_cast<std::size_t>(ledger.at(s).node)].push_back(s);
            bool complete = true;
            for (auto& v : byNode) {
                std::sort(v.begin(), v.end(), [&](std::size_t a, std::size_t b) {
                    return ledger.at(a).callMs < ledger.at(b).callMs;
                });
                complete = complete && !v.empty();
            }
            if (!complete)
                continue;
            for (int j = 0; j < kShards; ++j) {
                std::size_t best = byNode[static_cast<std::size_t>(j)].front();
                const auto& replica = byNode[static_cast<std::size_t>((j + 1) % kShards)];
                for (std::size_t h = 1; h < replica.size(); ++h)
                    if (ledger.at(replica[h]).postEndMs < ledger.at(best).postEndMs)
                        best = replica[h];
                answering.push_back(best);
            }
        }
        ++requests;
        invocations += slots.size();
        tracedLatency.push_back(reply.recvMs - req.scheduledMs);
        lateness.push_back(reply.sentMs - req.scheduledMs);
        double firstCall = 1e300;
        double lastEnd = -1e300;
        double firstEnd = 1e300;
        std::size_t slowestLeg = answering.front();
        for (const std::size_t s : answering) {
            if (ledger.at(s).postEndMs > lastEnd) {
                lastEnd = ledger.at(s).postEndMs;
                slowestLeg = s;
            }
            firstEnd = std::min(firstEnd, ledger.at(s).postEndMs);
        }
        for (const std::size_t s : slots)
            firstCall = std::min(firstCall, ledger.at(s).callMs);
        inbound.push_back(firstCall - reply.sentMs);
        outbound.push_back(reply.recvMs - lastEnd);
        const Invocation& slow = ledger.at(slowestLeg);
        overhead.push_back((reply.recvMs - reply.sentMs) -
                           (slow.postEndMs - slow.callMs));
        spread.push_back(lastEnd - firstEnd);

        // The request's span tree.
        std::vector<SpanRec> tree;
        tree.push_back({"client.request", req.scheduledMs, reply.recvMs, -1});
        tree.push_back({"net.inbound", reply.sentMs, firstCall, 0});
        double execMs = 0.0;
        for (const std::size_t s : slots) {
            const Invocation& inv = ledger.at(s);
            dispatchWait.push_back(inv.preStartMs - inv.returnMs);
            int parent = 0;
            if (fan) {
                tree.push_back({"fanout.leg", inv.callMs, inv.postEndMs, 0});
                parent = static_cast<int>(tree.size()) - 1;
            }
            tree.push_back({"server.dispatch_wait", inv.returnMs,
                            inv.preStartMs, parent});
            tree.push_back({synthetic ? "runtime.preamble" : "search.parse",
                            inv.preStartMs, inv.preEndMs, parent});
            const TaskSpan* tasks = ledger.taskSpans(s);
            double sum = (inv.preEndMs - inv.preStartMs) +
                         (inv.postEndMs - inv.postStartMs);
            for (int t = 0; t < ledger.tasks(); ++t) {
                tree.push_back({synthetic ? "runtime.task" : "search.range",
                                tasks[t].startMs, tasks[t].endMs, parent});
                sum += tasks[t].endMs - tasks[t].startMs;
                if (!synthetic)
                    range.push_back(tasks[t].endMs - tasks[t].startMs);
            }
            tree.push_back({synthetic ? "runtime.postamble" : "search.merge",
                            inv.postStartMs, inv.postEndMs, parent});
            if (!synthetic) {
                parse.push_back(inv.preEndMs - inv.preStartMs);
                merge.push_back(inv.postEndMs - inv.postStartMs);
                execMs += sum;
            }
        }
        tree.push_back({"net.outbound", lastEnd, reply.recvMs, 0});
        if (!synthetic)
            execPerReq.push_back(execMs);
        selfTime.add(tree);
        slowest.emplace_back(reply.recvMs - req.scheduledMs, trees.size());
        if (req.seq % 50 == 0)
            chrome.add(req.seq, tree);
        trees.push_back(std::move(tree));
        treeSeqs.push_back(req.seq);
    }
    // The Chrome trace keeps every 50th request and the 20 slowest.
    std::sort(slowest.rbegin(), slowest.rend());
    for (std::size_t k = 0; k < slowest.size() && k < 20; ++k) {
        const std::size_t t = slowest[k].second;
        if (treeSeqs[t] % 50 != 0)
            chrome.add(treeSeqs[t], trees[t]);
    }

    // Engine outcomes, matched to the run's requests by job id order.
    std::vector<double> lateCorrection, targets, initialDegree, maxDegree,
        absErr;
    std::uint64_t completions = 0;
    std::uint64_t corrected = 0;
    std::uint64_t starved = 0;
    for (std::size_t n = 0; n < in.outcomes.size(); ++n) {
        const std::vector<std::size_t>& order = ledger.order(static_cast<int>(n));
        for (const server::ThreadedOutcome& o : in.outcomes[n]) {
            ++completions;
            corrected += o.corrected ? 1 : 0;
            starved += o.starvedCorrection ? 1 : 0;
            if (o.corrected)
                lateCorrection.push_back(o.firstCorrectionDelayMs - o.targetMs);
            targets.push_back(o.targetMs);
            initialDegree.push_back(o.initialDegree);
            maxDegree.push_back(o.maxDegree);
            if (o.id >= order.size())
                continue;
            const std::size_t s = order[o.id];
            const Invocation& inv = ledger.at(s);
            double measured = (inv.preEndMs - inv.preStartMs) +
                              (inv.postEndMs - inv.postStartMs);
            const TaskSpan* tasks = ledger.taskSpans(s);
            for (int t = 0; t < ledger.tasks(); ++t)
                measured += tasks[t].endMs - tasks[t].startMs;
            if (inv.preStartMs >= 0.0)
                absErr.push_back(std::abs(o.predictedMs - measured));
        }
    }

    // Direct FlatForest::predict calls over the run's feature vectors.
    double predictUs = 0.0;
    if (in.stack.predictor != nullptr) {
        const predict::FlatForest forest =
            predict::FlatForest::compile(in.stack.workload->predictor());
        std::vector<const double*> rows;
        for (const ScheduledRequest& req : in.phase.schedule)
            rows.push_back(in.stack.features[req.item].data());
        double sink = 0.0;
        std::size_t calls = 0;
        const double start = nowMs();
        while (!rows.empty() && calls < 200000) {
            for (const double* row : rows)
                sink += forest.predict(row);
            calls += rows.size();
        }
        predictUs = (nowMs() - start) * 1000.0 /
                    static_cast<double>(std::max<std::size_t>(calls, 1));
        volatile double keep = sink;
        (void)keep;
    }

    const double perK =
        1000.0 / static_cast<double>(std::max<std::uint64_t>(completions, 1));
    const double reqs = static_cast<double>(std::max<std::uint64_t>(requests, 1));
    auto add = [&result](const char* name, double value, const char* unit) {
        result.metrics.push_back({name, value, unit});
    };
    add("client.send_lateness_p99_ms", percentile(lateness, 0.99), "ms");
    add("client.traced_p50_ms", percentile(tracedLatency, 0.5), "ms");
    add("net.inbound_p50_ms", percentile(inbound, 0.5), "ms");
    add("net.inbound_p99_ms", percentile(inbound, 0.99), "ms");
    add("net.outbound_p50_ms", percentile(outbound, 0.5), "ms");
    add("net.outbound_p99_ms", percentile(outbound, 0.99), "ms");
    add("server.dispatch_wait_p50_ms", percentile(dispatchWait, 0.5), "ms");
    add("server.dispatch_wait_p99_ms", percentile(dispatchWait, 0.99), "ms");
    add("server.corrected_per_kreq", static_cast<double>(corrected) * perK,
        "count");
    add("server.starved_per_kreq", static_cast<double>(starved) * perK,
        "count");
    add("server.correction_lateness_p50_ms", percentile(lateCorrection, 0.5),
        "ms");
    add("server.correction_lateness_p99_ms",
        percentile(lateCorrection, 0.99), "ms");
    add("core.initial_degree_mean", mean(initialDegree), "threads");
    add("core.max_degree_mean", mean(maxDegree), "threads");
    add("core.target_p50_ms", percentile(targets, 0.5), "ms");
    add("predict.predict_us", predictUs, "us");
    add("predict.abs_err_p50_ms", percentile(absErr, 0.5), "ms");
    add("search.parse_ms_mean", mean(parse), "ms");
    add("search.range_ms_mean", mean(range), "ms");
    add("search.merge_ms_mean", mean(merge), "ms");
    add("search.exec_ms_per_req", mean(execPerReq), "ms");
    add("runtime.worker_busy_share", in.busyShare, "ratio");
    add("fanout.overhead_p50_ms", percentile(overhead, 0.5), "ms");
    add("fanout.overhead_p99_ms", percentile(overhead, 0.99), "ms");
    add("fanout.leg_spread_p99_ms", percentile(spread, 0.99), "ms");
    add("fanout.hedges_per_kreq",
        fan ? 1000.0 * (static_cast<double>(invocations) - kShards * reqs) /
                  reqs
            : 0.0,
        "count");
    add("fanout.hedge_won_share",
        in.hedgesIssued == 0 ? 0.0
                             : static_cast<double>(in.hedgesWon) /
                                   static_cast<double>(in.hedgesIssued),
        "ratio");

    std::printf("per-layer self time, %s, %llu requests after warm-up:\n%s",
                in.workload.c_str(), static_cast<unsigned long long>(requests),
                selfTime.render().c_str());
    std::error_code ec;
    std::filesystem::create_directories(options.outDir, ec);
    const std::string path = options.outDir + "/trace-" + in.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (chrome.write(path))
        std::printf("wrote %zu request traces to %s\n", chrome.size(),
                    path.c_str());
    else
        std::fprintf(stderr, "could not write %s\n", path.c_str());
}

} // namespace

std::unique_ptr<tpc::search::SearchWorkload>
buildSearchWorkload(std::uint32_t docs, std::size_t traceQueries)
{
    tpc::search::WorkloadParams params;
    params.corpus.numDocuments = docs;
    params.corpus.vocabularySize = docs;
    params.trainingQueries = 6000;
    params.traceQueries = traceQueries;
    return std::make_unique<tpc::search::SearchWorkload>(params);
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Spec& spec : specs())
            out.push_back(spec.name);
        return out;
    }();
    return names;
}

RunResult
runWorkload(const RunOptions& options)
{
    const Spec& spec = specFor(options.workload);
    const double runMs = options.seconds * 1000.0;
    const std::size_t perRequest =
        options.workload == "fanout" ? 2 * kShards : 1;
    const std::size_t slots = static_cast<std::size_t>(
                                  spec.rateRps * runMs / 1000.0 * 1.3 + 1000.0) *
                              perRequest;

    RunResult result;
    Stack stack;
    buildStack(options.workload, slots, options.traced, stack);
    OpenLoopClient client(
        stack.port(),
        static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)),
        options.seed);

    // Set-up ends with the first answered request.
    Phase probe;
    probe.startMs = nowMs();
    probe.schedule.push_back({0, 0, probe.startMs});
    client.run(probe.schedule, probe.replies, 30000.0);
    TPC_CHECK_MSG(probe.allOk(), "the first request was not answered OK");
    const double setupS = nowMs() / 1000.0;

    // The measured open-loop phase at the workload's fixed rate.
    auto busyMs = [&stack] {
        double total = 0.0;
        for (auto& node : stack.nodes)
            total += node->busyMs();
        return total;
    };
    int workers = 0;
    for (auto& node : stack.nodes)
        workers += node->workers();
    const double cpu0 = processCpuMs();
    const double clientCpu0 = threadCpuMs();
    const double busy0 = busyMs();
    const double wall0 = nowMs();
    const Phase fixed =
        runPhase(client, options.seed, spec.rateRps, runMs, stack.items());
    const double wallMs = nowMs() - wall0;
    const double busyShare =
        (busyMs() - busy0) / (static_cast<double>(workers) * wallMs);
    const double serverCpuMs =
        (processCpuMs() - cpu0) - (threadCpuMs() - clientCpu0);
    std::uint64_t fixedAnswered = 0;
    for (const ClientReply& r : fixed.replies)
        fixedAnswered += r.answered() ? 1 : 0;

    awaitQuietNodes(stack);
    std::uint64_t hedgesIssued = 0;
    std::uint64_t hedgesWon = 0;
    std::uint64_t aggregatorSent = 0;
    std::uint64_t aggregatorRecords = 0;
    if (stack.aggregator != nullptr) {
        for (const auto& shard : stack.aggregator->collector().snapshot().shards) {
            hedgesIssued += shard.hedgeIssued;
            hedgesWon += shard.hedgeWon;
        }
    }
    stack.stop();
    if (stack.aggregator != nullptr) {
        aggregatorSent = stack.aggregator->stats().responsesSent;
        aggregatorRecords = stack.aggregator->collector().snapshot().records;
    }

    // Checks: every request is answered OK and every answer agrees with
    // the oracle.
    Oracle oracle{stack, {}};
    std::uint64_t clientOk = 0;
    for (const Phase* phase : {static_cast<const Phase*>(&probe), &fixed}) {
        for (std::size_t i = 0; i < phase->schedule.size(); ++i) {
            const ClientReply& reply = phase->replies[i];
            const bool ok = reply.answered() &&
                            reply.frame.status == net::FrameStatus::kOk;
            ++result.attempted;
            result.failed += ok ? 0 : 1;
            if (!ok)
                continue;
            ++clientOk;
            const std::string problem =
                checkReply(options.workload, oracle, *stack.ledger,
                           phase->schedule[i], reply.frame);
            if (!problem.empty())
                result.problems.push_back(
                    "seq " + std::to_string(phase->schedule[i].seq) + ": " +
                    problem);
        }
    }
    std::vector<std::vector<server::ThreadedOutcome>> outcomes;
    std::uint64_t nodeResponses = 0;
    std::uint64_t nodeOutcomes = 0;
    for (std::size_t n = 0; n < stack.nodes.size(); ++n) {
        Node& node = *stack.nodes[n];
        outcomes.push_back(node.server().outcomes());
        const std::uint64_t sent = node.rpc().stats().responsesSent;
        const std::uint64_t invoked = stack.ledger->order(static_cast<int>(n)).size();
        if (sent != invoked)
            result.problems.push_back("node " + std::to_string(n) + ": " +
                                      std::to_string(invoked) +
                                      " builder calls, " +
                                      std::to_string(sent) + " responses");
        nodeResponses += sent;
        nodeOutcomes += outcomes.back().size();
        for (const server::ThreadedOutcome& o : outcomes.back()) {
            const std::string problem = checkOutcome(o, kMaxDegree);
            if (!problem.empty())
                result.problems.push_back("outcome " + std::to_string(o.id) +
                                          ": " + problem);
        }
    }
    const std::string totals =
        stack.aggregator != nullptr
            ? checkTotals(clientOk, aggregatorSent, aggregatorRecords) +
                  checkTotals(nodeResponses, nodeResponses, nodeOutcomes)
            : checkTotals(clientOk, nodeResponses, nodeOutcomes);
    if (!totals.empty())
        result.problems.push_back(totals);
    for (std::size_t slot = 0; slot < stack.ledger->size(); ++slot) {
        const std::string problem = checkTaskRuns(stack.ledger->runCounts(slot));
        if (!problem.empty())
            result.problems.push_back("invocation " + std::to_string(slot) +
                                      ": " + problem);
    }
    result.correct = result.problems.empty();

    if (options.traced) {
        addLayerMetrics({options.workload, stack, fixed, busyShare,
                         hedgesIssued, hedgesWon, outcomes},
                        options, result);
    } else {
        std::vector<double> latency = fixed.latencies(kWarmupMs);
        if (latency.size() < 1000)
            std::fprintf(stderr,
                         "warning: %zu samples, fewer than ten beyond p99\n",
                         latency.size());
        const double p99 = passBlockedP99(fixed, stack.items(), kWarmupMs);
        result.metrics.push_back({"setup_s", setupS, "s"});
        result.metrics.push_back({"p50_ms", percentile(latency, 0.5), "ms"});
        result.metrics.push_back({"p99_ms", p99, "ms"});
        result.metrics.push_back(
            {"server_cpu_ms_per_req",
             serverCpuMs / static_cast<double>(std::max<std::uint64_t>(
                               fixedAnswered, 1)),
             "ms"});
        result.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        std::printf("%s: %zu samples after warm-up at %.0f req/s, p99 over "
                    "all of them %.3f ms\n",
                    options.workload.c_str(), latency.size(), spec.rateRps,
                    percentile(latency, 0.99));
    }
    return result;
}

} // namespace perfbench

/**
 * @file
 * The benchmark's record of what happened inside the serving stack, kept
 * from the closures the benchmark hands to the program.
 *
 * Every call of a job builder opens one invocation slot. The job's
 * closures count each task run into the slot (the exactly-once check,
 * always on); in a traced run they also stamp the layer boundaries with
 * nowMs(): builder entry and exit, preamble, every task, postamble. A
 * slot's fields are each written by one thread and read only after every
 * server thread was joined.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** One invocation of a node's job builder (a request reaching a shard). */
struct Invocation
{
    std::uint64_t seq = 0;
    std::uint32_t item = 0;
    /** Node index (the shard, or 0 on a single node). */
    int node = 0;
    /** Builder entry and exit. */
    double callMs = -1.0;
    double returnMs = -1.0;
    /** Preamble (search parse). */
    double preStartMs = -1.0;
    double preEndMs = -1.0;
    /** Postamble (search merge). */
    double postStartMs = -1.0;
    double postEndMs = -1.0;
};

/** A span of a task run, by task index. */
struct TaskSpan
{
    double startMs = -1.0;
    double endMs = -1.0;
};

/** Fixed-capacity, thread-safe store of invocations. */
class Ledger
{
  public:
    /**
     * @param capacity Invocation slots (fatal when exhausted).
     * @param tasks    Tasks per job.
     * @param nodes    Nodes whose builder order is kept.
     * @param traced   Keep timestamps; otherwise only run counts.
     */
    Ledger(std::size_t capacity, int tasks, int nodes, bool traced);

    Ledger(const Ledger&) = delete;
    Ledger& operator=(const Ledger&) = delete;

    bool traced() const { return traced_; }
    int tasks() const { return tasks_; }

    /**
     * Opens the slot for a builder call on @p node and returns it. Must be
     * called from that node's event-loop thread (the builder's thread):
     * the node's k-th call is its ThreadedServer's job id k.
     */
    std::size_t open(std::uint64_t seq, std::uint32_t item, int node);

    Invocation& at(std::size_t slot) { return invocations_[slot]; }
    const Invocation& at(std::size_t slot) const
    {
        return invocations_[slot];
    }

    /** Counts one run of @p task; in a traced run keeps its span. */
    void taskRan(std::size_t slot, int task, double startMs, double endMs);

    /** Total runs recorded for the slot's tasks (any thread). */
    std::uint64_t runsOf(std::size_t slot) const;

    /** Run count of every task of the slot. */
    std::vector<std::uint8_t> runCounts(std::size_t slot) const;

    /** The task spans of a slot (traced runs only). */
    const TaskSpan* taskSpans(std::size_t slot) const
    {
        return &spans_[slot * static_cast<std::size_t>(tasks_)];
    }

    /** Slots opened so far. */
    std::size_t size() const { return used_.load(); }

    /** Slots of @p node in builder-call order (== job id order). */
    const std::vector<std::size_t>& order(int node) const
    {
        return order_[static_cast<std::size_t>(node)];
    }

  private:
    std::size_t capacity_;
    int tasks_;
    bool traced_;
    std::atomic<std::size_t> used_{0};
    std::vector<Invocation> invocations_;
    std::unique_ptr<std::atomic<std::uint8_t>[]> runs_;
    std::vector<TaskSpan> spans_;
    std::vector<std::vector<std::size_t>> order_;
};

} // namespace perfbench

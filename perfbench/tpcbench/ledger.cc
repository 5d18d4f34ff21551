#include "tpcbench/ledger.h"

#include "util/logging.h"

namespace perfbench {

Ledger::Ledger(std::size_t capacity, int tasks, int nodes, bool traced)
    : capacity_(capacity), tasks_(tasks), traced_(traced),
      invocations_(capacity),
      runs_(new std::atomic<std::uint8_t>[capacity *
                                          static_cast<std::size_t>(tasks)]),
      order_(static_cast<std::size_t>(nodes))
{
    TPC_CHECK(tasks >= 1 && nodes >= 1);
    for (std::size_t i = 0; i < capacity * static_cast<std::size_t>(tasks);
         ++i)
        runs_[i].store(0, std::memory_order_relaxed);
    if (traced)
        spans_.resize(capacity * static_cast<std::size_t>(tasks));
    for (auto& order : order_)
        order.reserve(capacity);
}

std::size_t
Ledger::open(std::uint64_t seq, std::uint32_t item, int node)
{
    const std::size_t slot = used_.fetch_add(1);
    TPC_CHECK_MSG(slot < capacity_, "benchmark ledger is full");
    Invocation& inv = invocations_[slot];
    inv.seq = seq;
    inv.item = item;
    inv.node = node;
    order_[static_cast<std::size_t>(node)].push_back(slot);
    return slot;
}

void
Ledger::taskRan(std::size_t slot, int task, double startMs, double endMs)
{
    const std::size_t i = slot * static_cast<std::size_t>(tasks_) +
                          static_cast<std::size_t>(task);
    runs_[i].fetch_add(1, std::memory_order_relaxed);
    if (traced_)
        spans_[i] = TaskSpan{startMs, endMs};
}

std::uint64_t
Ledger::runsOf(std::size_t slot) const
{
    std::uint64_t total = 0;
    for (int t = 0; t < tasks_; ++t)
        total += runs_[slot * static_cast<std::size_t>(tasks_) +
                       static_cast<std::size_t>(t)]
                     .load(std::memory_order_relaxed);
    return total;
}

std::vector<std::uint8_t>
Ledger::runCounts(std::size_t slot) const
{
    std::vector<std::uint8_t> counts(static_cast<std::size_t>(tasks_));
    for (int t = 0; t < tasks_; ++t)
        counts[static_cast<std::size_t>(t)] =
            runs_[slot * static_cast<std::size_t>(tasks_) +
                  static_cast<std::size_t>(t)]
                .load(std::memory_order_relaxed);
    return counts;
}

} // namespace perfbench

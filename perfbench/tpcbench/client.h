/**
 * @file
 * The benchmark's load generator: one thread, an open-loop schedule, and
 * at most a handful of persistent connections.
 *
 * Every request has a scheduled send time; the client sends it when that
 * time comes whether or not earlier requests were answered (users arrive
 * independently), so a stalled server is charged for the wait it imposes
 * on later requests. Sends are timed with an absolute timerfd deadline, so
 * they leave within tens of microseconds of schedule instead of the 1 ms
 * granularity of a poll timeout; each request records how late it left.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"

namespace perfbench {

/** One request of a schedule. */
struct ScheduledRequest
{
    /** Client-assigned id; a schedule's seqs are consecutive. */
    std::uint64_t seq = 0;
    /** Workload item (trace query / trace entry) the request asks for. */
    std::uint32_t item = 0;
    /** nowMs() at which the request is due. */
    double scheduledMs = 0.0;
};

/** What the client saw for one request. */
struct ClientReply
{
    /** nowMs() just before the request's bytes were written; < 0 if the
     *  request was never sent. */
    double sentMs = -1.0;
    /** nowMs() when the reply was read; < 0 if never answered. */
    double recvMs = -1.0;
    tpc::net::Frame frame;

    bool answered() const { return recvMs >= 0.0; }
};

/** Request payload: the seq and the item, little-endian u64 each. */
std::vector<std::uint8_t> encodeRequestPayload(std::uint64_t seq,
                                               std::uint32_t item);

/** Parses encodeRequestPayload's layout; false on a short payload. */
bool decodeRequestPayload(const std::vector<std::uint8_t>& payload,
                          std::uint64_t* seq, std::uint32_t* item);

/** Single-threaded open-loop client over persistent TCP connections. */
class OpenLoopClient
{
  public:
    /**
     * Connects @p connections sockets to 127.0.0.1:@p port (fatal when a
     * connection fails). Requests carry a sampled trace context derived
     * from @p traceSeed and their seq, like the repo's loadgen sends.
     */
    OpenLoopClient(std::uint16_t port, int connections,
                   std::uint64_t traceSeed);
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient&) = delete;
    OpenLoopClient& operator=(const OpenLoopClient&) = delete;

    /**
     * Sends @p schedule on time and reads replies until every request
     * was answered or @p drainMs passed after the last send. @p replies
     * is resized to the schedule; replies[i] belongs to schedule[i].
     * Returns the number answered.
     */
    std::size_t run(const std::vector<ScheduledRequest>& schedule,
                    std::vector<ClientReply>& replies, double drainMs);

  private:
    struct Connection
    {
        tpc::net::FdGuard fd;
        tpc::net::FrameReader reader;
        std::vector<std::uint8_t> out;
        std::size_t outOffset = 0;
        bool wantWrite = false;
    };

    void send(Connection& conn, const ScheduledRequest& request,
              ClientReply& reply);
    /** Writes buffered bytes; false on a hard socket error. */
    bool flush(Connection& conn);
    void armTimer(double atMs);

    std::uint64_t traceSeed_;
    std::vector<Connection> conns_;
    tpc::net::FdGuard timerFd_;
    tpc::net::Poller poller_;
};

} // namespace perfbench

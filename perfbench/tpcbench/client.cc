#include "tpcbench/client.h"

#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/span.h"
#include "tpcbench/stats.h"
#include "util/logging.h"

namespace perfbench {

using tpc::net::IoStatus;

std::vector<std::uint8_t>
encodeRequestPayload(std::uint64_t seq, std::uint32_t item)
{
    std::vector<std::uint8_t> payload;
    tpc::net::appendU64(payload, seq);
    tpc::net::appendU64(payload, item);
    return payload;
}

bool
decodeRequestPayload(const std::vector<std::uint8_t>& payload,
                     std::uint64_t* seq, std::uint32_t* item)
{
    std::uint64_t raw = 0;
    if (!tpc::net::readU64(payload, 0, seq) ||
        !tpc::net::readU64(payload, 8, &raw))
        return false;
    *item = static_cast<std::uint32_t>(raw);
    return true;
}

OpenLoopClient::OpenLoopClient(std::uint16_t port, int connections,
                               std::uint64_t traceSeed)
    : traceSeed_(traceSeed)
{
    TPC_CHECK(connections >= 1);
    // Wake from the send timer within microseconds, not the default
    // 50 µs timer slack (a per-thread setting of this process only).
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    // Wake the client thread ahead of the serving stack's threads when a
    // send comes due (real-time FIFO priority for this thread only; it
    // blocks between sends, so it never starves the server). Under the
    // default scheduler a loaded host delays ~1% of wake-ups by 1-2 ms,
    // which would be charged to the server as send lateness.
    sched_param param{};
    param.sched_priority = 10;
    if (sched_setscheduler(0, SCHED_FIFO, &param) != 0)
        std::fprintf(stderr, "warning: client keeps default scheduling: %s\n",
                     std::strerror(errno));
    timerFd_.reset(timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK));
    TPC_CHECK(timerFd_.valid());
    poller_.add(timerFd_.fd(), tpc::net::kPollIn);

    conns_.resize(static_cast<std::size_t>(connections));
    for (Connection& conn : conns_) {
        std::string error;
        conn.fd.reset(tpc::net::connectTcp("127.0.0.1", port, &error));
        TPC_CHECK_MSG(conn.fd.valid(), error.c_str());
        tpc::net::Poller connecting;
        connecting.add(conn.fd.fd(), tpc::net::kPollOut);
        std::vector<tpc::net::PollEvent> events;
        TPC_CHECK_MSG(connecting.wait(events, 5000) > 0 &&
                          tpc::net::connectSucceeded(conn.fd.fd()),
                      "benchmark client could not connect");
        connecting.remove(conn.fd.fd());
        poller_.add(conn.fd.fd(), tpc::net::kPollIn);
    }
}

OpenLoopClient::~OpenLoopClient() = default;

void
OpenLoopClient::armTimer(double atMs)
{
    const long long ns =
        epochNs() + static_cast<long long>(std::ceil(atMs * 1e6));
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000LL);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000LL);
    TPC_CHECK(timerfd_settime(timerFd_.fd(), TFD_TIMER_ABSTIME, &spec,
                              nullptr) == 0);
}

bool
OpenLoopClient::flush(Connection& conn)
{
    while (conn.outOffset < conn.out.size()) {
        std::size_t n = 0;
        const IoStatus status = tpc::net::writeSome(
            conn.fd.fd(), conn.out.data() + conn.outOffset,
            conn.out.size() - conn.outOffset, &n);
        if (status == IoStatus::kWouldBlock)
            break;
        if (status != IoStatus::kOk)
            return false;
        conn.outOffset += n;
    }
    if (conn.outOffset == conn.out.size()) {
        conn.out.clear();
        conn.outOffset = 0;
    }
    const bool wantWrite = !conn.out.empty();
    if (wantWrite != conn.wantWrite) {
        poller_.modify(conn.fd.fd(),
                       tpc::net::kPollIn |
                           (wantWrite ? tpc::net::kPollOut : 0u));
        conn.wantWrite = wantWrite;
    }
    return true;
}

void
OpenLoopClient::send(Connection& conn, const ScheduledRequest& request,
                     ClientReply& reply)
{
    tpc::net::Frame frame;
    frame.type = tpc::net::FrameType::kRequest;
    frame.requestId = request.seq;
    frame.traceId = tpc::obs::deriveTraceId(traceSeed_, request.seq);
    frame.traceFlags = tpc::net::kTraceFlagSampled;
    frame.payload = encodeRequestPayload(request.seq, request.item);
    tpc::net::encodeFrame(frame, conn.out);
    reply.sentMs = nowMs();
    TPC_CHECK_MSG(flush(conn), "benchmark client lost its connection");
}

std::size_t
OpenLoopClient::run(const std::vector<ScheduledRequest>& schedule,
                    std::vector<ClientReply>& replies, double drainMs)
{
    replies.assign(schedule.size(), ClientReply{});
    if (schedule.empty())
        return 0;
    const std::uint64_t base = schedule.front().seq;
    std::size_t next = 0;
    std::size_t answered = 0;
    double lastSendMs = 0.0;
    std::vector<tpc::net::PollEvent> events;
    std::uint8_t buffer[64 * 1024];

    while (answered < schedule.size()) {
        double now = nowMs();
        while (next < schedule.size() && schedule[next].scheduledMs <= now) {
            send(conns_[next % conns_.size()], schedule[next],
                 replies[next]);
            lastSendMs = replies[next].sentMs;
            ++next;
            now = nowMs();
        }
        int timeoutMs = -1;
        if (next < schedule.size()) {
            armTimer(schedule[next].scheduledMs);
        } else {
            const double left = lastSendMs + drainMs - now;
            if (left <= 0.0)
                break;
            timeoutMs = static_cast<int>(std::ceil(left));
        }
        poller_.wait(events, timeoutMs);
        const double readMs = nowMs();
        for (const tpc::net::PollEvent& ev : events) {
            if (ev.fd == timerFd_.fd()) {
                std::uint64_t expirations = 0;
                (void)!::read(timerFd_.fd(), &expirations,
                              sizeof(expirations));
                continue;
            }
            for (Connection& conn : conns_) {
                if (conn.fd.fd() != ev.fd)
                    continue;
                if (ev.events & tpc::net::kPollOut)
                    TPC_CHECK_MSG(flush(conn),
                                  "benchmark client lost its connection");
                if (!(ev.events & (tpc::net::kPollIn | tpc::net::kPollErr)))
                    break;
                while (true) {
                    std::size_t n = 0;
                    const IoStatus status = tpc::net::readSome(
                        conn.fd.fd(), buffer, sizeof(buffer), &n);
                    if (status == IoStatus::kWouldBlock)
                        break;
                    TPC_CHECK_MSG(status == IoStatus::kOk,
                                  "benchmark client lost its connection");
                    conn.reader.append(buffer, n);
                }
                tpc::net::Frame frame;
                while (conn.reader.next(&frame)) {
                    const std::uint64_t idx = frame.requestId - base;
                    TPC_CHECK_MSG(idx < next && !replies[idx].answered(),
                                  "reply to a request not outstanding");
                    replies[idx].recvMs = readMs;
                    replies[idx].frame = std::move(frame);
                    ++answered;
                }
                TPC_CHECK_MSG(!conn.reader.broken(),
                              "benchmark client read a malformed frame");
                break;
            }
        }
    }
    return answered;
}

} // namespace perfbench

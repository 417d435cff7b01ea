/**
 * @file
 * One timer thread for every request deadline in a server.
 *
 * arm() registers a (deadline, CancelToken) pair on a min-heap; the timer
 * thread sleeps until the earliest deadline and raises expired tokens.
 * Raising is the whole job — the same cooperative-cancellation machinery
 * the watchdog uses (parallel primitives and worklists polling the
 * thread's token) unwinds the kernel, and the serve worker classifies the
 * resulting CancelledError as DEADLINE_EXCEEDED.
 *
 * There is deliberately no disarm: tokens are heap-owned (shared_ptr), so
 * raising one after its request already completed is a harmless store to
 * an atomic nobody reads.  This keeps arm() O(log n) and lock-light on
 * the submit path.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "gm/support/watchdog.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve
{

/** Shared deadline timer; arm() is thread-safe. */
class DeadlineScheduler
{
  public:
    /** Registers gm_serve_deadline_armed (heap occupancy) and
     *  gm_serve_deadline_fired_total in @p registry (a Server passes its
     *  own).  A timer "fires" when its deadline passes, whether or not
     *  the request is still running. */
    explicit DeadlineScheduler(
        telemetry::Registry& registry = telemetry::Registry::global());
    ~DeadlineScheduler();

    DeadlineScheduler(const DeadlineScheduler&) = delete;
    DeadlineScheduler& operator=(const DeadlineScheduler&) = delete;

    /** Raise @p token once Timer::now_ns() reaches @p deadline_ns. */
    void arm(std::int64_t deadline_ns,
             std::shared_ptr<support::CancelToken> token);

  private:
    struct Armed
    {
        std::int64_t deadline_ns = 0;
        std::shared_ptr<support::CancelToken> token;
        bool
        operator>(const Armed& other) const
        {
            return deadline_ns > other.deadline_ns;
        }
    };

    void loop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::priority_queue<Armed, std::vector<Armed>, std::greater<Armed>>
        heap_;
    bool stop_ = false;
    telemetry::Gauge& armed_;
    telemetry::Counter& fired_;
    std::thread thread_; ///< last: starts after every other member
};

} // namespace gm::serve

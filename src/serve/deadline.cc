#include "gm/serve/deadline.hh"

#include <chrono>

#include "gm/support/timer.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve
{

DeadlineScheduler::DeadlineScheduler(telemetry::Registry& registry)
    : armed_(registry.gauge("gm_serve_deadline_armed")),
      fired_(registry.counter("gm_serve_deadline_fired_total")),
      thread_([this] { loop(); })
{
}

DeadlineScheduler::~DeadlineScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // Timers still armed at teardown (requests that finished before
    // their deadline) leave the gauge; zero it out.
    armed_.add(-static_cast<double>(heap_.size()));
}

void
DeadlineScheduler::arm(std::int64_t deadline_ns,
                       std::shared_ptr<support::CancelToken> token)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        heap_.push(Armed{deadline_ns, std::move(token)});
        armed_.add(1);
    }
    cv_.notify_all();
}

void
DeadlineScheduler::loop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        if (heap_.empty()) {
            cv_.wait(lock);
            continue;
        }
        const std::int64_t next = heap_.top().deadline_ns;
        const std::int64_t now = Timer::now_ns();
        if (now < next) {
            // Woken early by arm() (a sooner deadline may now lead the
            // heap) or by shutdown; re-evaluate either way.
            cv_.wait_for(lock, std::chrono::nanoseconds(next - now));
            continue;
        }
        while (!heap_.empty() &&
               heap_.top().deadline_ns <= Timer::now_ns()) {
            heap_.top().token->request();
            heap_.pop();
            armed_.add(-1);
            fired_.inc();
        }
    }
}

} // namespace gm::serve

#include "gm/serve/breaker.hh"

#include "gm/support/log.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve
{

namespace
{

double
state_number(CircuitBreaker::State state)
{
    switch (state) {
      case CircuitBreaker::State::kClosed:
        return 0;
      case CircuitBreaker::State::kOpen:
        return 1;
      case CircuitBreaker::State::kHalfOpen:
        return 2;
    }
    return 0;
}

} // namespace

/** Telemetry for breaker state machines.  Transition counters are keyed
 *  by destination state; per-cell gauges encode the state as a number
 *  (0 = closed, 1 = open, 2 = half_open) and resolve lazily (transitions
 *  are rare and already hold the breaker mutex); open_cells counts cells
 *  not currently closed. */
struct CircuitBreaker::Telemetry
{
    telemetry::Registry& registry;
    telemetry::Counter& to_open;
    telemetry::Counter& to_half_open;
    telemetry::Counter& to_closed;
    telemetry::Gauge& open_cells;

    explicit Telemetry(telemetry::Registry& reg)
        : registry(reg),
          to_open(reg.counter(telemetry::labeled(
              "gm_serve_breaker_transitions_total", {{"to", "open"}}))),
          to_half_open(reg.counter(telemetry::labeled(
              "gm_serve_breaker_transitions_total", {{"to", "half_open"}}))),
          to_closed(reg.counter(telemetry::labeled(
              "gm_serve_breaker_transitions_total", {{"to", "closed"}}))),
          open_cells(reg.gauge("gm_serve_breaker_open_cells"))
    {
    }
};

CircuitBreaker::CircuitBreaker(BreakerOptions options,
                               support::Clock* clock,
                               telemetry::Registry& registry)
    : options_(options),
      clock_(clock != nullptr ? clock : support::Clock::system()),
      tm_(std::make_unique<Telemetry>(registry))
{
    GM_ASSERT(options_.failure_threshold >= 1,
              "breaker needs failure_threshold >= 1");
    GM_ASSERT(options_.window_ns > 0, "breaker needs a positive window");
    GM_ASSERT(options_.cooldown_ns > 0,
              "breaker needs a positive cooldown");
    GM_ASSERT(options_.half_open_probes >= 1,
              "breaker needs >= 1 half-open probe");
    GM_ASSERT(options_.close_successes >= 1,
              "breaker needs close_successes >= 1");
}

CircuitBreaker::~CircuitBreaker() = default;

const char*
CircuitBreaker::to_string(State state)
{
    switch (state) {
      case State::kClosed:
        return "closed";
      case State::kOpen:
        return "open";
      case State::kHalfOpen:
        return "half_open";
    }
    return "?";
}

CircuitBreaker::Cell&
CircuitBreaker::cell_for(const std::string& name)
{
    return cells_[name];
}

void
CircuitBreaker::prune(Cell& cell, std::int64_t now_ns) const
{
    while (!cell.failures_ns.empty() &&
           now_ns - cell.failures_ns.front() >= options_.window_ns)
        cell.failures_ns.pop_front();
}

void
CircuitBreaker::transition(const std::string& name, Cell& cell, State to,
                           std::int64_t now_ns)
{
    if (cell.state == to)
        return;
    transitions_.push_back(
        {name, cell.state, to, now_ns, transition_seq_++});
    Telemetry& bt = *tm_;
    switch (to) {
      case State::kOpen:
        bt.to_open.inc();
        break;
      case State::kHalfOpen:
        bt.to_half_open.inc();
        break;
      case State::kClosed:
        bt.to_closed.inc();
        break;
    }
    if (cell.state == State::kClosed && to != State::kClosed)
        bt.open_cells.add(1);
    else if (cell.state != State::kClosed && to == State::kClosed)
        bt.open_cells.add(-1);
    bt.registry
        .gauge(telemetry::labeled("gm_serve_breaker_state",
                                  {{"cell", name}}))
        .set(state_number(to));
    cell.state = to;
    if (to == State::kOpen) {
        cell.opened_at_ns = now_ns;
        cell.probes_in_flight = 0;
        cell.probe_successes = 0;
    } else if (to == State::kHalfOpen) {
        cell.probes_in_flight = 0;
        cell.probe_successes = 0;
    } else { // closed: a fresh start
        cell.failures_ns.clear();
        cell.probes_in_flight = 0;
        cell.probe_successes = 0;
    }
}

CircuitBreaker::Gate
CircuitBreaker::admit(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    Cell& cell = cell_for(name);
    const std::int64_t now = clock_->now_ns();
    switch (cell.state) {
      case State::kClosed:
        return Gate::kAllow;
      case State::kOpen:
        if (now - cell.opened_at_ns < options_.cooldown_ns)
            return Gate::kReject;
        transition(name, cell, State::kHalfOpen, now);
        [[fallthrough]];
      case State::kHalfOpen:
        if (cell.probes_in_flight >= options_.half_open_probes)
            return Gate::kReject;
        ++cell.probes_in_flight;
        return Gate::kProbe;
    }
    return Gate::kAllow;
}

void
CircuitBreaker::record_success(const std::string& name, bool probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    Cell& cell = cell_for(name);
    const std::int64_t now = clock_->now_ns();
    if (probe && cell.state == State::kHalfOpen) {
        if (cell.probes_in_flight > 0)
            --cell.probes_in_flight;
        if (++cell.probe_successes >= options_.close_successes)
            transition(name, cell, State::kClosed, now);
        return;
    }
    // A non-probe success in a closed breaker ages the window naturally;
    // nothing to record.
    prune(cell, now);
}

void
CircuitBreaker::record_failure(const std::string& name, bool probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    Cell& cell = cell_for(name);
    const std::int64_t now = clock_->now_ns();
    if (probe && cell.state == State::kHalfOpen) {
        // The cell is still sick: back to open, cooldown restarts.
        transition(name, cell, State::kOpen, now);
        return;
    }
    cell.failures_ns.push_back(now);
    prune(cell, now);
    if (cell.state == State::kClosed &&
        static_cast<int>(cell.failures_ns.size()) >=
            options_.failure_threshold)
        transition(name, cell, State::kOpen, now);
}

void
CircuitBreaker::release(const std::string& name, bool probe)
{
    if (!probe)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    Cell& cell = cell_for(name);
    if (cell.state == State::kHalfOpen && cell.probes_in_flight > 0)
        --cell.probes_in_flight;
}

CircuitBreaker::State
CircuitBreaker::state(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cells_.find(name);
    return it == cells_.end() ? State::kClosed : it->second.state;
}

std::size_t
CircuitBreaker::open_cells() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t open = 0;
    for (const auto& [name, cell] : cells_)
        if (cell.state != State::kClosed)
            ++open;
    return open;
}

std::vector<CircuitBreaker::Transition>
CircuitBreaker::drain_transitions()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Transition> out;
    out.swap(transitions_);
    return out;
}

std::uint64_t
CircuitBreaker::transition_count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return transition_seq_;
}

} // namespace gm::serve

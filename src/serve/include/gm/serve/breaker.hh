/**
 * @file
 * Per-cell circuit breakers for gm::serve.
 *
 * A "cell" is (framework, kernel, graph) — the unit that fails together:
 * a kernel bug, a poisoned graph artifact, or an injected fault storm
 * takes out a cell, not the whole server.  Each cell runs the classic
 * three-state machine:
 *
 *     closed ──(>= failure_threshold failures within window_ns)──> open
 *     open ──(cooldown_ns elapsed)──> half-open
 *     half-open ──(close_successes consecutive probe successes)──> closed
 *     half-open ──(any probe failure)──> open          (cooldown restarts)
 *
 * While open, admit() fast-fails (kReject -> UNAVAILABLE at the API)
 * without burning a worker on a cell that keeps failing.  Half-open
 * admits at most `half_open_probes` concurrent probe requests; everything
 * else keeps fast-failing until the probes decide.  Failures are counted
 * in a sliding window of timestamps, so a slow trickle of occasional
 * errors never opens the breaker — only a burst does.
 *
 * Time comes from an injected support::Clock, so tests step the machine
 * deterministically with a ManualClock; the server passes
 * Clock::system().  All methods are thread-safe (one mutex; state per
 * cell is tiny).  Transitions are recorded and drained by the server
 * into its metrics JSONL stream and obs counters.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gm/support/clock.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve
{

/** Breaker tuning; defaults open fast and probe cautiously. */
struct BreakerOptions
{
    /** Failures within window_ns that open a closed breaker. */
    int failure_threshold = 5;
    /** Sliding failure window. */
    std::int64_t window_ns = 10'000'000'000; // 10 s
    /** Open -> half-open after this cooldown. */
    std::int64_t cooldown_ns = 1'000'000'000; // 1 s
    /** Concurrent probe executions allowed while half-open. */
    int half_open_probes = 1;
    /** Consecutive probe successes that close a half-open breaker. */
    int close_successes = 2;
};

/** Registry of per-cell breaker state machines. */
class CircuitBreaker
{
  public:
    enum class State { kClosed, kOpen, kHalfOpen };

    /** admit() verdict for one request. */
    enum class Gate
    {
        kAllow,  ///< closed: execute normally
        kProbe,  ///< half-open: execute as a probe (report the outcome
                 ///< with probe=true, or release() if never executed)
        kReject, ///< open (or half-open with all probe slots taken):
                 ///< fast-fail without executing
    };

    /** One recorded state change, in transition order. */
    struct Transition
    {
        std::string cell;
        State from = State::kClosed;
        State to = State::kClosed;
        std::int64_t at_ns = 0;
        std::uint64_t seq = 0; ///< global transition sequence number
    };

    /** The gm_serve_breaker_* series are registered in @p registry (a
     *  Server passes its own). */
    explicit CircuitBreaker(
        BreakerOptions options, support::Clock* clock = nullptr,
        telemetry::Registry& registry = telemetry::Registry::global());
    ~CircuitBreaker();

    /** Gate one request for @p cell (advances open -> half-open). */
    Gate admit(const std::string& cell);

    /** Record an execution outcome.  @p probe mirrors what admit()
     *  returned for this request. */
    void record_success(const std::string& cell, bool probe);
    void record_failure(const std::string& cell, bool probe);

    /** Release a probe slot whose request never executed (cancelled or
     *  expired in the queue); state is otherwise unchanged. */
    void release(const std::string& cell, bool probe);

    State state(const std::string& cell) const;

    /** Cells currently not closed (open or half-open). */
    std::size_t open_cells() const;

    /** Transitions recorded since the last drain, oldest first. */
    std::vector<Transition> drain_transitions();

    /** Total transitions ever recorded (drained or not). */
    std::uint64_t transition_count() const;

    static const char* to_string(State state);

  private:
    struct Cell
    {
        State state = State::kClosed;
        std::deque<std::int64_t> failures_ns; ///< sliding window
        std::int64_t opened_at_ns = 0;
        int probes_in_flight = 0;
        int probe_successes = 0;
    };

    /** Callers hold mu_. */
    Cell& cell_for(const std::string& name);
    void transition(const std::string& name, Cell& cell, State to,
                    std::int64_t now_ns);
    void prune(Cell& cell, std::int64_t now_ns) const;

    /** Registry handles for the gm_serve_breaker_* series (breaker.cc). */
    struct Telemetry;

    BreakerOptions options_;
    support::Clock* clock_;
    const std::unique_ptr<Telemetry> tm_;

    mutable std::mutex mu_;
    std::unordered_map<std::string, Cell> cells_;
    std::vector<Transition> transitions_;
    std::uint64_t transition_seq_ = 0;
};

} // namespace gm::serve

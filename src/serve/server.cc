#include "gm/serve/server.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "gm/obs/metrics.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/hash.hh"
#include "gm/support/json.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"
#include "gm/telemetry/exposition.hh"
#include "gm/telemetry/registry.hh"
#include "serve_internal.hh"

namespace gm::serve
{

using support::Status;
using support::StatusCode;
using support::StatusOr;

using detail::RequestState;

namespace
{

using detail::find_dataset;
using detail::find_framework;

bool
kernel_uses_source(harness::Kernel kernel)
{
    return kernel == harness::Kernel::kBFS ||
           kernel == harness::Kernel::kSSSP ||
           kernel == harness::Kernel::kBC;
}

/**
 * Cache identity of a request: the cell coordinates with the graph pinned
 * by stable store identity (two suites at different scales never
 * collide), plus every parameter that changes the answer.  Sourceless
 * kernels normalize source to 0 so "PR from 3" and "PR from 7" dedupe.
 * Identity, not fingerprint: mutations install fresh CSR generations
 * without changing the key — the cache's generation tag decides whether
 * an entry under the key is still fresh.
 */
std::string
make_cache_key(const Request& req, const harness::Framework& fw,
               const harness::Dataset& ds)
{
    const vid_t source = kernel_uses_source(req.kernel) ? req.source : 0;
    std::string key;
    key.reserve(64 + req.graph.size());
    const auto number = [&key](auto value, int base) {
        char digits[24];
        key.append(digits,
                   std::to_chars(digits, digits + sizeof digits, value, base)
                       .ptr);
    };
    key += harness::to_string(req.mode);
    key += '/';
    key += fw.name;
    key += '/';
    key += harness::to_string(req.kernel);
    key += '/';
    key += req.graph;
    key += '@';
    number(ds.store()->identity(), 16);
    key += "/d";
    number(ds.delta, 10);
    key += "/s";
    number(source, 10);
    return key;
}

/** Breaker identity: the unit that fails together.  Source and mode are
 *  deliberately excluded — a sick kernel is sick from every source. */
std::string
make_cell_key(const Request& req, const harness::Framework& fw)
{
    return fw.name + "/" + std::string(harness::to_string(req.kernel)) +
           "/" + req.graph;
}

/** Run the kernel for @p state on @p ds, on the calling thread. */
ResultValue
execute_kernel(const RequestState& state, const harness::Dataset& ds)
{
    const harness::Framework& fw = *state.fw;
    const Request& req = state.req;
    switch (req.kernel) {
      case harness::Kernel::kBFS:
        return fw.bfs(ds, req.source, req.mode);
      case harness::Kernel::kSSSP:
        return fw.sssp(ds, req.source, req.mode);
      case harness::Kernel::kCC:
        return fw.cc(ds, req.mode);
      case harness::Kernel::kPR:
        return fw.pr(ds, req.mode);
      case harness::Kernel::kBC:
        return fw.bc(ds, std::vector<vid_t>{req.source}, req.mode);
      case harness::Kernel::kTC:
        return fw.tc(ds, req.mode);
    }
    throw support::Error(StatusCode::kInvalidInput, "unknown kernel");
}

/** Open a request's bound trace session: its queue-wait span and its
 *  trace id, so the spans and the JSONL record carry the same identity. */
void
stamp_request_session(const RequestState& state, std::int64_t dequeue_ns)
{
    obs::record_span("serve.queue_wait", state.submit_ns, dequeue_ns);
    obs::counter_max("serve.trace", state.req.trace_id);
}

int
priority_class(Priority priority)
{
    return static_cast<int>(priority);
}

AdmissionOptions
make_admission_options(const ServerOptions& options)
{
    AdmissionOptions out;
    out.total_capacity = options.queue_capacity;
    out.workers = options.workers;
    const bool derive =
        options.class_capacity[0] == 0 && options.class_capacity[1] == 0 &&
        options.class_capacity[2] == 0;
    if (derive) {
        out.class_capacity = {
            options.queue_capacity,
            std::max<std::size_t>(1, options.queue_capacity / 2),
            std::max<std::size_t>(1, options.queue_capacity / 4)};
    } else {
        for (int i = 0; i < kPriorityClasses; ++i)
            out.class_capacity[static_cast<std::size_t>(i)] = std::max<
                std::size_t>(
                1, options.class_capacity[static_cast<std::size_t>(i)]);
    }
    return out;
}

} // namespace

std::size_t
result_bytes(const ResultValue& value)
{
    return plan::value_bytes(value);
}

std::uint64_t
result_fingerprint(const ResultValue& value)
{
    return plan::value_fingerprint(value);
}

Server::Server(harness::DatasetSuite suite,
               std::vector<harness::Framework> frameworks,
               ServerOptions options)
    : suite_(std::move(suite)),
      frameworks_(std::move(frameworks)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : support::Clock::system()),
      tm_(std::make_unique<detail::ServeTelemetry>(registry_)),
      cache_(options.cache_capacity_bytes,
             options.cache_ttl_ms * 1'000'000, clock_, registry_),
      breaker_(options.breaker, clock_, registry_),
      retry_budget_(options.retry_budget_ratio, options.retry_budget_cap),
      deadlines_(registry_),
      admission_(make_admission_options(options)),
      slo_(options.slo)
{
    GM_ASSERT(options_.workers >= 1, "server needs at least one worker");
    GM_ASSERT(options_.queue_capacity >= 1,
              "server needs a non-empty admission queue");
    registry_.enable();
    retry_budget_.attach_gauge(tm_->retry_tokens);
    // A random per-server base decorrelates trace ids across servers in
    // one process; the sequence keeps them unique within a server.
    trace_base_ =
        SplitMix64(static_cast<std::uint64_t>(Timer::now_ns()) ^
                   (reinterpret_cast<std::uintptr_t>(this) << 16))
            .next();
    if (options_.metrics_port >= 0) {
        listener_ = std::make_unique<telemetry::MetricsListener>(
            options_.metrics_port,
            [this] { return telemetry::render_text(registry_.snapshot()); });
        if (!listener_->status().is_ok()) {
            log_warn("serve: metrics listener failed: " +
                              listener_->status().message());
            listener_.reset();
        }
    }
    // Default budget: at least one lane per worker, so width-1 traffic
    // keeps the full workers-way request concurrency the pool provides
    // (as before this scheduler existed), and at least the ThreadPool
    // size so one wide request can use every core.
    lane_budget_ =
        options_.lane_budget >= 1
            ? options_.lane_budget
            : std::max(options_.workers,
                       par::ThreadPool::instance().num_threads());
    lane_gate_ = std::make_shared<detail::LaneGate>();
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
    if (!options_.telemetry_path.empty())
        flusher_ = std::thread([this] { telemetry_flush_loop(); });
}

Server::~Server() { shutdown(); }

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (shutdown_)
            return;
        shutdown_ = true;
    }
    queue_cv_.notify_all();
    // Wake any leader blocked on the lane budget so it re-checks its
    // cancel/deadline state promptly.  Draining leaders that are still
    // live keep waiting — budget holders always finish, so the wait
    // terminates and the queue drains as documented.
    lane_gate_->cv.notify_all();
    for (auto& worker : workers_)
        worker.join();
    workers_.clear();
    // Plans drain like queries: drivers and their node threads always
    // finish (lane waits terminate because budget holders finish), so
    // joining them here completes every accepted plan before the
    // telemetry machinery below shuts down.
    reap_plan_runners(/*all=*/true);
    flush_breaker_transitions();
    {
        std::lock_guard<std::mutex> lock(flusher_mu_);
        flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    if (flusher_.joinable())
        flusher_.join();
    if (!options_.telemetry_path.empty()) {
        // Final snapshot so the stream's last line reflects shutdown
        // state even with a long flush interval.
        write_telemetry_snapshot();
        evaluate_slo(Timer::now_ns());
    }
    if (listener_ != nullptr)
        listener_->stop();
}

StatusOr<Server::Handle>
Server::submit(Request request)
{
    const harness::Framework* fw =
        find_framework(frameworks_, request.framework);
    if (fw == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown framework: " + request.framework);

    std::shared_ptr<const harness::Dataset> ds =
        find_dataset(suite_, request.graph);
    if (ds == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown graph: " + request.graph);

    // The generation current at submit: the bound for the source and
    // the generation a fresh inline hit must match.
    const std::shared_ptr<const store::Generation> generation =
        ds->store()->current();
    if (kernel_uses_source(request.kernel) &&
        (request.source < 0 ||
         request.source >= generation->base().num_vertices()))
        return Status(StatusCode::kInvalidInput,
                      "source " + std::to_string(request.source) +
                          " out of range for graph " + request.graph);

    auto state = std::make_shared<RequestState>();
    state->req = std::move(request);
    // Trace identity: minted here for bare submits; query() mints once
    // per logical request and reuses it across retries.
    if (state->req.trace_id == 0)
        state->req.trace_id = mint_trace_id();
    if (state->req.attempt <= 0)
        state->req.attempt = 1;
    // Width changes latency, never the answer (kernels are
    // order-deterministic), so it is clamped rather than validated and
    // stays out of the cache key.
    state->req.width = std::clamp(state->req.width, 1, lane_budget_);
    state->fw = fw;
    state->ds = ds;
    state->cache_key = make_cache_key(state->req, *fw, *ds);
    state->cell_key = make_cell_key(state->req, *fw);
    state->gate = lane_gate_;
    state->submit_ns = Timer::now_ns();
    if (state->req.deadline_ms > 0)
        state->deadline_ns =
            state->submit_ns +
            static_cast<std::int64_t>(state->req.deadline_ms) * 1'000'000;

    // Completes the request on this thread with a cached answer.
    const auto answered = [&](QueryResult result) {
        tm_->submitted->inc();
        complete(state, Status::ok(), std::move(result));
        return Handle(state);
    };

    // Serves a refused allow_stale request from the cache, or refuses
    // it for real.  Returns the already-completed handle or the refusal
    // status.
    const auto refuse = [&](Status status) -> StatusOr<Handle> {
        QueryResult result;
        if (state->req.allow_stale && try_cache_fallback(*state, result)) {
            write_refusal_record(*state, status, /*served_degraded=*/true);
            return answered(std::move(result));
        }
        if (status.code() == StatusCode::kUnavailable)
            tm_->unavailable->inc();
        else
            tm_->shed[priority_class(state->req.priority)]->inc();
        write_refusal_record(*state, status, /*served_degraded=*/false);
        // A real refusal is an unanswered request from the SLO's point
        // of view; degraded serves are scored in complete().
        observe_slo(/*answered=*/false, /*fresh=*/false, /*latency_ns=*/0);
        return status;
    };

    // Chaos site: an injected admission fault sheds the request exactly
    // as a full queue would (degraded fallback applies); a delay fault
    // slows the submit path.
    try {
        support::FaultInjector::global().at("serve.admission");
    } catch (const support::FaultInjectedError&) {
        return refuse(Status(StatusCode::kResourceExhausted,
                             "injected fault at serve.admission"));
    }

    // A fresh cache entry at the store's current generation answers the
    // request here, on the caller's thread: it takes no queue slot,
    // worker, lane, or breaker probe.  Misses, stale entries, and
    // followers of an in-flight leader go through admission below.
    if (!shutdown_) {
        const ResultCache::Cached hit =
            cache_.lookup_fresh(state->cache_key, generation->id());
        if (hit.value != nullptr)
            return answered(answer_hit_inline(*state, hit));
    }

    // Circuit breaker: fast-fail a sick cell instead of queueing into
    // it; half-open grants pass through as probes.
    if (options_.enable_breaker) {
        switch (breaker_.admit(state->cell_key)) {
          case CircuitBreaker::Gate::kAllow:
            break;
          case CircuitBreaker::Gate::kProbe:
            state->probe = true;
            break;
          case CircuitBreaker::Gate::kReject:
            return refuse(
                Status(StatusCode::kUnavailable,
                       "circuit breaker open for cell " + state->cell_key));
        }
    }

    AdmissionController::Decision decision;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (shutdown_) {
            breaker_.release(state->cell_key, state->probe);
            return Status(StatusCode::kResourceExhausted,
                          "server is shut down");
        }
        AdmissionController::Ticket ticket;
        ticket.priority = state->req.priority;
        ticket.deadline_ns = state->deadline_ns;
        ticket.payload = state;
        decision = admission_.try_admit(std::move(ticket),
                                        state->submit_ns);
        if (decision == AdmissionController::Decision::kAdmitted) {
            // Counted while still holding queue_mu_: stats_snapshot()
            // reads the queue depth under this lock before it reads
            // submitted, so it never sees the push without the count.
            const int cls = priority_class(state->req.priority);
            tm_->submitted->inc();
            tm_->accepted[cls]->inc();
            tm_->queue_depth[cls]->add(1);
        }
    }
    if (decision != AdmissionController::Decision::kAdmitted) {
        breaker_.release(state->cell_key, state->probe);
        state->probe = false;
        std::string reason;
        switch (decision) {
          case AdmissionController::Decision::kQueueFull:
            reason = "admission queue full (capacity " +
                     std::to_string(options_.queue_capacity) + ")";
            break;
          case AdmissionController::Decision::kClassFull:
            reason = std::string("admission quota for class '") +
                     to_string(state->req.priority) + "' is full";
            break;
          default:
            reason = "deadline of " +
                     std::to_string(state->req.deadline_ms) +
                     " ms is infeasible at the current queue drain rate";
            break;
        }
        if (decision == AdmissionController::Decision::kDeadlineInfeasible)
            tm_->infeasible->inc();
        return refuse(Status(StatusCode::kResourceExhausted, reason));
    }

    queue_cv_.notify_one();
    if (state->deadline_ns != 0)
        deadlines_.arm(state->deadline_ns, state->token);
    return Handle(state);
}

StatusOr<QueryResult>
Server::query(const Request& request)
{
    return query(request, options_.retry);
}

StatusOr<QueryResult>
Server::query(const Request& request, const RetryPolicy& policy)
{
    retry_budget_.deposit();
    // One trace id per logical query: every attempt (including refused
    // ones) stamps the same id into its JSONL records, with `attempt`
    // disambiguating them.
    Request attempt_req = request;
    if (attempt_req.trace_id == 0)
        attempt_req.trace_id = mint_trace_id();
    int attempt = 1;
    for (;;) {
        Status status;
        attempt_req.attempt = attempt;
        auto handle = submit(attempt_req);
        if (handle.is_ok()) {
            auto result = std::move(handle).value().wait();
            if (result.is_ok())
                return result;
            status = result.status();
        } else {
            status = handle.status();
        }
        if (attempt >= policy.max_attempts ||
            !retryable_status(status.code()))
            return status;
        if (!retry_budget_.withdraw()) {
            tm_->retry_denied->inc();
            return status;
        }
        ++attempt;
        tm_->retries->inc();
        const std::int64_t ms = backoff_ms(policy, attempt);
        if (ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
}

StatusOr<MutationOutcome>
Server::mutate(const std::string& graph, const dyn::MutationBatch& batch)
{
    std::shared_ptr<const harness::Dataset> ds = find_dataset(suite_, graph);
    if (ds == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown graph: " + graph);
    if (shutdown_)
        return Status(StatusCode::kResourceExhausted, "server is shut down");

    const std::int64_t begin_ns = Timer::now_ns();
    MutationOutcome outcome;
    outcome.requested = batch.size();
    std::uint64_t generation_peak = 0;
    {
        std::lock_guard<std::mutex> lock(dyn_mu_);
        // The merge reads only the pinned generation; no reader sees its
        // result until the install.
        const std::shared_ptr<const store::Generation> base =
            ds->store()->current();
        auto merged_or = dyn::merge(base->base(), batch);
        if (!merged_or.is_ok())
            return merged_or.status();
        dyn::Merged merged = std::move(merged_or).value();
        const dyn::BatchEffect& effect = merged.effect;
        outcome.inserted_arcs = effect.inserted_arcs;
        outcome.deleted_arcs = effect.deleted_arcs;
        outcome.dirty = effect.dirty.size();
        outcome.dirty_fraction =
            effect.dirty_fraction(base->base().num_vertices());

        // Chaos site: a delay fault stretches the mutation; an error
        // fault fails the call before the install, leaving nothing
        // behind.
        try {
            support::FaultInjector::global().at("serve.mutate");
        } catch (const support::FaultInjectedError&) {
            return Status(StatusCode::kUnavailable,
                          "injected fault at serve.mutate");
        }

        if (merged.csr) {
            // A pointer swap: running readers keep the generation they
            // pinned, and the next pin reads this one.
            outcome.generation = ds->store()->install_generation(
                std::move(*merged.csr));
            outcome.compacted = true;
        } else {
            outcome.generation = base->id();
        }
        dyn_generation_peak_ =
            std::max(dyn_generation_peak_, outcome.generation);
        generation_peak = dyn_generation_peak_;
    }

    const std::int64_t elapsed_ns =
        std::max<std::int64_t>(0, Timer::now_ns() - begin_ns);
    outcome.mutate_seconds = static_cast<double>(elapsed_ns) * 1e-9;
    tm_->dyn_batches->inc();
    tm_->dyn_batch_edges->record(
        static_cast<std::uint64_t>(outcome.requested));
    tm_->dyn_inserted_arcs->inc(
        static_cast<std::uint64_t>(outcome.inserted_arcs));
    tm_->dyn_deleted_arcs->inc(
        static_cast<std::uint64_t>(outcome.deleted_arcs));
    if (outcome.compacted)
        tm_->dyn_compactions->inc();
    tm_->dyn_generation->set(static_cast<double>(generation_peak));
    tm_->dyn_dirty_fraction->set(outcome.dirty_fraction);
    tm_->dyn_mutate_ns->record(static_cast<std::uint64_t>(elapsed_ns));
    write_mutation_record(graph, outcome);
    return outcome;
}

void
Server::worker_loop()
{
    for (;;) {
        std::shared_ptr<RequestState> state;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(
                lock, [this] { return shutdown_ || !admission_.empty(); });
            if (admission_.empty())
                return; // shutdown, queue drained
            state = std::static_pointer_cast<RequestState>(
                admission_.pop());
        }
        tm_->queue_depth[priority_class(state->req.priority)]->add(-1);
        process(state);
    }
}

Status
Server::classify_cancel(const RequestState& state) const
{
    if (state.deadline_ns != 0 && Timer::now_ns() >= state.deadline_ns &&
        !state.user_cancelled.load(std::memory_order_relaxed))
        return Status(StatusCode::kDeadlineExceeded,
                      "deadline of " +
                          std::to_string(state.req.deadline_ms) +
                          " ms exceeded");
    return Status(StatusCode::kCancelled, "cancelled by caller");
}

void
Server::record_cell_outcome(const RequestState& state,
                            const Status& status, bool executed)
{
    if (!options_.enable_breaker)
        return;
    if (!executed) {
        breaker_.release(state.cell_key, state.probe);
        return;
    }
    switch (status.code()) {
      case StatusCode::kOk:
        breaker_.record_success(state.cell_key, state.probe);
        break;
      case StatusCode::kCancelled:
        // Caller-initiated: says nothing about the cell's health.
        breaker_.release(state.cell_key, state.probe);
        break;
      default:
        // Kernel errors, injected faults, and deadline/timeout expiries
        // mid-execution all count: a slow cell is a sick cell.
        breaker_.record_failure(state.cell_key, state.probe);
        break;
    }
}

void
Server::process(const std::shared_ptr<RequestState>& state)
{
    const std::int64_t dequeue_ns = Timer::now_ns();
    QueryResult result;
    result.queue_seconds =
        static_cast<double>(dequeue_ns - state->submit_ns) * 1e-9;
    tm_->queue_wait_ns->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, dequeue_ns - state->submit_ns)));

    // Expired or cancelled while still queued: answer without executing.
    if (state->user_cancelled.load(std::memory_order_relaxed) ||
        (state->deadline_ns != 0 && dequeue_ns >= state->deadline_ns)) {
        const Status status = classify_cancel(*state);
        record_cell_outcome(*state, status, /*executed=*/false);
        complete(state, status, std::move(result));
        return;
    }

    obs::TraceSession session;
    session.start_detached();
    Status status;
    {
        obs::SessionBinding binding(session.gen());
        stamp_request_session(*state, dequeue_ns);

        // Pin the current generation: the lookup, a join, and a leader's
        // execution, fingerprint and publish all read this one graph,
        // whatever mutate() installs meanwhile.  The pin drops when this
        // block ends, before the request completes.
        const harness::Dataset ds = state->ds->pinned();
        const std::uint64_t generation = ds.generation()->id();
        ResultCache::Lookup lookup =
            cache_.lookup_or_join(state->cache_key, generation);
        switch (lookup.role) {
          case ResultCache::Role::kHit:
              // An entry published between submit() and this dequeue.
              answer_from_cache(lookup, /*fresh=*/true, result);
              record_cell_outcome(*state, status, /*executed=*/false);
              break;
          case ResultCache::Role::kFollower: {
              tm_->single_flight_joins->inc();
              const std::int64_t join_begin = Timer::now_ns();
              status = wait_for_leader(*state, lookup.flight, result);
              obs::record_span("serve.join_wait", join_begin,
                               Timer::now_ns());
              record_cell_outcome(*state, status, /*executed=*/false);
              break;
          }
          case ResultCache::Role::kLeader: {
              // Core-budget scheduling: charge the request's width
              // against the lane budget before executing.  Cache hits
              // and followers never touch the budget, so they are served
              // even when every lane is busy.
              const int width = state->req.width;
              tm_->lanes_requested->inc(static_cast<std::uint64_t>(width));
              const auto cancelled = [&state] {
                  return state->user_cancelled.load(
                      std::memory_order_relaxed);
              };
              if (!acquire_lanes(cancelled, state->deadline_ns, width)) {
                  status = classify_cancel(*state);
                  record_cell_outcome(*state, status, /*executed=*/false);
                  // Wake followers: their leader never ran ("abandoned"
                  // at wait_for_leader, so they retry cleanly).
                  cache_.publish(state->cache_key, lookup.flight, status,
                                 nullptr, 0, generation);
                  break;
              }
              tm_->executions->inc();
              const std::int64_t exec_begin = Timer::now_ns();
              std::shared_ptr<const ResultValue> value;
              std::uint64_t fingerprint = 0;
              try {
                  // Multi-lane execution under a LaneLease: the kernel's
                  // forks run on the leased lanes only, so concurrent
                  // requests parallelize on disjoint lane sets, and
                  // order-deterministic kernels make the payload
                  // bit-identical to a serial run at any width.
                  support::ScopedCancelToken scope(state->token.get());
                  par::LaneLease lease(width);
                  result.lanes = lease.width();
                  obs::counter_add(
                      "serve.lanes",
                      static_cast<std::uint64_t>(lease.width()));
                  obs::ScopedSpan span("serve.execute");
                  support::FaultInjector::global().at("serve.execute");
                  support::check_cancelled();
                  ResultValue v = execute_kernel(*state, ds);
                  fingerprint = result_fingerprint(v);
                  value = std::make_shared<const ResultValue>(std::move(v));
              } catch (...) {
                  status = support::current_exception_status();
              }
              // Cooperative unwinds surface as the watchdog's kTimeout;
              // re-express them in service terms.
              if (status.code() == StatusCode::kTimeout)
                  status = classify_cancel(*state);
              record_cell_outcome(*state, status, /*executed=*/true);
              cache_.publish(state->cache_key, lookup.flight, status,
                             value, fingerprint, generation);
              if (status.is_ok()) {
                  result.value = std::move(value);
                  result.fingerprint = fingerprint;
                  result.generation = generation;
              }
              const std::int64_t exec_ns = Timer::now_ns() - exec_begin;
              result.execute_seconds =
                  static_cast<double>(exec_ns) * 1e-9;
              tm_->lanes_granted->inc(
                  static_cast<std::uint64_t>(std::max(0, result.lanes)));
              tm_->execute_ns->record(static_cast<std::uint64_t>(
                  std::max<std::int64_t>(0, exec_ns)));
              {
                  // Feed the admission drain estimate: what one queue
                  // slot actually cost, success or not.
                  std::lock_guard<std::mutex> lock(queue_mu_);
                  admission_.record_service(exec_ns);
              }
              release_lanes(width);
              break;
          }
        }
    }
    session.stop();
    if (result.lanes > 0 && result.execute_seconds > 0) {
        // Lane busy time over lanes x wall: 1.0 means every granted lane
        // was busy for the whole execution.
        const obs::TrialMetrics summary = obs::summarize(session);
        result.parallel_efficiency =
            std::min(1.0, summary.busy_seconds /
                              (result.execute_seconds *
                               static_cast<double>(result.lanes)));
        tm_->parallel_efficiency_millionths->record(
            static_cast<std::uint64_t>(result.parallel_efficiency * 1e6));
    }
    if (!options_.metrics_path.empty())
        write_metrics_record(*state, session);
    complete(state, std::move(status), std::move(result));
    flush_breaker_transitions();
}

bool
Server::acquire_lanes(const std::function<bool()>& stopped,
                      std::int64_t deadline_ns, int width)
{
    detail::LaneGate& gate = *lane_gate_;
    std::unique_lock<std::mutex> lock(gate.mu);
    for (;;) {
        if (stopped())
            return false;
        if (deadline_ns != 0 && Timer::now_ns() >= deadline_ns)
            return false;
        if (gate.in_use + width <= lane_budget_) {
            gate.in_use += width;
            tm_->lanes_in_use->set(gate.in_use);
            return true;
        }
        // Budget holders are executing leaders, which always finish, so
        // this wait cannot deadlock — including during shutdown's queue
        // drain.  Wakeups are event-driven (release_lanes, the handles'
        // cancel(), and shutdown() all notify); the only timed bound
        // needed is the deadline, so expiry is reported the moment it
        // passes instead of on the next poll tick.
        if (deadline_ns == 0) {
            gate.cv.wait(lock);
        } else {
            const std::int64_t remaining_ns = deadline_ns - Timer::now_ns();
            if (remaining_ns > 0)
                gate.cv.wait_for(lock,
                                 std::chrono::nanoseconds(remaining_ns));
        }
    }
}

void
Server::release_lanes(int width)
{
    detail::LaneGate& gate = *lane_gate_;
    {
        std::lock_guard<std::mutex> lock(gate.mu);
        gate.in_use -= width;
        tm_->lanes_in_use->set(gate.in_use);
    }
    gate.cv.notify_all();
}

Status
Server::wait_for_leader(RequestState& state,
                        const std::shared_ptr<ResultCache::Inflight>& flight,
                        QueryResult& result)
{
    {
        std::lock_guard<std::mutex> lock(state.mu);
        state.flight = flight;
    }
    const auto cancelled = [&state] {
        return state.user_cancelled.load(std::memory_order_relaxed);
    };
    if (!flight->wait(cancelled, state.deadline_ns))
        return classify_cancel(state);
    const Status status = flight->follower_status();
    if (status.is_ok()) {
        result.value = flight->value;
        result.fingerprint = flight->fingerprint;
        result.generation = flight->generation;
        result.shared_execution = true;
    }
    return status;
}

bool
Server::try_cache_fallback(const RequestState& state, QueryResult& result)
{
    const ResultCache::Peek peek = cache_.peek(
        state.cache_key, state.ds->store()->generation());
    if (peek.value == nullptr)
        return false;
    answer_from_cache(peek, peek.fresh, result);
    return true;
}

void
Server::answer_from_cache(const ResultCache::Cached& entry, bool fresh,
                          QueryResult& result)
{
    result.value = entry.value;
    result.fingerprint = entry.fingerprint;
    result.generation = entry.generation;
    result.cache_hit = fresh;
    result.degraded = !fresh;
    if (!fresh)
        return;
    obs::counter_add("serve.cache_hit", 1);
    tm_->answered_from_cache->inc();
}

QueryResult
Server::answer_hit_inline(const RequestState& state,
                          const ResultCache::Cached& hit)
{
    QueryResult result;
    if (options_.metrics_path.empty()) {
        answer_from_cache(hit, /*fresh=*/true, result);
        return result;
    }
    // The record a worker writes for a hit, with a zero queue wait.
    obs::TraceSession session;
    session.start_detached();
    {
        obs::SessionBinding binding(session.gen());
        stamp_request_session(state, state.submit_ns);
        answer_from_cache(hit, /*fresh=*/true, result);
    }
    session.stop();
    write_metrics_record(state, session);
    return result;
}

void
Server::complete(const std::shared_ptr<RequestState>& state, Status status,
                 QueryResult result)
{
    // Degraded mode: a request that opted in and cannot be served fresh
    // — shed, breaker-open, failed, or expired — is answered from the
    // cache (stale included) rather than refused.  Never masks a bad
    // request or a caller's own cancel.
    if (!status.is_ok() && state->req.allow_stale &&
        status.code() != StatusCode::kInvalidInput &&
        !state->user_cancelled.load(std::memory_order_relaxed) &&
        result.value == nullptr && try_cache_fallback(*state, result)) {
        status = Status::ok();
        obs::counter_add("serve.degraded", result.degraded ? 1 : 0);
    }
    const std::int64_t done_ns = Timer::now_ns();
    const std::int64_t latency_ns =
        std::max<std::int64_t>(0, done_ns - state->submit_ns);
    // Outcome before its subset: stats_snapshot() reads degraded before
    // succeeded, so degraded <= succeeded holds in any snapshot.
    tm_->completed_for(status.code()).inc();
    if (status.is_ok() && result.degraded)
        tm_->degraded->inc();
    const int kernel = static_cast<int>(state->req.kernel);
    if (kernel >= 0 && kernel < detail::ServeTelemetry::kKernels)
        tm_->latency_ns[kernel][priority_class(state->req.priority)]->record(
            static_cast<std::uint64_t>(latency_ns));
    observe_slo(status.is_ok(), status.is_ok() && !result.degraded,
                latency_ns);
    result.trace_id = state->req.trace_id;
    {
        std::lock_guard<std::mutex> lock(state->mu);
        result.service_seconds = static_cast<double>(latency_ns) * 1e-9;
        state->status = std::move(status);
        state->result = std::move(result);
        state->done = true;
    }
    state->cv.notify_all();
}

void
Server::write_metrics_record(const RequestState& state,
                             const obs::TraceSession& session)
{
    obs::MetricsRecord record;
    record.mode = harness::to_string(state.req.mode);
    record.framework = state.fw->name;
    record.kernel = harness::to_string(state.req.kernel);
    record.graph = state.req.graph;
    record.trial = 0;
    record.attempt = state.req.attempt;
    record.trace_id = state.req.trace_id;
    record.metrics = obs::summarize(session);
    record.metrics.peak_bytes = state.ds->bytes_resident();
    append_line(options_.metrics_path, obs::metrics_record_line(record));
}

void
Server::flush_breaker_transitions()
{
    // Drain unconditionally (bounds memory); write only when streaming.
    const std::vector<CircuitBreaker::Transition> transitions =
        breaker_.drain_transitions();
    if (transitions.empty() || options_.metrics_path.empty())
        return;
    std::ostringstream lines;
    const char* separator = "";
    for (const CircuitBreaker::Transition& t : transitions) {
        lines << separator << "{\"kind\":\"serve.breaker\",\"cell\":\""
              << support::json_escape(t.cell) << "\",\"from\":\""
              << CircuitBreaker::to_string(t.from) << "\",\"to\":\""
              << CircuitBreaker::to_string(t.to) << "\",\"seq\":" << t.seq
              << "}";
        separator = "\n";
    }
    append_line(options_.metrics_path, lines.str());
}

ServerStats
Server::stats_snapshot() const
{
    // Effects before causes, with no lock: a request bumps submitted
    // before its outcome and succeeded before degraded, and counters
    // publish with release / read with acquire, so reading degraded, then
    // the outcomes, then the queue, then submitted keeps every
    // ServerStats invariant in any snapshot.
    const detail::ServeTelemetry& t = *tm_;
    ServerStats out;
    out.degraded = t.degraded->value();
    out.succeeded = t.succeeded->value();
    out.deadline_exceeded = t.deadline_exceeded->value();
    out.cancelled = t.cancelled->value();
    out.failed = t.failed->value();
    out.completed = out.succeeded + out.deadline_exceeded + out.cancelled +
                    out.failed;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        out.queue_depth = admission_.depth();
    }
    out.submitted = t.submitted->value();
    for (const telemetry::Counter* shed : t.shed)
        out.shed += shed->value();
    out.infeasible = t.infeasible->value();
    out.unavailable = t.unavailable->value();
    out.executions = t.executions->value();
    out.lanes_granted = t.lanes_granted->value();
    out.cache_hits = t.answered_from_cache->value();
    out.single_flight_joins = t.single_flight_joins->value();
    out.retries = t.retries->value();
    out.retry_denied = t.retry_denied->value();
    out.mutations = t.dyn_batches->value();
    out.mutation_inserted_arcs = t.dyn_inserted_arcs->value();
    out.mutation_deleted_arcs = t.dyn_deleted_arcs->value();
    out.compactions = t.dyn_compactions->value();
    out.plans_completed = t.plans_completed->value();
    out.plans_failed = t.plans_failed->value();
    out.plan_nodes_executed = t.plan_nodes_executed->value();
    out.plan_node_cache_hits = t.plan_node_cache_hits->value();
    out.plan_nodes_shared = t.plan_nodes_shared->value();
    out.plan_fused_sweeps = t.plan_fused_sweeps->value();
    out.plan_sources_fused = t.plan_sources_fused->value();
    out.plans_submitted = t.plans_submitted->value();
    out.plan_nodes = t.plan_nodes->value();
    out.breaker_transitions = breaker_.transition_count();
    out.breaker_open_cells = breaker_.open_cells();
    const ResultCache::Stats cache = cache_.stats();
    out.cache_entries = cache.entries;
    out.cache_bytes = cache.bytes;
    return out;
}

int
Server::metrics_port() const
{
    return listener_ != nullptr ? listener_->port() : -1;
}

telemetry::SloEvaluation
Server::slo_evaluation()
{
    return evaluate_slo(Timer::now_ns());
}

std::uint64_t
Server::mint_trace_id()
{
    const std::uint64_t seq =
        trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t id =
        SplitMix64(trace_base_ ^ (seq * 0x9e3779b97f4a7c15ULL)).next();
    return id == 0 ? 1 : id; // 0 means "mint for me"
}

void
Server::append_line(const std::string& path, const std::string& line)
{
    std::lock_guard<std::mutex> lock(metrics_mu_);
    std::ofstream out(path, std::ios::app);
    if (out)
        out << line << "\n";
}

void
Server::write_refusal_record(const RequestState& state,
                             const Status& status, bool served_degraded)
{
    if (options_.metrics_path.empty())
        return;
    std::ostringstream line;
    line << "{\"kind\":\"serve.refusal\",\"trace\":\""
         << detail::trace_hex(state.req.trace_id)
         << "\",\"attempt\":" << state.req.attempt << ",\"code\":\""
         << support::to_string(status.code()) << "\",\"cell\":\""
         << support::json_escape(state.cell_key)
         << "\",\"degraded\":" << (served_degraded ? 1 : 0)
         << ",\"t_ns\":" << Timer::now_ns() << "}";
    append_line(options_.metrics_path, line.str());
}

void
Server::write_mutation_record(const std::string& graph,
                              const MutationOutcome& outcome)
{
    if (options_.metrics_path.empty())
        return;
    std::ostringstream line;
    line << "{\"kind\":\"serve.mutation\",\"graph\":\""
         << support::json_escape(graph)
         << "\",\"requested\":" << outcome.requested
         << ",\"inserted_arcs\":" << outcome.inserted_arcs
         << ",\"deleted_arcs\":" << outcome.deleted_arcs
         << ",\"dirty\":" << outcome.dirty << ",\"dirty_fraction\":"
         << support::json_double(outcome.dirty_fraction)
         << ",\"compacted\":" << (outcome.compacted ? 1 : 0)
         << ",\"generation\":" << outcome.generation << ",\"mutate_ms\":"
         << support::json_double(outcome.mutate_seconds * 1e3)
         << ",\"t_ns\":" << Timer::now_ns() << "}";
    append_line(options_.metrics_path, line.str());
}

void
Server::observe_slo(bool answered, bool fresh, std::int64_t latency_ns)
{
    const std::int64_t now = Timer::now_ns();
    slo_.record(now, answered, fresh,
                static_cast<std::uint64_t>(
                    std::max<std::int64_t>(0, latency_ns)));
    // Evaluate at roughly half-bucket granularity: one caller wins the
    // CAS and pays for the evaluation, everyone else just records.
    const std::int64_t period = std::max<std::int64_t>(
        1, options_.slo.bucket_ns / 2);
    std::int64_t last = last_slo_eval_ns_.load(std::memory_order_relaxed);
    if (now - last < period)
        return;
    if (!last_slo_eval_ns_.compare_exchange_strong(
            last, now, std::memory_order_relaxed))
        return;
    evaluate_slo(now);
}

telemetry::SloEvaluation
Server::evaluate_slo(std::int64_t now_ns)
{
    const telemetry::SloEvaluation ev = slo_.evaluate(now_ns);
    tm_->slo_availability_short->set(ev.availability_short);
    tm_->slo_availability_long->set(ev.availability_long);
    tm_->slo_fresh_availability_short->set(ev.fresh_availability_short);
    tm_->slo_fresh_availability_long->set(ev.fresh_availability_long);
    tm_->slo_burn_short->set(ev.burn_short);
    tm_->slo_burn_long->set(ev.burn_long);
    tm_->slo_firing->set(ev.firing ? 1.0 : 0.0);
    tm_->slo_p99_short_ns->set(static_cast<double>(ev.p99_short_ns));
    tm_->slo_availability_lifetime->set(ev.availability_lifetime);
    if (ev.changed)
        write_slo_burn_record(ev);
    return ev;
}

void
Server::write_slo_burn_record(const telemetry::SloEvaluation& ev)
{
    // Burn transitions stream with the per-request records when those
    // are on; otherwise they join the telemetry snapshots.
    const std::string& path = !options_.metrics_path.empty()
                                  ? options_.metrics_path
                                  : options_.telemetry_path;
    if (path.empty())
        return;
    std::ostringstream line;
    line << "{\"kind\":\"serve.slo.burn\",\"state\":\""
         << (ev.firing ? "firing" : "clear")
         << "\",\"t_ns\":" << ev.at_ns
         << ",\"burn_short\":" << support::json_double(ev.burn_short)
         << ",\"burn_long\":" << support::json_double(ev.burn_long)
         << ",\"availability_short\":"
         << support::json_double(ev.availability_short)
         << ",\"fresh_availability_short\":"
         << support::json_double(ev.fresh_availability_short)
         << ",\"p99_short_ns\":" << ev.p99_short_ns
         << ",\"short_total\":" << ev.short_total
         << ",\"long_total\":" << ev.long_total << "}";
    append_line(path, line.str());
}

void
Server::write_telemetry_snapshot()
{
    if (options_.telemetry_path.empty())
        return;
    const telemetry::Snapshot snap = registry_.snapshot();
    std::ostringstream line;
    line << "{\"kind\":\"serve.telemetry\",\"seq\":" << telemetry_seq_++
         << ",\"t_ns\":" << Timer::now_ns() << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        line << (first ? "" : ",") << "\"" << support::json_escape(name)
             << "\":" << value;
        first = false;
    }
    line << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
        line << (first ? "" : ",") << "\"" << support::json_escape(name)
             << "\":" << support::json_double(value);
        first = false;
    }
    line << "},\"hist\":{";
    first = true;
    for (const auto& [name, hist] : snap.histograms) {
        line << (first ? "" : ",") << "\"" << support::json_escape(name)
             << "\":{\"count\":" << hist.count << ",\"sum\":" << hist.sum
             << ",\"buckets\":{";
        bool first_bucket = true;
        for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
            if (hist.buckets[b] == 0)
                continue;
            line << (first_bucket ? "" : ",") << "\"" << b
                 << "\":" << hist.buckets[b];
            first_bucket = false;
        }
        line << "}}";
        first = false;
    }
    line << "}}";
    append_line(options_.telemetry_path, line.str());
}

void
Server::telemetry_flush_loop()
{
    const auto interval = std::chrono::milliseconds(
        std::max(1, options_.telemetry_flush_ms));
    std::unique_lock<std::mutex> lock(flusher_mu_);
    for (;;) {
        flusher_cv_.wait_for(lock, interval,
                             [this] { return flusher_stop_; });
        if (flusher_stop_)
            return;
        lock.unlock();
        write_telemetry_snapshot();
        evaluate_slo(Timer::now_ns());
        lock.lock();
    }
}

StatusOr<QueryResult>
Server::Handle::wait() const
{
    GM_ASSERT(state_ != nullptr, "wait() on an empty serve::Handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->done; });
    if (!state_->status.is_ok())
        return state_->status;
    return state_->result;
}

StatusOr<QueryResult>
Server::Handle::wait_for(int timeout_ms) const
{
    GM_ASSERT(state_ != nullptr, "wait_for() on an empty serve::Handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    const bool done = state_->cv.wait_for(
        lock, std::chrono::milliseconds(std::max(0, timeout_ms)),
        [this] { return state_->done; });
    if (!done)
        return Status(StatusCode::kDeadlineExceeded,
                      "wait_for(" + std::to_string(timeout_ms) +
                          " ms) expired; the request is still in "
                          "flight and can be waited on again");
    if (!state_->status.is_ok())
        return state_->status;
    return state_->result;
}

void
Server::Handle::cancel() const
{
    GM_ASSERT(state_ != nullptr, "cancel() on an empty serve::Handle");
    state_->user_cancelled.store(true, std::memory_order_relaxed);
    state_->token->request();
    // Wake the request wherever it blocks: a leader waiting for lanes or
    // a follower joined to another request's flight.  Gate and flight
    // are shared-ptr-owned by the state, so this is safe even after the
    // server has been destroyed.
    if (state_->gate != nullptr)
        detail::wake(state_->gate->mu, state_->gate->cv);
    std::shared_ptr<ResultCache::Inflight> flight;
    {
        std::lock_guard<std::mutex> lock(state_->mu);
        flight = state_->flight;
    }
    if (flight != nullptr)
        detail::wake(flight->mu, flight->cv);
}

} // namespace gm::serve

/**
 * @file
 * Server::submit_plan — the serve-side executor for gm::plan DAGs.
 *
 * Each accepted plan pins the graph's current generation at submit and
 * gets a driver thread that walks the plan's topological waves; nodes
 * within a wave run concurrently, one thread each.  Every node is served
 * through the same ResultCache the query path uses, keyed by (structural
 * sub-plan fingerprint, the plan's generation): a node whose sub-plan
 * was computed at that generation before is a cache hit, a node whose
 * sub-plan is computing at it right now — in this plan or any
 * concurrently submitted one — joins that flight as a follower, and
 * otherwise the node leads, charging its width against the server's lane
 * budget before executing.  The net effect is the exactly-once
 * guarantee: a sub-plan shared by two simultaneous plans executes its
 * kernel once, whichever plan gets there first.
 *
 * Plan cache keys live in their own "plan/" namespace: plan BFS nodes
 * answer depths (canonical under multi-source fusion) while query BFS
 * answers parents, so the two must never share an entry even for the
 * same graph and source.
 */
#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "gm/graph/frontier.hh"
#include "gm/par/thread_pool.hh"
#include "gm/plan/execute.hh"
#include "gm/serve/server.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/json.hh"
#include "gm/support/log.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"
#include "serve_internal.hh"

namespace gm::serve
{

using support::Status;
using support::StatusCode;
using support::StatusOr;
using detail::PlanState;

namespace
{

/** Traversal nodes parallelize and get the plan's width; aggregations
 *  are cheap serial folds and charge a single lane. */
int
node_width(const plan::Node& node, int plan_width)
{
    return node.op == plan::Op::kKernel || node.op == plan::Op::kBatch
               ? plan_width
               : 1;
}

/** Fused-traversal accounting for one node: bit-parallel sweeps and the
 *  sources they covered.  Only BFS batches fuse (SSSP batches run per
 *  source; see plan::execute). */
void
fusion_stats(const plan::Node& node, int& sweeps, int& sources)
{
    sweeps = 0;
    sources = 0;
    if (node.op != plan::Op::kBatch ||
        node.kernel != harness::Kernel::kBFS)
        return;
    const int n = static_cast<int>(node.sources.size());
    sweeps = (n + graph::kMaxFusedSources - 1) / graph::kMaxFusedSources;
    sources = n;
}

/**
 * Cache identity of one sub-plan result: the graph pinned by stable
 * store identity plus mode and framework (different frameworks may
 * produce different — equally valid — CC labelings), then the
 * structural sub-plan fingerprint.  The "plan/" prefix keeps these
 * entries disjoint from query entries by construction.
 */
std::string
make_plan_node_key(const PlanState& state, std::uint64_t fingerprint)
{
    std::ostringstream key;
    key << "plan/" << harness::to_string(state.req.mode) << "/"
        << state.fw->name << "/" << state.req.graph << "@" << std::hex
        << state.ds->store()->identity() << "/n" << fingerprint;
    return key.str();
}

/** DEADLINE_EXCEEDED vs CANCELLED for a node that stopped early, by the
 *  same rule the query path uses: an expired deadline wins unless the
 *  caller cancelled the plan. */
Status
classify_node_cancel(const PlanState& state, std::int64_t deadline_ns)
{
    if (deadline_ns != 0 && Timer::now_ns() >= deadline_ns &&
        !state.token->requested())
        return Status(StatusCode::kDeadlineExceeded,
                      "plan node deadline of " +
                          std::to_string(state.req.node_deadline_ms) +
                          " ms exceeded");
    return Status(StatusCode::kCancelled, "plan cancelled by caller");
}

} // namespace

StatusOr<Server::PlanHandle>
Server::submit_plan(PlanRequest request)
{
    const harness::Framework* fw =
        detail::find_framework(frameworks_, request.framework);
    if (fw == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown framework: " + request.framework);
    std::shared_ptr<const harness::Dataset> ds =
        detail::find_dataset(suite_, request.graph);
    if (ds == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown graph: " + request.graph);
    if (request.plan.empty())
        return Status(StatusCode::kInvalidInput, "empty plan");
    const Status valid = request.plan.validate();
    if (!valid.is_ok())
        return valid;
    // The plan reads one generation, pinned here.  Source bounds depend
    // on the graph, which validate() cannot know; checked against the
    // pin so a bad plan fails at submit, not mid-execution.
    auto pinned = std::make_shared<const harness::Dataset>(ds->pinned());
    const vid_t n = pinned->g().num_vertices();
    for (const plan::Node& node : request.plan.nodes()) {
        for (const vid_t s : node.sources) {
            if (s < 0 || s >= n)
                return Status(StatusCode::kInvalidInput,
                              "plan source " + std::to_string(s) +
                                  " out of range for graph " +
                                  request.graph);
        }
    }

    auto state = std::make_shared<PlanState>();
    state->req = std::move(request);
    if (state->req.trace_id == 0)
        state->req.trace_id = mint_trace_id();
    state->req.width = std::clamp(state->req.width, 1, lane_budget_);
    state->fw = fw;
    state->generation = pinned->generation()->id();
    state->ds = std::move(pinned);
    state->gate = lane_gate_;
    state->submit_ns = Timer::now_ns();
    const int size = state->req.plan.size();
    state->node_tokens.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
        state->node_tokens.push_back(
            std::make_shared<support::CancelToken>());
    state->node_results.resize(static_cast<std::size_t>(size));

    {
        // plan_mu_ spans the shutdown check AND the runner insertion so
        // shutdown()'s final reap (which also takes plan_mu_) cannot slip
        // between them and orphan a never-joined driver thread.
        std::lock_guard<std::mutex> plan_lock(plan_mu_);
        {
            std::lock_guard<std::mutex> lock(queue_mu_);
            if (shutdown_)
                return Status(StatusCode::kResourceExhausted,
                              "server is shut down");
        }
        // Bound the runner list: settled drivers join instantly.
        for (auto it = plan_runners_.begin();
             it != plan_runners_.end();) {
            bool finished;
            {
                std::lock_guard<std::mutex> lock(it->state->mu);
                finished = it->state->done;
            }
            if (finished) {
                it->thread.join();
                it = plan_runners_.erase(it);
            } else {
                ++it;
            }
        }
        // Counted before the driver starts, so no scrape can see the
        // plan's completion without its submission.
        tm_->plans_submitted->inc();
        tm_->plan_nodes->inc(static_cast<std::uint64_t>(size));
        tm_->plan_inflight->add(1);
        PlanRunner runner;
        runner.state = state;
        runner.thread =
            std::thread([this, state] { plan_driver(state); });
        plan_runners_.push_back(std::move(runner));
    }
    return PlanHandle(state);
}

StatusOr<PlanResult>
Server::run_plan(const PlanRequest& request)
{
    StatusOr<PlanHandle> handle = submit_plan(request);
    if (!handle.is_ok())
        return handle.status();
    return handle.value().wait();
}

void
Server::plan_driver(const std::shared_ptr<PlanState>& state)
{
    const plan::Plan& plan = state->req.plan;
    const std::vector<std::vector<int>> waves = plan.waves();
    Status status;
    for (const std::vector<int>& wave : waves) {
        if (!status.is_ok() || state->token->requested())
            break;
        if (wave.size() == 1) {
            plan_run_node(*state, wave[0]);
        } else {
            std::vector<std::thread> threads;
            threads.reserve(wave.size());
            for (const int id : wave)
                threads.emplace_back(
                    [this, &state, id] { plan_run_node(*state, id); });
            for (std::thread& t : threads)
                t.join();
        }
        for (const int id : wave) {
            const PlanNodeResult& node =
                state->node_results[static_cast<std::size_t>(id)];
            if (!node.status.is_ok() && status.is_ok())
                status = Status(
                    node.status.code(),
                    "plan node " + std::to_string(id) + " (" +
                        plan::to_string(
                            plan.nodes()[static_cast<std::size_t>(id)]
                                .op) +
                        "): " + node.status.message());
        }
    }
    if (status.is_ok() && state->token->requested())
        status =
            Status(StatusCode::kCancelled, "plan cancelled by caller");
    // Every node has settled: drop the pin, so a finished plan waiting to
    // be reaped holds no retired generation.
    state->ds.reset();
    // Nodes never reached (waves after a failure or cancel) are marked
    // explicitly so callers can tell "skipped" from "succeeded": a node
    // that ran always carries a value or a non-ok status.
    for (PlanNodeResult& node : state->node_results) {
        if (node.status.is_ok() && node.value == nullptr)
            node.status = Status(StatusCode::kCancelled,
                                 "not run: plan stopped early");
    }

    PlanResult result;
    result.trace_id = state->req.trace_id;
    result.generation = state->generation;
    for (int id = 0; id < plan.size(); ++id) {
        const PlanNodeResult& node =
            state->node_results[static_cast<std::size_t>(id)];
        // Leaders (and only leaders) accumulate execute time; hits and
        // followers answer without running anything.
        const bool ran = node.execute_seconds > 0;
        result.executed += ran ? 1 : 0;
        result.cache_hits += node.cache_hit ? 1 : 0;
        result.shared += node.shared_execution ? 1 : 0;
        if (ran && node.status.is_ok()) {
            int sweeps = 0;
            int sources = 0;
            fusion_stats(plan.nodes()[static_cast<std::size_t>(id)],
                         sweeps, sources);
            result.fused_sweeps += sweeps;
            result.sources_fused += sources;
        }
    }
    const std::int64_t done_ns = Timer::now_ns();
    result.service_seconds =
        static_cast<double>(done_ns - state->submit_ns) * 1e-9;
    result.nodes = state->node_results;

    tm_->plans_completed->inc();
    if (!status.is_ok())
        tm_->plans_failed->inc();
    tm_->plan_nodes_executed->inc(static_cast<std::uint64_t>(result.executed));
    tm_->plan_node_cache_hits->inc(
        static_cast<std::uint64_t>(result.cache_hits));
    tm_->plan_nodes_shared->inc(static_cast<std::uint64_t>(result.shared));
    tm_->plan_fused_sweeps->inc(
        static_cast<std::uint64_t>(result.fused_sweeps));
    tm_->plan_sources_fused->inc(
        static_cast<std::uint64_t>(result.sources_fused));
    tm_->plan_inflight->add(-1);
    tm_->plan_service_ns->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, done_ns - state->submit_ns)));
    {
        std::lock_guard<std::mutex> lock(state->mu);
        state->status = status;
        state->result = std::move(result);
        state->done = true;
    }
    state->cv.notify_all();
    write_plan_record(*state);
}

void
Server::plan_run_node(PlanState& state, int id)
{
    const plan::Plan& plan = state.req.plan;
    const plan::Node& node = plan.nodes()[static_cast<std::size_t>(id)];
    PlanNodeResult& out =
        state.node_results[static_cast<std::size_t>(id)];
    const support::CancelToken& node_token =
        *state.node_tokens[static_cast<std::size_t>(id)];
    const auto stopped = [&state, &node_token] {
        return state.token->requested() || node_token.requested();
    };
    const std::int64_t start_ns = Timer::now_ns();
    const std::int64_t deadline_ns =
        state.req.node_deadline_ms > 0
            ? start_ns +
                  static_cast<std::int64_t>(state.req.node_deadline_ms) *
                      1'000'000
            : 0;
    if (deadline_ns != 0)
        deadlines_.arm(deadline_ns,
                       state.node_tokens[static_cast<std::size_t>(id)]);

    // Inputs come straight from upstream slots: earlier waves settled
    // before this node was scheduled, and ResultValue IS plan::Value, so
    // cached payloads feed the executor without a copy.
    std::vector<const plan::Value*> inputs;
    inputs.reserve(node.inputs.size());
    for (const int input : node.inputs) {
        const PlanNodeResult& upstream =
            state.node_results[static_cast<std::size_t>(input)];
        if (!upstream.status.is_ok() || upstream.value == nullptr) {
            out.status = Status(StatusCode::kCancelled,
                                "not run: input node " +
                                    std::to_string(input) + " failed");
            return;
        }
        inputs.push_back(upstream.value.get());
    }

    const std::string key =
        make_plan_node_key(state, plan.fingerprint(id));
    ResultCache::Lookup lookup = cache_.lookup_or_join(key, state.generation);
    switch (lookup.role) {
      case ResultCache::Role::kHit: {
          out.value = std::move(lookup.value);
          out.fingerprint = lookup.fingerprint;
          out.cache_hit = true;
          return;
      }
      case ResultCache::Role::kFollower: {
          // Recorded on the plan first, so PlanHandle::cancel() can wake
          // this wait (see RequestState::flight).
          {
              std::lock_guard<std::mutex> lock(state.mu);
              state.flights.push_back(lookup.flight);
          }
          ResultCache::Inflight& flight = *lookup.flight;
          if (!flight.wait(stopped, deadline_ns)) {
              out.status = classify_node_cancel(state, deadline_ns);
              return;
          }
          out.status = flight.follower_status();
          if (out.status.is_ok()) {
              out.value = flight.value;
              out.fingerprint = flight.fingerprint;
              out.shared_execution = true;
          }
          return;
      }
      case ResultCache::Role::kLeader:
        break;
    }

    // Leader: charge this node's lanes, execute on the plan's pinned
    // generation, publish.  publish() runs on every path out of this
    // block — a leader that never publishes would hang its followers.
    const int width = node_width(node, state.req.width);
    if (!acquire_lanes(stopped, deadline_ns, width)) {
        out.status = classify_node_cancel(state, deadline_ns);
        cache_.publish(key, lookup.flight, out.status, nullptr, 0,
                       state.generation);
        return;
    }
    Status status;
    std::shared_ptr<const ResultValue> value;
    std::uint64_t fingerprint = 0;
    const std::int64_t exec_begin = Timer::now_ns();
    try {
        support::ScopedCancelToken scope(
            state.node_tokens[static_cast<std::size_t>(id)].get());
        par::LaneLease lease(width);
        support::FaultInjector::global().at("serve.plan.node");
        support::check_cancelled();
        plan::Context ctx{state.ds.get(), state.fw, state.req.mode};
        StatusOr<plan::Value> produced =
            plan::execute_node(plan, id, inputs, ctx);
        if (produced.is_ok()) {
            plan::Value v = std::move(produced).value();
            fingerprint = result_fingerprint(v);
            value = std::make_shared<const ResultValue>(std::move(v));
        } else {
            status = produced.status();
        }
    } catch (...) {
        status = support::current_exception_status();
    }
    if (status.code() == StatusCode::kTimeout)
        status = classify_node_cancel(state, deadline_ns);
    cache_.publish(key, lookup.flight, status, value, fingerprint,
                   state.generation);
    const std::int64_t exec_ns = Timer::now_ns() - exec_begin;
    release_lanes(width);
    out.status = status;
    out.execute_seconds =
        static_cast<double>(std::max<std::int64_t>(1, exec_ns)) * 1e-9;
    if (status.is_ok()) {
        out.value = std::move(value);
        out.fingerprint = fingerprint;
    }
    tm_->plan_node_execute_ns->record(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, exec_ns)));
}

void
Server::write_plan_record(detail::PlanState& state)
{
    if (options_.metrics_path.empty())
        return;
    std::ostringstream line;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        const PlanResult& r = state.result;
        line << "{\"kind\":\"serve.plan\",\"trace\":\""
             << detail::trace_hex(r.trace_id) << "\",\"status\":\""
             << support::to_string(state.status.code())
             << "\",\"graph\":\"" << support::json_escape(state.req.graph)
             << "\",\"framework\":\""
             << support::json_escape(state.fw->name)
             << "\",\"nodes\":" << state.req.plan.size()
             << ",\"executed\":" << r.executed
             << ",\"cache_hits\":" << r.cache_hits
             << ",\"shared\":" << r.shared
             << ",\"fused_sweeps\":" << r.fused_sweeps
             << ",\"sources_fused\":" << r.sources_fused
             << ",\"service_ms\":"
             << support::json_double(r.service_seconds * 1e3)
             << ",\"generation\":" << r.generation
             << ",\"t_ns\":" << Timer::now_ns() << "}";
    }
    append_line(options_.metrics_path, line.str());
}

void
Server::reap_plan_runners(bool all)
{
    std::lock_guard<std::mutex> plan_lock(plan_mu_);
    for (auto it = plan_runners_.begin(); it != plan_runners_.end();) {
        bool finished = all;
        if (!all) {
            std::lock_guard<std::mutex> lock(it->state->mu);
            finished = it->state->done;
        }
        if (finished) {
            it->thread.join();
            it = plan_runners_.erase(it);
        } else {
            ++it;
        }
    }
}

StatusOr<PlanResult>
Server::PlanHandle::wait() const
{
    GM_ASSERT(state_ != nullptr, "wait() on an empty serve::PlanHandle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->done; });
    if (!state_->status.is_ok())
        return state_->status;
    return state_->result;
}

void
Server::PlanHandle::cancel() const
{
    GM_ASSERT(state_ != nullptr,
              "cancel() on an empty serve::PlanHandle");
    state_->token->request();
    for (const auto& token : state_->node_tokens)
        token->request();
    // Wake every node wherever it blocks: waiting for lanes, or joined to
    // another execution's flight (see Handle::cancel()).
    if (state_->gate != nullptr)
        detail::wake(state_->gate->mu, state_->gate->cv);
    std::vector<std::shared_ptr<ResultCache::Inflight>> flights;
    {
        std::lock_guard<std::mutex> lock(state_->mu);
        flights = state_->flights;
    }
    for (const auto& flight : flights)
        detail::wake(flight->mu, flight->cv);
}

} // namespace gm::serve

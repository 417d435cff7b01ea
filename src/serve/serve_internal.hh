/**
 * @file
 * Serve-internal state shared by server.cc and plan_exec.cc — the
 * telemetry handle bundle, the lane-budget gate, and the per-request /
 * per-plan state records.  Not installed: include/ stays the public
 * surface; this header exists so the plan executor lives in its own
 * translation unit without re-declaring the server's internals.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/serve/server.hh"
#include "gm/support/status.hh"
#include "gm/support/watchdog.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve::detail
{

/** Match a framework by display name or lowercase alias: a
 *  case-insensitive compare in place, since it runs on every submit. */
inline const harness::Framework*
find_framework(const std::vector<harness::Framework>& frameworks,
               const std::string& name)
{
    const auto same = [](unsigned char a, unsigned char b) {
        return std::tolower(a) == std::tolower(b);
    };
    for (const auto& fw : frameworks) {
        if (std::equal(name.begin(), name.end(), fw.name.begin(),
                       fw.name.end(), same))
            return &fw;
    }
    return nullptr;
}

/** The suite dataset named @p name, or null. */
inline std::shared_ptr<const harness::Dataset>
find_dataset(const harness::DatasetSuite& suite, const std::string& name)
{
    for (const auto& ds : suite.datasets) {
        if (ds->name == name)
            return ds;
    }
    return nullptr;
}

/** Trace ids render as fixed-width hex, matching obs::metrics_record_line. */
inline std::string
trace_hex(std::uint64_t trace_id)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(trace_id));
    return std::string(hex);
}

/** Wake a waiter blocked on @p cv: taking @p mu first orders whatever
 *  the caller just stored (a cancel flag, a raised token) before the
 *  waiter's next check, so the wakeup cannot be lost. */
inline void
wake(std::mutex& mu, std::condition_variable& cv)
{
    { std::lock_guard<std::mutex> lock(mu); }
    cv.notify_all();
}

/**
 * Every registry handle the server's hot paths touch, acquired once at
 * construction so serving a request costs relaxed atomic ops only —
 * never a name lookup.
 *
 * The handles live in the Server's own registry, which is the server's
 * only counter store: stats_snapshot() reads ServerStats back from them.
 * Latency histograms are pre-created for the full kernel x priority grid.
 */
struct ServeTelemetry
{
    static constexpr int kKernels = 6; ///< harness::Kernel cardinality

    telemetry::Counter* submitted = nullptr;
    telemetry::Counter* accepted[kPriorityClasses] = {};
    telemetry::Counter* shed[kPriorityClasses] = {};
    telemetry::Gauge* queue_depth[kPriorityClasses] = {};
    telemetry::Counter* infeasible = nullptr;
    telemetry::Counter* unavailable = nullptr;
    telemetry::Counter* succeeded = nullptr;
    telemetry::Counter* failed = nullptr;
    telemetry::Counter* deadline_exceeded = nullptr;
    telemetry::Counter* cancelled = nullptr;
    telemetry::Counter* degraded = nullptr;
    telemetry::Counter* answered_from_cache = nullptr;
    telemetry::Counter* single_flight_joins = nullptr;
    telemetry::Counter* executions = nullptr;
    telemetry::Counter* lanes_requested = nullptr;
    telemetry::Counter* lanes_granted = nullptr;
    telemetry::Gauge* lanes_in_use = nullptr;
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* retry_denied = nullptr;
    telemetry::Gauge* retry_tokens = nullptr;
    telemetry::Histogram* latency_ns[kKernels][kPriorityClasses] = {};
    telemetry::Histogram* queue_wait_ns = nullptr;
    telemetry::Histogram* execute_ns = nullptr;
    /** Parallel efficiency in millionths (0..1e6): integer-valued so the
     *  log-linear buckets resolve the interesting 0.5..1.0 range. */
    telemetry::Histogram* parallel_efficiency_millionths = nullptr;
    telemetry::Gauge* slo_availability_short = nullptr;
    telemetry::Gauge* slo_availability_long = nullptr;
    telemetry::Gauge* slo_fresh_availability_short = nullptr;
    telemetry::Gauge* slo_fresh_availability_long = nullptr;
    telemetry::Gauge* slo_burn_short = nullptr;
    telemetry::Gauge* slo_burn_long = nullptr;
    telemetry::Gauge* slo_firing = nullptr;
    telemetry::Gauge* slo_p99_short_ns = nullptr;
    telemetry::Gauge* slo_availability_lifetime = nullptr;
    telemetry::Counter* dyn_batches = nullptr;
    telemetry::Counter* dyn_inserted_arcs = nullptr;
    telemetry::Counter* dyn_deleted_arcs = nullptr;
    telemetry::Counter* dyn_compactions = nullptr;
    telemetry::Gauge* dyn_generation = nullptr;
    telemetry::Gauge* dyn_dirty_fraction = nullptr;
    telemetry::Histogram* dyn_batch_edges = nullptr;
    telemetry::Histogram* dyn_mutate_ns = nullptr;
    telemetry::Counter* plans_submitted = nullptr;
    telemetry::Counter* plans_completed = nullptr;
    telemetry::Counter* plans_failed = nullptr;
    telemetry::Counter* plan_nodes = nullptr;
    telemetry::Counter* plan_nodes_executed = nullptr;
    telemetry::Counter* plan_node_cache_hits = nullptr;
    telemetry::Counter* plan_nodes_shared = nullptr;
    telemetry::Counter* plan_fused_sweeps = nullptr;
    telemetry::Counter* plan_sources_fused = nullptr;
    telemetry::Gauge* plan_inflight = nullptr;
    telemetry::Histogram* plan_node_execute_ns = nullptr;
    telemetry::Histogram* plan_service_ns = nullptr;

    explicit ServeTelemetry(telemetry::Registry& reg)
    {
        submitted = &reg.counter("gm_serve_submitted_total");
        for (int p = 0; p < kPriorityClasses; ++p) {
            const std::string cls = to_string(static_cast<Priority>(p));
            accepted[p] = &reg.counter(telemetry::labeled(
                "gm_serve_admission_accepted_total", {{"class", cls}}));
            shed[p] = &reg.counter(telemetry::labeled(
                "gm_serve_admission_shed_total", {{"class", cls}}));
            queue_depth[p] = &reg.gauge(telemetry::labeled(
                "gm_serve_queue_depth", {{"class", cls}}));
        }
        infeasible = &reg.counter("gm_serve_admission_infeasible_total");
        unavailable = &reg.counter("gm_serve_unavailable_total");
        succeeded = &reg.counter(telemetry::labeled(
            "gm_serve_completed_total", {{"status", "succeeded"}}));
        failed = &reg.counter(telemetry::labeled(
            "gm_serve_completed_total", {{"status", "failed"}}));
        deadline_exceeded = &reg.counter(
            telemetry::labeled("gm_serve_completed_total",
                               {{"status", "deadline_exceeded"}}));
        cancelled = &reg.counter(telemetry::labeled(
            "gm_serve_completed_total", {{"status", "cancelled"}}));
        degraded = &reg.counter("gm_serve_degraded_total");
        answered_from_cache =
            &reg.counter("gm_serve_answered_from_cache_total");
        single_flight_joins =
            &reg.counter("gm_serve_single_flight_joins_total");
        executions = &reg.counter("gm_serve_executions_total");
        lanes_requested = &reg.counter("gm_serve_lanes_requested_total");
        lanes_granted = &reg.counter("gm_serve_lanes_granted_total");
        lanes_in_use = &reg.gauge("gm_serve_lanes_in_use");
        retries = &reg.counter("gm_serve_retries_total");
        retry_denied = &reg.counter("gm_serve_retry_denied_total");
        retry_tokens = &reg.gauge("gm_serve_retry_budget_tokens");
        for (int k = 0; k < kKernels; ++k) {
            const std::string kernel =
                harness::to_string(static_cast<harness::Kernel>(k));
            for (int p = 0; p < kPriorityClasses; ++p)
                latency_ns[k][p] = &reg.histogram(telemetry::labeled(
                    "gm_serve_latency_ns",
                    {{"kernel", kernel},
                     {"priority",
                      to_string(static_cast<Priority>(p))}}));
        }
        queue_wait_ns = &reg.histogram("gm_serve_queue_wait_ns");
        execute_ns = &reg.histogram("gm_serve_execute_ns");
        parallel_efficiency_millionths =
            &reg.histogram("gm_serve_parallel_efficiency_millionths");
        slo_availability_short = &reg.gauge("gm_slo_availability_short");
        slo_availability_long = &reg.gauge("gm_slo_availability_long");
        slo_fresh_availability_short =
            &reg.gauge("gm_slo_fresh_availability_short");
        slo_fresh_availability_long =
            &reg.gauge("gm_slo_fresh_availability_long");
        slo_burn_short = &reg.gauge("gm_slo_burn_short");
        slo_burn_long = &reg.gauge("gm_slo_burn_long");
        slo_firing = &reg.gauge("gm_slo_firing");
        slo_p99_short_ns = &reg.gauge("gm_slo_p99_short_ns");
        slo_availability_lifetime =
            &reg.gauge("gm_slo_availability_lifetime");
        dyn_batches = &reg.counter("gm_dyn_batches_total");
        dyn_inserted_arcs = &reg.counter("gm_dyn_inserted_arcs_total");
        dyn_deleted_arcs = &reg.counter("gm_dyn_deleted_arcs_total");
        dyn_compactions = &reg.counter("gm_dyn_compactions_total");
        dyn_generation = &reg.gauge("gm_dyn_generation");
        dyn_dirty_fraction = &reg.gauge("gm_dyn_dirty_fraction");
        dyn_batch_edges = &reg.histogram("gm_dyn_batch_edges");
        dyn_mutate_ns = &reg.histogram("gm_dyn_mutate_ns");
        plans_submitted = &reg.counter("gm_plan_submitted_total");
        plans_completed = &reg.counter("gm_plan_completed_total");
        plans_failed = &reg.counter("gm_plan_failed_total");
        plan_nodes = &reg.counter("gm_plan_nodes_total");
        plan_nodes_executed = &reg.counter("gm_plan_nodes_executed_total");
        plan_node_cache_hits =
            &reg.counter("gm_plan_node_cache_hits_total");
        plan_nodes_shared = &reg.counter("gm_plan_nodes_shared_total");
        plan_fused_sweeps = &reg.counter("gm_plan_fused_sweeps_total");
        plan_sources_fused = &reg.counter("gm_plan_sources_fused_total");
        plan_inflight = &reg.gauge("gm_plan_inflight");
        plan_node_execute_ns =
            &reg.histogram("gm_plan_node_execute_ns");
        plan_service_ns = &reg.histogram("gm_plan_service_ns");
    }

    telemetry::Counter&
    completed_for(support::StatusCode code)
    {
        switch (code) {
          case support::StatusCode::kOk:
            return *succeeded;
          case support::StatusCode::kDeadlineExceeded:
            return *deadline_exceeded;
          case support::StatusCode::kCancelled:
            return *cancelled;
          default:
            return *failed;
        }
    }
};

/**
 * Core-budget scheduler state: lanes charged to currently executing
 * leaders, plus the condition variable lane waiters block on.  Waits are
 * event-driven — release_lanes(), both handles' cancel(), and shutdown()
 * all notify cv — so acquire_lanes never has to poll.  Shared-ptr-owned by
 * the Server and by every RequestState: cancel() wakes waiters through
 * the request's own reference, never through the server, so a Handle
 * outliving the Server stays safe.
 */
struct LaneGate
{
    std::mutex mu;
    std::condition_variable cv;
    int in_use = 0; ///< lanes held by executing leaders; guarded by mu
};

/** Everything one submitted request carries through the pipeline.  Heap-
 *  owned (shared by the Handle, the queue, and the worker), so a caller
 *  abandoning its Handle never invalidates an executing request. */
struct RequestState
{
    Request req;
    const harness::Framework* fw = nullptr;
    std::shared_ptr<const harness::Dataset> ds;
    std::string cache_key;
    std::string cell_key; ///< breaker key: framework/kernel/graph

    std::shared_ptr<support::CancelToken> token =
        std::make_shared<support::CancelToken>();
    std::int64_t submit_ns = 0;
    std::int64_t deadline_ns = 0; ///< absolute Timer::now_ns(); 0 = none
    /** Half-open probe: the breaker granted this request a probe slot;
     *  its outcome (or non-execution) must be reported back.  Written
     *  before enqueue, read after the queue handoff. */
    bool probe = false;
    std::atomic<bool> user_cancelled{false};
    /** The server's lane gate; lets cancel() wake a leader blocked in
     *  acquire_lanes without touching the (possibly destroyed) server. */
    std::shared_ptr<LaneGate> gate;

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    support::Status status;
    QueryResult result;
    /** The in-flight execution this request joined as a follower (null
     *  otherwise); guarded by mu.  Lets cancel() wake the follower's
     *  wait the way gate lets it wake a lane waiter. */
    std::shared_ptr<ResultCache::Inflight> flight;
};

/**
 * Everything one submitted plan carries: the request, resolved handles,
 * one cancel token per node (plus the plan-wide one), and the
 * handle-visible completion slot.  Heap-owned, shared by the PlanHandle
 * and the driver thread, for the same lifetime reason as RequestState.
 */
struct PlanState
{
    PlanRequest req;
    const harness::Framework* fw = nullptr;
    /** The graph, pinned() at submit: every node reads this generation.
     *  Reset when the plan settles, so a finished plan pins nothing. */
    std::shared_ptr<const harness::Dataset> ds;
    std::uint64_t generation = 0; ///< id of the generation ds pins
    /** Plan-wide cancel: PlanHandle::cancel() raises it; every node
     *  token mirrors it so executing kernels unwind cooperatively. */
    std::shared_ptr<support::CancelToken> token =
        std::make_shared<support::CancelToken>();
    /** One token per node, indexed by node id: the node's deadline timer
     *  raises only its own token, so one slow node expires without
     *  cancelling siblings mid-kernel. */
    std::vector<std::shared_ptr<support::CancelToken>> node_tokens;
    /** The server's lane gate (see RequestState::gate). */
    std::shared_ptr<LaneGate> gate;
    std::int64_t submit_ns = 0;

    /** Per-node outcomes, indexed by node id.  Each slot is written by
     *  exactly one node thread and read by the driver only after that
     *  thread joined — no lock needed. */
    std::vector<PlanNodeResult> node_results;

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    support::Status status;
    PlanResult result;
    /** In-flight executions this plan's nodes joined as followers;
     *  guarded by mu.  Lets cancel() wake those waits (see
     *  RequestState::flight). */
    std::vector<std::shared_ptr<ResultCache::Inflight>> flights;
};

} // namespace gm::serve::detail

/**
 * Tests for gm::plan and Server::submit_plan: plan validation and
 * fingerprints, the reference executor's aggregation semantics, the
 * determinism property (every plan node bit-identical to independent
 * reference execution at any lane width), sub-plan single-flight across
 * concurrent plans (exactly-once), generation-tagged invalidation
 * composing with mutate(), and per-node deadlines/cancellation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/graph/frontier.hh"
#include "gm/graph/generators.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/par/thread_pool.hh"
#include "gm/plan/execute.hh"
#include "gm/plan/plan.hh"
#include "gm/serve/server.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/rng.hh"

namespace gm::serve
{
namespace
{

using harness::Kernel;
using harness::Mode;
using support::StatusCode;

const harness::DatasetSuite&
suite()
{
    static const harness::DatasetSuite s = harness::make_gap_suite(8);
    return s;
}

const std::vector<harness::Framework>&
frameworks()
{
    static const std::vector<harness::Framework> f =
        harness::make_frameworks();
    return f;
}

const harness::Dataset&
dataset(const std::string& name)
{
    for (const auto& ds : suite().datasets) {
        if (ds->name == name)
            return *ds;
    }
    throw std::runtime_error("no such dataset: " + name);
}

/** Reference execution: the plan::execute ground truth, serially. */
std::vector<plan::Value>
reference(const plan::Plan& p, const std::string& graph)
{
    par::SerialRegion serial;
    plan::Context ctx{&dataset(graph),
                      &frameworks()[harness::kGapIndex],
                      Mode::kBaseline};
    auto values = plan::execute(p, ctx);
    EXPECT_TRUE(values.is_ok()) << values.status().to_string();
    return std::move(values).value();
}

/** A private single-graph suite so mutations cannot leak across tests. */
harness::DatasetSuite
mutable_suite(std::uint64_t seed = 11)
{
    harness::DatasetSuite s;
    s.datasets.push_back(std::make_shared<harness::Dataset>(
        harness::make_dataset("Mut", graph::make_uniform(8, 4, seed), 4,
                              99)));
    return s;
}

/** RAII GM_FAULTS spec: armed for the test, disarmed on exit. */
struct ScopedFaults
{
    explicit ScopedFaults(const std::string& spec)
    {
        EXPECT_TRUE(
            support::FaultInjector::global().configure(spec).is_ok());
    }
    ~ScopedFaults() { support::FaultInjector::global().clear(); }
};

// ----------------------------------------------------------- validation

TEST(PlanTest, ValidateCatchesMalformedPlans)
{
    {
        plan::Plan p;
        p.add_batch(Kernel::kPR, {0, 1}); // PR cannot batch
        EXPECT_EQ(p.validate().code(), StatusCode::kInvalidInput);
    }
    {
        plan::Plan p;
        p.add_batch(Kernel::kBFS, {}); // empty batch
        EXPECT_EQ(p.validate().code(), StatusCode::kInvalidInput);
    }
    {
        plan::Plan p;
        const int bfs = p.add_kernel(Kernel::kBFS, 0);
        p.add_histogram(bfs, 0); // zero buckets
        EXPECT_EQ(p.validate().code(), StatusCode::kInvalidInput);
    }
    {
        plan::Plan p;
        const int tc = p.add_kernel(Kernel::kTC);
        p.add_histogram(tc, 8); // histogram over a scalar
        EXPECT_EQ(p.validate().code(), StatusCode::kInvalidInput);
    }
    {
        plan::Plan p;
        const int bfs = p.add_kernel(Kernel::kBFS, 0);
        p.add_top_k(bfs, 0); // k must be >= 1
        EXPECT_EQ(p.validate().code(), StatusCode::kInvalidInput);
    }
    {
        plan::Plan p;
        const int pr = p.add_kernel(Kernel::kPR);
        p.add_component_reduce(pr, pr, plan::ReduceOp::kSum);
        // labels must be a vid vector, not scores
        EXPECT_EQ(p.validate().code(), StatusCode::kInvalidInput);
    }
    {
        plan::Plan p;
        const int bfs = p.add_kernel(Kernel::kBFS, 0);
        p.add_histogram(bfs, 16);
        EXPECT_TRUE(p.validate().is_ok());
    }
}

TEST(PlanTest, FingerprintIsStructuralAndLabelBlind)
{
    plan::Plan a;
    const int a_bfs = a.add_kernel(Kernel::kBFS, 3, "first");
    a.add_histogram(a_bfs, 16, "hist");

    plan::Plan b;
    const int b_bfs = b.add_kernel(Kernel::kBFS, 3, "renamed");
    b.add_histogram(b_bfs, 16);

    // Same structure, different labels: identical sub-plan fingerprints.
    EXPECT_EQ(a.fingerprint(0), b.fingerprint(0));
    EXPECT_EQ(a.fingerprint(1), b.fingerprint(1));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    plan::Plan c;
    const int c_bfs = c.add_kernel(Kernel::kBFS, 4); // different source
    c.add_histogram(c_bfs, 16);
    EXPECT_NE(a.fingerprint(0), c.fingerprint(0));
    EXPECT_NE(a.fingerprint(1), c.fingerprint(1));
}

TEST(PlanTest, WavesRespectDependencies)
{
    plan::Plan p;
    const int bfs = p.add_kernel(Kernel::kBFS, 0);
    const int cc = p.add_kernel(Kernel::kCC);
    const int hist = p.add_histogram(bfs, 8);
    const int pr = p.add_kernel(Kernel::kPR);
    const int reduce = p.add_component_reduce(cc, pr, plan::ReduceOp::kSum);
    const auto waves = p.waves();
    ASSERT_EQ(waves.size(), 2u);
    EXPECT_EQ(waves[0], (std::vector<int>{bfs, cc, pr}));
    EXPECT_EQ(waves[1], (std::vector<int>{hist, reduce}));
}

// --------------------------------------------------- aggregation semantics

TEST(PlanTest, AggregationSemantics)
{
    const plan::Value depths =
        std::vector<std::int32_t>{0, 1, 1, 2, -1, 2, 9};
    const plan::Value scores =
        std::vector<score_t>{0.5, 0.25, 0.25, 0.125, 0.125, 0.0, 1.0};

    plan::Plan p;
    // Node 0/1 stand in for real kernels; the executor only looks at the
    // input pointers we hand it for aggregation nodes.
    const int d = p.add_kernel(Kernel::kBFS, 0);
    const int s = p.add_kernel(Kernel::kPR);
    const int hist = p.add_histogram(d, 4);
    const int top = p.add_top_k(s, 3);
    plan::Context ctx{&dataset("Kron"),
                      &frameworks()[harness::kGapIndex], Mode::kBaseline};

    // Histogram: negatives skipped, overflow clamped into the last bucket.
    auto h = plan::execute_node(p, hist, {&depths}, ctx);
    ASSERT_TRUE(h.is_ok());
    EXPECT_EQ(std::get<std::vector<std::uint64_t>>(h.value()),
              (std::vector<std::uint64_t>{1, 2, 2, 1}));

    // Top-k: descending by value, ties broken toward the smaller index.
    auto t = plan::execute_node(p, top, {&scores}, ctx);
    ASSERT_TRUE(t.is_ok());
    EXPECT_EQ(std::get<std::vector<std::int32_t>>(t.value()),
              (std::vector<std::int32_t>{6, 0, 1}));

    // Component reduce over labels 0/1 partitions.
    plan::Plan q;
    const int labels = q.add_kernel(Kernel::kCC);
    const int values = q.add_kernel(Kernel::kPR);
    const int sum =
        q.add_component_reduce(labels, values, plan::ReduceOp::kSum);
    const plan::Value cc = std::vector<std::int32_t>{0, 0, 1, 1};
    const plan::Value pr = std::vector<score_t>{1.0, 2.0, 3.0, 4.0};
    auto r = plan::execute_node(q, sum, {&cc, &pr}, ctx);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(std::get<std::vector<score_t>>(r.value()),
              (std::vector<score_t>{3.0, 7.0, 0.0, 0.0}));
}

TEST(PlanTest, KernelNodeMatchesSingleSourceBatch)
{
    plan::Plan p;
    p.add_kernel(Kernel::kBFS, 5);
    p.add_batch(Kernel::kBFS, {5});
    const auto values = reference(p, "Kron");
    ASSERT_EQ(values.size(), 2u);
    // Identical payloads (depth semantics), even though the two nodes
    // have distinct structural fingerprints.
    EXPECT_EQ(result_fingerprint(values[0]), result_fingerprint(values[1]));
    EXPECT_NE(p.fingerprint(0), p.fingerprint(1));
}

// ------------------------------------------------- determinism property

/** A random typed DAG: kernel leaves, one multi-source BFS batch (often
 *  crossing the 64-lane fusion boundary), and aggregations over them. */
plan::Plan
random_plan(SplitMix64& rng, vid_t n)
{
    plan::Plan p;
    std::vector<int> vid_nodes;
    std::vector<int> score_nodes;
    int cc = -1;
    const int leaves = 2 + static_cast<int>(rng.next() % 3);
    for (int i = 0; i < leaves; ++i) {
        const vid_t src = static_cast<vid_t>(rng.next() % n);
        switch (rng.next() % 4) {
          case 0:
            vid_nodes.push_back(p.add_kernel(Kernel::kBFS, src));
            break;
          case 1:
            vid_nodes.push_back(p.add_kernel(Kernel::kSSSP, src));
            break;
          case 2:
            if (cc < 0)
                cc = p.add_kernel(Kernel::kCC);
            vid_nodes.push_back(cc);
            break;
          default:
            score_nodes.push_back(p.add_kernel(Kernel::kPR));
            break;
        }
    }
    const int batch_sources = 1 + static_cast<int>(rng.next() % 70);
    std::vector<vid_t> sources;
    sources.reserve(static_cast<std::size_t>(batch_sources));
    for (int i = 0; i < batch_sources; ++i)
        sources.push_back(static_cast<vid_t>(rng.next() % n));
    vid_nodes.push_back(p.add_batch(Kernel::kBFS, std::move(sources)));

    const int aggs = 1 + static_cast<int>(rng.next() % 3);
    for (int i = 0; i < aggs; ++i) {
        const bool from_scores =
            !score_nodes.empty() && rng.next() % 2 == 0;
        const int input =
            from_scores
                ? score_nodes[rng.next() % score_nodes.size()]
                : vid_nodes[rng.next() % vid_nodes.size()];
        if (rng.next() % 2 == 0)
            p.add_histogram(input,
                            1 + static_cast<int>(rng.next() % 32));
        else
            p.add_top_k(input, 1 + static_cast<int>(rng.next() % 8));
    }
    if (cc >= 0 && !score_nodes.empty())
        p.add_component_reduce(cc, score_nodes[0], plan::ReduceOp::kSum);
    EXPECT_TRUE(p.validate().is_ok());
    return p;
}

TEST(PlanServeTest, RandomPlansBitIdenticalAcrossWidths)
{
    const vid_t n = dataset("Kron").g().num_vertices();
    SplitMix64 rng(0x9a3cull);
    for (int trial = 0; trial < 4; ++trial) {
        const plan::Plan p = random_plan(rng, n);
        const std::vector<plan::Value> ref = reference(p, "Kron");
        ASSERT_EQ(static_cast<int>(ref.size()), p.size());
        for (const int width : {1, 2, 5, 8}) {
            Server server(suite(), frameworks(),
                          ServerOptions{.workers = 2, .lane_budget = 8});
            PlanRequest req;
            req.graph = "Kron";
            req.plan = p;
            req.width = width;
            auto result = server.run_plan(req);
            ASSERT_TRUE(result.is_ok())
                << "trial " << trial << " width " << width << ": "
                << result.status().to_string();
            ASSERT_EQ(result.value().nodes.size(), ref.size());
            for (int id = 0; id < p.size(); ++id) {
                const PlanNodeResult& node =
                    result.value().nodes[static_cast<std::size_t>(id)];
                ASSERT_TRUE(node.status.is_ok());
                ASSERT_NE(node.value, nullptr);
                EXPECT_EQ(node.fingerprint,
                          result_fingerprint(
                              ref[static_cast<std::size_t>(id)]))
                    << "node " << id << " diverged at width " << width;
            }
        }
    }
}

TEST(PlanServeTest, SharedSubPlanWithinOnePlanExecutesOnce)
{
    // Two aggregations over the SAME batch node: the batch runs once and
    // both consumers read the shared payload.
    plan::Plan p;
    const int batch = p.add_batch(Kernel::kBFS, {1, 2, 3, 4});
    p.add_histogram(batch, 8);
    p.add_top_k(batch, 4);

    Server server(suite(), frameworks(), ServerOptions{.workers = 2});
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    auto result = server.run_plan(req);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().executed, 3);
    EXPECT_EQ(result.value().fused_sweeps, 1);
    EXPECT_EQ(result.value().sources_fused, 4);

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.plans_submitted, 1u);
    EXPECT_EQ(stats.plans_completed, 1u);
    EXPECT_EQ(stats.plan_nodes, 3u);
    EXPECT_EQ(stats.plan_nodes_executed, 3u);
    EXPECT_EQ(stats.plan_fused_sweeps, 1u);
    EXPECT_EQ(stats.plan_sources_fused, 4u);
}

TEST(PlanServeTest, ConcurrentPlansSingleFlightSharedSubPlans)
{
    // The same 3-node plan submitted twice, concurrently.  Whatever the
    // interleaving — follower joins or cache hits — each distinct
    // sub-plan executes exactly once server-wide.
    plan::Plan p;
    const int batch = p.add_batch(Kernel::kBFS, {7, 9, 11});
    p.add_histogram(batch, 16);
    p.add_top_k(batch, 8);

    Server server(suite(), frameworks(), ServerOptions{.workers = 2});
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    auto first = server.submit_plan(req);
    auto second = server.submit_plan(req);
    ASSERT_TRUE(first.is_ok());
    ASSERT_TRUE(second.is_ok());
    auto r1 = first.value().wait();
    auto r2 = second.value().wait();
    ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
    ASSERT_TRUE(r2.is_ok()) << r2.status().to_string();

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.plans_completed, 2u);
    EXPECT_EQ(stats.plan_nodes, 6u);
    // The exactly-once guarantee, stated over the whole server: 3 unique
    // sub-plans, 3 executions; the duplicate plan's 3 nodes were served
    // as hits or follower joins.
    EXPECT_EQ(stats.plan_nodes_executed, 3u);
    EXPECT_EQ(stats.plan_node_cache_hits + stats.plan_nodes_shared, 3u);
    // And both plans agree bit-for-bit.
    for (std::size_t id = 0; id < 3; ++id)
        EXPECT_EQ(r1.value().nodes[id].fingerprint,
                  r2.value().nodes[id].fingerprint);
}

// --------------------------------------------- generations and failures

TEST(PlanServeTest, MutateInvalidatesPlanCache)
{
    Server server(mutable_suite(), frameworks(),
                  ServerOptions{.workers = 2});
    plan::Plan p;
    const int cc = p.add_kernel(Kernel::kCC);
    p.add_histogram(cc, 8);

    PlanRequest req;
    req.graph = "Mut";
    req.plan = p;
    auto before = server.run_plan(req);
    ASSERT_TRUE(before.is_ok()) << before.status().to_string();
    EXPECT_EQ(before.value().generation, 0u);
    EXPECT_EQ(before.value().executed, 2);

    // Same plan again: all hits, nothing executes.
    auto again = server.run_plan(req);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().executed, 0);
    EXPECT_EQ(again.value().cache_hits, 2);

    // A compaction bumps the generation; every plan entry goes stale.
    dyn::MutationBatch batch;
    batch.insert(0, 200);
    auto outcome = server.mutate("Mut", batch);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    ASSERT_TRUE(outcome.value().compacted);

    auto after = server.run_plan(req);
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(after.value().executed, 2);
    EXPECT_EQ(after.value().cache_hits, 0);
    EXPECT_EQ(after.value().generation, 1u);
}

TEST(PlanServeTest, SubmitRejectsBadPlans)
{
    Server server(suite(), frameworks(), ServerOptions{.workers = 1});
    PlanRequest req;
    req.graph = "Kron";
    EXPECT_EQ(server.submit_plan(req).status().code(),
              StatusCode::kInvalidInput); // empty plan

    req.plan.add_kernel(Kernel::kBFS, 1 << 20); // out-of-range source
    EXPECT_EQ(server.submit_plan(req).status().code(),
              StatusCode::kInvalidInput);

    PlanRequest unknown;
    unknown.graph = "NoSuchGraph";
    unknown.plan.add_kernel(Kernel::kBFS, 0);
    EXPECT_EQ(server.submit_plan(unknown).status().code(),
              StatusCode::kInvalidInput);
}

TEST(PlanServeTest, NodeDeadlineFailsThePlan)
{
    // A delay fault stretches the node past its deadline; the deadline
    // timer raises the node's token and the plan reports the expiry.
    ScopedFaults faults("serve.plan.node:1:3:delay=80");
    Server server(suite(), frameworks(), ServerOptions{.workers = 1});
    plan::Plan p;
    p.add_kernel(Kernel::kBFS, 0);
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    req.node_deadline_ms = 20;
    auto result = server.run_plan(req);
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.stats_snapshot().plans_failed, 1u);
}

TEST(PlanServeTest, CancelStopsThePlan)
{
    ScopedFaults faults("serve.plan.node:1:3:delay=80");
    Server server(suite(), frameworks(), ServerOptions{.workers = 1});
    plan::Plan p;
    const int bfs = p.add_kernel(Kernel::kBFS, 2);
    p.add_histogram(bfs, 8);
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    auto handle = server.submit_plan(req);
    ASSERT_TRUE(handle.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    handle.value().cancel();
    auto result = handle.value().wait();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(PlanServeTest, CancelWakesANodeWaitingForLanes)
{
    // A delayed query leader holds the only lane, so the plan's node
    // blocks in the lane wait; cancel() must wake it, not the release.
    ScopedFaults faults("serve.execute:1x:4:delay=400");
    Server server(suite(), frameworks(),
                  ServerOptions{.workers = 1, .lane_budget = 1});
    Request query;
    query.kernel = Kernel::kBFS;
    query.graph = "Kron";
    query.source = 3;
    auto leader = server.submit(query);
    ASSERT_TRUE(leader.is_ok());
    for (int i = 0; i < 500 && server.stats_snapshot().executions == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(server.stats_snapshot().executions, 1u);

    plan::Plan p;
    p.add_kernel(Kernel::kBFS, 5);
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    auto handle = server.submit_plan(req);
    ASSERT_TRUE(handle.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const auto begin = std::chrono::steady_clock::now();
    handle.value().cancel();
    auto result = handle.value().wait();
    const auto waited = std::chrono::steady_clock::now() - begin;
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_LT(waited, std::chrono::milliseconds(50));
    EXPECT_TRUE(leader.value().wait().is_ok());
    EXPECT_EQ(server.stats_snapshot().plan_nodes_executed, 0u);
}

TEST(PlanServeTest, CancelWakesANodeJoinedToAnotherPlansFlight)
{
    // The first plan's node leads (and sleeps in the delay fault); the
    // second plan's identical node joins that flight.  Cancelling the
    // second plan must wake its follower wait at once.
    ScopedFaults faults("serve.plan.node:1x:5:delay=400");
    Server server(suite(), frameworks(), ServerOptions{.workers = 1});
    plan::Plan p;
    p.add_kernel(Kernel::kBFS, 4);
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    auto first = server.submit_plan(req);
    ASSERT_TRUE(first.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto second = server.submit_plan(req);
    ASSERT_TRUE(second.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const auto begin = std::chrono::steady_clock::now();
    second.value().cancel();
    auto cancelled = second.value().wait();
    const auto waited = std::chrono::steady_clock::now() - begin;
    ASSERT_FALSE(cancelled.is_ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_LT(waited, std::chrono::milliseconds(50));

    auto led = first.value().wait();
    ASSERT_TRUE(led.is_ok()) << led.status().to_string();
    // Only the first plan executed: the second really was a follower.
    EXPECT_EQ(server.stats_snapshot().plan_nodes_executed, 1u);
}

TEST(PlanServeTest, InjectedFaultFailsTheNodeDeterministically)
{
    ScopedFaults faults("serve.plan.node:1x:3");
    Server server(suite(), frameworks(), ServerOptions{.workers = 1});
    plan::Plan p;
    p.add_kernel(Kernel::kCC);
    PlanRequest req;
    req.graph = "Kron";
    req.plan = p;
    auto result = server.run_plan(req);
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(server.stats_snapshot().plans_failed, 1u);

    // The failed flight is not cached: the next submission re-executes
    // (the injector fired exactly once) and succeeds.
    auto retry = server.run_plan(req);
    ASSERT_TRUE(retry.is_ok()) << retry.status().to_string();
    EXPECT_EQ(retry.value().executed, 1);
}

TEST(PlanServeTest, PlanRecordIsAppendedToMetricsStream)
{
    const std::string path = "plan_test_metrics.jsonl";
    std::remove(path.c_str());
    {
        ServerOptions options;
        options.workers = 2;
        options.metrics_path = path;
        Server server(suite(), frameworks(), options);
        plan::Plan p;
        const int batch = p.add_batch(Kernel::kBFS, {1, 2, 3});
        p.add_histogram(batch, 8);
        PlanRequest req;
        req.graph = "Kron";
        req.plan = p;
        auto result = server.run_plan(req);
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    bool found = false;
    while (std::getline(in, line)) {
        if (line.find("\"kind\":\"serve.plan\"") == std::string::npos)
            continue;
        found = true;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
        EXPECT_NE(line.find("\"nodes\":2"), std::string::npos);
        EXPECT_NE(line.find("\"executed\":2"), std::string::npos);
        EXPECT_NE(line.find("\"fused_sweeps\":1"), std::string::npos);
        EXPECT_NE(line.find("\"sources_fused\":3"), std::string::npos);
    }
    EXPECT_TRUE(found);
    std::remove(path.c_str());
}

} // namespace
} // namespace gm::serve

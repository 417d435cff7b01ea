/**
 * Tests for gm::serve: the result cache (LRU + single-flight), the
 * concurrent query server (admission control, deadlines, cancellation,
 * cache interaction), bit-identical agreement with direct framework
 * execution, and the per-server telemetry ledger behind stats_snapshot().
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/graph/generators.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/obs/metrics.hh"
#include "gm/par/thread_pool.hh"
#include "gm/serve/cache.hh"
#include "gm/serve/server.hh"
#include "gm/support/clock.hh"
#include "gm/support/fault_injector.hh"
#include "gm/telemetry/exposition.hh"

namespace gm::serve
{
namespace
{

using harness::Kernel;
using harness::Mode;
using support::StatusCode;

/** Shared scale-8 suite + frameworks: built once for the whole binary. */
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

Server
make_server(ServerOptions options)
{
    return Server(suite(), frameworks(), options);
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

/** Run @p fn serially on this thread, exactly as a serve worker would. */
template <typename Fn>
ResultValue
direct(Fn&& fn)
{
    par::SerialRegion serial;
    return std::forward<Fn>(fn)();
}

/** Spin until @p pred or ~4 s; returns whether it held. */
template <typename Pred>
bool
eventually(Pred&& pred)
{
    for (int i = 0; i < 2000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

// ---------------------------------------------------------------- cache

std::shared_ptr<const ResultValue>
int_result(int n, std::int32_t fill)
{
    return std::make_shared<const ResultValue>(
        std::vector<std::int32_t>(static_cast<std::size_t>(n), fill));
}

TEST(ResultCacheTest, LruEvictionIsByteAccounted)
{
    // Each 100-int payload costs 400 bytes + vector header + 1-byte key.
    const std::size_t entry = result_bytes(*int_result(100, 0)) + 1;
    ResultCache cache(2 * entry + entry / 2); // room for two entries only

    auto publish_ok = [&cache](const std::string& key, std::int32_t fill) {
        auto lookup = cache.lookup_or_join(key);
        ASSERT_EQ(lookup.role, ResultCache::Role::kLeader);
        auto value = int_result(100, fill);
        cache.publish(key, lookup.flight, support::Status::ok(), value,
                      result_fingerprint(*value));
    };

    publish_ok("a", 1);
    publish_ok("b", 2);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Touch "a" so "b" is the LRU victim of the next insertion.
    EXPECT_EQ(cache.lookup_or_join("a").role, ResultCache::Role::kHit);
    publish_ok("c", 3);

    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup_or_join("a").role, ResultCache::Role::kHit);
    EXPECT_EQ(cache.lookup_or_join("c").role, ResultCache::Role::kHit);
    EXPECT_EQ(cache.lookup_or_join("b").role, ResultCache::Role::kLeader);
    EXPECT_LE(cache.stats().bytes, 2 * entry + entry / 2);
}

TEST(ResultCacheTest, OversizeResultsAreNotCached)
{
    ResultCache cache(64);
    auto lookup = cache.lookup_or_join("big");
    ASSERT_EQ(lookup.role, ResultCache::Role::kLeader);
    auto value = int_result(1000, 9);
    cache.publish("big", lookup.flight, support::Status::ok(), value,
                  result_fingerprint(*value));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.lookup_or_join("big").role, ResultCache::Role::kLeader);
}

TEST(ResultCacheTest, FailedLeaderLeavesNoEntryAndWakesFollowers)
{
    ResultCache cache(1 << 20);
    auto leader = cache.lookup_or_join("k");
    ASSERT_EQ(leader.role, ResultCache::Role::kLeader);
    auto follower = cache.lookup_or_join("k");
    ASSERT_EQ(follower.role, ResultCache::Role::kFollower);
    EXPECT_EQ(follower.flight, leader.flight);

    cache.publish("k", leader.flight,
                  support::Status(StatusCode::kKernelError, "boom"),
                  nullptr, 0);
    {
        std::lock_guard<std::mutex> lock(follower.flight->mu);
        EXPECT_TRUE(follower.flight->done);
        EXPECT_EQ(follower.flight->status.code(),
                  StatusCode::kKernelError);
        EXPECT_EQ(follower.flight->value, nullptr);
    }
    EXPECT_EQ(cache.stats().entries, 0u);
    // The key is executable again, by a fresh leader.
    EXPECT_EQ(cache.lookup_or_join("k").role, ResultCache::Role::kLeader);
}

TEST(ResultValueTest, FingerprintSeparatesAlternativesAndContent)
{
    const ResultValue a = std::vector<std::int32_t>{1, 2, 3};
    const ResultValue b = std::vector<std::int32_t>{1, 2, 4};
    const ResultValue c = std::vector<score_t>{1.0, 2.0};
    const ResultValue d = std::uint64_t{42};
    EXPECT_EQ(result_fingerprint(a), result_fingerprint(a));
    EXPECT_NE(result_fingerprint(a), result_fingerprint(b));
    EXPECT_NE(result_fingerprint(a), result_fingerprint(c));
    EXPECT_NE(result_fingerprint(c), result_fingerprint(d));
    EXPECT_EQ(result_bytes(d), sizeof(std::uint64_t));
    EXPECT_GE(result_bytes(a), 3 * sizeof(std::int32_t));
}

// --------------------------------------------------------------- server

TEST(ServeTest, RejectsInvalidRequests)
{
    ServerOptions options;
    options.workers = 1;
    Server server = make_server(options);

    Request req;
    req.graph = "Kron";
    req.framework = "no-such-framework";
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);

    req.framework = "GAP";
    req.graph = "NoSuchGraph";
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);

    req.graph = "Kron";
    req.source = -1;
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);
    req.source = suite()[3].g().num_vertices();
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);
}

TEST(ServeTest, EightConcurrentQueriesMatchDirectExecution)
{
    // Hold every execution in serve.execute for 300 ms so the full worker
    // pool is observably busy at once; 16 distinct queries over two
    // graphs through 8 workers.
    ScopedFaults faults("serve.execute:16x:1:delay=300");
    ServerOptions options;
    options.workers = 8;
    options.queue_capacity = 16;
    Server server = make_server(options);

    const harness::Dataset& kron = suite()[3];
    const harness::Dataset& road = suite()[0];
    ASSERT_EQ(kron.name, "Kron");
    ASSERT_EQ(road.name, "Road");

    std::vector<Server::Handle> handles;
    std::vector<Request> requests;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.framework = "GAP";
        req.kernel = i % 2 == 0 ? Kernel::kBFS : Kernel::kSSSP;
        req.graph = i % 2 == 0 ? "Kron" : "Road";
        req.source = (i % 2 == 0 ? kron : road).sources[i];
        requests.push_back(req);
        req.kernel = i % 2 == 0 ? Kernel::kSSSP : Kernel::kBFS;
        requests.push_back(req);
    }
    for (const Request& req : requests) {
        auto handle = server.submit(req);
        ASSERT_TRUE(handle.is_ok()) << handle.status().to_string();
        handles.push_back(*std::move(handle));
    }

    // All 8 workers must be in flight simultaneously at some point.
    int max_in_flight = 0;
    eventually([&] {
        const ServerStats s = server.stats_snapshot();
        max_in_flight = std::max(
            max_in_flight, static_cast<int>(s.executions - s.completed));
        return max_in_flight >= 8;
    });
    EXPECT_GE(max_in_flight, 8);

    for (std::size_t i = 0; i < handles.size(); ++i) {
        auto got = handles[i].wait();
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        const Request& req = requests[i];
        const harness::Dataset& ds = req.graph == "Kron" ? kron : road;
        const ResultValue expected = direct([&] {
            return req.kernel == Kernel::kBFS
                       ? ResultValue(frameworks()[harness::kGapIndex].bfs(
                             ds, req.source, req.mode))
                       : ResultValue(frameworks()[harness::kGapIndex].sssp(
                             ds, req.source, req.mode));
        });
        EXPECT_EQ(got->fingerprint, result_fingerprint(expected)) << i;
        EXPECT_TRUE(*got->value == expected) << i;
        EXPECT_GE(got->queue_seconds, 0.0);
    }
    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.submitted, requests.size());
    EXPECT_EQ(stats.executions, requests.size()); // all distinct
    EXPECT_EQ(stats.succeeded, requests.size());
    EXPECT_EQ(stats.shed, 0u);
}

TEST(ServeTest, WideRequestsMatchSerialResultsBitForBit)
{
    // The core determinism promise of parallel serving: the same query
    // executed at widths 1, 2, 5, and 8 returns byte-identical payloads
    // (width is a latency knob, never an answer knob).  Cache off so
    // every submission actually executes.
    ServerOptions options;
    options.workers = 2;
    options.lane_budget = 8;
    options.cache_capacity_bytes = 0;
    Server server = make_server(options);

    const harness::Dataset& kron = suite()[3];
    const ResultValue expected = direct([&] {
        return ResultValue(frameworks()[harness::kGapIndex].pr(
            kron, Mode::kBaseline));
    });

    for (const int width : {1, 2, 5, 8}) {
        Request req;
        req.framework = "GAP";
        req.kernel = Kernel::kPR; // float kernel: reassociation-sensitive
        req.graph = "Kron";
        req.width = width;
        auto got = server.query(req);
        ASSERT_TRUE(got.is_ok())
            << "width " << width << ": " << got.status().to_string();
        EXPECT_EQ(got->fingerprint, result_fingerprint(expected))
            << "width " << width;
        EXPECT_TRUE(*got->value == expected) << "width " << width;
        // The lease is best-effort, but at least the caller's lane ran.
        EXPECT_GE(got->lanes, 1) << "width " << width;
        EXPECT_LE(got->lanes, width) << "width " << width;
        EXPECT_GE(got->parallel_efficiency, 0.0);
        EXPECT_LE(got->parallel_efficiency, 1.0);
    }

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.executions, 4u);
    EXPECT_GE(stats.lanes_granted, 4u); // >= 1 lane per execution
}

TEST(ServeTest, WidthIsClampedToTheLaneBudget)
{
    ServerOptions options;
    options.workers = 1;
    options.lane_budget = 2;
    options.cache_capacity_bytes = 0;
    Server server = make_server(options);

    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kBFS;
    req.graph = "Road";
    req.source = suite()[0].sources[0];
    req.width = 64; // far beyond the budget
    auto got = server.query(req);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_LE(got->lanes, 2);

    req.width = -3; // nonsense widths degrade to serial, not an error
    got = server.query(req);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_GE(got->lanes, 1);
}

TEST(ServeTest, EveryKernelAndAliasServes)
{
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);
    for (Kernel kernel : harness::kAllKernels) {
        Request req;
        req.framework = "gkc"; // lowercase alias
        req.kernel = kernel;
        req.graph = "Urand";
        req.source = suite()[4].sources[0];
        auto got = server.query(req);
        ASSERT_TRUE(got.is_ok())
            << harness::to_string(kernel) << ": "
            << got.status().to_string();
        EXPECT_NE(got->fingerprint, 0u);
    }
}

TEST(ServeTest, RepeatedQueryHitsCacheWithSameResult)
{
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);
    Request req;
    req.kernel = Kernel::kPR;
    req.graph = "Web";

    auto first = server.query(req);
    ASSERT_TRUE(first.is_ok());
    EXPECT_FALSE(first->cache_hit);

    // Source is irrelevant to PR: a different one still hits.
    req.source = suite()[2].sources[1];
    auto second = server.query(req);
    ASSERT_TRUE(second.is_ok());
    EXPECT_TRUE(second->cache_hit);
    EXPECT_EQ(second->fingerprint, first->fingerprint);
    EXPECT_EQ(second->value, first->value); // zero-copy: same payload
    EXPECT_EQ(second->execute_seconds, 0.0);

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.executions, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_GT(stats.cache_bytes, 0u);
    EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(ServeTest, IdenticalBurstSingleFlightsToOneExecution)
{
    // The leader sleeps 400 ms in serve.execute, so the rest of the burst
    // joins its flight (or hits the cache if it lands after publish).
    ScopedFaults faults("serve.execute:1x:2:delay=400");
    ServerOptions options;
    options.workers = 4;
    options.queue_capacity = 16;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kCC;
    req.graph = "Twitter";

    auto leader = server.submit(req);
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    std::vector<Server::Handle> handles;
    for (int i = 0; i < 7; ++i) {
        auto handle = server.submit(req);
        ASSERT_TRUE(handle.is_ok());
        handles.push_back(*std::move(handle));
    }

    auto first = leader->wait();
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    for (auto& handle : handles) {
        auto got = handle.wait();
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        EXPECT_EQ(got->fingerprint, first->fingerprint);
        EXPECT_TRUE(got->cache_hit || got->shared_execution);
    }

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.executions, 1u); // 8 requests, one kernel run
    EXPECT_EQ(stats.single_flight_joins + stats.cache_hits, 7u);
}

TEST(ServeTest, DeadlineExceededLeavesServerServing)
{
    ScopedFaults faults("serve.execute:1x:3:delay=400");
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kBFS;
    req.graph = "Kron";
    req.source = suite()[3].sources[0];
    req.deadline_ms = 50;

    auto got = server.query(req);
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.stats_snapshot().deadline_exceeded, 1u);

    // No partial result was cached, and the server still serves: the same
    // query (without deadline) executes fresh and succeeds.
    EXPECT_EQ(server.stats_snapshot().cache_entries, 0u);
    req.deadline_ms = 0;
    auto retry = server.query(req);
    ASSERT_TRUE(retry.is_ok()) << retry.status().to_string();
    EXPECT_FALSE(retry->cache_hit);
    EXPECT_EQ(server.stats_snapshot().executions, 2u);

    const ResultValue expected = direct([&] {
        return ResultValue(frameworks()[harness::kGapIndex].bfs(
            suite()[3], req.source, req.mode));
    });
    EXPECT_EQ(retry->fingerprint, result_fingerprint(expected));
}

TEST(ServeTest, DeadlineExpiringInQueueSkipsExecution)
{
    ScopedFaults faults("serve.execute:1x:4:delay=300");
    ServerOptions options;
    options.workers = 1;
    Server server = make_server(options);

    Request blocker;
    blocker.kernel = Kernel::kBFS;
    blocker.graph = "Road";
    blocker.source = suite()[0].sources[0];
    auto first = server.submit(blocker);
    ASSERT_TRUE(first.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // Queued behind a 300 ms execution with a 30 ms budget: it must come
    // back DEADLINE_EXCEEDED without ever executing.
    Request doomed = blocker;
    doomed.source = suite()[0].sources[1];
    doomed.deadline_ms = 30;
    auto got = server.query(doomed);
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(first->wait().is_ok());
    EXPECT_EQ(server.stats_snapshot().executions, 1u);
}

TEST(ServeTest, FullQueueShedsDeterministically)
{
    ScopedFaults faults("serve.execute:1x:5:delay=400");
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kBFS;
    req.graph = "Urand";

    // Blocker occupies the only worker...
    req.source = suite()[4].sources[0];
    auto blocker = server.submit(req);
    ASSERT_TRUE(blocker.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // ...two distinct queries fill the queue...
    std::vector<Server::Handle> queued;
    for (int i = 1; i <= 2; ++i) {
        req.source = suite()[4].sources[i];
        auto handle = server.submit(req);
        ASSERT_TRUE(handle.is_ok()) << i;
        queued.push_back(*std::move(handle));
    }

    // ...and the next submissions shed, deterministically, without
    // blocking.
    for (int i = 3; i <= 5; ++i) {
        req.source = suite()[4].sources[i];
        auto refused = server.submit(req);
        ASSERT_FALSE(refused.is_ok()) << i;
        EXPECT_EQ(refused.status().code(),
                  StatusCode::kResourceExhausted);
    }
    EXPECT_EQ(server.stats_snapshot().shed, 3u);

    EXPECT_TRUE(blocker->wait().is_ok());
    for (auto& handle : queued)
        EXPECT_TRUE(handle.wait().is_ok());

    // Capacity recovered: the previously shed query is accepted now.
    req.source = suite()[4].sources[3];
    EXPECT_TRUE(server.query(req).is_ok());
}

TEST(ServeTest, CancelledMidKernelLeavesNoCacheEntry)
{
    ScopedFaults faults("serve.execute:1x:6:delay=400");
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kSSSP;
    req.graph = "Web";
    req.source = suite()[2].sources[0];

    auto leader = server.submit(req);
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // An identical concurrent query joins the leader's flight...
    auto follower = server.submit(req);
    ASSERT_TRUE(follower.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().single_flight_joins == 1; }));

    // ...then the leader is cancelled mid-kernel.
    leader->cancel();
    auto leader_result = leader->wait();
    ASSERT_FALSE(leader_result.is_ok());
    EXPECT_EQ(leader_result.status().code(), StatusCode::kCancelled);

    // The follower's answer was never computed: CANCELLED, retryable.
    auto follower_result = follower->wait();
    ASSERT_FALSE(follower_result.is_ok());
    EXPECT_EQ(follower_result.status().code(), StatusCode::kCancelled);

    // No partial result poisoned the cache; a retry executes fresh and
    // matches direct execution.
    EXPECT_EQ(server.stats_snapshot().cache_entries, 0u);
    auto retry = server.query(req);
    ASSERT_TRUE(retry.is_ok()) << retry.status().to_string();
    EXPECT_FALSE(retry->cache_hit);
    const ResultValue expected = direct([&] {
        return ResultValue(frameworks()[harness::kGapIndex].sssp(
            suite()[2], req.source, req.mode));
    });
    EXPECT_EQ(retry->fingerprint, result_fingerprint(expected));
    EXPECT_EQ(server.stats_snapshot().cancelled, 2u);
}

TEST(ServeTest, WritesParseableMetricsRecords)
{
    const std::string path =
        testing::TempDir() + "gm_serve_metrics_test.jsonl";
    std::remove(path.c_str());
    {
        ServerOptions options;
        options.workers = 2;
        options.metrics_path = path;
        Server server = make_server(options);
        Request req;
        req.kernel = Kernel::kBFS;
        req.graph = "Kron";
        req.source = suite()[3].sources[0];
        ASSERT_TRUE(server.query(req).is_ok());
        ASSERT_TRUE(server.query(req).is_ok()); // cache hit
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int executed = 0;
    int hits = 0;
    int records = 0;
    while (std::getline(in, line)) {
        auto record = obs::parse_metrics_record_line(line);
        ASSERT_TRUE(record.is_ok()) << line;
        EXPECT_EQ(record->framework, "GAP");
        EXPECT_EQ(record->kernel, "BFS");
        EXPECT_EQ(record->graph, "Kron");
        EXPECT_TRUE(record->metrics.span_seconds.count("serve.queue_wait"))
            << line;
        if (record->metrics.span_seconds.count("serve.execute"))
            ++executed;
        if (record->metrics.counter_or("serve.cache_hit") > 0)
            ++hits;
        ++records;
    }
    EXPECT_EQ(records, 2);
    EXPECT_EQ(executed, 1);
    EXPECT_EQ(hits, 1);
    std::remove(path.c_str());
}

// ------------------------------------------------------ inline cache hits

Request
bfs_on(const std::string& graph, vid_t source)
{
    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kBFS;
    req.graph = graph;
    req.source = source;
    return req;
}

void
expect_invariants(const ServerStats& s)
{
    EXPECT_EQ(s.completed, s.succeeded + s.deadline_exceeded + s.cancelled +
                               s.failed);
    EXPECT_GE(s.submitted, s.completed + s.queue_depth);
    EXPECT_LE(s.degraded, s.succeeded);
}

TEST(ServeTest, FreshHitIsCompleteWhenSubmitReturns)
{
    ServerOptions options;
    options.workers = 1;
    Server server = make_server(options);
    const Request req = bfs_on("Kron", suite()[3].sources[0]);
    auto first = server.query(req);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();

    auto handle = server.submit(req);
    ASSERT_TRUE(handle.is_ok());
    auto hit = handle->wait_for(0); // no worker involved: already done
    ASSERT_TRUE(hit.is_ok()) << hit.status().to_string();
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_EQ(hit->queue_seconds, 0.0);
    EXPECT_EQ(hit->execute_seconds, 0.0);
    EXPECT_EQ(hit->fingerprint, first->fingerprint);
    EXPECT_EQ(hit->value, first->value);
    EXPECT_NE(hit->trace_id, 0u);

    const ServerStats s = server.stats_snapshot();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.succeeded, 2u);
    EXPECT_EQ(s.cache_hits, 1u);
    EXPECT_EQ(s.executions, 1u);
    expect_invariants(s);
}

TEST(ServeTest, HitsUseNoQueueSlotOrWorker)
{
    // Both workers are held by one delayed leader (one executes, one
    // waits as its follower) and the only queue slot is taken, so a miss
    // sheds — yet a cached query is still answered, because hits never
    // enter the queue.
    ServerOptions options;
    options.workers = 2;
    options.queue_capacity = 1;
    Server server = make_server(options);
    const std::vector<vid_t>& sources = suite()[4].sources;
    const Request cached = bfs_on("Urand", sources[0]);
    ASSERT_TRUE(server.query(cached).is_ok());

    ScopedFaults faults("serve.execute:1x:21:delay=400");
    auto leader = server.submit(bfs_on("Urand", sources[1]));
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 2; }));
    auto follower = server.submit(bfs_on("Urand", sources[1]));
    ASSERT_TRUE(follower.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().single_flight_joins == 1; }));
    auto queued = server.submit(bfs_on("Urand", sources[2]));
    ASSERT_TRUE(queued.is_ok());
    auto shed = server.submit(bfs_on("Urand", sources[3]));
    ASSERT_FALSE(shed.is_ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

    auto hit = server.submit(cached);
    ASSERT_TRUE(hit.is_ok()) << hit.status().to_string();
    auto got = hit->wait_for(0);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_TRUE(got->cache_hit);
    {
        const ServerStats s = server.stats_snapshot();
        EXPECT_EQ(s.queue_depth, 1u); // the hit never took the slot
        EXPECT_EQ(s.shed, 1u);
        EXPECT_EQ(s.cache_hits, 1u);
    }

    EXPECT_TRUE(leader->wait().is_ok());
    auto joined = follower->wait();
    ASSERT_TRUE(joined.is_ok());
    EXPECT_TRUE(joined->shared_execution);
    EXPECT_TRUE(queued->wait().is_ok());
    expect_invariants(server.stats_snapshot());
}

TEST(ServeTest, AdmissionFaultShedsACachedQuery)
{
    ServerOptions options;
    options.workers = 1;
    Server server = make_server(options);
    const Request req = bfs_on("Road", suite()[0].sources[0]);
    ASSERT_TRUE(server.query(req).is_ok());

    ScopedFaults faults("serve.admission:1:22");
    auto refused = server.submit(req);
    ASSERT_FALSE(refused.is_ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
    const ServerStats s = server.stats_snapshot();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.cache_hits, 0u);
    expect_invariants(s);
}

TEST(ServeTest, ExpiredEntryIsNotServedInline)
{
    support::ManualClock clock(1'000'000'000);
    ServerOptions options;
    options.workers = 1;
    options.cache_ttl_ms = 50;
    options.clock = &clock;
    Server server = make_server(options);
    const Request req = bfs_on("Web", suite()[2].sources[0]);
    ASSERT_TRUE(server.query(req).is_ok());
    auto hit = server.query(req);
    ASSERT_TRUE(hit.is_ok());
    EXPECT_TRUE(hit->cache_hit);

    clock.advance_ms(60); // past the TTL
    auto fresh = server.query(req);
    ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
    EXPECT_FALSE(fresh->cache_hit);
    EXPECT_FALSE(fresh->degraded);
    EXPECT_GT(fresh->execute_seconds, 0.0);
    EXPECT_EQ(fresh->fingerprint, hit->fingerprint);
    const ServerStats s = server.stats_snapshot();
    EXPECT_EQ(s.executions, 2u);
    EXPECT_EQ(s.cache_hits, 1u);
}

TEST(ServeTest, CancelledFollowerReturnsPromptly)
{
    // The follower's wait is event-driven: cancel() wakes it directly
    // instead of waiting for the 400 ms leader to publish.
    ScopedFaults faults("serve.execute:1x:23:delay=400");
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);
    const Request req = bfs_on("Twitter", suite()[1].sources[0]);

    auto leader = server.submit(req);
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));
    auto follower = server.submit(req);
    ASSERT_TRUE(follower.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().single_flight_joins == 1; }));

    const auto begin = std::chrono::steady_clock::now();
    follower->cancel();
    auto cancelled = follower->wait();
    const auto waited = std::chrono::steady_clock::now() - begin;
    ASSERT_FALSE(cancelled.is_ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_LT(waited, std::chrono::milliseconds(50));

    auto led = leader->wait();
    ASSERT_TRUE(led.is_ok()) << led.status().to_string();
    EXPECT_EQ(server.stats_snapshot().cancelled, 1u);
}

TEST(ServeTest, StatsInvariantsHoldAcrossMixedHitMissBurst)
{
    ServerOptions options;
    options.workers = 2;
    options.queue_capacity = 8;
    Server server = make_server(options);
    const std::vector<vid_t>& sources = suite()[0].sources;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(server.query(bfs_on("Road", sources[i])).is_ok());

    std::atomic<bool> done{false};
    std::thread sampler([&] {
        while (!done.load()) {
            expect_invariants(server.stats_snapshot());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    // Half the draws hit the four warmed entries, half miss on sources
    // that may shed, join, or execute.
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&server, &sources, t] {
            for (int i = 0; i < 40; ++i) {
                const std::size_t pick =
                    i % 2 == 0 ? static_cast<std::size_t>(i / 2 % 4)
                               : static_cast<std::size_t>(4 + (t + i) % 12);
                auto handle = server.submit(
                    bfs_on("Road", sources[pick % sources.size()]));
                if (handle.is_ok())
                    (void)handle->wait();
            }
        });
    }
    for (auto& client : clients)
        client.join();
    done.store(true);
    sampler.join();

    server.shutdown();
    const ServerStats s = server.stats_snapshot();
    expect_invariants(s);
    EXPECT_EQ(s.queue_depth, 0u);
    EXPECT_EQ(s.submitted, s.completed);
    EXPECT_GE(s.cache_hits, 80u); // every even draw is a warmed entry
}

// ----------------------------------------------------------- dyn / mutate

/** A private single-graph suite for mutation tests: mutating the shared
 *  suite() would invalidate other tests' cached expectations. */
harness::DatasetSuite
mutable_suite(std::uint64_t seed = 7)
{
    harness::DatasetSuite s;
    s.datasets.push_back(std::make_shared<harness::Dataset>(
        harness::make_dataset("Mut", graph::make_uniform(8, 4, seed), 4,
                              99)));
    return s;
}

TEST(ResultCacheTest, GenerationMismatchBehavesLikeExpiry)
{
    ResultCache cache(1 << 20);
    auto value = std::make_shared<const ResultValue>(
        std::vector<std::int32_t>{1, 2, 3});

    auto lookup = cache.lookup_or_join("k", /*generation=*/0);
    ASSERT_EQ(lookup.role, ResultCache::Role::kLeader);
    cache.publish("k", lookup.flight, support::Status::ok(), value, 42,
                  /*generation=*/0);

    // Same generation: a plain hit.
    auto hit = cache.lookup_or_join("k", 0);
    EXPECT_EQ(hit.role, ResultCache::Role::kHit);
    EXPECT_EQ(hit.generation, 0u);

    // Newer generation: not a hit — a fresh leader recomputes — but the
    // entry survives for degraded peeks, tagged with its old generation.
    auto stale = cache.lookup_or_join("k", 1);
    ASSERT_EQ(stale.role, ResultCache::Role::kLeader);
    EXPECT_EQ(cache.stats().stale_generation_misses, 1u);
    auto peek = cache.peek("k", 1);
    ASSERT_NE(peek.value, nullptr);
    EXPECT_FALSE(peek.fresh);
    EXPECT_EQ(peek.generation, 0u);
    EXPECT_EQ(peek.fingerprint, 42u);
    EXPECT_TRUE(cache.peek("k", 0).fresh);

    // The new leader's publish replaces the entry in place; generation 1
    // lookups hit again and the old answer is gone.
    auto fresh = std::make_shared<const ResultValue>(
        std::vector<std::int32_t>{4, 5, 6});
    cache.publish("k", stale.flight, support::Status::ok(), fresh, 43, 1);
    auto rehit = cache.lookup_or_join("k", 1);
    EXPECT_EQ(rehit.role, ResultCache::Role::kHit);
    EXPECT_EQ(rehit.generation, 1u);
    EXPECT_EQ(rehit.fingerprint, 43u);
}

TEST(ResultCacheTest, LookupFreshHasNoMissSideEffects)
{
    ResultCache cache(1 << 20);
    // A miss counts nothing and opens no in-flight slot: the next
    // lookup_or_join() still becomes the leader, not a follower.
    EXPECT_EQ(cache.lookup_fresh("k", 0).value, nullptr);
    EXPECT_EQ(cache.stats().misses, 0u);
    auto leader = cache.lookup_or_join("k", 0);
    ASSERT_EQ(leader.role, ResultCache::Role::kLeader);
    EXPECT_EQ(cache.lookup_fresh("k", 0).value, nullptr); // in flight
    auto value = int_result(3, 7);
    cache.publish("k", leader.flight, support::Status::ok(), value, 42, 0);

    const ResultCache::Cached hit = cache.lookup_fresh("k", 0);
    EXPECT_EQ(hit.value, value);
    EXPECT_EQ(hit.fingerprint, 42u);
    EXPECT_EQ(hit.generation, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // Another generation is not fresh, and still counts nothing.
    EXPECT_EQ(cache.lookup_fresh("k", 1).value, nullptr);
    const ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u); // the leader's lookup_or_join only
    EXPECT_EQ(stats.stale_generation_misses, 0u);
}

TEST(ServeDynTest, MutateInvalidatesCacheAndBumpsGeneration)
{
    Server server(mutable_suite(), frameworks(), ServerOptions{.workers = 2});

    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kCC;
    req.graph = "Mut";

    auto first = server.query(req);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    EXPECT_EQ(first.value().generation, 0u);
    auto hit = server.query(req);
    ASSERT_TRUE(hit.is_ok());
    EXPECT_TRUE(hit.value().cache_hit);
    EXPECT_EQ(hit.value().generation, 0u);

    // Isolate vertex 0's component changes: attach 0 to a far vertex.
    dyn::MutationBatch batch;
    batch.insert(0, 200);
    batch.insert(1, 150);
    auto outcome = server.mutate("Mut", batch);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(outcome.value().requested, 2u);
    EXPECT_TRUE(outcome.value().compacted);
    EXPECT_EQ(outcome.value().generation, 1u);
    EXPECT_GT(outcome.value().dirty, 0u);

    // The cached answer is for generation 0: the next query recomputes
    // against the mutated graph and matches direct execution on it.
    const std::uint64_t executions =
        server.stats_snapshot().executions;
    auto fresh = server.query(req);
    ASSERT_TRUE(fresh.is_ok());
    EXPECT_FALSE(fresh.value().cache_hit);
    EXPECT_EQ(fresh.value().generation, 1u);
    EXPECT_EQ(server.stats_snapshot().executions, executions + 1);

    const ServerStats s = server.stats_snapshot();
    EXPECT_EQ(s.mutations, 1u);
    EXPECT_EQ(s.compactions, 1u);
    EXPECT_GT(s.mutation_inserted_arcs, 0u);
    EXPECT_EQ(s.dyn_incremental + s.dyn_full, 2u); // CC + PR decisions

    // And the new generation is a normal cache citizen again.
    auto rehit = server.query(req);
    ASSERT_TRUE(rehit.is_ok());
    EXPECT_TRUE(rehit.value().cache_hit);
    EXPECT_EQ(rehit.value().generation, 1u);
    EXPECT_EQ(rehit.value().fingerprint, fresh.value().fingerprint);
}

TEST(ServeDynTest, MutateRejectsBadInputWhole)
{
    Server server(mutable_suite(), frameworks(), ServerOptions{.workers = 1});

    dyn::MutationBatch bad;
    bad.insert(0, 1);
    bad.insert(3, 1 << 20); // out of range: the whole batch is rejected
    auto outcome = server.mutate("Mut", bad);
    ASSERT_FALSE(outcome.is_ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidInput);
    EXPECT_EQ(server.stats_snapshot().mutations, 0u);

    auto unknown = server.mutate("NoSuchGraph", dyn::MutationBatch{});
    ASSERT_FALSE(unknown.is_ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidInput);

    // Nothing was applied: queries still serve generation 0.
    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kCC;
    req.graph = "Mut";
    auto result = server.query(req);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().generation, 0u);
}

TEST(ServeDynTest, StaleGenerationAnswersOnlyAllowStale)
{
    ServerOptions options;
    options.workers = 1;
    options.enable_breaker = false;
    Server server(mutable_suite(), frameworks(), options);

    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kPR;
    req.graph = "Mut";
    auto fresh = server.query(req);
    ASSERT_TRUE(fresh.is_ok());
    const std::uint64_t fingerprint = fresh.value().fingerprint;

    dyn::MutationBatch batch;
    batch.insert(2, 100);
    ASSERT_TRUE(server.mutate("Mut", batch).is_ok());

    // Fresh path broken: the strict query fails — a pre-mutation answer
    // is NOT silently substituted — but an allow_stale caller gets it,
    // marked degraded and carrying its generation-0 provenance.
    ScopedFaults faults("serve.execute:1:3");
    auto strict = server.query(req);
    ASSERT_FALSE(strict.is_ok());

    req.allow_stale = true;
    auto degraded = server.query(req);
    ASSERT_TRUE(degraded.is_ok());
    EXPECT_TRUE(degraded.value().degraded);
    EXPECT_EQ(degraded.value().generation, 0u);
    EXPECT_EQ(degraded.value().fingerprint, fingerprint);
}

TEST(ServeDynTest, OldGenerationEntryIsNotServedInline)
{
    ServerOptions options;
    options.workers = 1;
    Server server(mutable_suite(), frameworks(), options);
    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kPR;
    req.graph = "Mut";
    ASSERT_TRUE(server.query(req).is_ok());
    auto hit = server.submit(req);
    ASSERT_TRUE(hit.is_ok());
    ASSERT_TRUE(hit->wait_for(0).is_ok()); // generation 0: inline hit

    dyn::MutationBatch batch;
    batch.insert(3, 120);
    ASSERT_TRUE(server.mutate("Mut", batch).is_ok());

    // The generation-0 entry is still cached but no longer fresh: the
    // answer comes from a leader, tagged with the new generation.
    auto handle = server.submit(req);
    ASSERT_TRUE(handle.is_ok());
    auto got = handle->wait();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_FALSE(got->cache_hit);
    EXPECT_GT(got->execute_seconds, 0.0);
    EXPECT_EQ(got->generation, 1u);
    const ServerStats s = server.stats_snapshot();
    EXPECT_EQ(s.executions, 2u);
    EXPECT_EQ(s.cache_hits, 1u);
}

TEST(ServeDynTest, WritesMutationRecords)
{
    const std::string path =
        testing::TempDir() + "gm_serve_mutation_test.jsonl";
    std::remove(path.c_str());
    {
        ServerOptions options;
        options.workers = 1;
        options.metrics_path = path;
        Server server(mutable_suite(), frameworks(), options);
        dyn::MutationBatch batch;
        batch.insert(5, 77);
        batch.erase(5, 200); // absent edge: effective no-op delete
        ASSERT_TRUE(server.mutate("Mut", batch).is_ok());
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int mutation_records = 0;
    while (std::getline(in, line)) {
        if (line.find("\"kind\":\"serve.mutation\"") == std::string::npos)
            continue;
        ++mutation_records;
        EXPECT_NE(line.find("\"graph\":\"Mut\""), std::string::npos);
        EXPECT_NE(line.find("\"requested\":2"), std::string::npos);
        EXPECT_NE(line.find("\"generation\":1"), std::string::npos);
        EXPECT_NE(line.find("\"cc\":\""), std::string::npos);
        EXPECT_NE(line.find("\"dirty_fraction\":"), std::string::npos);
    }
    EXPECT_EQ(mutation_records, 1);
    std::remove(path.c_str());
}

// --------------------------------------------------------------- ledger

/** The server's own /metrics document, parsed into name -> value. */
std::map<std::string, double>
scrape(const Server& server)
{
    const auto text = telemetry::scrape_text("127.0.0.1",
                                             server.metrics_port());
    EXPECT_TRUE(text.is_ok()) << text.status().to_string();
    if (!text.is_ok())
        return {};
    const auto doc = telemetry::parse_exposition(text.value());
    EXPECT_TRUE(doc.is_ok()) << doc.status().to_string();
    return doc.is_ok() ? doc.value().by_name()
                       : std::map<std::string, double>{};
}

/** Sum of every series of @p family (labeled or not) in @p series. */
std::uint64_t
family_sum(const std::map<std::string, double>& series,
           const std::string& family)
{
    double total = 0;
    for (const auto& [name, value] : series) {
        if (name == family || name.rfind(family + "{", 0) == 0)
            total += value;
    }
    return static_cast<std::uint64_t>(total);
}

TEST(ServeLedgerTest, StatsEqualTheServersOwnScrape)
{
    ServerOptions options;
    options.workers = 2;
    options.queue_capacity = 1;
    options.metrics_port = 0;
    options.breaker.failure_threshold = 1;
    options.breaker.cooldown_ns = 60'000'000'000; // stays open
    Server server(mutable_suite(), frameworks(), options);
    ASSERT_GE(server.metrics_port(), 0);
    const auto bfs = [](vid_t source) { return bfs_on("Mut", source); };
    Request pr;
    pr.kernel = Kernel::kPR;
    pr.graph = "Mut";

    // A miss, then a fresh hit; PR cached for the degraded answer below.
    ASSERT_TRUE(server.query(bfs(1)).is_ok());
    ASSERT_TRUE(server.query(bfs(1)).is_ok());
    ASSERT_TRUE(server.query(pr).is_ok());
    {
        // A join and a queue-full shed: one worker runs a delayed
        // leader, the other waits as its follower, one request takes
        // the only queue slot, and the next sheds.
        ScopedFaults faults("serve.execute:1x:31:delay=300");
        auto leader = server.submit(bfs(2));
        ASSERT_TRUE(leader.is_ok());
        ASSERT_TRUE(eventually(
            [&] { return server.stats_snapshot().executions == 3; }));
        auto follower = server.submit(bfs(2));
        ASSERT_TRUE(follower.is_ok());
        ASSERT_TRUE(eventually([&] {
            return server.stats_snapshot().single_flight_joins == 1;
        }));
        auto queued = server.submit(bfs(3));
        ASSERT_TRUE(queued.is_ok());
        EXPECT_EQ(server.submit(bfs(4)).status().code(),
                  StatusCode::kResourceExhausted);
        EXPECT_TRUE(leader->wait().is_ok());
        EXPECT_TRUE(follower->wait().is_ok());
        EXPECT_TRUE(queued->wait().is_ok());
    }
    // One mutation: the PR entry goes stale.
    dyn::MutationBatch batch;
    batch.insert(5, 77);
    ASSERT_TRUE(server.mutate("Mut", batch).is_ok());
    {
        // A failed PR execution opens its cell's breaker.
        ScopedFaults faults("serve.execute:1x:32");
        auto failing = server.submit(pr);
        ASSERT_TRUE(failing.is_ok());
        EXPECT_FALSE(failing->wait().is_ok());
    }
    // The open breaker rejects, or serves the stale entry as degraded.
    EXPECT_EQ(server.submit(pr).status().code(), StatusCode::kUnavailable);
    Request stale = pr;
    stale.allow_stale = true;
    auto degraded = server.query(stale);
    ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
    EXPECT_TRUE(degraded->degraded);
    // One plan.
    PlanRequest plan;
    plan.graph = "Mut";
    plan.plan.add_histogram(plan.plan.add_kernel(Kernel::kBFS, 6), 8);
    ASSERT_TRUE(server.run_plan(plan).is_ok());

    const ServerStats s = server.stats_snapshot();
    const std::map<std::string, double> m = scrape(server);
    const auto series = [&m](const std::string& family) {
        return family_sum(m, family);
    };
    const auto status = [&m](const char* outcome) {
        return family_sum(m, std::string("gm_serve_completed_total{status=\"") +
                                 outcome + "\"}");
    };
    EXPECT_EQ(s.submitted, series("gm_serve_submitted_total"));
    EXPECT_EQ(s.shed, series("gm_serve_admission_shed_total"));
    EXPECT_EQ(s.infeasible, series("gm_serve_admission_infeasible_total"));
    EXPECT_EQ(s.unavailable, series("gm_serve_unavailable_total"));
    EXPECT_EQ(s.completed, series("gm_serve_completed_total"));
    EXPECT_EQ(s.succeeded, status("succeeded"));
    EXPECT_EQ(s.deadline_exceeded, status("deadline_exceeded"));
    EXPECT_EQ(s.cancelled, status("cancelled"));
    EXPECT_EQ(s.failed, status("failed"));
    EXPECT_EQ(s.degraded, series("gm_serve_degraded_total"));
    EXPECT_EQ(s.executions, series("gm_serve_executions_total"));
    EXPECT_EQ(s.lanes_granted, series("gm_serve_lanes_granted_total"));
    EXPECT_EQ(s.cache_hits, series("gm_serve_answered_from_cache_total"));
    EXPECT_EQ(s.single_flight_joins,
              series("gm_serve_single_flight_joins_total"));
    EXPECT_EQ(s.retries, series("gm_serve_retries_total"));
    EXPECT_EQ(s.retry_denied, series("gm_serve_retry_denied_total"));
    EXPECT_EQ(s.mutations, series("gm_dyn_batches_total"));
    EXPECT_EQ(s.mutation_inserted_arcs, series("gm_dyn_inserted_arcs_total"));
    EXPECT_EQ(s.mutation_deleted_arcs, series("gm_dyn_deleted_arcs_total"));
    EXPECT_EQ(s.compactions, series("gm_dyn_compactions_total"));
    EXPECT_EQ(s.dyn_incremental, series("gm_dyn_incremental_updates_total"));
    EXPECT_EQ(s.dyn_full, series("gm_dyn_full_rebuilds_total"));
    EXPECT_EQ(s.plans_submitted, series("gm_plan_submitted_total"));
    EXPECT_EQ(s.plans_completed, series("gm_plan_completed_total"));
    EXPECT_EQ(s.plans_failed, series("gm_plan_failed_total"));
    EXPECT_EQ(s.plan_nodes, series("gm_plan_nodes_total"));
    EXPECT_EQ(s.plan_nodes_executed, series("gm_plan_nodes_executed_total"));
    EXPECT_EQ(s.plan_node_cache_hits,
              series("gm_plan_node_cache_hits_total"));
    EXPECT_EQ(s.plan_nodes_shared, series("gm_plan_nodes_shared_total"));
    EXPECT_EQ(s.plan_fused_sweeps, series("gm_plan_fused_sweeps_total"));
    EXPECT_EQ(s.plan_sources_fused, series("gm_plan_sources_fused_total"));
    EXPECT_EQ(s.breaker_transitions,
              series("gm_serve_breaker_transitions_total"));
    EXPECT_EQ(s.breaker_open_cells, series("gm_serve_breaker_open_cells"));
    EXPECT_EQ(s.queue_depth, series("gm_serve_queue_depth"));
    EXPECT_EQ(s.cache_entries, series("gm_serve_cache_entries"));
    EXPECT_EQ(s.cache_bytes, series("gm_serve_cache_bytes"));

    // And the burst really exercised each path.
    EXPECT_EQ(s.cache_hits, 1u);
    EXPECT_EQ(s.single_flight_joins, 1u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.unavailable, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.degraded, 1u);
    EXPECT_EQ(s.mutations, 1u);
    EXPECT_EQ(s.plans_completed, 1u);
    EXPECT_EQ(s.breaker_open_cells, 1u);
    expect_invariants(s);
}

TEST(ServeLedgerTest, EachServerScrapesOnlyItsOwnTraffic)
{
    ServerOptions quiet;
    quiet.workers = 1;
    Server first(suite(), frameworks(), quiet);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(first.query(bfs_on("Road", suite()[0].sources[i]))
                        .is_ok());

    ServerOptions scraped = quiet;
    scraped.metrics_port = 0;
    Server second(suite(), frameworks(), scraped);
    ASSERT_TRUE(second.query(bfs_on("Kron", suite()[3].sources[0])).is_ok());

    const std::map<std::string, double> m = scrape(second);
    EXPECT_EQ(family_sum(m, "gm_serve_submitted_total"), 1u);
    EXPECT_EQ(family_sum(m, "gm_serve_executions_total"), 1u);
    EXPECT_EQ(family_sum(m, "gm_serve_cache_insertions_total"), 1u);
    EXPECT_EQ(second.stats_snapshot().submitted, 1u);
    EXPECT_EQ(first.stats_snapshot().submitted, 3u);
}

} // namespace
} // namespace gm::serve

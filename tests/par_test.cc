/** Unit tests for the gm::par substrate: pool, loops, reductions, atomics. */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gm/par/atomics.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/watchdog.hh"

namespace gm::par
{
namespace
{

TEST(ThreadPool, RunsJobOnAllLanes)
{
    ThreadPool& pool = ThreadPool::instance();
    std::vector<int> hit(static_cast<std::size_t>(pool.num_threads()), 0);
    pool.run([&](int lane) { hit[static_cast<std::size_t>(lane)] = 1; });
    for (int h : hit)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs)
{
    std::atomic<int> counter{0};
    for (int round = 0; round < 200; ++round) {
        ThreadPool::instance().run(
            [&](int) { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(counter.load(), 200 * ThreadPool::instance().num_threads());
}

TEST(ThreadPool, PropagatesCancelTokenIntoLanes)
{
    // The watchdog installs a per-trial token on the supervised worker as
    // a thread-local; run() must hand it to every pool lane or parallel
    // kernels could never be cancelled.
    support::CancelToken token;
    ThreadPool& pool = ThreadPool::instance();
    std::vector<std::atomic<int>> saw(
        static_cast<std::size_t>(pool.num_threads()));
    {
        support::ScopedCancelToken scope(&token);
        std::thread canceller([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            token.request();
        });
        pool.run([&](int lane) {
            // Bounded spin so a propagation regression fails the EXPECTs
            // below instead of wedging the pool forever.
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(5);
            while (!support::cancel_requested() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            saw[static_cast<std::size_t>(lane)] =
                support::cancel_requested() ? 1 : 0;
        });
        canceller.join();
    }
    for (const auto& lane_saw : saw)
        EXPECT_EQ(lane_saw.load(), 1);
    EXPECT_FALSE(support::cancel_requested()); // scope restored
}

TEST(ThreadPool, NestedRunDegradesToSerial)
{
    std::atomic<int> inner_calls{0};
    ThreadPool::instance().run([&](int) {
        EXPECT_TRUE(ThreadPool::in_parallel_region());
        ThreadPool::instance().run(
            [&](int lane) {
                EXPECT_EQ(lane, 0);
                inner_calls.fetch_add(1);
            });
    });
    EXPECT_EQ(inner_calls.load(), ThreadPool::instance().num_threads());
}

class ScheduleTest : public ::testing::TestWithParam<Schedule>
{
};

TEST_P(ScheduleTest, CoversEveryIndexExactlyOnce)
{
    constexpr int kN = 100000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for<int>(0, kN,
                      [&](int i) { hits[i].fetch_add(1); }, GetParam());
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(ScheduleTest, EmptyRangeIsNoop)
{
    int calls = 0;
    parallel_for<int>(5, 5, [&](int) { ++calls; }, GetParam());
    parallel_for<int>(7, 3, [&](int) { ++calls; }, GetParam());
    EXPECT_EQ(calls, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ScheduleTest,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kDynamic,
                                           Schedule::kCyclic));

TEST(ParallelFor, NonZeroBeginRespected)
{
    std::vector<std::atomic<int>> hits(100);
    parallel_for<int>(10, 90, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0);
}

TEST(ParallelReduce, SumMatchesSerial)
{
    constexpr std::int64_t kN = 1000000;
    const std::int64_t sum = parallel_reduce<std::int64_t, std::int64_t>(
        0, kN, 0, [](std::int64_t i) { return i; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(ParallelReduce, MaxMatchesSerial)
{
    std::vector<int> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<int>((i * 7919) % 10007);
    const int expected = *std::max_element(data.begin(), data.end());
    const int got = parallel_reduce<std::size_t, int>(
        0, data.size(), 0, [&](std::size_t i) { return data[i]; },
        [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(got, expected);
}

TEST(ParallelBlocks, PartitionIsDisjointAndComplete)
{
    constexpr int kN = 12345;
    std::vector<std::atomic<int>> hits(kN);
    parallel_blocks<int>(0, kN, [&](int, int lo, int hi) {
        for (int i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelLanes, EveryLaneRunsOnce)
{
    std::atomic<int> calls{0};
    parallel_lanes([&](int lane, int lanes) {
        EXPECT_GE(lane, 0);
        EXPECT_LT(lane, lanes);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), ThreadPool::instance().num_threads());
}

TEST(Atomics, CompareAndSwap)
{
    int x = 5;
    EXPECT_TRUE(compare_and_swap(x, 5, 9));
    EXPECT_EQ(x, 9);
    EXPECT_FALSE(compare_and_swap(x, 5, 11));
    EXPECT_EQ(x, 9);
}

TEST(Atomics, FetchMinOnlyDecreases)
{
    int x = 10;
    EXPECT_TRUE(fetch_min(x, 3));
    EXPECT_EQ(x, 3);
    EXPECT_FALSE(fetch_min(x, 7));
    EXPECT_EQ(x, 3);
}

TEST(Atomics, ConcurrentFetchMinFindsGlobalMin)
{
    int x = 1 << 30;
    parallel_for<int>(0, 100000, [&](int i) { fetch_min(x, i ^ 0x2a); });
    // The minimum of i^42 over the range is 0 (at i == 42).
    EXPECT_EQ(x, 0);
}

TEST(Atomics, ConcurrentFloatAdd)
{
    double total = 0;
    parallel_for<int>(0, 100000, [&](int) { atomic_add_float(total, 1.0); });
    EXPECT_DOUBLE_EQ(total, 100000.0);
}

TEST(Atomics, ConcurrentFetchAddCounts)
{
    std::int64_t counter = 0;
    parallel_for<int>(0, 50000,
                      [&](int) { fetch_add<std::int64_t>(counter, 2); });
    EXPECT_EQ(counter, 100000);
}

TEST(Barrier, SinglePartyNeverBlocks)
{
    Barrier b(1);
    b.wait();
    b.wait();
    SUCCEED();
}

TEST(Barrier, SynchronizesPhases)
{
    const int lanes = effective_lanes();
    Barrier barrier(lanes);
    std::vector<int> phase_a(static_cast<std::size_t>(lanes), 0);
    std::atomic<bool> ok{true};
    parallel_lanes([&](int lane, int) {
        phase_a[static_cast<std::size_t>(lane)] = 1;
        barrier.wait();
        for (int v : phase_a) {
            if (v != 1)
                ok = false;
        }
        barrier.wait();
    });
    EXPECT_TRUE(ok.load());
}

TEST(SerialRegion, DegradesLoopsToCallingThread)
{
    SerialRegion serial;
    EXPECT_TRUE(ThreadPool::in_serial_region());
    const auto self = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    std::atomic<int> count{0};
    parallel_for(0, 10000, [&](int) {
        if (std::this_thread::get_id() != self)
            off_thread.fetch_add(1, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(off_thread.load(), 0);
    EXPECT_EQ(count.load(), 10000);

    const long sum = parallel_reduce(
        0, 1000, 0L, [](int i) { return static_cast<long>(i); },
        [](long a, long b) { return a + b; });
    EXPECT_EQ(sum, 999L * 1000 / 2);

    int lanes_seen = -1;
    parallel_lanes([&](int lane, int lanes) {
        EXPECT_EQ(lane, 0);
        lanes_seen = lanes;
    });
    EXPECT_EQ(lanes_seen, 1);

    int blocks = 0;
    parallel_blocks(0, 100, [&](int, int lo, int hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 100);
        ++blocks;
    });
    EXPECT_EQ(blocks, 1);
}

TEST(SerialRegion, EndsWhenOutermostRegionDies)
{
    {
        SerialRegion outer;
        {
            SerialRegion inner;
            EXPECT_TRUE(ThreadPool::in_serial_region());
        }
        EXPECT_TRUE(ThreadPool::in_serial_region());
    }
    EXPECT_FALSE(ThreadPool::in_serial_region());
}

TEST(SerialRegion, CancellationStillThrows)
{
    // Unlike the nested-in-pool degrade (silent return), a serial region
    // must surface cancellation as an exception so a cancelled serve
    // request unwinds out of its kernel.
    support::CancelToken token;
    token.request();
    support::ScopedCancelToken scope(&token);
    SerialRegion serial;
    EXPECT_THROW(parallel_for(0, 100000, [](int) {}),
                 support::CancelledError);
    EXPECT_THROW(parallel_reduce(
                     0, 100000, 0L,
                     [](int i) { return static_cast<long>(i); },
                     [](long a, long b) { return a + b; }),
                 support::CancelledError);
}

TEST(ThreadPool, ConcurrentSubmittersShareLanes)
{
    // Several free threads hammer run() at once.  Each submission takes a
    // best-effort ephemeral lease, so it must execute on exactly the
    // width run() reports — every lane once, at least 1 (the submitter's
    // own lane), at most the pool width, and possibly fewer than the
    // pool width while other submitters hold workers.  (The TSan tier
    // additionally checks the fork-join and detach state isn't torn.)
    ThreadPool& pool = ThreadPool::instance();
    const int submitters = 4;
    const int rounds = 25;
    std::atomic<long> executions{0};
    std::atomic<long> width_total{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&] {
            for (int r = 0; r < rounds; ++r) {
                std::atomic<int> lanes_hit{0};
                const int width = pool.run([&](int) {
                    lanes_hit.fetch_add(1, std::memory_order_relaxed);
                    executions.fetch_add(1, std::memory_order_relaxed);
                });
                EXPECT_GE(width, 1);
                EXPECT_LE(width, pool.num_threads());
                EXPECT_EQ(lanes_hit.load(), width);
                width_total.fetch_add(width, std::memory_order_relaxed);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(executions.load(), width_total.load());
}

TEST(ThreadPool, SerialRegionSubmitterDoesNotBlockOnPool)
{
    // A thread inside a SerialRegion never queues on the shared pool, so
    // it makes progress even while another thread owns a long pool job.
    ThreadPool& pool = ThreadPool::instance();
    std::atomic<bool> release{false};
    std::thread hog([&] {
        pool.run([&](int lane) {
            if (lane == 0) {
                while (!release.load(std::memory_order_acquire))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
        });
    });
    std::atomic<int> serial_sum{0};
    std::thread serial([&] {
        SerialRegion region;
        parallel_for(0, 1000,
                     [&](int) { serial_sum.fetch_add(1); });
        release.store(true, std::memory_order_release);
    });
    serial.join();
    hog.join();
    EXPECT_EQ(serial_sum.load(), 1000);
}

// ------------------------------------------------------------- LaneLease

TEST(LaneLease, GrantsAtMostRequestedWidth)
{
    const int pool_width = ThreadPool::instance().num_threads();
    LaneLease lease(2);
    EXPECT_GE(lease.width(), 1);
    EXPECT_LE(lease.width(), std::min(2, pool_width));
    EXPECT_EQ(LaneLease::current(), &lease);
}

TEST(LaneLease, RunUsesExactlyTheLeasedLanes)
{
    LaneLease lease(ThreadPool::instance().num_threads());
    const int width = lease.width();
    std::vector<std::atomic<int>> hit(static_cast<std::size_t>(width));
    const int used = ThreadPool::instance().run([&](int lane) {
        ASSERT_LT(lane, width);
        hit[static_cast<std::size_t>(lane)].fetch_add(1);
    });
    EXPECT_EQ(used, width);
    for (const auto& h : hit)
        EXPECT_EQ(h.load(), 1);
}

TEST(LaneLease, NestedLeaseAdoptsEnclosingWidth)
{
    LaneLease outer(ThreadPool::instance().num_threads());
    {
        LaneLease inner(1);
        // Adoption: the inner lease must not shrink (or re-acquire) the
        // thread's lanes; primitives keep running on the outer grant.
        EXPECT_EQ(inner.width(), outer.width());
        EXPECT_EQ(LaneLease::current(), &outer);
    }
    EXPECT_EQ(LaneLease::current(), &outer);
}

TEST(LaneLease, WidthOneLeaseDegradesPrimitivesToSerial)
{
    LaneLease lease(1);
    EXPECT_EQ(lease.width(), 1);
    std::thread::id self = std::this_thread::get_id();
    int calls = 0;
    parallel_for<int>(0, 100, [&](int) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        ++calls;
    });
    EXPECT_EQ(calls, 100);
}

TEST(LaneLease, InsideLaneAdoptsSerially)
{
    ThreadPool::instance().run([&](int) {
        LaneLease nested(8);
        EXPECT_EQ(nested.width(), 1);
    });
}

TEST(LaneLease, ConcurrentHoldersProgressIndependently)
{
    // Two threads each hold a lease and fork repeatedly; neither may
    // deadlock on the other (disjoint lanes, or serial fallback when the
    // pool has no spare workers).
    std::atomic<long> total{0};
    auto work = [&] {
        LaneLease lease(2);
        for (int round = 0; round < 50; ++round) {
            ThreadPool::instance().run(
                [&](int) { total.fetch_add(1, std::memory_order_relaxed); });
        }
    };
    std::thread a(work);
    std::thread b(work);
    a.join();
    b.join();
    // Each fork runs on >= 1 lane, so 100 forks contribute >= 100.
    EXPECT_GE(total.load(), 100);
}

TEST(LaneLease, OwnerExceptionJoinsSpinningLanes)
{
    // Lane 0 throws while the other lanes are still busy: run() must join
    // them before the exception leaves, since they reference the job.
    LaneLease lease(ThreadPool::instance().num_threads());
    const int width = lease.width();
    std::atomic<int> finished{0};
    for (int round = 0; round < 200; ++round) {
        EXPECT_THROW(ThreadPool::instance().run([&](int lane) {
            if (lane == 0)
                throw std::runtime_error("lane 0");
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(20);
            while (std::chrono::steady_clock::now() < until) {
            }
            finished.fetch_add(1, std::memory_order_relaxed);
        }),
                     std::runtime_error);
        // Joined: every other lane's increment is already visible.
        ASSERT_EQ(finished.load(), (round + 1) * (width - 1));
    }
    std::atomic<int> lanes{0};
    EXPECT_EQ(ThreadPool::instance().run([&](int) { lanes.fetch_add(1); }),
              width);
    EXPECT_EQ(lanes.load(), width);
}

TEST(LaneLease, CancelDuringForkUnderHeldLease)
{
    // A cancel raised while a held lease's lanes run a loop drains every
    // lane, surfaces as CancelledError, and leaves the lease usable.
    LaneLease lease(ThreadPool::instance().num_threads());
    support::CancelToken token;
    {
        support::ScopedCancelToken scope(&token);
        std::thread canceller([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            token.request();
        });
        // Dynamic claims of 64 iterations: lanes poll between claims.
        const auto nap = [](int) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        };
        EXPECT_THROW(parallel_for<int>(0, 1 << 20, nap, Schedule::kDynamic,
                                       64),
                     support::CancelledError);
        canceller.join();
    }
    std::atomic<int> lanes{0};
    EXPECT_EQ(ThreadPool::instance().run([&](int) { lanes.fetch_add(1); }),
              lease.width());
    EXPECT_EQ(lanes.load(), lease.width());
}

// ------------------------------------------- cross-width determinism

/** Runs @p body under an owned lease of each width in {1, 2, 3, pool}
 *  and checks every run produces bit-identical results. */
template <typename Fn>
void
expect_same_at_every_width(Fn&& body)
{
    const int pool_width = ThreadPool::instance().num_threads();
    const int widths[] = {1, 2, 3, pool_width};
    const auto reference = [&] {
        LaneLease lease(1);
        return body();
    }();
    for (const int w : widths) {
        LaneLease lease(w);
        EXPECT_EQ(body(), reference) << "width " << w;
    }
}

TEST(Determinism, FloatSumBitIdenticalAcrossWidths)
{
    // Summands with wildly different magnitudes: any reassociation of
    // the fold shows up in the low bits of the double.
    constexpr int kN = 100000;
    expect_same_at_every_width([&] {
        return parallel_reduce<int, double>(
            0, kN, 0.0,
            [](int i) { return 1.0 / (1.0 + i) + (i % 7) * 1e9; },
            [](double a, double b) { return a + b; });
    });
}

TEST(Determinism, NonCommutativeCombineOrdered)
{
    // combine(a, b) = a * 31 + b is order-sensitive: any deviation from
    // the ascending chunk fold changes the value.
    constexpr int kN = 10000;
    expect_same_at_every_width([&] {
        return parallel_reduce<int, std::uint64_t>(
            0, kN, 0,
            [](int i) { return static_cast<std::uint64_t>(i % 13); },
            [](std::uint64_t a, std::uint64_t b) { return a * 31 + b; });
    });
}

TEST(Determinism, EverySmallLengthBitIdenticalAcrossWidths)
{
    // Small n is where batched claims cover several grid chunks per
    // claim and fewer claims than lanes: the fold must not notice.
    for (int n = 1; n <= 600; ++n) {
        const auto fold = [n] {
            return parallel_reduce<int, double>(
                0, n, 0.0,
                [](int i) { return 1.0 / (3.0 + i) + (i % 5) * 1e8; },
                [](double a, double b) { return a + b; });
        };
        const double reference = [&] {
            LaneLease lease(1);
            return fold();
        }();
        for (int width = 2; width <= 4; ++width) {
            LaneLease lease(width);
            ASSERT_EQ(fold(), reference) << "n " << n << " width " << width;
        }
    }
}

TEST(Determinism, ReduceMatchesOneLaneFoldExactly)
{
    constexpr int kN = 54321; // not a multiple of the chunk grid
    const auto fold = [] {
        return parallel_reduce<int, double>(
            0, kN, 0.0, [](int i) { return 1.0 / (1.0 + i); },
            [](double a, double b) { return a + b; });
    };
    const double one_lane = [&] {
        LaneLease lease(1);
        return fold();
    }();
    // Bit equality, not near-equality: the contract is that the parallel
    // path performs the identical chunk-grid fold the one-lane path does
    // (the grid is a function of kN alone).  A naive continuous fold is
    // a *different* association and is only near-equal.
    EXPECT_EQ(fold(), one_lane);
    double naive = 0.0;
    for (int i = 0; i < kN; ++i)
        naive += 1.0 / (1.0 + i);
    EXPECT_NEAR(one_lane, naive, 1e-9);
}

} // namespace
} // namespace gm::par

/** Stress tests for the parallel substrate: long chains of fork-joins,
 *  mixed primitives, barrier phase counting, and CAS-loop convergence
 *  under heavy contention.  These guard the invariants every kernel in
 *  the repository leans on. */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "gm/par/atomics.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/sliding_queue.hh"

namespace gm::par
{
namespace
{

TEST(ParStress, ManySmallForkJoins)
{
    // Thousands of tiny regions: exercises pool wake/sleep paths.
    std::atomic<std::int64_t> total{0};
    for (int round = 0; round < 2000; ++round) {
        parallel_for<int>(0, 4,
                          [&](int) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 8000);
}

TEST(ParStress, AlternatingPrimitives)
{
    // Interleave for/reduce/lanes/blocks; state must stay consistent.
    std::vector<std::int64_t> data(50000);
    parallel_for<std::size_t>(0, data.size(), [&](std::size_t i) {
        data[i] = static_cast<std::int64_t>(i);
    }, Schedule::kStatic);
    for (int round = 0; round < 20; ++round) {
        const std::int64_t sum = parallel_reduce<std::size_t, std::int64_t>(
            0, data.size(), 0, [&](std::size_t i) { return data[i]; },
            [](std::int64_t a, std::int64_t b) { return a + b; });
        EXPECT_EQ(sum, static_cast<std::int64_t>(data.size()) *
                           (static_cast<std::int64_t>(data.size()) - 1) / 2);
        parallel_blocks<std::size_t>(
            0, data.size(), [&](int, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    data[i] = data[i]; // touch
            });
        std::atomic<int> lanes_seen{0};
        parallel_lanes([&](int, int) { lanes_seen.fetch_add(1); });
        EXPECT_EQ(lanes_seen.load(), ThreadPool::instance().num_threads());
    }
}

TEST(ParStress, BarrierPhasesNeverSkew)
{
    // Each lane increments a phase counter; after every barrier, all lanes
    // must observe the same completed phase count.
    const int lanes = effective_lanes();
    Barrier barrier(lanes);
    std::vector<std::int64_t> progress(static_cast<std::size_t>(lanes), 0);
    std::atomic<bool> ok{true};
    constexpr int kPhases = 500;
    parallel_lanes([&](int lane, int nlanes) {
        for (int phase = 0; phase < kPhases; ++phase) {
            progress[static_cast<std::size_t>(lane)] = phase + 1;
            barrier.wait();
            for (int l = 0; l < nlanes; ++l) {
                if (progress[static_cast<std::size_t>(l)] < phase + 1)
                    ok.store(false);
            }
            barrier.wait();
        }
    });
    EXPECT_TRUE(ok.load());
}

TEST(ParStress, FetchMinConvergesUnderContention)
{
    // All lanes hammer the same cells; final values must be true minima.
    constexpr int kCells = 64;
    constexpr int kUpdates = 200000;
    std::vector<int> cells(kCells, 1 << 30);
    parallel_for<int>(0, kUpdates, [&](int i) {
        fetch_min(cells[i % kCells], i);
    });
    for (int c = 0; c < kCells; ++c)
        EXPECT_EQ(cells[c], c); // min over {c, c+64, c+128, ...} is c
}

TEST(ParStress, AtomicFloatAddExact)
{
    // Sum of 1..N via contended float adds; doubles hold this exactly.
    double total = 0;
    constexpr int kN = 100000;
    parallel_for<int>(1, kN + 1, [&](int i) {
        atomic_add_float(total, static_cast<double>(i));
    });
    EXPECT_DOUBLE_EQ(total, static_cast<double>(kN) * (kN + 1) / 2);
}

TEST(ParStress, QueueBufferUnderPool)
{
    // GAP-style frontier production from all lanes through QueueBuffers.
    constexpr int kItems = 100000;
    SlidingQueue<int> queue(kItems);
    parallel_lanes([&](int lane, int lanes) {
        QueueBuffer<int> buf(queue, 64);
        for (int i = lane; i < kItems; i += lanes)
            buf.push_back(i);
    });
    queue.slide_window();
    EXPECT_EQ(queue.size(), static_cast<std::size_t>(kItems));
    std::vector<char> seen(kItems, 0);
    for (const int* it = queue.begin(); it != queue.end(); ++it) {
        ASSERT_GE(*it, 0);
        ASSERT_LT(*it, kItems);
        ASSERT_EQ(seen[static_cast<std::size_t>(*it)], 0);
        seen[static_cast<std::size_t>(*it)] = 1;
    }
}

TEST(ParStress, ConcurrentLeaseHoldersShareThePool)
{
    // Several threads each hold a LaneLease and hammer fork-joins plus
    // deterministic reductions concurrently — the gm::serve execution
    // pattern.  Guards (under TSan) the lease acquire/release protocol,
    // the per-lease fork-join state, and that results never depend on
    // how many lanes each holder was granted.
    constexpr int kHolders = 4;
    constexpr int kRounds = 100;
    constexpr int kN = 5000;
    const double expected = [&] {
        // Reference from the one-lane path: parallel_reduce's contract is
        // bit-equality with its own fixed chunk-grid fold at any width.
        LaneLease lease(1);
        return parallel_reduce<int, double>(
            0, kN, 0.0, [](int i) { return 1.0 / (1.0 + i); },
            [](double a, double b) { return a + b; });
    }();
    std::atomic<int> mismatches{0};
    std::vector<std::thread> holders;
    holders.reserve(kHolders);
    for (int t = 0; t < kHolders; ++t) {
        holders.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                LaneLease lease(2);
                const double sum = parallel_reduce<int, double>(
                    0, kN, 0.0, [](int i) { return 1.0 / (1.0 + i); },
                    [](double a, double b) { return a + b; });
                if (sum != expected)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& holder : holders)
        holder.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParStress, LeaseChurnUnderForkLoad)
{
    // Rapid acquire/release while another thread runs ephemeral-lease
    // forks: stresses worker attach/detach against job dispatch.
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> forks{0};
    std::thread churner([&] {
        while (!stop.load(std::memory_order_acquire)) {
            LaneLease lease(ThreadPool::instance().num_threads());
            ThreadPool::instance().run([](int) {});
        }
    });
    for (int round = 0; round < 500; ++round) {
        parallel_for<int>(0, 64,
                          [&](int) { forks.fetch_add(1); });
    }
    stop.store(true, std::memory_order_release);
    churner.join();
    EXPECT_EQ(forks.load(), 500 * 64);
}

TEST(ParStress, TinyForksUnderHeldLeaseRunEachLaneOnce)
{
    // The spinning hand-off's core invariant: on a held lease every lane
    // runs every job exactly once, in order.  Each lane checks that the
    // previous job it ran was the one before this one.
    constexpr int kForks = 100000;
    for (int want = 2; want <= 4; ++want) {
        LaneLease lease(want);
        const int width = lease.width();
        std::vector<int> last(static_cast<std::size_t>(width), -1);
        std::vector<int> runs(static_cast<std::size_t>(width), 0);
        std::atomic<int> out_of_order{0};
        for (int job = 0; job < kForks; ++job) {
            ThreadPool::instance().run([&](int lane) {
                const auto slot = static_cast<std::size_t>(lane);
                if (last[slot] != job - 1)
                    out_of_order.fetch_add(1, std::memory_order_relaxed);
                last[slot] = job;
                ++runs[slot];
            });
        }
        EXPECT_EQ(out_of_order.load(), 0) << "width " << width;
        for (int lane = 0; lane < width; ++lane) {
            EXPECT_EQ(runs[static_cast<std::size_t>(lane)], kForks)
                << "width " << width << " lane " << lane;
        }
    }
}

TEST(ParStress, LeaseDestroyedRightAfterLastFork)
{
    // Release races the lanes' return from their last job: a lane may
    // still be leaving the join while ~LaneLease runs.  Under ASan/TSan
    // this guards the rule that no worker touches the lease's state after
    // its detach.
    std::atomic<std::int64_t> ran{0};
    std::int64_t expected = 0;
    for (int round = 0; round < 5000; ++round) {
        LaneLease lease(ThreadPool::instance().num_threads());
        expected += ThreadPool::instance().run(
            [&](int) { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(ran.load(), expected);
}

TEST(ParStress, DynamicScheduleBalancesSkewedWork)
{
    // Power-law-ish work distribution: dynamic scheduling must still cover
    // every index exactly once (balance itself is not asserted — only
    // correctness under uneven task lengths).
    constexpr int kN = 20000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for<int>(0, kN, [&](int i) {
        volatile double sink = 0;
        const int work = i % 512 == 0 ? 2000 : 10;
        for (int k = 0; k < work; ++k)
            sink = sink + k;
        hits[i].fetch_add(1);
    }, Schedule::kDynamic, 16);
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

} // namespace
} // namespace gm::par

/**
 * @file
 * google-benchmark microbenchmarks: every framework on every kernel, on a
 * power-law (Kron) and a high-diameter (Road) input — the two topology
 * extremes the paper shows drive framework behaviour.
 *
 * Env: GM_MICRO_SCALE (default 12), GM_THREADS.
 */
#include <benchmark/benchmark.h>

#include <functional>

#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/par/parallel_for.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/env.hh"

namespace
{

using namespace gm;

const harness::DatasetSuite&
suite()
{
    static harness::DatasetSuite s = harness::make_gap_suite(
        static_cast<int>(env_int("GM_MICRO_SCALE", 12)), 8);
    return s;
}

const std::vector<harness::Framework>&
frameworks()
{
    static std::vector<harness::Framework> f = harness::make_frameworks();
    return f;
}

void
run_kernel(benchmark::State& state, std::size_t fw_index,
           harness::Kernel kernel, std::size_t graph_index)
{
    const harness::Dataset& ds = suite()[graph_index];
    const harness::Framework& fw = frameworks()[fw_index];
    const harness::Mode mode = harness::Mode::kBaseline;
    const std::vector<vid_t> bc_sources(ds.sources.begin(),
                                        ds.sources.begin() + 4);
    for (auto _ : state) {
        switch (kernel) {
          case harness::Kernel::kBFS:
            benchmark::DoNotOptimize(fw.bfs(ds, ds.sources[0], mode));
            break;
          case harness::Kernel::kSSSP:
            benchmark::DoNotOptimize(fw.sssp(ds, ds.sources[0], mode));
            break;
          case harness::Kernel::kCC:
            benchmark::DoNotOptimize(fw.cc(ds, mode));
            break;
          case harness::Kernel::kPR:
            benchmark::DoNotOptimize(fw.pr(ds, mode));
            break;
          case harness::Kernel::kBC:
            benchmark::DoNotOptimize(fw.bc(ds, bc_sources, mode));
            break;
          case harness::Kernel::kTC:
            benchmark::DoNotOptimize(fw.tc(ds, mode));
            break;
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            ds.g().num_edges_directed());
}

// ---------------------------------------------------- substrate overhead
//
// Fork-join costs bound how fine-grained the kernels can afford to be;
// BFS on Road runs hundreds of near-empty frontier steps, so per-fork
// overhead is directly visible in Table 3.  ThreadPool::run takes a
// FunctionRef (non-owning, never allocates); the StdFunction variant
// measures what each fork would cost if the boundary still required
// constructing a std::function (the pre-refactor API), capture included.

void
bench_fork_join_function_ref(benchmark::State& state)
{
    par::LaneLease lease(par::ThreadPool::instance().num_threads());
    std::int64_t sink = 0;
    for (auto _ : state) {
        par::ThreadPool::instance().run([&](int lane) {
            benchmark::DoNotOptimize(sink += lane);
        });
    }
    state.SetItemsProcessed(state.iterations());
}

void
bench_fork_join_std_function(benchmark::State& state)
{
    par::LaneLease lease(par::ThreadPool::instance().num_threads());
    std::int64_t sink = 0;
    // Fat capture defeats small-buffer optimization, as kernel bodies
    // capturing graph refs + several arrays did before the refactor.
    struct Fat
    {
        std::int64_t* out;
        char pad[64];
    } fat{&sink, {}};
    for (auto _ : state) {
        const std::function<void(int)> job = [fat](int lane) {
            benchmark::DoNotOptimize(*fat.out += lane);
        };
        par::ThreadPool::instance().run(job);
    }
    state.SetItemsProcessed(state.iterations());
}

void
bench_tiny_parallel_for(benchmark::State& state)
{
    par::LaneLease lease(par::ThreadPool::instance().num_threads());
    std::vector<std::int64_t> cells(64, 0);
    for (auto _ : state) {
        par::parallel_for<std::size_t>(
            0, cells.size(), [&](std::size_t i) { cells[i] += 1; });
    }
    benchmark::DoNotOptimize(cells.data());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cells.size()));
}

void
bench_tiny_parallel_reduce(benchmark::State& state)
{
    par::LaneLease lease(par::ThreadPool::instance().num_threads());
    std::vector<double> cells(256, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(par::parallel_reduce<std::size_t, double>(
            0, cells.size(), 0.0, [&](std::size_t i) { return cells[i]; },
            [](double a, double b) { return a + b; }));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cells.size()));
}

void
bench_lane_lease_acquire(benchmark::State& state)
{
    for (auto _ : state) {
        par::LaneLease lease(par::ThreadPool::instance().num_threads());
        benchmark::DoNotOptimize(lease.width());
    }
    state.SetItemsProcessed(state.iterations());
}

void
register_all()
{
    benchmark::RegisterBenchmark("Par/ForkJoin/FunctionRef",
                                 bench_fork_join_function_ref)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Par/ForkJoin/StdFunction",
                                 bench_fork_join_std_function)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Par/TinyParallelFor",
                                 bench_tiny_parallel_for)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Par/TinyParallelReduce",
                                 bench_tiny_parallel_reduce)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Par/LaneLeaseAcquire",
                                 bench_lane_lease_acquire)
        ->Unit(benchmark::kMicrosecond);
    // Kron (index 3) and Road (index 0): the two topology extremes.
    const std::size_t graph_indexes[] = {3, 0};
    const char* graph_names[] = {"Kron", "Road"};
    for (std::size_t gi = 0; gi < 2; ++gi) {
        for (std::size_t f = 0; f < frameworks().size(); ++f) {
            for (harness::Kernel kernel : harness::kAllKernels) {
                const std::string name = std::string(graph_names[gi]) + "/" +
                                         harness::to_string(kernel) + "/" +
                                         frameworks()[f].name;
                benchmark::RegisterBenchmark(
                    name.c_str(),
                    [f, kernel, gi_cap = graph_indexes[gi]](
                        benchmark::State& st) {
                        run_kernel(st, f, kernel, gi_cap);
                    })
                    ->Unit(benchmark::kMillisecond)
                    ->Iterations(2);
            }
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

#include "streams.hh"

#include <algorithm>
#include <set>
#include <utility>

namespace gapbench
{

using gm::harness::Kernel;
using gm::vid_t;

namespace
{

/** Distinct sources per (sourced kernel, graph) cell of the population. */
std::size_t
sources_per_cell(Workload workload)
{
    switch (workload) {
      case Workload::kServeHot:
        return 5;
      case Workload::kServeCold:
        return 32;
      case Workload::kServeMixed:
        return 100;
      case Workload::kGapSuite:
        break;
    }
    return 0;
}

/** serve-mixed sends 40 mutations and 40 plans per 465 queries, enough
 *  to send 200 of each in ~20 s (a mutation waits for every lane, ~200 ms
 *  under load).  Each block of kBlock slots holds exactly kBlockMutations
 *  mutations and kBlockPlans plans at seeded positions; the rank of a slot
 *  within its block picks the graph, whether a batch deletes, and the
 *  plan shape, so every seed gives the same mix, however long the run. */
constexpr std::uint64_t kBlock = 545;
constexpr std::uint64_t kBlockMutations = 40;
constexpr std::uint64_t kBlockPlans = 40;
/** Delete candidates sampled per graph. */
constexpr int kDeleteCandidates = 4096;

/** Query share of each served kernel (BFS, SSSP, CC, PR).  Unequal on
 *  purpose: with equal shares the median latency would sit on the edge
 *  between two kernels' latency ranges, and in serve-mixed the two
 *  always-hot sourceless kernels would hold the hit ratio near one half;
 *  either makes the median jump between runs. */
constexpr double kKernelShare[] = {0.5, 0.3, 0.1, 0.1};
static_assert(std::size(kKernelShare) == std::size(kServedKernels));

constexpr std::uint64_t kSaltOp = 0x6f70;
constexpr std::uint64_t kSaltBlock = 0x626c6f636bULL;
constexpr std::uint64_t kSaltMutate = 0x64796e;
constexpr std::uint64_t kSaltPlan = 0x706c616e;

bool
uses_source(Kernel kernel)
{
    return kernel == Kernel::kBFS || kernel == Kernel::kSSSP;
}

double
unit(gm::SplitMix64& rng)
{
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

vid_t
non_isolated_vertex(const gm::graph::CSRGraph& g, gm::Xoshiro256& rng)
{
    for (;;) {
        const auto v = static_cast<vid_t>(rng.next_bounded(
            static_cast<std::uint64_t>(g.num_vertices())));
        if (g.out_degree(v) > 0)
            return v;
    }
}

} // namespace

const char*
to_string(Workload workload)
{
    switch (workload) {
      case Workload::kGapSuite:
        return "gap-suite";
      case Workload::kServeHot:
        return "serve-hot";
      case Workload::kServeCold:
        return "serve-cold";
      case Workload::kServeMixed:
        return "serve-mixed";
    }
    return "?";
}

bool
parse_workload(const std::string& name, Workload* out)
{
    for (Workload w : kAllWorkloads) {
        if (name == to_string(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

Stream::Stream(Workload workload, std::uint64_t seed,
               const gm::harness::DatasetSuite& suite)
    : workload_(workload), seed_(seed)
{
    const std::size_t per_cell = sources_per_cell(workload);
    if (per_cell == 0)
        return;
    gm::Xoshiro256 rng(seed ^ 0x706f70ULL);

    // The population is stratified: one cell per (graph, kernel), and a
    // query first picks a kernel by its fixed share and a graph uniformly,
    // so every seed gives each kernel and graph the same share of the
    // load.  Sourced cells hold distinct
    // non-isolated sources; sourceless kernels have one answer per graph.
    for (const auto& ds : suite.datasets) {
        const gm::graph::CSRGraph& g = ds->g();
        GraphInfo info;
        info.name = ds->name;
        info.vertices = g.num_vertices();
        for (int i = 0; i < kDeleteCandidates; ++i) {
            const vid_t u = non_isolated_vertex(g, rng);
            const auto nbrs = g.out_neigh(u);
            info.arcs.emplace_back(
                u, nbrs[rng.next_bounded(nbrs.size())]);
        }
        graphs_.push_back(std::move(info));

        std::size_t non_isolated = 0;
        for (vid_t v = 0; v < g.num_vertices(); ++v)
            non_isolated += g.out_degree(v) > 0 ? 1 : 0;
        for (Kernel kernel : kServedKernels) {
            cells_.push_back({population_.size(), 0});
            const std::size_t want =
                uses_source(kernel)
                    ? std::min(per_cell, std::max<std::size_t>(
                                             1, non_isolated / 2))
                    : 1;
            std::set<vid_t> used;
            while (used.size() < want) {
                const vid_t source =
                    uses_source(kernel) ? non_isolated_vertex(g, rng) : 0;
                if (!used.insert(source).second)
                    continue;
                gm::serve::Request req;
                req.kernel = kernel;
                req.graph = ds->name;
                req.source = source;
                population_.push_back(req);
            }
            cells_.back().size = want;
        }
    }

    if (workload == Workload::kServeMixed) {
        double total = 0;
        for (std::size_t r = 0; r < per_cell; ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            zipf_cdf_.push_back(total);
        }
        for (double& c : zipf_cdf_)
            c /= total;
    }
}

std::uint64_t
Stream::slot_seed(std::uint64_t i, std::uint64_t salt) const
{
    return seed_ ^ salt ^ ((i + 1) * 0x9e3779b97f4a7c15ULL);
}

std::uint64_t
Stream::block_rank(std::uint64_t i) const
{
    // Rank of slot i's position in a seeded shuffle of its block.
    std::vector<std::uint32_t> order(kBlock);
    for (std::uint32_t k = 0; k < kBlock; ++k)
        order[k] = k;
    gm::SplitMix64 rng(slot_seed(i / kBlock, kSaltBlock));
    for (std::uint64_t k = kBlock - 1; k > 0; --k)
        std::swap(order[k], order[rng.next() % (k + 1)]);
    return static_cast<std::uint64_t>(
        std::find(order.begin(), order.end(), i % kBlock) - order.begin());
}

Op
Stream::at(std::uint64_t i) const
{
    gm::SplitMix64 rng(slot_seed(i, kSaltOp));
    Op op;
    if (workload_ == Workload::kServeMixed) {
        const std::uint64_t rank = block_rank(i);
        if (rank < kBlockMutations) {
            op.kind = OpKind::kMutate;
            return op;
        }
        if (rank < kBlockMutations + kBlockPlans) {
            op.kind = OpKind::kPlan;
            return op;
        }
        op.query = query(rng, true);
        return op;
    }
    op.query = query(rng, false);
    return op;
}

std::uint32_t
Stream::query(gm::SplitMix64& rng, bool zipf) const
{
    const std::size_t kernels = std::size(kServedKernels);
    std::size_t kernel = 0;
    for (double u = unit(rng); kernel + 1 < kernels; ++kernel) {
        u -= kKernelShare[kernel];
        if (u < 0)
            break;
    }
    const std::size_t graph = rng.next() % (cells_.size() / kernels);
    const Cell& cell = cells_[graph * kernels + kernel];
    std::size_t rank = rng.next() % cell.size;
    if (zipf) {
        const auto it = std::upper_bound(zipf_cdf_.begin(),
                                         zipf_cdf_.begin() + cell.size,
                                         unit(rng) * zipf_cdf_[cell.size - 1]);
        rank = std::min<std::size_t>(
            static_cast<std::size_t>(it - zipf_cdf_.begin()), cell.size - 1);
    }
    return static_cast<std::uint32_t>(cell.first + rank);
}

Mutation
Stream::mutation(std::uint64_t i) const
{
    gm::SplitMix64 rng(slot_seed(i, kSaltMutate));
    const std::uint64_t rank = block_rank(i);
    const GraphInfo& graph = graphs_[rank % graphs_.size()];
    const auto n = static_cast<std::uint64_t>(graph.vertices);
    Mutation m;
    m.graph = graph.name;
    for (int k = 0; k < 4; ++k) {
        const auto u = static_cast<vid_t>(rng.next() % n);
        const auto v = static_cast<vid_t>(
            (static_cast<std::uint64_t>(u) + 1 + rng.next() % (n - 1)) % n);
        m.batch.insert(u, v);
    }
    // One batch in four also deletes an arc of the generation-0 graph, so
    // deletes land on real arcs instead of being no-ops.
    if (rank < kBlockMutations / 4) {
        const auto& arc = graph.arcs[rng.next() % graph.arcs.size()];
        m.batch.erase(arc.first, arc.second);
    }
    return m;
}

int
Stream::plan_shape(std::uint64_t i) const
{
    return static_cast<int>((block_rank(i) - kBlockMutations) % 3);
}

gm::serve::PlanRequest
Stream::plan(std::uint64_t i) const
{
    gm::SplitMix64 rng(slot_seed(i, kSaltPlan));
    const int shape = plan_shape(i);
    const GraphInfo& graph =
        graphs_[(block_rank(i) - kBlockMutations) % graphs_.size()];
    const auto n = static_cast<std::uint64_t>(graph.vertices);
    gm::plan::Plan plan;
    switch (shape) {
      case 0: {
        std::vector<vid_t> sources;
        const int count = 4 + static_cast<int>(rng.next() % 12);
        for (int k = 0; k < count; ++k)
            sources.push_back(static_cast<vid_t>(rng.next() % n));
        const int batch = plan.add_batch(Kernel::kBFS, std::move(sources));
        plan.add_histogram(batch, 16);
        plan.add_top_k(batch, 8);
        break;
      }
      case 1: {
        const int bfs = plan.add_kernel(
            Kernel::kBFS, static_cast<vid_t>(rng.next() % n));
        plan.add_histogram(bfs, 32);
        break;
      }
      default: {
        const int cc = plan.add_kernel(Kernel::kCC);
        const int pr = plan.add_kernel(Kernel::kPR);
        plan.add_component_reduce(cc, pr, gm::plan::ReduceOp::kSum);
        plan.add_top_k(pr, 8);
        break;
      }
    }
    gm::serve::PlanRequest req;
    req.graph = graph.name;
    req.plan = std::move(plan);
    return req;
}

} // namespace gapbench

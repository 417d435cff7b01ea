/**
 * @file
 * Seeded inputs of the gapbench workloads.
 *
 * Everything a serve workload sends to the server — the distinct query
 * population, the per-slot choice between query, mutation and plan, the
 * Zipf draw, every mutation batch (including which existing arcs it
 * deletes) and every plan — is a pure function of (workload, seed) and the
 * generation-0 graphs, which are themselves generated from the seed.  Slot
 * i of the stream can be computed on its own, so client threads that claim
 * slots from a shared counter send the same multiset of operations
 * however they interleave.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/harness/dataset.hh"
#include "gm/serve/server.hh"
#include "gm/support/rng.hh"

namespace gapbench
{

enum class Workload
{
    kGapSuite,
    kServeHot,
    kServeCold,
    kServeMixed,
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::kGapSuite, Workload::kServeHot, Workload::kServeCold,
    Workload::kServeMixed};

/** "gap-suite", "serve-hot", ... */
const char* to_string(Workload workload);

/** Inverse of to_string; false for an unknown name. */
bool parse_workload(const std::string& name, Workload* out);

/** Kernels the serve workloads query. */
inline constexpr gm::harness::Kernel kServedKernels[] = {
    gm::harness::Kernel::kBFS, gm::harness::Kernel::kSSSP,
    gm::harness::Kernel::kCC, gm::harness::Kernel::kPR};

enum class OpKind : std::uint8_t
{
    kQuery,
    kMutate,
    kPlan,
};

/** One slot of the stream: a query names a population entry. */
struct Op
{
    OpKind kind = OpKind::kQuery;
    std::uint32_t query = 0; ///< population index (queries only)
};

/** A mutation batch and the graph it targets. */
struct Mutation
{
    std::string graph;
    gm::dyn::MutationBatch batch;
};

/** The seeded request stream of one serve workload. */
class Stream
{
  public:
    /** Build the population and the per-graph delete candidates from the
     *  suite's generation-0 graphs.  gap-suite has an empty stream. */
    Stream(Workload workload, std::uint64_t seed,
           const gm::harness::DatasetSuite& suite);

    /** Distinct queries (GAP framework, Baseline mode, width 1), grouped
     *  in one cell per (graph, served kernel). */
    const std::vector<gm::serve::Request>& population() const
    {
        return population_;
    }

    /** What slot @p i sends. */
    Op at(std::uint64_t i) const;

    /** The batch of slot @p i (valid when at(i) is a mutation). */
    Mutation mutation(std::uint64_t i) const;

    /** The plan of slot @p i (valid when at(i) is a plan): one of the
     *  three shapes, 0 = fused BFS batch with histogram and top-k,
     *  1 = BFS with a depth histogram, 2 = CC x PR component reduce. */
    gm::serve::PlanRequest plan(std::uint64_t i) const;

    /** Shape (0..2) of the plan in slot @p i. */
    int plan_shape(std::uint64_t i) const;

  private:
    struct GraphInfo
    {
        std::string name;
        gm::vid_t vertices = 0;
        /** Seeded sample of arcs present in the generation-0 graph. */
        std::vector<std::pair<gm::vid_t, gm::vid_t>> arcs;
    };

    /** Population entries [first, first + size) of one cell. */
    struct Cell
    {
        std::size_t first = 0;
        std::size_t size = 0;
    };

    std::uint64_t slot_seed(std::uint64_t i, std::uint64_t salt) const;
    /** serve-mixed: rank of slot @p i within its seeded block. */
    std::uint64_t block_rank(std::uint64_t i) const;
    /** A cell (kernel by share, graph uniform), then a uniform or
     *  Zipf-ranked entry within it. */
    std::uint32_t query(gm::SplitMix64& rng, bool zipf) const;

    Workload workload_;
    std::uint64_t seed_;
    std::vector<gm::serve::Request> population_;
    std::vector<GraphInfo> graphs_;
    std::vector<Cell> cells_;
    /** Zipf(1.0) CDF over the ranks within a cell (serve-mixed only). */
    std::vector<double> zipf_cdf_;
};

} // namespace gapbench

/**
 * @file
 * Determinism checker: run every framework x kernel x graph cell and
 * print one `framework,kernel,graph,fingerprint` CSV row per cell, where
 * the fingerprint is an FNV-1a digest over the raw result payload.
 *
 * The output is a pure function of the suite and the kernels — never of
 * GM_THREADS — so CI diffs two runs at different thread counts and fails
 * on any byte difference:
 *
 *     GM_THREADS=1 detcheck --scale 6 > det1.csv
 *     GM_THREADS=8 detcheck --scale 6 > det8.csv
 *     diff det1.csv det8.csv
 *
 * --dyn appends rows for the dynamic-graph subsystem: a scripted
 * workload of gm::dyn merges, each installed as the next generation,
 * fingerprinting the final CSR generation of each topology.  It is
 * deterministic across GM_THREADS too (serial order-defined fold,
 * independent-write parallel splice), so the same diff covers it.
 *
 * --plan appends rows for the query-plan executor: a fixed set of
 * representative plans (a fused 70-source BFS batch crossing the 64-lane
 * sweep boundary, and a mixed kernel/aggregation DAG) run end to end
 * through Server::submit_plan, one row per plan whose fingerprint folds
 * every node's payload digest.  The serve executor runs waves
 * concurrently under the lane budget, so the same GM_THREADS diff pins
 * plan answers bit-identical at any width.
 *
 * Exit codes: 0 ok, 1 usage, 3 a kernel threw.
 */
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gm/cli/argparse.hh"
#include "gm/dyn/overlay.hh"
#include "gm/graph/generators.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/plan/plan.hh"
#include "gm/serve/server.hh"
#include "gm/support/hash.hh"
#include "gm/support/log.hh"
#include "gm/support/rng.hh"

namespace
{

using gm::harness::Dataset;
using gm::harness::Framework;
using gm::harness::Kernel;
using gm::harness::Mode;

void
usage()
{
    std::cout
        << "Usage: detcheck [options]\n"
        << "  --scale <n>        log2 vertices per suite graph (default 6)\n"
        << "  --frameworks <csv> frameworks to run (default: all)\n"
        << "  --kernels <csv>    kernels to run (default: all)\n"
        << "  --mode <name>      Baseline or Optimized (default Baseline)\n"
        << "  --dyn              also fingerprint the gm::dyn scripted\n"
        << "                     mutation workload (compacted generations)\n"
        << "  --plan             also fingerprint representative query\n"
        << "                     plans run through the serve executor\n"
        << "  -h, --help         this help\n";
}

std::uint64_t
run_cell(const Framework& fw, Kernel kernel, const Dataset& ds, Mode mode)
{
    const gm::vid_t source = ds.sources.empty() ? 0 : ds.sources[0];
    gm::support::Fnv1a h;
    switch (kernel) {
      case Kernel::kBFS:
        h.update_vector(fw.bfs(ds, source, mode));
        break;
      case Kernel::kSSSP:
        h.update_vector(fw.sssp(ds, source, mode));
        break;
      case Kernel::kCC:
        h.update_vector(fw.cc(ds, mode));
        break;
      case Kernel::kPR:
        h.update_vector(fw.pr(ds, mode));
        break;
      case Kernel::kBC:
        h.update_vector(fw.bc(ds, {source}, mode));
        break;
      case Kernel::kTC:
        h.update_value(fw.tc(ds, mode));
        break;
    }
    return h.digest();
}

/** Seeded mixed batch against @p g: ~2/3 inserts of random pairs, ~1/3
 *  deletes of an existing out-arc (so deletes take effect). */
gm::dyn::MutationBatch
scripted_batch(const gm::graph::CSRGraph& g, std::uint64_t seed, int ops)
{
    gm::dyn::MutationBatch batch;
    gm::SplitMix64 mix(seed);
    const auto n = static_cast<std::uint64_t>(g.num_vertices());
    for (int i = 0; i < ops; ++i) {
        const auto u = static_cast<gm::vid_t>(mix.next() % n);
        const auto v = static_cast<gm::vid_t>(mix.next() % n);
        if (mix.next() % 3 != 0)
            batch.insert(u, v);
        else if (const auto row = g.out_neigh(u); !row.empty())
            batch.erase(u, row.front());
    }
    return batch;
}

std::uint64_t
structure_digest(const gm::graph::CSRGraph& g)
{
    gm::support::Fnv1a h;
    h.update_value(static_cast<std::uint64_t>(g.num_vertices()));
    h.update_value(static_cast<std::uint64_t>(g.is_directed()));
    h.update_vector(g.out_offsets());
    h.update_vector(g.out_destinations());
    return h.digest();
}

/** Run the scripted dynamic workload and print one structure row per
 *  topology, in the static rows' CSV shape (framework column = "dyn"). */
void
run_dyn_rows(int scale)
{
    constexpr std::uint64_t kSeed = 2024;
    constexpr int kRounds = 4;
    struct Topology
    {
        const char* name;
        gm::graph::CSRGraph g;
    };
    const auto side = static_cast<gm::vid_t>(1 << (scale / 2));
    std::vector<Topology> topologies;
    topologies.push_back({"uniform", gm::graph::make_uniform(scale, 6, 11)});
    topologies.push_back({"road", gm::graph::make_road_like(side, side, 13)});

    for (Topology& topo : topologies) {
        auto store = std::make_shared<gm::store::GraphStore>(
            std::move(topo.g), kSeed);
        for (int round = 0; round < kRounds; ++round) {
            const gm::dyn::MutationBatch batch = scripted_batch(
                store->base(), kSeed ^ (round * 0x9e3779b97f4a7c15ULL), 24);
            auto merged = gm::dyn::merge(store->base(), batch);
            if (!merged.is_ok())
                gm::fatal("detcheck --dyn: " +
                          merged.status().to_string());
            gm::dyn::Merged next = std::move(merged).value();
            if (next.csr)
                store->install_generation(std::move(*next.csr));
        }
        std::cout << std::hex << "dyn,structure," << topo.name << ","
                  << structure_digest(store->base()) << std::dec << "\n";
    }
}

/** The scripted plans --plan fingerprints.  Fixed shapes, not random:
 *  the rows must be stable across runs so CI can diff them.  Batch
 *  sources wrap modulo @p n so the same shapes validate at any scale. */
std::vector<std::pair<std::string, gm::plan::Plan>>
scripted_plans(gm::vid_t n)
{
    namespace plan = gm::plan;
    std::vector<std::pair<std::string, plan::Plan>> out;

    // A fused batch crossing the 64-lane sweep boundary, aggregated two
    // ways off the shared payload.
    plan::Plan fused;
    std::vector<gm::vid_t> sources;
    for (gm::vid_t s = 0; s < 70; ++s)
        sources.push_back(s % n);
    const int batch = fused.add_batch(Kernel::kBFS, std::move(sources));
    fused.add_histogram(batch, 32);
    fused.add_top_k(batch, 16);
    out.emplace_back("bfs70", std::move(fused));

    // A mixed DAG: independent kernels in wave 0, aggregations (incl. a
    // per-component reduce over CC x PR) in wave 1.
    plan::Plan mixed;
    const int cc = mixed.add_kernel(Kernel::kCC);
    const int pr = mixed.add_kernel(Kernel::kPR);
    const int sssp = mixed.add_kernel(Kernel::kSSSP, 1);
    mixed.add_component_reduce(cc, pr, plan::ReduceOp::kSum);
    mixed.add_histogram(sssp, 24);
    mixed.add_top_k(pr, 8);
    out.emplace_back("mixed", std::move(mixed));
    return out;
}

/** Run the scripted plans through the serve executor and print one
 *  fingerprint row per plan (framework column = "plan"); the digest
 *  folds every node's payload fingerprint in id order. */
int
run_plan_rows(const gm::harness::DatasetSuite& suite,
              const std::vector<Framework>& frameworks, Mode mode)
{
    gm::serve::ServerOptions options;
    options.workers = 4;
    gm::serve::Server server(suite, frameworks, options);
    int failures = 0;
    for (const char* graph : {"Kron", "Road"}) {
        gm::vid_t n = 0;
        for (const auto& ds : suite.datasets) {
            if (ds->name == graph)
                n = ds->g().num_vertices();
        }
        for (const auto& [name, p] : scripted_plans(n)) {
            gm::serve::PlanRequest req;
            req.graph = graph;
            req.mode = mode;
            req.plan = p;
            req.width = 8;
            const auto result = server.run_plan(req);
            if (!result.is_ok()) {
                std::cerr << "plan/" << name << "/" << graph
                          << " failed: " << result.status().to_string()
                          << "\n";
                ++failures;
                continue;
            }
            gm::support::Fnv1a h;
            for (const auto& node : result.value().nodes)
                h.update_value(node.fingerprint);
            std::cout << "plan," << name << "," << graph << ","
                      << std::hex << h.digest() << std::dec << "\n";
        }
    }
    return failures;
}

bool
selected(const std::string& csv, const std::string& name)
{
    if (csv.empty())
        return true;
    std::stringstream in(csv);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item == name)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    int scale = 6;
    std::string frameworks_csv;
    std::string kernels_csv;
    std::string mode_name = "Baseline";
    bool dyn = false;
    bool plan = false;

    gm::cli::ArgParser parser("detcheck");
    parser.usage(usage);
    parser.value({"--scale"}, &scale);
    parser.value({"--frameworks"}, &frameworks_csv);
    parser.value({"--kernels"}, &kernels_csv);
    parser.value({"--mode"}, &mode_name);
    parser.flag({"--dyn"}, &dyn);
    parser.flag({"--plan"}, &plan);
    if (!parser.parse(argc, argv))
        return parser.help_requested() ? 0 : 1;
    if (scale < 4) {
        std::cerr << "invalid --scale\n";
        return 1;
    }
    Mode mode;
    if (mode_name == "Baseline") {
        mode = Mode::kBaseline;
    } else if (mode_name == "Optimized") {
        mode = Mode::kOptimized;
    } else {
        std::cerr << "unknown --mode: " << mode_name << "\n";
        return 1;
    }

    const gm::harness::DatasetSuite suite =
        gm::harness::make_gap_suite(scale);
    const std::vector<Framework> frameworks =
        gm::harness::make_frameworks();

    std::cout << "framework,kernel,graph,fingerprint\n";
    int failures = 0;
    for (const Framework& fw : frameworks) {
        if (!selected(frameworks_csv, fw.name))
            continue;
        for (Kernel kernel : gm::harness::kAllKernels) {
            if (!selected(kernels_csv, gm::harness::to_string(kernel)))
                continue;
            for (const auto& ds : suite.datasets) {
                try {
                    const std::uint64_t digest =
                        run_cell(fw, kernel, *ds, mode);
                    std::cout << fw.name << ","
                              << gm::harness::to_string(kernel) << ","
                              << ds->name << "," << std::hex << digest
                              << std::dec << "\n";
                } catch (const std::exception& e) {
                    std::cerr << fw.name << "/"
                              << gm::harness::to_string(kernel) << "/"
                              << ds->name << " threw: " << e.what()
                              << "\n";
                    ++failures;
                }
            }
        }
    }
    if (dyn)
        run_dyn_rows(scale);
    if (plan)
        failures += run_plan_rows(suite, frameworks, mode);
    return failures == 0 ? 0 : 3;
}

/** Unit tests for gm::graph: builder, CSR invariants, generators, stats, IO. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>

#include "gm/graph/builder.hh"
#include "gm/graph/csr.hh"
#include "gm/graph/generators.hh"
#include "gm/graph/io.hh"
#include "gm/graph/stats.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/rng.hh"

namespace gm::graph
{
namespace
{

/** Structural invariants every built CSR graph must satisfy. */
template <typename DestT>
void
check_csr_invariants(const CSRGraphT<DestT>& g)
{
    const vid_t n = g.num_vertices();
    const auto& off = g.out_offsets();
    ASSERT_EQ(off.size(), static_cast<std::size_t>(n) + 1);
    ASSERT_EQ(off[0], 0);
    for (vid_t v = 0; v < n; ++v) {
        ASSERT_LE(off[v], off[v + 1]);
        const auto neigh = g.out_neigh(v);
        for (std::size_t i = 1; i < neigh.size(); ++i) {
            ASSERT_LT(target(neigh[i - 1]), target(neigh[i]))
                << "adjacency not sorted+deduped at vertex " << v;
        }
        for (const auto& d : neigh) {
            ASSERT_GE(target(d), 0);
            ASSERT_LT(target(d), n);
            ASSERT_NE(target(d), v) << "self loop survived";
        }
    }
}

TEST(Builder, TinyDirectedGraph)
{
    // 0 -> 1, 0 -> 2, 2 -> 1 (+ duplicate, + self loop to be dropped)
    EdgeList edges = {{0, 1}, {0, 2}, {2, 1}, {0, 2}, {1, 1}};
    CSRGraph g = build_graph(edges, 3, /*directed=*/true);
    check_csr_invariants(g);
    EXPECT_TRUE(g.is_directed());
    EXPECT_EQ(g.num_vertices(), 3);
    EXPECT_EQ(g.num_edges_directed(), 3);
    EXPECT_EQ(g.out_degree(0), 2);
    EXPECT_EQ(g.out_degree(1), 0);
    EXPECT_EQ(g.out_degree(2), 1);
    EXPECT_EQ(g.in_degree(1), 2);
    EXPECT_EQ(g.in_degree(2), 1);
    EXPECT_EQ(g.in_degree(0), 0);
}

TEST(Builder, UndirectedSymmetrizes)
{
    EdgeList edges = {{0, 1}, {1, 2}};
    CSRGraph g = build_graph(edges, 3, /*directed=*/false);
    check_csr_invariants(g);
    EXPECT_FALSE(g.is_directed());
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_EQ(g.num_edges_directed(), 4);
    EXPECT_EQ(g.out_degree(1), 2);
    // in_neigh aliases out_neigh for undirected graphs.
    EXPECT_EQ(g.in_degree(1), 2);
    const auto n1 = g.out_neigh(1);
    EXPECT_EQ(n1[0], 0);
    EXPECT_EQ(n1[1], 2);
}

TEST(Builder, InOutEdgesAgreeOnDirectedGraphs)
{
    CSRGraph g = make_twitter_like(10, 8, 123);
    check_csr_invariants(g);
    // Every out-edge u->v must appear as an in-edge at v.
    std::multiset<std::pair<vid_t, vid_t>> out_edges;
    std::multiset<std::pair<vid_t, vid_t>> in_edges;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
        for (vid_t u : g.out_neigh(v))
            out_edges.insert({v, u});
        for (vid_t u : g.in_neigh(v))
            in_edges.insert({u, v});
    }
    EXPECT_EQ(out_edges, in_edges);
}

TEST(Builder, WeightedGraphKeepsWeights)
{
    WEdgeList edges = {{0, 1, 5}, {1, 2, 7}};
    WCSRGraph g = build_wgraph(edges, 3, /*directed=*/false);
    check_csr_invariants(g);
    const auto n1 = g.out_neigh(1);
    ASSERT_EQ(n1.size(), 2u);
    EXPECT_EQ(n1[0].v, 0);
    EXPECT_EQ(n1[0].w, 5);
    EXPECT_EQ(n1[1].v, 2);
    EXPECT_EQ(n1[1].w, 7);
}

TEST(Builder, AddWeightsIsSymmetricAndInRange)
{
    CSRGraph g = make_uniform(10, 8, 7);
    WCSRGraph wg = add_weights(g, 99);
    check_csr_invariants(wg);
    ASSERT_EQ(wg.num_vertices(), g.num_vertices());
    ASSERT_EQ(wg.num_edges_directed(), g.num_edges_directed());
    for (vid_t v = 0; v < wg.num_vertices(); ++v) {
        for (const WNode& wn : wg.out_neigh(v)) {
            EXPECT_GE(wn.w, 1);
            EXPECT_LE(wn.w, 255);
            // find reverse edge weight
            const auto rev = wg.out_neigh(wn.v);
            auto it = std::find_if(rev.begin(), rev.end(), [&](const WNode& r) {
                return r.v == v;
            });
            ASSERT_NE(it, rev.end());
            EXPECT_EQ(it->w, wn.w) << "asymmetric weight " << v << "<->"
                                   << wn.v;
        }
    }
}

TEST(Builder, TransposeReversesEdges)
{
    EdgeList edges = {{0, 1}, {0, 2}, {2, 1}};
    CSRGraph g = build_graph(edges, 3, true);
    CSRGraph t = transpose(g);
    EXPECT_EQ(t.out_degree(1), 2);
    EXPECT_EQ(t.out_degree(0), 0);
    EXPECT_EQ(t.in_degree(1), 0);
    EXPECT_EQ(t.in_degree(2), 1);
}

TEST(Builder, RelabelByDegreePreservesStructure)
{
    CSRGraph g = make_kronecker(10, 8, 5);
    std::vector<vid_t> new_to_old;
    CSRGraph r = relabel_by_degree(g, &new_to_old);
    check_csr_invariants(r);
    EXPECT_EQ(r.num_vertices(), g.num_vertices());
    EXPECT_EQ(r.num_edges_directed(), g.num_edges_directed());
    // Degrees must be non-increasing in the new ordering.
    for (vid_t v = 1; v < r.num_vertices(); ++v)
        EXPECT_GE(r.out_degree(v - 1), r.out_degree(v));
    // Permutation must be a bijection.
    std::vector<vid_t> seen(new_to_old.begin(), new_to_old.end());
    std::sort(seen.begin(), seen.end());
    for (vid_t v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(seen[v], v);
    // Spot-check: edges map through the permutation.
    for (vid_t v = 0; v < r.num_vertices(); ++v) {
        for (vid_t u : r.out_neigh(v)) {
            const vid_t ov = new_to_old[v];
            const vid_t ou = new_to_old[u];
            const auto neigh = g.out_neigh(ov);
            ASSERT_TRUE(std::binary_search(neigh.begin(), neigh.end(), ou));
        }
    }
}

// ------------------------------------------- equivalence with edge lists
//
// The builder derives a directed graph's in-rows by transposing its
// out-rows, and relabel_by_degree() and symmetrize() work CSR-to-CSR.
// Each must match, byte for byte, a serial rebuild from an edge list: one
// row per key, sorted, deduplicated, self-loops dropped per the options.

vid_t
oracle_entry(const Edge& e, bool forward)
{
    return forward ? e.v : e.u;
}

WNode
oracle_entry(const WEdge& e, bool forward)
{
    return WNode{forward ? e.v : e.u, e.w};
}

/** One CSR direction of @p edges: keyed by source (@p forward) or target. */
template <typename EdgeT, typename DestT>
std::pair<std::vector<eid_t>, std::vector<DestT>>
oracle_half(const std::vector<EdgeT>& edges, vid_t n, bool forward,
            const BuildOptions& opts)
{
    std::vector<std::vector<DestT>> rows(static_cast<std::size_t>(n));
    for (const EdgeT& e : edges) {
        if (opts.remove_self_loops && e.u == e.v)
            continue;
        rows[forward ? e.u : e.v].push_back(oracle_entry(e, forward));
        if (opts.symmetrize)
            rows[forward ? e.v : e.u].push_back(oracle_entry(e, !forward));
    }
    std::vector<eid_t> offsets = {0};
    std::vector<DestT> dests;
    for (auto& row : rows) {
        std::sort(row.begin(), row.end(), [](const DestT& a, const DestT& b) {
            return dest_less(a, b);
        });
        if (opts.dedup) {
            row.erase(std::unique(row.begin(), row.end(),
                                  [](const DestT& a, const DestT& b) {
                                      return target(a) == target(b);
                                  }),
                      row.end());
        }
        dests.insert(dests.end(), row.begin(), row.end());
        offsets.push_back(static_cast<eid_t>(dests.size()));
    }
    return {std::move(offsets), std::move(dests)};
}

template <typename EdgeT, typename DestT = decltype(oracle_entry(EdgeT{}, true))>
CSRGraphT<DestT>
oracle_build(const std::vector<EdgeT>& edges, vid_t n, bool directed,
             BuildOptions opts = {})
{
    if (!directed)
        opts.symmetrize = true;
    auto [out_off, out_nbr] = oracle_half<EdgeT, DestT>(edges, n, true, opts);
    if (opts.symmetrize)
        return CSRGraphT<DestT>(n, false, std::move(out_off), std::move(out_nbr));
    auto [in_off, in_nbr] = oracle_half<EdgeT, DestT>(edges, n, false, opts);
    return CSRGraphT<DestT>(n, true, std::move(out_off), std::move(out_nbr),
                            std::move(in_off), std::move(in_nbr));
}

/** The out-arcs of @p g as an edge list. */
EdgeList
out_arcs(const CSRGraph& g)
{
    EdgeList edges;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
        for (vid_t u : g.out_neigh(v))
            edges.push_back({v, u});
    return edges;
}

/** Relabel by sorting (degree desc, id asc) and rebuilding the renamed
 *  out-arcs; undirected inputs already hold both directions. */
CSRGraph
oracle_relabel(const CSRGraph& g, std::vector<vid_t>* new_to_old)
{
    const vid_t n = g.num_vertices();
    std::vector<vid_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
        return g.out_degree(a) > g.out_degree(b) ||
               (g.out_degree(a) == g.out_degree(b) && a < b);
    });
    std::vector<vid_t> old_to_new(static_cast<std::size_t>(n));
    for (vid_t i = 0; i < n; ++i)
        old_to_new[order[i]] = i;
    EdgeList edges = out_arcs(g);
    for (Edge& e : edges)
        e = {old_to_new[e.u], old_to_new[e.v]};
    *new_to_old = order;
    CSRGraph rebuilt = oracle_build(edges, n, true);
    if (g.is_directed())
        return rebuilt;
    return CSRGraph(n, false, rebuilt.out_offsets(), rebuilt.out_destinations());
}

template <typename DestT>
void
expect_same_bytes(const CSRGraphT<DestT>& got, const CSRGraphT<DestT>& want)
{
    EXPECT_EQ(got.num_vertices(), want.num_vertices());
    EXPECT_EQ(got.is_directed(), want.is_directed());
    EXPECT_EQ(got.out_offsets(), want.out_offsets());
    EXPECT_EQ(got.out_destinations(), want.out_destinations());
    EXPECT_EQ(got.in_offsets(), want.in_offsets());
    EXPECT_EQ(got.in_destinations(), want.in_destinations());
}

/**
 * Seeded random edges over 200 vertices whose endpoints come from the
 * first 150 only (50 isolated vertices), drawn from a narrow range so
 * duplicates are common, plus explicit self-loops.  Weights in [1, 4]
 * make duplicate arcs disagree on their weight.
 */
WEdgeList
random_wedges(std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    WEdgeList edges;
    for (int i = 0; i < 1500; ++i) {
        const auto u = static_cast<vid_t>(rng.next_bounded(150));
        const auto v = i % 10 == 0
                           ? u
                           : static_cast<vid_t>(rng.next_bounded(150));
        edges.push_back({u, v, static_cast<weight_t>(rng.next_bounded(4) + 1)});
    }
    return edges;
}

EdgeList
unweighted(const WEdgeList& wedges)
{
    EdgeList edges;
    for (const WEdge& e : wedges)
        edges.push_back({e.u, e.v});
    return edges;
}

constexpr vid_t kOracleVertices = 200;
constexpr std::uint64_t kOracleSeeds[] = {1, 2, 3, 4, 5};
constexpr int kOracleWidths[] = {1, 4};

/** Every (dedup, remove_self_loops, symmetrize) combination. */
std::vector<BuildOptions>
all_build_options()
{
    std::vector<BuildOptions> all;
    for (bool dedup : {false, true})
        for (bool loops : {false, true})
            for (bool sym : {false, true})
                all.push_back({.symmetrize = sym,
                               .remove_self_loops = loops,
                               .dedup = dedup});
    return all;
}

TEST(BuilderOracle, BuildGraphMatchesEdgeListRebuild)
{
    for (const std::uint64_t seed : kOracleSeeds) {
        const WEdgeList wedges = random_wedges(seed);
        const EdgeList edges = unweighted(wedges);
        for (const BuildOptions& opts : all_build_options()) {
            for (const bool directed : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "seed " << seed << " directed " << directed
                             << " dedup " << opts.dedup << " loops "
                             << opts.remove_self_loops << " sym "
                             << opts.symmetrize);
                const CSRGraph want =
                    oracle_build(edges, kOracleVertices, directed, opts);
                const WCSRGraph wwant =
                    oracle_build(wedges, kOracleVertices, directed, opts);
                for (const int width : kOracleWidths) {
                    par::LaneLease lease(width);
                    expect_same_bytes(
                        build_graph(edges, kOracleVertices, directed, opts),
                        want);
                    expect_same_bytes(
                        build_wgraph(wedges, kOracleVertices, directed, opts),
                        wwant);
                }
            }
        }
    }
}

/** Inputs for the transforms: directed and undirected graphs, including
 *  ones that kept their duplicates and self-loops, and ones whose rows are
 *  not sorted (as a .gmg file may hold them). */
std::vector<CSRGraph>
transform_inputs(std::uint64_t seed)
{
    const EdgeList edges = unweighted(random_wedges(seed));
    const BuildOptions raw{.remove_self_loops = false, .dedup = false};
    const BuildOptions unsorted{.remove_self_loops = false,
                                .sort_neighbors = false,
                                .dedup = false};
    return {build_graph(edges, kOracleVertices, true),
            build_graph(edges, kOracleVertices, false),
            build_graph(edges, kOracleVertices, true, raw),
            build_graph(edges, kOracleVertices, false, raw),
            build_graph(edges, kOracleVertices, true, unsorted),
            build_graph(edges, kOracleVertices, false, unsorted)};
}

TEST(BuilderOracle, RelabelByDegreeMatchesEdgeListRebuild)
{
    for (const std::uint64_t seed : kOracleSeeds) {
        for (const CSRGraph& g : transform_inputs(seed)) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " directed "
                         << g.is_directed() << " arcs "
                         << g.num_edges_directed());
            std::vector<vid_t> want_order;
            const CSRGraph want = oracle_relabel(g, &want_order);
            for (const int width : kOracleWidths) {
                par::LaneLease lease(width);
                std::vector<vid_t> order;
                expect_same_bytes(relabel_by_degree(g, &order), want);
                EXPECT_EQ(order, want_order);
            }
        }
    }
}

TEST(BuilderOracle, SymmetrizeMatchesEdgeListRebuild)
{
    for (const std::uint64_t seed : kOracleSeeds) {
        for (const CSRGraph& g : transform_inputs(seed)) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " directed "
                         << g.is_directed() << " arcs "
                         << g.num_edges_directed());
            const CSRGraph want =
                oracle_build(out_arcs(g), g.num_vertices(), false);
            for (const int width : kOracleWidths) {
                par::LaneLease lease(width);
                expect_same_bytes(symmetrize(g), want);
            }
        }
    }
}

class GeneratorTest
    : public ::testing::TestWithParam<std::pair<const char*, CSRGraph>>
{
};

TEST(Generators, UniformHasExpectedSizeAndShape)
{
    CSRGraph g = make_uniform(12, 16, 11);
    check_csr_invariants(g);
    EXPECT_EQ(g.num_vertices(), 1 << 12);
    EXPECT_FALSE(g.is_directed());
    const DegreeStats stats = degree_stats(g);
    EXPECT_NEAR(stats.average, 16.0, 2.0);
    EXPECT_EQ(classify_degree_distribution(g),
              DegreeDistribution::kNormal);
}

TEST(Generators, KroneckerIsPowerLaw)
{
    CSRGraph g = make_kronecker(13, 16, 11);
    check_csr_invariants(g);
    EXPECT_FALSE(g.is_directed());
    EXPECT_EQ(classify_degree_distribution(g), DegreeDistribution::kPower);
    const DegreeStats stats = degree_stats(g);
    EXPECT_GT(static_cast<double>(stats.max), 10 * stats.average);
}

TEST(Generators, TwitterLikeIsDirectedPowerLaw)
{
    CSRGraph g = make_twitter_like(12, 16, 3);
    check_csr_invariants(g);
    EXPECT_TRUE(g.is_directed());
    EXPECT_EQ(classify_degree_distribution(g), DegreeDistribution::kPower);
}

TEST(Generators, WebLikeIsDirectedSkewedInDegree)
{
    CSRGraph g = make_web_like(12, 12, 3);
    check_csr_invariants(g);
    EXPECT_TRUE(g.is_directed());
    // In-degree skew: some page is far above the mean.
    eid_t max_in = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
        max_in = std::max(max_in, g.in_degree(v));
    const double avg =
        static_cast<double>(g.num_edges_directed()) / g.num_vertices();
    EXPECT_GT(static_cast<double>(max_in), 10 * avg);
}

TEST(Generators, RoadLikeIsHighDiameterBoundedDegree)
{
    CSRGraph g = make_road_like(60, 50, 3);
    check_csr_invariants(g);
    EXPECT_TRUE(g.is_directed());
    const DegreeStats stats = degree_stats(g);
    EXPECT_LE(stats.max, 4);
    EXPECT_EQ(classify_degree_distribution(g),
              DegreeDistribution::kBounded);
    EXPECT_GT(approx_diameter(g), 60);
}

TEST(Generators, DeterministicForSameSeed)
{
    CSRGraph a = make_kronecker(10, 16, 42);
    CSRGraph b = make_kronecker(10, 16, 42);
    EXPECT_EQ(a.out_offsets(), b.out_offsets());
    EXPECT_EQ(a.out_destinations(), b.out_destinations());
    CSRGraph c = make_kronecker(10, 16, 43);
    EXPECT_NE(a.out_destinations(), c.out_destinations());
}

TEST(Stats, ApproxDiameterOnPathGraph)
{
    // Path of 50 vertices: diameter 49.
    EdgeList edges;
    for (vid_t v = 0; v + 1 < 50; ++v)
        edges.push_back({v, v + 1});
    CSRGraph g = build_graph(edges, 50, /*directed=*/false);
    EXPECT_EQ(approx_diameter(g, 4), 49);
}

TEST(Stats, ApproxDiameterIsWidthInvariant)
{
    // The sweeps run concurrently; their starts are drawn up front, so
    // the result must not depend on how many lanes ran them.
    const CSRGraph g = make_road_like(24, 40, 3);
    vid_t serial = 0;
    {
        par::LaneLease lease(1);
        serial = approx_diameter(g, 8, 11);
    }
    par::LaneLease lease(4);
    EXPECT_EQ(approx_diameter(g, 8, 11), serial);
}

TEST(Stats, DegreeStatsExact)
{
    EdgeList edges = {{0, 1}, {0, 2}, {0, 3}};
    CSRGraph g = build_graph(edges, 4, true);
    const DegreeStats s = degree_stats(g);
    EXPECT_DOUBLE_EQ(s.average, 0.75);
    EXPECT_EQ(s.max, 3);
}

TEST(Io, EdgeListRoundTrip)
{
    CSRGraph g = make_uniform(8, 8, 17);
    const std::string path = "/tmp/gm_io_test.el";
    ASSERT_TRUE(write_edge_list(g, path).is_ok());
    vid_t n = 0;
    auto edges = read_edge_list(path, &n);
    ASSERT_TRUE(edges.is_ok()) << edges.status().to_string();
    // The written list already has both directions; rebuild as directed and
    // compare structure.
    CSRGraph h = build_graph(*edges, g.num_vertices(), true);
    EXPECT_EQ(h.out_offsets(), g.out_offsets());
    EXPECT_EQ(h.out_destinations(), g.out_destinations());
    std::remove(path.c_str());
}

TEST(Io, BinaryRoundTripUndirected)
{
    CSRGraph g = make_kronecker(10, 16, 9);
    const std::string path = "/tmp/gm_io_test.gmg";
    ASSERT_TRUE(save_binary(g, path).is_ok());
    auto loaded = load_binary(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    CSRGraph h = *std::move(loaded);
    EXPECT_EQ(h.num_vertices(), g.num_vertices());
    EXPECT_EQ(h.is_directed(), g.is_directed());
    EXPECT_EQ(h.out_offsets(), g.out_offsets());
    EXPECT_EQ(h.out_destinations(), g.out_destinations());
    std::remove(path.c_str());
}

TEST(Io, BinaryRoundTripDirected)
{
    CSRGraph g = make_twitter_like(9, 8, 9);
    const std::string path = "/tmp/gm_io_test_dir.gmg";
    ASSERT_TRUE(save_binary(g, path).is_ok());
    auto loaded = load_binary(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    CSRGraph h = *std::move(loaded);
    EXPECT_TRUE(h.is_directed());
    EXPECT_EQ(h.out_offsets(), g.out_offsets());
    EXPECT_EQ(h.out_destinations(), g.out_destinations());
    EXPECT_EQ(h.in_offsets(), g.in_offsets());
    EXPECT_EQ(h.in_destinations(), g.in_destinations());
    std::remove(path.c_str());
}

TEST(Io, WeightedEdgeListParses)
{
    const std::string path = "/tmp/gm_io_test.wel";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        std::fputs("0 1 5\n1 2 7\n", f);
        std::fclose(f);
    }
    vid_t n = 0;
    auto edges = read_weighted_edge_list(path, &n);
    ASSERT_TRUE(edges.is_ok()) << edges.status().to_string();
    ASSERT_EQ(edges->size(), 2u);
    EXPECT_EQ(n, 3);
    EXPECT_EQ((*edges)[1].w, 7);
    std::remove(path.c_str());
}

} // namespace
} // namespace gm::graph

/**
 * @file
 * GraphStore tests: lazy memoized artifact builds, thread-safe
 * single-build, zero-copy buffer sharing between the CSR graph and its
 * GraphBLAS views, bit-identical op results between the widened legacy
 * matrices and the new views, the memory-reduction acceptance bound, and
 * eviction safety for outstanding handles.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/grb/lagraph.hh"
#include "gm/grb/ops.hh"
#include "gm/harness/dataset.hh"
#include "gm/store/graph_store.hh"

namespace gm
{
namespace
{

using grb::Index;
using store::ArtifactInfo;
using store::GraphStore;

ArtifactInfo
find_artifact(const GraphStore& store, const std::string& name)
{
    for (const auto& row : store.artifacts()) {
        if (row.name == name)
            return row;
    }
    ADD_FAILURE() << "no artifact named " << name;
    return {};
}

TEST(GraphStoreTest, DerivedFormsAreLazyAndMemoized)
{
    GraphStore store(graph::make_kronecker(8, 8, 1), 7);

    // Nothing derived is built at construction.
    EXPECT_EQ(store.bytes_resident(), store.base().bytes_resident());
    for (const auto& row : store.artifacts()) {
        if (row.name != "base" && row.name != "undirected") {
            EXPECT_FALSE(row.resident) << row.name;
        }
        EXPECT_EQ(row.builds, 0) << row.name;
    }

    // First access builds; second returns the same object.
    auto w1 = store.weighted();
    auto w2 = store.weighted();
    EXPECT_EQ(w1.get(), w2.get());
    const auto row = find_artifact(store, "weighted");
    EXPECT_TRUE(row.resident);
    EXPECT_EQ(row.builds, 1);
    EXPECT_GT(row.bytes, 0u);
    EXPECT_EQ(store.bytes_resident(),
              store.base().bytes_resident() + row.bytes);
}

TEST(GraphStoreTest, FingerprintIsStableAndContentSensitive)
{
    GraphStore a(graph::make_kronecker(8, 8, 1), 7);
    GraphStore b(graph::make_kronecker(8, 8, 1), 7);
    // Same content -> same fingerprint, memoized across calls.
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), a.fingerprint());
    // Different topology or different weight seed -> different key.
    GraphStore c(graph::make_kronecker(8, 8, 2), 7);
    GraphStore d(graph::make_kronecker(8, 8, 1), 8);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
    EXPECT_NE(a.fingerprint(), d.fingerprint());
}

TEST(GraphStoreTest, ConcurrentAcquireBuildsExactlyOnce)
{
    GraphStore store(graph::make_kronecker(10, 8, 2), 7);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const grb::lagraph::GrbGraph>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&store, &got, t] { got[t] = store.grb(); });
    for (auto& th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
    EXPECT_EQ(find_artifact(store, "grb").builds, 1);
}

TEST(GraphStoreTest, UndirectedInputAliasesItsOwnSymmetrization)
{
    graph::EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
    GraphStore store(graph::build_graph(edges, 4, /*directed=*/false), 7);

    EXPECT_EQ(store.undirected().get(), store.base_ptr().get());
    const auto row = find_artifact(store, "undirected");
    EXPECT_TRUE(row.resident);
    EXPECT_TRUE(row.alias);
    EXPECT_EQ(row.bytes, 0u);
    // An alias adds nothing to the footprint.
    EXPECT_EQ(store.bytes_resident(), store.base().bytes_resident());
}

TEST(GraphStoreTest, GrbViewsShareTheGraphsOwnBuffers)
{
    GraphStore store(graph::make_twitter_like(9, 8, 3), 7);
    const graph::CSRGraph& g = store.base();
    ASSERT_TRUE(g.is_directed());

    auto gg = store.grb();
    EXPECT_TRUE(gg->A.is_view());
    EXPECT_TRUE(gg->A.pattern_only());
    EXPECT_EQ(gg->A.row_ptr().data(), g.out_offsets().data());
    EXPECT_EQ(gg->A.col_idx().data(), g.out_destinations().data());
    EXPECT_EQ(gg->AT.row_ptr().data(), g.in_offsets().data());
    EXPECT_EQ(gg->AT.col_idx().data(), g.in_destinations().data());

    // The weighted packaging shares the adjacency views and the weighted
    // graph's row pointers; only split columns/values are owned.
    auto wg = store.weighted();
    auto gw = store.grb_weighted();
    EXPECT_EQ(gw->A.col_idx().data(), gg->A.col_idx().data());
    EXPECT_EQ(gw->AT.col_idx().data(), gg->AT.col_idx().data());
    EXPECT_EQ(gw->WA.row_ptr().data(), wg->out_offsets().data());
    EXPECT_EQ(gw->WA.nvals(),
              static_cast<Index>(wg->out_destinations().size()));
}

TEST(GraphStoreTest, UndirectedGrbTransposeAliasesForward)
{
    graph::EdgeList edges{{0, 1}, {1, 2}, {2, 0}, {2, 3}};
    GraphStore store(graph::build_graph(edges, 4, /*directed=*/false), 7);
    auto gg = store.grb();
    // Undirected: in-edge arrays are the out-edge arrays, so AT is A.
    EXPECT_EQ(gg->AT.row_ptr().data(), gg->A.row_ptr().data());
    EXPECT_EQ(gg->AT.col_idx().data(), gg->A.col_idx().data());
}

TEST(GrbViewEquivalenceTest, PullOpsMatchWidenedMatricesBitForBit)
{
    const graph::CSRGraph g = graph::make_kronecker(8, 8, 4);
    const Index n = g.num_vertices();

    const grb::Matrix<std::uint8_t> at64 =
        grb::matrix_from_graph_transposed(g);
    const grb::PatternMatrix atv = grb::pattern_view_from_graph_transposed(g);

    // PageRank's semiring: dense input, per-row sequential accumulation.
    grb::Vector<double> contrib(n);
    contrib.fill(0.0);
    for (Index i = 0; i < n; ++i)
        contrib.raw_values()[i] = 1.0 / static_cast<double>(i + 1);
    grb::Vector<double> out64(n);
    grb::Vector<double> outv(n);
    grb::mxv_pull<grb::PlusSecond>(
        out64, static_cast<const grb::Vector<double>*>(nullptr), false, at64,
        contrib);
    grb::mxv_pull<grb::PlusSecond>(
        outv, static_cast<const grb::Vector<double>*>(nullptr), false, atv,
        contrib);
    for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(out64.present(i), outv.present(i)) << i;
        ASSERT_EQ(out64.raw_values()[i], outv.raw_values()[i]) << i;
    }

    // BFS's semiring over a bitmap frontier.
    grb::Vector<Index> q(n);
    for (Index i = 0; i < n; i += 3)
        q.set(i, i);
    q.convert(grb::Rep::kBitmap);
    grb::Vector<Index> p64(n);
    grb::Vector<Index> pv(n);
    grb::mxv_pull<grb::AnySecondi>(
        p64, static_cast<const grb::Vector<Index>*>(nullptr), false, at64, q);
    grb::mxv_pull<grb::AnySecondi>(
        pv, static_cast<const grb::Vector<Index>*>(nullptr), false, atv, q);
    for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(p64.present(i), pv.present(i)) << i;
        if (p64.present(i)) {
            ASSERT_EQ(p64.raw_values()[i], pv.raw_values()[i]) << i;
        }
    }
}

TEST(GrbViewEquivalenceTest, WeightedPushMatchesWidenedMatrixBitForBit)
{
    const graph::CSRGraph g = graph::make_kronecker(8, 8, 5);
    const graph::WCSRGraph wg = graph::add_weights(g, 11);
    const Index n = g.num_vertices();

    const grb::Matrix<std::int32_t> w64 = grb::matrix_from_wgraph(wg);
    const grb::WeightMatrix wv = grb::weight_view_from_wgraph(wg);

    grb::Vector<std::int32_t> s(n);
    s.set(0, 0);
    s.set(n / 2, 3);
    grb::Vector<std::int32_t> out64(n);
    grb::Vector<std::int32_t> outv(n);
    // MinPlus combines via integer min: deterministic under parallelism.
    grb::vxm_push<grb::MinPlus>(
        out64, static_cast<const grb::Vector<std::int32_t>*>(nullptr), false,
        s, w64);
    grb::vxm_push<grb::MinPlus>(
        outv, static_cast<const grb::Vector<std::int32_t>*>(nullptr), false,
        s, wv);
    for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(out64.present(i), outv.present(i)) << i;
        if (out64.present(i)) {
            ASSERT_EQ(out64.raw_values()[i], outv.raw_values()[i]) << i;
        }
    }
}

TEST(GrbViewEquivalenceTest, TcMatchesWidenedTrilTriuPipeline)
{
    GraphStore store(graph::make_kronecker(9, 8, 6), 7);
    auto und = store.undirected();

    // The pre-refactor pipeline: widened 64-bit copies of A, L and U.
    const grb::Matrix<std::uint8_t> a64 = grb::matrix_from_graph(*und);
    const auto l = grb::tril(a64);
    const auto u = grb::triu(a64);
    const std::int64_t widened_count =
        grb::reduce_matrix(grb::mxm_masked_plus_pair(l, u));

    EXPECT_EQ(grb::lagraph::tc(*und),
              static_cast<std::uint64_t>(widened_count));
}

TEST(GraphStoreTest, GrbPackagingShrinksAtLeastFortyPercent)
{
    // The acceptance bound from the refactor: owned bytes of the zero-copy
    // GraphBLAS packaging (pattern + weighted) must be at most 60% of what
    // the widened 64-bit copies cost, per dataset.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        GraphStore store(graph::make_kronecker(10, 8, seed), seed);
        const std::size_t widened =
            grb::lagraph::widened_grb_bytes(store.base());
        const std::size_t packaged = store.grb()->bytes_owned() +
                                     store.grb_weighted()->bytes_owned();
        EXPECT_LE(packaged * 10, widened * 6)
            << "seed " << seed << ": " << packaged << " vs widened "
            << widened;
    }
}

TEST(GraphStoreTest, EvictionKeepsOutstandingHandlesValid)
{
    GraphStore store(graph::make_twitter_like(9, 8, 8), 7);
    auto und = store.undirected();
    auto gg = store.grb();
    const Index n = gg->n;

    store.evict_derived();
    EXPECT_EQ(store.bytes_resident(), store.base().bytes_resident());
    for (const auto& row : store.artifacts()) {
        if (row.name != "base") {
            EXPECT_FALSE(row.resident) << row.name;
        }
    }

    // Outstanding handles still work: the symmetrized graph is pinned by
    // our shared_ptr, the views by their keep-alive on the base graph.
    EXPECT_FALSE(und->is_directed());
    const auto parent = grb::lagraph::bfs_parent(*gg, 0);
    EXPECT_EQ(parent.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(parent[0], 0);

    // Accounting survives eviction, and a re-acquire rebuilds.
    auto gg2 = store.grb();
    EXPECT_NE(gg.get(), gg2.get());
    EXPECT_EQ(find_artifact(store, "grb").builds, 2);
}

TEST(GraphStoreTest, DynAccountingAcrossMutateCompactEvictCycle)
{
    auto store =
        std::make_shared<GraphStore>(graph::make_uniform(9, 6, 5), 7);
    const std::size_t base0 = store->base().bytes_resident();
    EXPECT_EQ(store->bytes_resident(), base0);

    // Merge a batch and install it while a pin holds generation 0: the
    // old base retires but stays accounted.
    dyn::MutationBatch batch;
    for (vid_t i = 0; i < 32; ++i)
        batch.insert(i, i + 100);
    std::shared_ptr<const store::Generation> pinned = store->current();
    auto merged = dyn::merge(store->base(), batch);
    ASSERT_TRUE(merged.is_ok());
    dyn::Merged next = std::move(merged).value();
    ASSERT_TRUE(next.csr.has_value());
    store->install_generation(std::move(*next.csr));
    const std::size_t base1 = store->base().bytes_resident();
    EXPECT_EQ(find_artifact(*store, "retired").bytes, base0);
    EXPECT_EQ(store->bytes_resident(), base1 + base0);

    // Evict derived forms and drop the last pin: only the new base
    // remains resident, and the high-water mark remembers the peak.
    store->weighted();
    EXPECT_GT(store->bytes_resident(), base1 + base0);
    store->evict_derived();
    pinned.reset();
    EXPECT_EQ(store->bytes_resident(), base1);
    EXPECT_FALSE(find_artifact(*store, "retired").resident);
    EXPECT_GE(store->bytes_high_water(), base1 + base0);
}

TEST(GraphStoreTest, PinnedGenerationKeepsItsFormsAndCountsThemWhenRetired)
{
    GraphStore store(graph::make_uniform(9, 6, 5), 7);
    const std::shared_ptr<const store::Generation> pin = store.current();
    const std::size_t weighted = pin->weighted()->bytes_resident();
    const graph::CSRGraph& gen0 = pin->base();

    graph::CSRGraph next = graph::make_uniform(9, 6, 6);
    EXPECT_EQ(store.install_generation(std::move(next)), 1u);
    EXPECT_EQ(store.generation(), 1u);
    EXPECT_EQ(pin->id(), 0u);
    EXPECT_EQ(&pin->base(), &gen0); // the pin still reads generation 0
    EXPECT_NE(&store.base(), &gen0);

    // The retired generation counts in full — base and weighted form —
    // until its pin drops.
    const ArtifactInfo retired = find_artifact(store, "retired");
    EXPECT_TRUE(retired.resident);
    EXPECT_EQ(retired.bytes, gen0.bytes_resident() + weighted);
    EXPECT_EQ(store.bytes_resident(), store.base().bytes_resident() +
                                          gen0.bytes_resident() + weighted);
}

TEST(GraphStoreTest, RetiredBytesFallToZeroWhenThePinDrops)
{
    GraphStore store(graph::make_uniform(9, 6, 5), 7);
    std::shared_ptr<const store::Generation> pin = store.current();
    pin->grb_weighted();
    store.install_generation(graph::make_uniform(9, 6, 6));
    EXPECT_GT(find_artifact(store, "retired").bytes,
              pin->base().bytes_resident());
    pin.reset();
    EXPECT_EQ(find_artifact(store, "retired").bytes, 0u);
    EXPECT_FALSE(find_artifact(store, "retired").resident);
    EXPECT_EQ(store.bytes_resident(), store.base().bytes_resident());
}

TEST(DatasetFacadeTest, PinnedCopyReadsOneGenerationAcrossInstalls)
{
    harness::Dataset ds = harness::make_dataset(
        "pin", graph::make_uniform(8, 4, 9), 4, 13);
    const harness::Dataset pinned = ds.pinned();
    const graph::CSRGraph& gen0 = pinned.g();
    ds.store()->install_generation(graph::make_uniform(8, 4, 10));
    EXPECT_EQ(&pinned.g(), &gen0);
    EXPECT_EQ(pinned.generation()->id(), 0u);
    EXPECT_EQ(ds.generation()->id(), 1u);
    EXPECT_NE(&ds.g(), &gen0);
    EXPECT_EQ(pinned.pinned().generation()->id(), 0u);
    EXPECT_EQ(pinned.store().get(), ds.store().get());
}

TEST(DatasetFacadeTest, DatasetIsLazyAndCopiesShareTheStore)
{
    harness::Dataset ds = harness::make_dataset(
        "lazy", graph::make_kronecker(8, 8, 9), 4, 13);
    // Constructing the dataset only touches the base graph.
    EXPECT_EQ(ds.bytes_resident(), ds.g().bytes_resident());

    const graph::WCSRGraph& wg = ds.wg();
    EXPECT_EQ(wg.num_vertices(), ds.g().num_vertices());
    EXPECT_GT(ds.bytes_resident(), ds.g().bytes_resident());

    harness::Dataset copy = ds;
    EXPECT_EQ(copy.store().get(), ds.store().get());
    copy.evict_derived();
    EXPECT_EQ(ds.bytes_resident(), ds.g().bytes_resident());
}

} // namespace
} // namespace gm

/**
 * gm::dyn tests: merge semantics, the rebuild-from-scratch oracle (random
 * batched insert/delete interleavings, merged and installed every round,
 * must equal the CSR graph::build_graph would produce from the surviving
 * edge set), cross-width determinism of the merge at lease widths
 * {1, 2, 5, 8}, and the store-side generation lifecycle (identity
 * stability, retired-generation byte accounting tied to outstanding
 * pins).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/par/thread_pool.hh"
#include "gm/store/graph_store.hh"
#include "gm/support/hash.hh"
#include "gm/support/rng.hh"

namespace gm
{
namespace
{

using dyn::BatchEffect;
using dyn::MutationBatch;

std::uint64_t
structure_hash(const graph::CSRGraph& g)
{
    support::Fnv1a h;
    h.update_value(g.num_vertices());
    h.update_value(g.is_directed());
    h.update_vector(g.out_offsets());
    h.update_vector(g.out_destinations());
    if (g.is_directed()) {
        h.update_vector(g.in_offsets());
        h.update_vector(g.in_destinations());
    }
    return h.digest();
}

/** Logical edge set shadowing a mutated graph: canonical (min,max) pairs
 *  for undirected graphs, raw arcs for directed ones. */
class ShadowEdges
{
  public:
    ShadowEdges(const graph::CSRGraph& g) : directed_(g.is_directed())
    {
        for (vid_t v = 0; v < g.num_vertices(); ++v)
            for (vid_t t : g.out_neigh(v))
                if (directed_ || v < t)
                    edges_.insert({v, t});
    }

    void
    insert(vid_t u, vid_t v)
    {
        if (u == v)
            return;
        edges_.insert(canon(u, v));
    }

    void
    erase(vid_t u, vid_t v)
    {
        if (u == v)
            return;
        edges_.erase(canon(u, v));
    }

    graph::CSRGraph
    rebuild(vid_t n) const
    {
        graph::EdgeList list;
        list.reserve(edges_.size());
        for (const auto& [u, v] : edges_)
            list.push_back({u, v});
        return graph::build_graph(list, n, directed_);
    }

  private:
    std::pair<vid_t, vid_t>
    canon(vid_t u, vid_t v) const
    {
        if (directed_)
            return {u, v};
        return {std::min(u, v), std::max(u, v)};
    }

    bool directed_;
    std::set<std::pair<vid_t, vid_t>> edges_;
};

/** Deterministic mutation script: @p rounds batches of mixed ops. */
MutationBatch
script_batch(vid_t n, int round, std::uint64_t seed, int ops)
{
    SplitMix64 mix(seed + static_cast<std::uint64_t>(round) * 7919);
    MutationBatch batch;
    for (int i = 0; i < ops; ++i) {
        const vid_t u = static_cast<vid_t>(mix.next() % n);
        const vid_t v = static_cast<vid_t>(mix.next() % n);
        if (mix.next() % 3 != 0)
            batch.insert(u, v);
        else
            batch.erase(u, v);
    }
    return batch;
}

std::shared_ptr<store::GraphStore>
make_store(graph::CSRGraph g, std::uint64_t weight_seed = 42)
{
    return std::make_shared<store::GraphStore>(std::move(g), weight_seed);
}

/** Merge @p batch into @p store's current generation and install the
 *  result when the batch changed an arc. */
void
merge_and_install(store::GraphStore& store, const MutationBatch& batch)
{
    auto merged = dyn::merge(store.base(), batch);
    ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
    dyn::Merged next = std::move(merged).value();
    if (next.csr)
        store.install_generation(std::move(*next.csr));
}

std::vector<vid_t>
row(const graph::CSRGraph& g, vid_t v)
{
    const auto neigh = g.out_neigh(v);
    return {neigh.begin(), neigh.end()};
}

TEST(DynOverlay, InsertDeleteDedupeSemantics)
{
    // Path 0-1-2 plus edge 2-3, undirected.
    graph::EdgeList edges{{0, 1}, {1, 2}, {2, 3}};
    const graph::CSRGraph base = graph::build_graph(edges, 4, false);

    MutationBatch batch;
    batch.insert(0, 1); // already present: no-op
    batch.insert(0, 2); // new edge
    batch.insert(2, 0); // duplicate of the same logical edge: no-op
    batch.insert(3, 3); // self loop: ignored
    batch.erase(1, 2);  // deletes a base edge
    batch.erase(0, 3);  // absent: no-op
    auto merged = dyn::merge(base, batch);
    ASSERT_TRUE(merged.is_ok());
    const BatchEffect& effect = merged.value().effect;
    EXPECT_EQ(effect.inserted_arcs, 2); // 0-2 both directions
    EXPECT_EQ(effect.deleted_arcs, 2);  // 1-2 both directions
    EXPECT_EQ(effect.dirty, (std::vector<vid_t>{0, 1, 2}));

    ASSERT_TRUE(merged.value().csr.has_value());
    const graph::CSRGraph& next = *merged.value().csr;
    EXPECT_EQ(row(next, 0), (std::vector<vid_t>{1, 2})); // ascending
    EXPECT_EQ(row(next, 1), (std::vector<vid_t>{0}));
    EXPECT_EQ(row(next, 2), (std::vector<vid_t>{0, 3}));
    EXPECT_EQ(row(next, 3), (std::vector<vid_t>{2}));
    EXPECT_EQ(next.num_edges_directed(), base.num_edges_directed());

    // Deleting the inserted edge and re-inserting the deleted one merges
    // back to the original graph.
    MutationBatch second;
    second.erase(0, 2);
    second.insert(1, 2);
    auto undone = dyn::merge(next, second);
    ASSERT_TRUE(undone.is_ok());
    EXPECT_EQ(undone.value().effect.inserted_arcs, 2);
    EXPECT_EQ(undone.value().effect.deleted_arcs, 2);
    ASSERT_TRUE(undone.value().csr.has_value());
    EXPECT_EQ(structure_hash(*undone.value().csr), structure_hash(base));
}

TEST(DynOverlay, OutOfRangeEndpointRejectsWholeBatch)
{
    const graph::CSRGraph base = graph::build_graph({{0, 1}}, 2, false);
    MutationBatch batch;
    batch.insert(0, 1);
    batch.insert(1, 7);
    const auto merged = dyn::merge(base, batch);
    EXPECT_EQ(merged.status().code(), support::StatusCode::kInvalidInput);
}

TEST(DynOverlay, CompactIsNoopWhenClean)
{
    // The empty batch, and a directed batch whose ops cancel: an absent
    // arc inserted twice and then deleted, a present arc inserted, and
    // the absent reverse of that arc deleted.
    const graph::CSRGraph base = graph::build_graph({{0, 1}}, 4, true);
    MutationBatch cancelling;
    cancelling.insert(2, 3);
    cancelling.insert(2, 3);
    cancelling.erase(2, 3);
    cancelling.insert(0, 1);
    cancelling.erase(1, 0);
    for (const MutationBatch& batch : {MutationBatch{}, cancelling}) {
        const auto merged = dyn::merge(base, batch);
        ASSERT_TRUE(merged.is_ok());
        EXPECT_EQ(merged.value().effect.inserted_arcs, 0);
        EXPECT_EQ(merged.value().effect.deleted_arcs, 0);
        EXPECT_TRUE(merged.value().effect.dirty.empty());
        EXPECT_EQ(merged.value().effect.requested, batch.size());
        EXPECT_FALSE(merged.value().csr.has_value());
    }
}

struct Topology
{
    const char* name;
    graph::CSRGraph graph;
};

std::vector<Topology>
topologies()
{
    std::vector<Topology> out;
    out.push_back({"uniform", graph::make_uniform(9, 6, 11)});
    out.push_back({"twitter", graph::make_twitter_like(9, 6, 12)});
    out.push_back({"road", graph::make_road_like(20, 25, 13)});
    return out;
}

/** One batch that inserts and then deletes the same absent arc u->a, and
 *  repeats ops: the reverse arc a->u (the same edge when undirected) is
 *  inserted twice, and a present arc of u deleted twice. */
MutationBatch
repeat_batch(const graph::CSRGraph& g)
{
    vid_t u = 0;
    while (g.out_degree(u) == 0)
        ++u;
    const auto row = g.out_neigh(u);
    vid_t a = 0;
    while (a == u || std::binary_search(row.begin(), row.end(), a))
        ++a;
    MutationBatch batch;
    batch.insert(u, a);
    batch.insert(a, u);
    batch.insert(a, u);
    batch.erase(u, a);
    batch.erase(u, row.front());
    batch.erase(u, row.front());
    return batch;
}

TEST(DynOracle, RandomInterleavingsMatchRebuildFromScratch)
{
    for (auto& topo : topologies()) {
        const vid_t n = topo.graph.num_vertices();
        ShadowEdges shadow(topo.graph);
        auto store = make_store(topo.graph);
        for (int round = 0; round <= 10; ++round) {
            const MutationBatch batch =
                round < 10 ? script_batch(n, round, 0xabcd, 24)
                           : repeat_batch(store->base());
            merge_and_install(*store, batch);
            for (const graph::Edge& e : batch.inserts)
                shadow.insert(e.u, e.v);
            for (const graph::Edge& e : batch.deletes)
                shadow.erase(e.u, e.v);
            EXPECT_EQ(structure_hash(store->base()),
                      structure_hash(shadow.rebuild(n)))
                << topo.name << " round " << round;
        }
    }
}

/** Run @p compute under lease widths {1, 2, 5, 8}; all must agree. */
void
expect_width_invariant(const std::function<std::uint64_t()>& compute)
{
    const std::uint64_t reference = [&] {
        par::LaneLease lease(1);
        return compute();
    }();
    for (const int w : {2, 5, 8}) {
        par::LaneLease lease(w);
        EXPECT_EQ(compute(), reference) << "width " << w;
    }
}

TEST(DynDeterminism, CompactionIsWidthInvariant)
{
    for (auto& topo : topologies()) {
        const vid_t n = topo.graph.num_vertices();
        const auto run = [&]() -> std::uint64_t {
            auto store = make_store(topo.graph);
            support::Fnv1a h;
            for (int round = 0; round < 4; ++round) {
                merge_and_install(*store, script_batch(n, round, 0x5eed, 12));
                h.update_value(structure_hash(store->base()));
            }
            return h.digest();
        };
        expect_width_invariant(run);
    }
}

TEST(DynGenerations, IdentityStableWhileFingerprintTracksGenerations)
{
    auto store = make_store(graph::make_uniform(8, 4, 31));
    const std::uint64_t id0 = store->identity();
    EXPECT_EQ(store->fingerprint(), id0);

    MutationBatch batch;
    batch.insert(0, 5);
    batch.insert(1, 7);
    merge_and_install(*store, batch);
    EXPECT_EQ(store->generation(), 1u);
    EXPECT_EQ(store->identity(), id0);
    EXPECT_NE(store->fingerprint(), id0);
}

TEST(DynGenerations, BuildLeavesTheStoreAloneUntilInstall)
{
    auto store = make_store(graph::make_uniform(8, 4, 35));
    const std::uint64_t before = structure_hash(store->base());
    MutationBatch batch;
    batch.insert(3, 11);
    auto merged = dyn::merge(store->base(), batch);
    ASSERT_TRUE(merged.is_ok());
    dyn::Merged next = std::move(merged).value();
    ASSERT_TRUE(next.csr.has_value());

    EXPECT_EQ(store->generation(), 0u);
    EXPECT_EQ(structure_hash(store->base()), before);
    const std::uint64_t built = structure_hash(*next.csr);
    EXPECT_EQ(store->install_generation(std::move(*next.csr)), 1u);
    EXPECT_EQ(structure_hash(store->base()), built);
    // Merging the same batch again changes nothing, so builds nothing.
    const auto again = dyn::merge(store->base(), batch);
    ASSERT_TRUE(again.is_ok());
    EXPECT_FALSE(again.value().csr.has_value());
}

TEST(DynGenerations, RetiredGenerationBytesFollowOutstandingViews)
{
    auto store = make_store(graph::make_uniform(8, 4, 33));
    const std::size_t clean_bytes = store->bytes_resident();

    // Pin generation 0, then install past it.
    std::shared_ptr<const store::Generation> pinned = store->current();
    MutationBatch batch;
    batch.insert(2, 9);
    merge_and_install(*store, batch);
    ASSERT_EQ(store->generation(), 1u);

    // Old generation still byte-accounted while the pin holds it.
    const std::size_t with_retired = store->bytes_resident();
    EXPECT_GT(with_retired, clean_bytes);
    bool saw_retired = false;
    for (const auto& row : store->artifacts())
        if (row.name == "retired" && row.resident)
            saw_retired = true;
    EXPECT_TRUE(saw_retired);

    pinned.reset(); // drop the last pin: generation 0 is freed
    EXPECT_LT(store->bytes_resident(), with_retired);
    for (const auto& row : store->artifacts()) {
        if (row.name == "retired") {
            EXPECT_FALSE(row.resident);
        }
    }
}

} // namespace
} // namespace gm

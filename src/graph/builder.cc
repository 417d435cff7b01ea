#include "gm/graph/builder.hh"

#include <algorithm>
#include <numeric>

#include "gm/par/atomics.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/rng.hh"

namespace gm::graph
{

namespace
{

/** One direction's worth of CSR arrays. */
template <typename DestT>
struct CSRHalf
{
    std::vector<eid_t> offsets;
    std::vector<DestT> destinations;
};

/** Entry of edge @p e in its source's row (@p forward), or of its reverse
 *  arc in its target's row. */
vid_t
dest_of(const Edge& e, bool forward)
{
    return forward ? e.v : e.u;
}

WNode
dest_of(const WEdge& e, bool forward)
{
    return forward ? WNode{e.v, e.w} : WNode{e.u, e.w};
}

/**
 * Squeeze out the holes left by rows that kept fewer entries than their
 * slot: row v keeps its first @p kept[v] entries (@p kept has n + 1
 * entries, the last unused).  A no-op when no row shrank.
 */
template <typename DestT>
void
repack(vid_t n, const std::vector<eid_t>& kept, CSRHalf<DestT>& half)
{
    std::vector<eid_t> new_offsets(static_cast<std::size_t>(n) + 1);
    new_offsets[0] = 0;
    std::partial_sum(kept.begin(), kept.end() - 1, new_offsets.begin() + 1);
    if (new_offsets[n] == half.offsets[n])
        return;
    std::vector<DestT> packed(static_cast<std::size_t>(new_offsets[n]));
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        std::copy(half.destinations.begin() + half.offsets[v],
                  half.destinations.begin() + half.offsets[v] + kept[v],
                  packed.begin() + new_offsets[v]);
    });
    half.offsets = std::move(new_offsets);
    half.destinations = std::move(packed);
}

/**
 * Build one CSR direction row by row from an upper bound on each row's
 * length: row v gets the slot [bound[v], bound[v + 1]), @p fill(v, slot)
 * writes it and returns how many entries it kept, and rows that kept
 * fewer are squeezed out afterwards.
 */
template <typename DestT, typename Fill>
CSRHalf<DestT>
fill_rows(vid_t n, std::vector<eid_t> bound, Fill&& fill)
{
    CSRHalf<DestT> half{std::move(bound), {}};
    half.destinations.resize(static_cast<std::size_t>(half.offsets[n]));
    std::vector<eid_t> kept(static_cast<std::size_t>(n) + 1, 0);
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        kept[v] = fill(v, half.destinations.data() + half.offsets[v]);
    });
    repack(n, kept, half);
    return half;
}

/**
 * Build the out-direction of an edge list: each edge u -> v keyed by u.
 *
 * @param both_ways true: also store v -> u keyed by v (symmetrize).
 */
template <typename EdgeT, typename DestT>
CSRHalf<DestT>
build_half(const std::vector<EdgeT>& edges, vid_t n, bool both_ways,
           const BuildOptions& opts)
{
    CSRHalf<DestT> half;
    std::vector<eid_t> degree(static_cast<std::size_t>(n) + 1, 0);

    auto keeps = [&](const EdgeT& e) {
        return !(opts.remove_self_loops && e.u == e.v);
    };

    // Count.
    par::parallel_for<std::size_t>(0, edges.size(), [&](std::size_t i) {
        const EdgeT& e = edges[i];
        if (!keeps(e))
            return;
        par::fetch_add<eid_t>(degree[e.u], 1);
        if (both_ways)
            par::fetch_add<eid_t>(degree[e.v], 1);
    });

    // Prefix sum.
    half.offsets.resize(static_cast<std::size_t>(n) + 1);
    half.offsets[0] = 0;
    std::partial_sum(degree.begin(), degree.end() - 1, half.offsets.begin() + 1);
    half.destinations.resize(static_cast<std::size_t>(half.offsets[n]));

    // Scatter using a per-vertex atomic cursor.
    std::vector<eid_t> cursor(half.offsets.begin(), half.offsets.end() - 1);
    par::parallel_for<std::size_t>(0, edges.size(), [&](std::size_t i) {
        const EdgeT& e = edges[i];
        if (!keeps(e))
            return;
        const eid_t slot = par::fetch_add<eid_t>(cursor[e.u], 1);
        half.destinations[slot] = dest_of(e, true);
        if (both_ways) {
            const eid_t rslot = par::fetch_add<eid_t>(cursor[e.v], 1);
            half.destinations[rslot] = dest_of(e, false);
        }
    });

    if (!opts.sort_neighbors)
        return half;

    // Sort each adjacency list; optionally dedup (by target vertex).
    std::vector<eid_t> kept(static_cast<std::size_t>(n) + 1, 0);
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        DestT* lo = half.destinations.data() + half.offsets[v];
        DestT* hi = half.destinations.data() + half.offsets[v + 1];
        std::sort(lo, hi, [](const DestT& a, const DestT& b) {
            return dest_less(a, b);
        });
        if (opts.dedup) {
            DestT* out = std::unique(lo, hi, [](const DestT& a, const DestT& b) {
                return target(a) == target(b);
            });
            kept[v] = out - lo;
        } else {
            kept[v] = hi - lo;
        }
    });

    if (opts.dedup)
        repack(n, kept, half);
    return half;
}

/** The entry of @p dest's reverse arc, whose target is @p source. */
vid_t
reversed(vid_t, vid_t source)
{
    return source;
}

WNode
reversed(const WNode& dest, vid_t source)
{
    return WNode{source, dest.w};
}

/**
 * In-rows of the directed graph whose out-rows are @p out.  Sources are
 * scattered in ascending order, so when the out-rows are sorted (and
 * deduplicated) every in-row comes out sorted (and deduplicated) too —
 * exactly what building the in-direction from the edge list would give.
 */
template <typename DestT>
CSRHalf<DestT>
transpose_half(const CSRHalf<DestT>& out, vid_t n)
{
    CSRHalf<DestT> in;
    in.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const DestT& d : out.destinations)
        ++in.offsets[target(d) + 1];
    std::partial_sum(in.offsets.begin(), in.offsets.end(), in.offsets.begin());
    in.destinations.resize(out.destinations.size());
    std::vector<eid_t> cursor(in.offsets.begin(), in.offsets.end() - 1);
    for (vid_t u = 0; u < n; ++u) {
        for (eid_t e = out.offsets[u]; e < out.offsets[u + 1]; ++e) {
            const DestT& d = out.destinations[e];
            in.destinations[cursor[target(d)]++] = reversed(d, u);
        }
    }
    return in;
}

template <typename EdgeT, typename DestT>
CSRGraphT<DestT>
build_any(const std::vector<EdgeT>& edges, vid_t n, bool directed,
          BuildOptions opts)
{
    // Fault-injection site for edge-list builds (serial entry point); the
    // CSR-to-CSR transforms below do not poll it.
    support::FaultInjector::global().at("graph.build");
    if (!directed)
        opts.symmetrize = true;
    CSRHalf<DestT> out =
        build_half<EdgeT, DestT>(edges, n, opts.symmetrize, opts);
    if (opts.symmetrize) {
        return CSRGraphT<DestT>(n, false, std::move(out.offsets),
                                std::move(out.destinations));
    }
    CSRHalf<DestT> in = transpose_half(out, n);
    return CSRGraphT<DestT>(n, true, std::move(out.offsets),
                            std::move(out.destinations),
                            std::move(in.offsets),
                            std::move(in.destinations));
}

/** The deterministic per-edge weight used by add_weights(): uniform in
 *  [1, 255], symmetric in (u, v), and independent of CSR layout. */
weight_t
pair_weight(vid_t u, vid_t v, std::uint64_t seed)
{
    const std::uint64_t a = static_cast<std::uint64_t>(std::min(u, v));
    const std::uint64_t b = static_cast<std::uint64_t>(std::max(u, v));
    SplitMix64 mix(seed ^ (a * 0x9e3779b97f4a7c15ULL + b + 0x100));
    return static_cast<weight_t>(mix.next() % 255 + 1);
}

} // namespace

CSRGraph
build_graph(const EdgeList& edges, vid_t num_vertices, bool directed,
            const BuildOptions& opts)
{
    return build_any<Edge, vid_t>(edges, num_vertices, directed, opts);
}

WCSRGraph
build_wgraph(const WEdgeList& edges, vid_t num_vertices, bool directed,
             const BuildOptions& opts)
{
    return build_any<WEdge, WNode>(edges, num_vertices, directed, opts);
}

namespace
{

/** Endpoint-range validation shared by the try_build_* entry points. */
template <typename EdgeT>
support::Status
validate_edges(const std::vector<EdgeT>& edges, vid_t n)
{
    if (n < 0) {
        return support::Status(support::StatusCode::kInvalidInput,
                               "negative vertex count");
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const EdgeT& e = edges[i];
        if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
            return support::Status(
                support::StatusCode::kInvalidInput,
                "edge " + std::to_string(i) + " endpoint out of [0, " +
                    std::to_string(n) + ")");
        }
    }
    return support::Status::ok();
}

} // namespace

support::StatusOr<CSRGraph>
try_build_graph(const EdgeList& edges, vid_t num_vertices, bool directed,
                const BuildOptions& opts)
{
    const support::Status status = validate_edges(edges, num_vertices);
    if (!status.is_ok())
        return status;
    try {
        return build_graph(edges, num_vertices, directed, opts);
    } catch (...) {
        return support::current_exception_status();
    }
}

support::StatusOr<WCSRGraph>
try_build_wgraph(const WEdgeList& edges, vid_t num_vertices, bool directed,
                 const BuildOptions& opts)
{
    const support::Status status = validate_edges(edges, num_vertices);
    if (!status.is_ok())
        return status;
    try {
        return build_wgraph(edges, num_vertices, directed, opts);
    } catch (...) {
        return support::current_exception_status();
    }
}

WCSRGraph
add_weights(const CSRGraph& graph, std::uint64_t seed)
{
    const vid_t n = graph.num_vertices();
    auto weight_dests = [&](const std::vector<eid_t>& offsets,
                            const std::vector<vid_t>& dests) {
        std::vector<WNode> out(dests.size());
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            for (eid_t e = offsets[v]; e < offsets[v + 1]; ++e)
                out[e] = WNode{dests[e], pair_weight(v, dests[e], seed)};
        });
        return out;
    };

    std::vector<WNode> out_nbr =
        weight_dests(graph.out_offsets(), graph.out_destinations());
    if (!graph.is_directed()) {
        return WCSRGraph(n, false, graph.out_offsets(), std::move(out_nbr));
    }
    std::vector<WNode> in_nbr;
    {
        // For in-edges the stored source is the offset owner's neighbor.
        const auto& offsets = graph.in_offsets();
        const auto& dests = graph.in_destinations();
        in_nbr.resize(dests.size());
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            for (eid_t e = offsets[v]; e < offsets[v + 1]; ++e)
                in_nbr[e] = WNode{dests[e], pair_weight(dests[e], v, seed)};
        });
    }
    return WCSRGraph(n, true, graph.out_offsets(), std::move(out_nbr),
                     graph.in_offsets(), std::move(in_nbr));
}

CSRGraph
transpose(const CSRGraph& graph)
{
    if (!graph.is_directed())
        return graph;
    return CSRGraph(graph.num_vertices(), true, graph.in_offsets(),
                    graph.in_destinations(), graph.out_offsets(),
                    graph.out_destinations());
}

namespace
{

/**
 * One direction (@p off, @p dest) of a graph with its vertices renamed:
 * new row i is old row order[i] mapped through @p old_to_new, sorted, with
 * duplicates and self-loops dropped (the builder's defaults).
 */
CSRHalf<vid_t>
permute_rows(const std::vector<eid_t>& off, const std::vector<vid_t>& dest,
             const std::vector<vid_t>& order,
             const std::vector<vid_t>& old_to_new)
{
    const auto n = static_cast<vid_t>(order.size());
    // An old row's length bounds its new row's.
    std::vector<eid_t> bound(static_cast<std::size_t>(n) + 1);
    bound[0] = 0;
    for (vid_t i = 0; i < n; ++i)
        bound[i + 1] = bound[i] + off[order[i] + 1] - off[order[i]];
    return fill_rows<vid_t>(n, std::move(bound), [&](vid_t i, vid_t* slot) {
        vid_t* end = slot;
        for (eid_t e = off[order[i]]; e < off[order[i] + 1]; ++e) {
            const vid_t w = old_to_new[dest[e]];
            if (w != i)
                *end++ = w;
        }
        std::sort(slot, end);
        return std::unique(slot, end) - slot;
    });
}

} // namespace

CSRGraph
relabel_by_degree(const CSRGraph& graph, std::vector<vid_t>* new_to_old)
{
    const vid_t n = graph.num_vertices();
    // Stable counting sort by descending out-degree, so equal degrees keep
    // ascending ids: bucket k holds the vertices of degree max_degree - k.
    eid_t max_degree = 0;
    for (vid_t v = 0; v < n; ++v)
        max_degree = std::max(max_degree, graph.out_degree(v));
    std::vector<eid_t> bucket(static_cast<std::size_t>(max_degree) + 2, 0);
    for (vid_t v = 0; v < n; ++v)
        ++bucket[max_degree - graph.out_degree(v) + 1];
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    std::vector<vid_t> order(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v)
        order[bucket[max_degree - graph.out_degree(v)]++] = v;
    std::vector<vid_t> old_to_new(static_cast<std::size_t>(n));
    for (vid_t i = 0; i < n; ++i)
        old_to_new[order[i]] = i;

    CSRHalf<vid_t> out = permute_rows(graph.out_offsets(),
                                      graph.out_destinations(), order,
                                      old_to_new);
    CSRHalf<vid_t> in;
    if (graph.is_directed()) {
        in = permute_rows(graph.in_offsets(), graph.in_destinations(), order,
                          old_to_new);
    }
    if (new_to_old != nullptr)
        *new_to_old = std::move(order);
    return CSRGraph(n, graph.is_directed(), std::move(out.offsets),
                    std::move(out.destinations), std::move(in.offsets),
                    std::move(in.destinations));
}

CSRGraph
symmetrize(const CSRGraph& graph)
{
    const vid_t n = graph.num_vertices();
    const auto& out_off = graph.out_offsets();
    const auto& in_off = graph.in_offsets();
    std::vector<eid_t> bound(static_cast<std::size_t>(n) + 1);
    for (vid_t v = 0; v <= n; ++v)
        bound[v] = out_off[v] + in_off[v];
    CSRHalf<vid_t> half =
        fill_rows<vid_t>(n, std::move(bound), [&](vid_t v, vid_t* slot) {
            const auto out = graph.out_neigh(v);
            const auto in = graph.in_neigh(v);
            vid_t* end = std::merge(out.begin(), out.end(), in.begin(),
                                    in.end(), slot);
            // Rows built without sort_neighbors, or loaded from a .gmg
            // file, need not be sorted; the merge then is not either.
            if (!std::is_sorted(slot, end))
                std::sort(slot, end);
            end = std::unique(slot, end);
            return std::remove(slot, end, v) - slot;
        });
    return CSRGraph(n, false, std::move(half.offsets),
                    std::move(half.destinations));
}

} // namespace gm::graph

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

template <typename EdgeT>
vid_t
edge_source(const EdgeT& e)
{
    return e.u;
}

vid_t
edge_target(const Edge& e)
{
    return e.v;
}

vid_t
edge_target(const WEdge& e)
{
    return e.v;
}

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
 * Build one CSR direction from an edge list.
 *
 * @param forward   true: u -> v entries keyed by u; false: keyed by v
 *                  (transposed / in-edge direction).
 * @param both_ways true: store each edge in both directions (symmetrize).
 */
template <typename EdgeT, typename DestT>
CSRHalf<DestT>
build_half(const std::vector<EdgeT>& edges, vid_t n, bool forward,
           bool both_ways, const BuildOptions& opts)
{
    CSRHalf<DestT> half;
    std::vector<eid_t> degree(static_cast<std::size_t>(n) + 1, 0);

    auto keeps = [&](const EdgeT& e) {
        if (opts.remove_self_loops && edge_source(e) == edge_target(e))
            return false;
        return true;
    };

    // Count.
    par::parallel_for<std::size_t>(0, edges.size(), [&](std::size_t i) {
        const EdgeT& e = edges[i];
        if (!keeps(e))
            return;
        const vid_t key = forward ? edge_source(e) : edge_target(e);
        par::fetch_add<eid_t>(degree[key], 1);
        if (both_ways) {
            const vid_t rkey = forward ? edge_target(e) : edge_source(e);
            par::fetch_add<eid_t>(degree[rkey], 1);
        }
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
        const vid_t key = forward ? edge_source(e) : edge_target(e);
        const eid_t slot = par::fetch_add<eid_t>(cursor[key], 1);
        half.destinations[slot] = dest_of(e, forward);
        if (both_ways) {
            const vid_t rkey = forward ? edge_target(e) : edge_source(e);
            const eid_t rslot = par::fetch_add<eid_t>(cursor[rkey], 1);
            half.destinations[rslot] = dest_of(e, !forward);
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

    if (!opts.dedup)
        return half;

    // Squeeze out the holes dedup left behind.
    std::vector<eid_t> new_offsets(static_cast<std::size_t>(n) + 1);
    new_offsets[0] = 0;
    std::partial_sum(kept.begin(), kept.end() - 1, new_offsets.begin() + 1);
    std::vector<DestT> packed(static_cast<std::size_t>(new_offsets[n]));
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        std::copy(half.destinations.begin() + half.offsets[v],
                  half.destinations.begin() + half.offsets[v] + kept[v],
                  packed.begin() + new_offsets[v]);
    });
    half.offsets = std::move(new_offsets);
    half.destinations = std::move(packed);
    return half;
}

template <typename EdgeT, typename DestT>
CSRGraphT<DestT>
build_any(const std::vector<EdgeT>& edges, vid_t n, bool directed,
          BuildOptions opts)
{
    // Fault-injection site for graph building (serial entry point).
    support::FaultInjector::global().at("graph.build");
    if (!directed)
        opts.symmetrize = true;
    const bool both_ways = opts.symmetrize;
    const bool result_directed = directed && !opts.symmetrize;

    CSRHalf<DestT> out = build_half<EdgeT, DestT>(edges, n, /*forward=*/true,
                                                  both_ways, opts);
    if (!result_directed) {
        return CSRGraphT<DestT>(n, false, std::move(out.offsets),
                                std::move(out.destinations));
    }
    CSRHalf<DestT> in = build_half<EdgeT, DestT>(edges, n, /*forward=*/false,
                                                 both_ways, opts);
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

CSRGraph
relabel_by_degree(const CSRGraph& graph, std::vector<vid_t>* new_to_old)
{
    const vid_t n = graph.num_vertices();
    std::vector<vid_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
        const eid_t da = graph.out_degree(a);
        const eid_t db = graph.out_degree(b);
        return da > db || (da == db && a < b);
    });
    std::vector<vid_t> old_to_new(static_cast<std::size_t>(n));
    for (vid_t i = 0; i < n; ++i)
        old_to_new[order[i]] = i;

    EdgeList edges;
    edges.reserve(static_cast<std::size_t>(graph.num_edges_directed()));
    for (vid_t v = 0; v < n; ++v)
        for (vid_t u : graph.out_neigh(v))
            edges.push_back({old_to_new[v], old_to_new[u]});

    if (new_to_old != nullptr)
        *new_to_old = order;
    // The edge list already contains both directions for undirected inputs,
    // so rebuild as "directed" to avoid doubling, then wrap as undirected.
    if (!graph.is_directed()) {
        BuildOptions opts;
        CSRGraph rebuilt = build_graph(edges, n, true, opts);
        return CSRGraph(n, false,
                        rebuilt.out_offsets(), rebuilt.out_destinations());
    }
    return build_graph(edges, n, true);
}

} // namespace gm::graph

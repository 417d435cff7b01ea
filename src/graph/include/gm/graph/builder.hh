/**
 * @file
 * Edge-list -> CSR builder plus graph transforms (transpose, relabel).
 *
 * Per the paper (Section V): "all frameworks sort the adjacency list of each
 * vertex based on the destinations and remove duplicate edges" — that is the
 * builder's default behaviour.
 */
#pragma once

#include "gm/graph/csr.hh"
#include "gm/graph/edge_list.hh"
#include "gm/support/status.hh"

namespace gm::graph
{

/** Knobs for edge-list -> CSR conversion. */
struct BuildOptions
{
    /** Insert the reverse of every edge (forces an undirected graph). */
    bool symmetrize = false;
    /** Drop u -> u edges. */
    bool remove_self_loops = true;
    /** Sort each adjacency list by destination. */
    bool sort_neighbors = true;
    /** Remove duplicate edges (requires sort_neighbors). */
    bool dedup = true;
};

/**
 * Build an unweighted CSR graph.
 *
 * @param edges        Directed edge list (interpreted per @p directed).
 * @param num_vertices Vertex-id space size; ids must be in [0, n).
 * @param directed     When false, edges are symmetrized automatically.
 */
CSRGraph build_graph(const EdgeList& edges, vid_t num_vertices, bool directed,
                     const BuildOptions& opts = {});

/** Build a weighted CSR graph; see build_graph(). */
WCSRGraph build_wgraph(const WEdgeList& edges, vid_t num_vertices,
                       bool directed, const BuildOptions& opts = {});

/**
 * Validating build for untrusted edge lists: checks that every endpoint is
 * in [0, num_vertices) before building, and converts builder-level faults
 * (injected or otherwise) into a Status instead of unwinding the caller.
 */
support::StatusOr<CSRGraph> try_build_graph(const EdgeList& edges,
                                            vid_t num_vertices,
                                            bool directed,
                                            const BuildOptions& opts = {});

/** @copydoc try_build_graph */
support::StatusOr<WCSRGraph> try_build_wgraph(const WEdgeList& edges,
                                              vid_t num_vertices,
                                              bool directed,
                                              const BuildOptions& opts = {});

/**
 * Attach deterministic uniform weights in [1, 255] to an existing graph.
 * The weight of an undirected edge is identical in both stored directions
 * (it is derived from the unordered endpoint pair), matching the GAP rule
 * that SSSP weights are symmetric.
 */
WCSRGraph add_weights(const CSRGraph& graph, std::uint64_t seed);

/** Reverse every edge of a directed graph (no-op copy when undirected). */
CSRGraph transpose(const CSRGraph& graph);

/**
 * Relabel vertices by decreasing degree (ties by original id) and rebuild.
 * Used by triangle counting when the relabeling heuristic fires.
 *
 * @param[out] new_to_old When non-null, receives the permutation.
 */
CSRGraph relabel_by_degree(const CSRGraph& graph,
                           std::vector<vid_t>* new_to_old = nullptr);

} // namespace gm::graph

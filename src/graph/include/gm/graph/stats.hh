/**
 * @file
 * Topology statistics used by Table I and by the frameworks' run-time
 * heuristics (degree-distribution sampling, approximate diameter).
 */
#pragma once

#include <cstdint>
#include <string>

#include "gm/graph/csr.hh"

namespace gm::graph
{

/** Degree summary. */
struct DegreeStats
{
    double average = 0;
    eid_t max = 0;
    double std_dev = 0;
};

/** Degree-distribution classes as labeled in the paper's Table I. */
enum class DegreeDistribution { kBounded, kNormal, kPower };

/** Human-readable name for a DegreeDistribution. */
std::string to_string(DegreeDistribution dist);

/** Exact degree summary over out-degrees. */
DegreeStats degree_stats(const CSRGraph& graph);

/**
 * Sampling-based degree-distribution classifier — the scheme the paper
 * says Galois uses to auto-pick algorithms in the Baseline data set.
 *
 * Samples @p num_samples vertices; classifies as power-law when the sampled
 * tail dominates the mean, bounded when the sampled max is a small constant,
 * normal otherwise.
 */
DegreeDistribution classify_degree_distribution(const CSRGraph& graph,
                                                std::uint64_t seed = 27,
                                                int num_samples = 1000);

/**
 * Approximate diameter via double-sweep BFS (lower bound): BFS from a random
 * vertex, then BFS again from the farthest vertex found.  @p num_sweeps
 * repeats from different starts and takes the max.  The sweeps run
 * concurrently; their starts are drawn serially up front, so the result
 * is the same at any width.
 */
vid_t approx_diameter(const CSRGraph& graph, int num_sweeps = 4,
                      std::uint64_t seed = 9);

/**
 * GAPBS-style sampling heuristic: is the degree distribution skewed enough
 * that relabeling vertices by degree will pay for itself in triangle
 * counting?  (sampled mean / 1.3 > sampled median, and average degree >= 10)
 */
bool worth_relabeling_by_degree(const CSRGraph& graph,
                                std::uint64_t seed = 10);

} // namespace gm::graph

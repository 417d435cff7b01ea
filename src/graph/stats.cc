#include "gm/graph/stats.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gm/par/parallel_for.hh"
#include "gm/support/rng.hh"

namespace gm::graph
{

std::string
to_string(DegreeDistribution dist)
{
    switch (dist) {
      case DegreeDistribution::kBounded:
        return "bounded";
      case DegreeDistribution::kNormal:
        return "normal";
      case DegreeDistribution::kPower:
        return "power";
    }
    return "?";
}

DegreeStats
degree_stats(const CSRGraph& graph)
{
    const vid_t n = graph.num_vertices();
    DegreeStats stats;
    if (n == 0)
        return stats;
    eid_t max_deg = 0;
    double sum = 0;
    double sum_sq = 0;
    for (vid_t v = 0; v < n; ++v) {
        const eid_t d = graph.out_degree(v);
        max_deg = std::max(max_deg, d);
        sum += static_cast<double>(d);
        sum_sq += static_cast<double>(d) * static_cast<double>(d);
    }
    stats.average = sum / n;
    stats.max = max_deg;
    const double var = sum_sq / n - stats.average * stats.average;
    stats.std_dev = var > 0 ? std::sqrt(var) : 0;
    return stats;
}

DegreeDistribution
classify_degree_distribution(const CSRGraph& graph, std::uint64_t seed,
                             int num_samples)
{
    const vid_t n = graph.num_vertices();
    if (n == 0)
        return DegreeDistribution::kBounded;
    Xoshiro256 rng(seed);
    eid_t sampled_max = 0;
    double sampled_sum = 0;
    for (int i = 0; i < num_samples; ++i) {
        const vid_t v = static_cast<vid_t>(rng.next_bounded(n));
        // Directed graphs can hide their skew in either direction (web
        // crawls have power-law in-degree); sample the larger side.
        const eid_t d = graph.is_directed()
                            ? std::max(graph.out_degree(v),
                                       graph.in_degree(v))
                            : graph.out_degree(v);
        sampled_max = std::max(sampled_max, d);
        sampled_sum += static_cast<double>(d);
    }
    const double avg = sampled_sum / num_samples;
    // A power-law sample almost always catches a hub far above the mean.
    if (avg > 0 && static_cast<double>(sampled_max) > 8.0 * avg &&
        sampled_max > 32) {
        return DegreeDistribution::kPower;
    }
    if (sampled_max <= 8)
        return DegreeDistribution::kBounded;
    return DegreeDistribution::kNormal;
}

namespace
{

/** Serial BFS returning (farthest vertex, its depth). */
std::pair<vid_t, vid_t>
bfs_farthest(const CSRGraph& graph, vid_t source)
{
    std::vector<vid_t> depth(graph.num_vertices(), kInvalidVid);
    std::vector<vid_t> queue;
    queue.push_back(source);
    depth[source] = 0;
    vid_t far_v = source;
    vid_t far_d = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const vid_t v = queue[head];
        for (vid_t u : graph.out_neigh(v)) {
            if (depth[u] == kInvalidVid) {
                depth[u] = depth[v] + 1;
                if (depth[u] > far_d) {
                    far_d = depth[u];
                    far_v = u;
                }
                queue.push_back(u);
            }
        }
    }
    return {far_v, far_d};
}

} // namespace

bool
worth_relabeling_by_degree(const CSRGraph& g, std::uint64_t seed)
{
    const std::int64_t average_degree =
        g.num_edges_directed() / std::max<vid_t>(g.num_vertices(), 1);
    if (average_degree < 10)
        return false;
    const vid_t n = g.num_vertices();
    const int num_samples = static_cast<int>(std::min<std::int64_t>(1000, n));
    std::vector<eid_t> samples(static_cast<std::size_t>(num_samples));
    Xoshiro256 rng(seed);
    std::int64_t sample_total = 0;
    for (int i = 0; i < num_samples; ++i) {
        samples[static_cast<std::size_t>(i)] =
            g.out_degree(static_cast<vid_t>(rng.next_bounded(n)));
        sample_total += samples[static_cast<std::size_t>(i)];
    }
    std::sort(samples.begin(), samples.end());
    const double sample_average =
        static_cast<double>(sample_total) / num_samples;
    const double sample_median = static_cast<double>(
        samples[static_cast<std::size_t>(num_samples / 2)]);
    return sample_average / 1.3 > sample_median;
}

vid_t
approx_diameter(const CSRGraph& graph, int num_sweeps, std::uint64_t seed)
{
    const vid_t n = graph.num_vertices();
    if (n == 0 || num_sweeps <= 0)
        return 0;
    // Draw every start first, in sweep order, so the sweeps (two serial
    // BFS runs each) can run concurrently without moving the result.
    Xoshiro256 rng(seed);
    std::vector<vid_t> starts(static_cast<std::size_t>(num_sweeps));
    for (vid_t& start : starts) {
        start = static_cast<vid_t>(rng.next_bounded(n));
        // Skip isolated starting points.
        for (int tries = 0; graph.out_degree(start) == 0 && tries < 64;
             ++tries) {
            start = static_cast<vid_t>(rng.next_bounded(n));
        }
    }
    std::vector<vid_t> reach(starts.size(), 0);
    par::parallel_for<std::size_t>(0, starts.size(), [&](std::size_t i) {
        const auto [far_v, far_d] = bfs_farthest(graph, starts[i]);
        reach[i] = std::max(far_d, bfs_farthest(graph, far_v).second);
    });
    return *std::max_element(reach.begin(), reach.end());
}

} // namespace gm::graph

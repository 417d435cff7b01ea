#include "gm/gapref/kernels.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "gm/obs/trace.hh"
#include "gm/par/atomics.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"

namespace gm::gapref
{

namespace
{

constexpr std::size_t kMaxBin = std::numeric_limits<std::size_t>::max() / 2;

/** Bucket-fusion drain threshold, per GraphIt/GAPBS. */
constexpr std::size_t kBinSizeThreshold = 1000;

} // namespace

std::vector<weight_t>
sssp(const WCSRGraph& g, vid_t source, weight_t delta)
{
    const vid_t n = g.num_vertices();
    std::vector<weight_t> dist(static_cast<std::size_t>(n), kInfWeight);
    dist[source] = 0;

    std::vector<vid_t> frontier(
        static_cast<std::size_t>(g.num_edges_directed()) + 1);
    frontier[0] = source;

    // Double-buffered shared state, indexed by iteration parity.
    std::size_t shared_indexes[2] = {0, kMaxBin};
    std::size_t frontier_tails[2] = {1, 0};

    // Hold the lease up front so the barrier parties match the lanes
    // parallel_lanes (which adopts this lease) will actually run —
    // effective_lanes() alone is an upper bound that an ephemeral
    // acquisition might not reach.  The short delta-stepping rounds favor
    // the spinning barrier.  dist itself is deterministic at any width:
    // monotone CAS relaxation converges to the unique shortest-distance
    // fixpoint regardless of relaxation order.
    par::LaneLease lease(par::num_threads());
    par::SpinBarrier barrier(lease.width());

    par::parallel_lanes([&](int lane, int lanes) {
        std::vector<std::vector<vid_t>> local_bins;
        std::size_t iter = 0;
        // Local workload tallies; flushed into the session (if any) once
        // the lane finishes, so the hot loop stays branch-free.
        std::uint64_t edges_scanned = 0;
        std::uint64_t relaxations = 0;
        std::uint64_t fused_drains = 0;

        auto relax_edges = [&](vid_t u) {
            for (const graph::WNode& wn : g.out_neigh(u)) {
                ++edges_scanned;
                weight_t old_dist = par::atomic_load(dist[wn.v]);
                const weight_t new_dist = par::atomic_load(dist[u]) + wn.w;
                while (new_dist < old_dist) {
                    if (par::compare_and_swap(dist[wn.v], old_dist,
                                              new_dist)) {
                        ++relaxations;
                        const std::size_t dest_bin =
                            static_cast<std::size_t>(new_dist / delta);
                        if (dest_bin >= local_bins.size())
                            local_bins.resize(dest_bin + 1);
                        local_bins[dest_bin].push_back(wn.v);
                        break;
                    }
                    old_dist = par::atomic_load(dist[wn.v]);
                }
            }
        };

        while (shared_indexes[iter & 1] != kMaxBin) {
            const std::size_t curr_bin_index = shared_indexes[iter & 1];
            const std::size_t curr_tail = frontier_tails[iter & 1];
            std::size_t& next_frontier_tail = frontier_tails[(iter + 1) & 1];

            // Split the shared frontier cyclically across lanes; skip
            // entries already settled into an earlier bucket.
            for (std::size_t i = lane; i < curr_tail;
                 i += static_cast<std::size_t>(lanes)) {
                const vid_t u = frontier[i];
                if (par::atomic_load(dist[u]) >=
                    static_cast<weight_t>(
                        delta * static_cast<weight_t>(curr_bin_index))) {
                    relax_edges(u);
                }
            }

            // Bucket fusion: drain small same-bucket local bins directly,
            // avoiding a full synchronization round each time.
            while (curr_bin_index < local_bins.size() &&
                   !local_bins[curr_bin_index].empty() &&
                   local_bins[curr_bin_index].size() < kBinSizeThreshold) {
                ++fused_drains;
                std::vector<vid_t> curr_bin_copy;
                curr_bin_copy.swap(local_bins[curr_bin_index]);
                for (vid_t u : curr_bin_copy)
                    relax_edges(u);
            }

            // Propose the smallest non-empty local bin as the next bucket.
            for (std::size_t b = curr_bin_index; b < local_bins.size(); ++b) {
                if (!local_bins[b].empty()) {
                    std::atomic_ref<std::size_t> ref(
                        shared_indexes[(iter + 1) & 1]);
                    std::size_t seen = ref.load(std::memory_order_relaxed);
                    while (b < seen &&
                           !ref.compare_exchange_weak(
                               seen, b, std::memory_order_relaxed)) {
                    }
                    break;
                }
            }

            barrier.wait();

            const std::size_t next_bin_index = shared_indexes[(iter + 1) & 1];
            if (next_bin_index < local_bins.size() &&
                !local_bins[next_bin_index].empty()) {
                const std::size_t copy_size =
                    local_bins[next_bin_index].size();
                const std::size_t offset = par::fetch_add<std::size_t>(
                    next_frontier_tail, copy_size);
                std::copy(
                    local_bins[next_bin_index].begin(),
                    local_bins[next_bin_index].end(),
                    frontier.begin() + static_cast<std::ptrdiff_t>(offset));
                local_bins[next_bin_index].clear();
            }

            barrier.wait();

            if (lane == 0) {
                shared_indexes[iter & 1] = kMaxBin;
                frontier_tails[iter & 1] = 0;
            }
            barrier.wait();
            ++iter;
        }

        obs::counter_add("edges_traversed", edges_scanned);
        obs::counter_add("sssp.relaxations", relaxations);
        obs::counter_add("sssp.fused_drains", fused_drains);
        if (lane == 0) {
            // One bucket round per iteration of the shared while loop.
            obs::counter_add("iterations",
                             static_cast<std::uint64_t>(iter));
        }
    });

    return dist;
}

} // namespace gm::gapref

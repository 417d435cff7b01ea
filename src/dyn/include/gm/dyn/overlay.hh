/**
 * @file
 * gm::dyn — a mutable overlay over the immutable GraphStore.
 *
 * The store's CSR snapshots stay immutable; mutation happens in a
 * DeltaOverlay that buffers batched edge inserts/deletes as sorted
 * per-vertex adjacency deltas with tombstones.  Readers see the overlay
 * through a generation-tagged GraphView — base CSR merged with the delta
 * rows on the fly — and a compact() step folds the deltas into a fresh CSR
 * generation installed into the store (the old generation is retired and
 * stays byte-accounted until its last outstanding view drops).  compact()
 * is build() then install(): build() merges without touching the store,
 * and install() is the store's pointer swap, so both run while kernels
 * read the generations they pinned.
 *
 * Determinism contract: apply() is a serial, order-defined fold of the
 * batch (inserts first, then deletes), so the resulting snapshot is a pure
 * function of (base, batch sequence); compact() writes each vertex's
 * merged row independently under par::parallel_for, so the compacted CSR
 * is bit-identical across GM_THREADS.  The compacted CSR of the live edge
 * set equals graph::build_graph() of the same edge list (sorted, deduped,
 * self-loop-free) — pinned by the rebuild-oracle property test.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gm/graph/builder.hh"
#include "gm/graph/csr.hh"
#include "gm/graph/edge_list.hh"
#include "gm/store/graph_store.hh"
#include "gm/support/status.hh"

namespace gm::dyn
{

/** One batch of edge mutations, applied atomically by DynamicGraph::apply.
 *  Within a batch, inserts are folded before deletes. */
struct MutationBatch
{
    graph::EdgeList inserts;
    graph::EdgeList deletes;

    void insert(vid_t u, vid_t v) { inserts.push_back({u, v}); }
    void erase(vid_t u, vid_t v) { deletes.push_back({u, v}); }
    bool empty() const { return inserts.empty() && deletes.empty(); }
    std::size_t size() const { return inserts.size() + deletes.size(); }
};

/** One buffered adjacency change: a live inserted arc, or a tombstone over
 *  a base arc. */
struct DeltaEntry
{
    vid_t v;    ///< target (out-rows) or source (in-rows)
    bool dead;  ///< true: tombstone over a base arc; false: inserted arc

    friend bool operator==(const DeltaEntry&, const DeltaEntry&) = default;
};

/**
 * Immutable per-vertex adjacency deltas for one generation, CSR-shaped:
 * offsets plus rows sorted by target.  Invariants (maintained by apply):
 * at most one entry per (vertex, target); tombstones always match a base
 * arc; live entries never duplicate a base arc.  Directed graphs carry a
 * mirrored in-direction; undirected graphs leave it empty (both stored
 * arc directions live in the out rows, like the CSR itself).
 */
struct DeltaSnapshot
{
    std::vector<eid_t> out_off;        ///< size n+1
    std::vector<DeltaEntry> out_rows;  ///< sorted per vertex
    std::vector<eid_t> in_off;         ///< directed only; else empty
    std::vector<DeltaEntry> in_rows;
    /** Net out-degree change per vertex (inserts - tombstones). */
    std::vector<std::int32_t> out_deg_delta;
    /** Net in-degree change per vertex (directed only). */
    std::vector<std::int32_t> in_deg_delta;
    /** Stored-arc delta: live out entries minus out tombstones. */
    eid_t arc_delta = 0;

    /** Owned heap bytes (charged to the store as overlay bytes). */
    std::size_t
    bytes() const
    {
        return (out_off.size() + in_off.size()) * sizeof(eid_t) +
               (out_rows.size() + in_rows.size()) * sizeof(DeltaEntry) +
               (out_deg_delta.size() + in_deg_delta.size()) *
                   sizeof(std::int32_t);
    }
};

/**
 * A generation-tagged, immutable read view: base CSR + delta merge.
 * Copyable and cheap (two shared_ptrs); holding one pins its generation's
 * base CSR, which keeps the retired generation byte-accounted in the
 * store until the last view drops.
 */
class GraphView
{
  public:
    GraphView() = default;
    GraphView(std::shared_ptr<const graph::CSRGraph> base,
              std::shared_ptr<const DeltaSnapshot> delta,
              std::uint64_t generation)
        : base_(std::move(base)),
          delta_(std::move(delta)),
          generation_(generation)
    {
    }

    vid_t num_vertices() const { return base_->num_vertices(); }
    bool is_directed() const { return base_->is_directed(); }
    std::uint64_t generation() const { return generation_; }
    const graph::CSRGraph& base() const { return *base_; }
    bool has_delta() const { return delta_ != nullptr; }

    /** Stored (directed) arc count after the merge. */
    eid_t
    num_edges_directed() const
    {
        return base_->num_edges_directed() + (delta_ ? delta_->arc_delta : 0);
    }

    /** Merged out-degree of @p v. */
    eid_t
    out_degree(vid_t v) const
    {
        eid_t d = base_->out_degree(v);
        if (delta_)
            d += delta_->out_deg_delta[v];
        return d;
    }

    /** Merged in-degree of @p v (== out-degree when undirected). */
    eid_t
    in_degree(vid_t v) const
    {
        if (!is_directed())
            return out_degree(v);
        eid_t d = base_->in_degree(v);
        if (delta_)
            d += delta_->in_deg_delta[v];
        return d;
    }

    /** Visit the live out-neighbors of @p v in ascending target order. */
    template <typename Fn>
    void
    for_out(vid_t v, Fn&& fn) const
    {
        merge_row(base_->out_neigh(v), delta_row(v, /*out=*/true), fn);
    }

    /** Visit the live in-neighbors of @p v in ascending source order. */
    template <typename Fn>
    void
    for_in(vid_t v, Fn&& fn) const
    {
        if (!is_directed()) {
            for_out(v, fn);
            return;
        }
        merge_row(base_->in_neigh(v), delta_row(v, /*out=*/false), fn);
    }

    /** True when the live merged view contains the arc u -> t. */
    bool has_out_edge(vid_t u, vid_t t) const;

  private:
    std::span<const DeltaEntry> delta_row(vid_t v, bool out) const;

    /** Two-pointer merge of a sorted base row with a sorted delta row:
     *  tombstones suppress their base arc, live entries splice in. */
    template <typename Fn>
    static void
    merge_row(std::span<const vid_t> base, std::span<const DeltaEntry> delta,
              Fn&& fn)
    {
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < base.size() || j < delta.size()) {
            if (j == delta.size() ||
                (i < base.size() && base[i] < delta[j].v)) {
                fn(base[i++]);
            } else if (i == base.size() || delta[j].v < base[i]) {
                if (!delta[j].dead)
                    fn(delta[j].v);
                ++j;
            } else { // equal target: only tombstones may shadow a base arc
                if (!delta[j].dead)
                    fn(base[i]);
                ++i;
                ++j;
            }
        }
    }

    std::shared_ptr<const graph::CSRGraph> base_;
    std::shared_ptr<const DeltaSnapshot> delta_;
    std::uint64_t generation_ = 0;
};

/** Net effect of one applied batch (after dedupe against the live view). */
struct BatchEffect
{
    /** Sorted unique vertices whose adjacency (out or in) changed. */
    std::vector<vid_t> dirty;
    eid_t inserted_arcs = 0;  ///< stored arcs that became live
    eid_t deleted_arcs = 0;   ///< stored arcs that died
    std::size_t requested = 0; ///< batch.size() as submitted

    bool changed() const { return inserted_arcs > 0 || deleted_arcs > 0; }

    /** |dirty| / n — reported per batch as MutationOutcome::dirty_fraction
     *  and the gm_dyn_dirty_fraction gauge. */
    double
    dirty_fraction(vid_t n) const
    {
        return n == 0 ? 0.0
                      : static_cast<double>(dirty.size()) /
                            static_cast<double>(n);
    }
};

/** A merged CSR from DynamicGraph::build(), not yet installed. */
struct Compaction
{
    /** The overlay snapshot merged into csr; null when it was clean. */
    std::shared_ptr<const DeltaSnapshot> delta;
    graph::CSRGraph csr;
};

/**
 * The DeltaOverlay manager for one store: buffers batched mutations
 * against the store's current CSR generation and folds them into fresh
 * generations via build() + install().
 *
 * Thread safety: every member is individually locked.  apply() and
 * build() read only the overlay's base and deltas; install() swaps the
 * store's current generation, which readers holding a pinned generation
 * never see.  All three may run beside kernel execution.  Mutation order
 * defines the result — there is no concurrent-writer merge.
 */
class DynamicGraph
{
  public:
    explicit DynamicGraph(std::shared_ptr<store::GraphStore> store);

    /** View of the current generation (base + pending deltas). */
    GraphView view() const;

    /** Current CSR generation id (bumps on compact of a dirty overlay). */
    std::uint64_t generation() const;

    /** Pending overlay bytes (0 right after a compact). */
    std::size_t pending_bytes() const;

    /** Pending stored-arc changes (live inserts + tombstones). */
    std::size_t pending_entries() const;

    /**
     * Apply one batch: validate endpoints, fold inserts then deletes into
     * a fresh immutable DeltaSnapshot (dedupe against the live merged
     * view: inserting a present edge or deleting an absent one is a
     * no-op; deleting a buffered insert cancels it; re-inserting a
     * tombstoned base edge resurrects it; self-loops are ignored).
     * Undirected graphs fold both stored arc directions.
     *
     * @return the net effect, or kInvalidInput (nothing applied) when an
     *         endpoint is out of range.
     */
    support::StatusOr<BatchEffect> apply(const MutationBatch& batch);

    /**
     * Merge base + pending deltas into a fresh CSR (per-vertex parallel
     * merge, deterministic) without touching the store.  Empty when the
     * overlay is clean.
     */
    Compaction build() const;

    /**
     * Install @p built into the store as the next generation and clear
     * the overlay.  Asserts that nothing was applied or installed since
     * the build(); a clean build installs nothing.
     *
     * @return the store generation now current.
     */
    std::uint64_t install(Compaction built);

    /** install(build()): fold pending deltas into the next generation. */
    std::uint64_t compact() { return install(build()); }

  private:
    std::shared_ptr<store::GraphStore> store_;
    mutable std::mutex mu_;
    std::shared_ptr<const graph::CSRGraph> base_; ///< pinned current gen
    std::shared_ptr<const DeltaSnapshot> delta_;  ///< null when clean
    std::uint64_t generation_ = 0;
};

} // namespace gm::dyn

/**
 * @file
 * gm::dyn — edge mutations as merges into CSR generations.
 *
 * The store's CSR generations are immutable, and readers only ever see a
 * whole generation.  A batch of edge mutations is one pure function of
 * the generation it lands on: merge() validates the batch, folds it into
 * the net set of stored arcs it changes, and splices those arcs into a
 * copy of the base CSR — the next generation, which the caller installs
 * with store::GraphStore::install_generation().  Nothing is buffered
 * between batches.
 *
 * The header keeps the name overlay.hh, from the delta overlay that once
 * buffered batches between generations, because the gapbench benchmark
 * builds against this path unchanged.
 *
 * Determinism contract: the fold is serial and order-defined (inserts
 * first, then deletes; the last op on an arc wins), and each merged row is
 * written independently under par::parallel_for, so the merged CSR is
 * bit-identical across GM_THREADS.  It equals graph::build_graph() of the
 * live edge set (sorted, deduped, self-loop-free) — pinned by the
 * rebuild-oracle property test.
 */
#pragma once

#include <optional>
#include <vector>

#include "gm/graph/csr.hh"
#include "gm/graph/edge_list.hh"
#include "gm/support/status.hh"

namespace gm::dyn
{

/** One batch of edge mutations, merged atomically by merge().  Within a
 *  batch, inserts are folded before deletes. */
struct MutationBatch
{
    graph::EdgeList inserts;
    graph::EdgeList deletes;

    void insert(vid_t u, vid_t v) { inserts.push_back({u, v}); }
    void erase(vid_t u, vid_t v) { deletes.push_back({u, v}); }
    bool empty() const { return inserts.empty() && deletes.empty(); }
    std::size_t size() const { return inserts.size() + deletes.size(); }
};

/** Net effect of one merged batch on the stored arcs. */
struct BatchEffect
{
    /** Sorted unique vertices whose adjacency (out or in) changed. */
    std::vector<vid_t> dirty;
    eid_t inserted_arcs = 0;  ///< stored arcs live after, absent before
    eid_t deleted_arcs = 0;   ///< stored arcs live before, absent after
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

/** What merge() makes of one batch. */
struct Merged
{
    BatchEffect effect;
    /** The next generation's CSR; empty when the batch changed no arc. */
    std::optional<graph::CSRGraph> csr;
};

/**
 * Merge @p batch into @p base.  Inserting a present arc or deleting an
 * absent one changes nothing, and neither does inserting and then
 * deleting the same absent arc; self-loops are ignored; an undirected
 * edge changes both of its stored arcs.  @p base is only read.
 *
 * @return the net effect plus, when it changed an arc, the merged CSR;
 *         or kInvalidInput (nothing merged) when an endpoint is out of
 *         range.
 */
support::StatusOr<Merged> merge(const graph::CSRGraph& base,
                                const MutationBatch& batch);

} // namespace gm::dyn

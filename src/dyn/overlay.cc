#include "gm/dyn/overlay.hh"

#include <algorithm>
#include <span>
#include <string>

#include "gm/par/parallel_for.hh"

namespace gm::dyn
{

namespace
{

/** One op on a stored arc: the arc (src, dst) lives in src's row. */
struct ArcOp
{
    vid_t src;
    vid_t dst;
    bool insert; ///< true: the arc is live afterwards; false: absent
};

bool
arc_less(const ArcOp& a, const ArcOp& b)
{
    return a.src < b.src || (a.src == b.src && a.dst < b.dst);
}

/**
 * One direction of the merged CSR: the base rows (@p off, @p nbr) with
 * @p flips — arcs that change liveness, sorted by arc — spliced in.  The
 * offset shift is serial; every row is then copied and spliced on its
 * own, so the result does not depend on the lane count.
 */
void
splice_rows(vid_t n, std::span<const eid_t> off, std::span<const vid_t> nbr,
            std::span<const ArcOp> flips, std::vector<eid_t>* next_off,
            std::vector<vid_t>* next_nbr)
{
    // first[v] indexes v's first flip; each row start moves by the net
    // flips of the rows before it.
    std::vector<std::size_t> first(static_cast<std::size_t>(n) + 1);
    next_off->resize(static_cast<std::size_t>(n) + 1);
    (*next_off)[0] = 0;
    std::size_t k = 0;
    eid_t shift = 0;
    for (vid_t v = 0; v < n; ++v) {
        first[v] = k;
        for (; k < flips.size() && flips[k].src == v; ++k)
            shift += flips[k].insert ? 1 : -1;
        (*next_off)[v + 1] = off[v + 1] + shift;
    }
    first[n] = k;
    next_nbr->resize(static_cast<std::size_t>((*next_off)[n]));

    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        auto read = nbr.begin() + off[v];
        const auto row_end = nbr.begin() + off[v + 1];
        auto write = next_nbr->begin() + (*next_off)[v];
        for (std::size_t f = first[v]; f < first[v + 1]; ++f) {
            const auto at = std::lower_bound(read, row_end, flips[f].dst);
            write = std::copy(read, at, write);
            if (flips[f].insert) {
                *write++ = flips[f].dst;
                read = at;
            } else {
                read = at + 1; // skip the dying arc
            }
        }
        write = std::copy(read, row_end, write);
        GM_ASSERT(write == next_nbr->begin() + (*next_off)[v + 1],
                  "merged row does not fill its offset range");
    });
}

} // namespace

support::StatusOr<Merged>
merge(const graph::CSRGraph& base, const MutationBatch& batch)
{
    const vid_t n = base.num_vertices();
    for (const auto* list : {&batch.inserts, &batch.deletes}) {
        for (const graph::Edge& e : *list) {
            if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
                return support::Status(
                    support::StatusCode::kInvalidInput,
                    "mutation endpoint out of [0, " + std::to_string(n) +
                        ")");
            }
        }
    }

    // Every stored arc the batch touches, in batch order: inserts, then
    // deletes.  An undirected edge touches both of its stored arcs; a
    // self-loop is never stored.
    const bool directed = base.is_directed();
    std::vector<ArcOp> ops;
    ops.reserve(2 * batch.size());
    const auto touch = [&](const graph::EdgeList& list, bool insert) {
        for (const graph::Edge& e : list) {
            if (e.u == e.v)
                continue;
            ops.push_back({e.u, e.v, insert});
            if (!directed)
                ops.push_back({e.v, e.u, insert});
        }
    };
    touch(batch.inserts, /*insert=*/true);
    touch(batch.deletes, /*insert=*/false);
    std::stable_sort(ops.begin(), ops.end(), arc_less);

    // The last op on an arc decides it; keep the arcs it flips.
    Merged merged;
    BatchEffect& effect = merged.effect;
    effect.requested = batch.size();
    std::vector<ArcOp> flips;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i + 1 < ops.size() && !arc_less(ops[i], ops[i + 1]))
            continue;
        const ArcOp& op = ops[i];
        const auto row = base.out_neigh(op.src);
        if (std::binary_search(row.begin(), row.end(), op.dst) == op.insert)
            continue;
        (op.insert ? effect.inserted_arcs : effect.deleted_arcs) += 1;
        effect.dirty.push_back(op.src);
        effect.dirty.push_back(op.dst);
        flips.push_back(op);
    }
    std::sort(effect.dirty.begin(), effect.dirty.end());
    effect.dirty.erase(std::unique(effect.dirty.begin(), effect.dirty.end()),
                       effect.dirty.end());
    if (!effect.changed())
        return merged;

    std::vector<eid_t> out_off;
    std::vector<vid_t> out_nbr;
    splice_rows(n, base.out_offsets(), base.out_destinations(), flips,
                &out_off, &out_nbr);
    if (!directed) {
        merged.csr.emplace(n, false, std::move(out_off), std::move(out_nbr));
        return merged;
    }
    // A directed graph's in-rows flip the same arcs, reversed.
    for (ArcOp& op : flips)
        std::swap(op.src, op.dst);
    std::sort(flips.begin(), flips.end(), arc_less);
    std::vector<eid_t> in_off;
    std::vector<vid_t> in_nbr;
    splice_rows(n, base.in_offsets(), base.in_destinations(), flips, &in_off,
                &in_nbr);
    merged.csr.emplace(n, true, std::move(out_off), std::move(out_nbr),
                       std::move(in_off), std::move(in_nbr));
    return merged;
}

} // namespace gm::dyn

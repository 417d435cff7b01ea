#include "gm/dyn/overlay.hh"

#include <algorithm>
#include <map>
#include <numeric>

#include "gm/par/parallel_for.hh"

namespace gm::dyn
{

namespace
{

/** Binary search a sorted base row for target @p t. */
bool
base_has(std::span<const vid_t> row, vid_t t)
{
    return std::binary_search(row.begin(), row.end(), t);
}

/** Mutable working copy of the touched rows in one direction. */
using Row = std::map<vid_t, bool>; // target -> dead

/** Per-direction fold state for apply(). */
struct Fold
{
    const graph::CSRGraph* base = nullptr;
    const DeltaSnapshot* old_delta = nullptr;
    bool out = true;
    std::map<vid_t, Row> touched; // vertex -> working row

    std::span<const DeltaEntry>
    old_row(vid_t v) const
    {
        if (old_delta == nullptr)
            return {};
        const auto& off = out ? old_delta->out_off : old_delta->in_off;
        const auto& rows = out ? old_delta->out_rows : old_delta->in_rows;
        if (off.empty())
            return {};
        return {rows.data() + off[v],
                static_cast<std::size_t>(off[v + 1] - off[v])};
    }

    Row&
    row_of(vid_t v)
    {
        auto it = touched.find(v);
        if (it != touched.end())
            return it->second;
        Row row;
        for (const DeltaEntry& e : old_row(v))
            row.emplace(e.v, e.dead);
        return touched.emplace(v, std::move(row)).first->second;
    }

    std::span<const vid_t>
    base_row(vid_t v) const
    {
        return out ? base->out_neigh(v) : base->in_neigh(v);
    }

    /** Fold one arc op.  @return true when the live arc set changed. */
    bool
    arc(vid_t v, vid_t t, bool insert)
    {
        Row& row = row_of(v);
        auto it = row.find(t);
        if (insert) {
            if (it != row.end()) {
                if (it->second) { // tombstoned base arc: resurrect
                    row.erase(it);
                    return true;
                }
                return false; // buffered insert already live
            }
            if (base_has(base_row(v), t))
                return false; // base arc already live
            row.emplace(t, false);
            return true;
        }
        if (it != row.end()) {
            if (it->second)
                return false; // already tombstoned
            row.erase(it); // cancel the buffered insert
            return true;
        }
        if (!base_has(base_row(v), t))
            return false; // absent edge
        row.emplace(t, true);
        return true;
    }

    /**
     * Rebuild this direction's flat snapshot arrays from old rows plus
     * the touched working rows.  Serial: a pure fold of the batch.
     */
    void
    emit(vid_t n, std::vector<eid_t>* off, std::vector<DeltaEntry>* rows,
         std::vector<std::int32_t>* deg_delta) const
    {
        off->assign(static_cast<std::size_t>(n) + 1, 0);
        deg_delta->assign(static_cast<std::size_t>(n), 0);
        rows->clear();
        for (vid_t v = 0; v < n; ++v) {
            (*off)[v] = static_cast<eid_t>(rows->size());
            auto it = touched.find(v);
            if (it != touched.end()) {
                for (const auto& [t, dead] : it->second)
                    rows->push_back({t, dead});
            } else {
                for (const DeltaEntry& e : old_row(v))
                    rows->push_back(e);
            }
            for (std::size_t k = (*off)[v]; k < rows->size(); ++k)
                (*deg_delta)[v] += (*rows)[k].dead ? -1 : 1;
        }
        (*off)[n] = static_cast<eid_t>(rows->size());
    }
};

} // namespace

bool
GraphView::has_out_edge(vid_t u, vid_t t) const
{
    const auto row = delta_row(u, /*out=*/true);
    const auto it = std::lower_bound(
        row.begin(), row.end(), t,
        [](const DeltaEntry& e, vid_t target) { return e.v < target; });
    if (it != row.end() && it->v == t)
        return !it->dead;
    return base_has(base_->out_neigh(u), t);
}

std::span<const DeltaEntry>
GraphView::delta_row(vid_t v, bool out) const
{
    if (!delta_)
        return {};
    const auto& off = out ? delta_->out_off : delta_->in_off;
    const auto& rows = out ? delta_->out_rows : delta_->in_rows;
    if (off.empty())
        return {};
    return {rows.data() + off[v],
            static_cast<std::size_t>(off[v + 1] - off[v])};
}

DynamicGraph::DynamicGraph(std::shared_ptr<store::GraphStore> store)
    : store_(std::move(store)),
      base_(store_->base_ptr()),
      generation_(store_->generation())
{
}

GraphView
DynamicGraph::view() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return GraphView(base_, delta_, generation_);
}

std::uint64_t
DynamicGraph::generation() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
}

std::size_t
DynamicGraph::pending_bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return delta_ ? delta_->bytes() : 0;
}

std::size_t
DynamicGraph::pending_entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return delta_ ? delta_->out_rows.size() + delta_->in_rows.size() : 0;
}

support::StatusOr<BatchEffect>
DynamicGraph::apply(const MutationBatch& batch)
{
    std::lock_guard<std::mutex> lock(mu_);
    const vid_t n = base_->num_vertices();
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

    const bool directed = base_->is_directed();
    Fold out_fold{base_.get(), delta_.get(), /*out=*/true, {}};
    Fold in_fold{base_.get(), delta_.get(), /*out=*/false, {}};

    BatchEffect effect;
    effect.requested = batch.size();
    std::vector<vid_t> dirty;

    const auto fold_arc = [&](vid_t u, vid_t v, bool insert) {
        // The mirrored arc is folded in lockstep so the two directions
        // never disagree: undirected graphs store both arcs in the out
        // rows, directed graphs mirror u->v into v's in row.
        bool changed;
        if (directed) {
            changed = out_fold.arc(u, v, insert);
            const bool in_changed = in_fold.arc(v, u, insert);
            GM_ASSERT(changed == in_changed, "out/in delta rows diverged");
        } else {
            changed = out_fold.arc(u, v, insert);
            if (u != v) {
                const bool mirror = out_fold.arc(v, u, insert);
                GM_ASSERT(changed == mirror, "mirrored arc diverged");
            }
        }
        if (changed) {
            (insert ? effect.inserted_arcs : effect.deleted_arcs) +=
                (!directed && u != v) ? 2 : 1;
            dirty.push_back(u);
            dirty.push_back(v);
        }
    };

    for (const graph::Edge& e : batch.inserts) {
        if (e.u == e.v)
            continue; // builder semantics: self-loops never stored
        fold_arc(e.u, e.v, /*insert=*/true);
    }
    for (const graph::Edge& e : batch.deletes) {
        if (e.u == e.v)
            continue;
        fold_arc(e.u, e.v, /*insert=*/false);
    }

    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    effect.dirty = std::move(dirty);

    if (effect.changed()) {
        auto next = std::make_shared<DeltaSnapshot>();
        out_fold.emit(n, &next->out_off, &next->out_rows,
                      &next->out_deg_delta);
        if (directed)
            in_fold.emit(n, &next->in_off, &next->in_rows,
                         &next->in_deg_delta);
        next->arc_delta = 0;
        for (const std::int32_t d : next->out_deg_delta)
            next->arc_delta += d;
        delta_ = std::move(next);
        store_->set_overlay_bytes(delta_->bytes());
    }
    return effect;
}

Compaction
DynamicGraph::build() const
{
    std::shared_ptr<const graph::CSRGraph> base;
    Compaction built;
    {
        std::lock_guard<std::mutex> lock(mu_);
        base = base_;
        built.delta = delta_;
    }
    if (!built.delta)
        return built;

    const vid_t n = base->num_vertices();
    const GraphView view(base, built.delta, /*generation=*/0);

    const auto merge_direction = [&](bool out, std::vector<eid_t>* off,
                                     std::vector<vid_t>* nbr) {
        off->resize(static_cast<std::size_t>(n) + 1);
        (*off)[0] = 0;
        for (vid_t v = 0; v < n; ++v) {
            const eid_t deg = out ? view.out_degree(v) : view.in_degree(v);
            (*off)[v + 1] = (*off)[v] + deg;
        }
        nbr->resize(static_cast<std::size_t>((*off)[n]));
        // Independent per-vertex writes: width-invariant by construction.
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            eid_t slot = (*off)[v];
            const auto emit = [&](vid_t t) { (*nbr)[slot++] = t; };
            if (out)
                view.for_out(v, emit);
            else
                view.for_in(v, emit);
        });
    };

    std::vector<eid_t> out_off;
    std::vector<vid_t> out_nbr;
    merge_direction(/*out=*/true, &out_off, &out_nbr);
    if (base->is_directed()) {
        std::vector<eid_t> in_off;
        std::vector<vid_t> in_nbr;
        merge_direction(/*out=*/false, &in_off, &in_nbr);
        built.csr = graph::CSRGraph(n, true, std::move(out_off),
                                    std::move(out_nbr), std::move(in_off),
                                    std::move(in_nbr));
    } else {
        built.csr = graph::CSRGraph(n, false, std::move(out_off),
                                    std::move(out_nbr));
    }
    return built;
}

std::uint64_t
DynamicGraph::install(Compaction built)
{
    std::lock_guard<std::mutex> lock(mu_);
    GM_ASSERT(built.delta == delta_,
              "overlay changed between build() and install()");
    if (!delta_)
        return generation_;
    generation_ = store_->install_generation(std::move(built.csr));
    store_->set_overlay_bytes(0);
    base_ = store_->base_ptr();
    delta_.reset();
    return generation_;
}

} // namespace gm::dyn

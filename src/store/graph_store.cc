#include "gm/store/graph_store.hh"

#include <algorithm>
#include <utility>

#include "gm/graph/builder.hh"
#include "gm/support/hash.hh"
#include "gm/support/log.hh"
#include "gm/support/timer.hh"

namespace gm::store
{

namespace detail
{

/**
 * Accounting shared by a store and every generation it created.  Its
 * mutex guards everything here, every generation's slot fields, and the
 * store's current pointer, so a build in a retired generation and an
 * install update one high-water mark.
 */
struct Ledger
{
    /** A retired generation: its base counts while anything pins the
     *  base CSR, its derived forms while anything pins the generation. */
    struct Retired
    {
        std::weak_ptr<const graph::CSRGraph> base;
        std::size_t base_bytes = 0;
        std::weak_ptr<const Generation> generation;
    };

    std::mutex mu;
    /** The store's current generation; null once the store is gone. */
    const Generation* current = nullptr;
    std::size_t high_water = 0;
    std::vector<Retired> retired;

    /** Bytes of the retired generations still held; drops rows whose
     *  base is gone (a live generation always holds its base). */
    std::size_t
    retired_bytes_locked()
    {
        std::erase_if(retired,
                      [](const Retired& row) { return row.base.expired(); });
        std::size_t total = 0;
        for (const Retired& row : retired) {
            total += row.base_bytes;
            if (const auto gen = row.generation.lock())
                total += gen->derived_bytes_locked();
        }
        return total;
    }

    std::size_t
    resident_locked()
    {
        std::size_t total = retired_bytes_locked();
        if (current != nullptr)
            total += current->base().bytes_resident() +
                     current->derived_bytes_locked();
        return total;
    }

    void
    update_high_water_locked()
    {
        high_water = std::max(high_water, resident_locked());
    }
};

} // namespace detail

namespace
{

std::size_t
owned_bytes(const graph::CSRGraph& g)
{
    return g.bytes_resident();
}

std::size_t
owned_bytes(const graph::WCSRGraph& g)
{
    return g.bytes_resident();
}

std::size_t
owned_bytes(const grb::lagraph::GrbGraph& gg)
{
    return gg.bytes_owned();
}

template <typename Slot>
ArtifactInfo
info(const char* name, const Slot& slot)
{
    ArtifactInfo row;
    row.name = name;
    row.resident = slot.value != nullptr;
    row.bytes = slot.bytes;
    row.build_seconds = slot.build_seconds;
    row.builds = slot.builds;
    return row;
}

} // namespace

Generation::Generation(std::shared_ptr<const graph::CSRGraph> base,
                       std::uint64_t weight_seed, std::uint64_t id,
                       std::shared_ptr<detail::Ledger> ledger)
    : base_(std::move(base)),
      weight_seed_(weight_seed),
      id_(id),
      ledger_(std::move(ledger))
{
}

/**
 * Memoized acquisition: fast path under the ledger lock, then the slot's
 * build mutex serializes the (potentially expensive) build so it happens
 * exactly once per residency.  Builders may acquire *other* slots through
 * the public getters — the dependency graph (grb_weighted -> weighted,
 * relabeled -> undirected) is acyclic, and no build lock is held while
 * taking the ledger lock the dependency needs.
 */
template <typename T, typename Build>
std::shared_ptr<const T>
Generation::acquire(Slot<T>& slot, Build&& build) const
{
    {
        std::lock_guard<std::mutex> lock(ledger_->mu);
        if (slot.value)
            return slot.value;
    }
    std::lock_guard<std::mutex> build_lock(slot.build_mu);
    {
        std::lock_guard<std::mutex> lock(ledger_->mu);
        if (slot.value) // built while we waited for the build lock
            return slot.value;
    }
    Timer timer;
    timer.start();
    auto built = std::make_shared<const T>(build());
    timer.stop();
    const std::size_t bytes = owned_bytes(*built);
    {
        std::lock_guard<std::mutex> lock(ledger_->mu);
        slot.value = built;
        slot.bytes = bytes;
        slot.build_seconds = timer.seconds();
        ++slot.builds;
        ledger_->update_high_water_locked();
    }
    return built;
}

std::shared_ptr<const graph::WCSRGraph>
Generation::weighted() const
{
    return acquire(weighted_,
                   [&] { return graph::add_weights(*base_, weight_seed_); });
}

std::shared_ptr<const graph::CSRGraph>
Generation::undirected() const
{
    if (!base_->is_directed())
        return base_; // alias: undirected graphs are their own symmetrization
    return acquire(undirected_, [&] { return graph::symmetrize(*base_); });
}

std::shared_ptr<const graph::CSRGraph>
Generation::relabeled() const
{
    auto und = undirected(); // dependency first, outside any build lock
    return acquire(relabeled_,
                   [&] { return graph::relabel_by_degree(*und); });
}

std::shared_ptr<const grb::lagraph::GrbGraph>
Generation::grb() const
{
    return acquire(grb_, [&] { return grb::lagraph::make_grb_graph(base_); });
}

std::shared_ptr<const grb::lagraph::GrbGraph>
Generation::grb_weighted() const
{
    auto wg = weighted();
    auto pattern = grb();
    return acquire(grb_weighted_, [&] {
        grb::lagraph::GrbGraph gg = *pattern; // shares A/AT views
        grb::lagraph::attach_weights(gg, wg);
        return gg;
    });
}

std::uint64_t
Generation::fingerprint() const
{
    {
        std::lock_guard<std::mutex> lock(ledger_->mu);
        if (fingerprint_done_)
            return fingerprint_;
    }
    // Hashed outside the lock: the base is immutable, so racing callers
    // compute the same digest.
    support::Fnv1a h;
    h.update_value(base_->num_vertices());
    h.update_value(base_->is_directed());
    h.update_vector(base_->out_offsets());
    h.update_vector(base_->out_destinations());
    h.update_value(weight_seed_);
    std::lock_guard<std::mutex> lock(ledger_->mu);
    fingerprint_ = h.digest();
    fingerprint_done_ = true;
    return fingerprint_;
}

std::size_t
Generation::derived_bytes_locked() const
{
    std::size_t total = 0;
    const auto add = [&](const auto& slot) {
        if (slot.value)
            total += slot.bytes;
    };
    add(weighted_);
    add(undirected_);
    add(relabeled_);
    add(grb_);
    add(grb_weighted_);
    return total;
}

void
Generation::evict_locked() const
{
    weighted_.value.reset();
    undirected_.value.reset();
    relabeled_.value.reset();
    grb_.value.reset();
    grb_weighted_.value.reset();
}

GraphStore::GraphStore(graph::CSRGraph base, std::uint64_t weight_seed)
    : ledger_(std::make_shared<detail::Ledger>()),
      weight_seed_(weight_seed),
      current_(new Generation(
          std::make_shared<const graph::CSRGraph>(std::move(base)),
          weight_seed, /*id=*/0, ledger_))
{
    ledger_->current = current_.get();
    ledger_->high_water = current_->base().bytes_resident();
}

GraphStore::~GraphStore()
{
    // Generations pinned past the store keep the ledger alive; they must
    // not read the current generation the store is about to drop.
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->current = nullptr;
}

std::shared_ptr<const Generation>
GraphStore::current() const
{
    std::lock_guard<std::mutex> lock(ledger_->mu);
    return current_;
}

const graph::CSRGraph&
GraphStore::base() const
{
    std::lock_guard<std::mutex> lock(ledger_->mu);
    return current_->base();
}

void
GraphStore::evict_derived()
{
    std::lock_guard<std::mutex> lock(ledger_->mu);
    current_->evict_locked();
}

std::uint64_t
GraphStore::identity() const
{
    std::shared_ptr<const Generation> gen;
    {
        std::lock_guard<std::mutex> lock(ledger_->mu);
        if (identity_done_)
            return identity_;
        gen = current_;
    }
    const std::uint64_t fingerprint = gen->fingerprint();
    std::lock_guard<std::mutex> lock(ledger_->mu);
    if (!identity_done_) {
        // install_generation() freezes the identity before its swap, so
        // an unfrozen identity is always read at generation 0.
        GM_ASSERT(gen->id() == 0, "identity read past generation 0");
        identity_ = fingerprint;
        identity_done_ = true;
    }
    return identity_;
}

std::uint64_t
GraphStore::install_generation(graph::CSRGraph next)
{
    (void)identity(); // freeze gen-0 identity before the swap
    auto base = std::make_shared<const graph::CSRGraph>(std::move(next));
    std::shared_ptr<const Generation> retired;
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(ledger_->mu);
        id = current_->id() + 1;
        retired = std::exchange(
            current_, std::shared_ptr<const Generation>(new Generation(
                          std::move(base), weight_seed_, id, ledger_)));
        ledger_->retired.push_back({retired->base_ptr(),
                                    retired->base().bytes_resident(),
                                    retired});
        ledger_->current = current_.get();
        ledger_->update_high_water_locked();
    }
    // Dropped outside the lock: when no reader pins it, the retired
    // generation is freed here.
    return id;
}

std::size_t
GraphStore::bytes_resident() const
{
    std::lock_guard<std::mutex> lock(ledger_->mu);
    return ledger_->resident_locked();
}

std::size_t
GraphStore::bytes_high_water() const
{
    std::lock_guard<std::mutex> lock(ledger_->mu);
    return ledger_->high_water;
}

std::vector<ArtifactInfo>
GraphStore::artifacts() const
{
    std::lock_guard<std::mutex> lock(ledger_->mu);
    const Generation& gen = *current_;
    std::vector<ArtifactInfo> rows;
    ArtifactInfo base_row;
    base_row.name = "base";
    base_row.resident = true;
    base_row.bytes = gen.base().bytes_resident();
    rows.push_back(std::move(base_row));
    rows.push_back(info("weighted", gen.weighted_));
    if (gen.base().is_directed()) {
        rows.push_back(info("undirected", gen.undirected_));
    } else {
        ArtifactInfo row;
        row.name = "undirected";
        row.resident = true;
        row.alias = true; // shares the base graph's buffers
        rows.push_back(std::move(row));
    }
    rows.push_back(info("relabeled", gen.relabeled_));
    rows.push_back(info("grb", gen.grb_));
    rows.push_back(info("grb+weights", gen.grb_weighted_));
    {
        ArtifactInfo row;
        row.name = "retired";
        row.bytes = ledger_->retired_bytes_locked();
        row.resident = !ledger_->retired.empty();
        row.builds = static_cast<int>(ledger_->retired.size());
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace gm::store

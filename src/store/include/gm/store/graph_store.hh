/**
 * @file
 * GraphStore: the immutable, reference-counted artifact layer behind a
 * benchmark dataset.
 *
 * A store holds one base CSR graph and derives every other form a
 * framework might want — weighted, symmetrized, degree-relabeled, and the
 * GraphBLAS packaging (pattern views, optionally with weights) — lazily,
 * exactly once, thread-safely.  Each artifact is memoized behind a
 * shared_ptr to an immutable object: callers that need an artifact to
 * outlive the store's cache (e.g. across per-graph eviction in a sweep)
 * hold the shared_ptr; callers inside a benchmark cell can use plain
 * references.
 *
 * The GAP rules make all of this packaging untimed ("building a
 * framework's native graph format is not timed"), which is why laziness is
 * legal: the harness warms the forms a kernel needs before starting the
 * trial timer, so first-touch builds never pollute timings.
 *
 * evict_derived() drops the cache's references to every derived form;
 * outstanding shared_ptrs (and GraphBLAS views, which pin their source via
 * keep-alive handles) stay valid.  Per-artifact accounting — owned bytes,
 * build seconds, build count — survives eviction so a sweep can report
 * both its peak footprint and what each form cost to build.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gm/graph/csr.hh"
#include "gm/grb/lagraph.hh"

namespace gm::store
{

/** Accounting row for one artifact of a GraphStore. */
struct ArtifactInfo
{
    std::string name;        ///< "base", "weighted", "undirected", ...
    bool resident = false;   ///< currently cached in the store
    bool alias = false;      ///< shares buffers with another artifact
    std::size_t bytes = 0;   ///< owned heap bytes when built (aliases: 0)
    double build_seconds = 0;///< cost of the last build (untimed by GAP)
    int builds = 0;          ///< times built (re-builds after eviction)
};

/** Lazily derives and memoizes every graph form behind shared immutable
 *  views.  All getters are safe to call concurrently. */
class GraphStore
{
  public:
    /** @param weight_seed Seed for the synthetic SSSP weights (the GAP
     *  generator derives weights deterministically from it). */
    GraphStore(graph::CSRGraph base, std::uint64_t weight_seed);

    GraphStore(const GraphStore&) = delete;
    GraphStore& operator=(const GraphStore&) = delete;

    /** The native input graph (always resident). */
    const graph::CSRGraph& base() const { return *base_; }
    /** Shared handle to the base graph (pin it across eviction). */
    std::shared_ptr<const graph::CSRGraph> base_ptr() const { return base_; }

    /** Weighted form for SSSP. */
    std::shared_ptr<const graph::WCSRGraph> weighted() const;
    /** Symmetrized form for TC; aliases base() when already undirected. */
    std::shared_ptr<const graph::CSRGraph> undirected() const;
    /** Degree-relabeled undirected form (Optimized-mode TC). */
    std::shared_ptr<const graph::CSRGraph> relabeled() const;
    /** GraphBLAS packaging: zero-copy pattern views over base(). */
    std::shared_ptr<const grb::lagraph::GrbGraph> grb() const;
    /** GraphBLAS packaging with the weighted matrix attached. */
    std::shared_ptr<const grb::lagraph::GrbGraph> grb_weighted() const;

    /** Drop cached derived forms.  Outstanding shared_ptrs (and any
     *  GraphBLAS views pinned by keep-alives) remain valid; the next
     *  getter call rebuilds.  Accounting survives. */
    void evict_derived();

    /** Owned heap bytes currently resident across base + cached forms.
     *  Aliases and zero-copy views contribute nothing. */
    std::size_t bytes_resident() const;

    /** Largest bytes_resident() ever observed on this store.  Updated
     *  after every build; survives evict_derived(). */
    std::size_t bytes_high_water() const;

    /** Accounting snapshot for every artifact, base first. */
    std::vector<ArtifactInfo> artifacts() const;

    /**
     * Content fingerprint of this store: FNV-1a 64 over the base CSR
     * arrays (vertex count, directedness, offsets, destinations) and the
     * weight seed.  Lazy and memoized per generation; stable across
     * processes.  Derived forms are deterministic functions of the base +
     * seed and need no hashing of their own.
     */
    std::uint64_t fingerprint() const;

    /**
     * Stable identity of this store: the generation-0 fingerprint, frozen
     * the first time it is needed and unchanged by install_generation().
     * gm::serve keys its result cache on it so cache keys survive
     * mutation; pair it with generation() to distinguish snapshots.
     */
    std::uint64_t identity() const;

    /** Monotone CSR generation counter; 0 is the as-constructed base. */
    std::uint64_t generation() const;

    /**
     * Install a compacted CSR as the next generation.  The previous base
     * is retired: the store drops its strong reference but keeps counting
     * the old generation's bytes until every outstanding view (base_ptr()
     * holders, GraphBLAS keep-alives) releases it.  Cached derived forms
     * are dropped (they describe the old generation) and the per-
     * generation fingerprint memo is reset; identity() is frozen first.
     *
     * Concurrency: accounting/fingerprint getters are safe to call
     * concurrently, but callers must quiesce kernel execution that reads
     * base() by plain reference for the swap itself.  Building @p next
     * needs no quiescence: gm::serve builds it beside running kernels
     * and holds the whole lane budget only around this call.
     *
     * @return the new generation id.
     */
    std::uint64_t install_generation(graph::CSRGraph next);

    /** Charge the dynamic overlay's delta buffers (gm::dyn) to this
     *  store's accounting; shows up in bytes_resident()/high-water. */
    void set_overlay_bytes(std::size_t bytes);

  private:
    template <typename T>
    struct Slot
    {
        std::shared_ptr<const T> value;
        std::size_t bytes = 0;
        double build_seconds = 0;
        int builds = 0;
        std::mutex build_mu; ///< serializes builds so each runs once
    };

    template <typename T, typename Build>
    std::shared_ptr<const T> acquire(Slot<T>& slot, Build&& build) const;

    template <typename T>
    ArtifactInfo info(const char* name, const Slot<T>& slot) const;

    /** Resident bytes across base + cached forms + overlay + retired
     *  generations still pinned by views.  Caller holds state_mu_. */
    std::size_t resident_locked() const;

    /** Recompute the high-water mark.  Caller holds state_mu_. */
    void update_high_water() const;

    /** Freeze + return the generation-0 identity.  Caller holds state_mu_. */
    std::uint64_t identity_locked() const;

    /** Drop retired-generation rows whose last view is gone.  Caller
     *  holds state_mu_. */
    void prune_retired_locked() const;

    std::shared_ptr<const graph::CSRGraph> base_;
    std::uint64_t weight_seed_;
    mutable std::mutex state_mu_; ///< guards every slot's non-mutex fields
    mutable std::size_t high_water_bytes_ = 0;
    mutable bool fingerprint_done_ = false;
    mutable std::uint64_t fingerprint_ = 0;
    mutable bool identity_done_ = false;
    mutable std::uint64_t identity_ = 0;
    std::uint64_t generation_ = 0;
    std::size_t overlay_bytes_ = 0;
    /** Old generations: (weak view handle, owned bytes).  A row counts
     *  toward residency until its weak_ptr expires; pruned lazily. */
    mutable std::vector<std::pair<std::weak_ptr<const graph::CSRGraph>,
                                  std::size_t>> retired_;
    mutable Slot<graph::WCSRGraph> weighted_;
    mutable Slot<graph::CSRGraph> undirected_;
    mutable Slot<graph::CSRGraph> relabeled_;
    mutable Slot<grb::lagraph::GrbGraph> grb_;
    mutable Slot<grb::lagraph::GrbGraph> grb_weighted_;
};

} // namespace gm::store

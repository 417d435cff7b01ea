/**
 * @file
 * GraphStore: the immutable, reference-counted artifact layer behind a
 * benchmark dataset.
 *
 * A store holds a sequence of immutable Generations.  Each generation is
 * one base CSR graph plus every other form a framework might want —
 * weighted, symmetrized, degree-relabeled, and the GraphBLAS packaging
 * (pattern views, optionally with weights) — derived lazily, exactly
 * once, thread-safely.  Each artifact is memoized behind a shared_ptr to
 * an immutable object: callers that need an artifact to outlive the
 * store's cache (e.g. across per-graph eviction in a sweep) hold the
 * shared_ptr; callers inside a benchmark cell can use plain references.
 *
 * The store's getters read its current generation.  A reader that must
 * see one graph while mutations install new generations beside it holds
 * current() — a pin — and reads that generation instead: an install
 * swaps the store's pointer and never touches a generation a reader
 * holds.
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

namespace detail
{
struct Ledger;
} // namespace detail

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

/**
 * One immutable snapshot of a store's graph: the base CSR and its lazily
 * memoized derived forms.  Holding a shared_ptr to a Generation pins all
 * of it; the store counts a retired generation's bytes, derived forms
 * included, until the last holder lets go.  All getters are safe to call
 * concurrently.  Only GraphStore creates generations.
 */
class Generation
{
  public:
    Generation(const Generation&) = delete;
    Generation& operator=(const Generation&) = delete;

    /** Monotone id within its store; 0 is the as-constructed base. */
    std::uint64_t id() const { return id_; }

    /** The native input graph (always resident). */
    const graph::CSRGraph& base() const { return *base_; }
    /** Shared handle to the base graph (pin it beyond this generation). */
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

    /**
     * Content fingerprint: FNV-1a 64 over the base CSR arrays (vertex
     * count, directedness, offsets, destinations) and the weight seed.
     * Lazy and memoized; stable across processes.  Derived forms are
     * deterministic functions of the base + seed and need no hashing of
     * their own.
     */
    std::uint64_t fingerprint() const;

  private:
    friend class GraphStore;
    friend struct detail::Ledger;

    template <typename T>
    struct Slot
    {
        std::shared_ptr<const T> value;
        std::size_t bytes = 0;
        double build_seconds = 0;
        int builds = 0;
        std::mutex build_mu; ///< serializes builds so each runs once
    };

    Generation(std::shared_ptr<const graph::CSRGraph> base,
               std::uint64_t weight_seed, std::uint64_t id,
               std::shared_ptr<detail::Ledger> ledger);

    template <typename T, typename Build>
    std::shared_ptr<const T> acquire(Slot<T>& slot, Build&& build) const;

    /** Owned bytes of the cached derived forms.  Caller holds the
     *  ledger's mutex. */
    std::size_t derived_bytes_locked() const;

    /** Drop every cached derived form.  Caller holds the ledger's
     *  mutex. */
    void evict_locked() const;

    std::shared_ptr<const graph::CSRGraph> base_;
    std::uint64_t weight_seed_;
    std::uint64_t id_;
    /** Shared with the store and its other generations: its mutex guards
     *  every slot's non-mutex fields and the fingerprint memo. */
    std::shared_ptr<detail::Ledger> ledger_;
    mutable bool fingerprint_done_ = false;
    mutable std::uint64_t fingerprint_ = 0;
    mutable Slot<graph::WCSRGraph> weighted_;
    mutable Slot<graph::CSRGraph> undirected_;
    mutable Slot<graph::CSRGraph> relabeled_;
    mutable Slot<grb::lagraph::GrbGraph> grb_;
    mutable Slot<grb::lagraph::GrbGraph> grb_weighted_;
};

/** The current Generation of a mutable graph, plus the byte accounting
 *  across every generation still held.  All getters are safe to call
 *  concurrently. */
class GraphStore
{
  public:
    /** @param weight_seed Seed for the synthetic SSSP weights (the GAP
     *  generator derives weights deterministically from it). */
    GraphStore(graph::CSRGraph base, std::uint64_t weight_seed);
    ~GraphStore();

    GraphStore(const GraphStore&) = delete;
    GraphStore& operator=(const GraphStore&) = delete;

    /** The current generation.  Holding the pointer pins it: every read
     *  through it sees that one graph, whatever is installed later. */
    std::shared_ptr<const Generation> current() const;

    /** The current generation's base graph.  The reference is valid
     *  until the next install_generation(); pin current() to read one
     *  generation across installs. */
    const graph::CSRGraph& base() const;
    /** Shared handle to the current base graph. */
    std::shared_ptr<const graph::CSRGraph> base_ptr() const
    {
        return current()->base_ptr();
    }

    /** The current generation's derived forms (see Generation). */
    std::shared_ptr<const graph::WCSRGraph> weighted() const
    {
        return current()->weighted();
    }
    std::shared_ptr<const graph::CSRGraph> undirected() const
    {
        return current()->undirected();
    }
    std::shared_ptr<const graph::CSRGraph> relabeled() const
    {
        return current()->relabeled();
    }
    std::shared_ptr<const grb::lagraph::GrbGraph> grb() const
    {
        return current()->grb();
    }
    std::shared_ptr<const grb::lagraph::GrbGraph> grb_weighted() const
    {
        return current()->grb_weighted();
    }

    /** Drop the current generation's cached derived forms.  Outstanding
     *  shared_ptrs (and any GraphBLAS views pinned by keep-alives) remain
     *  valid; the next getter call rebuilds.  Accounting survives. */
    void evict_derived();

    /** Owned heap bytes currently resident: the current generation's
     *  base + cached forms and every retired generation still held.
     *  Aliases and zero-copy views contribute nothing. */
    std::size_t bytes_resident() const;

    /** Largest bytes_resident() ever observed on this store.  Updated
     *  after every build and install; survives evict_derived(). */
    std::size_t bytes_high_water() const;

    /** Accounting snapshot: the current generation's artifacts, base
     *  first, then the retired generations. */
    std::vector<ArtifactInfo> artifacts() const;

    /** The current generation's content fingerprint. */
    std::uint64_t fingerprint() const { return current()->fingerprint(); }

    /**
     * Stable identity of this store: the generation-0 fingerprint, frozen
     * the first time it is needed and unchanged by install_generation().
     * gm::serve keys its result cache on it so cache keys survive
     * mutation; pair it with generation() to distinguish snapshots.
     */
    std::uint64_t identity() const;

    /** The current generation's id. */
    std::uint64_t generation() const { return current()->id(); }

    /**
     * Install a merged CSR as the next generation: a pointer swap.
     * The previous generation is retired: the store drops its strong
     * reference but keeps counting its bytes — base and derived forms —
     * until every holder (pinned readers, base_ptr() holders, GraphBLAS
     * keep-alives) releases it.  Readers holding a generation keep
     * reading it; identity() is frozen first.
     *
     * @return the new generation id.
     */
    std::uint64_t install_generation(graph::CSRGraph next);

  private:
    std::shared_ptr<detail::Ledger> ledger_;
    std::uint64_t weight_seed_;
    /** Guarded by the ledger's mutex. */
    std::shared_ptr<const Generation> current_;
    mutable bool identity_done_ = false;
    mutable std::uint64_t identity_ = 0;
};

} // namespace gm::store

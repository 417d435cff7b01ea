/**
 * @file
 * Benchmark datasets: the five GAP input-graph classes.  A Dataset is a
 * thin facade over a shared gm::store::GraphStore — derived forms
 * (weighted, symmetrized, relabeled, GraphBLAS packaging) are built
 * lazily, once, thread-safely, on first access instead of eagerly at
 * construction.  Per the GAP rules, building a framework's native graph
 * format is not timed; the runner warms the forms a kernel needs before
 * starting the trial timer, so laziness never leaks into timings.
 *
 * Lifetime rule: references returned by the form accessors stay valid
 * until evict_derived() drops the store's cache, or, on a dataset whose
 * store mutates, until the next generation installs — unless the dataset
 * is a pinned() copy, which reads one generation for its whole life.
 * Code that must hold a form across eviction (or across datasets in a
 * streaming sweep) should take a shared_ptr from store() instead.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gm/graph/csr.hh"
#include "gm/graph/stats.hh"
#include "gm/grb/lagraph.hh"
#include "gm/store/graph_store.hh"
#include "gm/support/status.hh"

namespace gm::harness
{

/** One benchmark input graph; derived forms come lazily from its store. */
class Dataset
{
  public:
    std::string name;

    graph::DegreeDistribution distribution =
        graph::DegreeDistribution::kBounded;
    vid_t approx_diameter = 0;
    /** Ground truth: generated as a high-diameter topology. */
    bool high_diameter = false;
    /** Per-graph SSSP delta (GAP explicitly allows tuning this). */
    weight_t delta = 64;

    /** Deterministic non-isolated benchmark sources. */
    std::vector<vid_t> sources;

    Dataset() = default;
    explicit Dataset(std::shared_ptr<store::GraphStore> store)
        : store_(std::move(store))
    {
    }

    /** Native graph (out + in edges). */
    const graph::CSRGraph&
    g() const
    {
        return pinned_ != nullptr ? pinned_->base() : store()->base();
    }

    /** Weighted form for SSSP. */
    const graph::WCSRGraph& wg() const { return *generation()->weighted(); }

    /** Symmetrized form for TC (aliases g() when already undirected). */
    const graph::CSRGraph&
    g_undirected() const
    {
        return *generation()->undirected();
    }

    /** Degree-relabeled undirected form; Optimized-mode TC may use it
     *  without paying the relabel cost (as the Galois team did). */
    const graph::CSRGraph&
    g_relabeled() const
    {
        return *generation()->relabeled();
    }

    /** GraphBLAS packaging (zero-copy adjacency views, no weights). */
    const grb::lagraph::GrbGraph& grb() const { return *generation()->grb(); }

    /** GraphBLAS packaging with the weighted matrix attached (SSSP). */
    const grb::lagraph::GrbGraph&
    grb_weighted() const
    {
        return *generation()->grb_weighted();
    }

    /**
     * A copy of this dataset that reads one generation — the store's
     * current one — for as long as the copy lives, whatever mutations
     * install meanwhile.  Its references stay valid for the copy's
     * lifetime (eviction aside).  Pinning a pinned dataset keeps its
     * generation.
     */
    Dataset
    pinned() const
    {
        Dataset copy = *this;
        copy.pinned_ = generation();
        return copy;
    }

    /** The generation this dataset reads: the pinned one, or else the
     *  store's current one. */
    std::shared_ptr<const store::Generation>
    generation() const
    {
        return pinned_ != nullptr ? pinned_ : store()->current();
    }

    /** The underlying artifact store (shared across Dataset copies). */
    const std::shared_ptr<store::GraphStore>&
    store() const
    {
        GM_ASSERT(store_ != nullptr, "dataset has no graph store");
        return store_;
    }

    /** Owned bytes currently resident across this dataset's artifacts. */
    std::size_t bytes_resident() const { return store()->bytes_resident(); }

    /** Drop cached derived forms (outstanding handles stay valid). */
    void evict_derived() const { store()->evict_derived(); }

  private:
    std::shared_ptr<store::GraphStore> store_;
    /** Set on pinned() copies: the one generation they read. */
    std::shared_ptr<const store::Generation> pinned_;
};

/** The five-graph suite. */
struct DatasetSuite
{
    std::vector<std::shared_ptr<Dataset>> datasets;

    const Dataset& operator[](std::size_t i) const { return *datasets[i]; }
    std::size_t size() const { return datasets.size(); }

    /** Owned bytes resident across every dataset's artifacts. */
    std::size_t
    bytes_resident() const
    {
        std::size_t total = 0;
        for (const auto& ds : datasets)
            total += ds->bytes_resident();
        return total;
    }
};

/**
 * Build the GAP-style suite at 2^scale vertices per graph (Road uses a
 * sqrt x sqrt grid of about that size).
 *
 * @param scale       log2 of the vertex count (e.g. 15 -> ~32k vertices).
 * @param num_sources How many benchmark sources to prepare per graph.
 */
DatasetSuite make_gap_suite(int scale, int num_sources = 16,
                            std::uint64_t seed = 2020);

/** Graph names make_gap_suite() would produce, in Table I order, without
 *  generating any graphs (cheap; suite --list-cells uses this). */
std::vector<std::string> gap_suite_graph_names();

/**
 * Build one dataset from an arbitrary graph, recoverably: empty graphs
 * come back as a Status (kInvalidInput) instead of killing the process.
 * Derived forms are lazy, so faults injected into their builders surface
 * at first use — inside the runner's supervised trials, which retry them.
 */
support::StatusOr<Dataset> try_make_dataset(std::string name,
                                            graph::CSRGraph g,
                                            int num_sources,
                                            std::uint64_t seed);

/** Convenience wrapper for trusted inputs (tests/examples): fatal()s on
 *  any error try_make_dataset() would report. */
Dataset make_dataset(std::string name, graph::CSRGraph g, int num_sources,
                     std::uint64_t seed);

} // namespace gm::harness

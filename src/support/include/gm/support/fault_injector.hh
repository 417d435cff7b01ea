/**
 * @file
 * Deterministic, seeded fault injection for testing recovery paths.
 *
 * Sites are named strings checked at strategic points (graph building,
 * worklist operations, kernel entry).  Armed via the environment:
 *
 *     GM_FAULTS=<site>:<rate>:<seed>[:delay=<ms>][,...]
 *
 * where <rate> is either a probability in [0, 1] (the i-th poll of a site
 * fires iff hash(seed, i) < rate — reproducible across runs) or "<n>x"
 * (fire on exactly the first n polls, then never — handy for testing
 * inject -> retry -> recover round trips).
 *
 * A site armed with ":delay=<ms>" injects a *slowdown* instead of an
 * error: at() sleeps for <ms> milliseconds when the site fires rather
 * than throwing.  This is how the perf-gate CI tier manufactures a
 * reproducible regression on a chosen cell without touching kernel code.
 *
 * Site names in use: "graph.build" (the edge-list builders only;
 * relabel_by_degree and symmetrize work CSR-to-CSR and never poll it),
 * "worklist", "kernel", "kernel.<Framework>" for targeting a single
 * framework, and
 * "trial.timed" / "trial.timed.<Framework>.<kernel>.<graph>" — polled by
 * the runner inside the timed region, so delay faults land in the
 * measured wall time.
 *
 * gm::serve sites (the chaos-harness surface; see DESIGN.md section 12):
 *
 *   "serve.execute"       polled by the single-flight leader just before
 *                         the kernel runs; an error fault fails the
 *                         request (and feeds the cell's circuit breaker),
 *                         a delay fault stretches its service time.
 *   "serve.admission"     polled inside Server::submit() before the
 *                         admission decision; an error fault sheds the
 *                         request as RESOURCE_EXHAUSTED (eligible for
 *                         degraded stale serving), a delay fault slows
 *                         the submit path.
 *   "serve.cache.insert"  polled inside ResultCache::publish() before a
 *                         successful result is inserted; an error fault
 *                         drops the insertion (the caller still gets its
 *                         answer, followers still wake — the cache just
 *                         stays cold), a delay fault slows publication.
 *   "serve.mutate"        polled by Server::mutate() after the batch is
 *                         merged into the next CSR generation and before
 *                         the install; an error fault fails the call as
 *                         UNAVAILABLE and discards the merge, so the
 *                         graph is as it was, a delay fault stretches
 *                         the call.
 *   "serve.plan.node"     polled by the plan driver just before each DAG
 *                         node executes; an error fault fails that node
 *                         (and with it the plan — failed flights are not
 *                         cached, so a retry re-executes), a delay fault
 *                         stretches the node enough to trip per-node
 *                         deadlines and exercise cancellation.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gm/support/status.hh"

namespace gm::support
{

/** One armed injection site. */
struct FaultSite
{
    std::string site;
    double rate = 0;              ///< probability mode (count < 0)
    std::int64_t count = -1;      ///< "<n>x" mode: fire first n polls
    std::uint64_t seed = 0;
    std::int64_t delay_ms = 0;    ///< > 0: sleep instead of throwing
    std::atomic<std::uint64_t> polls{0};

    FaultSite() = default;
    FaultSite(const FaultSite& other)
        : site(other.site),
          rate(other.rate),
          count(other.count),
          seed(other.seed),
          delay_ms(other.delay_ms),
          polls(other.polls.load())
    {
    }
};

/** Process-wide registry of armed fault sites. */
class FaultInjector
{
  public:
    /** The global injector, configured once from GM_FAULTS. */
    static FaultInjector& global();

    /** (Re)configure from a GM_FAULTS-syntax spec; "" disarms everything. */
    Status configure(const std::string& spec);

    /** Disarm all sites (used by tests to restore a clean state). */
    void clear();

    /** True if any site is armed (cheap; checked before hashing). */
    bool
    enabled() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /**
     * Poll @p site: returns true if a fault fires there.  Deterministic in
     * the per-site poll counter; safe inside worker lanes, including
     * concurrently with configure()/clear() — pollers work on an immutable
     * snapshot of the site list.
     */
    bool poll(std::string_view site);

    /**
     * Poll @p site and act on the armed fault: throw FaultInjectedError
     * (error sites) or sleep for the armed delay (":delay=<ms>" sites).
     */
    void at(std::string_view site);

  private:
    using SiteList = std::vector<std::shared_ptr<FaultSite>>;

    /** What one poll of a site resolved to. */
    struct PollResult
    {
        bool fired = false;
        std::int64_t delay_ms = 0; ///< 0 for error sites
    };
    PollResult poll_result(std::string_view site);

    /** Immutable snapshot for pollers; replaced wholesale under mutex_. */
    std::shared_ptr<const SiteList> sites_;
    mutable std::mutex mutex_; ///< guards sites_ replacement/snapshot
    std::atomic<bool> armed_{false};
};

} // namespace gm::support

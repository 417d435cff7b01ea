/**
 * @file
 * Byte-accounted LRU result cache with single-flight execution dedup.
 *
 * lookup_fresh() answers fresh hits and nothing else; lookup_or_join()
 * resolves a cache key to one of three roles:
 *
 *   kHit      — a completed result is cached; take it and go.
 *   kLeader   — nobody is computing this key: the caller must execute the
 *               kernel and publish() the outcome (success or failure).
 *   kFollower — an identical query is already executing; wait on the
 *               returned Inflight until the leader publishes.
 *
 * Only successful results are ever inserted — a failed, cancelled, or
 * deadline-expired leader publishes its status so followers can react,
 * but leaves no cache entry (no partial or poisoned results).  Insertion
 * evicts least-recently-used entries until the configured byte budget
 * holds; a single result larger than the whole budget is simply not
 * cached.
 *
 * Entries may carry a TTL (ttl_ns > 0).  An expired entry is no longer a
 * hit — lookup_or_join() falls through to the single-flight logic and a
 * fresh leader recomputes (publish() then replaces the entry in place) —
 * but it is *kept* until replaced or evicted, because an expired answer
 * is exactly what degraded-mode serving wants: peek() returns any entry,
 * fresh or stale, without touching LRU order or single-flight state, and
 * the server uses it to answer allow_stale requests when the fresh path
 * is shed, broken, or failing (QueryResult::degraded).
 *
 * Entries are additionally tagged with the data generation they were
 * computed against (gm::dyn mutations bump the store generation).  A
 * lookup passes the generation it wants; an entry from an older
 * generation is not a hit — it behaves exactly like a TTL expiry
 * (counted as stale_generation_misses, kept for peek()) so a mutated
 * graph invalidates its cached answers without any explicit flush, while
 * allow_stale callers can still be served the pre-mutation answer,
 * marked degraded.  Callers that never mutate pass the default 0
 * everywhere and see the old behavior unchanged.
 *
 * The "serve.cache.insert" fault site is polled inside publish() before
 * insertion: an injected error drops the insertion (the flight still
 * completes and followers still wake — the cache just stays cold), a
 * delay fault slows publication.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "gm/serve/request.hh"
#include "gm/support/clock.hh"
#include "gm/support/status.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve
{

/** LRU + single-flight cache; all operations are thread-safe. */
class ResultCache
{
  public:
    /**
     * Rendezvous between a single-flight leader and its followers.  The
     * leader fills the fields and flips done under mu, then notifies cv;
     * followers wait on cv until done, their own deadline, or a cancel
     * (the server's handles notify the flights their requests joined).
     */
    struct Inflight
    {
        /** Follower side: block until the leader publishes (true), or
         *  until @p stopped() holds or @p deadline_ns (Timer::now_ns();
         *  0 = none) passes (false).  Event-driven: publish() and
         *  cancels notify cv, so the deadline is the only timed bound. */
        bool wait(const std::function<bool()>& stopped,
                  std::int64_t deadline_ns);

        /** A follower's answer once published: ok (read value and the
         *  other fields), kCancelled when the leader was abandoned for
         *  reasons unrelated to the query (safe to retry), or the
         *  leader's deterministic failure. */
        support::Status follower_status() const;

        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        /** Leader outcome; ok iff value is set. */
        support::Status status;
        std::shared_ptr<const ResultValue> value;
        std::uint64_t fingerprint = 0;
        /** Data generation the leader executed against. */
        std::uint64_t generation = 0;
    };

    enum class Role { kHit, kLeader, kFollower };

    /** A cached answer: the immutable payload plus its provenance. */
    struct Cached
    {
        /** Null when nothing was found. */
        std::shared_ptr<const ResultValue> value;
        std::uint64_t fingerprint = 0;
        /** Data generation the entry was computed against. */
        std::uint64_t generation = 0;
    };

    /** Outcome of lookup_or_join(): role plus the role's payload.  The
     *  Cached fields are set only for kHit. */
    struct Lookup : Cached
    {
        Role role = Role::kLeader;
        /** Rendezvous; set for kLeader (to publish) and kFollower (to
         *  wait on). */
        std::shared_ptr<Inflight> flight;
    };

    /** Point-in-time counters (monotonic except entries/bytes). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;      ///< leader + follower lookups
        std::uint64_t joins = 0;       ///< follower lookups only
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t expired_misses = 0; ///< lookups past an entry's TTL
        /** Lookups that found an entry from an older data generation. */
        std::uint64_t stale_generation_misses = 0;
        std::uint64_t stale_serves = 0;   ///< peek() answers past TTL or
                                          ///< from an older generation
        std::size_t entries = 0;
        std::size_t bytes = 0;
    };

    /** peek() outcome: a cached payload plus its freshness. */
    struct Peek : Cached
    {
        /** Within TTL and from the requested generation (always true when
         *  the cache has no TTL and the caller never mutates). */
        bool fresh = true;
    };

    /**
     * @p ttl_ns > 0 ages entries (0 = never expire); @p clock is the
     * time source for TTLs (defaults to the system clock; tests inject a
     * ManualClock).  The gm_serve_cache_* series are registered in
     * @p registry (a Server passes its own).
     */
    explicit ResultCache(
        std::size_t capacity_bytes, std::int64_t ttl_ns = 0,
        support::Clock* clock = nullptr,
        telemetry::Registry& registry = telemetry::Registry::global());
    ~ResultCache();

    /** Resolve @p key against data generation @p generation; see the
     *  role taxonomy above.  An entry from another generation is treated
     *  like a TTL expiry: not a hit, but kept for peek(). */
    Lookup lookup_or_join(const std::string& key,
                          std::uint64_t generation = 0);

    /**
     * Hit-only lookup: the entry for @p key when it is fresh at
     * @p generation (counted as a hit, moved to the LRU front), else an
     * empty Cached with no side effects — no miss is counted and no
     * in-flight slot is created, so a following lookup_or_join() still
     * owns the miss, join, and leader accounting.
     */
    Cached lookup_fresh(const std::string& key, std::uint64_t generation = 0);

    /**
     * Degraded-mode read: any entry for @p key — fresh, expired, or from
     * an older generation — with no LRU or single-flight side effects.
     * value == nullptr when the key was never cached (or was evicted).
     */
    Peek peek(const std::string& key, std::uint64_t generation = 0);

    /**
     * Leader-only: record the execution outcome for @p key, insert the
     * result (tagged with the @p generation it was computed against) when
     * @p status is ok, retire the in-flight slot, and wake every
     * follower.  Must be called exactly once per kLeader lookup, on every
     * path out of the execution (including failure) — a leader that skips
     * publish() would strand its followers.
     */
    void publish(const std::string& key,
                 const std::shared_ptr<Inflight>& flight,
                 support::Status status,
                 std::shared_ptr<const ResultValue> value,
                 std::uint64_t fingerprint, std::uint64_t generation = 0);

    Stats stats() const;

    /** Drop every completed entry (in-flight executions are unaffected). */
    void clear();

  private:
    struct Entry
    {
        std::shared_ptr<const ResultValue> value;
        std::uint64_t fingerprint = 0;
        std::uint64_t generation = 0;
        std::size_t bytes = 0;
        std::int64_t inserted_ns = 0;
        std::list<std::string>::iterator lru_it;
    };

    /** Caller holds mu_. */
    bool expired(const Entry& entry, std::int64_t now_ns) const
    {
        return ttl_ns_ > 0 && now_ns - entry.inserted_ns >= ttl_ns_;
    }

    /** Caller holds mu_.  If @p entry is fresh at @p generation, count
     *  the hit, touch LRU order, copy it into @p out, and return true. */
    bool take_hit(Entry& entry, std::uint64_t generation, Cached& out);

    /** Registry handles for the gm_serve_cache_* series (cache.cc). */
    struct Telemetry;

    std::size_t capacity_bytes_;
    std::int64_t ttl_ns_;
    support::Clock* clock_;
    const std::unique_ptr<Telemetry> tm_;

    mutable std::mutex mu_;
    std::size_t bytes_ = 0;
    std::list<std::string> lru_; ///< front = most recently used
    std::unordered_map<std::string, Entry> entries_;
    std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
    Stats counters_;
};

} // namespace gm::serve

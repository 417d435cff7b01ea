#include "gm/serve/cache.hh"

#include <chrono>

#include "gm/support/fault_injector.hh"
#include "gm/support/timer.hh"
#include "gm/telemetry/registry.hh"

namespace gm::serve
{

/** Live-telemetry handles for one cache, acquired at construction. */
struct ResultCache::Telemetry
{
    telemetry::Counter& hits;
    telemetry::Counter& misses;
    telemetry::Counter& expired_misses;
    telemetry::Counter& stale_generation_misses;
    telemetry::Counter& joins;
    telemetry::Counter& insertions;
    telemetry::Counter& evictions;
    telemetry::Counter& stale_serves;
    telemetry::Gauge& bytes;
    telemetry::Gauge& entries;

    explicit Telemetry(telemetry::Registry& reg)
        : hits(reg.counter("gm_serve_cache_hits_total")),
          misses(reg.counter("gm_serve_cache_misses_total")),
          expired_misses(reg.counter("gm_serve_cache_expired_misses_total")),
          stale_generation_misses(
              reg.counter("gm_serve_cache_stale_generation_misses_total")),
          joins(reg.counter("gm_serve_cache_joins_total")),
          insertions(reg.counter("gm_serve_cache_insertions_total")),
          evictions(reg.counter("gm_serve_cache_evictions_total")),
          stale_serves(reg.counter("gm_serve_cache_stale_serves_total")),
          bytes(reg.gauge("gm_serve_cache_bytes")),
          entries(reg.gauge("gm_serve_cache_entries"))
    {
    }
};

ResultCache::ResultCache(std::size_t capacity_bytes, std::int64_t ttl_ns,
                         support::Clock* clock,
                         telemetry::Registry& registry)
    : capacity_bytes_(capacity_bytes),
      ttl_ns_(ttl_ns),
      clock_(clock != nullptr ? clock : support::Clock::system()),
      tm_(std::make_unique<Telemetry>(registry))
{
}

ResultCache::~ResultCache() = default;

bool
ResultCache::Inflight::wait(const std::function<bool()>& stopped,
                            std::int64_t deadline_ns)
{
    std::unique_lock<std::mutex> lock(mu);
    while (!done) {
        if (stopped() ||
            (deadline_ns != 0 && Timer::now_ns() >= deadline_ns))
            return false;
        if (deadline_ns == 0)
            cv.wait(lock);
        else
            cv.wait_for(lock,
                        std::chrono::nanoseconds(deadline_ns - Timer::now_ns()));
    }
    return true;
}

support::Status
ResultCache::Inflight::follower_status() const
{
    switch (status.code()) {
      case support::StatusCode::kTimeout:
      case support::StatusCode::kDeadlineExceeded:
      case support::StatusCode::kCancelled:
        return support::Status(support::StatusCode::kCancelled,
                               "single-flight leader abandoned; safe to "
                               "retry");
      default:
        return status; // ok, or a failure a retry would repeat
    }
}

bool
ResultCache::take_hit(Entry& entry, std::uint64_t generation, Cached& out)
{
    if (entry.generation != generation || expired(entry, clock_->now_ns()))
        return false;
    lru_.splice(lru_.begin(), lru_, entry.lru_it);
    ++counters_.hits;
    tm_->hits.inc();
    out.value = entry.value;
    out.fingerprint = entry.fingerprint;
    out.generation = entry.generation;
    return true;
}

ResultCache::Cached
ResultCache::lookup_fresh(const std::string& key, std::uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mu_);
    Cached out;
    if (auto it = entries_.find(key); it != entries_.end())
        take_hit(it->second, generation, out);
    return out;
}

ResultCache::Lookup
ResultCache::lookup_or_join(const std::string& key,
                            std::uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = entries_.find(key); it != entries_.end()) {
        if (Lookup hit; take_hit(it->second, generation, hit)) {
            hit.role = Role::kHit;
            return hit;
        }
        // Past its TTL or from an older data generation: no longer a
        // hit, but deliberately kept — peek() serves it stale until a
        // fresh leader's publish() replaces it.
        if (it->second.generation == generation) {
            ++counters_.expired_misses;
            tm_->expired_misses.inc();
        } else {
            ++counters_.stale_generation_misses;
            tm_->stale_generation_misses.inc();
        }
    }
    ++counters_.misses;
    tm_->misses.inc();
    auto [it, inserted] = inflight_.try_emplace(key);
    if (inserted)
        it->second = std::make_shared<Inflight>();
    Lookup miss;
    miss.role = inserted ? Role::kLeader : Role::kFollower;
    miss.flight = it->second;
    if (!inserted) {
        ++counters_.joins;
        tm_->joins.inc();
    }
    return miss;
}

ResultCache::Peek
ResultCache::peek(const std::string& key, std::uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mu_);
    Peek out;
    auto it = entries_.find(key);
    if (it == entries_.end())
        return out;
    out.value = it->second.value;
    out.fingerprint = it->second.fingerprint;
    out.generation = it->second.generation;
    out.fresh = it->second.generation == generation &&
                !expired(it->second, clock_->now_ns());
    if (!out.fresh) {
        ++counters_.stale_serves;
        tm_->stale_serves.inc();
    }
    return out;
}

void
ResultCache::publish(const std::string& key,
                     const std::shared_ptr<Inflight>& flight,
                     support::Status status,
                     std::shared_ptr<const ResultValue> value,
                     std::uint64_t fingerprint, std::uint64_t generation)
{
    // Chaos site: an injected error loses the insertion (not the
    // answer), a delay fault slows publication.
    bool drop_insert = false;
    if (status.is_ok() && value != nullptr) {
        try {
            support::FaultInjector::global().at("serve.cache.insert");
        } catch (const support::FaultInjectedError&) {
            drop_insert = true;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Retire the in-flight slot so the next identical query becomes a
        // hit (on success) or a fresh leader (on failure) — never a
        // follower of a finished flight.
        if (auto it = inflight_.find(key);
            it != inflight_.end() && it->second == flight)
            inflight_.erase(it);

        if (status.is_ok() && value != nullptr && !drop_insert) {
            const std::size_t bytes = result_bytes(*value) + key.size();
            if (bytes <= capacity_bytes_) {
                // Replace an existing (possibly expired) entry in place.
                if (auto it = entries_.find(key); it != entries_.end()) {
                    bytes_ -= it->second.bytes;
                    lru_.erase(it->second.lru_it);
                    entries_.erase(it);
                }
                while (bytes_ + bytes > capacity_bytes_ && !lru_.empty()) {
                    const std::string& victim = lru_.back();
                    auto vit = entries_.find(victim);
                    bytes_ -= vit->second.bytes;
                    entries_.erase(vit);
                    lru_.pop_back();
                    ++counters_.evictions;
                    tm_->evictions.inc();
                }
                lru_.push_front(key);
                entries_[key] = Entry{value, fingerprint, generation,
                                      bytes, clock_->now_ns(),
                                      lru_.begin()};
                bytes_ += bytes;
                ++counters_.insertions;
                tm_->insertions.inc();
            }
        }
        tm_->bytes.set(static_cast<double>(bytes_));
        tm_->entries.set(
            static_cast<double>(entries_.size()));
    }
    {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->status = std::move(status);
        flight->value =
            flight->status.is_ok() ? std::move(value) : nullptr;
        flight->fingerprint = fingerprint;
        flight->generation = generation;
        flight->done = true;
    }
    flight->cv.notify_all();
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats out = counters_;
    out.entries = entries_.size();
    out.bytes = bytes_;
    return out;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
    tm_->bytes.set(0);
    tm_->entries.set(0);
}

} // namespace gm::serve

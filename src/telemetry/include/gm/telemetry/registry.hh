/**
 * @file
 * Metric registry: named counters, gauges, and fixed-bucket
 * log-scale latency histograms for the live serving stack.
 *
 * Design mirrors gm::obs's tracing discipline, adapted for metrics that
 * are scraped while the system runs instead of collected per trial:
 *
 *  - Handles are acquired once (map lookup under a mutex) and then used
 *    lock-free from hot paths.  A handle stays valid for the lifetime of
 *    its Registry.
 *  - Counters and histograms are thread-sharded: each writer touches one
 *    cache-line-padded shard selected by gm::thread_index(), and shards
 *    are merged only on scrape.  Merging is a commutative integer sum, so
 *    a snapshot is bit-identical regardless of GM_THREADS or scheduling
 *    (the detcheck contract extended to telemetry).
 *  - The whole registry has a master enable switch.  Disabled, every
 *    probe is one relaxed atomic load and a branch (~1 ns), matching the
 *    bench/telemetry_overhead budget; each gm::serve::Server owns a
 *    registry and enables it for its lifetime.
 *
 * Series names are Prometheus-style and may carry embedded labels, e.g.
 * `gm_serve_latency_ns{kernel="BFS",priority="interactive"}`.  The
 * registry treats the name as an opaque key; exposition groups series
 * into families by the text before '{'.
 */
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gm::telemetry
{

/** Writers per metric are spread over this many padded shards. */
constexpr int kShards = 16;

namespace detail
{

/** One cache-line-padded relaxed counter cell. */
struct alignas(64) ShardCell
{
    std::atomic<std::uint64_t> v{0};
};

/** Stable shard slot for the calling thread. */
int shard_index();

} // namespace detail

/**
 * Monotonic counter; inc() is lock-free and thread-sharded.  inc()
 * publishes with release and value() reads with acquire, so a reader that
 * sees an increment also sees every counter the writer bumped before it:
 * reading effects before causes yields a coherent multi-counter view
 * (gm::serve::Server::stats_snapshot() relies on this).  On x86 both are
 * the same instructions as relaxed.
 */
class Counter
{
  public:
    void
    inc(std::uint64_t delta = 1)
    {
        if (!enabled_->load(std::memory_order_relaxed))
            return;
        shards_[detail::shard_index()].v.fetch_add(delta,
                                                   std::memory_order_release);
    }

    /** Sum over shards (scrape path; acquire reads). */
    std::uint64_t value() const;

  private:
    friend class Registry;
    explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

    const std::atomic<bool>* enabled_;
    std::array<detail::ShardCell, kShards> shards_;
};

/**
 * Instantaneous value (queue depth, resident bytes, availability).
 * Doubles, because Prometheus gauges are doubles and SLO fractions
 * need them; set() is a relaxed store, add() a CAS loop.
 */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (!enabled_->load(std::memory_order_relaxed))
            return;
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        if (!enabled_->load(std::memory_order_relaxed))
            return;
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

    const std::atomic<bool>* enabled_;
    std::atomic<double> value_{0.0};
};

/** Merged (scrape-time) view of one histogram. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /** Per-bucket counts, index = Histogram::bucket_index(value). */
    std::vector<std::uint64_t> buckets;

    /**
     * Quantile estimate (q in [0,1]) by cumulative bucket crossing with
     * the bucket midpoint as the point estimate; within one bucket width
     * of the exact sample quantile when samples are reasonably dense
     * (pinned against gm::stats::percentile_of in telemetry_test).
     */
    double quantile(double q) const;

    double
    mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
};

/**
 * Fixed-bucket log-linear histogram over uint64 values (nanoseconds,
 * usually).  Buckets: values 0..3 map to their own bucket, then each
 * power-of-two octave is split into 4 linear sub-buckets, so relative
 * bucket width is <= 25% everywhere.  252 buckets cover the full uint64
 * range — there is no overflow: UINT64_MAX lands in the last bucket.
 */
class Histogram
{
  public:
    static constexpr int kSubBits = 2;           ///< sub-buckets/octave = 4
    static constexpr int kSub = 1 << kSubBits;   ///< 4
    static constexpr int kBuckets = 252;         ///< highest index + 1

    /** Bucket for @p v; total order, 0 <= result < kBuckets. */
    static int
    bucket_index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<int>(v);
        const int msb = 63 - std::countl_zero(v);
        const int sub =
            static_cast<int>((v >> (msb - kSubBits)) & (kSub - 1));
        return ((msb - kSubBits + 1) << kSubBits) + sub;
    }

    /** Inclusive lower bound of bucket @p b (inverse of bucket_index). */
    static std::uint64_t bucket_lower(int b);

    /** Exclusive upper bound of bucket @p b; UINT64_MAX for the last. */
    static std::uint64_t bucket_upper(int b);

    void
    record(std::uint64_t v)
    {
        if (!enabled_->load(std::memory_order_relaxed))
            return;
        Shard& s = shards_[detail::shard_index()];
        s.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }

    /** Merge all shards (commutative sums: deterministic). */
    HistogramSnapshot snapshot() const;

  private:
    friend class Registry;
    explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled)
    {
    }

    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> sum{0};
        std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    };

    const std::atomic<bool>* enabled_;
    std::array<Shard, kShards> shards_;
};

/** Point-in-time view of every series, sorted by name. */
struct Snapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/**
 * Named-metric registry.  Handle acquisition locks; probes do not.
 * enable()/disable() nest (refcounted) so overlapping users of one
 * registry cannot turn each other's telemetry off.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** The process-wide registry: the default for components built
     *  outside a Server (a Server instruments against its own). */
    static Registry& global();

    /** Find-or-create; the reference stays valid until the Registry dies. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Refcounted master switch; disabled probes cost ~1 ns. */
    void enable();
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Deterministic merged view: series sorted by name. */
    Snapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    std::atomic<bool> enabled_{false};
    int enable_count_ = 0;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Compose a labeled series name:
 * labeled("gm_serve_latency_ns", {{"kernel","BFS"},{"priority","batch"}})
 * -> `gm_serve_latency_ns{kernel="BFS",priority="batch"}`.  Label values
 * are escaped per the Prometheus text format (backslash, quote, newline).
 */
std::string labeled(
    const std::string& family,
    const std::vector<std::pair<std::string, std::string>>& labels);

} // namespace gm::telemetry

/**
 * @file
 * Registry implementation: shard merging, bucket bounds, snapshotting.
 */
#include "gm/telemetry/registry.hh"

#include <algorithm>

#include "gm/support/log.hh"

namespace gm::telemetry
{

namespace detail
{

int
shard_index()
{
    return gm::thread_index() & (kShards - 1);
}

} // namespace detail

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const auto& s : shards_)
        total += s.v.load(std::memory_order_acquire);
    return total;
}

std::uint64_t
Histogram::bucket_lower(int b)
{
    GM_ASSERT(b >= 0 && b < kBuckets, "histogram bucket out of range");
    if (b < kSub)
        return static_cast<std::uint64_t>(b);
    const int msb = (b >> kSubBits) + kSubBits - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(b & (kSub - 1));
    return (std::uint64_t{1} << msb) + (sub << (msb - kSubBits));
}

std::uint64_t
Histogram::bucket_upper(int b)
{
    if (b >= kBuckets - 1)
        return ~std::uint64_t{0};
    return bucket_lower(b + 1);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.buckets.assign(kBuckets, 0);
    for (const auto& s : shards_) {
        snap.sum += s.sum.load(std::memory_order_relaxed);
        for (int b = 0; b < kBuckets; ++b)
            snap.buckets[b] += s.counts[b].load(std::memory_order_relaxed);
    }
    for (int b = 0; b < kBuckets; ++b)
        snap.count += snap.buckets[b];
    return snap;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank convention matches gm::stats::percentile_of: the exact
    // quantile interpolates around rank q*(n-1); the bucket holding
    // that rank bounds it to within one bucket width.
    const double rank = q * static_cast<double>(count - 1);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        cum += buckets[b];
        if (static_cast<double>(cum) > rank) {
            const std::uint64_t lo =
                Histogram::bucket_lower(static_cast<int>(b));
            const std::uint64_t hi =
                Histogram::bucket_upper(static_cast<int>(b));
            return 0.5 * (static_cast<double>(lo) + static_cast<double>(hi));
        }
    }
    return static_cast<double>(
        Histogram::bucket_lower(static_cast<int>(buckets.size()) - 1));
}

Registry&
Registry::global()
{
    static Registry* r = new Registry();  // leaked: outlives static dtors
    return *r;
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_
                 .emplace(name,
                          std::unique_ptr<Counter>(new Counter(&enabled_)))
                 .first;
    return *it->second;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_
                 .emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
                 .first;
    return *it->second;
}

Histogram&
Registry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(name, std::unique_ptr<Histogram>(
                                    new Histogram(&enabled_)))
                 .first;
    return *it->second;
}

void
Registry::enable()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++enable_count_;
    enabled_.store(true, std::memory_order_relaxed);
}

void
Registry::disable()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (enable_count_ > 0)
        --enable_count_;
    enabled_.store(enable_count_ > 0, std::memory_order_relaxed);
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
        snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
        snap.histograms.emplace_back(name, h->snapshot());
    return snap;
}

std::string
labeled(const std::string& family,
        const std::vector<std::pair<std::string, std::string>>& labels)
{
    if (labels.empty())
        return family;
    std::string out = family;
    out += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += k;
        out += "=\"";
        for (char c : v) {
            if (c == '\\')
                out += "\\\\";
            else if (c == '"')
                out += "\\\"";
            else if (c == '\n')
                out += "\\n";
            else
                out += c;
        }
        out += '"';
    }
    out += '}';
    return out;
}

} // namespace gm::telemetry

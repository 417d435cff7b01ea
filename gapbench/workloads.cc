#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <iostream>
#include <memory>
#include <thread>

#include "gm/harness/runner.hh"
#include "gm/par/thread_pool.hh"
#include "gm/plan/execute.hh"
#include "gm/stats/stats.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"
#include "trace.hh"

namespace gapbench
{

using gm::Timer;
using gm::harness::Kernel;
using gm::harness::kAllKernels;
using gm::serve::QueryResult;
using gm::serve::Request;
using gm::serve::Server;

namespace
{

// ------------------------------------------------------------ settings

/** Graph scale of each workload.  The serve workloads use 2^16 vertices
 *  per graph; one verified Baseline sweep at 2^16 takes ~40 s on 4 cores,
 *  so gap-suite runs at 2^14 to fit a run in the time budget. */
int
default_scale(Workload workload)
{
    return workload == Workload::kGapSuite ? 14 : 16;
}

/** Result-cache budget: the defaults' 64 MiB holds serve-hot's whole
 *  population; serve-cold turns the cache off; serve-mixed's population
 *  needs about 20 times its 16 MiB. */
std::size_t
cache_bytes(Workload workload)
{
    switch (workload) {
      case Workload::kServeCold:
        return 0;
      case Workload::kServeMixed:
        return 16ull << 20;
      default:
        return gm::serve::ServerOptions{}.cache_capacity_bytes;
    }
}

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 3;
/** Client threads of the serve workloads (closed loop, one process). */
constexpr int kClients = 4;
/** Benchmark sources prepared per graph. */
constexpr int kSuiteSources = 16;
/** Seed of the five graphs.  Like the paper's suite the graphs are fixed
 *  inputs: regenerated per seed, the triangle counts of Kron and Twitter
 *  alone moved tc_ms by a third between seeds.  The run's seed picks the
 *  benchmark sources and the request stream. */
constexpr std::uint64_t kGraphSeed = 1;
/** Rounds of direct calls behind a serve workload's <k>_ms. */
constexpr int kBareRounds = 5;
/** Timed trials per gap-suite run, so its p99 has ten trials beyond it;
 *  whole sweeps are added until there are this many. */
constexpr std::size_t kMinTrials = 1000;
/** Mutations and plans per serve-mixed phase, so their p95s have ten
 *  samples beyond them; the phase runs on until both are sent. */
constexpr std::uint64_t kMinMutations = 200;
constexpr std::uint64_t kMinPlans = 200;
/** Traced serve-hot runs record one operation in this many, so the span
 *  buffers stay small at ~10^5 operations per second. */
constexpr std::uint64_t kHotTraceStride = 32;
/** Span capacity of each thread's trace buffer. */
constexpr std::size_t kSpansPerThread = 1 << 17;
/** serve-mixed re-check after the timed phase: queries and plans per
 *  plan shape. */
constexpr int kRecheckQueries = 64;
constexpr int kRecheckPlansPerShape = 2;

// ------------------------------------------------------------- helpers

std::string
lower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
kernel_name(Kernel kernel)
{
    return lower(gm::harness::to_string(kernel));
}

/** Geometric mean of the positive entries; 0 when there are none. */
double
geomean(const std::vector<double>& values)
{
    double log_sum = 0;
    int n = 0;
    for (double v : values) {
        if (v > 0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n == 0 ? 0 : std::exp(log_sum / n);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
since(std::int64_t start_ns)
{
    return static_cast<double>(Timer::now_ns() - start_ns) * 1e-9;
}

std::int64_t
to_ns(double seconds)
{
    return static_cast<std::int64_t>(seconds * 1e9);
}

void
fail(Result& result, std::string message)
{
    ++result.failed;
    result.errors.push_back(std::move(message));
}

/**
 * A percentile needs ten samples beyond it: 1,000 for a p99 and 200 for a
 * p95.  With fewer the run reports an error and the metric is NaN, which
 * the caller does not print.  No samples at all means the workload
 * bypasses the layer, which reads 0.
 */
bool
enough_samples(std::size_t n, double p, const std::string& what,
               Result& result)
{
    const std::size_t floor = p >= 99 ? 1000 : p >= 95 ? 200 : 1;
    if (n == 0 || n >= floor)
        return true;
    result.errors.push_back(what + ": " + std::to_string(n) +
                            " samples, a p" + std::to_string(int(p)) +
                            " needs " + std::to_string(floor));
    return false;
}

double
percentile(std::vector<double> samples, double p, const std::string& what,
           Result& result)
{
    if (!enough_samples(samples.size(), p, what, result))
        return std::nan("");
    return gm::stats::percentile_of(std::move(samples), p);
}

/**
 * Latencies in fixed memory, so the benchmark's own footprint does not
 * grow with throughput: log-spaced buckets 0.5% wide from 10 ns to ~1000 s.
 * (gm::telemetry's histogram buckets are 25% wide, coarser than the
 * bounds the benchmark enforces.)
 */
class LatencyHistogram
{
  public:
    LatencyHistogram() : buckets_(kBuckets, 0) {}

    void
    add(double seconds)
    {
        const double x = std::max(seconds, kMin);
        const auto b = std::min(
            kBuckets - 1,
            static_cast<std::size_t>(std::log(x / kMin) / log_growth()));
        ++buckets_[b];
        ++count_;
    }

    void
    merge(const LatencyHistogram& other)
    {
        for (std::size_t b = 0; b < kBuckets; ++b)
            buckets_[b] += other.buckets_[b];
        count_ += other.count_;
    }

    std::uint64_t count() const { return count_; }

    /** The p-th percentile (0-100), interpolated inside its bucket. */
    double
    percentile(double p, const std::string& what, Result& result) const
    {
        if (!enough_samples(count_, p, what, result))
            return std::nan("");
        if (count_ == 0)
            return 0;
        const double rank = p / 100 * static_cast<double>(count_ - 1);
        std::uint64_t below = 0;
        std::size_t b = 0;
        while (static_cast<double>(below + buckets_[b]) <= rank)
            below += buckets_[b++];
        const double within =
            (rank - static_cast<double>(below) + 0.5) /
            static_cast<double>(buckets_[b]);
        return kMin *
               std::exp((static_cast<double>(b) + within) * log_growth());
    }

  private:
    static constexpr double kMin = 1e-8;
    static constexpr std::size_t kBuckets = 5100;

    static double
    log_growth()
    {
        static const double g = std::log1p(0.005);
        return g;
    }

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

/** The answer of @p req from a direct call into the framework. */
gm::serve::ResultValue
call_framework(const gm::harness::Framework& fw,
               const gm::harness::Dataset& ds, const Request& req)
{
    switch (req.kernel) {
      case Kernel::kBFS:
        return fw.bfs(ds, req.source, req.mode);
      case Kernel::kSSSP:
        return fw.sssp(ds, req.source, req.mode);
      case Kernel::kCC:
        return fw.cc(ds, req.mode);
      case Kernel::kPR:
        return fw.pr(ds, req.mode);
      case Kernel::kBC:
        return fw.bc(ds, std::vector<gm::vid_t>{req.source}, req.mode);
      case Kernel::kTC:
        return fw.tc(ds, req.mode);
    }
    return std::uint64_t{0};
}

const gm::harness::Dataset&
dataset(const gm::harness::DatasetSuite& suite, const std::string& name)
{
    for (const auto& ds : suite.datasets) {
        if (ds->name == name)
            return *ds;
    }
    throw std::out_of_range("unknown graph " + name);
}

// ------------------------------------------------------------- set-up

/** Everything one set-up builds; members are destroyed server first. */
struct Env
{
    gm::harness::DatasetSuite suite;
    std::vector<gm::harness::Framework> frameworks;
    std::unique_ptr<Stream> stream;
    std::unique_ptr<Server> server;

    const gm::harness::Framework&
    gap() const
    {
        return frameworks[gm::harness::kGapIndex];
    }
};

/** Submit @p requests in groups that fit the admission queue and wait for
 *  each; failures count against @p result. */
void
send_in_groups(Server& server, const std::vector<Request>& requests,
               Result& result)
{
    constexpr std::size_t kGroup = 16;
    for (std::size_t first = 0; first < requests.size(); first += kGroup) {
        std::vector<Server::Handle> handles;
        const std::size_t last = std::min(requests.size(), first + kGroup);
        for (std::size_t i = first; i < last; ++i) {
            auto handle = server.submit(requests[i]);
            ++result.attempted;
            if (handle.is_ok())
                handles.push_back(*handle);
            else
                fail(result, "warm query refused: " +
                                 handle.status().to_string());
        }
        for (const auto& handle : handles) {
            if (auto r = handle.wait(); !r.is_ok())
                fail(result, "warm query failed: " + r.status().to_string());
        }
    }
}

/**
 * Generate the suite, build every derived form of every graph, and for the
 * serve workloads start the server and run the warm pass: serve-hot sends
 * its whole population (filling the cache), the others one query per
 * kernel and graph.
 */
std::unique_ptr<Env>
set_up(const Options& options, int scale, Result& result)
{
    auto env = std::make_unique<Env>();
    trace::Scope root("bench.setup");
    {
        trace::Scope span("graph.make_gap_suite");
        env->suite =
            gm::harness::make_gap_suite(scale, kSuiteSources, kGraphSeed);
    }
    gm::Xoshiro256 rng(options.seed ^ 0x736f75726365ULL);
    for (const auto& ds : env->suite.datasets) {
        const gm::graph::CSRGraph& g = ds->g();
        ds->sources.clear();
        while (ds->sources.size() < kSuiteSources) {
            const auto v = static_cast<gm::vid_t>(rng.next_bounded(
                static_cast<std::uint64_t>(g.num_vertices())));
            if (g.out_degree(v) > 0)
                ds->sources.push_back(v);
        }
    }
    for (const auto& ds : env->suite.datasets) {
        const gm::store::GraphStore& store = *ds->store();
        {
            trace::Scope span("store.weighted");
            store.weighted();
        }
        {
            trace::Scope span("store.undirected");
            store.undirected();
        }
        {
            trace::Scope span("store.relabeled");
            store.relabeled();
        }
        {
            trace::Scope span("store.grb");
            store.grb();
        }
        {
            trace::Scope span("store.grb_weighted");
            store.grb_weighted();
        }
    }
    env->frameworks = gm::harness::make_frameworks();
    if (options.workload == Workload::kGapSuite)
        return env;

    env->stream =
        std::make_unique<Stream>(options.workload, options.seed, env->suite);
    gm::serve::ServerOptions server_options;
    server_options.cache_capacity_bytes = cache_bytes(options.workload);
    {
        trace::Scope span("serve.start");
        env->server = std::make_unique<Server>(env->suite, env->frameworks,
                                               server_options);
    }
    const auto& population = env->stream->population();
    std::vector<Request> warm;
    if (options.workload == Workload::kServeHot) {
        warm = population;
    } else {
        for (const auto& ds : env->suite.datasets) {
            for (Kernel kernel : kServedKernels) {
                const auto it = std::find_if(
                    population.begin(), population.end(),
                    [&](const Request& r) {
                        return r.kernel == kernel && r.graph == ds->name;
                    });
                if (it != population.end())
                    warm.push_back(*it);
            }
        }
    }
    trace::Scope span("serve.warm_pass");
    send_in_groups(*env->server, warm, result);
    if (options.workload == Workload::kServeMixed) {
        // A graph's first mutate() builds its overlay and recomputes the
        // maintained kernels from scratch; do that here, not in the
        // timed phase.
        for (const auto& ds : env->suite.datasets) {
            ++result.attempted;
            if (auto s = env->server->mutate(ds->name, {}); !s.is_ok())
                fail(result, "warm mutate failed: " + s.status().to_string());
        }
    }
    return env;
}

// ------------------------------------------------------- serve workloads

/** What one client saw.  Its size is fixed by the population, not by the
 *  number of operations, so it does not weigh on peak_rss_mb. */
struct ClientLog
{
    explicit ClientLog(std::size_t population)
        : entry_seconds(population, 0), entry_count(population, 0)
    {
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Point queries answered: client latency (submit() to wait()
     *  return), and latency minus the server's service time. */
    LatencyHistogram latency;
    LatencyHistogram handoff;
    /** Client latency summed per population entry, and its count. */
    std::vector<double> entry_seconds;
    std::vector<std::uint64_t> entry_count;
    std::uint64_t hits = 0;
    std::uint64_t joins = 0;
    std::uint64_t leaders = 0;
    /** Mutations (one dirty fraction each: a few hundred per run). */
    std::vector<double> dirty_fractions;
    std::uint64_t changed = 0;
    std::uint64_t incremental = 0;
    std::uint64_t compactions = 0;
    std::uint64_t deleted_arcs = 0;
    /** Plans. */
    std::uint64_t plans = 0;
    std::uint64_t plan_nodes = 0;
    std::uint64_t plan_executed = 0;
    std::uint64_t plan_hits = 0;
    std::uint64_t plan_shared = 0;
    std::uint64_t sources_fused = 0;
};

/** One timed phase of a serve workload. */
struct ServePhase
{
    std::vector<ClientLog> logs;
    double wall_s = 0;
    /** ServerStats growth over the phase. */
    std::uint64_t executions = 0;
    std::uint64_t lanes_granted = 0;
    /** First fingerprint served per population entry (serve-hot and
     *  serve-cold, whose graphs never change); 0 = never served. */
    std::vector<std::uint64_t> fingerprints;
};

/** One client's operation @p op, slot @p slot of the stream. */
void
send(Env& env, std::uint64_t slot, const Op& op, bool record, ClientLog& log,
     std::vector<std::atomic<std::uint64_t>>* fingerprints,
     std::atomic<std::uint64_t>& mismatches)
{
    Server& server = *env.server;
    ++log.attempted;
    const std::int64_t t0 = Timer::now_ns();
    switch (op.kind) {
      case OpKind::kQuery: {
        trace::Scope root("bench.query", record);
        auto handle = [&] {
            trace::Scope span("serve.submit", record);
            return server.submit(env.stream->population()[op.query]);
        }();
        if (!handle.is_ok())
            break;
        const auto result = [&] {
            trace::Scope span("serve.wait", record);
            return handle->wait();
        }();
        if (!result.is_ok())
            break;
        const double latency = since(t0);
        const QueryResult& r = *result;
        log.latency.add(latency);
        log.handoff.add(latency - r.service_seconds);
        log.entry_seconds[op.query] += latency;
        ++log.entry_count[op.query];
        log.hits += r.cache_hit ? 1 : 0;
        log.joins += r.shared_execution ? 1 : 0;
        log.leaders += r.execute_seconds > 0 ? 1 : 0;
        if (fingerprints != nullptr) {
            std::uint64_t expected = 0;
            auto& seen = (*fingerprints)[op.query];
            if (!seen.compare_exchange_strong(expected, r.fingerprint) &&
                expected != r.fingerprint)
                mismatches.fetch_add(1);
        }
        if (root.active()) {
            // The server stamps service time from inside submit(); queue
            // wait opens it and kernel execution closes it.
            const std::int64_t end = t0 + to_ns(r.service_seconds);
            const std::uint64_t service =
                trace::add_server_span("server.service", t0, end);
            trace::add_server_span("server.queue", t0,
                                   t0 + to_ns(r.queue_seconds), service);
            if (r.execute_seconds > 0)
                trace::add_server_span("server.execute",
                                       end - to_ns(r.execute_seconds), end,
                                       service);
        }
        return;
      }
      case OpKind::kMutate: {
        const Mutation m = env.stream->mutation(slot);
        trace::Scope root("bench.mutate", record);
        const auto outcome = [&] {
            trace::Scope span("dyn.mutate", record);
            return server.mutate(m.graph, m.batch);
        }();
        if (!outcome.is_ok())
            break;
        log.dirty_fractions.push_back(outcome->dirty_fraction);
        if (outcome->inserted_arcs > 0 || outcome->deleted_arcs > 0) {
            ++log.changed;
            log.incremental += (outcome->cc_incremental ? 1 : 0) +
                               (outcome->pr_incremental ? 1 : 0);
        }
        log.compactions += outcome->compacted ? 1 : 0;
        log.deleted_arcs += static_cast<std::uint64_t>(outcome->deleted_arcs);
        const std::int64_t end = Timer::now_ns();
        trace::add_server_span("server.mutate",
                               end - to_ns(outcome->mutate_seconds), end);
        return;
      }
      case OpKind::kPlan: {
        const gm::serve::PlanRequest req = env.stream->plan(slot);
        trace::Scope root("bench.plan", record);
        const auto result = [&] {
            trace::Scope span("plan.run_plan", record);
            return server.run_plan(req);
        }();
        if (!result.is_ok())
            break;
        ++log.plans;
        log.plan_nodes += result->nodes.size();
        log.plan_executed += static_cast<std::uint64_t>(result->executed);
        log.plan_hits += static_cast<std::uint64_t>(result->cache_hits);
        log.plan_shared += static_cast<std::uint64_t>(result->shared);
        log.sources_fused += static_cast<std::uint64_t>(result->sources_fused);
        const std::int64_t end = Timer::now_ns();
        trace::add_server_span("server.plan",
                               end - to_ns(result->service_seconds), end);
        return;
      }
    }
    ++log.failed;
}

/** Closed loop: kClients threads claim stream slots from one counter
 *  until @p seconds have passed and serve-mixed has sent its floor of
 *  mutations and plans. */
ServePhase
drive(Env& env, Workload workload, double seconds, bool traced,
      std::atomic<std::uint64_t>& mismatches)
{
    ServePhase phase;
    const std::size_t population = env.stream->population().size();
    for (int c = 0; c < kClients; ++c)
        phase.logs.emplace_back(population);
    const bool fixed_graphs = workload != Workload::kServeMixed;
    std::vector<std::atomic<std::uint64_t>> fingerprints(
        fixed_graphs ? population : 0);
    const std::uint64_t stride =
        workload == Workload::kServeHot ? kHotTraceStride : 1;

    const gm::serve::ServerStats before = env.server->stats_snapshot();
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> mutations{0};
    std::atomic<std::uint64_t> plans{0};
    const auto floors_met = [&] {
        return fixed_graphs || (mutations.load() >= kMinMutations &&
                                plans.load() >= kMinPlans);
    };
    const std::int64_t start = Timer::now_ns();
    const std::int64_t deadline = start + to_ns(seconds);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ClientLog& log = phase.logs[static_cast<std::size_t>(c)];
            while (Timer::now_ns() < deadline || !floors_met()) {
                const std::uint64_t slot = next.fetch_add(1);
                const Op op = env.stream->at(slot);
                if (op.kind == OpKind::kMutate)
                    mutations.fetch_add(1);
                else if (op.kind == OpKind::kPlan)
                    plans.fetch_add(1);
                send(env, slot, op, traced && slot % stride == 0, log,
                     fixed_graphs ? &fingerprints : nullptr, mismatches);
            }
        });
    }
    for (auto& client : clients)
        client.join();
    phase.wall_s = since(start);
    const gm::serve::ServerStats after = env.server->stats_snapshot();
    phase.executions = after.executions - before.executions;
    phase.lanes_granted = after.lanes_granted - before.lanes_granted;
    for (const auto& fp : fingerprints)
        phase.fingerprints.push_back(fp.load());
    return phase;
}

/** Per-query reference: the served answer must equal a direct call. */
struct Reference
{
    double kernel_s = 0; ///< direct framework call at width 1
    std::uint64_t fingerprint = 0;
};

/** Call the GAP framework directly for @p req on one lane, the width the
 *  server gives these requests. */
Reference
reference(const Env& env, const Request& req)
{
    const gm::harness::Dataset& ds = dataset(env.suite, req.graph);
    Reference ref;
    trace::Scope root("bench.reference");
    gm::serve::ResultValue value;
    {
        gm::par::LaneLease lease(1);
        const std::int64_t t0 = Timer::now_ns();
        trace::Scope span("harness.framework_call");
        value = call_framework(env.gap(), ds, req);
        ref.kernel_s = since(t0);
    }
    trace::Scope span("serve.fingerprint");
    ref.fingerprint = gm::serve::result_fingerprint(value);
    return ref;
}

/** A serve workload's timed phase plus its correctness checks. */
struct ServeRun
{
    ServePhase phase;
    /** Direct-call reference per population entry (kernel_s = 0: the
     *  entry was not checked). */
    std::vector<Reference> refs;
};

/** serve-hot and serve-cold: every distinct query served must equal a
 *  direct framework call on the same (unchanged) graph. */
void
check_fixed(const Env& env, ServeRun& run, Result& result)
{
    const auto& population = env.stream->population();
    for (std::size_t i = 0; i < population.size(); ++i) {
        if (run.phase.fingerprints[i] == 0)
            continue;
        run.refs[i] = reference(env, population[i]);
        ++result.attempted;
        if (run.refs[i].fingerprint != run.phase.fingerprints[i])
            fail(result, "served answer differs from a direct call for " +
                             gm::harness::to_string(population[i].kernel) +
                             " on " + population[i].graph + " from " +
                             std::to_string(population[i].source));
    }
}

/**
 * serve-mixed: once the clients have stopped, a seeded sample of queries
 * is served again and compared with direct calls on the final
 * generation, and plans of every shape are compared node by node with
 * plan::execute.
 */
void
check_mixed(const Env& env, std::uint64_t seed, ServeRun& run,
            Result& result)
{
    Server& server = *env.server;
    const auto& population = env.stream->population();
    gm::Xoshiro256 rng(seed ^ 0x636865636bULL);
    std::vector<bool> picked(population.size(), false);
    const int queries =
        std::min<int>(kRecheckQueries, static_cast<int>(population.size()));
    for (int n = 0; n < queries;) {
        const std::size_t i = rng.next_bounded(population.size());
        if (picked[i])
            continue;
        picked[i] = true;
        ++n;
        ++result.attempted;
        const auto served = server.query(population[i]);
        run.refs[i] = reference(env, population[i]);
        if (!served.is_ok() ||
            served->fingerprint != run.refs[i].fingerprint)
            fail(result, "re-check: served answer differs from a direct "
                         "call for " +
                             gm::harness::to_string(population[i].kernel) +
                             " on " + population[i].graph);
    }

    int found[3] = {0, 0, 0};
    for (std::uint64_t slot = 0;
         slot < 1'000'000 && std::min({found[0], found[1], found[2]}) <
                                 kRecheckPlansPerShape;
         ++slot) {
        if (env.stream->at(slot).kind != OpKind::kPlan)
            continue;
        const int shape = env.stream->plan_shape(slot);
        if (found[shape] >= kRecheckPlansPerShape)
            continue;
        ++found[shape];
        ++result.attempted;
        const gm::serve::PlanRequest req = env.stream->plan(slot);
        const auto served = server.run_plan(req);
        gm::plan::Context ctx;
        ctx.dataset = &dataset(env.suite, req.graph);
        ctx.framework = &env.gap();
        const auto serial = [&] {
            trace::Scope span("plan.execute");
            return gm::plan::execute(req.plan, ctx);
        }();
        bool same = served.is_ok() && serial.is_ok() &&
                    served->nodes.size() == serial->size();
        for (std::size_t n = 0; same && n < serial->size(); ++n)
            same = served->nodes[n].fingerprint ==
                   gm::serve::result_fingerprint((*serial)[n]);
        if (!same)
            fail(result, "re-check: plan of shape " + std::to_string(shape) +
                             " on " + req.graph +
                             " differs from plan::execute");
    }
}

ServeRun
run_serve(Env& env, const Options& options, bool traced, Result& result)
{
    ServeRun run;
    std::atomic<std::uint64_t> mismatches{0};
    run.phase =
        drive(env, options.workload, options.seconds, traced, mismatches);
    for (const ClientLog& log : run.phase.logs) {
        result.attempted += log.attempted;
        result.failed += log.failed;
    }
    if (mismatches.load() > 0)
        fail(result, std::to_string(mismatches.load()) +
                         " served answers differ between repeats of one "
                         "query");
    run.refs.resize(env.stream->population().size());
    if (options.workload == Workload::kServeMixed)
        check_mixed(env, options.seed, run, result);
    else
        check_fixed(env, run, result);
    return run;
}

LatencyHistogram
merged_latency(const ServePhase& phase)
{
    LatencyHistogram all;
    for (const ClientLog& log : phase.logs)
        all.merge(log.latency);
    return all;
}

/** Serve workloads: throughput and latency of the point queries.
 *  Mutations and plans weigh on them through the server they share. */
void
serve_e2e(const ServeRun& run, Result& result,
          std::map<std::string, double>& values)
{
    const LatencyHistogram latency = merged_latency(run.phase);
    values["ops_per_s"] =
        ratio(static_cast<double>(latency.count()), run.phase.wall_s);
    values["p50_ms"] = latency.percentile(50, "p50_ms", result) * 1e3;
    values["p99_ms"] = latency.percentile(99, "p99_ms", result) * 1e3;
}

/**
 * Serve workloads' <k>_ms: each kernel called directly through the GAP
 * framework at width 1, the width the server runs it at, on the graphs as
 * the timed phase left them.  Each graph's source is its highest-degree
 * vertex, so the time depends on the graph and not on which sources a
 * seed drew.  kBareRounds rounds each call every (kernel, graph) once;
 * the best round per cell filters out interference from the host, and the
 * geomean over the graphs gives the kernel's time.  Timed apart from the
 * served requests because a served kernel's latency mixes cache hits and
 * misses in proportions the timing of the mutations sets.
 */
void
bare_kernel_e2e(const Env& env, std::map<std::string, double>& values)
{
    std::vector<gm::vid_t> hubs;
    for (const auto& ds : env.suite.datasets) {
        const gm::graph::CSRGraph& g = ds->g();
        gm::vid_t hub = 0;
        for (gm::vid_t v = 1; v < g.num_vertices(); ++v) {
            if (g.out_degree(v) > g.out_degree(hub))
                hub = v;
        }
        hubs.push_back(hub);
    }
    std::map<std::pair<Kernel, std::size_t>, double> best;
    for (int round = 0; round < kBareRounds; ++round) {
        for (std::size_t d = 0; d < env.suite.size(); ++d) {
            const gm::harness::Dataset& ds = env.suite[d];
            for (Kernel kernel : kAllKernels) {
                Request req;
                req.kernel = kernel;
                req.graph = ds.name;
                req.source = hubs[d];
                gm::par::LaneLease lease(1);
                const std::int64_t t0 = Timer::now_ns();
                call_framework(env.gap(), ds, req);
                const double seconds = since(t0);
                const auto [it, fresh] =
                    best.emplace(std::make_pair(kernel, d), seconds);
                if (!fresh)
                    it->second = std::min(it->second, seconds);
            }
        }
    }
    std::map<Kernel, std::vector<double>> per_graph;
    for (const auto& [key, seconds] : best)
        per_graph[key.first].push_back(seconds);
    for (Kernel kernel : kAllKernels)
        values[kernel_name(kernel) + "_ms"] =
            geomean(per_graph[kernel]) * 1e3;
}

/** Span durations and self times by name. */
struct SpanTable
{
    std::map<std::string, std::vector<double>> seconds;
    std::map<std::string, std::vector<double>> self_seconds;

    explicit SpanTable(const std::vector<trace::Record>& records)
    {
        for (const trace::Record& r : records) {
            seconds[r.name].push_back(r.seconds());
            self_seconds[r.name].push_back(r.self_seconds);
        }
    }

    std::vector<double>
    of(const std::string& name) const
    {
        const auto it = seconds.find(name);
        return it == seconds.end() ? std::vector<double>{} : it->second;
    }

    std::vector<double>
    self_of(const std::string& name) const
    {
        const auto it = self_seconds.find(name);
        return it == self_seconds.end() ? std::vector<double>{}
                                        : it->second;
    }

    double
    total(const std::string& name) const
    {
        double sum = 0;
        for (double s : of(name))
            sum += s;
        return sum;
    }
};

/** Per-layer values of a traced serve run. */
void
serve_layers(const ServeRun& run, const SpanTable& spans, Result& result,
             std::map<std::string, double>& v)
{
    // Percentile p of the durations (with self, the self times) of the
    // spans named span, in scale units per second.
    const auto pct = [&](const std::string& metric, const std::string& span,
                         double p, double scale, bool self = false) {
        v[metric] = percentile(self ? spans.self_of(span) : spans.of(span),
                               p, metric, result) *
                    scale;
    };
    pct("serve.submit_us_p50", "serve.submit", 50, 1e6);
    pct("serve.submit_us_p99", "serve.submit", 99, 1e6);
    pct("serve.queue_ms_p50", "server.queue", 50, 1e3);
    pct("serve.queue_ms_p99", "server.queue", 99, 1e3);
    pct("serve.execute_ms_p50", "server.execute", 50, 1e3);
    pct("serve.execute_ms_p99", "server.execute", 99, 1e3);
    pct("serve.unattributed_ms_p50", "server.service", 50, 1e3, true);
    pct("serve.unattributed_ms_p99", "server.service", 99, 1e3, true);
    pct("serve.fingerprint_ms_p50", "serve.fingerprint", 50, 1e3);
    pct("serve.bare_kernel_ms_p50", "harness.framework_call", 50, 1e3);
    pct("dyn.call_ms_p50", "dyn.mutate", 50, 1e3);
    pct("dyn.call_ms_p95", "dyn.mutate", 95, 1e3);
    pct("dyn.server_ms_p50", "server.mutate", 50, 1e3);
    pct("plan.call_ms_p50", "plan.run_plan", 50, 1e3);
    pct("plan.call_ms_p95", "plan.run_plan", 95, 1e3);
    pct("plan.service_ms_p50", "server.plan", 50, 1e3);
    pct("plan.serial_ms_p50", "plan.execute", 50, 1e3);

    LatencyHistogram handoff;
    ClientLog all(run.refs.size());
    for (const ClientLog& log : run.phase.logs) {
        handoff.merge(log.handoff);
        for (std::size_t i = 0; i < run.refs.size(); ++i) {
            all.entry_seconds[i] += log.entry_seconds[i];
            all.entry_count[i] += log.entry_count[i];
        }
        all.hits += log.hits;
        all.joins += log.joins;
        all.leaders += log.leaders;
        all.dirty_fractions.insert(all.dirty_fractions.end(),
                                   log.dirty_fractions.begin(),
                                   log.dirty_fractions.end());
        all.changed += log.changed;
        all.incremental += log.incremental;
        all.compactions += log.compactions;
        all.deleted_arcs += log.deleted_arcs;
        all.plans += log.plans;
        all.plan_nodes += log.plan_nodes;
        all.plan_executed += log.plan_executed;
        all.plan_hits += log.plan_hits;
        all.plan_shared += log.plan_shared;
        all.sources_fused += log.sources_fused;
    }
    // Mean client latency of each checked query over its bare kernel time.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < run.refs.size(); ++i) {
        if (run.refs[i].kernel_s > 0 && all.entry_count[i] > 0)
            overhead.push_back(all.entry_seconds[i] /
                               static_cast<double>(all.entry_count[i]) /
                               run.refs[i].kernel_s);
    }
    const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
    const double queries = n(merged_latency(run.phase).count());
    v["serve.handoff_us_p50"] =
        handoff.percentile(50, "serve.handoff_us_p50", result) * 1e6;
    v["serve.hit_ratio"] = ratio(n(all.hits), queries);
    v["serve.join_ratio"] = ratio(n(all.joins), queries);
    v["serve.exec_ratio"] = ratio(n(all.leaders), queries);
    v["serve.overhead_ratio_p50"] =
        percentile(overhead, 50, "serve.overhead_ratio_p50", result);
    v["par.lanes_per_exec"] =
        ratio(n(run.phase.lanes_granted), n(run.phase.executions));

    v["dyn.incremental_ratio"] = ratio(n(all.incremental), 2 * n(all.changed));
    v["dyn.compactions"] = n(all.compactions);
    v["dyn.deleted_arcs"] = n(all.deleted_arcs);
    v["dyn.dirty_fraction_p50"] =
        percentile(all.dirty_fractions, 50, "dyn.dirty_fraction_p50", result);

    v["plan.nodes_executed_per_plan"] =
        ratio(n(all.plan_executed), n(all.plans));
    v["plan.node_hit_ratio"] = ratio(n(all.plan_hits), n(all.plan_nodes));
    v["plan.shared_per_plan"] = ratio(n(all.plan_shared), n(all.plans));
    v["plan.sources_fused"] = n(all.sources_fused);
}

// ------------------------------------------------------------ gap-suite

/** One run_cell call of the sweep. */
struct CellSample
{
    std::size_t framework = 0;
    Kernel kernel = Kernel::kBFS;
    std::size_t graph = 0;
    gm::harness::CellResult cell;
};

struct GapRun
{
    std::vector<CellSample> cells;
    std::vector<double> sweep_s;
};

/** Whole Baseline sweeps (6 frameworks x 6 kernels x 5 graphs, graph
 *  major like harness::run_suite) while another fits in the run, and
 *  until there are kMinTrials timed trials. */
GapRun
run_gap(const Env& env, const Options& options, bool traced, Result& result)
{
    gm::harness::RunOptions run_options;
    run_options.trials = 3;
    run_options.warmup = 1;
    run_options.verify = true;
    run_options.collect_metrics = traced;

    GapRun run;
    const std::int64_t start = Timer::now_ns();
    std::size_t trials = 0;
    do {
        const std::int64_t sweep_start = Timer::now_ns();
        for (std::size_t g = 0; g < env.suite.size(); ++g) {
            for (std::size_t f = 0; f < env.frameworks.size(); ++f) {
                for (Kernel kernel : kAllKernels) {
                    trace::Scope root("bench.cell");
                    CellSample sample{f, kernel, g, {}};
                    std::uint64_t cell_span = 0;
                    {
                        trace::Scope span("harness.run_cell");
                        cell_span = span.id();
                        sample.cell = gm::harness::run_cell(
                            env.suite[g], env.frameworks[f], kernel,
                            gm::harness::Mode::kBaseline, run_options);
                    }
                    if (root.active()) {
                        // Timed trials as reported by the harness, laid
                        // end to end at the close of their run_cell span.
                        std::int64_t end = Timer::now_ns();
                        for (double s : sample.cell.trial_seconds) {
                            trace::add_server_span("harness.trial",
                                                   end - to_ns(s), end,
                                                   cell_span);
                            end -= to_ns(s);
                        }
                    }
                    ++result.attempted;
                    if (!sample.cell.completed() || !sample.cell.verified)
                        fail(result,
                             env.frameworks[f].name + " " +
                                 gm::harness::to_string(kernel) + " on " +
                                 env.suite[g].name + ": " +
                                 gm::harness::to_string(
                                     sample.cell.failure) +
                                 " " + sample.cell.failure_message);
                    trials += sample.cell.trial_seconds.size();
                    run.cells.push_back(std::move(sample));
                }
            }
        }
        run.sweep_s.push_back(since(sweep_start));
    } while (since(start) + run.sweep_s.back() <= options.seconds ||
             trials < kMinTrials);
    return run;
}

/**
 * Time of each (framework, kernel, graph) cell.  Timed trial t starts from
 * benchmark source t in every sweep, so each trial is first reduced to its
 * best over the sweeps (the robust estimator on a shared machine) and the
 * cell's time is the median over its trials: one source that reaches
 * little of the graph does not set it.
 */
std::map<std::tuple<std::size_t, Kernel, std::size_t>, double>
cell_seconds(const GapRun& run)
{
    std::map<std::tuple<std::size_t, Kernel, std::size_t>,
             std::vector<double>>
        best;
    for (const CellSample& s : run.cells) {
        auto& trials = best[{s.framework, s.kernel, s.graph}];
        const auto& seconds = s.cell.trial_seconds;
        trials.resize(std::max(trials.size(), seconds.size()), HUGE_VAL);
        for (std::size_t t = 0; t < seconds.size(); ++t)
            trials[t] = std::min(trials[t], seconds[t]);
    }
    std::map<std::tuple<std::size_t, Kernel, std::size_t>, double> cells;
    for (const auto& [key, trials] : best)
        cells[key] = gm::stats::median_of(trials);
    return cells;
}

/** gap-suite: one operation is one kernel execution.  ops_per_s is cells
 *  over their summed cell times, p50/p99 are over every timed trial, and
 *  each kernel's time is the geomean over its 30 cells of the cell time. */
void
gap_e2e(const GapRun& run, Result& result,
        std::map<std::string, double>& values)
{
    std::map<Kernel, std::vector<double>> of_kernel;
    double total = 0;
    double cells = 0;
    for (const auto& [key, seconds] : cell_seconds(run)) {
        of_kernel[std::get<1>(key)].push_back(seconds);
        total += seconds;
        ++cells;
    }
    std::vector<double> trials;
    for (const CellSample& s : run.cells)
        trials.insert(trials.end(), s.cell.trial_seconds.begin(),
                      s.cell.trial_seconds.end());
    values["ops_per_s"] = ratio(cells, total);
    values["p50_ms"] = percentile(trials, 50, "p50_ms", result) * 1e3;
    values["p99_ms"] = percentile(trials, 99, "p99_ms", result) * 1e3;
    for (Kernel kernel : kAllKernels)
        values[kernel_name(kernel) + "_ms"] =
            geomean(of_kernel[kernel]) * 1e3;
}

void
gap_layers(const Env& env, const GapRun& run, const SpanTable& spans,
           std::map<std::string, double>& v)
{
    // Cell times per (framework, kernel), and per-cell edge rates per
    // kernel.
    std::map<std::pair<std::size_t, Kernel>, std::vector<double>> times;
    std::map<Kernel, std::vector<double>> mteps;
    for (const auto& [key, m] : cell_seconds(run)) {
        const auto [f, kernel, g] = key;
        times[{f, kernel}].push_back(m);
        mteps[kernel].push_back(
            ratio(static_cast<double>(env.suite[g].g().num_edges()), m) *
            1e-6);
    }
    std::map<std::size_t, double> pr_iters;
    std::map<Kernel, std::vector<double>> efficiency;
    double attempts = 0, trials = 0;
    for (const CellSample& s : run.cells) {
        attempts += s.cell.attempts;
        trials += s.cell.trials;
        efficiency[s.kernel].push_back(s.cell.metrics.parallel_efficiency);
    }
    // PageRank iterations of the last sweep, summed over the graphs.
    const std::size_t per_sweep =
        env.frameworks.size() * std::size(kAllKernels) * env.suite.size();
    for (std::size_t i = run.cells.size() - per_sweep; i < run.cells.size();
         ++i) {
        const CellSample& s = run.cells[i];
        if (s.kernel == Kernel::kPR)
            pr_iters[s.framework] += static_cast<double>(
                s.cell.metrics.counter_or("iterations"));
    }

    for (std::size_t f = 0; f < env.frameworks.size(); ++f) {
        const std::string fw = lower(env.frameworks[f].name);
        for (Kernel kernel : kAllKernels)
            v["kernel." + fw + "." + kernel_name(kernel) + "_ms"] =
                geomean(times[{f, kernel}]) * 1e3;
        v["kernel." + fw + ".pr_iters"] = pr_iters[f];
    }
    for (Kernel kernel : kAllKernels) {
        const std::string k = kernel_name(kernel);
        v["kernel." + k + ".mteps"] = geomean(mteps[kernel]);
        double sum = 0;
        for (double e : efficiency[kernel])
            sum += e;
        v["par." + k + ".efficiency"] =
            ratio(sum, static_cast<double>(efficiency[kernel].size()));
    }
    double overhead = 0;
    for (double s : spans.self_of("harness.run_cell"))
        overhead += s;
    v["harness.overhead_s"] = overhead;
    v["harness.attempts_per_trial"] = ratio(attempts, trials);
    v["harness.sweep_s"] = gm::stats::median_of(run.sweep_s);
}

// ---------------------------------------------------------- measurement

/** Layers every workload goes through: suite generation and the store. */
void
common_layers(const Env& env, const SpanTable& spans,
              std::map<std::string, double>& v)
{
    v["graph.generate_s"] = spans.total("graph.make_gap_suite");
    for (const char* form :
         {"weighted", "undirected", "relabeled", "grb", "grb_weighted"})
        v[std::string("store.") + form + "_s"] =
            spans.total(std::string("store.") + form);
    double bytes = 0;
    for (const auto& ds : env.suite.datasets)
        bytes += static_cast<double>(ds->store()->bytes_high_water());
    v["store.bytes_peak_mb"] = bytes / (1 << 20);
}

/** Write the spans recorded so far and read them back with self times. */
SpanTable
dump_trace(const Options& options, Result& result)
{
    if (const std::size_t lost = trace::dropped(); lost > 0)
        std::cerr << "gapbench: trace buffers full, " << lost
                  << " operations not recorded\n";
    std::vector<trace::Record> records;
    if (auto s = trace::write_jsonl(options.trace_path); !s.is_ok()) {
        fail(result, s.to_string());
    } else if (auto read = trace::read_jsonl(options.trace_path);
               !read.is_ok()) {
        fail(result, "trace file does not read back: " +
                         read.status().to_string());
    } else {
        records = *std::move(read);
    }
    return SpanTable(records);
}

/** Timed phase and checks of one set-up; end-to-end values always, and
 *  the per-layer values when @p traced. */
void
measure(Env& env, const Options& options, bool traced, Result& result,
        std::map<std::string, double>& e2e,
        std::map<std::string, double>& layers)
{
    if (options.workload == Workload::kGapSuite) {
        const GapRun run = run_gap(env, options, traced, result);
        e2e["peak_rss_mb"] = peak_rss_mb();
        gap_e2e(run, result, e2e);
        if (traced) {
            const SpanTable spans = dump_trace(options, result);
            gap_layers(env, run, spans, layers);
            common_layers(env, spans, layers);
        }
        return;
    }
    const ServeRun run = run_serve(env, options, traced, result);
    e2e["peak_rss_mb"] = peak_rss_mb();
    serve_e2e(run, result, e2e);
    bare_kernel_e2e(env, e2e);
    if (traced) {
        const SpanTable spans = dump_trace(options, result);
        serve_layers(run, spans, result, layers);
        common_layers(env, spans, layers);
    }
}

std::vector<MetricSpec>
make_end_to_end_metrics()
{
    std::vector<MetricSpec> m = {
        {"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"ops_per_s", "1/s"},
        {"p50_ms", "ms"}, {"p99_ms", "ms"},
    };
    for (Kernel kernel : kAllKernels)
        m.push_back({kernel_name(kernel) + "_ms", "ms"});
    return m;
}

std::vector<MetricSpec>
make_per_layer_metrics()
{
    std::vector<MetricSpec> m = {{"graph.generate_s", "s"}};
    for (const char* form :
         {"weighted", "undirected", "relabeled", "grb", "grb_weighted"})
        m.push_back({std::string("store.") + form + "_s", "s"});
    m.push_back({"store.bytes_peak_mb", "MiB"});
    m.push_back({"harness.sweep_s", "s"});
    m.push_back({"harness.overhead_s", "s"});
    m.push_back({"harness.attempts_per_trial", "ratio"});
    for (const auto& fw : gm::harness::make_frameworks()) {
        for (Kernel kernel : kAllKernels)
            m.push_back({"kernel." + lower(fw.name) + "." +
                             kernel_name(kernel) + "_ms",
                         "ms"});
    }
    for (Kernel kernel : kAllKernels)
        m.push_back({"kernel." + kernel_name(kernel) + ".mteps", "Medges/s"});
    for (const auto& fw : gm::harness::make_frameworks())
        m.push_back({"kernel." + lower(fw.name) + ".pr_iters", "count"});
    for (Kernel kernel : kAllKernels)
        m.push_back({"par." + kernel_name(kernel) + ".efficiency", "ratio"});
    m.push_back({"par.lanes_per_exec", "ratio"});
    const std::vector<MetricSpec> rest = {
        {"serve.submit_us_p50", "us"},
        {"serve.submit_us_p99", "us"},
        {"serve.handoff_us_p50", "us"},
        {"serve.queue_ms_p50", "ms"},
        {"serve.queue_ms_p99", "ms"},
        {"serve.execute_ms_p50", "ms"},
        {"serve.execute_ms_p99", "ms"},
        {"serve.unattributed_ms_p50", "ms"},
        {"serve.unattributed_ms_p99", "ms"},
        {"serve.hit_ratio", "ratio"},
        {"serve.join_ratio", "ratio"},
        {"serve.exec_ratio", "ratio"},
        {"serve.fingerprint_ms_p50", "ms"},
        {"serve.bare_kernel_ms_p50", "ms"},
        {"serve.overhead_ratio_p50", "ratio"},
        {"dyn.call_ms_p50", "ms"},
        {"dyn.call_ms_p95", "ms"},
        {"dyn.server_ms_p50", "ms"},
        {"dyn.incremental_ratio", "ratio"},
        {"dyn.compactions", "count"},
        {"dyn.deleted_arcs", "count"},
        {"dyn.dirty_fraction_p50", "ratio"},
        {"plan.call_ms_p50", "ms"},
        {"plan.call_ms_p95", "ms"},
        {"plan.service_ms_p50", "ms"},
        {"plan.serial_ms_p50", "ms"},
        {"plan.nodes_executed_per_plan", "ratio"},
        {"plan.node_hit_ratio", "ratio"},
        {"plan.shared_per_plan", "ratio"},
        {"plan.sources_fused", "count"},
        {"trace.overhead_pct", "%"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

} // namespace

const std::vector<MetricSpec>&
end_to_end_metrics()
{
    static const std::vector<MetricSpec> metrics = make_end_to_end_metrics();
    return metrics;
}

const std::vector<MetricSpec>&
per_layer_metrics()
{
    static const std::vector<MetricSpec> metrics = make_per_layer_metrics();
    return metrics;
}

Result
run(const Options& options)
{
    Result result;
    const int scale =
        options.scale > 0 ? options.scale : default_scale(options.workload);
    std::map<std::string, double> e2e;
    std::map<std::string, double> layers;
    if (!options.trace) {
        std::vector<double> setups;
        std::unique_ptr<Env> env;
        for (int i = 0; i < kSetups; ++i) {
            env.reset();
            const std::int64_t start = Timer::now_ns();
            env = set_up(options, scale, result);
            setups.push_back(since(start));
        }
        measure(*env, options, false, result, e2e, layers);
        env.reset();
        e2e["setup_s"] = gm::stats::median_of(setups);
        result.values = std::move(e2e);
        return result;
    }

    // Traced: the same phase untraced and then traced, each on a fresh
    // set-up, so the trace covers set-up too and the two throughputs give
    // the tracing overhead.
    {
        auto env = set_up(options, scale, result);
        measure(*env, options, false, result, e2e, layers);
    }
    trace::enable(kSpansPerThread);
    {
        const auto env = set_up(options, scale, result);
        std::map<std::string, double> traced_e2e;
        measure(*env, options, true, result, traced_e2e, layers);
        layers["trace.overhead_pct"] =
            (1 - ratio(traced_e2e["ops_per_s"], e2e["ops_per_s"])) * 100;
    }
    trace::reset();
    for (const MetricSpec& spec : per_layer_metrics())
        layers.emplace(spec.name, 0.0);
    result.values = std::move(layers);
    return result;
}

} // namespace gapbench

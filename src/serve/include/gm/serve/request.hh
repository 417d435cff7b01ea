/**
 * @file
 * Typed requests and results for the gm::serve query service.
 *
 * A Request names a cell of the benchmark cube (framework x kernel x
 * graph x mode) plus the per-query inputs (source vertex, deadline); the
 * server resolves it against its DatasetSuite and framework registry and
 * answers with a QueryResult.  Result payloads are immutable and shared:
 * a cache hit and the execution that produced it hand out the same
 * heap-owned value, so serving N readers costs one kernel run and zero
 * copies.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "gm/harness/framework.hh"
#include "gm/plan/value.hh"
#include "gm/support/types.hh"

namespace gm::serve
{

/**
 * Admission priority class.  Classes are quota'd independently (a
 * best-effort flood cannot fill the queue slots reserved for interactive
 * traffic) and drained strict-priority: interactive before batch before
 * best-effort, FIFO within a class.
 */
enum class Priority
{
    kInteractive = 0, ///< latency-sensitive; largest quota, drained first
    kBatch = 1,       ///< throughput traffic; middle quota
    kBestEffort = 2,  ///< shed-first traffic; smallest quota
};

/** Number of priority classes (array dimension for quotas/stats). */
inline constexpr int kPriorityClasses = 3;

/** Short stable name ("interactive", "batch", "best_effort"). */
const char* to_string(Priority priority);

/** One graph query.  Defaults describe "BFS from vertex 0 on GAP". */
struct Request
{
    /** Framework display name or lowercase alias ("GAP", "gkc", ...). */
    std::string framework = "GAP";
    harness::Kernel kernel = harness::Kernel::kBFS;
    /** Dataset name within the server's suite ("Road", "Kron", ...). */
    std::string graph;
    harness::Mode mode = harness::Mode::kBaseline;
    /** Source vertex for BFS/SSSP/BC; ignored (and normalized to 0 in the
     *  cache key) for CC/PR/TC. */
    vid_t source = 0;
    /** Wall-clock budget measured from submit(), covering queue wait and
     *  execution.  0 disables the deadline. */
    int deadline_ms = 0;
    /** Admission class; see Priority. */
    Priority priority = Priority::kInteractive;
    /**
     * Execution width: how many parallel lanes the kernel may use.
     * Clamped at submit to [1, the server's lane budget].  Width changes
     * latency only, never the answer — kernels are order-deterministic,
     * so the payload (and its fingerprint, and the cache key) is
     * bit-identical at any width.
     */
    int width = 1;
    /**
     * Request-scoped trace id.  0 (the default) tells the server to mint
     * one at submit; query() mints once before its first attempt and
     * reuses the id across retries, so every JSONL record and trace
     * session for one logical query carries the same id.  Excluded from
     * the cache key (identity of the answer, not of the asker).
     */
    std::uint64_t trace_id = 0;
    /** 1-based attempt number stamped by query()'s retry loop (callers
     *  submitting directly may leave it; submit() normalizes 0 to 1). */
    int attempt = 1;
    /**
     * Degraded-mode opt-in: when the request cannot be served fresh —
     * shed at admission, fast-failed by an open circuit breaker, or
     * failed/expired during execution — answer from a cached result for
     * the same cell if one exists (even one past its TTL), marked
     * QueryResult::degraded.  The fallback never masks INVALID_INPUT or a
     * caller-initiated cancel.
     */
    bool allow_stale = false;
};

/**
 * Kernel result payloads.  BFS parents, SSSP distances, and CC labels
 * share the int32 alternative (vid_t and weight_t are both int32_t, and
 * std::variant forbids duplicate alternatives); PR/BC scores share the
 * double vector; TC is a bare triangle count; the uint64 vector carries
 * plan-node histogram counts.  Aliased to gm::plan's Value so plan
 * intermediates, query answers, and cache entries are one type and move
 * between layers without copies (the original three alternatives keep
 * their indices, so pre-plan fingerprints and byte accounting are
 * unchanged).
 */
using ResultValue = plan::Value;

/** Heap bytes a cached copy of @p value occupies (payload, not variant). */
std::size_t result_bytes(const ResultValue& value);

/**
 * FNV-1a digest over the alternative index and raw payload bytes.  Two
 * results fingerprint equal iff they are bit-identical, which is what the
 * acceptance tests compare against direct framework execution.
 */
std::uint64_t result_fingerprint(const ResultValue& value);

/** A completed query: the shared payload plus serving metadata. */
struct QueryResult
{
    /** Immutable payload, shared with the cache and concurrent readers. */
    std::shared_ptr<const ResultValue> value;
    /** result_fingerprint() of *value. */
    std::uint64_t fingerprint = 0;
    /** Answered from the result cache without executing. */
    bool cache_hit = false;
    /** Answered by joining another in-flight identical query
     *  (single-flight follower; counts neither as a hit nor a run). */
    bool shared_execution = false;
    /** Served stale from the cache because the fresh path was shed, the
     *  cell's breaker was open, or execution failed (allow_stale only).
     *  The payload may predate the latest data; counted separately in
     *  ServerStats::degraded. */
    bool degraded = false;
    /** Time spent in the admission queue before a worker picked it up. */
    double queue_seconds = 0;
    /** Kernel execution time; 0 for cache hits and followers. */
    double execute_seconds = 0;
    /** Lanes actually granted to this execution (may be fewer than the
     *  requested width under contention); 0 when no kernel ran (cache
     *  hit, follower, degraded). */
    int lanes = 0;
    /** Lane busy time / (lanes x execute time) for the execution that
     *  produced this result; 0 when no kernel ran. */
    double parallel_efficiency = 0;
    /** Total submit()-to-completion latency as stamped by the server
     *  (covers queue wait, execution or join wait, and cache lookups). */
    double service_seconds = 0;
    /** The request's trace id (minted at submit when the caller left it
     *  0); matches the "trace" field of this query's JSONL records. */
    std::uint64_t trace_id = 0;
    /** Data generation of the graph this answer was computed against
     *  (bumped by each Server::mutate install).  For degraded answers it
     *  may lag the store's current generation — that is what "stale"
     *  means once a graph mutates. */
    std::uint64_t generation = 0;
};

} // namespace gm::serve

/**
 * @file
 * Span recording for traced gapbench runs.
 *
 * The benchmark wraps every call it makes into a layer of the library in a
 * Scope: name, start, end, parent span and operation id (all spans of one
 * operation share it).  Durations the server reports about a request
 * (queue wait, kernel execution) are added as children tagged
 * source=server.  Spans go into per-thread buffers sized when tracing is
 * enabled, so recording never allocates; once a buffer is nearly full,
 * new operations are counted and not recorded, so every recorded
 * operation is whole.  write_jsonl() dumps every buffer after the run and
 * read_jsonl() loads the file back with each span's self time.
 *
 * With tracing off a Scope is one branch on a global flag.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gm/support/status.hh"

namespace gapbench::trace
{

/** Start recording; each thread may buffer up to @p per_thread spans. */
void enable(std::size_t per_thread);

/** Stop recording and discard every buffered span. */
void reset();

/** RAII span around one call.  The innermost open Scope of the thread is
 *  its parent; a Scope with no parent opens a new operation. */
class Scope
{
  public:
    /** @param record false records nothing; operations are sampled by
     *  passing the same flag to every Scope of the operation. */
    explicit Scope(const char* name, bool record = true);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    bool active() const { return active_; }
    /** Span id (0 when inactive). */
    std::uint64_t id() const { return id_; }

  private:
    friend std::uint64_t add_server_span(const char*, std::int64_t,
                                         std::int64_t, std::uint64_t);

    const char* name_;
    bool active_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t op_ = 0;
    std::int64_t start_ns_ = 0;
    Scope* parent_ = nullptr;
};

/**
 * Record a duration the program reported (tagged source=server) as a
 * child of span @p parent, or of the thread's innermost open Scope when
 * @p parent is 0.  The span joins that Scope's operation.  Only its length
 * is measured: callers place it inside its parent.  Returns the new span
 * id; 0 (nothing recorded) when the thread has no open Scope.
 */
std::uint64_t add_server_span(const char* name, std::int64_t start_ns,
                              std::int64_t end_ns, std::uint64_t parent = 0);

/** Operations not recorded because a thread's buffer was full. */
std::size_t dropped();

/** Write every buffered span as one JSON object per line. */
gm::support::Status write_jsonl(const std::string& path);

/** One span read back from a trace file. */
struct Record
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for the root span of an operation
    std::uint64_t op = 0;
    std::string name;
    bool server = false;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Duration minus the part of it covered by child spans. */
    double self_seconds = 0;

    double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/** Parse a trace file, check that every parent exists and shares its
 *  child's operation id, and compute self times. */
gm::support::StatusOr<std::vector<Record>>
read_jsonl(const std::string& path);

} // namespace gapbench::trace

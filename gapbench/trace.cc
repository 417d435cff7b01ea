#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "gm/support/json.hh"
#include "gm/support/timer.hh"

namespace gapbench::trace
{

using gm::support::Status;
using gm::support::StatusCode;

namespace
{

struct RawSpan
{
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
    const char* name;
    bool server;
};

struct Buffer
{
    std::vector<RawSpan> spans;
    std::size_t dropped = 0; ///< operations not recorded
};

/** Free spans a buffer must have for a new operation to be recorded, so
 *  an operation is kept whole or not at all. */
constexpr std::size_t kOpHeadroom = 256;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu; ///< guards g_buffers and g_capacity
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::size_t g_capacity = 0;
/** Bumped by reset(), which runs only while no thread records. */
std::atomic<std::uint64_t> g_epoch{1};

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_epoch = 0;
thread_local Scope* t_current = nullptr;

/** This thread's buffer for the current epoch; reset() retires the old
 *  ones, so a stale pointer is never written through. */
Buffer&
local_buffer()
{
    const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
    if (t_buffer != nullptr && t_epoch == epoch)
        return *t_buffer;
    std::lock_guard<std::mutex> lock(g_mu);
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(g_capacity);
    t_buffer = buffer.get();
    t_epoch = epoch;
    g_buffers.push_back(std::move(buffer));
    return *t_buffer;
}

void
record(const RawSpan& span)
{
    Buffer& buffer = local_buffer();
    if (buffer.spans.size() < buffer.spans.capacity())
        buffer.spans.push_back(span);
}

} // namespace

void
enable(std::size_t per_thread)
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_capacity = per_thread;
    g_on.store(true);
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_on.store(false);
    g_buffers.clear();
    g_epoch.fetch_add(1);
}

Scope::Scope(const char* name, bool record_it) : name_(name)
{
    if (!record_it || !g_on.load(std::memory_order_relaxed))
        return;
    parent_ = t_current;
    if (parent_ == nullptr) {
        Buffer& buffer = local_buffer();
        if (buffer.spans.capacity() - buffer.spans.size() < kOpHeadroom) {
            ++buffer.dropped;
            return;
        }
    }
    active_ = true;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    op_ = parent_ != nullptr ? parent_->op_ : id_;
    t_current = this;
    start_ns_ = gm::Timer::now_ns();
}

Scope::~Scope()
{
    if (!active_)
        return;
    const std::int64_t end = gm::Timer::now_ns();
    t_current = parent_;
    record({id_, parent_ != nullptr ? parent_->id_ : 0, op_, start_ns_, end,
            name_, false});
}

std::uint64_t
add_server_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t parent)
{
    const Scope* scope = t_current;
    if (scope == nullptr)
        return 0;
    const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    record({id, parent != 0 ? parent : scope->id_, scope->op_, start_ns,
            end_ns, name, true});
    return id;
}

std::size_t
dropped()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::size_t total = 0;
    for (const auto& buffer : g_buffers)
        total += buffer->dropped;
    return total;
}

Status
write_jsonl(const std::string& path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return Status(StatusCode::kInvalidInput,
                      "cannot open trace file " + path);
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& buffer : g_buffers) {
        for (const RawSpan& s : buffer->spans) {
            out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
                << ",\"op\":" << s.op << ",\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << ",\"source\":\""
                << (s.server ? "server" : "bench") << "\"}\n";
        }
    }
    out.flush();
    if (!out)
        return Status(StatusCode::kInvalidInput,
                      "write error on trace file " + path);
    return Status::ok();
}

gm::support::StatusOr<std::vector<Record>>
read_jsonl(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return Status(StatusCode::kInvalidInput,
                      "cannot open trace file " + path);
    std::vector<Record> records;
    std::string line;
    while (std::getline(in, line)) {
        std::map<std::string, std::string> f;
        if (Status s = gm::support::parse_flat_json(line, f); !s.is_ok())
            return s;
        Record r;
        try {
            r.id = std::stoull(f.at("id"));
            r.parent = std::stoull(f.at("parent"));
            r.op = std::stoull(f.at("op"));
            r.name = f.at("name");
            r.start_ns = std::stoll(f.at("start_ns"));
            r.end_ns = std::stoll(f.at("end_ns"));
            r.server = f.at("source") == "server";
        } catch (const std::exception&) {
            return Status(StatusCode::kCorruptData,
                          "malformed trace line: " + line);
        }
        if (r.end_ns < r.start_ns)
            return Status(StatusCode::kCorruptData,
                          "span ends before it starts: " + line);
        records.push_back(std::move(r));
    }

    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < records.size(); ++i)
        index[records[i].id] = i;
    std::vector<std::vector<std::size_t>> children(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record& r = records[i];
        if (r.parent == 0) {
            if (r.op != r.id)
                return Status(StatusCode::kCorruptData,
                              "root span " + std::to_string(r.id) +
                                  " does not open its own operation");
            continue;
        }
        const auto it = index.find(r.parent);
        if (it == index.end())
            return Status(StatusCode::kCorruptData,
                          "span " + std::to_string(r.id) +
                              " has a missing parent");
        if (records[it->second].op != r.op)
            return Status(StatusCode::kCorruptData,
                          "span " + std::to_string(r.id) +
                              " is in another operation than its parent");
        children[it->second].push_back(i);
    }

    // Self time: the parent's interval minus the union of its children's
    // intervals clipped to it.
    for (std::size_t i = 0; i < records.size(); ++i) {
        Record& r = records[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (std::size_t c : children[i]) {
            const std::int64_t lo = std::max(records[c].start_ns, r.start_ns);
            const std::int64_t hi = std::min(records[c].end_ns, r.end_ns);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = r.start_ns;
        for (const auto& [lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        r.self_seconds = static_cast<double>(r.end_ns - r.start_ns -
                                             covered) * 1e-9;
    }
    return records;
}

} // namespace gapbench::trace

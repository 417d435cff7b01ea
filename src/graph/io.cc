#include "gm/graph/io.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "gm/support/hash.hh"
#include "gm/support/log.hh"

namespace gm::graph
{

namespace
{

using support::StatusCode;

/** v2 magic ("GMGRH2"); v1 files (no version/checksum) used 0x474d475248. */
constexpr std::uint64_t kMagic = 0x32484752474d47ULL;
constexpr std::uint64_t kLegacyMagic = 0x474d475248ULL;
constexpr std::uint32_t kVersion = 2;

/** The .gmg trailing checksum is a plain FNV-1a digest. */
class Checksum
{
  public:
    void update(const void* data, std::size_t size)
    {
        fnv_.update(data, size);
    }

    std::uint64_t value() const { return fnv_.digest(); }

  private:
    support::Fnv1a fnv_;
};

template <typename T>
void
write_vec(std::ofstream& out, const std::vector<T>& v, Checksum& crc)
{
    const std::uint64_t size = v.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(size * sizeof(T)));
    crc.update(&size, sizeof(size));
    crc.update(v.data(), size * sizeof(T));
}

/** Read a length-prefixed array, bounding the allocation by the bytes
 *  actually left in the file so a corrupt size field cannot OOM. */
template <typename T>
Status
read_vec(std::ifstream& in, std::uint64_t bytes_left, const std::string& path,
         Checksum& crc, std::vector<T>* out)
{
    std::uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in) {
        return Status(StatusCode::kCorruptData,
                      "truncated array header in " + path);
    }
    if (bytes_left < sizeof(size) ||
        size > (bytes_left - sizeof(size)) / sizeof(T)) {
        return Status(StatusCode::kCorruptData,
                      "array size " + std::to_string(size) +
                          " exceeds remaining file bytes in " + path);
    }
    out->resize(size);
    in.read(reinterpret_cast<char*>(out->data()),
            static_cast<std::streamsize>(size * sizeof(T)));
    if (!in) {
        return Status(StatusCode::kCorruptData,
                      "truncated array payload in " + path);
    }
    crc.update(&size, sizeof(size));
    crc.update(out->data(), size * sizeof(T));
    return Status::ok();
}

/** Validate one CSR direction: offsets monotonic from 0 to |dests|,
 *  destinations in [0, n). */
Status
validate_csr(vid_t n, const std::vector<eid_t>& offsets,
             const std::vector<vid_t>& dests, const std::string& path)
{
    if (offsets.size() != static_cast<std::size_t>(n) + 1 ||
        offsets.front() != 0 ||
        offsets.back() != static_cast<eid_t>(dests.size())) {
        return Status(StatusCode::kCorruptData,
                      "CSR offset array inconsistent in " + path);
    }
    for (std::size_t i = 1; i < offsets.size(); ++i) {
        if (offsets[i] < offsets[i - 1]) {
            return Status(StatusCode::kCorruptData,
                          "CSR offsets not monotonic in " + path);
        }
    }
    for (vid_t d : dests) {
        if (d < 0 || d >= n) {
            return Status(StatusCode::kCorruptData,
                          "CSR destination out of range in " + path);
        }
    }
    return Status::ok();
}

/** Validate a directed file's in-arrays as the transpose of its
 *  out-arrays: in-row v holds exactly the u whose out-row holds v.  Rows
 *  compare as multisets; a sorted row (what the builder and save_binary
 *  produce) is checked in one pass without sorting.  Both directions
 *  must already have passed validate_csr. */
Status
validate_transpose(vid_t n, const std::vector<eid_t>& out_off,
                   const std::vector<vid_t>& out_nbr,
                   const std::vector<eid_t>& in_off,
                   const std::vector<vid_t>& in_nbr, const std::string& path)
{
    const auto bad = [&path] {
        return Status(StatusCode::kCorruptData,
                      "CSR in-arrays are not the transpose of the "
                      "out-arrays in " +
                          path);
    };
    if (in_nbr.size() != out_nbr.size())
        return bad();
    // Scatter sources in ascending order: every expected in-row comes out
    // sorted.  With equal totals, no row overflowing means every row is
    // filled exactly.
    std::vector<eid_t> cursor(in_off.begin(), in_off.end() - 1);
    std::vector<vid_t> expected(in_nbr.size());
    for (vid_t u = 0; u < n; ++u) {
        for (eid_t e = out_off[static_cast<std::size_t>(u)];
             e < out_off[static_cast<std::size_t>(u) + 1]; ++e) {
            const auto v = static_cast<std::size_t>(
                out_nbr[static_cast<std::size_t>(e)]);
            if (cursor[v] == in_off[v + 1])
                return bad();
            expected[static_cast<std::size_t>(cursor[v]++)] = u;
        }
    }
    std::vector<vid_t> row;
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
        const auto lo = in_nbr.begin() + in_off[v];
        const auto hi = in_nbr.begin() + in_off[v + 1];
        const auto want = expected.begin() + in_off[v];
        if (std::equal(lo, hi, want))
            continue;
        row.assign(lo, hi);
        std::sort(row.begin(), row.end());
        if (!std::equal(row.begin(), row.end(), want))
            return bad();
    }
    return Status::ok();
}

/**
 * Shared line-oriented edge-list parser.
 *
 * @param fields  2 for "u v", 3 for "u v w".
 * @param emit    emit(u, v, w) for each parsed edge (w is 0 when 2 fields).
 */
template <typename Emit>
Status
parse_edge_lines(const std::string& path, int fields, Emit emit)
{
    std::ifstream in(path);
    if (!in) {
        return Status(StatusCode::kInvalidInput,
                      "cannot open edge list: " + path);
    }
    std::string line;
    for (std::int64_t line_no = 1; std::getline(in, line); ++line_no) {
        const auto bad = [&](const std::string& what) {
            return Status(StatusCode::kInvalidInput,
                          path + ":" + std::to_string(line_no) + ": " +
                              what);
        };
        const char* cursor = line.c_str();
        while (*cursor == ' ' || *cursor == '\t')
            ++cursor;
        if (*cursor == '\0' || *cursor == '#')
            continue; // blank line or comment

        long long id[2] = {0, 0};
        for (int f = 0; f < 2; ++f) {
            char* end = nullptr;
            errno = 0;
            id[f] = std::strtoll(cursor, &end, 10);
            if (end == cursor)
                return bad("expected a vertex id");
            if (errno == ERANGE ||
                id[f] > std::numeric_limits<vid_t>::max()) {
                return bad("vertex id overflows 32 bits");
            }
            if (id[f] < 0)
                return bad("negative vertex id");
            cursor = end;
        }
        double weight = 0;
        if (fields == 3) {
            char* end = nullptr;
            errno = 0;
            weight = std::strtod(cursor, &end);
            if (end == cursor)
                return bad("expected an edge weight");
            if (std::isnan(weight))
                return bad("NaN edge weight");
            if (weight < 0)
                return bad("negative edge weight");
            if (errno == ERANGE ||
                weight > static_cast<double>(
                             std::numeric_limits<weight_t>::max())) {
                return bad("edge weight overflows");
            }
            cursor = end;
        }
        while (*cursor == ' ' || *cursor == '\t')
            ++cursor;
        if (*cursor != '\0' && *cursor != '#')
            return bad(std::string("trailing garbage: '") + cursor + "'");
        emit(static_cast<vid_t>(id[0]), static_cast<vid_t>(id[1]),
             static_cast<weight_t>(weight));
    }
    return Status::ok();
}

} // namespace

StatusOr<EdgeList>
read_edge_list(const std::string& path, vid_t* num_vertices)
{
    EdgeList edges;
    vid_t max_id = -1;
    const Status status =
        parse_edge_lines(path, 2, [&](vid_t u, vid_t v, weight_t) {
            edges.push_back({u, v});
            max_id = std::max({max_id, u, v});
        });
    if (!status.is_ok())
        return status;
    if (num_vertices != nullptr)
        *num_vertices = max_id + 1;
    return edges;
}

StatusOr<WEdgeList>
read_weighted_edge_list(const std::string& path, vid_t* num_vertices)
{
    WEdgeList edges;
    vid_t max_id = -1;
    const Status status =
        parse_edge_lines(path, 3, [&](vid_t u, vid_t v, weight_t w) {
            edges.push_back({u, v, w});
            max_id = std::max({max_id, u, v});
        });
    if (!status.is_ok())
        return status;
    if (num_vertices != nullptr)
        *num_vertices = max_id + 1;
    return edges;
}

Status
write_edge_list(const CSRGraph& graph, const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "cannot write edge list: " + path);
    }
    for (vid_t v = 0; v < graph.num_vertices(); ++v)
        for (vid_t u : graph.out_neigh(v))
            out << v << " " << u << "\n";
    out.flush();
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "write failed for edge list: " + path);
    }
    return Status::ok();
}

Status
save_binary(const CSRGraph& graph, const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "cannot write binary graph: " + path);
    }
    Checksum crc;
    out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
    const std::int64_t n = graph.num_vertices();
    const std::int8_t directed = graph.is_directed() ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&directed), sizeof(directed));
    crc.update(&n, sizeof(n));
    crc.update(&directed, sizeof(directed));
    write_vec(out, graph.out_offsets(), crc);
    write_vec(out, graph.out_destinations(), crc);
    if (graph.is_directed()) {
        write_vec(out, graph.in_offsets(), crc);
        write_vec(out, graph.in_destinations(), crc);
    }
    const std::uint64_t checksum = crc.value();
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.flush();
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "write failed for binary graph: " + path);
    }
    return Status::ok();
}

StatusOr<CSRGraph>
load_binary(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return Status(StatusCode::kInvalidInput,
                      "cannot open binary graph: " + path);
    }
    in.seekg(0, std::ios::end);
    const std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
    in.seekg(0, std::ios::beg);

    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!in || magic != kMagic) {
        if (magic == kLegacyMagic) {
            return Status(StatusCode::kCorruptData,
                          "legacy v1 .gmg file (no checksum): " + path +
                              "; regenerate with tools/converter");
        }
        return Status(StatusCode::kCorruptData,
                      "bad magic in binary graph: " + path);
    }
    if (version != kVersion) {
        return Status(StatusCode::kCorruptData,
                      "unsupported .gmg version " + std::to_string(version) +
                          " in " + path);
    }

    Checksum crc;
    std::int64_t n = 0;
    std::int8_t directed = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    in.read(reinterpret_cast<char*>(&directed), sizeof(directed));
    if (!in) {
        return Status(StatusCode::kCorruptData,
                      "truncated header in " + path);
    }
    if (n < 0 || n > std::numeric_limits<vid_t>::max()) {
        return Status(StatusCode::kCorruptData,
                      "vertex count out of range in " + path);
    }
    if (directed != 0 && directed != 1) {
        return Status(StatusCode::kCorruptData,
                      "bad directedness flag in " + path);
    }
    crc.update(&n, sizeof(n));
    crc.update(&directed, sizeof(directed));

    auto bytes_left = [&]() -> std::uint64_t {
        const std::int64_t pos = static_cast<std::int64_t>(in.tellg());
        // Reserve the trailing checksum's bytes: payload may not use them.
        const std::int64_t left =
            file_size - pos - static_cast<std::int64_t>(sizeof(std::uint64_t));
        return left > 0 ? static_cast<std::uint64_t>(left) : 0;
    };

    std::vector<eid_t> out_off;
    std::vector<vid_t> out_nbr;
    std::vector<eid_t> in_off;
    std::vector<vid_t> in_nbr;
    Status status = read_vec(in, bytes_left(), path, crc, &out_off);
    if (status.is_ok())
        status = read_vec(in, bytes_left(), path, crc, &out_nbr);
    if (status.is_ok() && directed != 0) {
        status = read_vec(in, bytes_left(), path, crc, &in_off);
        if (status.is_ok())
            status = read_vec(in, bytes_left(), path, crc, &in_nbr);
    }
    if (!status.is_ok())
        return status;

    std::uint64_t stored_checksum = 0;
    in.read(reinterpret_cast<char*>(&stored_checksum),
            sizeof(stored_checksum));
    if (!in) {
        return Status(StatusCode::kCorruptData,
                      "missing checksum in " + path);
    }
    if (stored_checksum != crc.value()) {
        return Status(StatusCode::kCorruptData,
                      "checksum mismatch in " + path);
    }

    const vid_t nv = static_cast<vid_t>(n);
    status = validate_csr(nv, out_off, out_nbr, path);
    if (status.is_ok() && directed != 0)
        status = validate_csr(nv, in_off, in_nbr, path);
    if (status.is_ok() && directed != 0)
        status = validate_transpose(nv, out_off, out_nbr, in_off, in_nbr,
                                    path);
    if (!status.is_ok())
        return status;

    if (directed != 0) {
        return CSRGraph(nv, true, std::move(out_off), std::move(out_nbr),
                        std::move(in_off), std::move(in_nbr));
    }
    return CSRGraph(nv, false, std::move(out_off), std::move(out_nbr));
}

} // namespace gm::graph

/**
 * @file
 * Offline profile reporting over the gm::obs artifacts a sweep leaves
 * behind:
 *
 *   profile_report --metrics sweep_metrics.jsonl
 *       Rebuild the per-graph x per-framework workload-characterization
 *       table (iterations, edges traversed, frontier peak, parallel
 *       efficiency, span time breakdown) from the per-trial JSONL stream.
 *
 *   profile_report --check-trace traces/
 *       Structurally validate every exported Chrome trace_event JSON file
 *       in a directory; exits nonzero on the first unparseable file (CI
 *       runs this after a --trace-out sweep).
 *
 *   profile_report --metrics sweep_metrics.jsonl --csv workload.csv
 *       Additionally export the workload table as machine-readable CSV
 *       (one row per mode x kernel x graph x framework cell).
 *
 * Multiple trials of one cell collapse to the last one seen, matching the
 * runner's "metrics of the last successful trial" convention.  Leading
 * {"kind":"fingerprint"} provenance records in the stream are skipped
 * silently.
 */
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gm/cli/argparse.hh"
#include "gm/obs/metrics.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/json.hh"

namespace
{

using gm::obs::MetricsRecord;
using gm::obs::TrialMetrics;

void
usage()
{
    std::cout
        << "Usage: profile_report [options]\n"
        << "  --metrics <file>     per-trial metrics JSONL (from\n"
        << "                       suite --metrics-out / kernel drivers)\n"
        << "  --check-trace <dir>  validate every .json Chrome trace in\n"
        << "                       <dir>; nonzero exit on parse failure\n"
        << "  --slo <file>         summarize a serve JSONL stream: phase\n"
        << "                       SLO table (serve.slo), mutation batches\n"
        << "                       (serve.mutation), query-plan executions\n"
        << "                       (serve.plan), burn-monitor transitions\n"
        << "                       (serve.slo.burn), refusals\n"
        << "                       (serve.refusal), and telemetry\n"
        << "                       snapshots (serve.telemetry)\n"
        << "  --csv <file>         also export the workload table as CSV\n"
        << "  --spans              include the span time breakdown\n"
        << "  -h, --help           this help\n";
}

/**
 * The "kind" discriminator of a JSONL record, or "" when the line does
 * not carry one.  String-level extraction on purpose: telemetry
 * snapshots nest objects, which the flat-JSON parser rejects, yet their
 * kind must still be recognizable.
 */
std::string
record_kind(const std::string& line)
{
    const std::string tag = "\"kind\":\"";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + tag.size();
    const std::size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

/** Field value from a flat record via parse_flat_json, or @p fallback. */
std::string
field_or(const std::map<std::string, std::string>& fields,
         const std::string& name, const std::string& fallback)
{
    auto it = fields.find(name);
    return it == fields.end() ? fallback : it->second;
}

/** Last-seen metrics per cell, plus how many trials fed it. */
struct CellProfile
{
    TrialMetrics metrics;
    int trials = 0;
};

using CellKey = std::tuple<std::string, std::string, std::string,
                           std::string>; ///< mode, kernel, graph, framework

std::string
format_count(std::uint64_t v)
{
    std::ostringstream os;
    if (v >= 10'000'000)
        os << v / 1'000'000 << "M";
    else if (v >= 10'000)
        os << v / 1'000 << "k";
    else
        os << v;
    return os.str();
}

/** CSV twin of the workload table: one row per cell, raw numbers (no
 *  human-friendly k/M suffixes) so downstream scripts can aggregate. */
int
write_workload_csv(const std::string& path,
                   const std::map<CellKey, CellProfile>& cells)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "cannot open csv file: " << path << "\n";
        return 2;
    }
    out << "mode,kernel,graph,framework,trials,iterations,"
           "edges_traversed,frontier_peak,parallel_efficiency,"
           "wall_seconds,peak_bytes\n";
    for (const auto& [key, cell] : cells) {
        const auto& [mode, kernel, graph, framework] = key;
        const TrialMetrics& m = cell.metrics;
        out << mode << "," << kernel << "," << graph << "," << framework
            << "," << cell.trials << "," << m.counter_or("iterations")
            << "," << m.counter_or("edges_traversed") << ","
            << m.counter_or("frontier_peak") << ","
            << gm::support::json_double(m.parallel_efficiency) << ","
            << gm::support::json_double(m.wall_seconds) << ","
            << m.peak_bytes << "\n";
    }
    out.flush();
    if (!out) {
        std::cerr << "write error: " << path << "\n";
        return 2;
    }
    std::cout << "workload csv written to " << path << " (" << cells.size()
              << " cells)\n";
    return 0;
}

int
report_metrics(const std::string& path, bool with_spans,
               const std::string& csv_path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open metrics file: " << path << "\n";
        return 2;
    }

    std::map<CellKey, CellProfile> cells;
    std::string line;
    int line_no = 0;
    int skipped = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        auto rec = gm::obs::parse_metrics_record_line(line);
        if (!rec.is_ok()) {
            // Typed side-records share the stream (fingerprint
            // provenance, serve.breaker transitions, serve.slo /
            // serve.slo.burn summaries, serve.refusal traces, nested
            // serve.telemetry snapshots): anything carrying a "kind"
            // discriminator is expected, not corruption.
            if (!record_kind(line).empty())
                continue;
            std::cerr << path << ":" << line_no
                      << ": skipping unreadable record ("
                      << rec.status().message() << ")\n";
            ++skipped;
            continue;
        }
        CellProfile& cell = cells[{rec->mode, rec->kernel, rec->graph,
                                   rec->framework}];
        cell.metrics = rec->metrics;
        ++cell.trials;
    }
    if (cells.empty()) {
        std::cerr << path << ": no readable metrics records\n";
        return 2;
    }

    // One workload block per (mode, kernel); rows are graph x framework.
    std::string block;
    for (const auto& [key, cell] : cells) {
        const auto& [mode, kernel, graph, framework] = key;
        const std::string this_block = mode + " / " + kernel;
        if (this_block != block) {
            block = this_block;
            std::cout << "\nWORKLOAD " << block << "\n";
            std::cout << std::left << std::setw(9) << "Graph"
                      << std::setw(13) << "Framework" << std::right
                      << std::setw(7) << "Trials" << std::setw(9) << "Iters"
                      << std::setw(10) << "Edges" << std::setw(10)
                      << "FrontPk" << std::setw(7) << "Eff" << std::setw(10)
                      << "Wall(s)" << std::setw(12) << "Peak(MiB)" << "\n";
        }
        const TrialMetrics& m = cell.metrics;
        std::cout << std::left << std::setw(9) << graph << std::setw(13)
                  << framework << std::right << std::setw(7) << cell.trials
                  << std::setw(9) << format_count(m.counter_or("iterations"))
                  << std::setw(10)
                  << format_count(m.counter_or("edges_traversed"))
                  << std::setw(10)
                  << format_count(m.counter_or("frontier_peak"))
                  << std::setw(7) << std::fixed << std::setprecision(2)
                  << m.parallel_efficiency << std::setw(10)
                  << std::setprecision(4) << m.wall_seconds << std::setw(12)
                  << std::setprecision(1)
                  << static_cast<double>(m.peak_bytes) / (1024.0 * 1024.0)
                  << "\n";
        if (with_spans) {
            for (const auto& [name, seconds] : m.span_seconds) {
                std::cout << "    span " << std::left << std::setw(24)
                          << name << std::right << std::fixed
                          << std::setprecision(6) << seconds << " s\n";
            }
        }
    }
    if (skipped > 0)
        std::cerr << "\n" << skipped << " unreadable record(s) skipped\n";
    if (!csv_path.empty())
        return write_workload_csv(csv_path, cells);
    return 0;
}

/**
 * Summarize a serve JSONL stream: one table row per serve.slo phase
 * record, a per-graph mutation table (serve.mutation batches from
 * Server::mutate; ms/op is the mean milliseconds per batch spent in the
 * whole call), a per-graph plan
 * table (serve.plan records from
 * Server::submit_plan), then burn-monitor transitions, refusal counts
 * by status code, and the telemetry snapshot envelope (count + last
 * sequence number).
 */
int
report_slo(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open slo file: " << path << "\n";
        return 2;
    }
    struct BurnEvent
    {
        std::string state;
        std::string t_ns;
        std::string burn_short;
        std::string fresh_availability_short;
    };
    /** Per-graph rollup of serve.mutation records. */
    struct MutationAgg
    {
        std::uint64_t batches = 0;
        std::uint64_t inserted_arcs = 0;
        std::uint64_t deleted_arcs = 0;
        std::uint64_t compactions = 0;
        std::uint64_t generation = 0; ///< highest seen
        double dirty_fraction_total = 0;
        double mutate_ms_total = 0;
    };
    /** Per-graph rollup of serve.plan records. */
    struct PlanAgg
    {
        std::uint64_t plans = 0;
        std::uint64_t ok = 0;
        std::uint64_t nodes = 0;
        std::uint64_t executed = 0;
        std::uint64_t cache_hits = 0;
        std::uint64_t shared = 0;
        std::uint64_t fused_sweeps = 0;
        std::uint64_t sources_fused = 0;
        std::uint64_t generation = 0; ///< highest seen
        double service_ms_total = 0;
    };
    std::vector<std::map<std::string, std::string>> phases;
    std::vector<BurnEvent> burns;
    std::map<std::string, MutationAgg> mutations;
    std::map<std::string, PlanAgg> plans;
    std::map<std::string, std::uint64_t> refusals_by_code;
    std::uint64_t snapshots = 0;
    std::string last_snapshot_seq;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::string kind = record_kind(line);
        if (kind == "serve.slo") {
            std::map<std::string, std::string> fields;
            if (gm::support::parse_flat_json(line, fields).is_ok())
                phases.push_back(std::move(fields));
        } else if (kind == "serve.slo.burn") {
            std::map<std::string, std::string> fields;
            if (gm::support::parse_flat_json(line, fields).is_ok())
                burns.push_back({field_or(fields, "state", "?"),
                                 field_or(fields, "t_ns", "0"),
                                 field_or(fields, "burn_short", "0"),
                                 field_or(fields,
                                          "fresh_availability_short",
                                          "1")});
        } else if (kind == "serve.mutation") {
            std::map<std::string, std::string> fields;
            if (gm::support::parse_flat_json(line, fields).is_ok()) {
                const auto u64 = [&fields](const std::string& name) {
                    return static_cast<std::uint64_t>(std::strtoull(
                        field_or(fields, name, "0").c_str(), nullptr, 10));
                };
                const auto dbl = [&fields](const std::string& name) {
                    return std::strtod(
                        field_or(fields, name, "0").c_str(), nullptr);
                };
                MutationAgg& m =
                    mutations[field_or(fields, "graph", "?")];
                ++m.batches;
                m.inserted_arcs += u64("inserted_arcs");
                m.deleted_arcs += u64("deleted_arcs");
                m.compactions += u64("compacted");
                m.generation = std::max(m.generation, u64("generation"));
                m.dirty_fraction_total += dbl("dirty_fraction");
                m.mutate_ms_total += dbl("mutate_ms");
            }
        } else if (kind == "serve.plan") {
            std::map<std::string, std::string> fields;
            if (gm::support::parse_flat_json(line, fields).is_ok()) {
                const auto u64 = [&fields](const std::string& name) {
                    return static_cast<std::uint64_t>(std::strtoull(
                        field_or(fields, name, "0").c_str(), nullptr, 10));
                };
                PlanAgg& p = plans[field_or(fields, "graph", "?")];
                ++p.plans;
                if (field_or(fields, "status", "?") == "ok")
                    ++p.ok;
                p.nodes += u64("nodes");
                p.executed += u64("executed");
                p.cache_hits += u64("cache_hits");
                p.shared += u64("shared");
                p.fused_sweeps += u64("fused_sweeps");
                p.sources_fused += u64("sources_fused");
                p.generation = std::max(p.generation, u64("generation"));
                p.service_ms_total += std::strtod(
                    field_or(fields, "service_ms", "0").c_str(), nullptr);
            }
        } else if (kind == "serve.refusal") {
            std::map<std::string, std::string> fields;
            if (gm::support::parse_flat_json(line, fields).is_ok())
                ++refusals_by_code[field_or(fields, "code", "?")];
        } else if (kind == "serve.telemetry") {
            ++snapshots;
            const std::string tag = "\"seq\":";
            const std::size_t at = line.find(tag);
            if (at != std::string::npos) {
                std::size_t end = at + tag.size();
                while (end < line.size() &&
                       std::isdigit(static_cast<unsigned char>(line[end])))
                    ++end;
                last_snapshot_seq =
                    line.substr(at + tag.size(), end - at - tag.size());
            }
        }
    }
    if (phases.empty() && burns.empty() && snapshots == 0 &&
        refusals_by_code.empty() && mutations.empty() && plans.empty()) {
        std::cerr << path << ": no serve.slo/serve.mutation/serve.plan/"
                     "serve.slo.burn/serve.refusal/serve.telemetry "
                     "records\n";
        return 2;
    }
    if (!phases.empty()) {
        std::cout << "SLO PHASES\n"
                  << std::left << std::setw(10) << "Phase" << std::right
                  << std::setw(8) << "Issued" << std::setw(8) << "OK"
                  << std::setw(10) << "Avail" << std::setw(10) << "Degr"
                  << std::setw(7) << "Shed" << std::setw(9) << "DlExc"
                  << std::setw(8) << "Failed" << std::setw(11)
                  << "Goodput/s" << "\n";
        // Availability/goodput arrive as full-precision JSON doubles;
        // re-round them so the columns stay columns.
        const auto fixed = [](const std::string& text, int places) {
            std::ostringstream out;
            out << std::fixed << std::setprecision(places)
                << std::strtod(text.c_str(), nullptr);
            return out.str();
        };
        for (const auto& p : phases) {
            std::cout << std::left << std::setw(10)
                      << field_or(p, "phase", "?") << std::right
                      << std::setw(8) << field_or(p, "issued", "0")
                      << std::setw(8) << field_or(p, "ok", "0")
                      << std::setw(10)
                      << fixed(field_or(p, "availability", "1"), 4)
                      << std::setw(10) << field_or(p, "degraded", "0")
                      << std::setw(7) << field_or(p, "shed", "0")
                      << std::setw(9)
                      << field_or(p, "deadline_exceeded", "0")
                      << std::setw(8) << field_or(p, "failed", "0")
                      << std::setw(11)
                      << fixed(field_or(p, "goodput_rps", "0"), 1)
                      << "\n";
        }
    }
    if (!mutations.empty()) {
        std::cout << "\nMUTATIONS\n"
                  << std::left << std::setw(10) << "Graph" << std::right
                  << std::setw(9) << "Batches" << std::setw(9) << "InsArcs"
                  << std::setw(9) << "DelArcs" << std::setw(9) << "Compact"
                  << std::setw(6) << "Gen" << std::setw(9) << "Dirty"
                  << std::setw(9) << "ms/op" << "\n";
        for (const auto& [graph, m] : mutations) {
            const double batches = static_cast<double>(m.batches);
            std::cout << std::left << std::setw(10) << graph << std::right
                      << std::setw(9) << m.batches << std::setw(9)
                      << m.inserted_arcs << std::setw(9) << m.deleted_arcs
                      << std::setw(9) << m.compactions << std::setw(6)
                      << m.generation << std::setw(9) << std::fixed
                      << std::setprecision(4)
                      << m.dirty_fraction_total / batches << std::setw(9)
                      << std::setprecision(3)
                      << m.mutate_ms_total / batches << "\n";
        }
    }
    if (!plans.empty()) {
        std::cout << "\nPLANS\n"
                  << std::left << std::setw(10) << "Graph" << std::right
                  << std::setw(7) << "Plans" << std::setw(6) << "OK"
                  << std::setw(7) << "Nodes" << std::setw(6) << "Exec"
                  << std::setw(6) << "Hits" << std::setw(8) << "Shared"
                  << std::setw(8) << "Sweeps" << std::setw(8) << "Fused"
                  << std::setw(6) << "Gen" << std::setw(9) << "ms/plan"
                  << "\n";
        for (const auto& [graph, p] : plans) {
            std::cout << std::left << std::setw(10) << graph << std::right
                      << std::setw(7) << p.plans << std::setw(6) << p.ok
                      << std::setw(7) << p.nodes << std::setw(6)
                      << p.executed << std::setw(6) << p.cache_hits
                      << std::setw(8) << p.shared << std::setw(8)
                      << p.fused_sweeps << std::setw(8) << p.sources_fused
                      << std::setw(6) << p.generation << std::setw(9)
                      << std::fixed << std::setprecision(3)
                      << p.service_ms_total / static_cast<double>(p.plans)
                      << "\n";
        }
    }
    if (!burns.empty()) {
        std::cout << "\nBURN TRANSITIONS\n";
        for (const BurnEvent& b : burns) {
            std::ostringstream burn, fresh;
            burn << std::fixed << std::setprecision(2)
                 << std::strtod(b.burn_short.c_str(), nullptr);
            fresh << std::fixed << std::setprecision(4)
                  << std::strtod(b.fresh_availability_short.c_str(),
                                 nullptr);
            std::cout << "  " << std::left << std::setw(7) << b.state
                      << " t_ns=" << b.t_ns << " burn_short="
                      << burn.str() << " fresh_availability_short="
                      << fresh.str() << "\n";
        }
    }
    if (!refusals_by_code.empty()) {
        std::cout << "\nREFUSALS\n";
        for (const auto& [code, count] : refusals_by_code)
            std::cout << "  " << std::left << std::setw(20) << code
                      << std::right << std::setw(8) << count << "\n";
    }
    if (snapshots > 0)
        std::cout << "\nTELEMETRY: " << snapshots
                  << " snapshot(s), last seq " << last_snapshot_seq
                  << "\n";
    return 0;
}

int
check_traces(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
        std::cerr << "cannot open trace directory: " << dir << " ("
                  << ec.message() << ")\n";
        return 2;
    }
    int checked = 0;
    int bad = 0;
    for (const auto& entry : it) {
        if (!entry.is_regular_file() || entry.path().extension() != ".json")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        if (!in) {
            std::cerr << entry.path().string() << ": read error\n";
            ++bad;
            continue;
        }
        ++checked;
        if (auto s = gm::support::json_validate(text.str()); !s.is_ok()) {
            std::cerr << entry.path().string() << ": " << s.to_string()
                      << "\n";
            ++bad;
        }
    }
    std::cout << checked << " trace file(s) checked, " << bad
              << " invalid\n";
    if (checked == 0) {
        std::cerr << dir << ": no .json trace files found\n";
        return 2;
    }
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string metrics_path;
    std::string trace_dir;
    std::string slo_path;
    std::string csv_path;
    bool with_spans = false;
    gm::cli::ArgParser parser("profile_report");
    parser.usage(usage);
    parser.value({"--metrics"}, &metrics_path);
    parser.value({"--check-trace"}, &trace_dir);
    parser.value({"--slo"}, &slo_path);
    parser.value({"--csv"}, &csv_path);
    parser.flag({"--spans"}, &with_spans);
    if (!parser.parse(argc, argv))
        return parser.help_requested() ? 0 : 1;
    if (metrics_path.empty() && trace_dir.empty() && slo_path.empty()) {
        usage();
        return 1;
    }
    if (!csv_path.empty() && metrics_path.empty()) {
        std::cerr << "--csv requires --metrics\n";
        return 1;
    }
    int code = 0;
    if (!trace_dir.empty())
        code = check_traces(trace_dir);
    if (code == 0 && !metrics_path.empty())
        code = report_metrics(metrics_path, with_spans, csv_path);
    if (code == 0 && !slo_path.empty())
        code = report_slo(slo_path);
    return code;
}

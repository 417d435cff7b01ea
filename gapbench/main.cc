/**
 * @file
 * gapbench — run one workload of the graphmark benchmark and print its
 * metrics.
 *
 *   gapbench --workload <gap-suite|serve-hot|serve-cold|serve-mixed>
 *            --seed <n> --seconds <s> [--trace <0|1>] [--scale <n>]
 *
 * Untraced runs print the end-to-end metrics, traced runs the per-layer
 * metrics and write the spans as JSONL next to the binary, to
 * trace-<workload>-<seed>.jsonl.  --scale (log2 vertices per graph)
 * shrinks the graphs for the smoke test.  Each metric is printed as
 * "name value unit", and the last line of standard output is one JSON
 * object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
 *
 * Exit codes: 0 all outputs correct, 1 a correctness check failed or a
 * percentile had too few samples, 2 usage.
 */
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "gm/support/json.hh"
#include "workloads.hh"

namespace
{

void
usage()
{
    std::cerr << "usage: gapbench --workload <gap-suite|serve-hot|"
                 "serve-cold|serve-mixed> --seed <n>\n"
                 "                --seconds <s> [--trace <0|1>] "
                 "[--scale <n>]\n";
}

bool
parse_u64(const std::string& text, std::uint64_t* out)
{
    if (text.empty() || text[0] == '-')
        return false;
    char* end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 10);
    return *end == '\0';
}

bool
parse_positive(const std::string& text, double* out)
{
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && std::isfinite(*out) && *out > 0;
}

/** trace-<workload>-<seed>.jsonl beside the running binary. */
std::string
default_trace_path(const gapbench::Options& options)
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    const std::filesystem::path dir =
        ec ? std::filesystem::current_path() : exe.parent_path();
    return (dir / ("trace-" + std::string(to_string(options.workload)) +
                   "-" + std::to_string(options.seed) + ".jsonl"))
        .string();
}

} // namespace

int
main(int argc, char** argv)
{
    // One pool lane per core of the 4-core reference host; set before the
    // process-wide pool is first used.
    setenv("GM_THREADS", "4", 1);

    gapbench::Options options;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        bool ok = true;
        if (flag == "--workload") {
            ok = have_workload =
                gapbench::parse_workload(value, &options.workload);
        } else if (flag == "--seed") {
            ok = have_seed = parse_u64(value, &options.seed);
        } else if (flag == "--seconds") {
            ok = have_seconds = parse_positive(value, &options.seconds);
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (flag == "--scale") {
            ok = parse_u64(value, &n) && n >= 6 && n <= 24;
            options.scale = static_cast<int>(n);
        } else {
            ok = false;
        }
        if (!ok) {
            std::cerr << "gapbench: bad " << flag << " " << value << "\n";
            usage();
            return 2;
        }
    }
    if (!have_workload || !have_seed || !have_seconds) {
        usage();
        return 2;
    }
    if (options.trace)
        options.trace_path = default_trace_path(options);

    gapbench::Result result = gapbench::run(options);

    const auto& specs = options.trace ? gapbench::per_layer_metrics()
                                      : gapbench::end_to_end_metrics();
    std::ostringstream json;
    json << "{\"correct\": ";
    std::ostringstream metrics;
    bool first = true;
    std::cout << to_string(options.workload) << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << "\n";
    for (const auto& spec : specs) {
        const auto it = result.values.find(spec.name);
        if (it == result.values.end() || !std::isfinite(it->second)) {
            result.errors.push_back("metric " + spec.name +
                                    " was not measured");
            continue;
        }
        std::cout << "  " << spec.name << " " << it->second << " "
                  << spec.unit << "\n";
        metrics << (first ? "" : ", ") << "\""
                << gm::support::json_escape(spec.name)
                << "\": {\"value\": " << gm::support::json_double(it->second)
                << ", \"unit\": \"" << gm::support::json_escape(spec.unit)
                << "\"}";
        first = false;
    }
    for (const std::string& error : result.errors)
        std::cerr << "gapbench: " << error << "\n";
    if (options.trace)
        std::cout << "  spans written to " << options.trace_path << "\n";
    json << (result.correct() ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {"
         << metrics.str() << "}}";
    std::cout << json.str() << std::endl;
    return result.correct() ? 0 : 1;
}

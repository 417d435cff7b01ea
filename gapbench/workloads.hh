/**
 * @file
 * The four gapbench workloads and the metrics they report.
 *
 * gap-suite runs the paper's Baseline sweep through harness::run_cell;
 * serve-hot, serve-cold and serve-mixed drive one gm::serve::Server from
 * four closed-loop client threads.  The benchmark only calls public entry
 * points and reads public result fields; every metric is measured around
 * those calls.  See README.md for what each workload exercises.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "streams.hh"

namespace gapbench
{

/** How one run is carried out. */
struct Options
{
    Workload workload = Workload::kGapSuite;
    std::uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 0;
    /** Traced run: report the per-layer metrics instead of the
     *  end-to-end ones, and write the spans to trace_path. */
    bool trace = false;
    std::string trace_path;
    /** log2 vertices per graph; 0 = the workload's default. */
    int scale = 0;
};

/** A metric name and its unit. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Metrics of an untraced run, in print order; each is measured on every
 *  workload. */
const std::vector<MetricSpec>& end_to_end_metrics();

/** Metrics of a traced run, in print order. */
const std::vector<MetricSpec>& per_layer_metrics();

/** What one run measured and checked. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed correctness check. */
    std::vector<std::string> errors;
    std::map<std::string, double> values;

    bool correct() const { return failed == 0 && errors.empty(); }
};

/** Run one workload end to end. */
Result run(const Options& options);

} // namespace gapbench

/** Fault-tolerance tests: corrupt input handling, the trial watchdog,
 *  deterministic fault injection through the harness, and crash-safe
 *  checkpoint / resume. */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "gm/galoislite/worklist.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/graph/io.hh"
#include "gm/harness/checkpoint.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/harness/tables.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/hash.hh"
#include "gm/support/status.hh"
#include "gm/support/watchdog.hh"

namespace gm
{
namespace
{

using support::FaultInjector;
using support::Status;
using support::StatusCode;

/** RAII guard so a test cannot leave the global injector armed. */
struct InjectorGuard
{
    ~InjectorGuard() { FaultInjector::global().clear(); }
};

/** Write raw bytes to a temp file and return its path. */
std::string
write_file(const std::string& name, const std::string& bytes)
{
    const std::string path = "/tmp/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

/** Read a file fully into a byte string. */
std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------- binary IO

TEST(BinaryIo, RejectsMissingFile)
{
    const auto g = graph::load_binary("/tmp/gm_no_such_file.gmg");
    ASSERT_FALSE(g.is_ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidInput);
}

TEST(BinaryIo, RejectsBadMagic)
{
    const std::string path =
        write_file("gm_badmagic.gmg", "this is not a graph file at all");
    const auto g = graph::load_binary(path);
    ASSERT_FALSE(g.is_ok());
    EXPECT_EQ(g.status().code(), StatusCode::kCorruptData);
    std::remove(path.c_str());
}

TEST(BinaryIo, RejectsTruncatedFile)
{
    const graph::CSRGraph g = graph::make_kronecker(8, 8, 3);
    const std::string path = "/tmp/gm_trunc.gmg";
    ASSERT_TRUE(graph::save_binary(g, path).is_ok());
    const std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 40u);
    // Chop the file at several points: header-only, mid-array, missing crc.
    for (const std::size_t keep :
         {std::size_t{12}, bytes.size() / 2, bytes.size() - 4}) {
        write_file("gm_trunc.gmg", bytes.substr(0, keep));
        const auto loaded = graph::load_binary(path);
        ASSERT_FALSE(loaded.is_ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptData);
    }
    std::remove(path.c_str());
}

TEST(BinaryIo, RejectsFlippedPayloadByte)
{
    const graph::CSRGraph g = graph::make_uniform(8, 8, 5);
    const std::string path = "/tmp/gm_flip.gmg";
    ASSERT_TRUE(graph::save_binary(g, path).is_ok());
    std::string bytes = slurp(path);
    // Flip a byte in the middle of the payload; the checksum must notice
    // even when the CSR arrays happen to stay structurally valid.
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
    write_file("gm_flip.gmg", bytes);
    const auto loaded = graph::load_binary(path);
    ASSERT_FALSE(loaded.is_ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptData);
    std::remove(path.c_str());
}

TEST(BinaryIo, RejectsHugeSizeFieldWithoutAllocating)
{
    const graph::CSRGraph g = graph::make_uniform(8, 8, 5);
    const std::string path = "/tmp/gm_huge.gmg";
    ASSERT_TRUE(graph::save_binary(g, path).is_ok());
    std::string bytes = slurp(path);
    // The first array length lives right after magic/version/n/directed
    // (8 + 4 + 4 + 4 = 20 bytes in).  Claim ~2^60 elements: a loader that
    // trusts it would try to allocate exabytes before reading anything.
    const std::uint64_t huge = 1ULL << 60;
    for (int i = 0; i < 8; ++i)
        bytes[20 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
    write_file("gm_huge.gmg", bytes);
    const auto loaded = graph::load_binary(path);
    ASSERT_FALSE(loaded.is_ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptData);
    std::remove(path.c_str());
}

TEST(BinaryIo, RejectsInRowsThatAreNotTheTranspose)
{
    const graph::CSRGraph g = graph::make_twitter_like(8, 8, 3);
    ASSERT_TRUE(g.is_directed());
    const std::string path = "/tmp/gm_transpose.gmg";
    ASSERT_TRUE(graph::save_binary(g, path).is_ok());
    std::string bytes = slurp(path);
    // The checksum is FNV-1a over everything between the 12-byte
    // magic+version header and the trailing 8-byte digest; rewriting it
    // leaves only the structural checks to catch an edit.
    const auto rewrite_checksum = [&bytes] {
        support::Fnv1a fnv;
        fnv.update(bytes.data() + 12, bytes.size() - 12 - 8);
        const std::uint64_t digest = fnv.digest();
        for (int i = 0; i < 8; ++i) {
            bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
                static_cast<char>((digest >> (8 * i)) & 0xff);
        }
    };
    rewrite_checksum();
    write_file("gm_transpose.gmg", bytes);
    ASSERT_TRUE(graph::load_binary(path).is_ok());

    // The last in-array entry sits right before the digest.  Point it at
    // another (in-range) source: offsets and ids stay valid, so only the
    // transpose check can tell.
    const std::size_t at = bytes.size() - 8 - sizeof(vid_t);
    vid_t source = 0;
    std::memcpy(&source, bytes.data() + at, sizeof(source));
    source = (source + 1) % g.num_vertices();
    std::memcpy(bytes.data() + at, &source, sizeof(source));
    rewrite_checksum();
    write_file("gm_transpose.gmg", bytes);
    const auto loaded = graph::load_binary(path);
    ASSERT_FALSE(loaded.is_ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(loaded.status().message().find("transpose"), std::string::npos)
        << loaded.status().to_string();
    std::remove(path.c_str());
}

// ------------------------------------------------------------ text parsing

TEST(TextIo, RejectsMalformedLinesWithLineNumbers)
{
    vid_t n = 0;
    struct Case
    {
        const char* text;
        const char* line_tag; ///< expected ":<line>:" in the message
    };
    for (const Case c : {
             Case{"0 1\nbananas\n", ":2:"},
             Case{"0 1\n2\n", ":2:"},            // missing endpoint
             Case{"0 -3\n", ":1:"},              // negative id
             Case{"0 99999999999999\n", ":1:"},  // id overflows int32
             Case{"0 1 extra\n", ":1:"},         // trailing garbage
         }) {
        const std::string path = write_file("gm_bad.el", c.text);
        const auto edges = graph::read_edge_list(path, &n);
        ASSERT_FALSE(edges.is_ok()) << c.text;
        EXPECT_EQ(edges.status().code(), StatusCode::kInvalidInput);
        EXPECT_NE(edges.status().message().find(c.line_tag),
                  std::string::npos)
            << edges.status().message();
        std::remove(path.c_str());
    }
}

TEST(TextIo, SkipsCommentsAndBlankLines)
{
    vid_t n = 0;
    const std::string path =
        write_file("gm_ok.el", "# comment\n\n0 1\n\n# more\n1 2\n");
    const auto edges = graph::read_edge_list(path, &n);
    ASSERT_TRUE(edges.is_ok()) << edges.status().to_string();
    EXPECT_EQ(edges->size(), 2u);
    EXPECT_EQ(n, 3);
    std::remove(path.c_str());
}

TEST(TextIo, RejectsBadWeights)
{
    vid_t n = 0;
    for (const char* text : {
             "0 1 nan\n",
             "0 1 -4\n",
             "0 1 1e300\n", // overflows weight_t
             "0 1\n",       // missing weight
         }) {
        const std::string path = write_file("gm_bad.wel", text);
        const auto edges = graph::read_weighted_edge_list(path, &n);
        ASSERT_FALSE(edges.is_ok()) << text;
        EXPECT_EQ(edges.status().code(), StatusCode::kInvalidInput);
        EXPECT_NE(edges.status().message().find(":1:"), std::string::npos)
            << edges.status().message();
        std::remove(path.c_str());
    }
}

// ------------------------------------------------------------------ builder

TEST(Builder, TryBuildRejectsOutOfRangeEndpoints)
{
    const graph::EdgeList edges = {{0, 1}, {1, 7}};
    const auto g = graph::try_build_graph(edges, 4, true);
    ASSERT_FALSE(g.is_ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidInput);
}

TEST(Builder, FaultSiteGraphBuildFires)
{
    InjectorGuard guard;
    ASSERT_TRUE(
        FaultInjector::global().configure("graph.build:1x:5").is_ok());
    const graph::EdgeList edges = {{0, 1}, {1, 2}};
    const auto g = graph::try_build_graph(edges, 3, false);
    ASSERT_FALSE(g.is_ok());
    EXPECT_EQ(g.status().code(), StatusCode::kFaultInjected);
    // The fault is consumed; the retry succeeds.
    const auto retry = graph::try_build_graph(edges, 3, false);
    EXPECT_TRUE(retry.is_ok()) << retry.status().to_string();
}

TEST(Worklist, FaultSiteWorklistFires)
{
    InjectorGuard guard;
    ASSERT_TRUE(FaultInjector::global().configure("worklist:1x:5").is_ok());
    const std::vector<int> initial = {1, 2, 3};
    const auto noop = [](const int&, galoislite::AsyncContext<int>&) {};
    EXPECT_THROW(galoislite::for_each_async<int>(initial, noop),
                 support::FaultInjectedError);
    // Consumed: a second drain completes normally.
    EXPECT_NO_THROW(galoislite::for_each_async<int>(initial, noop));
}

// ----------------------------------------------------------------- harness

harness::Dataset
tiny_dataset()
{
    return harness::make_dataset(
        "tiny", graph::make_uniform(8, 8, 21), /*num_sources=*/8,
        /*seed=*/9);
}

TEST(Runner, HangingKernelTripsWatchdog)
{
    const harness::Dataset ds = tiny_dataset();
    harness::Framework fw = harness::make_frameworks()[harness::kGapIndex];
    fw.name = "Hang";
    fw.bfs = [](const harness::Dataset&, vid_t,
                harness::Mode) -> std::vector<vid_t> {
        // Cooperative infinite loop: honours the watchdog's cancel flag.
        while (true) {
            support::check_cancelled();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    harness::RunOptions opts;
    opts.trials = 3;
    opts.verify = false;
    opts.trial_timeout_ms = 50;
    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kBFS, harness::Mode::kBaseline, opts);
    EXPECT_EQ(cell.failure, harness::FailureKind::kTimeout);
    EXPECT_FALSE(cell.completed());
    EXPECT_EQ(cell.trials, 0);
    // Timeouts are not retried and stop the cell after the first trial.
    EXPECT_EQ(cell.attempts, 1);
    EXPECT_FALSE(support::cancel_requested());
}

TEST(Runner, InjectedFaultRecoversViaRetry)
{
    InjectorGuard guard;
    ASSERT_TRUE(FaultInjector::global().configure("kernel:1x:7").is_ok());
    const harness::Dataset ds = tiny_dataset();
    const auto frameworks = harness::make_frameworks();
    harness::RunOptions opts;
    opts.trials = 2;
    opts.verify = true;
    opts.max_attempts = 2;
    opts.retry_backoff_ms = 0;
    const harness::CellResult cell = harness::run_cell(
        ds, frameworks[harness::kGapIndex], harness::Kernel::kBFS,
        harness::Mode::kBaseline, opts);
    EXPECT_TRUE(cell.completed()) << cell.failure_message;
    EXPECT_TRUE(cell.verified);
    EXPECT_EQ(cell.trials, 2);
    EXPECT_EQ(cell.attempts, 3); // one extra attempt for the injected fault
}

TEST(Runner, PersistentFaultBecomesDnf)
{
    InjectorGuard guard;
    ASSERT_TRUE(FaultInjector::global().configure("kernel:1:7").is_ok());
    const harness::Dataset ds = tiny_dataset();
    const auto frameworks = harness::make_frameworks();
    harness::RunOptions opts;
    opts.trials = 2;
    opts.verify = false;
    opts.max_attempts = 2;
    opts.retry_backoff_ms = 0;
    const harness::CellResult cell = harness::run_cell(
        ds, frameworks[harness::kGapIndex], harness::Kernel::kBFS,
        harness::Mode::kBaseline, opts);
    EXPECT_EQ(cell.failure, harness::FailureKind::kFaultInjected);
    EXPECT_FALSE(cell.completed());
    EXPECT_EQ(cell.trials, 0);
    EXPECT_EQ(cell.attempts, 2); // retried once, then gave up
}

TEST(Runner, PerFrameworkFaultSiteOnlyHitsThatFramework)
{
    InjectorGuard guard;
    ASSERT_TRUE(
        FaultInjector::global().configure("kernel.GKC:1:7").is_ok());
    const harness::Dataset ds = tiny_dataset();
    const auto frameworks = harness::make_frameworks();
    harness::RunOptions opts;
    opts.trials = 1;
    opts.verify = false;
    opts.retry_backoff_ms = 0;
    for (const auto& fw : frameworks) {
        const harness::CellResult cell =
            harness::run_cell(ds, fw, harness::Kernel::kPR,
                              harness::Mode::kBaseline, opts);
        if (fw.name == "GKC") {
            EXPECT_EQ(cell.failure, harness::FailureKind::kFaultInjected);
        } else {
            EXPECT_TRUE(cell.completed()) << fw.name;
        }
    }
}

// -------------------------------------------------------------- checkpoint

harness::CheckpointRecord
sample_record()
{
    harness::CheckpointRecord rec;
    rec.mode = "Baseline";
    rec.framework = "GAP";
    rec.kernel = "BFS";
    rec.graph = "Twit\"ter\n"; // exercise escaping
    rec.cell.best_seconds = 0.012345678901234567;
    rec.cell.avg_seconds = 0.023456789012345678;
    rec.cell.trials = 3;
    rec.cell.attempts = 4;
    rec.cell.verified = true;
    rec.cell.supported = true;
    rec.cell.failure = harness::FailureKind::kNone;
    return rec;
}

TEST(Checkpoint, LineRoundTripsExactly)
{
    const harness::CheckpointRecord rec = sample_record();
    const auto parsed =
        harness::parse_checkpoint_line(harness::checkpoint_line(rec));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed->mode, rec.mode);
    EXPECT_EQ(parsed->framework, rec.framework);
    EXPECT_EQ(parsed->kernel, rec.kernel);
    EXPECT_EQ(parsed->graph, rec.graph);
    // %.17g is exact for doubles: restored cells compare bit-identical.
    EXPECT_EQ(parsed->cell.best_seconds, rec.cell.best_seconds);
    EXPECT_EQ(parsed->cell.avg_seconds, rec.cell.avg_seconds);
    EXPECT_EQ(parsed->cell.trials, rec.cell.trials);
    EXPECT_EQ(parsed->cell.attempts, rec.cell.attempts);
    EXPECT_EQ(parsed->cell.verified, rec.cell.verified);
    EXPECT_EQ(parsed->cell.failure, rec.cell.failure);
}

TEST(Checkpoint, FailureKindSurvivesRoundTrip)
{
    harness::CheckpointRecord rec = sample_record();
    rec.cell.failure = harness::FailureKind::kTimeout;
    rec.cell.failure_message = "trial exceeded 50 ms deadline";
    rec.cell.verified = false;
    const auto parsed =
        harness::parse_checkpoint_line(harness::checkpoint_line(rec));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed->cell.failure, harness::FailureKind::kTimeout);
    EXPECT_EQ(parsed->cell.failure_message, rec.cell.failure_message);
}

TEST(Checkpoint, RejectsTornLines)
{
    const std::string whole =
        harness::checkpoint_line(sample_record());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, whole.size() / 2,
          whole.size() - 1}) {
        const auto parsed =
            harness::parse_checkpoint_line(whole.substr(0, keep));
        EXPECT_FALSE(parsed.is_ok()) << "kept " << keep << " chars";
    }
}

TEST(Checkpoint, LoadSkipsTornFinalLine)
{
    const std::string path = "/tmp/gm_ckpt.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        harness::append_checkpoint(out, sample_record());
        harness::CheckpointRecord second = sample_record();
        second.kernel = "SSSP";
        harness::append_checkpoint(out, second);
        // Simulate a crash mid-write: a torn third record, no newline.
        out << harness::checkpoint_line(sample_record()).substr(0, 25);
    }
    const auto records = harness::load_checkpoint(path);
    ASSERT_TRUE(records.is_ok()) << records.status().to_string();
    ASSERT_EQ(records->size(), 2u);
    EXPECT_EQ((*records)[1].kernel, "SSSP");
    std::remove(path.c_str());
}

TEST(Checkpoint, LoadMissingFileIsError)
{
    EXPECT_FALSE(
        harness::load_checkpoint("/tmp/gm_no_such_ckpt.jsonl").is_ok());
}

TEST(Checkpoint, ResumedSweepMatchesUninterruptedRun)
{
    const std::string path = "/tmp/gm_resume.jsonl";
    std::remove(path.c_str());

    harness::DatasetSuite suite;
    suite.datasets.push_back(
        std::make_shared<harness::Dataset>(tiny_dataset()));
    // Two frameworks keep the runtime small while still crossing cells.
    auto all = harness::make_frameworks();
    const std::vector<harness::Framework> frameworks = {all[0], all[1]};

    harness::RunOptions opts;
    opts.trials = 1;
    opts.verify = false;

    // Reference: one uninterrupted sweep, checkpointing as it goes.
    opts.checkpoint_path = path;
    const harness::ResultsCube reference = harness::run_suite(
        suite, frameworks, harness::Mode::kBaseline, opts);

    // "Crash" after the first framework: drop the second half of the file.
    auto records = harness::load_checkpoint(path);
    ASSERT_TRUE(records.is_ok());
    ASSERT_EQ(records->size(), 2 * std::size(harness::kAllKernels));
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < std::size(harness::kAllKernels); ++i)
            harness::append_checkpoint(out, (*records)[i]);
    }

    // Resume: restored cells must be bit-identical, missing cells rerun.
    opts.checkpoint_path.clear();
    opts.resume_path = path;
    const harness::ResultsCube resumed = harness::run_suite(
        suite, frameworks, harness::Mode::kBaseline, opts);

    for (harness::Kernel kernel : harness::kAllKernels) {
        const auto& ref = reference.at(0, kernel, 0);
        const auto& res = resumed.at(0, kernel, 0);
        // Framework 0 was restored from the checkpoint: exact match.
        EXPECT_EQ(res.best_seconds, ref.best_seconds)
            << harness::to_string(kernel);
        EXPECT_EQ(res.avg_seconds, ref.avg_seconds);
        EXPECT_EQ(res.trials, ref.trials);
        // Framework 1 reran; timings differ but the shape must hold.
        EXPECT_EQ(resumed.at(1, kernel, 0).trials, 1);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------------------ tables

TEST(Tables, DnfCellsRenderLabels)
{
    harness::ResultsCube cube;
    cube.framework_names = {"GAP", "Other"};
    cube.graph_names = {"G"};
    cube.cells.assign(
        2, std::vector<std::vector<harness::CellResult>>(
               std::size(harness::kAllKernels),
               std::vector<harness::CellResult>(1)));
    for (auto& per_kernel : cube.cells) {
        for (auto& per_graph : per_kernel) {
            per_graph[0].best_seconds = 0.5;
            per_graph[0].avg_seconds = 0.5;
            per_graph[0].trials = 1;
            per_graph[0].verified = true;
        }
    }
    // Other's BFS timed out; nobody finished SSSP.
    auto& timeout_cell = cube.cells[1][0][0];
    timeout_cell.failure = harness::FailureKind::kTimeout;
    timeout_cell.trials = 0;
    timeout_cell.verified = false;
    for (auto& per_kernel : cube.cells) {
        auto& sssp_cell = per_kernel[1][0];
        sssp_cell.failure = harness::FailureKind::kFaultInjected;
        sssp_cell.trials = 0;
        sssp_cell.verified = false;
    }

    std::ostringstream t4;
    harness::print_table4(t4, cube, cube);
    EXPECT_NE(t4.str().find("DNF"), std::string::npos);

    std::ostringstream t5;
    harness::print_table5(t5, cube, cube);
    EXPECT_NE(t5.str().find("T/O"), std::string::npos);
    EXPECT_NE(t5.str().find("FAULT"), std::string::npos);
}

TEST(Tables, WriteCsvReportsFailureColumns)
{
    harness::ResultsCube cube;
    cube.framework_names = {"GAP"};
    cube.graph_names = {"G"};
    cube.cells.assign(
        1, std::vector<std::vector<harness::CellResult>>(
               std::size(harness::kAllKernels),
               std::vector<harness::CellResult>(1)));
    cube.cells[0][0][0].failure = harness::FailureKind::kTimeout;
    cube.cells[0][0][0].attempts = 1;

    const std::string path = "/tmp/gm_csv_test.csv";
    ASSERT_TRUE(
        harness::write_csv(path, cube, harness::Mode::kBaseline).is_ok());
    const std::string text = slurp(path);
    EXPECT_NE(text.find("failure,attempts"), std::string::npos);
    EXPECT_NE(text.find("timeout"), std::string::npos);
    std::remove(path.c_str());

    EXPECT_FALSE(harness::write_csv("/tmp/no/such/dir/x.csv", cube,
                                    harness::Mode::kBaseline)
                     .is_ok());
}

} // namespace
} // namespace gm

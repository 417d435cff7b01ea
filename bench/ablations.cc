/**
 * @file
 * Ablation benchmarks for the design choices the paper's Section V singles
 * out.  Each block isolates one mechanism and reports both settings on the
 * graphs where the paper says it matters:
 *
 *  A1. SSSP bucket fusion on/off          (GraphIt's contribution to GAP)
 *  A2. BFS traversal direction            (push / pull / direction-opt)
 *  A3. PageRank Jacobi vs Gauss-Seidel    (why Galois wins PR)
 *  A4. CC algorithm family                (Afforest / label prop / SV)
 *  A5. TC degree relabel on/off           (heuristic-controlled presort)
 *  A6. Galois async vs bulk-synchronous   (Road helps, Urand hurts)
 *
 * Env: GM_SCALE (default 14), GM_THREADS.
 */
#include <functional>
#include <iomanip>
#include <iostream>

#include "gm/galoislite/kernels.hh"
#include "gm/gapref/kernels.hh"
#include "gm/gkc/kernels.hh"
#include "gm/graphitlite/kernels.hh"
#include "gm/harness/dataset.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/env.hh"
#include "gm/support/timer.hh"

namespace
{

using namespace gm;

double
time_once(const std::function<void()>& fn)
{
    // Best of three runs: the first run pays page faults and cold caches,
    // which at these problem sizes can dwarf the effect being measured.
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        t.start();
        {
            // One lease per timed run, as harness trials hold one.
            par::LaneLease lease(par::num_threads());
            fn();
        }
        t.stop();
        if (rep == 0 || t.seconds() < best)
            best = t.seconds();
    }
    return best;
}

void
row(const std::string& graph, const std::string& variant, double secs,
    double baseline_secs)
{
    std::cout << "  " << std::left << std::setw(10) << graph << std::setw(26)
              << variant << std::fixed << std::setprecision(4) << secs
              << " s";
    if (baseline_secs > 0)
        std::cout << "   (" << std::setprecision(2)
                  << baseline_secs / secs << "x vs first variant)";
    std::cout << "\n";
}

} // namespace

int
main()
{
    const int scale = static_cast<int>(env_int("GM_SCALE", 15));
    harness::DatasetSuite suite = harness::make_gap_suite(scale);
    const harness::Dataset& road = suite[0];
    const harness::Dataset& kron = suite[3];
    const harness::Dataset& urand = suite[4];

    std::cout << "ABLATIONS (scale 2^" << scale << ")\n";

    std::cout << "\nA1. SSSP bucket fusion (graphitlite delta-stepping)\n";
    for (const harness::Dataset* ds : {&road, &kron}) {
        graphitlite::Schedule fused;
        fused.bucket_fusion = true;
        graphitlite::Schedule unfused;
        unfused.bucket_fusion = false;
        const vid_t src = ds->sources[0];
        const double t_on = time_once(
            [&] { graphitlite::sssp(ds->wg(), src, ds->delta, fused); });
        const double t_off = time_once(
            [&] { graphitlite::sssp(ds->wg(), src, ds->delta, unfused); });
        row(ds->name, "fusion on", t_on, 0);
        row(ds->name, "fusion off", t_off, t_on);
    }

    std::cout << "\nA2. BFS traversal direction (graphitlite)\n";
    for (const harness::Dataset* ds : {&road, &kron}) {
        const vid_t src = ds->sources[0];
        graphitlite::Schedule push;
        push.direction = graphitlite::Direction::kPush;
        graphitlite::Schedule pull;
        pull.direction = graphitlite::Direction::kPull;
        graphitlite::Schedule diropt;
        diropt.direction = graphitlite::Direction::kDirOpt;
        const double t_dir =
            time_once([&] { graphitlite::bfs(ds->g(), src, diropt); });
        row(ds->name, "direction-optimizing", t_dir, 0);
        row(ds->name, "push only",
            time_once([&] { graphitlite::bfs(ds->g(), src, push); }), t_dir);
        row(ds->name, "pull only",
            time_once([&] { graphitlite::bfs(ds->g(), src, pull); }), t_dir);
    }

    std::cout << "\nA3. PageRank iteration style\n";
    for (const harness::Dataset* ds : {&road, &kron}) {
        const double t_jacobi =
            time_once([&] { gapref::pagerank(ds->g(), 0.85, 1e-4, 100); });
        row(ds->name, "Jacobi (GAP ref)", t_jacobi, 0);
        row(ds->name, "Gauss-Seidel (galoislite)",
            time_once([&] {
                galoislite::pagerank_gauss_seidel(ds->g(), 0.85, 1e-4, 100);
            }),
            t_jacobi);
        row(ds->name, "Gauss-Seidel (GAP, paper's recommendation)",
            time_once([&] {
                gapref::pagerank_gauss_seidel(ds->g(), 0.85, 1e-4, 100);
            }),
            t_jacobi);
    }

    std::cout << "\nA4. Connected-components algorithm family\n";
    for (const harness::Dataset* ds : {&road, &kron, &urand}) {
        const double t_aff =
            time_once([&] { gapref::cc_afforest(ds->g()); });
        row(ds->name, "Afforest (GAP ref)", t_aff, 0);
        row(ds->name, "Shiloach-Vishkin (gkc)",
            time_once([&] { gkc::cc_sv(ds->g()); }), t_aff);
        row(ds->name, "label propagation (graphit)",
            time_once([&] { graphitlite::cc_label_prop(ds->g()); }), t_aff);
    }

    std::cout << "\nA5. TC heuristic relabel\n";
    for (const harness::Dataset* ds : {&kron, &urand}) {
        const double t_with = time_once([&] { gapref::tc(ds->g_undirected()); });
        row(ds->name, "heuristic relabel", t_with, 0);
        row(ds->name, "no relabel",
            time_once([&] { gapref::tc_no_relabel(ds->g_undirected()); }),
            t_with);
    }

    std::cout << "\nA6. Galois asynchronous vs bulk-synchronous\n";
    for (const harness::Dataset* ds : {&road, &urand}) {
        const vid_t src = ds->sources[0];
        const double t_sync =
            time_once([&] { galoislite::bfs_sync(ds->g(), src); });
        row(ds->name, "BFS bulk-sync", t_sync, 0);
        row(ds->name, "BFS async",
            time_once([&] { galoislite::bfs_async(ds->g(), src); }), t_sync);
        const double s_sync = time_once(
            [&] { galoislite::sssp_sync(ds->wg(), src, ds->delta); });
        row(ds->name, "SSSP bulk-sync", s_sync, 0);
        row(ds->name, "SSSP async",
            time_once([&] { galoislite::sssp_async(ds->wg(), src, ds->delta); }),
            s_sync);
    }

    return 0;
}

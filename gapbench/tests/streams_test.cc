// Determinism of the gapbench inputs: on the fixed graphs, one (workload,
// seed) always yields the same population and stream, two seeds yield
// different ones, and every delete targets an arc of the generation-0
// graph.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "gm/harness/dataset.hh"
#include "streams.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::string& s)
    {
        for (char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
};

constexpr std::uint64_t kSlots = 5000;

const gm::harness::DatasetSuite&
suite()
{
    static const gm::harness::DatasetSuite s =
        gm::harness::make_gap_suite(8, 16, 1);
    return s;
}

/** Everything the workload would send for its first kSlots slots. */
std::uint64_t
stream_digest(gapbench::Workload workload, std::uint64_t seed)
{
    const gapbench::Stream stream(workload, seed, suite());
    Digest d;
    for (const auto& req : stream.population()) {
        d.add(static_cast<std::uint64_t>(req.kernel));
        d.add(req.graph);
        d.add(static_cast<std::uint64_t>(req.source));
    }
    for (std::uint64_t i = 0; i < kSlots; ++i) {
        const gapbench::Op op = stream.at(i);
        d.add(static_cast<std::uint64_t>(op.kind));
        d.add(op.query);
        if (op.kind == gapbench::OpKind::kMutate) {
            const gapbench::Mutation m = stream.mutation(i);
            d.add(m.graph);
            for (const auto& e : m.batch.inserts) {
                d.add(static_cast<std::uint64_t>(e.u));
                d.add(static_cast<std::uint64_t>(e.v));
            }
            for (const auto& e : m.batch.deletes) {
                d.add(static_cast<std::uint64_t>(e.u));
                d.add(static_cast<std::uint64_t>(e.v));
            }
        } else if (op.kind == gapbench::OpKind::kPlan) {
            const gm::serve::PlanRequest req = stream.plan(i);
            d.add(req.graph);
            d.add(req.plan.fingerprint());
        }
    }
    return d.h;
}

void
deletes_hit_generation0(std::uint64_t seed)
{
    const gapbench::Stream stream(gapbench::Workload::kServeMixed, seed,
                                  suite());
    int deletes = 0;
    for (std::uint64_t i = 0; i < kSlots; ++i) {
        if (stream.at(i).kind != gapbench::OpKind::kMutate)
            continue;
        const gapbench::Mutation m = stream.mutation(i);
        for (const auto& ds : suite().datasets) {
            if (ds->name != m.graph)
                continue;
            for (const auto& e : m.batch.deletes) {
                const auto nbrs = ds->g().out_neigh(e.u);
                ++deletes;
                expect(std::find(nbrs.begin(), nbrs.end(), e.v) != nbrs.end(),
                       "delete target is not an arc of " + m.graph);
            }
        }
    }
    expect(deletes > 0, "no mutation batch deletes an arc");
}

} // namespace

int
main()
{
    for (gapbench::Workload w : gapbench::kAllWorkloads) {
        if (w == gapbench::Workload::kGapSuite)
            continue;
        const std::string name = gapbench::to_string(w);
        expect(stream_digest(w, 7) == stream_digest(w, 7),
               name + ": one seed gave two streams");
        expect(stream_digest(w, 7) != stream_digest(w, 8),
               name + ": two seeds gave one stream");
    }
    deletes_hit_generation0(7);
    deletes_hit_generation0(8);
    if (failures == 0)
        std::printf("gapbench streams: deterministic per seed\n");
    return failures == 0 ? 0 : 1;
}

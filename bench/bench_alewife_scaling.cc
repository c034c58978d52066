/**
 * @file
 * Extension experiment: the full ALEWIFE machine — caches, directory
 * coherence and the mesh all enabled — at scale. The paper explicitly
 * defers this: "The effect of communication in large-scale machines
 * depends on several factors such as scheduling, which are active
 * areas of investigation" (Section 7).
 *
 * Two sections:
 *
 *  1. Table 3's fib on small meshes (2..16 nodes) under the full
 *     Mul-T runtime: the context-switching mechanism under real
 *     remote latencies.
 *  2. Machine scaling (X9, DESIGN.md §7.8): the wide-sharing
 *     workload at p = 64 / 256 / 1024 nodes under the full-map and
 *     the i-pointer limited directory on the dimension-ordered mesh.
 *     Reports cycles, sharer width, overflow traps, spill walks and
 *     mean hop distance; cross-checks that both schemes finish with
 *     identical console output, and (full mode) that the 1024-node
 *     limited-directory run is bit-identical across host-thread
 *     counts and cycle-skip modes. Exits nonzero on any mismatch.
 *
 * Writes BENCH_alewife_scaling.json.
 *
 * Usage: bench_alewife_scaling [--quick] [fibN]
 *   --quick: skip the fib section, the 1024-node points and the
 *            bit-identity sweep (the CI smoke budget).
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "machine/alewife_machine.hh"
#include "mult/compiler.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;
using FM = mult::CompileOptions::FutureMode;

struct Result
{
    uint64_t cycles = 0;
    double remoteMisses = 0;
    double switches = 0;
    double packets = 0;
};

Result
run(const std::string &src, FM mode, int dim, int radix)
{
    mult::CompileOptions copts;
    copts.futures = mode;
    Program prog = mult::compileProgram(src, copts);

    AlewifeParams p;
    p.network = {.dim = dim, .radix = radix};
    p.controller.cache = {.lineWords = 4, .numLines = 4096, .assoc = 4};
    AlewifeMachine m(p, &prog);
    Result r;
    r.cycles = bench::runToHalt(m, 2'000'000'000, "alewife scaling run")
                   .cycles;
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        r.remoteMisses += m.controller(n).statRemoteMisses.value();
        r.switches +=
            m.proc(n).statTraps[size_t(TrapKind::RemoteMiss)].value();
    }
    r.packets = m.network().statPackets.value();
    return r;
}

// --- Section 2: machine scaling ------------------------------------

/** One wide-sharing run at scale, as the JSON reports it. */
struct ScaleRow
{
    uint32_t nodes = 0;
    const char *scheme = "";
    uint64_t cycles = 0;
    uint32_t maxSharers = 0;
    double overflowTraps = 0;
    double spilledPtrs = 0;
    double spillWalks = 0;
    double meanHops = 0;
    double packets = 0;
};

/** The row plus what the identity checks compare. */
struct ScalePoint : ScaleRow
{
    std::vector<Word> console;
    std::string statsDump;      ///< bit-identity digest
};

ScalePoint
runScale(const workloads::WideSharing &w, int radix,
         coh::DirScheme scheme, uint32_t threads, bool skip)
{
    AlewifeParams p;
    p.network = {.dim = 2, .radix = radix};
    p.wordsPerNode = w.wordsPerNode;
    p.bootRuntime = false;
    p.cycleSkip = skip;
    p.hostThreads = threads;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    p.controller.dirScheme = scheme;
    p.controller.dirPointers = 4;
    auto m = std::make_unique<AlewifeMachine>(p, &w.prog);
    for (uint32_t n = 0; n < m->numNodes(); ++n)
        workloads::bootCoherentNode(m->proc(n), w.prog);
    bench::runToHalt(*m, 2'000'000'000, "wide-sharing run");
    if (!m->quiesce(10'000'000))
        fatal("wide-sharing run at ", w.nodes, " nodes did not drain");

    ScalePoint pt;
    pt.nodes = w.nodes;
    pt.scheme = coh::dirSchemeName(scheme);
    pt.cycles = m->cycle();
    pt.console = m->console();
    coh::Controller &home = m->controller(0);
    Addr line = w.shared / 4;
    if (const auto *census = home.lineCensus(line))
        pt.maxSharers = census->maxSharers;
    for (uint32_t n = 0; n < m->numNodes(); ++n) {
        pt.overflowTraps += m->controller(n).statOverflowTraps.value();
        pt.spilledPtrs += m->controller(n).statSpilledPtrs.value();
        pt.spillWalks += m->controller(n).statSpillWalks.value();
    }
    pt.meanHops = m->network().statHops.mean();
    pt.packets = m->network().statPackets.value();
    std::ostringstream os;
    m->dump(os);
    pt.statsDump = os.str();
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv, {.number = "fibN"});
    const bool quick = session.quick;
    const int fib_n = int(session.number.value_or(16));
    bool ok = true;

    if (!quick) {
        std::string src = workloads::fibSource(fib_n);

        struct Geo { const char *name; int dim, radix; };
        const Geo geos[] = {
            {"1x2  (2 nodes)", 1, 2},
            {"2x2  (4 nodes)", 2, 2},
            {"2x3  (9 nodes)", 2, 3},
            {"2x4 (16 nodes)", 2, 4},
        };

        std::printf("fib(%d) on the full ALEWIFE machine (64KB caches, "
                    "directory coherence, mesh)\n\n", fib_n);
        for (FM mode : {FM::Eager, FM::Lazy}) {
            std::printf("%s futures:\n",
                        mode == FM::Eager ? "normal" : "lazy");
            std::printf("  %-16s %10s %9s %12s %12s %10s\n", "mesh",
                        "cycles", "speedup", "remote miss", "cs traps",
                        "packets");
            uint64_t base = 0;
            for (const Geo &g : geos) {
                Result r = run(src, mode, g.dim, g.radix);
                if (!base)
                    base = r.cycles;
                std::printf(
                    "  %-16s %10llu %8.2fx %12.0f %12.0f %10.0f\n",
                    g.name, (unsigned long long)r.cycles,
                    double(base) / double(r.cycles), r.remoteMisses,
                    r.switches, r.packets);
            }
            std::printf("\n");
        }
    }

    // --- X9: machine scaling under the limited directory -------------
    //
    // The wide-sharing workload drives one line's sharer set as wide
    // as the machine; the limited directory (i = 4) must spill and
    // still finish in the same architectural state as the full map.
    struct ScaleGeo { uint32_t nodes; int radix; uint32_t words; };
    std::vector<ScaleGeo> scale_geos = {
        {64, 8, 1u << 14},
        {256, 16, 1u << 14},
    };
    if (!quick)
        scale_geos.push_back({1024, 32, 1u << 14});

    std::printf("Machine scaling: wide-sharing workload, 2-D mesh, "
                "full-map vs limited directory (i = 4)\n\n");
    std::printf("%6s  %-10s %10s %8s %8s %10s %8s %8s %9s\n", "nodes",
                "scheme", "cycles", "sharers", "ovflTrp", "spilled",
                "walks", "hops", "packets");

    std::vector<ScaleRow> points;
    workloads::WideSharing w1024;   // kept for the identity sweep
    for (const ScaleGeo &g : scale_geos) {
        workloads::WideSharing w =
            workloads::buildWideSharing(g.nodes, g.words);
        if (g.nodes == 1024)
            w1024 = w;
        ScalePoint full =
            runScale(w, g.radix, coh::DirScheme::FullMap, 1, true);
        ScalePoint lim =
            runScale(w, g.radix, coh::DirScheme::LimitedPtr, 1, true);

        for (const ScalePoint &pt : {full, lim}) {
            std::printf("%6u  %-10s %10llu %8u %8.0f %10.0f %8.0f "
                        "%8.2f %9.0f\n",
                        pt.nodes, pt.scheme,
                        (unsigned long long)pt.cycles, pt.maxSharers,
                        pt.overflowTraps, pt.spilledPtrs,
                        pt.spillWalks, pt.meanHops, pt.packets);
            points.push_back(pt);
        }

        // The two schemes are timing overlays over one protocol:
        // the architectural outcome must match, the full map must
        // never trap, and the limited directory must have spilled
        // (every machine here is wider than i = 4).
        if (full.console != lim.console) {
            std::fprintf(stderr, "FAIL: console diverged between "
                         "schemes at %u nodes\n", g.nodes);
            ok = false;
        }
        if (full.overflowTraps != 0 || lim.overflowTraps < 1 ||
            lim.maxSharers != g.nodes) {
            std::fprintf(stderr, "FAIL: spill accounting wrong at %u "
                         "nodes (full %.0f, limited %.0f traps, "
                         "%u sharers)\n", g.nodes, full.overflowTraps,
                         lim.overflowTraps, lim.maxSharers);
            ok = false;
        }
    }

    // --- The 1024-node bit-identity gate ------------------------------
    bool identical = true;
    if (!quick) {
        std::printf("\n1024-node limited-directory bit-identity "
                    "(threads x cycle-skip):\n");
        ScalePoint ref =
            runScale(w1024, 32, coh::DirScheme::LimitedPtr, 1, true);
        for (bool skip : {true, false}) {
            for (uint32_t threads : {1u, 4u}) {
                if (skip && threads == 1)
                    continue;
                ScalePoint pt = runScale(w1024, 32,
                                         coh::DirScheme::LimitedPtr,
                                         threads, skip);
                bool same = pt.cycles == ref.cycles &&
                            pt.console == ref.console &&
                            pt.statsDump == ref.statsDump;
                std::printf("  threads=%u skip=%-3s %s\n", threads,
                            skip ? "on" : "off",
                            same ? "identical" : "DIVERGED");
                if (!same) {
                    std::fprintf(stderr, "FAIL: 1024-node run diverged "
                                 "(threads=%u skip=%d)\n", threads,
                                 int(skip));
                    identical = false;
                    ok = false;
                }
            }
        }
    }
    session.emit("alewife_scaling", [&](json::Writer &w) {
        w.key("points").beginArray();
        for (const ScaleRow &pt : points)
            w.beginObject()
                .field("nodes", pt.nodes)
                .field("scheme", pt.scheme)
                .field("cycles", pt.cycles)
                .field("max_sharers", pt.maxSharers)
                .field("overflow_traps", pt.overflowTraps)
                .field("spilled_ptrs", pt.spilledPtrs)
                .field("spill_walks", pt.spillWalks)
                .field("mean_hops", pt.meanHops)
                .field("packets", pt.packets)
                .endObject();
        w.endArray().field("bit_identity", identical);
    });
    return ok ? 0 : 1;
}

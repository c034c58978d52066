/**
 * @file
 * Regenerates Figure 5 (and prints Table 4): processor utilization
 * U(p) as a function of resident threads, decomposed into the ideal
 * curve, network effects, cache + network effects, and context-switch
 * overhead, for the default 8000-processor machine at C = 10 cycles.
 *
 * The regions between adjacent curves correspond to the labels in the
 * paper's figure: Ideal - (network) = Network Effects, (network) -
 * (cache+network) = Cache Effects, (cache+network) - U = CS Overhead,
 * and U itself is Useful Work.
 *
 * Extension X6 (see EXPERIMENTS.md): the same utilization-vs-frames
 * curve is then *measured* on a 16-node ALEWIFE machine with the cycle
 * accountant — U comes straight from the per-node Useful/Hazard cycle
 * buckets, m and T from the coherence controllers' counters — and
 * cross-checked against Equation 1 in closed form
 * (ScalabilityModel::utilizationMeasured) with those measured inputs.
 *
 * Extension X9 (machine scaling, DESIGN.md §7.8): the measurement is
 * repeated at 64 and 256 nodes under the limited directory on the
 * 2-D mesh, with the model context re-derived from the mesh's hop
 * terms (ModelParams::forSimMesh) — T(p)'s 2hk/3 round trip now
 * grows with the machine, and Equation 1 must keep tracking the
 * accountant within the same tolerance.
 *
 * Exits nonzero if any point disagrees beyond the stated tolerance.
 */

#include <algorithm>
#include <cstdio>

#include "machine/alewife_machine.hh"
#include "model/scalability.hh"
#include "profile/accounting.hh"
#include "workloads/handwritten.hh"

namespace
{

using namespace april;

constexpr int kUseful = workloads::kMeasuredUseful;
constexpr uint32_t kIters = 200;    ///< loop iterations per thread

/** One measured point of the X6 table. */
struct MeasuredPoint
{
    double utilization = 0;     ///< (Useful+Hazard)/cycles, node 0
    double missRate = 0;        ///< remote misses per useful cycle
    double latency = 0;         ///< mean issue-to-fill cycles
    double predicted = 0;       ///< Eq. 1 with the measured m, T
};

MeasuredPoint
measureFrames(const Program &prog, uint32_t p, int radix,
              uint32_t words_per_node,
              coh::DirScheme scheme = coh::DirScheme::FullMap)
{
    AlewifeParams params;
    params.network = {.dim = 2, .radix = radix};
    params.wordsPerNode = words_per_node;
    params.bootRuntime = false;
    params.proc.numFrames = std::max(p, 1u);
    params.controller.cache = {.lineWords = 4, .numLines = 1024,
                               .assoc = 4};
    params.controller.dirScheme = scheme;
    AlewifeMachine m(params, &prog);

    for (uint32_t n = 0; n < m.numNodes(); ++n)
        workloads::bootMeasuredNode(m.proc(n), prog);

    // Run until node 0 finishes its frame-0 thread.
    for (uint64_t c = 0; !m.proc(0).halted() && c < 30'000'000; ++c)
        m.tick();

    Processor &proc = m.proc(0);
    proc.verifyCycleAccounting();
    MeasuredPoint pt;
    double useful = proc.bucketCycles(profile::Bucket::Useful);
    double hazard = proc.bucketCycles(profile::Bucket::Hazard);
    pt.utilization = (useful + hazard) / proc.statCycles.value();
    pt.missRate = m.controller(0).statRemoteMisses.value() / useful;
    pt.latency = m.controller(0).statRemoteLatency.mean();
    pt.predicted = model::ScalabilityModel::utilizationMeasured(
        p, pt.missRate, pt.latency, 11.0);
    return pt;
}

} // namespace

int
main()
{
    using namespace april::model;

    ModelParams params;     // Table 4 defaults
    ScalabilityModel model(params);

    std::printf("Table 4: Default system parameters\n");
    std::printf("  %-28s %10.0f cycles\n", "Memory latency",
                params.memLatency);
    std::printf("  %-28s %10d\n", "Network dimension n", params.netDim);
    std::printf("  %-28s %10d\n", "Network radix k", params.netRadix);
    std::printf("  %-28s %10.0f %%\n", "Fixed miss rate",
                params.fixedMissRate * 100);
    std::printf("  %-28s %10.0f\n", "Average packet size",
                params.packetSize);
    std::printf("  %-28s %10.0f bytes\n", "Cache block size",
                params.blockBytes);
    std::printf("  %-28s %10.0f blocks\n", "Thread working set size",
                params.workingSetBlocks);
    std::printf("  %-28s %10.0f Kbytes\n", "Cache size",
                params.cacheBytes / 1024);
    std::printf("  %-28s %10.0f cycles\n", "Context switch overhead C",
                params.switchOverhead);
    std::printf("\n");
    std::printf("Derived: average hops nk/3 = %.0f, unloaded round-trip"
                " latency T(1) = %.0f cycles\n\n",
                model.avgHops(), model.baseLatency());

    std::printf("Figure 5: Processor utilization U(p) vs resident "
                "threads p\n");
    std::printf("%3s  %8s  %8s  %8s  %8s    %6s  %6s  %5s\n", "p",
                "useful", "cs-ovhd", "cache+nw", "ideal", "m(p)",
                "T(p)", "rho");
    for (int p = 0; p <= 8; ++p) {
        if (p == 0) {
            std::printf("%3d  %8.3f  %8.3f  %8.3f  %8.3f\n", 0, 0.0,
                        0.0, 0.0, 0.0);
            continue;
        }
        ModelPoint pt = model.evaluate(p);
        std::printf("%3d  %8.3f  %8.3f  %8.3f  %8.3f    %6.4f  %6.1f"
                    "  %5.2f%s\n",
                    p, pt.utilization, model.utilizationNoSwitch(p),
                    model.utilizationFixedCache(p),
                    model.utilizationIdeal(p), pt.missRate, pt.latency,
                    pt.channelRho, pt.saturated ? "  [sat]" : "");
    }

    std::printf("\nHeadline claims (Section 8):\n");
    std::printf("  U(3) = %.3f   (paper: close to 0.80 with 3 resident "
                "threads)\n", model.utilization(3));
    double peak = 0;
    for (int p = 1; p <= 8; ++p)
        peak = std::max(peak, model.utilization(p));
    std::printf("  max U = %.3f  (paper: limited to about 0.80)\n",
                peak);
    std::printf("  U(1) = %.3f   (paper: 1/(1+m(1)T(1)) = %.3f)\n",
                model.utilization(1), 1.0 / (1.0 + 0.02 * 55.0));

    // --- Extension X6: measured utilization vs task frames -----------
    //
    // The accountant's Useful+Hazard fraction on a 16-node machine,
    // against Equation 1 fed with the *measured* miss rate and remote
    // latency of the same run. Tolerance documented in EXPERIMENTS.md:
    // |measured - Eq.1(measured m, T)| <= 0.08 absolute. The slack is
    // dominated by p = 1, where switch-spinning rounds each miss wait
    // up to whole 11-cycle spin revolutions while Eq. 1 charges
    // exactly T; with p >= 2 the agreement is ~1e-3.
    constexpr double kTolerance = 0.08;
    std::printf("\nExtension X6: measured U(p) on a 16-node ALEWIFE "
                "machine\n(1 remote miss per %d instructions, C = 11 "
                "cycles, switch-spinning)\n\n", kUseful);
    std::printf("%8s  %10s  %8s  %8s  %14s  %7s\n", "frames p",
                "U measured", "m meas", "T meas", "U Eq.1(m,T)",
                "delta");
    Program prog = workloads::buildMeasuredLoop(19, kIters);
    bool ok = true;
    for (uint32_t p = 1; p <= 4; ++p) {
        MeasuredPoint pt = measureFrames(prog, p, 4, 1u << 19);
        double delta = pt.utilization - pt.predicted;
        bool bad = std::abs(delta) > kTolerance;
        ok = ok && !bad;
        std::printf("%8u  %10.3f  %8.4f  %8.1f  %14.3f  %+6.3f%s\n", p,
                    pt.utilization, pt.missRate, pt.latency,
                    pt.predicted, delta, bad ? "  [FAIL]" : "");
    }

    // --- Extension X9: the same measurement at machine scale ---------
    //
    // 64- and 256-node meshes under the limited directory (i = 4).
    // The analytical context is re-derived per mesh: T(1)'s hop term
    // is 2 x (2k/3) one-cycle traversals, so the unloaded round trip
    // grows from ~20 cycles (k = 8) to ~36 (k = 16) — and the
    // measured latency and Eq. 1 agreement must follow.
    std::printf("\nExtension X9: measured U(p) at machine scale "
                "(limited directory i = 4, 2-D mesh)\n\n");
    std::printf("%6s  %6s  %8s  %10s  %8s  %8s  %14s  %7s\n", "nodes",
                "T(1)", "frames p", "U measured", "m meas", "T meas",
                "U Eq.1(m,T)", "delta");
    Program sprog = workloads::buildMeasuredLoop(15, kIters);
    for (uint32_t nodes : {64u, 256u}) {
        int radix = nodes == 64 ? 8 : 16;
        ScalabilityModel mesh_model(ModelParams::forSimMesh(nodes));
        for (uint32_t p : {1u, 2u, 4u}) {
            MeasuredPoint pt =
                measureFrames(sprog, p, radix, 1u << 15,
                              coh::DirScheme::LimitedPtr);
            double delta = pt.utilization - pt.predicted;
            bool bad = std::abs(delta) > kTolerance;
            ok = ok && !bad;
            std::printf("%6u  %6.1f  %8u  %10.3f  %8.4f  %8.1f  "
                        "%14.3f  %+6.3f%s\n",
                        nodes, mesh_model.baseLatency(), p,
                        pt.utilization, pt.missRate, pt.latency,
                        pt.predicted, delta, bad ? "  [FAIL]" : "");
        }
    }

    if (!ok) {
        std::fprintf(stderr, "\nFAIL: measured utilization disagrees "
                     "with Equation 1 beyond %.2f\n", kTolerance);
        return 1;
    }
    std::printf("\nMeasured breakdowns reproduce the Figure 5 shape: "
                "near-linear gains up to p*,\nthen the switch-overhead "
                "ceiling 1/(1+Cm) — at 16, 64 and 256 nodes alike.\n");
    return 0;
}

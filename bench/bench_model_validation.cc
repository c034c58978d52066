/**
 * @file
 * Validates the Section 8 analytical model against the full ALEWIFE
 * machine simulator, and doubles as the hardware-task-frame ablation:
 * "The models for the cache and network terms have been validated
 * through simulations."
 *
 * Every node runs p resident threads (p = number of hardware task
 * frames); each thread executes a loop of k useful instructions
 * followed by one remote load that always misses (fresh line on a
 * remote node, trap-on-miss flavor -> context switch). Utilization is
 * measured as useful loop instructions per cycle and compared with
 * Equation 1 evaluated at the machine's parameters (m = 1/k, T from
 * the mesh geometry).
 */

#include <algorithm>
#include <cstdio>

#include "machine/alewife_machine.hh"
#include "model/scalability.hh"
#include "workloads/handwritten.hh"

namespace
{

using namespace april;

constexpr int kUseful = workloads::kMeasuredUseful;
constexpr uint32_t kIters = 300;    ///< loop iterations per thread

/** Measured utilization with p threads per processor. */
double
measure(const Program &prog, uint32_t p)
{
    AlewifeParams params;
    params.network = {.dim = 2, .radix = 4};    // 16 nodes
    params.wordsPerNode = 1u << 19;
    params.bootRuntime = false;
    params.proc.numFrames = std::max(p, 1u);
    params.controller.cache = {.lineWords = 4, .numLines = 1024,
                               .assoc = 4};
    AlewifeMachine m(params, &prog);

    for (uint32_t n = 0; n < m.numNodes(); ++n)
        workloads::bootMeasuredNode(m.proc(n), prog);

    // Run until node 0 finishes its frame-0 thread.
    uint64_t cycles = 0;
    while (!m.proc(0).halted() && cycles < 30'000'000) {
        m.tick();
        ++cycles;
    }

    // Useful work: loop-body instructions completed on node 0.
    double useful = 0;
    for (uint32_t f = 0; f < p; ++f)
        useful += double(m.proc(0).frame(f).regs[22]);
    // One iteration's useful adds, plus the 4 loop-control insts.
    double insts = useful + (useful / (kUseful - 4)) * 4.0;
    return insts / double(cycles);
}

} // namespace

int
main()
{
    Program prog = workloads::buildMeasuredLoop(19, kIters);

    // Model configured to the measured machine: 16-node 2-D mesh.
    model::ModelParams mp;
    mp.netDim = 2;
    mp.netRadix = 4;
    mp.fixedMissRate = 1.0 / kUseful;
    mp.missBeta = 0;                // synthetic threads do not share
    mp.switchOverhead = 11;         // trap-based switch
    model::ScalabilityModel model(mp);

    std::printf("Model-vs-simulation validation (and task-frame "
                "ablation)\n");
    std::printf("16-node machine, 1 remote miss per %d instructions, "
                "T(1) = %.0f cycles, C = 11\n\n",
                kUseful, model.baseLatency());
    std::printf("%8s  %14s  %14s\n", "frames p", "U measured",
                "U model (Eq.1)");
    for (uint32_t p = 1; p <= 4; ++p) {
        double meas = measure(prog, p);
        double pred = model.utilization(p);
        std::printf("%8u  %14.3f  %14.3f\n", p, meas, pred);
    }
    std::printf("\nThe shape must match: large gains from the second "
                "and third resident threads,\ndiminishing returns "
                "after (the paper's \"as few as three resident "
                "threads\").\n");
    return 0;
}

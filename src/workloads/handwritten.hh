/**
 * @file
 * Hand-written (non-Mul-T) assembly workloads shared by the examples,
 * the `april-lint` static analyzer gate, and the dynamic race-detector
 * tests. Keeping the builders here means the program the example runs
 * is byte-for-byte the program the analyzer vouches for.
 */

#ifndef APRIL_WORKLOADS_HANDWRITTEN_HH
#define APRIL_WORKLOADS_HANDWRITTEN_HH

#include "isa/assembler.hh"
#include "isa/types.hh"
#include "proc/processor.hh"

namespace april::workloads
{

/**
 * The Section 3.3 fine-grain synchronization pipeline: node 0 produces
 * squares into a shared buffer with set-to-full stores, node 1 drains
 * it with consuming (reset-to-empty) loads. All cross-node handoffs go
 * through full/empty bits — the race detector must see zero races.
 */
struct FineGrainSync
{
    Program prog;
    Addr buf = 0;               ///< first buffer word (starts empty)
    int items = 0;              ///< buffer length in words
    int64_t expectedSum = 0;    ///< sum of i*i the consumer prints
};

FineGrainSync buildFineGrainSync();

/**
 * The contended coherent-loop microbenchmark shared by
 * bench_sim_speed, bench_prof_overhead and the coherence balance
 * gate (`april run coherent16 --verify`): every node increments an f/e-locked shared counter `iters`
 * times with a DIV per iteration, node 0 spins until the counter
 * reaches nodes * iters and halts the machine. Pure coherence
 * traffic — every increment bounces the lock and counter lines
 * through the directory.
 */
struct CoherentLoop
{
    Program prog;
    Addr lock = 0;              ///< f/e lock word
    Addr count = 0;             ///< shared counter word (init to
                                ///< fixnum(0) before running)
    uint32_t nodes = 0;
    uint32_t iters = 0;
};

CoherentLoop buildCoherentLoop(uint32_t nodes, uint32_t iters);

/** Emit the raw workloads' trap stubs: "cswitch", the switch-spinning
 *  context-switch handler of Section 6.1, and "fyield", which rotates
 *  an idle frame onward. */
void emitSwitchStubs(Assembler &as);

/** Point @p proc at the coherent loop's worker entry: reset to
 *  "worker", wire the context-switch and frame-yield trap stubs. */
void bootCoherentNode(Processor &proc, const Program &prog);

/**
 * The stall-heavy loop of bench_sim_speed and bench_parallel_scaling:
 * every node, reset to "worker", runs `iters` DIVs in lockstep, and
 * node 0 then halts the machine. Long windows where every core is
 * stalled: the best case for cycle skipping.
 */
Program buildStallLoop(uint32_t iters);

/**
 * The remote-miss loop of bench_fig5_utilization and
 * bench_model_validation: each thread runs `iters` iterations of
 * kMeasuredUseful - 4 adds (counted in r22) and a load from a fresh
 * line in the next node's memory of 2^@p words_shift words, which
 * always misses and switches context.
 */
Program buildMeasuredLoop(int words_shift, uint32_t iters);
constexpr int kMeasuredUseful = 48;     ///< instructions per miss

/** Start every frame of @p proc at the measured loop's "thread". */
void bootMeasuredNode(Processor &proc, const Program &prog);

/**
 * The machine-scaling stress workload (DESIGN.md §7.8): every node
 * reads one word homed on node 0 — driving the directory's sharer set
 * as wide as the machine, past any limited-directory pointer budget —
 * then raises a done flag in its own memory segment. Node 0 polls the
 * flags and finally *writes* the widely-shared word, forcing a
 * machine-wide invalidation storm (a spill-table walk under the
 * limited scheme) before halting. No locks, so the critical path is
 * O(nodes) remote reads rather than a serialized lock queue — this is
 * the workload that completes at 1024 nodes.
 *
 * `wordsPerNode` must be a power of two of at least 32 (node-local
 * done-flag addresses are computed with a shift) and every node's
 * program is identical, so the same build boots every node via
 * bootCoherentNode(). The shared word is word 512 of node 0, or the
 * middle of a node of fewer than 1,024 words.
 */
struct WideSharing
{
    Program prog;
    Addr shared = 0;            ///< widely-read word, homed on node 0
    Addr doneOff = 0;           ///< done-flag offset within each node's
                                ///< memory segment
    uint32_t nodes = 0;
    uint32_t wordsPerNode = 0;
};

WideSharing buildWideSharing(uint32_t nodes, uint32_t wordsPerNode);

/**
 * The LimitLESS software directory handlers as a standalone trap
 * handler image: `coh$spill` (pointer-overflow trap: append the
 * evicted pointer set to the node's software spill table) and
 * `coh$walk` (invalidation walk: poke every spilled sharer with an
 * IPI, then drain the table). Both are entered through trap vectors
 * and must return to the interrupted context with the frame pointer
 * exactly restored — the property april-lint's protocol-handler
 * check gates (the image is only ever entered through `handlers`, so
 * lint roots are exactly those symbols, not every label).
 */
struct DirHandlers
{
    Program prog;
    Addr spillCount = 0;        ///< spill-table entry count word
    Addr spillTable = 0;        ///< first spill-table word
    /// Trap-vector entry symbols (the only legal entry points).
    std::vector<std::string> handlers;
};

/**
 * @param frameLeak plant the classic handler bug the lint check
 *        exists for: coh$walk's empty-table fast path RETTs without
 *        the balancing DECFP. Used by the analysis tests to prove the
 *        check fires; production callers leave it false.
 */
DirHandlers buildDirHandlers(bool frameLeak = false);

} // namespace april::workloads

#endif // APRIL_WORKLOADS_HANDWRITTEN_HH

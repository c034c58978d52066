/**
 * @file
 * Fine-grain synchronization with full/empty bits (Section 3.3): a
 * two-stage producer/consumer pipeline through a shared buffer, one
 * synchronization bit per word — no locks, no separate flag storage.
 *
 * Node 0 produces squares into a 64-word buffer with set-to-full
 * stores; node 1 consumes them with consuming (reset-to-empty) loads,
 * accumulating the sum. Each side spins with a *non-trapping* probe +
 * Jempty/Jfull, the explicit-control idiom Table 2's flavors enable.
 *
 * The program itself lives in workloads::buildFineGrainSync() so the
 * `april-lint` analyzer and the race-detector tests exercise exactly
 * the code this example runs.
 */

#include <cstdio>

#include "machine/perfect_machine.hh"
#include "workloads/handwritten.hh"

int
main()
{
    using namespace april;

    workloads::FineGrainSync w = workloads::buildFineGrainSync();

    PerfectMachineParams params;
    params.numNodes = 2;
    params.wordsPerNode = 1u << 16;
    PerfectMachine m(params, &w.prog);
    // The buffer starts empty: nothing to consume yet.
    for (int i = 0; i < w.items; ++i)
        m.memory().setFull(w.buf + Addr(i), false);

    m.run(1'000'000);

    std::printf("pipeline of %d items finished in %llu cycles\n",
                w.items, (unsigned long long)m.cycle());
    std::printf("consumer's sum: %s (expected %lld)\n",
                tagged::toString(m.console().back()).c_str(),
                (long long)w.expectedSum);
    std::printf("\nEvery word carried its own synchronization state — "
                "one memory op per handoff,\nno test&set, no lock "
                "words (Section 3.3).\n");
    return 0;
}

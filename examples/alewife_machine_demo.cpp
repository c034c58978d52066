/**
 * @file
 * The full ALEWIFE machine end to end: a Mul-T program with lazy
 * futures on a 2x2 mesh of complete nodes — APRIL processors, caches,
 * directory-coherence controllers, network — followed by a dump of
 * the machine-wide statistics tree.
 *
 *   alewife_machine_demo [N]      run fib(N) (default 13)
 *
 * Traces, profiles and the coherence and task reports of the same
 * run come from the `april` tool, e.g.
 * `april run fib:10 --prof --coh --task --perfetto=trace.json`.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "machine/workload.hh"

int
main(int argc, char **argv)
{
    using namespace april;

    auto usage = [] {
        std::fprintf(stderr, "usage: alewife_machine_demo [N]\n");
        return 2;
    };
    if (argc > 2)
        return usage();
    const std::string n = argc > 1 ? argv[1] : "13";
    workloads::Workload w;
    std::unique_ptr<Machine> machine;
    try {
        w = workloads::fromSpec("fib:" + n);
        machine = makeMachine(w.prog, w.options);
    } catch (const SimError &) {
        return usage();     // fatal() already said what was wrong
    }

    machine->run(100'000'000);
    if (!machine->halted()) {
        std::printf("did not finish\n");
        return 1;
    }

    std::printf("fib(%s) on a 2x2 ALEWIFE = %lld (expected %lld) in "
                "%llu cycles\n\n",
                n.c_str(), (long long)w.answer(*machine),
                (long long)w.expected,
                (unsigned long long)machine->cycle());

    std::printf("machine statistics:\n");
    machine->dump(std::cout);

    std::printf("\nnote the contextSwitches and trapsRemoteMiss "
                "counters: every use of the\nnetwork switched the "
                "processor to another task frame (Section 2.1).\n");
    return 0;
}

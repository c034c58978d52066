#include "machine/driver.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "runtime/layout.hh"

namespace april
{

uint32_t
hostThreadCount(uint32_t requested)
{
    if (requested)
        return requested;
    if (const char *env = std::getenv("APRIL_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && end != env && *end == '\0' && v >= 1 && v <= 64)
            return uint32_t(v);
    }
    return 1;
}

namespace
{

/** The square 2-D mesh of radix netRadix, derived from the node
 *  count when that is 0; fatal unless it covers options.nodes
 *  exactly. */
net::NetworkParams
meshFor(const DriverOptions &options)
{
    net::NetworkParams np;
    np.dim = 2;
    np.radix = options.netRadix;
    if (!np.radix) {
        while (uint64_t(np.radix) * uint64_t(np.radix) < options.nodes)
            ++np.radix;
    }
    if (uint64_t(np.radix) * uint64_t(np.radix) != options.nodes) {
        fatal("driver: ", options.nodes, " nodes do not fill a ",
              np.radix, "^", np.dim, " mesh");
    }
    return np;
}

} // namespace

std::unique_ptr<Machine>
makeMachine(const Program &prog, const DriverOptions &options,
            const MachineBoot &boot)
{
    if (options.nodes == 0)
        fatal("driver: a machine needs at least one node");

    auto shared = [&](MachineParams &mp) {
        static_cast<ObsParams &>(mp) = options;
        mp.wordsPerNode = options.wordsPerNode;
        mp.proc = options.proc;
        mp.seed = options.seed;
        mp.bootRuntime = !boot;
        mp.cycleSkip = options.cycleSkip;
    };
    std::unique_ptr<Machine> m;
    if (options.alewife) {
        AlewifeParams ap;
        shared(ap);
        ap.network = meshFor(options);
        ap.controller = options.controller;
        ap.hostThreads = hostThreadCount(options.hostThreads);
        m = std::make_unique<AlewifeMachine>(ap, &prog);
    } else {
        PerfectMachineParams mp;
        shared(mp);
        mp.numNodes = options.nodes;
        m = std::make_unique<PerfectMachine>(mp, &prog);
    }
    if (boot)
        boot(*m, prog);
    return m;
}

DriverResult
runMultProgram(const std::string &source, const DriverOptions &options)
{
    Program prog = mult::compileProgram(source, options.compile);
    std::unique_ptr<Machine> m = makeMachine(prog, options);
    Machine &machine = *m;

    machine.run(options.maxCycles);
    if (!machine.halted()) {
        fatal("driver: program did not halt within ", options.maxCycles,
              " cycles (node0 at ", prog.symbolAt(machine.proc(0).pc()),
              ")");
    }

    DriverResult r;
    r.cycles = machine.cycle();
    r.console = machine.console();
    if (r.console.empty())
        fatal("driver: no boot output");
    r.result = r.console.back();
    r.console.pop_back();
    r.steals = machine.runtimeCounter(rt::nb::statSteals);
    r.spawns = machine.runtimeCounter(rt::nb::statSpawns);
    r.blocks = machine.runtimeCounter(rt::nb::statBlocks);
    r.resumes = machine.runtimeCounter(rt::nb::statResumes);
    r.instructions = machine.instructions();
    machine.verifyCycleAccounting();
    r.outputs = recordOutputs(machine);
    return r;
}

} // namespace april

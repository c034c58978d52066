/**
 * @file
 * Model-checker throughput benchmark: exhaustive exploration of the
 * directory protocol per scheme and node count, reporting the state
 * count, transition count, diameter and states/second. These are the
 * numbers EXPERIMENTS.md X10 quotes and the CI april-mc job budgets
 * against — a regression here means the spec grew a new state
 * dimension (intended or not) or the explorer lost throughput.
 *
 * Writes one machine-readable JSON object to stdout and to
 * BENCH_mc_states.json.
 *
 * Usage: bench_mc_states [--quick]   (--quick: 2-node configs only)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "mc/explore.hh"

namespace
{

using namespace april;

struct ConfigResult
{
    std::string name;
    mc::ExploreResult res;
    double seconds = 0;

    double
    statesPerSec() const
    {
        return seconds > 0 ? double(res.states) / seconds : 0.0;
    }
};

ConfigResult
runConfig(const std::string &name, coh::DirScheme scheme,
          uint32_t nodes, uint32_t pointers)
{
    mc::ExploreParams p;
    p.spec.scheme = scheme;
    p.spec.dirPointers = pointers;
    p.nodes = nodes;
    bench::Lap lap;
    ConfigResult r;
    r.res = mc::explore(p);
    r.seconds = lap.seconds();
    r.name = name;
    if (!r.res.ok())
        fatal("bench_mc_states: ", name,
              " found a violation or hit the state cap — run "
              "april-mc for the counterexample");
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv);
    const bool quick = session.quick;

    std::vector<ConfigResult> results;
    results.push_back(
        runConfig("fullmap_n2", coh::DirScheme::FullMap, 2, 4));
    results.push_back(
        runConfig("limited1_n2", coh::DirScheme::LimitedPtr, 2, 1));
    if (!quick) {
        results.push_back(
            runConfig("fullmap_n3", coh::DirScheme::FullMap, 3, 4));
        results.push_back(runConfig("limited1_n3",
                                    coh::DirScheme::LimitedPtr, 3, 1));
        results.push_back(runConfig("limited2_n3",
                                    coh::DirScheme::LimitedPtr, 3, 2));
    }

    for (const ConfigResult &r : results) {
        std::printf("%-12s %9llu states %10llu transitions "
                    "diameter %2u  %6.2fs  %.0f states/s\n",
                    r.name.c_str(), (unsigned long long)r.res.states,
                    (unsigned long long)r.res.transitions,
                    r.res.diameter, r.seconds, r.statesPerSec());
    }
    session.emit("mc_states", [&](json::Writer &w) {
        w.key("configs").beginArray();
        for (const ConfigResult &r : results)
            w.beginObject()
                .field("name", r.name)
                .field("states", r.res.states)
                .field("transitions", r.res.transitions)
                .field("diameter", r.res.diameter)
                .field("seconds", r.seconds)
                .field("states_per_sec", r.statesPerSec())
                .endObject();
        w.endArray();
    });
    return 0;
}

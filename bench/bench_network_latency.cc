/**
 * @file
 * Reproduces the Section 8 network-latency derivation: "the average
 * number of hops between a random pair of nodes is nk/3 = 20, ...
 * [yielding] an average round trip network latency of 55 cycles for
 * an unloaded network, when memory latency and average packet size
 * are taken into account."
 *
 * Three sections:
 *
 *  1. analytic — hop distances over random node pairs on the real
 *     3-D radix-20 mesh simulator (8000 nodes) and the paper's
 *     round-trip derivation;
 *  2. loaded — measured delivery latency of synthetic traffic on a
 *     2-D radix-8 mesh as injection rate saturates the channels;
 *  3. classed — per-message-class latency percentiles and counts
 *     from the network telemetry of a live coherent workload (the
 *     f/e-locked ALEWIFE counter loop on 16 nodes): invalidations,
 *     acks, data replies and the rest each get their own histogram.
 *
 * Writes BENCH_network_latency.json next to the other BENCH_*.json
 * artifacts.
 *
 * Usage: bench_network_latency [--quick]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "machine/alewife_machine.hh"
#include "machine/workload.hh"
#include "network/network.hh"

namespace
{

using namespace april;
using namespace april::net;

/** Average hop distance over random pairs. */
double
averageHops(Network &n, int samples, Rng &rng)
{
    double total = 0;
    for (int i = 0; i < samples; ++i) {
        uint32_t a = uint32_t(rng.below(n.numNodes()));
        uint32_t b = uint32_t(rng.below(n.numNodes()));
        total += n.distance(a, b);
    }
    return total / samples;
}

/** Measured delivery latency under a given injection rate. */
double
loadedLatency(double inject_per_node, uint64_t cycles, uint64_t seed)
{
    Network n({.dim = 2, .radix = 8});
    Rng rng(seed);
    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
        for (uint32_t node = 0; node < n.numNodes(); ++node) {
            if (rng.chance(inject_per_node)) {
                uint32_t dst = uint32_t(rng.below(n.numNodes()));
                Injection inj = n.inject(node, dst, 4, cycle);
                n.recordDelivery(dst, inj.arrive - cycle, inj.hops, 4);
            }
        }
    }
    n.foldStats();
    return n.statLatency.mean();
}

/**
 * Upper bound of the bucket holding the @p q quantile of a log2
 * histogram — conservative ceiling, not an interpolation; the last
 * bucket reports the observed maximum (same rule as `april run --coh`).
 */
uint64_t
histPercentile(const stats::Histogram &h, double q)
{
    if (!h.count())
        return 0;
    uint64_t rank = uint64_t(q * double(h.count()));
    if (rank < 1)
        rank = 1;
    uint64_t cum = 0;
    for (size_t b = 0; b < h.numBuckets(); ++b) {
        cum += h.bucketCount(b);
        if (cum >= rank) {
            if (b == 0)
                return 0;
            if (b + 1 == h.numBuckets())
                return uint64_t(h.max());
            return (uint64_t(1) << b) - 1;
        }
    }
    return uint64_t(h.max());
}

/** Run the 16-node coherent counter loop of @p w, which must
 *  outlive the machine, and drain its in-flight traffic. */
std::unique_ptr<Machine>
runCoherent16(const workloads::Workload &w)
{
    std::unique_ptr<Machine> m = makeMachine(w.prog, w.options, w.boot);
    m->run(200'000'000);
    if (!m->halted())
        std::fprintf(stderr, "bench_network_latency: coherent16 did "
                             "not finish\n");
    m->quiesce(1'000'000);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    Rng rng(7);
    std::string json = "{\"bench\":\"network_latency\",\"quick\":";
    json += quick ? "true" : "false";

    std::printf("Unloaded latency of the Table 4 network "
                "(n=3, k=20, 8000 nodes)\n\n");
    Network big({.dim = 3, .radix = 20});
    double hops = averageHops(big, quick ? 2000 : 20000, rng);
    std::printf("  measured average hops:     %6.2f  (paper: nk/3 = "
                "20)\n", hops);

    const double mem_latency = 10, packet = 4, controller = 2;
    double round_trip = 2 * hops + (packet - 1) + mem_latency +
                        controller;
    std::printf("  derived round trip:        %6.2f  (2*hops + "
                "(B-1) + mem + ctrl; paper: 55)\n\n", round_trip);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\"analytic\":{\"hops\":%.3f,\"round_trip\":%.3f}",
                  hops, round_trip);
    json += buf;

    std::printf("Loaded latency on a 2-D radix-8 mesh (4-flit "
                "packets):\n");
    std::printf("  %-22s %12s\n", "injection/node/cycle", "latency");
    json += ",\"loaded\":[";
    uint64_t load_cycles = quick ? 1000 : 4000;
    bool first = true;
    for (double rate : {0.001, 0.01, 0.03, 0.05, 0.08}) {
        double lat = loadedLatency(rate, load_cycles, 99);
        std::printf("  %-22.3f %12.1f\n", rate, lat);
        std::snprintf(buf, sizeof buf,
                      "%s{\"rate\":%.3f,\"latency\":%.3f}",
                      first ? "" : ",", rate, lat);
        json += buf;
        first = false;
    }
    json += "]";
    std::printf("\nLatency rises steeply as channel utilization "
                "saturates — the bandwidth ceiling that caps\n"
                "multithreaded utilization near 0.80 in Figure 5.\n\n");

    const workloads::Workload coh16 =
        workloads::fromSpec(quick ? "coherent16:50" : "coherent16:400");
    auto m = runCoherent16(coh16);
    Telemetry &tel = dynamic_cast<AlewifeMachine &>(*m).telemetry();
    tel.foldStats();
    std::printf("Per-class latency on the live 16-node coherent "
                "counter loop (%llu cycles):\n",
                (unsigned long long)m->cycle());
    std::printf("  %-12s %9s %9s %7s %7s %7s %7s\n", "class", "sent",
                "delivered", "mean", "p50", "p90", "p99");
    json += ",\"classes\":[";
    first = true;
    for (size_t c = 0; c < tel.numClasses(); ++c) {
        const stats::Histogram &h = tel.classLatency(c);
        if (!tel.classSent(c) && !h.count())
            continue;
        std::printf("  %-12s %9llu %9llu %7.1f %7llu %7llu %7llu\n",
                    tel.className(c).c_str(),
                    (unsigned long long)tel.classSent(c),
                    (unsigned long long)tel.classDelivered(c),
                    h.mean(),
                    (unsigned long long)histPercentile(h, 0.50),
                    (unsigned long long)histPercentile(h, 0.90),
                    (unsigned long long)histPercentile(h, 0.99));
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"sent\":%llu,\"delivered\":%llu,"
            "\"flits\":%llu,\"latency\":{\"count\":%llu,"
            "\"mean\":%.3f,\"min\":%lld,\"max\":%lld,\"p50\":%llu,"
            "\"p90\":%llu,\"p99\":%llu}}",
            first ? "" : ",", tel.className(c).c_str(),
            (unsigned long long)tel.classSent(c),
            (unsigned long long)tel.classDelivered(c),
            (unsigned long long)tel.classFlits(c),
            (unsigned long long)h.count(), h.mean(),
            (long long)(h.count() ? h.min() : 0),
            (long long)(h.count() ? h.max() : 0),
            (unsigned long long)histPercentile(h, 0.50),
            (unsigned long long)histPercentile(h, 0.90),
            (unsigned long long)histPercentile(h, 0.99));
        json += buf;
        first = false;
    }
    json += "]}";

    std::ofstream f("BENCH_network_latency.json");
    f << json << "\n";
    std::printf("\nwrote BENCH_network_latency.json\n");
    return 0;
}

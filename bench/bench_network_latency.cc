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
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "harness.hh"
#include "machine/alewife_machine.hh"
#include "machine/workload.hh"
#include "network/network.hh"
#include "network/telemetry.hh"

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
    static const std::vector<ClassText> classes =
        Telemetry::classText({"Packet"});
    Network n({.dim = 2, .radix = 8});
    Telemetry tel(n.numNodes(), classes, nullptr, n.maxHops());
    Rng rng(seed);
    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
        for (uint32_t node = 0; node < n.numNodes(); ++node) {
            if (rng.chance(inject_per_node)) {
                uint32_t dst = uint32_t(rng.below(n.numNodes()));
                Injection inj = n.inject(node, dst, 4, cycle);
                tel.recordDeliver(node, dst, 0, 4, inj.arrive - cycle,
                                  inj.hops);
            }
        }
    }
    n.foldStats(tel);
    return n.statLatency.mean();
}

/** Run the 16-node coherent counter loop of @p w, which must
 *  outlive the machine, and drain its in-flight traffic. */
std::unique_ptr<Machine>
runCoherent16(const workloads::Workload &w)
{
    std::unique_ptr<Machine> m = makeMachine(w.prog, w.options, w.boot);
    bench::runToHalt(*m, 200'000'000, "coherent16");
    m->quiesce(1'000'000);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv);
    const bool quick = session.quick;
    Rng rng(7);

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

    std::printf("Loaded latency on a 2-D radix-8 mesh (4-flit "
                "packets):\n");
    std::printf("  %-22s %12s\n", "injection/node/cycle", "latency");
    uint64_t load_cycles = quick ? 1000 : 4000;
    std::vector<std::pair<double, double>> loaded;
    for (double rate : {0.001, 0.01, 0.03, 0.05, 0.08}) {
        double lat = loadedLatency(rate, load_cycles, 99);
        std::printf("  %-22.3f %12.1f\n", rate, lat);
        loaded.emplace_back(rate, lat);
    }
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
    std::vector<size_t> classes;    // those that saw traffic
    for (size_t c = 0; c < tel.numClasses(); ++c) {
        const stats::Histogram &h = tel.classLatency(c);
        if (!tel.classSent(c) && !h.count())
            continue;
        classes.push_back(c);
        std::printf("  %-12s %9llu %9llu %7.1f %7llu %7llu %7llu\n",
                    tel.className(c).c_str(),
                    (unsigned long long)tel.classSent(c),
                    (unsigned long long)tel.classDelivered(c),
                    h.mean(), (unsigned long long)h.percentile(0.50),
                    (unsigned long long)h.percentile(0.90),
                    (unsigned long long)h.percentile(0.99));
    }

    session.emit("network_latency", [&](json::Writer &w) {
        w.key("analytic")
            .beginObject()
            .field("hops", hops)
            .field("round_trip", round_trip)
            .endObject();
        w.key("loaded").beginArray();
        for (const auto &[rate, lat] : loaded)
            w.beginObject()
                .field("rate", rate)
                .field("latency", lat)
                .endObject();
        w.endArray().key("classes").beginArray();
        for (size_t c : classes) {
            const stats::Histogram &h = tel.classLatency(c);
            w.beginObject()
                .field("name", tel.className(c))
                .field("sent", tel.classSent(c))
                .field("delivered", tel.classDelivered(c))
                .field("flits", tel.classFlits(c))
                .key("latency")
                .beginObject()
                .field("count", h.count())
                .field("mean", h.mean())
                .field("min", h.count() ? h.min() : 0)
                .field("max", h.count() ? h.max() : 0)
                .field("p50", h.percentile(0.50))
                .field("p90", h.percentile(0.90))
                .field("p99", h.percentile(0.99))
                .endObject()
                .endObject();
        }
        w.endArray();
    });
    return 0;
}

#include "network/network.hh"

#include <cmath>

#include "common/logging.hh"
#include "network/telemetry.hh"

namespace april::net
{

Network::Network(const NetworkParams &p, stats::Group *parent)
    : stats::Group("network", parent),
      statPackets(this, "packets", "packets delivered"),
      statFlitHops(this, "flitHops", "flit-hops consumed"),
      statLatency(this, "latency", "send-to-delivery latency"),
      statHops(this, "hops", "hops per packet"),
      params(p)
{
    if (p.dim <= 0 || p.radix <= 1)
        fatal("Network: need dim >= 1 and radix >= 2");
    _numNodes = 1;
    for (int d = 0; d < p.dim; ++d) {
        uint64_t next = uint64_t(_numNodes) * uint32_t(p.radix);
        if (next > (1u << 24))
            fatal("Network: too many nodes");
        _numNodes = uint32_t(next);
    }
    ports.resize(_numNodes);
    for (SrcPort &port : ports)
        port.linkBusyUntil.assign(2 * size_t(p.dim), 0);
}

int
Network::coord(uint32_t node, int d) const
{
    for (int i = 0; i < d; ++i)
        node /= uint32_t(params.radix);
    return int(node % uint32_t(params.radix));
}

uint32_t
Network::distance(uint32_t a, uint32_t b) const
{
    uint32_t hops = 0;
    for (int d = 0; d < params.dim; ++d)
        hops += uint32_t(std::abs(coord(a, d) - coord(b, d)));
    return hops;
}

uint32_t
Network::unloadedRoundTrip(uint32_t a, uint32_t b, uint32_t flits) const
{
    // Each direction: hops switch traversals plus packet drain time.
    uint32_t one_way = distance(a, b) * params.hopCycles + (flits - 1);
    return 2 * one_way;
}

Injection
Network::inject(uint32_t src, uint32_t dst, uint32_t flits,
                uint64_t now)
{
    if (src >= _numNodes || dst >= _numNodes)
        panic("Network: bad endpoint ", src, "->", dst);
    if (flits == 0)
        panic("Network: empty packet");
    SrcPort &port = ports[src];
    // Dimension-order routing: the first hop leaves along the lowest
    // dimension whose coordinate differs. Local traffic (src == dst)
    // never reaches the network, so link 0 is a safe placeholder.
    uint32_t link = 0;
    for (int d = 0; d < params.dim; ++d) {
        int from = coord(src, d);
        int to = coord(dst, d);
        if (from != to) {
            link = 2 * uint32_t(d) + (to > from ? 1 : 0);
            break;
        }
    }
    uint64_t &busy = port.linkBusyUntil[link];
    Injection inj;
    inj.start = std::max(now, busy);
    inj.hops = distance(src, dst);
    inj.arrive = inj.start + uint64_t(inj.hops) * params.hopCycles +
                 flits;
    inj.seq = port.seq++;
    busy = inj.start + flits;
    return inj;
}

Injection
Network::injectUncontended(uint32_t src, uint32_t dst, uint32_t flits,
                           uint64_t now)
{
    if (src >= _numNodes || dst >= _numNodes)
        panic("Network: bad endpoint ", src, "->", dst);
    Injection inj;
    inj.start = now;
    inj.hops = distance(src, dst);
    inj.arrive = now + uint64_t(inj.hops) * params.hopCycles + flits;
    inj.seq = ports[src].seq++;
    return inj;
}

void
Network::foldStats(const Telemetry &t)
{
    // Sums of integers well below 2^53: exact in double.
    const Telemetry::Deliveries d = t.deliveries();
    statPackets = double(d.packets);
    statFlitHops = double(d.flitHops);
    statLatency.set(double(d.latencySum), d.packets);
    statHops.set(double(d.hopSum), d.packets);
}

} // namespace april::net

/**
 * @file
 * The k-ary n-cube (mesh) of Section 2.1, modeled at its endpoints.
 *
 * Topology: n dimensions of radix k, bidirectional mesh links,
 * dimension-order distances. Timing is computed at injection time
 * (a source-link contention model):
 *
 *   start   = max(now, first-hop link free)
 *   arrival = start + distance * hopCycles + flits
 *
 * Each node owns one injection port per outgoing link (2 * dim of
 * them), chosen by the packet's dimension-order first hop; a packet
 * of B flits occupies that link for B cycles, which is where
 * back-to-back send queueing comes from, while packets leaving in
 * different directions pipeline in parallel — matching the wormhole
 * behaviour at the hop that actually saturates (a home node fanning
 * out replies). Contention at interior links is not modeled; for the
 * coherence traffic the machine generates, first-link serialization
 * dominates and the zero-load latency matches the cut-through
 * pipeline (hops * hopCycles switch traversals plus the packet drain
 * time).
 *
 * Computing the arrival cycle at injection is what makes the
 * parallel execution engine possible (DESIGN.md §7.6): a packet's
 * delivery time is known the moment it is sent, every cross-node
 * latency is at least hopCycles + flits, and so shards can advance a
 * whole quantum without observing each other. There is no per-cycle
 * network tick at all; the machine owns the per-node arrival queues
 * and asks this class only for timing, topology, and statistics.
 *
 * The network group's delivery statistics are folded from the
 * machine's Telemetry blocks (foldStats()), the one per-node account
 * of delivered messages.
 */

#ifndef APRIL_NETWORK_NETWORK_HH
#define APRIL_NETWORK_NETWORK_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/stats.hh"

namespace april::net
{

class Telemetry;

/** Network configuration. */
struct NetworkParams
{
    int dim = 2;                ///< n
    int radix = 4;              ///< k
    uint32_t hopCycles = 1;     ///< switch traversal delay
};

/** Timing of one injected packet. */
struct Injection
{
    uint64_t start = 0;         ///< cycle the head leaves the source
    uint64_t arrive = 0;        ///< cycle the tail drains at the dest
    uint64_t seq = 0;           ///< per-source sequence number
    uint32_t hops = 0;          ///< dimension-order distance
};

/** The mesh. */
class Network : public stats::Group
{
  public:
    explicit Network(const NetworkParams &params,
                     stats::Group *parent = nullptr);

    uint32_t numNodes() const { return _numNodes; }
    uint32_t hopCycles() const { return params.hopCycles; }

    /**
     * Inject a packet of @p flits flits at @p src headed to @p dst at
     * cycle @p now: serializes on the source injection port and
     * returns the computed timing. Only @p src's shard may call this
     * for @p src (per-source state).
     */
    Injection inject(uint32_t src, uint32_t dst, uint32_t flits,
                     uint64_t now);

    /**
     * Timing of a @p flits-flit message from @p src to @p dst that
     * occupies no injection port (an interprocessor interrupt,
     * Section 3.4): arrive = now + distance * hopCycles + flits. It
     * takes @p src's next sequence number, as inject() does. Only
     * @p src's shard may call this for @p src.
     */
    Injection injectUncontended(uint32_t src, uint32_t dst,
                                uint32_t flits, uint64_t now);

    /**
     * Recompute the stats::Group members from @p t's delivery counts.
     * Idempotent; the machine calls it at deterministic
     * synchronization points (quiesce, run exit, interval samples) so
     * dumped statistics are identical for every host-thread count.
     */
    void foldStats(const Telemetry &t);

    /**
     * The smallest possible send-to-delivery latency of a cross-node
     * packet no smaller than @p min_flits: the parallel engine's
     * quantum bound.
     */
    uint64_t
    minCrossNodeLatency(uint32_t min_flits) const
    {
        return uint64_t(params.hopCycles) + min_flits;
    }

    /** Zero-load round-trip latency between @p a and @p b. */
    uint32_t unloadedRoundTrip(uint32_t a, uint32_t b,
                               uint32_t flits) const;

    /** Manhattan distance in hops. */
    uint32_t distance(uint32_t a, uint32_t b) const;

    /** Largest distance the topology can produce: corner to corner,
     *  dim * (radix - 1) hops. Sizes per-hop-distance telemetry. */
    uint32_t
    maxHops() const
    {
        return uint32_t(params.dim) * uint32_t(params.radix - 1);
    }

    stats::Scalar statPackets;
    stats::Scalar statFlitHops;
    stats::Average statLatency;     ///< send-to-delivery cycles
    stats::Average statHops;

  private:
    /** Per-source injection state, one busy time per outgoing link
     *  (owned by the source's shard). */
    struct alignas(64) SrcPort
    {
        /// Indexed by 2 * dimension + direction of the first hop.
        std::vector<uint64_t> linkBusyUntil;
        uint64_t seq = 0;
    };

    int coord(uint32_t node, int d) const;

    NetworkParams params;
    uint32_t _numNodes;
    std::vector<SrcPort> ports;
};

} // namespace april::net

#endif // APRIL_NETWORK_NETWORK_HH

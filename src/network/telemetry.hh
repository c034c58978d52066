/**
 * @file
 * Network telemetry: per-node-pair message counts/flits by message
 * class, send-to-delivery latency histograms per class, and an
 * in-flight gauge — the mesh-hotspot evidence for the ROADMAP's
 * hop-based-routing work.
 *
 * The class vocabulary is injected by the enclosing machine as a
 * table of class text (like trace::RecorderConfig::trapNames), so
 * this library stays independent of the coherence protocol.
 *
 * It is the machine's one account of delivered messages: the network
 * group's packet, flit-hop, latency and hop statistics fold from the
 * same blocks (Network::foldStats).
 *
 * Sends accumulate into the source node's block of counters (owned by
 * the sending shard), deliveries into the destination node's block
 * (owned by the delivering shard), and foldStats() recomputes the
 * stats::Group members in canonical node order at deterministic
 * synchronization points — identical for every host-thread count and
 * with cycle-skipping on or off.
 */

#ifndef APRIL_NETWORK_TELEMETRY_HH
#define APRIL_NETWORK_TELEMETRY_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace april::net
{

/**
 * The statistic text of one message class: its name and the text of
 * its sent<Class>, delivered<Class>, flits<Class> and latency<Class>
 * statistics. Whoever injects the class vocabulary builds the table
 * once per process with Telemetry::classText() and keeps it for the
 * process (messageClasses() in machine/trace_config.hh).
 */
struct ClassText
{
    std::string name;
    stats::FamilyText sent;
    stats::FamilyText delivered;
    stats::FamilyText flits;
    stats::FamilyText latency;
};

/** Per-class, per-node-pair accounting of machine messages. */
class Telemetry : public stats::Group
{
  public:
    /// Nodes above this count drop the O(nodes^2 x classes) per-pair
    /// matrices (at 1024 nodes they alone would cost ~180 MB); the
    /// per-class and per-hop-distance aggregates stay on at any scale.
    static constexpr uint32_t kPairMatrixMaxNodes = 256;

    /** The statistic text of the class vocabulary @p names. */
    static std::vector<ClassText>
    classText(const std::vector<std::string> &names);

    /**
     * @param classes the message classes' text; must outlive the
     *        telemetry (a table built once per process)
     * @param max_hops largest hop distance the topology can produce
     *        (mesh: dim * (radix - 1)); sizes the per-distance
     *        latency histograms. 0 keeps only the aggregate ones.
     */
    Telemetry(uint32_t num_nodes, std::span<const ClassText> classes,
              stats::Group *parent = nullptr, uint32_t max_hops = 0);

    /** Account one message of class @p cls injected into the network
     *  at @p src. Only @p src's shard may call this for @p src. */
    void recordSend(uint32_t src, uint8_t cls)
    {
        ++block(src)[layout.sent + cls];
    }

    /** Account one message delivered at @p dst after @p latency
     *  cycles over @p hops mesh hops. Only @p dst's shard may call
     *  this for @p dst. */
    void recordDeliver(uint32_t src, uint32_t dst, uint8_t cls,
                       uint32_t flits, uint64_t latency,
                       uint32_t hops = 0);

    /**
     * Recompute the stats::Group members from the per-node blocks in
     * canonical node order. Idempotent; the machine calls it at
     * deterministic synchronization points.
     */
    void foldStats();

    /** Totals over every delivered message, read from the raw blocks
     *  (no fold required). */
    struct Deliveries
    {
        uint64_t packets = 0;
        uint64_t flitHops = 0;      ///< flits x hops
        uint64_t latencySum = 0;    ///< send-to-delivery cycles
        uint64_t hopSum = 0;        ///< hops, each capped at maxHops()
    };
    Deliveries deliveries() const;

    uint32_t numNodes() const { return nodes; }
    size_t numClasses() const { return classes.size(); }
    const std::string &className(size_t c) const
    {
        return classes[c].name;
    }

    /** @return true when the per-pair matrices are tracked (nodes <=
     *  kPairMatrixMaxNodes); pairCount/pairFlits read 0 otherwise. */
    bool hasPairMatrix() const { return pairMatrix; }

    /** Messages delivered src -> dst of class @p cls (post-fold not
     *  required: reads the raw block). */
    uint64_t
    pairCount(uint32_t src, uint32_t dst, uint8_t cls) const
    {
        if (!pairMatrix)
            return 0;
        return block(dst)[layout.pairCount + src * numClasses() + cls];
    }

    uint64_t
    pairFlits(uint32_t src, uint32_t dst, uint8_t cls) const
    {
        if (!pairMatrix)
            return 0;
        return block(dst)[layout.pairFlits + src * numClasses() + cls];
    }

    /** Largest hop distance the per-distance histograms cover. */
    uint32_t maxHops() const { return maxHops_; }

    /** Send-to-delivery latency of messages that crossed exactly
     *  @p hops mesh hops (post-fold). Requires hops <= maxHops(). */
    const stats::Histogram &hopLatency(uint32_t hops) const
    {
        return statHopLatency[hops];
    }

    uint64_t classSent(size_t c) const { return sumOver(layout.sent + c); }
    uint64_t classDelivered(size_t c) const
    {
        return sumOver(layout.count + c);
    }
    uint64_t classFlits(size_t c) const
    {
        return sumOver(layout.flits + c);
    }
    const stats::Histogram &classLatency(size_t c) const
    {
        return statLatency[c];
    }

    /// Total messages handed to the network / delivered (post-fold).
    stats::Scalar statSent;
    stats::Scalar statDelivered;
    /// Sent-but-undelivered gauge on the IntervalSampler grid.
    stats::Scalar statInFlight;
    /// Mesh hop distance of every delivered message (post-fold) —
    /// the traffic-locality curve of the dimension-ordered mesh.
    stats::Histogram statHops;

  private:
    /// Bytes in a cache line. A node's block is whole lines, so the
    /// shards that own different nodes never share a line.
    static constexpr size_t kLineBytes = 64;

    /** Frees the counter blocks (std::aligned_alloc storage). */
    struct FreeBlocks
    {
        void operator()(uint64_t *p) const { std::free(p); }
    };

    /**
     * Where each counter array sits in a node's block, in words.
     * Sends count in the sender's block, deliveries in the receiver's.
     * The latency minima and maxima hold int64_t values.
     */
    struct Layout
    {
        size_t sent = 0;        ///< [class] messages sent
        size_t count = 0;       ///< [class] messages delivered
        size_t flits = 0;       ///< [class]
        size_t latSum = 0;      ///< [class]
        size_t latMin = 0;      ///< [class]
        size_t latMax = 0;      ///< [class]
        size_t buckets = 0;     ///< [class][latency bucket]
        size_t pairCount = 0;   ///< [src][class]
        size_t pairFlits = 0;   ///< [src][class]
        size_t hopCount = 0;    ///< [hop distance]
        size_t hopLatSum = 0;   ///< [hop distance]
        size_t hopLatMin = 0;   ///< [hop distance]
        size_t hopLatMax = 0;   ///< [hop distance]
        size_t hopBuckets = 0;  ///< [hop distance][latency bucket]
        size_t flitHops = 0;    ///< flits x hops delivered
        size_t words = 0;       ///< block size, whole lines
    };

    uint64_t *block(uint32_t node)
    {
        return blocks.get() + size_t(node) * layout.words;
    }
    const uint64_t *block(uint32_t node) const
    {
        return blocks.get() + size_t(node) * layout.words;
    }

    /** Word @p at summed over every node's block. */
    uint64_t sumOver(size_t at) const;

    uint32_t nodes;
    uint32_t maxHops_ = 0;
    bool pairMatrix = true;
    std::span<const ClassText> classes;
    Layout layout;
    /// Every node's block, one line-aligned allocation.
    std::unique_ptr<uint64_t[], FreeBlocks> blocks;

    /// Text of the hop distances past the process-wide table
    /// (topologies wider than any in the repository). Reserved once,
    /// so the strings the stats view never move; declared before the
    /// stats.
    std::vector<stats::FamilyText> wideHopText;

    // Per-class folded statistics, reserved up front: stats register
    // their address with the Group, so they must never move.
    std::vector<stats::Scalar> statClassSent;
    std::vector<stats::Scalar> statClassDelivered;
    std::vector<stats::Scalar> statClassFlits;
    std::vector<stats::Histogram> statLatency;
    /// [hop distance] send-to-delivery latency histograms.
    std::vector<stats::Histogram> statHopLatency;
};

} // namespace april::net

#endif // APRIL_NETWORK_TELEMETRY_HH

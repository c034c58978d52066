#include "network/telemetry.hh"

#include <algorithm>
#include <limits>
#include <new>

namespace april::net
{

namespace
{

constexpr size_t kBuckets = stats::Histogram::kDefaultBuckets;
constexpr uint64_t kNoMin = uint64_t(std::numeric_limits<int64_t>::max());
constexpr uint64_t kNoMax = uint64_t(std::numeric_limits<int64_t>::min());

/** Hop distances the process-wide text table covers: every mesh in the
 *  repository (a 32x32 mesh spans 62 hops). */
constexpr size_t kNamedHops = 64;

stats::FamilyText
hopText(size_t h)
{
    const std::string hops = std::to_string(h);
    return {"latencyHops" + hops,
            "send-to-delivery cycles at hop distance " + hops};
}

/** latencyHops<h> statistic text, built once per process. */
const std::vector<stats::FamilyText> &
namedHopText()
{
    static const std::vector<stats::FamilyText> table = [] {
        std::vector<stats::FamilyText> t;
        for (size_t h = 0; h < kNamedHops; ++h)
            t.push_back(hopText(h));
        return t;
    }();
    return table;
}

} // namespace

std::vector<ClassText>
Telemetry::classText(const std::vector<std::string> &names)
{
    std::vector<ClassText> table;
    for (const std::string &name : names) {
        table.push_back({name,
                         {"sent" + name, name + " messages sent"},
                         {"delivered" + name, name + " messages delivered"},
                         {"flits" + name, name + " flits delivered"},
                         {"latency" + name,
                          name + " send-to-delivery cycles"}});
    }
    return table;
}

Telemetry::Telemetry(uint32_t num_nodes,
                     std::span<const ClassText> classes_,
                     stats::Group *parent, uint32_t max_hops)
    : stats::Group("telemetry", parent),
      statSent(this, "sent", "messages handed to the network"),
      statDelivered(this, "delivered", "messages delivered"),
      statInFlight(this, "inFlight",
                   "messages sent but not yet delivered"),
      statHops(this, "hops",
               "mesh hop distance of delivered messages"),
      nodes(num_nodes), maxHops_(max_hops),
      pairMatrix(num_nodes <= kPairMatrixMaxNodes), classes(classes_)
{
    const size_t n_classes = classes.size();
    const size_t hop_slots = size_t(maxHops_) + 1;
    const size_t pair_words = pairMatrix ? size_t(nodes) * n_classes : 0;
    size_t words = 0;
    auto place = [&words](size_t &at, size_t n) {
        at = words;
        words += n;
    };
    place(layout.sent, n_classes);
    place(layout.count, n_classes);
    place(layout.flits, n_classes);
    place(layout.latSum, n_classes);
    place(layout.latMin, n_classes);
    place(layout.latMax, n_classes);
    place(layout.buckets, n_classes * kBuckets);
    place(layout.pairCount, pair_words);
    place(layout.pairFlits, pair_words);
    place(layout.hopCount, hop_slots);
    place(layout.hopLatSum, hop_slots);
    place(layout.hopLatMin, hop_slots);
    place(layout.hopLatMax, hop_slots);
    place(layout.hopBuckets, hop_slots * kBuckets);
    place(layout.flitHops, 1);
    constexpr size_t kLineWords = kLineBytes / sizeof(uint64_t);
    layout.words = (words + kLineWords - 1) / kLineWords * kLineWords;
    const size_t total = size_t(nodes) * layout.words;
    blocks.reset(static_cast<uint64_t *>(
        std::aligned_alloc(kLineBytes, total * sizeof(uint64_t))));
    if (!blocks && total)
        throw std::bad_alloc();
    std::fill_n(blocks.get(), total, 0);
    for (uint32_t n = 0; n < nodes; ++n) {
        uint64_t *b = block(n);
        std::fill_n(b + layout.latMin, n_classes, kNoMin);
        std::fill_n(b + layout.latMax, n_classes, kNoMax);
        std::fill_n(b + layout.hopLatMin, hop_slots, kNoMin);
        std::fill_n(b + layout.hopLatMax, hop_slots, kNoMax);
    }

    statClassSent.reserve(n_classes);
    statClassDelivered.reserve(n_classes);
    statClassFlits.reserve(n_classes);
    statLatency.reserve(n_classes);
    for (const ClassText &c : classes) {
        statClassSent.emplace_back(this, c.sent.nameText(),
                                   c.sent.descText());
        statClassDelivered.emplace_back(this, c.delivered.nameText(),
                                        c.delivered.descText());
        statClassFlits.emplace_back(this, c.flits.nameText(),
                                    c.flits.descText());
        statLatency.emplace_back(this, c.latency.nameText(),
                                 c.latency.descText());
    }
    if (hop_slots > kNamedHops) {
        wideHopText.reserve(hop_slots - kNamedHops);
        for (size_t h = kNamedHops; h < hop_slots; ++h)
            wideHopText.push_back(hopText(h));
    }
    statHopLatency.reserve(hop_slots);
    for (size_t h = 0; h < hop_slots; ++h) {
        const stats::FamilyText &t = h < kNamedHops
                                         ? namedHopText()[h]
                                         : wideHopText[h - kNamedHops];
        statHopLatency.emplace_back(this, t.nameText(), t.descText());
    }
}

void
Telemetry::recordDeliver(uint32_t src, uint32_t dst, uint8_t cls,
                         uint32_t flits, uint64_t latency,
                         uint32_t hops)
{
    uint64_t *b = block(dst);
    ++b[layout.count + cls];
    b[layout.flits + cls] += flits;
    b[layout.latSum + cls] += latency;
    auto lat = int64_t(latency);
    uint64_t &lat_min = b[layout.latMin + cls];
    uint64_t &lat_max = b[layout.latMax + cls];
    lat_min = uint64_t(std::min(int64_t(lat_min), lat));
    lat_max = uint64_t(std::max(int64_t(lat_max), lat));
    const size_t bucket = stats::Histogram::logBucket(lat, kBuckets);
    ++b[layout.buckets + size_t(cls) * kBuckets + bucket];
    if (pairMatrix) {
        ++b[layout.pairCount + size_t(src) * numClasses() + cls];
        b[layout.pairFlits + size_t(src) * numClasses() + cls] += flits;
    }
    uint32_t h = std::min(hops, maxHops_);
    ++b[layout.hopCount + h];
    b[layout.hopLatSum + h] += latency;
    uint64_t &hop_min = b[layout.hopLatMin + h];
    uint64_t &hop_max = b[layout.hopLatMax + h];
    hop_min = uint64_t(std::min(int64_t(hop_min), lat));
    hop_max = uint64_t(std::max(int64_t(hop_max), lat));
    ++b[layout.hopBuckets + size_t(h) * kBuckets + bucket];
    b[layout.flitHops] += uint64_t(flits) * hops;
}

uint64_t
Telemetry::sumOver(size_t at) const
{
    uint64_t total = 0;
    for (uint32_t n = 0; n < nodes; ++n)
        total += block(n)[at];
    return total;
}

Telemetry::Deliveries
Telemetry::deliveries() const
{
    Deliveries d;
    for (uint32_t n = 0; n < nodes; ++n) {
        const uint64_t *b = block(n);
        for (size_t c = 0; c < numClasses(); ++c) {
            d.packets += b[layout.count + c];
            d.latencySum += b[layout.latSum + c];
        }
        for (uint32_t h = 0; h <= maxHops_; ++h)
            d.hopSum += uint64_t(h) * b[layout.hopCount + h];
        d.flitHops += b[layout.flitHops];
    }
    return d;
}

void
Telemetry::foldStats()
{
    uint64_t sent_total = 0;
    uint64_t delivered_total = 0;
    std::vector<uint64_t> buckets(kBuckets);

    // Folds one [key] slice of every node's block: count, latency sum,
    // extremes and latency buckets, into @p hist. Returns the count.
    auto foldLatency = [&](stats::Histogram &hist, size_t count_at,
                           size_t sum_at, size_t min_at, size_t max_at,
                           size_t buckets_at) {
        uint64_t count = 0;
        uint64_t lat_sum = 0;
        int64_t lat_min = std::numeric_limits<int64_t>::max();
        int64_t lat_max = std::numeric_limits<int64_t>::min();
        std::fill(buckets.begin(), buckets.end(), 0);
        for (uint32_t n = 0; n < nodes; ++n) {
            const uint64_t *b = block(n);
            count += b[count_at];
            lat_sum += b[sum_at];
            lat_min = std::min(lat_min, int64_t(b[min_at]));
            lat_max = std::max(lat_max, int64_t(b[max_at]));
            for (size_t i = 0; i < kBuckets; ++i)
                buckets[i] += b[buckets_at + i];
        }
        hist.set(buckets, count, double(lat_sum), lat_min, lat_max);
        return count;
    };

    for (size_t c = 0; c < numClasses(); ++c) {
        const uint64_t sent = classSent(c);
        const uint64_t delivered = foldLatency(
            statLatency[c], layout.count + c, layout.latSum + c,
            layout.latMin + c, layout.latMax + c,
            layout.buckets + c * kBuckets);
        statClassSent[c] = double(sent);
        statClassDelivered[c] = double(delivered);
        statClassFlits[c] = double(classFlits(c));
        sent_total += sent;
        delivered_total += delivered;
    }
    statSent = double(sent_total);
    statDelivered = double(delivered_total);
    statInFlight = double(sent_total - delivered_total);

    // Per-hop-distance aggregates: one latency histogram per distance
    // plus the distance distribution itself.
    std::vector<uint64_t> hop_dist_buckets(kBuckets, 0);
    uint64_t hop_msgs = 0;
    uint64_t hop_sum = 0;
    int64_t hop_min = std::numeric_limits<int64_t>::max();
    int64_t hop_max = std::numeric_limits<int64_t>::min();
    for (uint32_t h = 0; h <= maxHops_; ++h) {
        const uint64_t count = foldLatency(
            statHopLatency[h], layout.hopCount + h, layout.hopLatSum + h,
            layout.hopLatMin + h, layout.hopLatMax + h,
            layout.hopBuckets + size_t(h) * kBuckets);
        if (count) {
            hop_dist_buckets[stats::Histogram::logBucket(
                int64_t(h), kBuckets)] += count;
            hop_msgs += count;
            hop_sum += uint64_t(h) * count;
            hop_min = std::min(hop_min, int64_t(h));
            hop_max = std::max(hop_max, int64_t(h));
        }
    }
    statHops.set(hop_dist_buckets, hop_msgs, double(hop_sum), hop_min,
                 hop_max);
}

} // namespace april::net

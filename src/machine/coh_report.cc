#include "machine/coh_report.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

#include "coherence/protocol.hh"

namespace april
{

namespace
{

/** Histogram totals folded across controllers. */
struct HistAgg
{
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0;
    int64_t min = std::numeric_limits<int64_t>::max();
    int64_t max = std::numeric_limits<int64_t>::min();

    void
    add(const stats::Histogram &h)
    {
        buckets.resize(std::max(buckets.size(), h.numBuckets()), 0);
        for (size_t b = 0; b < h.numBuckets(); ++b)
            buckets[b] += h.bucketCount(b);
        count += h.count();
        sum += h.sum();
        if (h.count()) {
            min = std::min(min, h.min());
            max = std::max(max, h.max());
        }
    }

    double mean() const { return count ? sum / double(count) : 0.0; }

    /** The shared rule: stats::logPercentile. */
    uint64_t
    percentile(double q) const
    {
        return stats::logPercentile(buckets, count, max, q);
    }
};

void
writeHistJson(std::ostream &os, const HistAgg &h)
{
    os << "{\"count\":" << h.count << ",\"mean\":" << h.mean()
       << ",\"min\":" << (h.count ? h.min : 0)
       << ",\"max\":" << (h.count ? h.max : 0)
       << ",\"p50\":" << h.percentile(0.50)
       << ",\"p90\":" << h.percentile(0.90)
       << ",\"p99\":" << h.percentile(0.99) << ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b)
        os << (b ? "," : "") << h.buckets[b];
    os << "]}";
}

/** One home line's census plus where it lives. */
struct LineEntry
{
    Addr line = 0;
    uint32_t home = 0;
    coh::Controller::LineCensus c;
};

/** One node pair's traffic summed over classes. */
struct PairEntry
{
    uint32_t src = 0;
    uint32_t dst = 0;
    uint64_t count = 0;
    uint64_t flits = 0;
};

/** Everything the text and JSON writers share. */
struct ReportData
{
    uint64_t cycles = 0;
    uint32_t nodes = 0;
    HistAgg sharerCount;
    HistAgg invPerWrite;
    std::vector<uint64_t> dirTransitions;   ///< [old * 3 + new]
    uint64_t invSent = 0;
    uint64_t invAcked = 0;
    uint64_t overflowTraps = 0;     ///< limited-directory spills
    uint64_t spilledPtrs = 0;
    uint64_t spillWalks = 0;
    std::vector<LineEntry> hottest;
    std::vector<LineEntry> widest;
    std::vector<PairEntry> pairs;
    std::vector<coh::TxnRecord> slowest;
    uint64_t txnTotal = 0;      ///< transactions in the trace
    uint64_t txnDropped = 0;    ///< legs lost to the capacity cap
    bool traced = false;        ///< cohTrace was on
};

ReportData
gather(AlewifeMachine &m, const CohReportOptions &opts)
{
    m.telemetry().foldStats();

    ReportData d;
    d.cycles = m.cycle();
    d.nodes = m.numNodes();
    d.dirTransitions.assign(size_t(coh::kNumDirStates) *
                                coh::kNumDirStates,
                            0);

    std::vector<LineEntry> lines;
    for (uint32_t n = 0; n < d.nodes; ++n) {
        coh::Controller &c = m.controller(n);
        d.sharerCount.add(c.statSharerCount);
        d.invPerWrite.add(c.statInvPerWrite);
        for (size_t t = 0; t < d.dirTransitions.size(); ++t)
            d.dirTransitions[t] +=
                uint64_t(c.statDirTransitions[t].value());
        d.invSent += uint64_t(c.statInvSent.value());
        d.invAcked += uint64_t(c.statInvAcks.value());
        d.overflowTraps += uint64_t(c.statOverflowTraps.value());
        d.spilledPtrs += uint64_t(c.statSpilledPtrs.value());
        d.spillWalks += uint64_t(c.statSpillWalks.value());
        c.forEachLineCensus(
            [&](Addr line, const coh::Controller::LineCensus &census) {
                lines.push_back({line, n, census});
            });
    }

    d.hottest = lines;
    std::sort(d.hottest.begin(), d.hottest.end(),
              [](const LineEntry &a, const LineEntry &b) {
                  if (a.c.transitions != b.c.transitions)
                      return a.c.transitions > b.c.transitions;
                  return a.line < b.line;
              });
    d.hottest.resize(std::min(d.hottest.size(), opts.topLines));

    d.widest = std::move(lines);
    std::sort(d.widest.begin(), d.widest.end(),
              [](const LineEntry &a, const LineEntry &b) {
                  if (a.c.maxSharers != b.c.maxSharers)
                      return a.c.maxSharers > b.c.maxSharers;
                  if (a.c.transitions != b.c.transitions)
                      return a.c.transitions > b.c.transitions;
                  return a.line < b.line;
              });
    d.widest.resize(std::min(d.widest.size(), opts.topSharers));

    // The per-pair matrices are dropped above
    // Telemetry::kPairMatrixMaxNodes (O(nodes^2) memory); the report
    // then simply has no busiest-pairs table.
    const net::Telemetry &tel = m.telemetry();
    for (uint32_t src = 0; tel.hasPairMatrix() && src < d.nodes;
         ++src) {
        for (uint32_t dst = 0; dst < d.nodes; ++dst) {
            PairEntry p{src, dst, 0, 0};
            for (size_t c = 0; c < tel.numClasses(); ++c) {
                p.count += tel.pairCount(src, dst, uint8_t(c));
                p.flits += tel.pairFlits(src, dst, uint8_t(c));
            }
            if (p.count)
                d.pairs.push_back(p);
        }
    }
    std::sort(d.pairs.begin(), d.pairs.end(),
              [](const PairEntry &a, const PairEntry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.dst < b.dst;
              });
    d.pairs.resize(std::min(d.pairs.size(), opts.topPairs));

    if (coh::TxnTracer *t = m.txnTracer()) {
        d.traced = true;
        d.txnDropped = t->dropped();
        std::vector<coh::TxnRecord> txns =
            coh::summarizeTransactions(*t);
        d.txnTotal = txns.size();
        std::erase_if(txns,
                      [](const coh::TxnRecord &r) { return !r.complete; });
        std::sort(txns.begin(), txns.end(),
                  [](const coh::TxnRecord &a, const coh::TxnRecord &b) {
                      if (a.latency() != b.latency())
                          return a.latency() > b.latency();
                      return a.id < b.id;
                  });
        txns.resize(std::min(txns.size(), opts.topTxns));
        d.slowest = std::move(txns);
    }
    return d;
}

/** "dirUncachedToShared" and friends, indexed old * 3 + new. */
std::string
transitionName(size_t idx)
{
    auto old_state = coh::DirState(idx / coh::kNumDirStates);
    auto new_state = coh::DirState(idx % coh::kNumDirStates);
    return std::string("dir") + coh::dirStateName(old_state) + "To" +
           coh::dirStateName(new_state);
}

} // namespace

void
writeCohReportJson(std::ostream &os, AlewifeMachine &machine,
                   const CohReportOptions &opts)
{
    ReportData d = gather(machine, opts);
    const net::Telemetry &tel = machine.telemetry();

    os << "{\"schemaVersion\":1,\"machine\":{\"nodes\":" << d.nodes
       << ",\"cycles\":" << d.cycles << "},";

    os << "\"sharerDistribution\":";
    writeHistJson(os, d.sharerCount);
    os << ",\"invPerWrite\":";
    writeHistJson(os, d.invPerWrite);

    os << ",\"dirTransitions\":{";
    for (size_t t = 0; t < d.dirTransitions.size(); ++t) {
        os << (t ? "," : "") << "\"" << transitionName(t)
           << "\":" << d.dirTransitions[t];
    }
    os << "}";

    os << ",\"spills\":{\"overflowTraps\":" << d.overflowTraps
       << ",\"spilledPtrs\":" << d.spilledPtrs
       << ",\"spillWalks\":" << d.spillWalks << "}";

    os << ",\"classes\":[";
    for (size_t c = 0; c < tel.numClasses(); ++c) {
        HistAgg lat;
        lat.add(tel.classLatency(c));
        os << (c ? ",\n" : "\n") << "{\"name\":\"" << tel.className(c)
           << "\",\"sent\":" << tel.classSent(c)
           << ",\"delivered\":" << tel.classDelivered(c)
           << ",\"flits\":" << tel.classFlits(c) << ",\"latency\":";
        writeHistJson(os, lat);
        os << "}";
    }
    os << "]";

    os << ",\"hopLatency\":[";
    bool first_hop = true;
    for (uint32_t h = 0; h <= tel.maxHops(); ++h) {
        const stats::Histogram &lat = tel.hopLatency(h);
        if (!lat.count())
            continue;
        HistAgg agg;
        agg.add(lat);
        os << (first_hop ? "\n" : ",\n") << "{\"hops\":" << h
           << ",\"latency\":";
        writeHistJson(os, agg);
        os << "}";
        first_hop = false;
    }
    os << "]";

    os << ",\"hottestLines\":[";
    for (size_t i = 0; i < d.hottest.size(); ++i) {
        const LineEntry &e = d.hottest[i];
        os << (i ? ",\n" : "\n") << "{\"line\":" << e.line
           << ",\"home\":" << e.home
           << ",\"transitions\":" << e.c.transitions
           << ",\"invalidations\":" << e.c.invs
           << ",\"maxSharers\":" << e.c.maxSharers << "}";
    }
    os << "]";

    os << ",\"widestLines\":[";
    for (size_t i = 0; i < d.widest.size(); ++i) {
        const LineEntry &e = d.widest[i];
        os << (i ? ",\n" : "\n") << "{\"line\":" << e.line
           << ",\"home\":" << e.home
           << ",\"maxSharers\":" << e.c.maxSharers
           << ",\"transitions\":" << e.c.transitions << "}";
    }
    os << "]";

    os << ",\"busiestPairs\":[";
    for (size_t i = 0; i < d.pairs.size(); ++i) {
        const PairEntry &p = d.pairs[i];
        os << (i ? ",\n" : "\n") << "{\"src\":" << p.src
           << ",\"dst\":" << p.dst << ",\"messages\":" << p.count
           << ",\"flits\":" << p.flits << "}";
    }
    os << "]";

    os << ",\"slowestTransactions\":[";
    for (size_t i = 0; i < d.slowest.size(); ++i) {
        const coh::TxnRecord &r = d.slowest[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << r.id
           << ",\"node\":" << r.requester << ",\"home\":" << r.home
           << ",\"line\":" << r.line
           << ",\"write\":" << (r.write ? 1 : 0)
           << ",\"issued\":" << r.issued << ",\"filled\":" << r.filled
           << ",\"latency\":" << r.latency() << ",\"invs\":" << r.invs
           << ",\"acks\":" << r.acks << "}";
    }
    os << "]";

    os << ",\"transactions\":{\"traced\":" << (d.traced ? 1 : 0)
       << ",\"total\":" << d.txnTotal
       << ",\"droppedLegs\":" << d.txnDropped << "}";

    os << ",\"balance\":{\"invSent\":" << d.invSent
       << ",\"invAcked\":" << d.invAcked
       << ",\"inFlight\":" << (d.invSent - d.invAcked)
       << ",\"ok\":" << (d.invAcked <= d.invSent ? 1 : 0) << "}}\n";
}

void
writeCohReportText(std::ostream &os, AlewifeMachine &machine,
                   const CohReportOptions &opts)
{
    ReportData d = gather(machine, opts);
    const net::Telemetry &tel = machine.telemetry();
    char buf[256];

    os << "== coherence report: " << d.nodes << " nodes, " << d.cycles
       << " cycles ==\n\n";

    os << "sharer-set width at directory transitions: count="
       << d.sharerCount.count << " mean=" << d.sharerCount.mean()
       << " max=" << (d.sharerCount.count ? d.sharerCount.max : 0)
       << "\n";
    os << "invalidations per exclusive request:       count="
       << d.invPerWrite.count << " mean=" << d.invPerWrite.mean()
       << " max=" << (d.invPerWrite.count ? d.invPerWrite.max : 0)
       << "\n\n";

    os << "directory transitions:\n";
    for (size_t t = 0; t < d.dirTransitions.size(); ++t) {
        if (!d.dirTransitions[t])
            continue;
        std::snprintf(buf, sizeof buf, "  %-26s %12" PRIu64 "\n",
                      transitionName(t).c_str(), d.dirTransitions[t]);
        os << buf;
    }

    os << "\nnetwork classes (sent/delivered/flits, latency p50/p99):\n";
    for (size_t c = 0; c < tel.numClasses(); ++c) {
        if (!tel.classSent(c))
            continue;
        HistAgg lat;
        lat.add(tel.classLatency(c));
        std::snprintf(buf, sizeof buf,
                      "  %-10s %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                      "   %6" PRIu64 " %6" PRIu64 "\n",
                      tel.className(c).c_str(), tel.classSent(c),
                      tel.classDelivered(c), tel.classFlits(c),
                      lat.percentile(0.50), lat.percentile(0.99));
        os << buf;
    }

    if (d.overflowTraps) {
        os << "\nlimited directory: " << d.overflowTraps
           << " overflow traps, " << d.spilledPtrs
           << " pointers spilled, " << d.spillWalks
           << " software table walks\n";
    }

    os << "\nper-hop-distance delivery latency (count, p50/p99):\n";
    for (uint32_t h = 0; h <= tel.maxHops(); ++h) {
        const stats::Histogram &lat = tel.hopLatency(h);
        if (!lat.count())
            continue;
        HistAgg agg;
        agg.add(lat);
        std::snprintf(buf, sizeof buf,
                      "  %2u hops %12" PRIu64 "   %6" PRIu64 " %6"
                      PRIu64 "\n",
                      h, agg.count, agg.percentile(0.50),
                      agg.percentile(0.99));
        os << buf;
    }

    os << "\nhottest lines (by directory transitions):\n";
    for (const LineEntry &e : d.hottest) {
        std::snprintf(buf, sizeof buf,
                      "  line %-10" PRIu64 " home %-4u transitions %-8"
                      PRIu64 " invs %-8" PRIu64 " maxSharers %u\n",
                      uint64_t(e.line), e.home, e.c.transitions,
                      e.c.invs, e.c.maxSharers);
        os << buf;
    }

    os << "\nwidest sharer sets:\n";
    for (const LineEntry &e : d.widest) {
        std::snprintf(buf, sizeof buf,
                      "  line %-10" PRIu64 " home %-4u maxSharers %-4u"
                      " transitions %" PRIu64 "\n",
                      uint64_t(e.line), e.home, e.c.maxSharers,
                      e.c.transitions);
        os << buf;
    }

    os << "\nbusiest node pairs:\n";
    for (const PairEntry &p : d.pairs) {
        std::snprintf(buf, sizeof buf,
                      "  %3u -> %-3u %10" PRIu64 " messages %10" PRIu64
                      " flits\n",
                      p.src, p.dst, p.count, p.flits);
        os << buf;
    }

    if (d.traced) {
        os << "\nslowest transactions (" << d.txnTotal << " traced, "
           << d.txnDropped << " legs dropped):\n";
        for (const coh::TxnRecord &r : d.slowest) {
            std::snprintf(buf, sizeof buf,
                          "  txn %" PRIx64 " %-5s line %-10" PRIu64
                          " node %-3u home %-3u latency %-8" PRIu64
                          " invs %u acks %u\n",
                          r.id, r.write ? "write" : "read",
                          uint64_t(r.line), r.requester, r.home,
                          r.latency(), r.invs, r.acks);
            os << buf;
        }
    } else {
        os << "\ntransaction tracing off (enable cohTrace for spans)\n";
    }

    os << "\ninvalidation balance: sent=" << d.invSent
       << " acked=" << d.invAcked
       << " inFlight=" << (d.invSent - d.invAcked)
       << (d.invAcked <= d.invSent ? " ok" : " VIOLATION") << "\n";
}

std::string
checkCohInvariants(const coh::TxnTracer &tracer)
{
    if (tracer.dropped())
        return "";      // a truncated log cannot be validated
    uint64_t invs_total = 0;
    uint64_t acks_total = 0;
    for (const coh::TxnRecord &r :
         coh::summarizeTransactions(tracer)) {
        invs_total += r.invs;
        acks_total += r.acks;
        if (r.complete && r.filled <= r.issued) {
            return "txn " + std::to_string(r.id) +
                   ": fill at cycle " + std::to_string(r.filled) +
                   " does not follow issue at " +
                   std::to_string(r.issued);
        }
        if (r.complete && r.invs != r.acks) {
            return "txn " + std::to_string(r.id) + ": " +
                   std::to_string(r.invs) + " invalidations vs " +
                   std::to_string(r.acks) + " acknowledgments";
        }
        if (r.acks > r.invs) {
            return "txn " + std::to_string(r.id) +
                   ": more acks than invalidations (" +
                   std::to_string(r.acks) + " > " +
                   std::to_string(r.invs) + ")";
        }
    }
    if (acks_total > invs_total) {
        return "global: " + std::to_string(acks_total) +
               " acks exceed " + std::to_string(invs_total) +
               " invalidations";
    }
    return "";
}

} // namespace april

#include "profile/report.hh"

#include <algorithm>
#include <array>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "isa/assembler.hh"
#include "proc/processor.hh"

namespace april::profile
{

namespace
{

double
usefulFraction(const Processor &p)
{
    return p.statUtilization.value();
}

void
writeBuckets(std::ostream &os, const Processor &p)
{
    os << "{";
    for (size_t b = 0; b < kNumBuckets; ++b) {
        os << (b ? "," : "");
        json::writeString(os, bucketName(Bucket(b)));
        os << ":" << p.bucketCycles(Bucket(b));
    }
    os << "}";
}

void
writeFrames(std::ostream &os, const Processor &p)
{
    os << "[";
    const auto &matrix = p.frameCycles();
    for (size_t f = 0; f < matrix.size(); ++f) {
        os << (f ? "," : "") << "[";
        for (size_t b = 0; b < kNumBuckets; ++b)
            os << (b ? "," : "") << matrix[f][b];
        os << "]";
    }
    os << "]";
}

} // namespace

std::vector<Hotspot>
hotspots(const ProfileSource &src, uint32_t node)
{
    std::vector<Hotspot> out;
    if (node >= src.samplers.size() || !src.samplers[node])
        return out;
    std::map<std::string, Hotspot> by_symbol;
    for (const auto &[pc, count] : src.samplers[node]->histogram()) {
        std::string sym = src.program
            ? src.program->symbolAt(pc)
            : "pc" + std::to_string(pc);
        auto [it, fresh] = by_symbol.try_emplace(sym);
        if (fresh) {
            it->second.symbol = sym;
            it->second.pc = pc;
        }
        it->second.samples += count;
    }
    out.reserve(by_symbol.size());
    for (auto &[sym, h] : by_symbol)
        out.push_back(std::move(h));
    std::sort(out.begin(), out.end(),
              [](const Hotspot &a, const Hotspot &b) {
                  if (a.samples != b.samples)
                      return a.samples > b.samples;
                  return a.symbol < b.symbol;
              });
    return out;
}

void
writeProfileJson(std::ostream &os, const ProfileSource &src)
{
    os << "{\"schemaVersion\":1,\"totalCycles\":" << src.machineCycles;
    std::array<uint64_t, kNumBuckets> machine_buckets{};
    uint64_t machine_cycles = 0;
    os << ",\"nodes\":[";
    for (size_t n = 0; n < src.procs.size(); ++n) {
        const Processor &p = *src.procs[n];
        os << (n ? "," : "") << "{\"node\":" << p.nodeId()
           << ",\"cycles\":" << uint64_t(p.statCycles.value())
           << ",\"buckets\":";
        writeBuckets(os, p);
        os << ",\"utilization\":";
        json::writeNumber(os, usefulFraction(p));
        os << ",\"frames\":";
        writeFrames(os, p);
        machine_cycles += uint64_t(p.statCycles.value());
        for (size_t b = 0; b < kNumBuckets; ++b)
            machine_buckets[b] += p.bucketCycles(Bucket(b));

        const PcSampler *s =
            n < src.samplers.size() ? src.samplers[n] : nullptr;
        os << ",\"samplePeriod\":" << (s ? s->period() : 0)
           << ",\"samples\":" << (s ? s->totalSamples() : 0)
           << ",\"hotspots\":[";
        std::vector<Hotspot> hs = hotspots(src, uint32_t(n));
        for (size_t i = 0; i < hs.size(); ++i) {
            os << (i ? "," : "") << "{\"symbol\":";
            json::writeString(os, hs[i].symbol);
            os << ",\"pc\":" << hs[i].pc
               << ",\"samples\":" << hs[i].samples << "}";
        }
        os << "]}";
    }
    os << "],\"machine\":{\"cycles\":" << machine_cycles
       << ",\"buckets\":{";
    for (size_t b = 0; b < kNumBuckets; ++b) {
        os << (b ? "," : "");
        json::writeString(os, bucketName(Bucket(b)));
        os << ":" << machine_buckets[b];
    }
    double machine_util = machine_cycles
        ? double(machine_buckets[size_t(Bucket::Useful)] +
                 machine_buckets[size_t(Bucket::Hazard)])
            / double(machine_cycles)
        : 0.0;
    os << "},\"utilization\":";
    json::writeNumber(os, machine_util);
    os << "}";
    if (src.intervals) {
        os << ",\"intervals\":";
        src.intervals->writeJson(os);
    }
    os << "}";
}

void
writeProfileText(std::ostream &os, const ProfileSource &src,
                 size_t top_n)
{
    os << "=== cycle breakdown (" << src.machineCycles
       << " machine cycles) ===\n";
    os << std::left << std::setw(6) << "node" << std::right;
    for (size_t b = 0; b < kNumBuckets; ++b)
        os << std::setw(11) << bucketName(Bucket(b));
    os << std::setw(11) << "cycles" << std::setw(8) << "util" << "\n";
    for (const Processor *p : src.procs) {
        os << std::left << std::setw(6) << p->nodeId() << std::right;
        for (size_t b = 0; b < kNumBuckets; ++b)
            os << std::setw(11) << p->bucketCycles(Bucket(b));
        os << std::setw(11) << uint64_t(p->statCycles.value())
           << std::setw(8) << std::fixed << std::setprecision(3)
           << usefulFraction(*p) << "\n";
        os.unsetf(std::ios::fixed);
    }
    if (src.samplers.empty())
        return;
    for (size_t n = 0; n < src.procs.size(); ++n) {
        std::vector<Hotspot> hs = hotspots(src, uint32_t(n));
        if (hs.empty())
            continue;
        uint64_t total = 0;
        for (const Hotspot &h : hs)
            total += h.samples;
        os << "=== node " << src.procs[n]->nodeId() << " hotspots ("
           << total << " samples) ===\n";
        for (size_t i = 0; i < hs.size() && i < top_n; ++i) {
            os << std::setw(8) << hs[i].samples << "  "
               << std::fixed << std::setprecision(1)
               << (total ? 100.0 * double(hs[i].samples) / double(total)
                         : 0.0)
               << "%  " << hs[i].symbol << " (pc " << hs[i].pc
               << ")\n";
            os.unsetf(std::ios::fixed);
        }
    }
}

void
writeFolded(std::ostream &os, const ProfileSource &src)
{
    for (size_t n = 0; n < src.procs.size(); ++n) {
        for (const Hotspot &h : hotspots(src, uint32_t(n))) {
            os << "node" << src.procs[n]->nodeId() << ";" << h.symbol
               << " " << h.samples << "\n";
        }
    }
}

void
writeCounterTrace(std::ostream &os, const ProfileSource &src)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](uint32_t node, uint64_t ts, double util) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"utilization\",\"ph\":\"C\",\"ts\":" << ts
           << ",\"pid\":" << node << ",\"args\":{\"utilization\":";
        json::writeNumber(os, util);
        os << "}}";
    };
    for (size_t n = 0; n < src.procs.size(); ++n) {
        uint32_t node = src.procs[n]->nodeId();
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << node
           << ",\"args\":{\"name\":\"node" << node << "\"}}";
    }

    const IntervalSampler *iv = src.intervals;
    bool emitted_rows = false;
    if (iv && iv->rows().size() >= 1) {
        for (size_t n = 0; n < src.procs.size(); ++n) {
            uint32_t node = src.procs[n]->nodeId();
            std::string proc = "proc" + std::to_string(node);
            size_t cu = iv->findColumn(proc + ".cyclesUseful");
            size_t ch = iv->findColumn(proc + ".cyclesHazard");
            if (cu == size_t(-1) || ch == size_t(-1))
                continue;
            emitted_rows = true;
            uint64_t prev_cycle = 0;
            double prev_work = 0;
            for (const IntervalSampler::Row &row : iv->rows()) {
                double work = row.values[cu] + row.values[ch];
                uint64_t dt = row.cycle - prev_cycle;
                emit(node, row.cycle,
                     dt ? (work - prev_work) / double(dt) : 0.0);
                prev_cycle = row.cycle;
                prev_work = work;
            }
        }
    }
    if (!emitted_rows) {
        // No interval series: one end-of-run sample per node.
        for (size_t n = 0; n < src.procs.size(); ++n) {
            emit(src.procs[n]->nodeId(), src.machineCycles,
                 usefulFraction(*src.procs[n]));
        }
    }
    os << "]}";
}

std::string
cycleBreakdownJson(const std::vector<const Processor *> &procs)
{
    std::ostringstream os;
    os << "{\"nodes\":[";
    for (size_t n = 0; n < procs.size(); ++n) {
        const Processor &p = *procs[n];
        os << (n ? "," : "") << "{\"node\":" << p.nodeId()
           << ",\"cycles\":" << uint64_t(p.statCycles.value())
           << ",\"buckets\":";
        writeBuckets(os, p);
        os << ",\"frames\":";
        writeFrames(os, p);
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace april::profile

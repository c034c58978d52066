/**
 * @file
 * Profile report writers: turn a finished run's cycle-accounting
 * buckets, PC samples and interval series into the formats `april run
 * --prof` and the machines export — a human-readable breakdown, profile JSON
 * (schema in tools/april_prof_schema.json), folded-stack text for
 * flamegraph tools, and Perfetto counter tracks of per-node
 * utilization.
 */

#ifndef APRIL_PROFILE_REPORT_HH
#define APRIL_PROFILE_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "profile/interval.hh"
#include "profile/pc_sampler.hh"

namespace april
{
class Processor;
class Program;
} // namespace april

namespace april::profile
{

/** Everything the report writers need from a finished run. */
struct ProfileSource
{
    uint64_t machineCycles = 0;
    /// For hotspot symbolization (asm_text labels); may be null.
    const Program *program = nullptr;
    std::vector<const Processor *> procs;
    /// One sampler per processor, or empty when sampling was off.
    std::vector<const PcSampler *> samplers;
    const IntervalSampler *intervals = nullptr;     ///< may be null
};

/** One symbolized hotspot of one node. */
struct Hotspot
{
    std::string symbol;     ///< nearest label at or before the PCs
    uint32_t pc = 0;        ///< lowest sampled PC under the label
    uint64_t samples = 0;
};

/** Per-node hotspots, most-sampled first (ties broken by symbol). */
std::vector<Hotspot> hotspots(const ProfileSource &src, uint32_t node);

/** Full machine profile as JSON (schemaVersion 1). */
void writeProfileJson(std::ostream &os, const ProfileSource &src);

/** Human-readable breakdown + top-@p top_n hotspots per node. */
void writeProfileText(std::ostream &os, const ProfileSource &src,
                      size_t top_n);

/** "nodeN;symbol count" folded-stack lines (flamegraph.pl input). */
void writeFolded(std::ostream &os, const ProfileSource &src);

/**
 * Chrome/Perfetto counter tracks ("ph":"C"): per-node utilization over
 * time from the interval series (one sample per row), or a single
 * end-of-run sample per node when no intervals were recorded.
 */
void writeCounterTrace(std::ostream &os, const ProfileSource &src);

/**
 * Per-node cycle-breakdown JSON alone: buckets, per-frame matrix and
 * total cycles for every processor. This is the string the
 * differential fuzzer compares byte-for-byte between cycle-skip-on
 * and cycle-skip-off runs.
 */
std::string cycleBreakdownJson(const std::vector<const Processor *> &procs);

} // namespace april::profile

#endif // APRIL_PROFILE_REPORT_HH

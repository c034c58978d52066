/**
 * @file
 * Time-series sampling of the statistics tree.
 *
 * An IntervalSampler snapshots every statistic under a stats::Group
 * (one column per dotted path, one row per sample) each time the
 * machine clock crosses a multiple of the period. The machines clamp
 * their cycle-skip windows at sample boundaries — skipCycles is
 * additive, so splitting one window into two is cycle-exact — which
 * makes the recorded series bit-identical with skipping on or off.
 */

#ifndef APRIL_PROFILE_INTERVAL_HH
#define APRIL_PROFILE_INTERVAL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"

namespace april::profile
{

/** Periodic sampler of one statistics tree. */
class IntervalSampler
{
  public:
    /** One snapshot of all columns at a machine cycle. */
    struct Row
    {
        uint64_t cycle;
        std::vector<double> values;
    };

    /**
     * @param period sample every multiple of this many cycles (0
     *        disables sampling entirely)
     * @param root group whose statistics (recursively) form the
     *        columns; must outlive the sampler
     */
    IntervalSampler(uint64_t period, const stats::Group &root);

    uint64_t period() const { return period_; }

    /** First sample boundary strictly after @p cycle. */
    uint64_t
    nextSampleCycle(uint64_t cycle) const
    {
        return period_ ? (cycle / period_ + 1) * period_ : ~uint64_t(0);
    }

    /** Record a row when @p cycle sits on a not-yet-taken boundary. */
    void sampleIfDue(uint64_t cycle);

    /** Record a final row at @p cycle regardless of the grid. */
    void sampleFinal(uint64_t cycle);

    /** The dotted path of every column ("machine.proc0.insts"), built
     *  on demand: the sampler itself keeps only the group paths. */
    std::vector<std::string> columns() const;

    /** Index of the first column whose dotted path ends with
     *  @p suffix; size_t(-1) when there is none. */
    size_t findColumn(std::string_view suffix) const;

    const std::vector<Row> &rows() const { return rows_; }

    /** "cycle,col1,col2,..." header + one line per row. */
    void writeCsv(std::ostream &os) const;

    /** {"columns":[...],"rows":[{"cycle":..,"values":[..]},...]} */
    void writeJson(std::ostream &os) const;

  private:
    /** One column: a statistic and the dotted path of its group. */
    struct Column
    {
        size_t group;               ///< index into groupPaths_
        const stats::Info *info;
    };

    void collect(const stats::Group &g, const std::string &prefix);

    uint64_t period_;
    uint64_t lastSampled_ = ~uint64_t(0);
    std::vector<std::string> groupPaths_;
    std::vector<Column> columns_;
    std::vector<Row> rows_;
};

} // namespace april::profile

#endif // APRIL_PROFILE_INTERVAL_HH

#include "profile/interval.hh"

#include "common/json.hh"

namespace april::profile
{

IntervalSampler::IntervalSampler(uint64_t period,
                                 const stats::Group &root)
    : period_(period)
{
    collect(root, "");
}

void
IntervalSampler::collect(const stats::Group &g, const std::string &prefix)
{
    std::string here =
        prefix.empty() ? g.groupName() : prefix + "." + g.groupName();
    if (!g.statsList().empty()) {
        for (const stats::Info *info : g.statsList())
            columns_.push_back({groupPaths_.size(), info});
        groupPaths_.push_back(here);
    }
    for (const stats::Group *child : g.childGroups())
        collect(*child, here);
}

std::vector<std::string>
IntervalSampler::columns() const
{
    std::vector<std::string> out;
    out.reserve(columns_.size());
    for (const Column &c : columns_)
        out.push_back(groupPaths_[c.group] + "." +
                      std::string(c.info->name()));
    return out;
}

size_t
IntervalSampler::findColumn(std::string_view suffix) const
{
    std::string path;
    for (size_t i = 0; i < columns_.size(); ++i) {
        path = groupPaths_[columns_[i].group];
        path += '.';
        path += columns_[i].info->name();
        if (path.ends_with(suffix))
            return i;
    }
    return size_t(-1);
}

void
IntervalSampler::sampleIfDue(uint64_t cycle)
{
    if (!period_ || cycle % period_ != 0 || cycle == lastSampled_)
        return;
    sampleFinal(cycle);
}

void
IntervalSampler::sampleFinal(uint64_t cycle)
{
    if (cycle == lastSampled_)
        return;
    lastSampled_ = cycle;
    Row row;
    row.cycle = cycle;
    row.values.reserve(columns_.size());
    for (const Column &c : columns_)
        row.values.push_back(c.info->summaryValue());
    rows_.push_back(std::move(row));
}

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const Column &c : columns_)
        os << "," << groupPaths_[c.group] << '.' << c.info->name();
    os << "\n";
    for (const Row &row : rows_) {
        os << row.cycle;
        for (double v : row.values) {
            os << ",";
            json::writeNumber(os, v);
        }
        os << "\n";
    }
}

void
IntervalSampler::writeJson(std::ostream &os) const
{
    os << "{\"columns\":[";
    for (size_t i = 0; i < columns_.size(); ++i) {
        const Column &c = columns_[i];
        os << (i ? ",\"" : "\"");
        json::writeEscaped(os, groupPaths_[c.group]);
        os << '.';
        json::writeEscaped(os, c.info->name());
        os << '"';
    }
    os << "],\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
        os << (i ? "," : "") << "{\"cycle\":" << rows_[i].cycle
           << ",\"values\":[";
        for (size_t j = 0; j < rows_[i].values.size(); ++j) {
            os << (j ? "," : "");
            json::writeNumber(os, rows_[i].values[j]);
        }
        os << "]}";
    }
    os << "]}";
}

} // namespace april::profile

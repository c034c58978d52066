#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iomanip>
#include <limits>

#include "common/json.hh"
#include "common/logging.hh"

namespace april::stats
{

namespace
{

/** Width of the label column of a dump line. */
constexpr size_t kLabelWidth = 44;

/**
 * Write @p prefix, @p name and @p suffix as one left-aligned label
 * padded to kLabelWidth with the stream's fill character: the bytes
 * `os << std::left << std::setw(44) << (prefix + name + suffix)`
 * writes, without building the string. Leaves the stream
 * right-aligned for the value that follows.
 */
void
writeLabel(std::ostream &os, std::string_view prefix, std::string_view name,
           std::string_view suffix = {})
{
    os.width(0);
    os << prefix << name << suffix;
    size_t len = prefix.size() + name.size() + suffix.size();
    for (const char fill = os.fill(); len < kLabelWidth; ++len)
        os.put(fill);
    os << std::right;
}

} // namespace

Info::Info(Group *parent, Text name, Text desc)
    : _name(name.view()), _desc(desc.view()), _group(parent)
{
    if (_group)
        _group->_stats.append(this);
}

Info::~Info()
{
    if (_group)
        _group->_stats.remove(this);
}

void
Scalar::print(std::ostream &os, std::string_view prefix) const
{
    writeLabel(os, prefix, name());
    os << std::setw(14) << _value << "  # " << desc() << "\n";
}

void
Average::print(std::ostream &os, std::string_view prefix) const
{
    writeLabel(os, prefix, name());
    os << std::setw(14) << mean() << "  # " << desc()
       << " (samples=" << _count << ")\n";
}

void
Scalar::printJson(std::ostream &os) const
{
    os << "{\"type\":\"scalar\",\"desc\":";
    json::writeString(os, desc());
    os << ",\"value\":";
    json::writeNumber(os, _value);
    os << "}";
}

void
Average::printJson(std::ostream &os) const
{
    os << "{\"type\":\"average\",\"desc\":";
    json::writeString(os, desc());
    os << ",\"mean\":";
    json::writeNumber(os, mean());
    os << ",\"sum\":";
    json::writeNumber(os, _sum);
    os << ",\"count\":" << _count << "}";
}

Histogram::Histogram(Group *parent, Text name, Text desc,
                     size_t num_buckets)
    : Info(parent, name, desc)
{
    if (num_buckets < 2)
        panic("Histogram ", this->name(), ": need at least 2 buckets");
    _buckets.resize(num_buckets, 0);
    reset();
}

size_t
Histogram::bucketIndex(int64_t v) const
{
    return logBucket(v, _buckets.size());
}

size_t
Histogram::logBucket(int64_t v, size_t num_buckets)
{
    if (v <= 0)
        return 0;
    size_t idx = size_t(std::bit_width(uint64_t(v)));
    return std::min(idx, num_buckets - 1);
}

void
Histogram::set(const std::vector<uint64_t> &buckets, uint64_t count,
               double sum, int64_t min, int64_t max)
{
    if (buckets.size() != _buckets.size())
        panic("Histogram ", name(), ": set() with ", buckets.size(),
              " buckets, have ", _buckets.size());
    _buckets = buckets;
    _count = count;
    _sum = sum;
    if (count) {
        _min = min;
        _max = max;
    } else {
        _min = std::numeric_limits<int64_t>::max();
        _max = std::numeric_limits<int64_t>::min();
    }
}

void
Histogram::sample(int64_t v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += double(v);
    ++_buckets[bucketIndex(v)];
}

void
Histogram::print(std::ostream &os, std::string_view prefix) const
{
    writeLabel(os, prefix, name());
    os << std::setw(14) << mean() << "  # " << desc()
       << " (mean; samples=" << _count
       << " min=" << (_count ? _min : 0)
       << " max=" << (_count ? _max : 0) << ")\n";
    for (size_t i = 0; i < _buckets.size(); ++i) {
        if (!_buckets[i])
            continue;
        char range[48];
        if (i == 0)
            std::snprintf(range, sizeof range, "(-inf,1)");
        else if (i == _buckets.size() - 1)
            std::snprintf(range, sizeof range, "[%lld,inf)",
                          1LL << (i - 1));
        else
            std::snprintf(range, sizeof range, "[%lld,%lld)",
                          1LL << (i - 1), 1LL << i);
        writeLabel(os, prefix, name(), range);
        os << std::setw(14) << _buckets[i] << "\n";
    }
}

void
Histogram::printJson(std::ostream &os) const
{
    os << "{\"type\":\"histogram\",\"desc\":";
    json::writeString(os, desc());
    os << ",\"count\":" << _count << ",\"mean\":";
    json::writeNumber(os, mean());
    os << ",\"min\":" << (_count ? _min : 0)
       << ",\"max\":" << (_count ? _max : 0) << ",\"buckets\":[";
    for (size_t i = 0; i < _buckets.size(); ++i)
        os << (i ? "," : "") << _buckets[i];
    os << "]}";
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _count = 0;
    _sum = 0;
    _min = std::numeric_limits<int64_t>::max();
    _max = std::numeric_limits<int64_t>::min();
}

uint64_t
Histogram::percentile(double q) const
{
    return logPercentile(_buckets, _count, _max, q);
}

uint64_t
logPercentile(std::span<const uint64_t> buckets, uint64_t count,
              int64_t max, double q)
{
    if (!count)
        return 0;
    uint64_t rank = uint64_t(q * double(count));
    if (rank < 1)
        rank = 1;
    uint64_t cum = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        cum += buckets[b];
        if (cum >= rank) {
            if (b == 0)
                return 0;
            if (b + 1 == buckets.size())
                return uint64_t(max);
            // No sample is above the maximum, whatever the bucket's
            // ceiling.
            return std::min((uint64_t(1) << b) - 1, uint64_t(max));
        }
    }
    return uint64_t(max);
}

void
Formula::print(std::ostream &os, std::string_view prefix) const
{
    writeLabel(os, prefix, name());
    os << std::setw(14) << value() << "  # " << desc() << "\n";
}

void
Formula::printJson(std::ostream &os) const
{
    os << "{\"type\":\"formula\",\"desc\":";
    json::writeString(os, desc());
    os << ",\"value\":";
    json::writeNumber(os, value());
    os << "}";
}

Group::Group(std::string name, Group *parent)
    : _name(std::move(name)), _parent(parent)
{
    if (_parent)
        _parent->_children.append(this);
}

Group::~Group()
{
    for (Info *info : _stats)
        info->_group = nullptr;
    for (Group *child : _children)
        child->_parent = nullptr;
    if (_parent)
        _parent->_children.remove(this);
}

void
Group::dump(std::ostream &os, std::string_view prefix) const
{
    std::string here(prefix);
    if (!here.empty())
        here += '.';
    here += _name;
    const size_t path = here.size();
    here += '.';
    for (const Info *info : _stats)
        info->print(os, here);
    here.resize(path);
    for (const Group *child : _children)
        child->dump(os, here);
}

void
Group::resetStats()
{
    for (Info *info : _stats)
        info->reset();
    resetOwnState();
    for (Group *child : _children)
        child->resetStats();
}

void
Group::dumpJson(std::ostream &os) const
{
    os << "{\"name\":";
    json::writeString(os, _name);
    os << ",\"stats\":{";
    const char *sep = "";
    for (const Info *info : _stats) {
        os << sep;
        json::writeString(os, info->name());
        os << ":";
        info->printJson(os);
        sep = ",";
    }
    os << "},\"groups\":{";
    sep = "";
    for (const Group *child : _children) {
        os << sep;
        json::writeString(os, child->groupName());
        os << ":";
        child->dumpJson(os);
        sep = ",";
    }
    os << "}}";
}

const Info *
Group::findStat(std::string_view name) const
{
    for (const Info *info : _stats) {
        if (info->name() == name)
            return info;
    }
    return nullptr;
}

const Group *
Group::findGroup(std::string_view name) const
{
    for (const Group *child : _children) {
        if (child->groupName() == name)
            return child;
    }
    return nullptr;
}

const Info *
Group::resolve(std::string_view path) const
{
    const Group *g = this;
    size_t pos = 0;
    size_t dot;
    while ((dot = path.find('.', pos)) != std::string_view::npos) {
        g = g->findGroup(path.substr(pos, dot - pos));
        if (!g)
            return nullptr;
        pos = dot + 1;
    }
    return g->findStat(path.substr(pos));
}

} // namespace april::stats

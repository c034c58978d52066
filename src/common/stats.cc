#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <limits>

#include "common/json.hh"
#include "common/logging.hh"

namespace april::stats
{

Info::Info(Group *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(14) << _value
       << "  # " << desc() << "\n";
}

void
Average::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(14) << mean()
       << "  # " << desc() << " (samples=" << _count << ")\n";
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

Distribution::Distribution(Group *parent, std::string name, std::string desc,
                           int64_t lo, int64_t hi, int64_t bucket_size)
    : Info(parent, std::move(name), std::move(desc)),
      _lo(lo), _hi(hi), _bucketSize(bucket_size)
{
    if (bucket_size <= 0 || hi <= lo)
        panic("Distribution ", this->name(), ": bad bucket spec");
    _buckets.resize(size_t((hi - lo + bucket_size - 1) / bucket_size), 0);
    reset();
}

void
Distribution::sample(int64_t v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += double(v);

    if (v < _lo)
        ++_underflow;
    else if (v >= _hi)
        ++_overflow;
    else
        ++_buckets[size_t((v - _lo) / _bucketSize)];
}

void
Distribution::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(14) << mean()
       << "  # " << desc() << " (mean; samples=" << _count
       << " min=" << (_count ? _min : 0)
       << " max=" << (_count ? _max : 0) << ")\n";
    for (size_t i = 0; i < _buckets.size(); ++i) {
        if (!_buckets[i])
            continue;
        int64_t b_lo = _lo + int64_t(i) * _bucketSize;
        os << std::left << std::setw(44)
           << (prefix + name() + "[" + std::to_string(b_lo) + ","
               + std::to_string(b_lo + _bucketSize) + ")")
           << std::right << std::setw(14) << _buckets[i] << "\n";
    }
    if (_underflow) {
        os << std::left << std::setw(44) << (prefix + name() + "[under]")
           << std::right << std::setw(14) << _underflow << "\n";
    }
    if (_overflow) {
        os << std::left << std::setw(44) << (prefix + name() + "[over]")
           << std::right << std::setw(14) << _overflow << "\n";
    }
}

void
Distribution::printJson(std::ostream &os) const
{
    os << "{\"type\":\"distribution\",\"desc\":";
    json::writeString(os, desc());
    os << ",\"count\":" << _count << ",\"mean\":";
    json::writeNumber(os, mean());
    os << ",\"min\":" << (_count ? _min : 0)
       << ",\"max\":" << (_count ? _max : 0)
       << ",\"lo\":" << _lo << ",\"bucketSize\":" << _bucketSize
       << ",\"underflow\":" << _underflow
       << ",\"overflow\":" << _overflow << ",\"buckets\":[";
    for (size_t i = 0; i < _buckets.size(); ++i)
        os << (i ? "," : "") << _buckets[i];
    os << "]}";
}

void
Distribution::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = _overflow = 0;
    _count = 0;
    _sum = 0;
    _min = std::numeric_limits<int64_t>::max();
    _max = std::numeric_limits<int64_t>::min();
}

Histogram::Histogram(Group *parent, std::string name, std::string desc,
                     size_t num_buckets)
    : Info(parent, std::move(name), std::move(desc))
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
Histogram::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(14) << mean()
       << "  # " << desc() << " (mean; samples=" << _count
       << " min=" << (_count ? _min : 0)
       << " max=" << (_count ? _max : 0) << ")\n";
    for (size_t i = 0; i < _buckets.size(); ++i) {
        if (!_buckets[i])
            continue;
        std::string range;
        if (i == 0)
            range = "(-inf,1)";
        else if (i == _buckets.size() - 1)
            range = "[" + std::to_string(int64_t(1) << (i - 1)) + ",inf)";
        else
            range = "[" + std::to_string(int64_t(1) << (i - 1)) + ","
                    + std::to_string(int64_t(1) << i) + ")";
        os << std::left << std::setw(44) << (prefix + name() + range)
           << std::right << std::setw(14) << _buckets[i] << "\n";
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

void
Formula::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(14) << value()
       << "  # " << desc() << "\n";
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
        _parent->addChild(this);
}

Group::~Group()
{
    if (_parent)
        _parent->removeChild(this);
}

void
Group::removeChild(Group *g)
{
    _children.erase(std::remove(_children.begin(), _children.end(), g),
                    _children.end());
}

void
Group::dump(std::ostream &os, const std::string &prefix) const
{
    std::string here = prefix.empty() ? _name : prefix + "." + _name;
    for (const Info *info : _stats)
        info->print(os, here + ".");
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
    for (size_t i = 0; i < _stats.size(); ++i) {
        os << (i ? "," : "");
        json::writeString(os, _stats[i]->name());
        os << ":";
        _stats[i]->printJson(os);
    }
    os << "},\"groups\":{";
    for (size_t i = 0; i < _children.size(); ++i) {
        os << (i ? "," : "");
        json::writeString(os, _children[i]->groupName());
        os << ":";
        _children[i]->dumpJson(os);
    }
    os << "}}";
}

const Info *
Group::findStat(const std::string &name) const
{
    for (const Info *info : _stats) {
        if (info->name() == name)
            return info;
    }
    return nullptr;
}

const Group *
Group::findGroup(const std::string &name) const
{
    for (const Group *child : _children) {
        if (child->groupName() == name)
            return child;
    }
    return nullptr;
}

const Info *
Group::resolve(const std::string &path) const
{
    const Group *g = this;
    size_t pos = 0;
    size_t dot;
    while ((dot = path.find('.', pos)) != std::string::npos) {
        g = g->findGroup(path.substr(pos, dot - pos));
        if (!g)
            return nullptr;
        pos = dot + 1;
    }
    return g->findStat(path.substr(pos));
}

} // namespace april::stats

/**
 * @file
 * A small gem5-inspired statistics package.
 *
 * Statistics are owned by a stats::Group; each statistic has a name and
 * a description and knows how to print itself. Groups nest, so a
 * machine can dump one coherent report covering processors, caches,
 * directories and network routers.
 *
 * A statistic's name and description are static text (stats::Text):
 * a literal, or an entry of a name table built once per process. A
 * machine builds hundreds of statistics, and none of them copies its
 * text (DESIGN.md §7.14). A group links its statistics and children
 * through the members themselves, so registering one allocates
 * nothing either.
 */

#ifndef APRIL_COMMON_STATS_HH
#define APRIL_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace april::stats
{

class Group;

/**
 * A group's statistics or child groups in creation order: a forward
 * range over a list threaded through the members' own `_prev`/`_next`
 * pointers, so appending one never allocates. A member unlinks itself
 * when it is destroyed, and a group detaches the members that outlive
 * it, so the list never holds a dead member.
 */
template <typename T>
class Chain
{
  public:
    class iterator
    {
      public:
        explicit iterator(T *p) : _p(p) {}

        T *operator*() const { return _p; }
        iterator &operator++() { _p = _p->_next; return *this; }
        bool operator==(const iterator &) const = default;

      private:
        T *_p;
    };

    iterator begin() const { return iterator(_head); }
    iterator end() const { return iterator(nullptr); }
    bool empty() const { return !_head; }

    size_t
    size() const
    {
        size_t n = 0;
        for (const T *x = _head; x; x = x->_next)
            ++n;
        return n;
    }

  private:
    friend class Info;
    friend class Group;

    void
    append(T *x)
    {
        x->_prev = _tail;
        x->_next = nullptr;
        (_tail ? _tail->_next : _head) = x;
        _tail = x;
    }

    void
    remove(T *x)
    {
        (x->_prev ? x->_prev->_next : _head) = x->_next;
        (x->_next ? x->_next->_prev : _tail) = x->_prev;
    }

    T *_head = nullptr;
    T *_tail = nullptr;
};

/**
 * The name or description of a statistic: a view of text that
 * outlives every statistic, a literal or an entry of a table built
 * once per process. Building one from a std::string is deleted, so a
 * temporary can never become a dangling name.
 */
class Text
{
  public:
    constexpr Text(const char *s) : _view(s) {}
    constexpr Text(std::string_view s) : _view(s) {}
    Text(const std::string &) = delete;

    constexpr std::string_view view() const { return _view; }

  private:
    std::string_view _view;
};

/**
 * Name and description of one statistic of a family (traps<Kind>,
 * dir<From>To<To>, latency<Class>, ...). A family's table is built
 * once per process, in a function-local static that never changes
 * after its initialisation, and its statistics view the entries.
 */
struct FamilyText
{
    std::string name;
    std::string desc;

    Text nameText() const { return std::string_view(name); }
    Text descText() const { return std::string_view(desc); }
};

/** Common interface of all statistics. */
class Info
{
  public:
    Info(Group *parent, Text name, Text desc);
    /** A copy has the same text and belongs to no group. */
    Info(const Info &o) : _name(o._name), _desc(o._desc), _group(nullptr)
    {}
    Info &operator=(const Info &) = delete;
    virtual ~Info();

    std::string_view name() const { return _name; }
    std::string_view desc() const { return _desc; }

    /** Print "name value # desc" style line(s), each name after
     *  @p prefix. */
    virtual void print(std::ostream &os, std::string_view prefix) const = 0;

    /**
     * Emit this statistic's value as one JSON object
     * ({"type":...,"desc":...,...}); the enclosing Group::dumpJson
     * supplies the name key.
     */
    virtual void printJson(std::ostream &os) const = 0;

    /** Reset the statistic to its initial state. */
    virtual void reset() = 0;

    /**
     * One representative number for time-series sampling (the
     * interval profiler records this every N cycles): the value for
     * scalars and formulas, the running mean for averages and
     * histograms.
     */
    virtual double summaryValue() const = 0;

  private:
    template <typename>
    friend class Chain;

    friend class Group;

    std::string_view _name;
    std::string_view _desc;
    Group *_group;              ///< the owning group, if still alive
    Info *_prev = nullptr;      ///< neighbours in the group's list
    Info *_next = nullptr;
};

/** A monotonically updated scalar counter / value. */
class Scalar : public Info
{
  public:
    Scalar(Group *parent, Text name, Text desc) : Info(parent, name, desc)
    {}

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void print(std::ostream &os, std::string_view prefix) const override;
    void printJson(std::ostream &os) const override;
    void reset() override { _value = 0; }
    double summaryValue() const override { return _value; }

  private:
    double _value = 0;
};

/** Arithmetic mean of all sampled values. */
class Average : public Info
{
  public:
    Average(Group *parent, Text name, Text desc) : Info(parent, name, desc)
    {}

    /** Record one sample. */
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    /** Overwrite with externally accumulated totals (stat folding). */
    void
    set(double sum, uint64_t count)
    {
        _sum = sum;
        _count = count;
    }

    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    uint64_t count() const { return _count; }
    double sum() const { return _sum; }

    void print(std::ostream &os, std::string_view prefix) const override;
    void printJson(std::ostream &os) const override;
    void reset() override { _sum = 0; _count = 0; }
    double summaryValue() const override { return mean(); }

  private:
    double _sum = 0;
    uint64_t _count = 0;
};

/** A statistic computed on demand from other statistics. */
class Formula : public Info
{
  public:
    Formula(Group *parent, Text name, Text desc,
            std::function<double()> fn)
        : Info(parent, name, desc), _fn(std::move(fn))
    {}

    double value() const { return _fn ? _fn() : 0.0; }

    void print(std::ostream &os, std::string_view prefix) const override;
    void printJson(std::ostream &os) const override;
    void reset() override {}
    double summaryValue() const override { return value(); }

  private:
    std::function<double()> _fn;
};

/**
 * Power-of-two bucketed histogram: values <= 0 land in bucket 0 and
 * bucket i (i >= 1) counts samples with 2^(i-1) <= v < 2^i; the last
 * bucket absorbs everything larger. Log2 buckets suit long-tailed
 * latency/gap distributions: they stay small and deterministic no
 * matter how large the tail grows.
 */
class Histogram : public Info
{
  public:
    static constexpr size_t kDefaultBuckets = 24;

    Histogram(Group *parent, Text name, Text desc,
              size_t num_buckets = kDefaultBuckets);

    void sample(int64_t v);

    /** Bucket index a value falls into: 0 for v<=0, else min(1+floor(log2 v), n-1). */
    size_t bucketIndex(int64_t v) const;

    /**
     * The same bucketing rule as a free function, for code that folds
     * raw per-shard accumulators before handing them to set(): bucket
     * 0 for v<=0, else min(1+floor(log2 v), num_buckets-1).
     */
    static size_t logBucket(int64_t v, size_t num_buckets);

    /**
     * Overwrite with externally accumulated totals (stat folding, the
     * Average::set counterpart). @p buckets must have numBuckets()
     * entries bucketed by logBucket(); @p min / @p max are ignored
     * when @p count is 0.
     */
    void set(const std::vector<uint64_t> &buckets, uint64_t count,
             double sum, int64_t min, int64_t max);

    uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    double sum() const { return _sum; }
    int64_t min() const { return _min; }
    int64_t max() const { return _max; }
    uint64_t bucketCount(size_t i) const { return _buckets.at(i); }
    size_t numBuckets() const { return _buckets.size(); }

    /** logPercentile() of this histogram. */
    uint64_t percentile(double q) const;

    void print(std::ostream &os, std::string_view prefix) const override;
    void printJson(std::ostream &os) const override;
    void reset() override;
    double summaryValue() const override { return mean(); }

  private:
    std::vector<uint64_t> _buckets;
    uint64_t _count = 0;
    double _sum = 0;
    int64_t _min = 0;
    int64_t _max = 0;
};

/**
 * Upper bound of the bucket holding the @p q quantile of a log2
 * histogram (Histogram's bucketing) with @p count samples in all and
 * largest sample @p max: a conservative ceiling, not an
 * interpolation, and never above @p max. Bucket 0 reports 0, the last
 * bucket reports @p max, and an empty histogram reports 0.
 */
uint64_t logPercentile(std::span<const uint64_t> buckets, uint64_t count,
                       int64_t max, double q);

/** A named, nestable container of statistics. */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return _name; }

    /** Recursively print all statistics under this group. */
    void dump(std::ostream &os, std::string_view prefix = {}) const;

    /**
     * Emit the full hierarchical statistics tree as one JSON object:
     * {"name":...,"stats":{<stat>:{...}},"groups":{<child>:{...}}}.
     * Machine-readable counterpart of dump(); always valid JSON.
     */
    void dumpJson(std::ostream &os) const;

    /** Recursively reset all statistics under this group. */
    void resetStats();

    /** Look up a direct child statistic by name (nullptr if absent). */
    const Info *findStat(std::string_view name) const;

    /** Look up a direct child group by name (nullptr if absent). */
    const Group *findGroup(std::string_view name) const;

    /**
     * Resolve a dotted path of child groups ending in a statistic,
     * relative to this group: resolve("proc3.trapsRemoteMiss") finds
     * child group "proc3", then its stat "trapsRemoteMiss". A path
     * without dots is equivalent to findStat(). @return nullptr when
     * any component is missing.
     */
    const Info *resolve(std::string_view path) const;

    /** All statistics owned directly by this group, in creation order. */
    const Chain<Info> &statsList() const { return _stats; }

    /** All direct child groups, in creation order. */
    const Chain<Group> &childGroups() const { return _children; }

  protected:
    /** Clear what a subclass keeps beside its statistics and derives
     *  from the same events; resetStats() calls it after this group's
     *  own statistics. */
    virtual void resetOwnState() {}

  private:
    friend class Info;
    template <typename>
    friend class Chain;

    std::string _name;
    Group *_parent;
    Chain<Info> _stats;
    Chain<Group> _children;
    Group *_prev = nullptr;     ///< neighbours in the parent's list
    Group *_next = nullptr;
};

} // namespace april::stats

#endif // APRIL_COMMON_STATS_HH

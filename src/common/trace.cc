#include "common/trace.hh"

#include <cstddef>
#include <string>
#include <type_traits>

#include "common/json.hh"

namespace april::trace
{

namespace
{

/**
 * One trace-event object. @p name is written escaped when it is a
 * string; a callable writes it itself. @p args writes the inside of
 * the "args" object (nullptr: no args). Nothing builds a string.
 */
template <typename Name, typename Args = std::nullptr_t>
void
writeEvent(std::ostream &os, bool &first, const Name &name,
           const char *ph, const char *cat, uint64_t ts, uint32_t pid,
           const Args &args = nullptr, int64_t async_id = -1)
{
    os << (first ? "\n" : ",\n") << "{\"name\":\"";
    first = false;
    if constexpr (std::is_invocable_v<const Name &, std::ostream &>)
        name(os);
    else
        json::writeEscaped(os, name);
    os << "\",\"ph\":\"" << ph << "\"";
    if (*cat)
        os << ",\"cat\":\"" << cat << "\"";
    os << ",\"ts\":" << ts << ",\"pid\":" << pid;
    if (async_id >= 0)
        os << ",\"id\":" << async_id;
    else
        os << ",\"tid\":0";
    if (ph[0] == 'i')
        os << ",\"s\":\"t\"";
    if constexpr (!std::is_null_pointer_v<Args>) {
        os << ",\"args\":{";
        args(os);
        os << "}";
    }
    os << "}";
}

/** Writes a name from a machine-supplied table, or @p fallback and
 *  the index when the table has no entry. */
struct TableName
{
    const std::vector<std::string> &table;
    const char *fallback;
    uint8_t index;

    void
    operator()(std::ostream &os) const
    {
        if (index < table.size())
            json::writeEscaped(os, table[index]);
        else
            os << fallback << int(index);
    }
};

} // namespace

void
writeChromeTrace(std::ostream &os, const Recorder &log,
                 const RecorderConfig &config,
                 const ExtraEventWriter &extra)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;

    // Track metadata: one Perfetto process per node.
    for (uint32_t n = 0; n < config.numNodes; ++n) {
        writeEvent(os, first, "process_name", "M", "", 0, n,
                   [n](std::ostream &o) {
                       o << "\"name\":\"node" << n << "\"";
                   });
        writeEvent(os, first, "process_sort_index", "M", "", 0, n,
                   [n](std::ostream &o) { o << "\"sort_index\":" << n; });
        writeEvent(os, first, "thread_name", "M", "", 0, n,
                   [](std::ostream &o) { o << "\"name\":\"events\""; });
    }

    auto frame_id = [&](uint32_t node, uint32_t frame) {
        return int64_t(node) * config.framesPerNode + frame;
    };
    auto frame_name = [](uint32_t frame) {
        return [frame](std::ostream &o) { o << "frame" << frame; };
    };

    // Which frame currently occupies each core's async frame track
    // (-1: no switch seen yet; the opening "b" is emitted lazily so
    // nodes that never switch get no frame track at all).
    std::vector<int64_t> open(config.numNodes, -1);
    uint64_t last_ts = 0;

    for (const Event &e : log) {
        last_ts = e.cycle;
        switch (e.kind) {
          case EventKind::CtxSwitch: {
            if (e.node < open.size()) {
                if (open[e.node] < 0) {
                    // The from-frame has occupied the core since boot.
                    writeEvent(os, first, frame_name(e.a), "b", "frame",
                               0, e.node, nullptr, frame_id(e.node, e.a));
                }
                writeEvent(os, first, frame_name(e.a), "e", "frame",
                           e.cycle, e.node, nullptr, frame_id(e.node, e.a));
                writeEvent(os, first, frame_name(e.b), "b", "frame",
                           e.cycle, e.node, nullptr, frame_id(e.node, e.b));
                open[e.node] = e.b;
            }
            writeEvent(
                os, first,
                [&](std::ostream &o) {
                    o << "switch f" << int(e.a) << "->f" << int(e.b);
                },
                "i", "ctx", e.cycle, e.node, [&](std::ostream &o) {
                    o << "\"from\":" << int(e.a) << ",\"to\":" << int(e.b);
                });
            break;
          }
          case EventKind::Trap:
            writeEvent(os, first, TableName{config.trapNames, "trap", e.a},
                       "i", "trap", e.cycle, e.node,
                       [&](std::ostream &o) { o << "\"pc\":" << e.arg; });
            break;
          case EventKind::Coherence:
            writeEvent(
                os, first,
                [&](std::ostream &o) {
                    TableName{config.cohStateNames, "state", e.a}(o);
                    o << "->";
                    TableName{config.cohStateNames, "state", e.b}(o);
                },
                "i", "coh", e.cycle, e.node, [&](std::ostream &o) {
                    o << "\"line\":" << e.arg << ",\"requester\":" << e.arg2;
                });
            break;
          case EventKind::NetSend:
            writeEvent(os, first, "send", "i", "net", e.cycle, e.node,
                       [&](std::ostream &o) {
                           o << "\"dst\":" << e.arg
                             << ",\"flits\":" << e.arg2;
                       });
            break;
          case EventKind::NetDeliver:
            writeEvent(os, first, "deliver", "i", "net", e.cycle, e.node,
                       [&](std::ostream &o) {
                           o << "\"src\":" << e.arg
                             << ",\"latency\":" << e.arg2;
                       });
            break;
          case EventKind::FeRetry:
            writeEvent(os, first, "fe-retry", "i", "fe", e.cycle, e.node,
                       [&](std::ostream &o) {
                           o << "\"addr\":" << e.arg
                             << ",\"store\":" << int(e.a);
                       });
            break;
          case EventKind::Race:
            writeEvent(os, first, "race", "i", "race", e.cycle, e.node,
                       [&](std::ostream &o) {
                           o << "\"addr\":" << e.arg << ",\"pc\":" << e.arg2
                             << ",\"write\":" << int(e.a)
                             << ",\"other\":" << int(e.b);
                       });
            break;
        }
    }

    // Close any frame slice still open so every async track is
    // well-formed.
    for (uint32_t n = 0; n < config.numNodes; ++n) {
        if (open[n] >= 0) {
            uint32_t f = uint32_t(open[n]);
            writeEvent(os, first, frame_name(f), "e", "frame", last_ts,
                       n, nullptr, frame_id(n, f));
        }
    }

    if (extra)
        extra(os, first);

    os << "\n],\"otherData\":{\"droppedEvents\":" << log.dropped()
       << "}}\n";
}

} // namespace april::trace

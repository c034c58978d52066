#include "common/trace.hh"

#include <string>

#include "common/json.hh"

namespace april::trace
{

namespace
{

/** Trap name for a Trap event's kind byte. */
std::string
trapName(const RecorderConfig &config, uint8_t kind)
{
    if (kind < config.trapNames.size())
        return config.trapNames[kind];
    return "trap" + std::to_string(int(kind));
}

/** Directory state name for a Coherence event's state byte. */
std::string
cohStateName(const RecorderConfig &config, uint8_t state)
{
    if (state < config.cohStateNames.size())
        return config.cohStateNames[state];
    return "state" + std::to_string(int(state));
}

/** One trace-event object. @p args is pre-rendered ("\"k\":1") or empty. */
void
writeEvent(std::ostream &os, bool &first, const std::string &name,
           const char *ph, const std::string &cat, uint64_t ts,
           uint32_t pid, const std::string &args,
           int64_t async_id = -1)
{
    os << (first ? "\n" : ",\n") << "{\"name\":";
    first = false;
    json::writeString(os, name);
    os << ",\"ph\":\"" << ph << "\"";
    if (!cat.empty())
        os << ",\"cat\":\"" << cat << "\"";
    os << ",\"ts\":" << ts << ",\"pid\":" << pid;
    if (async_id >= 0)
        os << ",\"id\":" << async_id;
    else
        os << ",\"tid\":0";
    if (ph[0] == 'i')
        os << ",\"s\":\"t\"";
    if (!args.empty())
        os << ",\"args\":{" << args << "}";
    os << "}";
}

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
                   "\"name\":\"node" + std::to_string(n) + "\"");
        writeEvent(os, first, "process_sort_index", "M", "", 0, n,
                   "\"sort_index\":" + std::to_string(n));
        writeEvent(os, first, "thread_name", "M", "", 0, n,
                   "\"name\":\"events\"");
    }

    auto frame_id = [&](uint32_t node, uint32_t frame) {
        return int64_t(node) * config.framesPerNode + frame;
    };
    auto frame_name = [](uint32_t frame) {
        return "frame" + std::to_string(frame);
    };

    // Which frame currently occupies each core's async frame track
    // (-1: no switch seen yet; the opening "b" is emitted lazily so
    // nodes that never switch get no frame track at all).
    std::vector<int64_t> open(config.numNodes, -1);
    uint64_t last_ts = 0;

    for (const Event &e : log.events()) {
        last_ts = e.cycle;
        switch (e.kind) {
          case EventKind::CtxSwitch: {
            if (e.node < open.size()) {
                if (open[e.node] < 0) {
                    // The from-frame has occupied the core since boot.
                    writeEvent(os, first, frame_name(e.a), "b", "frame",
                               0, e.node, "", frame_id(e.node, e.a));
                }
                writeEvent(os, first, frame_name(e.a), "e", "frame",
                           e.cycle, e.node, "", frame_id(e.node, e.a));
                writeEvent(os, first, frame_name(e.b), "b", "frame",
                           e.cycle, e.node, "", frame_id(e.node, e.b));
                open[e.node] = e.b;
            }
            writeEvent(os, first,
                       "switch f" + std::to_string(e.a) + "->f" +
                           std::to_string(e.b),
                       "i", "ctx", e.cycle, e.node,
                       "\"from\":" + std::to_string(e.a) +
                           ",\"to\":" + std::to_string(e.b));
            break;
          }
          case EventKind::Trap:
            writeEvent(os, first, trapName(config, e.a), "i", "trap", e.cycle,
                       e.node, "\"pc\":" + std::to_string(e.arg));
            break;
          case EventKind::Coherence:
            writeEvent(os, first,
                       cohStateName(config, e.a) + "->" +
                           cohStateName(config, e.b),
                       "i", "coh", e.cycle, e.node,
                       "\"line\":" + std::to_string(e.arg) +
                           ",\"requester\":" + std::to_string(e.arg2));
            break;
          case EventKind::NetSend:
            writeEvent(os, first, "send", "i", "net", e.cycle, e.node,
                       "\"dst\":" + std::to_string(e.arg) +
                           ",\"flits\":" + std::to_string(e.arg2));
            break;
          case EventKind::NetDeliver:
            writeEvent(os, first, "deliver", "i", "net", e.cycle,
                       e.node,
                       "\"src\":" + std::to_string(e.arg) +
                           ",\"latency\":" + std::to_string(e.arg2));
            break;
          case EventKind::FeRetry:
            writeEvent(os, first, "fe-retry", "i", "fe", e.cycle,
                       e.node,
                       "\"addr\":" + std::to_string(e.arg) +
                           ",\"store\":" + std::to_string(e.a));
            break;
          case EventKind::Race:
            writeEvent(os, first, "race", "i", "race", e.cycle,
                       e.node,
                       "\"addr\":" + std::to_string(e.arg) +
                           ",\"pc\":" + std::to_string(e.arg2) +
                           ",\"write\":" + std::to_string(e.a) +
                           ",\"other\":" + std::to_string(e.b));
            break;
        }
    }

    // Close any frame slice still open so every async track is
    // well-formed.
    for (uint32_t n = 0; n < config.numNodes; ++n) {
        if (open[n] >= 0) {
            uint32_t f = uint32_t(open[n]);
            writeEvent(os, first, frame_name(f), "e", "frame", last_ts,
                       n, "", frame_id(n, f));
        }
    }

    if (extra)
        extra(os, first);

    os << "\n],\"otherData\":{\"droppedEvents\":" << log.dropped()
       << "}}\n";
}

} // namespace april::trace

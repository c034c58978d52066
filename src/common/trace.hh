/**
 * @file
 * A cycle-stamped machine event recorder with Chrome-trace-event
 * export (loadable at ui.perfetto.dev).
 *
 * The recorder is a compact append-only log of small events:
 * context switches (from/to hardware frame), traps (by TrapKind),
 * directory protocol transitions, network packet send/deliver, and
 * failed full/empty synchronization attempts. It is an obs::Log;
 * components hold a nullable Recorder pointer wired up by the
 * enclosing machine, so the disabled path is a single pointer test.
 *
 * Cycle-exactness: events carry the absolute machine cycle at the
 * moment the component acted. The cycle-skipping run loop only
 * fast-forwards windows proven event-free by nextEventCycle(), so the
 * recorded stream is byte-identical with skipping on or off (asserted
 * by tests/trace_test.cc).
 *
 * Export layout: one Perfetto process per node (pid = node) with one
 * instant-event track (tid 0), plus one async track per hardware task
 * frame (cat "frame") showing which frame occupies the core over
 * time.
 */

#ifndef APRIL_COMMON_TRACE_HH
#define APRIL_COMMON_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/obs_log.hh"

namespace april::trace
{

/** Event families (the ISSUE's four observable machine activities,
 *  with the network split into its three phases). */
enum class EventKind : uint8_t
{
    CtxSwitch,      ///< a: from frame, b: to frame
    Trap,           ///< a: TrapKind, arg: trapping PC
    Coherence,      ///< a: old dir state, b: new, arg: line, arg2: req
    NetSend,        ///< arg: dst node, arg2: flits
    NetDeliver,     ///< arg: src node, arg2: send-to-delivery cycles
    FeRetry,        ///< a: 1 store/0 load, arg: faulting word address
    Race,           ///< a: 1 write/0 read, b: prior owner node,
                    ///< arg: word address, arg2: pc
};

/** One recorded machine event (kept small: the log gets long). */
struct Event
{
    uint64_t cycle = 0;
    uint32_t node = 0;
    EventKind kind = EventKind::CtxSwitch;
    uint8_t a = 0;
    uint8_t b = 0;
    uint32_t arg = 0;
    uint32_t arg2 = 0;

    bool operator==(const Event &) const = default;

    /** Fields of a log record after the cycle (obs::codec). */
    static constexpr auto
    fields()
    {
        return std::tuple{&Event::node, &Event::kind, &Event::a, &Event::b,
                          &Event::arg, &Event::arg2};
    }
};

/** Static machine shape + name tables the exporter needs. */
struct RecorderConfig
{
    uint32_t numNodes = 1;
    uint32_t framesPerNode = 1;
    /// Event::a -> trap name for Trap events (machine-supplied so the
    /// base library needs no ISA dependency). Missing entries render
    /// as "trap<N>".
    std::vector<std::string> trapNames;
    /// Event::a/b -> directory state name for Coherence events.
    std::vector<std::string> cohStateNames;
};

/** The per-machine (or per-shard lane) event log. */
using Recorder = obs::Log<Event>;

/**
 * Callback appending extra trace events to the JSON stream. The
 * writer must emit complete event objects, writing "," before each
 * unless `first` (which it must clear after the first one). Lets
 * machines stitch higher-level spans (coherence-transaction flows)
 * into the export without this library knowing about them.
 */
using ExtraEventWriter = std::function<void(std::ostream &, bool &)>;

/** Write @p part of an event: a callable writes itself, anything else
 *  is streamed as is. */
template <typename Part>
void
writePart(std::ostream &os, const Part &part)
{
    if constexpr (std::is_invocable_v<const Part &, std::ostream &>)
        part(os);
    else
        os << part;
}

/**
 * Write one async-span or flow event of an ExtraEventWriter:
 * `{"name":N,"ph":..,"cat":..,"ts":..,"pid":..,"tid":0,"id":..}` plus
 * `"args":{A}` unless @p args is nullptr. @p name (written unescaped)
 * and @p args are writePart()s, so no event builds a string.
 */
template <typename Name, typename Args = std::nullptr_t>
void
writeSpanEvent(std::ostream &os, bool &first, const Name &name,
               const char *ph, const char *cat, uint64_t ts, uint32_t pid,
               uint64_t id, const Args &args = nullptr)
{
    os << (first ? "\n" : ",\n") << "{\"name\":\"";
    first = false;
    writePart(os, name);
    os << "\",\"ph\":\"" << ph << "\",\"cat\":\"" << cat
       << "\",\"ts\":" << ts << ",\"pid\":" << pid
       << ",\"tid\":0,\"id\":" << id;
    if constexpr (!std::is_null_pointer_v<Args>) {
        os << ",\"args\":{";
        writePart(os, args);
        os << "}";
    }
    os << "}";
}

/**
 * Serialize @p log as Chrome trace-event JSON ({"traceEvents":[...]}).
 * Deterministic for a given event log, so differential tests can
 * compare serializations byte for byte. `extra`, when set, is
 * invoked after the recorded events so callers can append additional
 * (deterministic) events to the same array.
 */
void writeChromeTrace(std::ostream &os, const Recorder &log,
                      const RecorderConfig &config,
                      const ExtraEventWriter &extra = {});

} // namespace april::trace

#endif // APRIL_COMMON_TRACE_HH

/**
 * @file
 * Task-level observability: future/task lifecycle tracing, wait
 * attribution and critical-path analysis (DESIGN.md §7.10).
 *
 * The runtime and the Mul-T compiler drop out-of-band `tp$...` notes
 * (Program::notes()) at the probe sites of the task vocabulary —
 * spawn, steal, run, block, resume, resolve, the lazy-task claim
 * race. A ProbeMap turns the notes into a flat pc -> Site table; the
 * processor fires a probe when the marked instruction completes and
 * appends one self-contained TaskEvent to its shard's lane.
 * Processor-internal waits (future touches, f/e stalls, TAS retries,
 * frame switches) are recorded from the C++ trap paths directly, so
 * even programs without notes produce a non-trivial log.
 *
 * Like trace::Recorder and coh::TxnTracer, the tracer is an obs::Log:
 * per-shard lanes merged canonically by (cycle, node)
 * (common/obs_log.hh). Every event is recorded by the processor whose
 * node it names.
 *
 * All correlation (TaskId minting, DAG edges, wait episodes, the
 * critical path, health detectors) happens in analyze(): one
 * deterministic sequential pass over the merged stream. Events only
 * carry what the recording site knows locally, which is what makes
 * the record path observational (it never perturbs the simulation).
 */

#ifndef APRIL_TASK_TASK_TRACE_HH
#define APRIL_TASK_TASK_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/obs_log.hh"
#include "isa/assembler.hh"
#include "isa/types.hh"

namespace april::task
{

/** Task/future lifecycle event kinds. */
enum class Ev : uint8_t
{
    RootBegin,    ///< boot thread enters user main (node 0)
    RootEnd,      ///< boot thread back from user main
    Spawn,        ///< eager task packaged: addr=descriptor, aux=future
    SpawnLazy,    ///< lazy marker published: addr=marker
    MakeFuture,   ///< future cell allocated: addr=future
    PopTask,      ///< scheduler popped a local task: addr=descriptor
    StealAttempt, ///< scheduler begins a steal round (no work found yet)
    StealTask,    ///< eager task stolen from a victim: addr=descriptor
    StealWon,     ///< lazy continuation claimed: addr=marker
    LazyPub,      ///< thief links marker -> future: addr=marker, aux=future
    LazyMine,     ///< owner reclaimed its newest lazy marker inline
    LazyStolen,   ///< producer found its continuation stolen: addr=future
    LazyResume,   ///< thief resumes the continuation: addr=future
    Run,          ///< scheduler calls into a task body: addr=descriptor
    Resolve,      ///< future resolved: addr=future
    Touch,        ///< future-touch trap on an unresolved value: addr=future
    Block,        ///< thread queued on a future: addr=future, aux=thread
    Resume,       ///< blocked thread restored locally: addr=thread
    ResumeStolen, ///< blocked thread migrated to a thief: addr=thread
    FeStall,      ///< full/empty synchronization fault: addr=word
    TasRetry,     ///< TAS found the lock held: addr=word
    FrameSwitch,  ///< context switch: addr=old frame, aux=new frame
};

constexpr size_t kNumEvs = size_t(Ev::FrameSwitch) + 1;

/** Canonical event name ("Spawn", "StealWon", ...). */
const char *evName(Ev e);

/**
 * One recorded task event. `node` is always the processor that
 * recorded it (the merge key). `work` snapshots the recording frame's
 * Useful+Hazard cycle counters, so the analysis pass can attribute
 * per-segment work without the recorder knowing task identities; the
 * counters only advance on executed instructions, which keeps them
 * (and therefore the whole event) invariant under cycle-skipping.
 */
struct TaskEvent
{
    uint64_t cycle = 0;
    uint64_t work = 0;
    uint32_t node = 0;
    Addr addr = 0;
    uint32_t aux = 0;
    Ev kind = Ev::Spawn;
    uint8_t frame = 0;

    bool operator==(const TaskEvent &) const = default;

    /** Fields of a log record after the cycle (obs::codec). */
    static constexpr auto
    fields()
    {
        return std::tuple{&TaskEvent::work, &TaskEvent::node,
                          &TaskEvent::addr, &TaskEvent::aux,
                          &TaskEvent::kind, &TaskEvent::frame};
    }
};

/** No-register marker in Site::addrReg / Site::auxReg. */
constexpr uint8_t kNoReg = 0xff;

/**
 * How to materialize one probe site's event: which registers hold the
 * payload at the marked pc and whether they carry tagged pointers
 * (untagged to word addresses via tagged::ptrAddr).
 */
struct Site
{
    Ev kind = Ev::Spawn;
    uint8_t addrReg = kNoReg;
    bool addrPtr = false;
    uint8_t auxReg = kNoReg;
    bool auxPtr = false;
};

/**
 * Flat pc -> Site table built from a Program's `tp$...` notes. One
 * site per pc (a later note at the same pc wins). Immutable after
 * construction, shared by every processor of a machine.
 */
class ProbeMap
{
  public:
    explicit ProbeMap(const Program &prog);

    /** Site at @p pc, nullptr when unmarked. */
    const Site *
    at(uint32_t pc) const
    {
        int32_t i = pc < siteAt_.size() ? siteAt_[pc] : -1;
        return i < 0 ? nullptr : &sites_[size_t(i)];
    }

  private:
    std::vector<Site> sites_;
    std::vector<int32_t> siteAt_;
};

/** The per-machine (or per-shard lane) task event log. */
using Tracer = obs::Log<TaskEvent>;

/**
 * Append Perfetto events for @p log to an open Chrome-trace event
 * array (trace::ExtraEventWriter shape): one async "task" span per
 * task from spawn to resolve, with flow arrows threading spawn node
 * -> running node for migrated (stolen) tasks.
 */
void writeChromeEvents(std::ostream &os, bool &first, const Tracer &log);

// ---------------------------------------------------------------------
// Analysis (the deterministic post-pass)
// ---------------------------------------------------------------------

struct AnalyzeParams
{
    uint32_t numNodes = 1;
    /// T_actual; 0 means "use the last event's cycle".
    uint64_t totalCycles = 0;
    /// A block outlasting this many cycles counts as starvation.
    uint64_t starvationThreshold = 10000;
    /// This many consecutive fruitless steal rounds on one node is a
    /// steal convoy.
    uint32_t convoyLength = 16;
};

/** One minted task. id = (spawn node << 32) | per-node sequence. */
struct TaskInfo
{
    uint64_t id = 0;
    uint64_t parent = 0;        ///< spawning task id (0 = none)
    uint32_t spawnNode = 0;
    uint32_t runNode = 0;       ///< where it first ran
    bool lazy = false;
    bool stolen = false;
    bool ran = false;
    uint64_t spawnCycle = 0;
    uint64_t runCycle = 0;
    uint64_t resolveCycle = 0;  ///< 0 while unresolved
    Addr future = 0;            ///< future it resolves (0 unknown)
    uint64_t work = 0;          ///< Useful+Hazard cycles in its segments
    uint64_t waitCycles = 0;    ///< blocked-on-future cycles
    /// Parent's accumulated work at the spawn point (start offset on
    /// the spawn edge of the critical-path recurrence).
    uint64_t parentWorkAtSpawn = 0;
    /// Producers of futures this task waited on: (task index into
    /// Report::tasks, this task's work when the wait began).
    std::vector<std::pair<uint32_t, uint64_t>> deps;
    uint64_t finish = 0;        ///< critical-path finish time (work units)
    bool onCriticalPath = false;
};

/** Wait attribution for one synchronization word. */
struct SyncWord
{
    Addr addr = 0;
    uint64_t producer = 0;      ///< resolving task id (0 unknown)
    uint32_t episodes = 0;
    uint64_t totalWait = 0;
    uint64_t maxWait = 0;
    uint32_t touches = 0;
    uint32_t blocks = 0;
    uint32_t feStalls = 0;
    uint32_t tasRetries = 0;
};

/** Runtime health findings (deterministic order, detail lines capped). */
struct Health
{
    uint32_t starvation = 0;
    uint32_t stealConvoys = 0;
    uint32_t lostWakeups = 0;
    std::vector<std::string> notes;
};

/** The full analysis result. */
struct Report
{
    uint32_t numNodes = 1;
    uint64_t totalCycles = 0;   ///< T_actual
    uint64_t eventCount = 0;
    uint64_t dropped = 0;
    uint64_t totalWork = 0;     ///< sum of task work
    uint64_t criticalPath = 0;  ///< DAG lower bound (work units)
    double lowerBound = 0;      ///< max(criticalPath, totalWork/P)
    double score = 0;           ///< latency tolerance: lowerBound/T_actual
    uint64_t exposed = 0;       ///< T_actual - lowerBound (clamped)
    uint64_t waitTotal = 0;     ///< all wait-episode cycles
    uint32_t spawns = 0;
    uint32_t steals = 0;
    uint32_t stealAttempts = 0;
    uint32_t switches = 0;
    std::vector<TaskInfo> tasks;        ///< minting order
    std::vector<SyncWord> syncWords;    ///< first-appearance order
    std::vector<uint64_t> criticalChain;///< task ids, root to leaf
    /// log2 wait histograms (stats::Histogram::logBucket layout).
    std::vector<uint64_t> waitHist;
    std::vector<uint64_t> blockHist;
    std::vector<uint64_t> spinHist;     ///< f/e + TAS episodes
    Health health;
};

/** Run the sequential post-pass over a canonically merged log. */
Report analyze(const Tracer &log, const AnalyzeParams &params);

/**
 * Serialize the report as structured JSON (schemaVersion 1, validated
 * by tools/april_task_schema.json). Deterministic for a given log, so
 * differential tests compare serializations byte for byte.
 */
void writeReportJson(std::ostream &os, const Report &r);

/** Human-oriented report: slowest tasks, hottest sync words, the
 *  critical path and the latency-tolerance breakdown. */
void writeReportText(std::ostream &os, const Report &r);

} // namespace april::task

#endif // APRIL_TASK_TASK_TRACE_HH

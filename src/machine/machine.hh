/**
 * @file
 * The layer every APRIL machine shares: the processors and what sits
 * between them and the code that builds, runs and reports on a
 * machine. The paper's simulator is one processor simulator with the
 * cache and network simulators layered under it, and its perfect-
 * memory runs leave those lower layers out (Section 7). Here Machine
 * is that upper layer. It owns the memory image, the processors and
 * their I/O registers, the console, the halt flag and the clock, and
 * the observability planes, samplers and probe map. The two machines
 * derive from it and keep only their memory systems and advance():
 * the perfect-memory multiprocessor (machine/perfect_machine.hh) and
 * the full ALEWIFE machine (machine/alewife_machine.hh).
 *
 * run() and quiesce() are both machines' one run and drain loops, and
 * skipTarget() their one skip decision. The loops call the machine's
 * virtual hooks once per window or barrier, and the I/O hooks fire
 * only on STIO writes: nothing per node-cycle calls a virtual.
 */

#ifndef APRIL_MACHINE_MACHINE_HH
#define APRIL_MACHINE_MACHINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "coherence/coh_trace.hh"
#include "common/bits.hh"
#include "common/obs_log.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "mem/memory.hh"
#include "proc/processor.hh"
#include "profile/interval.hh"
#include "profile/pc_sampler.hh"
#include "profile/report.hh"
#include "runtime/runtime.hh"
#include "task/task_trace.hh"

namespace april
{

/** Configuration every machine shares (the observability planes come
 *  from ObsParams). */
struct MachineParams : ObsParams
{
    uint32_t wordsPerNode = 1u << 20;
    ProcParams proc;            ///< per-processor parameters
    uint64_t seed = 12345;      ///< work-stealing RNG seed
    /// Boot the Mul-T run-time system on every node (requires the
    /// runtime's symbols in the program). Turn off for raw programs
    /// that manage their own entry points and trap vectors.
    bool bootRuntime = true;
    /// Fast-forward cycles when every component is provably idle
    /// (cycle-exact; see skipTarget()). Off forces the plain per-cycle
    /// loop.
    bool cycleSkip = true;
};

/**
 * Skip-probe hysteresis, kept by Machine::skipTarget(). A probe asks
 * whether the next cycles are provably idle; when one finds no
 * window, the next probe waits, the wait doubling up to a cap, and a
 * probe that finds a window resets it. Probe-hostile phases (every
 * core busy every cycle) then don't pay the scan per tick. Ticking
 * through a window that opens mid-back-off is equivalent to skipping
 * it, so this is a host-speed knob only: it cannot change simulated
 * state.
 */
struct ProbeBackoff
{
    uint64_t probeAt = 0;       ///< no probe before this cycle
    uint32_t wait = 0;          ///< the last miss's wait, in cycles
};

/** An APRIL multiprocessor; its statistics tree is the machine. */
class Machine : public stats::Group
{
  public:
    ~Machine() override;

    /**
     * Run until the machine halts or @p max_cycles elapse, in windows
     * that end at each interval-sample boundary.
     * @return elapsed machine cycles.
     */
    uint64_t run(uint64_t max_cycles);

    /**
     * Tick until no component has a pending event or @p max_cycles
     * elapse; @return true when fully quiescent. run() stops at the
     * halt, which can leave work in flight; snapshot and compare flows
     * quiesce first so the final state is well defined.
     */
    bool quiesce(uint64_t max_cycles);

    /** Advance exactly one cycle (no interval sample). */
    virtual void tick() = 0;

    /** Earliest cycle at which any component can do observable work;
     *  kNeverCycle when the machine is permanently idle. */
    virtual uint64_t nextEventCycle() const = 0;

    bool halted() const { return haltFlag_; }
    uint64_t cycle() const { return cycle_; }
    uint32_t numNodes() const { return mem_.numNodes(); }

    Processor &proc(uint32_t n) { return *procs_.at(n); }
    SharedMemory &memory() { return mem_; }

    /** Console output (all nodes, in emission order). */
    const std::vector<Word> &console() const { return console_; }

    /** The word at @p a as the coherent image holds it. Without
     *  caches that is the backing store. */
    virtual Word coherentRead(Addr a) const { return mem_.read(a); }

    /** A node-block run-time counter summed across nodes, read
     *  coherently. */
    uint64_t runtimeCounter(int slot) const;

    /** Instructions executed, summed over the nodes' statInsts. */
    uint64_t instructions() const;

    /** Event log with all lanes merged (nullptr unless traceEvents). */
    trace::Recorder *traceRecorder() { return trace_.merged(); }

    /** Coherence-transaction log with all lanes merged (nullptr
     *  unless cohTrace on a machine with caches). */
    coh::TxnTracer *txnTracer() { return coh_.merged(); }

    /** Task-event log with all lanes merged (nullptr unless
     *  taskTrace). */
    task::Tracer *taskTracer() { return task_.merged(); }

    /** Serialize the event log as Chrome trace-event JSON, stitching
     *  in the coherence-transaction flows and task spans of the planes
     *  that are on. No-op when machine tracing is off. */
    void writeTrace(std::ostream &os);

    /** Serialize the coherence-transaction log as structured JSON.
     *  No-op when that plane is off. */
    void writeCohTrace(std::ostream &os);

    /** Analyze the task-event log up to the current cycle; the task
     *  plane must be on. */
    task::Report taskReport();

    /** Serialize taskReport() as structured JSON. No-op when task
     *  tracing is off. */
    void writeTaskTrace(std::ostream &os);

    /** The report writers' view of this run. */
    profile::ProfileSource profileSource() const;

    /** Interval time series (nullptr unless statsInterval is set). */
    const profile::IntervalSampler *
    intervalSampler() const
    {
        return interval_.get();
    }

    /** Panic unless every processor's bucket sums equal its cycle
     *  count (per node and per frame). quiesce() calls this; tests and
     *  tools may call it at any point. */
    void verifyCycleAccounting() const;

  protected:
    /** What a concrete machine tells the shared layer about itself. */
    struct Shape
    {
        const char *name = "machine";   ///< root stats group
        uint32_t numNodes = 1;
        uint32_t lanes = 1;     ///< trace lanes per plane (one per shard)
        /// The machine has caches: it gets the coherence-transaction
        /// plane and its cohTraceDropped statistic.
        bool coherent = false;
    };

    /** Build the memory image and open the planes @p p asks for.
     *  @p prog must outlive the machine. */
    Machine(const Shape &shape, const MachineParams &p,
            const Program *prog);

    /**
     * Wire node @p n: initialise its node block, build its processor
     * on @p port with its I/O registers, attach lane @p lane of the
     * trace and task planes, boot it when bootRuntime is set and give
     * it a PC sampler when profiling. The node's CycleCount register
     * reads @p clock. Call once per node, in node order.
     */
    Processor &addNode(uint32_t n, MemPort *port, uint32_t lane,
                       const uint64_t *clock);

    /** Build the interval sampler when statsInterval is set. Call it
     *  last in the constructor, so every subsystem's statistics exist
     *  and become columns. */
    void startIntervalSampler();

    /** Tick or skip toward @p stop (> cycle()); return there, at the
     *  halt, or at a boundary of the machine's own. */
    virtual void advance(uint64_t stop) = 0;

    /** Fold statistics kept outside the stats tree into it; run
     *  before every sample and at the end of run() and quiesce(). */
    virtual void foldObservability() {}

    /**
     * The one skip decision for components at @p now < @p stop whose
     * earliest event is @p next_event(). @return the cycle they may
     * fast-forward to, at most @p stop, or @p now to tick. A null
     * @p probe probes on every call.
     */
    template <class NextEvent>
    uint64_t
    skipTarget(ProbeBackoff *probe, uint64_t now, uint64_t stop,
               NextEvent next_event) const
    {
        if (!params_.cycleSkip || (probe && now < probe->probeAt))
            return now;
        uint64_t next = next_event();
        if (next > now + 1) {
            if (probe)
                probe->wait = 0;
            return next == kNeverCycle ? stop : std::min(next - 1, stop);
        }
        if (probe) {
            probe->wait = std::min<uint32_t>(
                probe->wait ? probe->wait * 2 : 1, 32);
            probe->probeAt = now + 1 + probe->wait;
        }
        return now;
    }

    // The I/O-register effects each machine implements its own way;
    // NodeIo decodes the registers and calls these on STIO writes.

    /** Node @p node wrote @p word to the console. */
    virtual void consoleOut(uint32_t node, Word word) = 0;
    /** Node @p node wrote MachineHalt. */
    virtual void machineHalt(uint32_t node) = 0;
    /** Node @p src sent interrupt @p arg to node @p dst. */
    virtual void sendIpi(uint32_t src, uint32_t dst, Word arg) = 0;
    /** Node @p node started a block transfer of @p len words;
     *  @return cycles its processor is held. */
    virtual uint32_t blockGo(uint32_t node, Word src, Word dst,
                             Word len) = 0;

    const MachineParams params_;
    SharedMemory mem_;
    obs::Plane<trace::Event> trace_;
    obs::Plane<coh::TxnEvent> coh_;
    obs::Plane<task::TaskEvent> task_;
    std::vector<std::unique_ptr<Processor>> procs_;
    std::unique_ptr<profile::IntervalSampler> interval_;
    std::vector<Word> console_;
    bool haltFlag_ = false;
    uint64_t cycle_ = 0;

  private:
    class NodeIo;

    /** Fold and take the interval sample due at cycle(), if any. */
    void sampleIfDue();

    const Program *prog_;
    /// The run-time system's entry points, when bootRuntime is set.
    rt::BootEntries bootEntries_;
    std::unique_ptr<task::ProbeMap> taskProbes_;
    /// Plane overflow surfaced in stats JSON (Plane::dropped()).
    stats::Formula statTraceDropped;
    stats::Formula statCohTraceDropped;
    stats::Formula statTaskTraceDropped;
    bool warnedTraceDrop_ = false;
    std::vector<std::unique_ptr<NodeIo>> ios_;
    std::vector<std::unique_ptr<profile::PcSampler>> samplers_;
};

} // namespace april

#endif // APRIL_MACHINE_MACHINE_HH

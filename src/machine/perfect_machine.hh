/**
 * @file
 * A multiprocessor of APRIL cores over perfect (zero-latency) shared
 * memory.
 *
 * "Measurements for multiple processor executions on APRIL used the
 * processor simulator without the cache and network simulators, in
 * effect simulating a shared-memory machine with no memory latency"
 * (Section 7). This machine is that configuration: N processors
 * stepped round-robin one cycle at a time against one SharedMemory
 * image, with per-node I/O (console, RNG, IPIs) and a global halt.
 *
 * The full cache + directory + network ALEWIFE machine lives in
 * machine/alewife_machine.hh.
 */

#ifndef APRIL_MACHINE_PERFECT_MACHINE_HH
#define APRIL_MACHINE_PERFECT_MACHINE_HH

#include <memory>
#include <vector>

#include "common/obs_log.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "isa/assembler.hh"
#include "machine/machine.hh"
#include "mem/memory.hh"
#include "proc/perfect_port.hh"
#include "proc/processor.hh"
#include "task/task_trace.hh"
#include "profile/interval.hh"
#include "profile/pc_sampler.hh"
#include "profile/report.hh"
#include "runtime/runtime.hh"

namespace april
{

/** Configuration of a perfect-memory machine (the observability
 *  planes come from ObsParams; cohTrace has no effect here). */
struct PerfectMachineParams : ObsParams
{
    uint32_t numNodes = 1;
    uint32_t wordsPerNode = 1u << 20;
    ProcParams proc;            ///< per-processor parameters
    uint64_t seed = 12345;      ///< work-stealing RNG seed
    /// Boot the Mul-T run-time system on every node (requires the
    /// runtime's symbols in the program). Turn off for raw programs
    /// that manage their own entry points and trap vectors.
    bool bootRuntime = true;
    /// Fast-forward cycles in run() when every processor is stalled or
    /// halted (cycle-exact; see Processor::nextEventCycle()).
    bool cycleSkip = true;
};

/** N APRIL cores on zero-latency shared memory. */
class PerfectMachine final : public Machine
{
  public:
    PerfectMachine(const PerfectMachineParams &params,
                   const Program *prog);

    /** Advance every processor by one cycle. */
    void tick();

    /**
     * Run until the machine halts (boot thread finished) or
     * @p max_cycles elapse. @return elapsed machine cycles.
     */
    uint64_t run(uint64_t max_cycles) override;

    /**
     * Earliest cycle at which any processor can do observable work;
     * kNeverCycle when all cores are halted (perfect memory has no
     * other time-dependent component).
     */
    uint64_t nextEventCycle() const;

    /** Toggle cycle-skipping in run(). */
    void setCycleSkipping(bool on) { params.cycleSkip = on; }

    /**
     * Tick until no processor has a pending event or @p max_cycles
     * elapse; @return true when fully quiescent. run() exits the
     * moment MachineHalt is written, which can leave other cores one
     * instruction short of their own HALT — snapshot/compare flows
     * quiesce first so final state is well defined.
     */
    bool quiesce(uint64_t max_cycles) override;

    bool halted() const override { return haltFlag; }
    uint64_t cycle() const override { return _cycle; }

    Processor &proc(uint32_t n) override { return *procs.at(n); }
    SharedMemory &memory() override { return mem; }
    uint32_t numNodes() const override { return params.numNodes; }

    const std::vector<Word> &console() const override
    {
        return consoleWords;
    }

    uint64_t runtimeCounter(int slot) const override;

    /** Event recorder (nullptr unless params.traceEvents). */
    trace::Recorder *traceRecorder() { return trace_.merged(); }

    /** Task-event log (nullptr unless params.taskTrace). The single
     *  sequential lane is already (cycle, node)-canonical. */
    task::Tracer *taskTracer() override { return task_.merged(); }

    /** Serialize the event log as Chrome trace-event JSON, stitching
     *  in task spans when task tracing is on. No-op when machine
     *  tracing is off. */
    void writeTrace(std::ostream &os) override;

    profile::ProfileSource profileSource() const override;

    const profile::IntervalSampler *intervalSampler() const override
    {
        return interval_.get();
    }

    /**
     * Panic unless every processor's bucket sums equal its cycle
     * count (per node and per frame). quiesce() calls this; tests and
     * tools may call it at any point.
     */
    void verifyCycleAccounting() const override;

  private:
    /** Per-node memory-mapped I/O. */
    class NodeIo : public IoPort
    {
      public:
        NodeIo(PerfectMachine *machine, uint32_t node, uint64_t seed)
            : m(machine), node(node), rng(seed)
        {}

        Word ioRead(IoReg r) override;
        uint32_t ioWrite(IoReg r, Word value) override;

      private:
        PerfectMachine *m;
        uint32_t node;
        Rng rng;
        Word ipiDest = 0;
        Word blockSrc = 0;
        Word blockDst = 0;
    };

    PerfectMachineParams params;
    SharedMemory mem;
    obs::Plane<trace::Event> trace_;
    obs::Plane<task::TaskEvent> task_;
    std::unique_ptr<task::ProbeMap> taskProbes_;
    /// Plane overflow surfaced in stats JSON (single lane here).
    stats::Formula statTraceDropped;
    stats::Formula statTaskTraceDropped;
    bool warnedTraceDrop_ = false;
    std::vector<std::unique_ptr<PerfectMemPort>> ports;
    std::vector<std::unique_ptr<NodeIo>> ios;
    std::vector<std::unique_ptr<Processor>> procs;
    std::vector<std::unique_ptr<profile::PcSampler>> samplers;
    std::unique_ptr<profile::IntervalSampler> interval_;
    std::vector<Word> consoleWords;
    bool haltFlag = false;
    uint64_t _cycle = 0;
    /// Skip-probe hysteresis (host speed only; see run()): no probe
    /// before probeAt_, back-off doubling to a cap, reset on a skip.
    uint64_t probeAt_ = 0;
    uint32_t probeBackoff_ = 0;
};

} // namespace april

#endif // APRIL_MACHINE_PERFECT_MACHINE_HH

/**
 * @file
 * What every APRIL machine offers the code that builds, runs and
 * reports on it: the perfect-memory multiprocessor
 * (machine/perfect_machine.hh) and the full ALEWIFE machine
 * (machine/alewife_machine.hh) both implement this interface, so the
 * driver and the `april` CLI run either through one code path.
 *
 * Whole-run calls only: run() is entered once per run and the
 * simulator's per-cycle code never calls through this interface.
 */

#ifndef APRIL_MACHINE_MACHINE_HH
#define APRIL_MACHINE_MACHINE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/stats.hh"
#include "mem/memory.hh"
#include "proc/processor.hh"
#include "profile/interval.hh"
#include "profile/report.hh"
#include "task/task_trace.hh"

namespace april
{

/** An APRIL multiprocessor; its statistics tree is the machine. */
class Machine : public stats::Group
{
  public:
    /**
     * Run until the machine halts or @p max_cycles elapse.
     * @return elapsed machine cycles.
     */
    virtual uint64_t run(uint64_t max_cycles) = 0;

    /**
     * Tick until no component has a pending event or @p max_cycles
     * elapse; @return true when fully quiescent.
     */
    virtual bool quiesce(uint64_t max_cycles) = 0;

    virtual bool halted() const = 0;
    virtual uint64_t cycle() const = 0;
    virtual uint32_t numNodes() const = 0;

    virtual Processor &proc(uint32_t n) = 0;
    virtual SharedMemory &memory() = 0;

    /** Console output (all nodes, in emission order). */
    virtual const std::vector<Word> &console() const = 0;

    /** A node-block run-time counter summed across nodes. */
    virtual uint64_t runtimeCounter(int slot) const = 0;

    /** Serialize the event log as Chrome trace-event JSON, with the
     *  machine's other planes stitched in. No-op when tracing is
     *  off. */
    virtual void writeTrace(std::ostream &os) = 0;

    /** Task-event log (nullptr unless the taskTrace plane is on). */
    virtual task::Tracer *taskTracer() = 0;

    /** The report writers' view of this run. */
    virtual profile::ProfileSource profileSource() const = 0;

    /** Interval time series (nullptr unless statsInterval is set). */
    virtual const profile::IntervalSampler *intervalSampler() const = 0;

    /** Panic unless every processor's bucket sums equal its cycle
     *  count (per node and per frame). */
    virtual void verifyCycleAccounting() const = 0;

    /** Analyze the task-event log up to the current cycle; the task
     *  plane must be on. */
    task::Report taskReport();

    /** Serialize taskReport() as structured JSON. No-op when task
     *  tracing is off. */
    void writeTaskTrace(std::ostream &os);

  protected:
    using stats::Group::Group;
};

} // namespace april

#endif // APRIL_MACHINE_MACHINE_HH

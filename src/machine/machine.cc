#include "machine/machine.hh"

#include "common/debug.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "machine/trace_config.hh"
#include "runtime/layout.hh"
#include "runtime/runtime.hh"

namespace april
{

/** One node's memory-mapped I/O registers. The machine sees only the
 *  four effects that differ between machines. */
class Machine::NodeIo final : public IoPort
{
  public:
    NodeIo(Machine *machine, uint32_t node, uint64_t seed,
           const uint64_t *clock)
        : m(machine), node(node), clock(clock), rng(seed)
    {}

    Word
    ioRead(IoReg r) override
    {
        switch (r) {
          case IoReg::CycleCount: return Word(*clock);
          case IoReg::NodeId: return node;
          case IoReg::NumNodes: return m->numNodes();
          case IoReg::Random: return Word(rng.next());
          default: return 0;
        }
    }

    uint32_t
    ioWrite(IoReg r, Word value) override
    {
        switch (r) {
          case IoReg::ConsoleOut:
            m->consoleOut(node, value);
            break;
          case IoReg::MachineHalt:
            m->machineHalt(node);
            break;
          case IoReg::IpiDest:
            ipiDest = value;
            break;
          case IoReg::IpiSend:
            if (ipiDest < m->numNodes())
                m->sendIpi(node, uint32_t(ipiDest), value);
            break;
          case IoReg::BlockSrc:
            blockSrc = value;
            break;
          case IoReg::BlockDst:
            blockDst = value;
            break;
          case IoReg::BlockGo:
            return m->blockGo(node, blockSrc, blockDst, value);
          default:
            break;
        }
        return 0;
    }

  private:
    Machine *m;
    uint32_t node;
    const uint64_t *clock;  ///< the node's local clock
    Rng rng;
    Word ipiDest = 0;
    Word blockSrc = 0;
    Word blockDst = 0;
};

Machine::Machine(const Shape &shape, const MachineParams &p,
                 const Program *prog)
    : stats::Group(shape.name),
      params_(p),
      mem_({.numNodes = shape.numNodes, .wordsPerNode = p.wordsPerNode}),
      prog_(prog),
      // The perfect machine's wording predates the shared planes; it
      // stays so that machine's stats JSON is unchanged.
      statTraceDropped(
          this, "traceDropped",
          shape.coherent
              ? "machine trace events dropped at the capacity cap"
              : "machine events lost to recorder overflow",
          [this] { return double(trace_.dropped()); }),
      statCohTraceDropped(
          shape.coherent ? this : nullptr, "cohTraceDropped",
          "coherence-transaction legs dropped at the capacity cap",
          [this] { return double(coh_.dropped()); }),
      statTaskTraceDropped(
          this, "taskTraceDropped",
          "task events dropped at the capacity cap",
          [this] { return double(task_.dropped()); })
{
    debug::initFromEnv();
    if (p.bootRuntime)
        bootEntries_ = rt::BootEntries::of(*prog);
    if (p.traceEvents)
        trace_.open(p.capacity, shape.lanes);
    if (p.cohTrace && shape.coherent)
        coh_.open(p.capacity, shape.lanes);
    if (p.taskTrace) {
        task_.open(p.capacity, shape.lanes);
        taskProbes_ = std::make_unique<task::ProbeMap>(*prog);
    }
}

Machine::~Machine() = default;

Processor &
Machine::addNode(uint32_t n, MemPort *port, uint32_t lane,
                 const uint64_t *clock)
{
    rt::Runtime::initNode(mem_, n);
    ios_.push_back(std::make_unique<NodeIo>(
        this, n, params_.seed * 1000003 + n, clock));
    ProcParams pp = params_.proc;
    pp.nodeId = n;
    procs_.push_back(std::make_unique<Processor>(
        pp, prog_, port, ios_.back().get(), this));
    Processor &proc = *procs_.back();
    proc.setTraceRecorder(trace_.lane(lane));
    proc.setTaskProbe(taskProbes_.get(), task_.lane(lane));
    if (params_.bootRuntime)
        rt::Runtime::bootProcessor(proc, bootEntries_, mem_, n, numNodes());
    if (params_.profile) {
        samplers_.push_back(
            std::make_unique<profile::PcSampler>(params_.profilePeriod));
        proc.setPcSampler(samplers_.back().get());
    }
    return proc;
}

void
Machine::startIntervalSampler()
{
    if (params_.statsInterval)
        interval_ = std::make_unique<profile::IntervalSampler>(
            params_.statsInterval, *this);
}

uint64_t
Machine::run(uint64_t max_cycles)
{
    const uint64_t start = cycle_;
    const uint64_t end = max_cycles > kNeverCycle - cycle_
        ? kNeverCycle
        : cycle_ + max_cycles;
    while (!haltFlag_ && cycle_ < end) {
        // Skipping is additive, so ending a window at a sample
        // boundary is cycle-exact.
        advance(interval_
                    ? std::min(end, interval_->nextSampleCycle(cycle_))
                    : end);
        sampleIfDue();
    }
    foldObservability();
    obs::warnOverflow(warnedTraceDrop_, trace_.dropped(), coh_.dropped(),
                      task_.dropped());
    return cycle_ - start;
}

bool
Machine::quiesce(uint64_t max_cycles)
{
    bool quiet = nextEventCycle() == kNeverCycle;
    for (uint64_t i = 0; i < max_cycles && !quiet; ++i) {
        tick();
        sampleIfDue();
        quiet = nextEventCycle() == kNeverCycle;
    }
    verifyCycleAccounting();
    foldObservability();
    return quiet;
}

void
Machine::sampleIfDue()
{
    if (interval_) {
        foldObservability();
        interval_->sampleIfDue(cycle_);
    }
}

uint64_t
Machine::runtimeCounter(int slot) const
{
    uint64_t total = 0;
    for (uint32_t n = 0; n < numNodes(); ++n)
        total += coherentRead(mem_.nodeBase(n) + rt::nodeBlockOff +
                              Addr(slot));
    return total;
}

uint64_t
Machine::instructions() const
{
    uint64_t total = 0;
    for (const auto &p : procs_)
        total += uint64_t(p->statInsts.value());
    return total;
}

void
Machine::writeTrace(std::ostream &os)
{
    trace::Recorder *r = traceRecorder();
    if (!r)
        return;
    coh::TxnTracer *t = txnTracer();
    task::Tracer *tt = taskTracer();
    trace::writeChromeTrace(
        os, *r, makeRecorderConfig(numNodes(), params_.proc.numFrames),
        [t, tt](std::ostream &o, bool &first) {
            if (t)
                coh::writeChromeEvents(o, first, *t);
            if (tt)
                task::writeChromeEvents(o, first, *tt);
        });
}

void
Machine::writeCohTrace(std::ostream &os)
{
    if (coh::TxnTracer *t = txnTracer())
        coh::writeJson(os, *t);
}

task::Report
Machine::taskReport()
{
    task::Tracer *t = taskTracer();
    panicIfNot(t, "taskReport: the task plane is off");
    task::AnalyzeParams p;
    p.numNodes = numNodes();
    p.totalCycles = cycle();
    task::Report r = task::analyze(*t, p);
    r.dropped = t->dropped();
    return r;
}

void
Machine::writeTaskTrace(std::ostream &os)
{
    if (taskTracer())
        task::writeReportJson(os, taskReport());
}

profile::ProfileSource
Machine::profileSource() const
{
    profile::ProfileSource src;
    src.machineCycles = cycle_;
    src.program = prog_;
    for (const auto &p : procs_)
        src.procs.push_back(p.get());
    for (const auto &s : samplers_)
        src.samplers.push_back(s.get());
    src.intervals = interval_.get();
    return src;
}

void
Machine::verifyCycleAccounting() const
{
    for (const auto &p : procs_)
        p->verifyCycleAccounting();
}

} // namespace april

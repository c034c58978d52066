#include "machine/perfect_machine.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/debug.hh"
#include "machine/trace_config.hh"
#include "runtime/layout.hh"

namespace april
{

PerfectMachine::PerfectMachine(const PerfectMachineParams &p,
                               const Program *prog)
    : Machine("machine"),
      params(p),
      mem({.numNodes = p.numNodes, .wordsPerNode = p.wordsPerNode}),
      statTraceDropped(
          this, "traceDropped",
          "machine events lost to recorder overflow",
          [this] { return double(trace_.dropped()); }),
      statTaskTraceDropped(
          this, "taskTraceDropped",
          "task events dropped at the capacity cap",
          [this] { return double(task_.dropped()); })
{
    debug::initFromEnv();
    if (p.traceEvents)
        trace_.open(p.capacity, 1);
    if (p.taskTrace) {
        task_.open(p.capacity, 1);
        taskProbes_ = std::make_unique<task::ProbeMap>(*prog);
    }
    for (uint32_t n = 0; n < p.numNodes; ++n) {
        rt::Runtime::initNode(mem, n);
        ports.push_back(std::make_unique<PerfectMemPort>(&mem));
        ios.push_back(std::make_unique<NodeIo>(this, n,
                                               p.seed * 1000003 + n));
        ProcParams pp = p.proc;
        pp.nodeId = n;
        procs.push_back(std::make_unique<Processor>(
            pp, prog, ports.back().get(), ios.back().get(), this));
        procs.back()->setTraceRecorder(trace_.lane(0));
        procs.back()->setTaskProbe(taskProbes_.get(), task_.lane(0));
        if (p.bootRuntime) {
            rt::Runtime::bootProcessor(*procs.back(), *prog, mem, n,
                                       p.numNodes);
        }
        if (p.profile) {
            samplers.push_back(std::make_unique<profile::PcSampler>(
                p.profilePeriod));
            procs.back()->setPcSampler(samplers.back().get());
        }
    }
    // Built last so every subsystem's statistics become columns.
    if (p.statsInterval)
        interval_ = std::make_unique<profile::IntervalSampler>(
            p.statsInterval, *this);
}

void
PerfectMachine::writeTrace(std::ostream &os)
{
    trace::Recorder *r = traceRecorder();
    if (!r)
        return;
    task::Tracer *t = taskTracer();
    trace::writeChromeTrace(
        os, *r, makeRecorderConfig(params.numNodes, params.proc.numFrames),
        [t](std::ostream &o, bool &first) {
            if (t)
                task::writeChromeEvents(o, first, *t);
        });
}

profile::ProfileSource
PerfectMachine::profileSource() const
{
    profile::ProfileSource src;
    src.machineCycles = _cycle;
    src.program = procs.empty() ? nullptr : procs[0]->program();
    for (const auto &p : procs)
        src.procs.push_back(p.get());
    for (const auto &s : samplers)
        src.samplers.push_back(s.get());
    src.intervals = interval_.get();
    return src;
}

void
PerfectMachine::verifyCycleAccounting() const
{
    for (const auto &p : procs)
        p->verifyCycleAccounting();
}

Word
PerfectMachine::NodeIo::ioRead(IoReg r)
{
    switch (r) {
      case IoReg::CycleCount: return Word(m->_cycle);
      case IoReg::NodeId: return node;
      case IoReg::NumNodes: return m->params.numNodes;
      case IoReg::Random: return Word(rng.next());
      default: return 0;
    }
}

uint32_t
PerfectMachine::NodeIo::ioWrite(IoReg r, Word value)
{
    switch (r) {
      case IoReg::ConsoleOut:
        m->consoleWords.push_back(value);
        break;
      case IoReg::MachineHalt:
        m->haltFlag = true;
        break;
      case IoReg::IpiDest:
        ipiDest = value;
        break;
      case IoReg::IpiSend:
        if (ipiDest < m->params.numNodes)
            m->procs[ipiDest]->postIpi(value);
        break;
      case IoReg::BlockSrc:
        blockSrc = value;
        break;
      case IoReg::BlockDst:
        blockDst = value;
        break;
      case IoReg::BlockGo: {
        // Section 3.4 block transfer: data and f/e bits move together
        // at one word per cycle (the processor is held meanwhile).
        const SharedMemory &image = m->mem;
        for (Word i = 0; i < value; ++i)
            m->mem.word(blockDst + i) = image.word(blockSrc + i);
        return value;
      }
      default:
        break;
    }
    return 0;
}

void
PerfectMachine::tick()
{
    ++_cycle;
    for (auto &p : procs)
        p->tick();
}

uint64_t
PerfectMachine::nextEventCycle() const
{
    uint64_t soon = _cycle + 1;
    uint64_t next = kNeverCycle;
    for (const auto &p : procs) {
        next = std::min(next, p->nextEventCycle());
        if (next <= soon)
            return next;
    }
    return next;
}

uint64_t
PerfectMachine::run(uint64_t max_cycles)
{
    uint64_t start = _cycle;
    while (!haltFlag && _cycle - start < max_cycles) {
        if (params.cycleSkip && _cycle >= probeAt_) {
            uint64_t next = nextEventCycle();
            if (next <= _cycle + 1) {
                // No skippable window: back off before probing again
                // so probe-hostile phases (every core busy every
                // cycle) don't pay the scan per tick. Ticking through
                // a window that opens mid-back-off is equivalent to
                // skipping it, so this is a host-speed knob only.
                probeBackoff_ = std::min<uint32_t>(
                    probeBackoff_ ? probeBackoff_ * 2 : 1, 32);
                probeAt_ = _cycle + 1 + probeBackoff_;
            } else {
                probeBackoff_ = 0;
                // Every core is stalled (or halted) until `next`:
                // credit the idle window in one arithmetic step,
                // clamped to the caller's budget.
                uint64_t idle = next == kNeverCycle
                    ? kNeverCycle
                    : next - _cycle - 1;
                uint64_t n =
                    std::min(idle, max_cycles - (_cycle - start));
                // Never skip past a stats-sample boundary: skipCycles
                // is additive, so splitting the window is cycle-exact
                // and the recorded series matches the per-cycle loop.
                if (interval_) {
                    n = std::min(
                        n, interval_->nextSampleCycle(_cycle) - _cycle);
                }
                _cycle += n;
                for (auto &p : procs)
                    p->skipCycles(n);
                if (interval_)
                    interval_->sampleIfDue(_cycle);
                continue;
            }
        }
        tick();
        if (interval_)
            interval_->sampleIfDue(_cycle);
    }
    obs::warnOverflow(warnedTraceDrop_, trace_.dropped(), 0,
                      task_.dropped());
    return _cycle - start;
}

bool
PerfectMachine::quiesce(uint64_t max_cycles)
{
    for (uint64_t i = 0; i < max_cycles; ++i) {
        if (nextEventCycle() == kNeverCycle) {
            verifyCycleAccounting();
            return true;
        }
        tick();
    }
    verifyCycleAccounting();
    return nextEventCycle() == kNeverCycle;
}

uint64_t
PerfectMachine::runtimeCounter(int slot) const
{
    uint64_t total = 0;
    for (uint32_t n = 0; n < params.numNodes; ++n) {
        total += mem.read(mem.nodeBase(n) + rt::nodeBlockOff +
                          Addr(slot));
    }
    return total;
}

} // namespace april

#include "machine/perfect_machine.hh"

#include <algorithm>

#include "common/bits.hh"

namespace april
{

PerfectMachine::PerfectMachine(const PerfectMachineParams &p,
                               const Program *prog)
    : Machine({.name = "machine", .numNodes = p.numNodes}, p, prog)
{
    for (uint32_t n = 0; n < p.numNodes; ++n) {
        ports.push_back(std::make_unique<PerfectMemPort>(&mem_));
        addNode(n, ports.back().get(), 0, &cycle_);
    }
    startIntervalSampler();
}

void
PerfectMachine::consoleOut(uint32_t, Word word)
{
    console_.push_back(word);
}

void
PerfectMachine::machineHalt(uint32_t)
{
    haltFlag_ = true;
}

void
PerfectMachine::sendIpi(uint32_t, uint32_t dst, Word arg)
{
    procs_[dst]->postIpi(arg);
}

uint32_t
PerfectMachine::blockGo(uint32_t, Word src, Word dst, Word len)
{
    // Section 3.4 block transfer: data and f/e bits move together at
    // one word per cycle (the processor is held meanwhile).
    const SharedMemory &image = mem_;
    for (Word i = 0; i < len; ++i)
        mem_.word(dst + i) = image.word(src + i);
    return len;
}

void
PerfectMachine::tick()
{
    ++cycle_;
    for (auto &p : procs_)
        p->tick();
}

uint64_t
PerfectMachine::nextEventCycle() const
{
    uint64_t soon = cycle_ + 1;
    uint64_t next = kNeverCycle;
    for (const auto &p : procs_) {
        next = std::min(next, p->nextEventCycle());
        if (next <= soon)
            return next;
    }
    return next;
}

void
PerfectMachine::advance(uint64_t stop)
{
    while (!haltFlag_ && cycle_ < stop) {
        uint64_t to = skipTarget(&probe_, cycle_, stop,
                                 [this] { return nextEventCycle(); });
        if (to == cycle_) {
            tick();
            continue;
        }
        // Every core is stalled (or halted) until `to`: credit the
        // idle window in one arithmetic step.
        uint64_t n = to - cycle_;
        cycle_ = to;
        for (auto &p : procs_)
            p->skipCycles(n);
    }
}

} // namespace april

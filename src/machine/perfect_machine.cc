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

uint64_t
PerfectMachine::run(uint64_t max_cycles)
{
    uint64_t start = cycle_;
    while (!haltFlag_ && cycle_ - start < max_cycles) {
        if (params_.cycleSkip && probe_.due(cycle_)) {
            uint64_t next = nextEventCycle();
            if (next <= cycle_ + 1) {
                probe_.miss(cycle_);
            } else {
                probe_.hit();
                // Every core is stalled (or halted) until `next`:
                // credit the idle window in one arithmetic step,
                // clamped to the caller's budget.
                uint64_t idle = next == kNeverCycle
                    ? kNeverCycle
                    : next - cycle_ - 1;
                uint64_t n =
                    std::min(idle, max_cycles - (cycle_ - start));
                // Never skip past a stats-sample boundary: skipCycles
                // is additive, so splitting the window is cycle-exact
                // and the recorded series matches the per-cycle loop.
                if (interval_) {
                    n = std::min(
                        n, interval_->nextSampleCycle(cycle_) - cycle_);
                }
                cycle_ += n;
                for (auto &p : procs_)
                    p->skipCycles(n);
                if (interval_)
                    interval_->sampleIfDue(cycle_);
                continue;
            }
        }
        tick();
        if (interval_)
            interval_->sampleIfDue(cycle_);
    }
    warnPlaneOverflow();
    return cycle_ - start;
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

} // namespace april

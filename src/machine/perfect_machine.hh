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
 * The shared layer (machine/machine.hh) owns the nodes and the run
 * loop; this machine adds only its zero-latency memory ports, its
 * advance(), and I/O effects that take hold at once.
 *
 * The full cache + directory + network ALEWIFE machine lives in
 * machine/alewife_machine.hh.
 */

#ifndef APRIL_MACHINE_PERFECT_MACHINE_HH
#define APRIL_MACHINE_PERFECT_MACHINE_HH

#include <memory>
#include <vector>

#include "isa/assembler.hh"
#include "machine/machine.hh"
#include "proc/perfect_port.hh"

namespace april
{

/** Configuration of a perfect-memory machine (cohTrace has no effect
 *  here). */
struct PerfectMachineParams : MachineParams
{
    uint32_t numNodes = 1;
};

/** N APRIL cores on zero-latency shared memory. */
class PerfectMachine final : public Machine
{
  public:
    PerfectMachine(const PerfectMachineParams &params,
                   const Program *prog);

    /** Advance every processor by one cycle. */
    void tick() override;

    /** Over the processors only: perfect memory has no other
     *  time-dependent component. */
    uint64_t nextEventCycle() const override;

  private:
    /** Tick, or skip where every core is idle, until @p stop or the
     *  halt: MachineHalt takes hold the cycle it is written. */
    void advance(uint64_t stop) override;

    void consoleOut(uint32_t node, Word word) override;
    void machineHalt(uint32_t node) override;
    void sendIpi(uint32_t src, uint32_t dst, Word arg) override;
    uint32_t blockGo(uint32_t node, Word src, Word dst,
                     Word len) override;

    std::vector<std::unique_ptr<PerfectMemPort>> ports;
    ProbeBackoff probe_;
};

} // namespace april

#endif // APRIL_MACHINE_PERFECT_MACHINE_HH

/**
 * @file
 * Cycle-exact validation of the run-time system's trap costs against
 * the paper's measurements:
 *
 *   Section 6.1: the context-switch trap handler runs in 6 cycles,
 *                11 including trap entry.
 *   Section 6.2: "Our future touch trap handler takes 23 cycles to
 *                execute if the future is resolved."
 */

#include <gtest/gtest.h>

#include "mem/memory.hh"
#include "proc/perfect_port.hh"
#include "proc/processor.hh"
#include "runtime/runtime.hh"

namespace april
{
namespace
{

using namespace tagged;

struct RuntimeRig
{
    explicit RuntimeRig(void (*emit_main)(Assembler &))
    {
        Assembler as;
        rt::Runtime runtime;
        runtime.emit(as);
        as.bind(rt::sym::userMain);     // satisfy rt$boot's reference
        as.bind("test$main");
        emit_main(as);
        prog = as.finish();

        mem = std::make_unique<SharedMemory>(
            MemoryParams{.numNodes = 1, .wordsPerNode = 1u << 18});
        rt::Runtime::initNode(*mem, 0);
        port = std::make_unique<PerfectMemPort>(mem.get());
        io = std::make_unique<SimpleIoPort>();
        proc = std::make_unique<Processor>(ProcParams{}, &prog,
                                           port.get(), io.get());
        rt::Runtime::bootProcessor(*proc, rt::BootEntries::of(prog), *mem,
                                   0, 1);
        // Redirect only the PC chain: boot state (globals, parked
        // frames, vectors) must stay intact.
        proc->setPcChain(prog.entry("test$main"),
                         prog.entry("test$main") + 1);
    }

    uint64_t
    run()
    {
        uint64_t used = proc->run(100000);
        if (!proc->halted())
            panic("trap-cost program did not halt");
        return used;
    }

    Program prog;
    std::unique_ptr<SharedMemory> mem;
    std::unique_ptr<PerfectMemPort> port;
    std::unique_ptr<SimpleIoPort> io;
    std::unique_ptr<Processor> proc;
};

constexpr Addr kFut = 4096;     ///< a future object's address

TEST(RuntimeTrapCost, ResolvedFutureTouchIs23Cycles)
{
    // Strict add on a resolved future vs the same add on a plain
    // value: the delta must be exactly the paper's 23 cycles (the
    // faulting attempt is re-executed after the handler, adding 1,
    // and the clean run pays the add once, subtracting 1).
    auto emit_trap = +[](Assembler &as) {
        as.movi(1, ptr(kFut, Tag::Future));
        as.movi(2, fixnum(10));
        as.add(3, 1, 2);
        as.halt();
    };
    auto emit_clean = +[](Assembler &as) {
        as.movi(1, fixnum(32));
        as.movi(2, fixnum(10));
        as.add(3, 1, 2);
        as.halt();
    };

    RuntimeRig trap_rig(emit_trap);
    trap_rig.mem->writeFe(kFut + rt::fut::value, fixnum(32), true);
    uint64_t with_trap = trap_rig.run();
    EXPECT_EQ(trap_rig.proc->readReg(3), fixnum(42));

    RuntimeRig clean_rig(emit_clean);
    uint64_t clean = clean_rig.run();
    EXPECT_EQ(clean_rig.proc->readReg(3), fixnum(42));

    EXPECT_EQ(with_trap - clean, 23u)
        << "Section 6.2: resolved future touch = 23 cycles";
}

TEST(RuntimeTrapCost, ContextSwitchHandlerIsSixInstructions)
{
    // The Section 6.1 handler: rdpsr, save, save, wrpsr, jmpl, rett.
    Assembler as;
    rt::Runtime runtime;
    runtime.emit(as);
    as.bind(rt::sym::userMain);
    as.halt();
    Program prog = as.finish();
    uint32_t start = prog.entry(rt::sym::cswitch);
    // Count instructions up to and including the RETT.
    uint32_t len = 0;
    while (prog.at(start + len).op != Opcode::RETT)
        ++len;
    ++len;
    EXPECT_EQ(len, 6u) << "11 cycles total with the 5-cycle trap entry";
}

TEST(RuntimeTrapCost, FutureTouchHandlerFastPathIs18Instructions)
{
    // 5 (entry) + 18 (handler to RETT) = 23.
    Assembler as;
    rt::Runtime runtime;
    runtime.emit(as);
    as.bind(rt::sym::userMain);
    as.halt();
    Program prog = as.finish();
    uint32_t start = prog.entry(rt::sym::futureTouch);
    uint32_t len = 0;
    while (prog.at(start + len).op != Opcode::RETT)
        ++len;
    ++len;
    EXPECT_EQ(len, 18u);
}

TEST(RuntimeTrapCost, ChainedFuturesTouchTwice)
{
    // A future resolving to another future re-traps on retry; each
    // resolved hop costs 23 cycles.
    auto emit = +[](Assembler &as) {
        as.movi(1, ptr(kFut, Tag::Future));
        as.movi(2, fixnum(10));
        as.add(3, 1, 2);
        as.halt();
    };
    RuntimeRig rig(emit);
    // future at kFut resolves to a future at kFut+16, which resolves
    // to 32.
    rig.mem->writeFe(kFut + rt::fut::value,
                     ptr(kFut + 16, Tag::Future), true);
    rig.mem->writeFe(kFut + 16 + rt::fut::value, fixnum(32), true);
    uint64_t cycles = rig.run();
    EXPECT_EQ(rig.proc->readReg(3), fixnum(42));

    auto emit_clean = +[](Assembler &as) {
        as.movi(1, fixnum(32));
        as.movi(2, fixnum(10));
        as.add(3, 1, 2);
        as.halt();
    };
    RuntimeRig clean(emit_clean);
    EXPECT_EQ(cycles - clean.run(), 46u) << "two 23-cycle touches";
}

TEST(RuntimeTrapCost, UnresolvedTouchBlocksIntoScheduler)
{
    // With an empty value slot the handler must unload the thread and
    // fall into the scheduler (which spins: no other work here).
    auto emit = +[](Assembler &as) {
        as.movi(1, ptr(kFut, Tag::Future));
        as.movi(2, fixnum(10));
        as.add(3, 1, 2);
        as.halt();
    };
    RuntimeRig rig(emit);
    rig.mem->setFull(kFut + rt::fut::value, false);     // unresolved
    rig.proc->run(5000);
    EXPECT_FALSE(rig.proc->halted()) << "blocked thread cannot finish";
    // The thread descriptor must be queued on the future.
    Word waiters = rig.mem->read(kFut + rt::fut::waiters);
    EXPECT_NE(waiters, 0u) << "thread parked on the future's waiters";
}

} // namespace
} // namespace april

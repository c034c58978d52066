#include "workloads/handwritten.hh"

#include <algorithm>

#include "runtime/runtime.hh"

namespace april::workloads
{

FineGrainSync
buildFineGrainSync()
{
    using namespace april::tagged;

    FineGrainSync out;
    out.buf = 4096;             // 64-slot ring, homed on node 0
    out.items = 64;

    Assembler as;
    // Producer (node 0): buf[i] <- i*i, set full; waits while full.
    as.bind("producer");
    as.movi(1, ptr(out.buf, Tag::Other));
    as.movi(2, 0);                          // i (raw)
    as.bind("ploop");
    as.mulR(3, 2, 2);
    as.slliR(3, 3, 2);                      // fixnum(i*i)
    as.bind("pwait");
    as.ldnw(4, 1, 0);                       // probe the f/e state
    as.jRaw(Cond::FULL, "pwait");           // still full: consumer lags
    as.nop();
    as.stfnw(3, 1, 0);                      // store and set full
    as.addiR(1, 1, kWordOff);
    as.addiR(2, 2, 1);
    as.cmpiR(2, out.items);
    as.jRaw(Cond::LT, "ploop");
    as.nop();
    as.halt();

    // Consumer (node 1): consuming loads; spins while empty.
    as.bind("consumer");
    as.movi(1, ptr(out.buf, Tag::Other));
    as.movi(2, 0);
    as.movi(5, fixnum(0));                  // sum
    as.bind("cloop");
    as.bind("cwait");
    as.ldenw(6, 1, 0);                      // atomically read-and-empty
    as.jRaw(Cond::EMPTY, "cwait");          // was empty: retry
    as.nop();
    as.add(5, 5, 6);
    as.addiR(1, 1, kWordOff);
    as.addiR(2, 2, 1);
    as.cmpiR(2, out.items);
    as.jRaw(Cond::LT, "cloop");
    as.nop();
    as.stio(int(IoReg::ConsoleOut), 5);
    as.stio(int(IoReg::MachineHalt), 5);
    as.halt();

    // Boot plumbing expected by the machine (no Mul-T here).
    as.bind(rt::sym::boot);
    as.j(Cond::AL, "producer");
    as.bind(rt::sym::idle);
    as.j(Cond::AL, "consumer");
    as.bind(rt::sym::sched);
    as.bind(rt::sym::cswitch);
    as.rdpsr(reg::t(0));
    as.incfp();
    as.nop();
    as.wrpsr(reg::t(0));
    as.nop();
    as.rettRetry();
    as.bind(rt::sym::futureTouch);
    as.bind(rt::sym::ipi);
    as.rettRetry();
    as.bind(rt::sym::fault);
    as.halt();
    as.bind(rt::sym::makeFuture);
    as.bind(rt::sym::resolve);
    as.bind(rt::sym::spawn);
    as.bind(rt::sym::cons);
    as.bind(rt::sym::makeVector);
    as.bind(rt::sym::stolenExit);
    as.bind(rt::sym::touchSw);
    as.bind(rt::sym::touchResume);
    as.bind(rt::sym::userMain);
    as.ret();
    out.prog = as.finish();

    for (int i = 0; i < out.items; ++i)
        out.expectedSum += int64_t(i) * i;
    return out;
}

namespace
{
constexpr Addr kCohLock = 400;
constexpr Addr kCohCount = 404;
} // namespace

CoherentLoop
buildCoherentLoop(uint32_t nodes, uint32_t iters)
{
    using namespace april::tagged;

    CoherentLoop out;
    out.lock = kCohLock;
    out.count = kCohCount;
    out.nodes = nodes;
    out.iters = iters;

    Assembler as;
    as.bind("worker");
    as.movi(1, ptr(kCohLock, Tag::Other));
    as.movi(2, ptr(kCohCount, Tag::Other));
    as.movi(3, 0);
    as.movi(7, fixnum(84));
    as.movi(8, fixnum(4));
    as.bind("loop");
    as.div(9, 7, 8);
    as.bind("acq");
    as.ldenw(4, 1, 0);
    as.jRaw(Cond::EMPTY, "acq");
    as.nop();
    as.ldnw(5, 2, 0);
    as.addi(5, 5, int32_t(fixnum(1)));
    as.stnw(5, 2, 0);
    as.stfnw(reg::r0, 1, 0);
    as.addiR(3, 3, 1);
    as.cmpiR(3, int32_t(iters));
    as.jRaw(Cond::LT, "loop");
    as.nop();
    as.ldio(6, int(IoReg::NodeId));
    as.cmpiR(6, 0);
    as.jRaw(Cond::NE, "done");
    as.nop();
    as.bind("wait");
    as.ldnw(5, 2, 0);
    as.cmpiR(5, int32_t(fixnum(int32_t(nodes * iters))));
    as.jRaw(Cond::NE, "wait");
    as.nop();
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.bind("done");
    as.halt();

    emitSwitchStubs(as);
    out.prog = as.finish();
    return out;
}

WideSharing
buildWideSharing(uint32_t nodes, uint32_t words_per_node)
{
    using namespace april::tagged;

    if (words_per_node < 32 || (words_per_node & (words_per_node - 1)))
        fatal("buildWideSharing: wordsPerNode must be a power of two "
              "of at least 32");

    // Word 512 of node 0, or the middle of a smaller node; the done
    // flag sits one 8-word line further on.
    WideSharing out;
    out.shared = std::min<Addr>(512, words_per_node / 2);
    out.doneOff = out.shared + 8;
    out.nodes = nodes;
    out.wordsPerNode = words_per_node;

    int32_t node_shift = 0;
    while ((1u << node_shift) < words_per_node)
        ++node_shift;
    node_shift += int32_t(tagShift);
    const int32_t done_imm = int32_t(ptr(out.doneOff, Tag::Other));

    Assembler as;
    as.bind("worker");
    as.movi(1, ptr(out.shared, Tag::Other));
    as.ldnw(4, 1, 0);                       // join the sharer set
    as.ldio(5, int(IoReg::NodeId));
    as.slliR(5, 5, node_shift);             // my segment base, tagged
    as.addiR(5, 5, done_imm);               // my done flag
    as.movi(6, fixnum(1));
    as.stnw(6, 5, 0);                       // announce completion
    as.ldio(7, int(IoReg::NodeId));
    as.cmpiR(7, 0);
    as.jRaw(Cond::NE, "done");
    as.nop();
    if (nodes > 1) {
        // Node 0: wait for every flag. A cached stale flag spins in
        // the cache until the owner's write invalidates the copy.
        as.movi(8, 1);
        as.bind("poll");
        as.slliR(9, 8, node_shift);
        as.addiR(9, 9, done_imm);
        as.bind("pollw");
        as.ldnw(10, 9, 0);
        as.cmpiR(10, int32_t(fixnum(1)));
        as.jRaw(Cond::NE, "pollw");
        as.nop();
        as.addiR(8, 8, 1);
        as.cmpiR(8, int32_t(nodes));
        as.jRaw(Cond::LT, "poll");
        as.nop();
    }
    // The storm: write the word every node shares. Under the limited
    // directory this walks the spill table before the invalidations.
    as.movi(11, fixnum(99));
    as.stnw(11, 1, 0);
    as.stio(int(IoReg::ConsoleOut), 11);
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.bind("done");
    as.halt();

    emitSwitchStubs(as);
    out.prog = as.finish();
    return out;
}

DirHandlers
buildDirHandlers(bool frame_leak)
{
    using namespace april::tagged;

    constexpr Addr kSpillCount = 632;
    constexpr Addr kSpillTable = 640;

    DirHandlers out;
    out.spillCount = kSpillCount;
    out.spillTable = kSpillTable;
    out.handlers = {"coh$spill", "coh$walk"};

    Assembler as;
    // Pointer-overflow trap: the hardware directory ran out of
    // pointers; append the faulting line's evicted pointer set (the
    // trap argument) to the software spill table. Runs in a fresh
    // frame so the interrupted context's registers survive untouched.
    as.bind("coh$spill");
    as.incfp();
    as.rdspec(reg::t(0), Spec::TrapVA);     // faulting line / ptr set
    as.movi(reg::t(1), ptr(kSpillCount, Tag::Other));
    as.ldnw(reg::t(2), reg::t(1), 0);       // entry count (raw)
    as.movi(reg::t(3), ptr(kSpillTable, Tag::Other));
    as.slliR(reg::t(4), reg::t(2), int32_t(tagShift));
    as.addR(reg::t(4), reg::t(3), reg::t(4));
    as.stnw(reg::t(0), reg::t(4), 0);       // table[count] = entry
    as.addiR(reg::t(2), reg::t(2), 1);
    as.stnw(reg::t(2), reg::t(1), 0);
    as.decfp();
    as.rettRetry();

    // Invalidation walk: a write reached a spilled line, so the
    // hardware pointers alone cannot name every sharer. Poke each
    // spilled sharer with an IPI and drain the table.
    as.bind("coh$walk");
    as.incfp();
    as.movi(reg::t(1), ptr(kSpillCount, Tag::Other));
    as.ldnw(reg::t(2), reg::t(1), 0);       // entries to visit (raw)
    as.cmpiR(reg::t(2), 0);
    if (frame_leak) {
        // The planted bug: the empty-table fast path forgets the
        // balancing DECFP, so the interrupted context resumes one
        // frame off. april-lint's protocol-handler check must flag
        // the RETT at coh$walk_bail.
        as.jRaw(Cond::EQ, "coh$walk_bail");
        as.nop();
    } else {
        as.jRaw(Cond::EQ, "coh$walk_done");
        as.nop();
    }
    as.movi(reg::t(3), ptr(kSpillTable, Tag::Other));
    as.movi(reg::t(4), 0);                  // visited so far
    as.bind("coh$walk_loop");
    as.ldnw(reg::t(5), reg::t(3), 0);       // spilled sharer node id
    as.stio(int(IoReg::IpiDest), reg::t(5));
    as.stio(int(IoReg::IpiSend), reg::r0);  // fire the invalidation
    as.addiR(reg::t(3), reg::t(3), kWordOff);
    as.addiR(reg::t(4), reg::t(4), 1);
    as.cmpR(reg::t(4), reg::t(2));
    as.jRaw(Cond::LT, "coh$walk_loop");
    as.nop();
    as.stnw(reg::r0, reg::t(1), 0);         // table drained
    as.bind("coh$walk_done");
    as.decfp();
    as.rettRetry();
    if (frame_leak) {
        as.bind("coh$walk_bail");
        as.rettRetry();
    }
    out.prog = as.finish();
    return out;
}

void
emitSwitchStubs(Assembler &as)
{
    as.bind("cswitch");
    as.rdpsr(reg::t(0));
    as.incfp();
    as.nop();
    as.wrpsr(reg::t(0));
    as.nop();
    as.rettRetry();
    as.bind("fyield");
    as.moviLabel(reg::t(1), "fyield");
    as.wrspec(Spec::TrapPC, reg::t(1));
    as.addiR(reg::t(1), reg::t(1), 1);
    as.wrspec(Spec::TrapNPC, reg::t(1));
    as.rdpsr(reg::t(0));
    as.incfp();
    as.wrpsr(reg::t(0));
    as.rettRetry();
}

void
bootCoherentNode(Processor &proc, const Program &prog)
{
    proc.reset(prog.entry("worker"));
    proc.setTrapVector(TrapKind::RemoteMiss, prog.entry("cswitch"));
    proc.setTrapVector(TrapKind::FeEmpty, prog.entry("cswitch"));
    for (uint32_t f = 1; f < proc.numFrames(); ++f) {
        proc.frame(f).trapPC = prog.entry("fyield");
        proc.frame(f).trapNPC = prog.entry("fyield") + 1;
        proc.frame(f).trapRegs[0] = psr::ET;
    }
}

Program
buildStallLoop(uint32_t iters)
{
    using namespace april::tagged;

    Assembler as;
    as.bind("worker");
    as.movi(1, Word(iters));            // raw loop counter
    as.movi(2, fixnum(84));             // DIV operands (future-free)
    as.movi(3, fixnum(4));
    as.bind("loop");
    as.div(4, 2, 3);                    // multi-cycle stall
    as.subiR(1, 1, 1);
    as.jRaw(Cond::NE, "loop");
    as.nop();
    as.ldio(5, int(IoReg::NodeId));
    as.cmpiR(5, 0);
    as.jRaw(Cond::NE, "done");
    as.nop();
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.bind("done");
    as.halt();
    return as.finish();
}

Program
buildMeasuredLoop(int words_shift, uint32_t iters)
{
    using namespace april::tagged;

    Assembler as;
    as.bind("thread");
    // r20: iteration counter; r21: remote cursor (boxed); r22: result
    as.movi(20, 0);
    as.ldio(21, int(IoReg::NodeId));
    as.addiR(21, 21, 1);
    as.ldio(23, int(IoReg::NumNodes));
    as.push({.op = Opcode::REM, .rd = 21, .rs1 = 21, .rs2 = 23});
    as.slliR(21, 21, words_shift);  // * wordsPerNode (2^words_shift)
    as.slliR(21, 21, 3);
    as.oriR(21, 21, uint8_t(Tag::Other));
    as.addiR(21, 21, wordOff(1 << (words_shift - 5)));  // past node block

    as.bind("loop");
    for (int i = 0; i < kMeasuredUseful - 4; ++i)
        as.addiR(22, 22, 1);
    as.ldnt(24, 21, 0);             // remote miss -> context switch
    as.addiR(21, 21, wordOff(4));   // next line (never reused)
    as.addiR(20, 20, 1);
    as.cmpiR(20, int32_t(iters));
    as.jRaw(Cond::LT, "loop");
    as.nop();
    as.halt();

    emitSwitchStubs(as);
    return as.finish();
}

void
bootMeasuredNode(Processor &proc, const Program &prog)
{
    proc.reset(prog.entry("thread"));
    proc.setTrapVector(TrapKind::RemoteMiss, prog.entry("cswitch"));
    for (uint32_t f = 1; f < proc.numFrames(); ++f) {
        proc.frame(f).trapPC = prog.entry("thread");
        proc.frame(f).trapNPC = prog.entry("thread") + 1;
        proc.frame(f).trapRegs[0] = psr::ET;
    }
}

} // namespace april::workloads

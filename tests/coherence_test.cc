/**
 * @file
 * Directory-protocol tests on a 2x2 ALEWIFE machine driven by
 * hand-written APRIL programs: read sharing, write invalidation,
 * strong coherence, f/e operations on cached lines, context switching
 * on remote misses, and FLUSH/fence.
 */

#include <gtest/gtest.h>

#include <deque>

#include "machine/alewife_machine.hh"

namespace april
{
namespace
{

using namespace tagged;

/** Build a machine around a raw program (no Mul-T, no runtime). */
struct CohRig
{
    explicit CohRig(Program prog_, int dim = 1, int radix = 4)
        : prog(std::move(prog_))
    {
        AlewifeParams p;
        p.network = {.dim = dim, .radix = radix};
        p.wordsPerNode = 1u << 16;
        p.bootRuntime = false;
        p.controller.cache = {.lineWords = 4, .numLines = 64,
                              .assoc = 2};
        machine = std::make_unique<AlewifeMachine>(p, &prog);
        // Raw programs: park every processor at a halt unless given
        // a role below; install a trivial switch handler.
        for (uint32_t n = 0; n < machine->numNodes(); ++n) {
            Processor &proc = machine->proc(n);
            proc.reset(prog.hasSymbol("node" + std::to_string(n))
                           ? prog.entry("node" + std::to_string(n))
                           : prog.entry("park"));
            if (prog.hasSymbol("cswitch")) {
                proc.setTrapVector(TrapKind::RemoteMiss,
                                   prog.entry("cswitch"));
            }
            for (uint32_t f = 1; f < proc.numFrames(); ++f) {
                proc.frame(f).trapPC = prog.entry("fyield");
                proc.frame(f).trapNPC = prog.entry("fyield") + 1;
                proc.frame(f).trapRegs[0] = psr::ET;
            }
        }
    }

    /** Run until every non-parked processor halts. */
    void
    run(uint64_t max_cycles = 100000)
    {
        for (uint64_t i = 0; i < max_cycles; ++i) {
            machine->tick();
            bool all = true;
            for (uint32_t n = 0; n < machine->numNodes(); ++n)
                all &= machine->proc(n).halted();
            if (all)
                return;
        }
        panic("coherence test did not converge");
    }

    Program prog;
    std::unique_ptr<AlewifeMachine> machine;
};

/** Park: spin-yield via the switch-spin sequence, or just halt. */
void
emitPark(Assembler &as)
{
    as.bind("park");
    as.halt();
    // Idle task frames rotate (switch-spin) so a waiting frame's
    // retry comes around.
    as.bind("fyield");
    as.moviLabel(reg::t(1), "fyield");
    as.wrspec(Spec::TrapPC, reg::t(1));
    as.addiR(reg::t(1), reg::t(1), 1);
    as.wrspec(Spec::TrapNPC, reg::t(1));
    as.rdpsr(reg::t(0));
    as.incfp();
    as.wrpsr(reg::t(0));
    as.rettRetry();
    as.bind("cswitch");
    as.rdpsr(reg::t(0));
    as.incfp();
    as.nop();
    as.wrpsr(reg::t(0));
    as.nop();
    as.rettRetry();
}

constexpr Addr kShared = 100;       ///< homed on node 0

TEST(Coherence, LocalReadMissFillsFromMemory)
{
    Assembler as;
    as.bind("node0");
    as.movi(1, ptr(kShared, Tag::Other));
    as.ldnw(2, 1, 0);               // local miss: hold, then hit
    as.ldnw(3, 1, 0);               // hit
    as.halt();
    emitPark(as);

    CohRig rig(as.finish());
    rig.machine->memory().write(kShared, fixnum(7));
    rig.run();
    EXPECT_EQ(rig.machine->proc(0).readReg(2), fixnum(7));
    EXPECT_EQ(rig.machine->proc(0).readReg(3), fixnum(7));
    auto &cache = rig.machine->controller(0).cacheRef();
    EXPECT_GE(cache.statHits.value(), 1.0);
}

TEST(Coherence, RemoteReadForcesContextSwitch)
{
    Assembler as;
    as.bind("node1");
    as.movi(1, ptr(kShared, Tag::Other));   // homed on node 0
    as.ldnt(2, 1, 0);               // trap-on-miss remote load
    as.halt();
    emitPark(as);

    CohRig rig(as.finish());
    rig.machine->memory().write(kShared, fixnum(9));
    rig.run();
    EXPECT_EQ(rig.machine->proc(1).readReg(2), fixnum(9));
    EXPECT_GE(rig.machine->controller(1).statRemoteMisses.value(), 1.0);
    EXPECT_GE(rig.machine->proc(1)
                  .statTraps[size_t(TrapKind::RemoteMiss)].value(), 1.0);
}

TEST(Coherence, WriteInvalidatesReaders)
{
    // node1 reads the line and spins on a flag; node0 then writes the
    // line (invalidating node1) and raises the flag; node1 re-reads
    // and must see the new value.
    constexpr Addr kFlag = 2000;    // homed on node 0, separate line
    Assembler as;
    as.bind("node0");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, ptr(kFlag, Tag::Other));
    // wait until node1 signals it has cached the line
    as.bind("n0wait");
    as.ldnw(3, 2, 0);
    as.cmpiR(3, int32_t(fixnum(1)));
    as.jRaw(Cond::NE, "n0wait");
    as.nop();
    as.movi(4, fixnum(42));
    as.stnw(4, 1, 0);               // upgrade: invalidates node1
    as.movi(3, fixnum(2));
    as.stnw(3, 2, 0);               // release: flag = 2
    as.halt();

    as.bind("node1");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, ptr(kFlag, Tag::Other));
    as.ldnw(5, 1, 0);               // cache the old value
    as.movi(3, fixnum(1));
    as.stnw(3, 2, 0);               // signal
    as.bind("n1wait");
    as.ldnw(3, 2, 0);
    as.cmpiR(3, int32_t(fixnum(2)));
    as.jRaw(Cond::NE, "n1wait");
    as.nop();
    as.ldnw(6, 1, 0);               // must miss (invalidated) and
    as.halt();                      // fetch the new value
    emitPark(as);

    CohRig rig(as.finish());
    rig.machine->memory().write(kShared, fixnum(5));
    rig.run(500000);
    EXPECT_EQ(rig.machine->proc(1).readReg(5), fixnum(5));
    EXPECT_EQ(rig.machine->proc(1).readReg(6), fixnum(42));
    EXPECT_GE(rig.machine->controller(0).statInvSent.value(), 1.0);
}

TEST(Coherence, DirtyLineMigratesBetweenWriters)
{
    constexpr Addr kFlag = 2000;
    Assembler as;
    // node0 writes 10, signals; node1 writes +1 on top.
    as.bind("node0");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, ptr(kFlag, Tag::Other));
    as.movi(4, fixnum(10));
    as.stnw(4, 1, 0);               // dirty in node0's cache
    as.movi(3, fixnum(1));
    as.stnw(3, 2, 0);
    as.halt();

    as.bind("node1");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, ptr(kFlag, Tag::Other));
    as.bind("wait");
    as.ldnw(3, 2, 0);
    as.cmpiR(3, int32_t(fixnum(1)));
    as.jRaw(Cond::NE, "wait");
    as.nop();
    as.ldnw(5, 1, 0);               // 3-hop: home recalls dirty line
    as.addi(5, 5, int32_t(fixnum(1)));
    as.stnw(5, 1, 0);               // then upgrade to Modified
    as.halt();
    emitPark(as);

    CohRig rig(as.finish());
    rig.run(500000);
    // The final value lives in node1's cache; flush it via the home's
    // view after recalling: read directly from the cache line.
    auto &cache = rig.machine->controller(1).cacheRef();
    auto *line = cache.lookup(kShared / 4);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->words[kShared % 4].data, fixnum(11));
    EXPECT_GE(rig.machine->controller(1).statWritebacks.value() +
                  rig.machine->controller(0).statWritebacks.value(),
              1.0);
}

TEST(Coherence, FullEmptyBitsTravelWithLines)
{
    // Producer on node0 fills a word with stfnw; consumer on node1
    // spins with a non-trapping consuming load until it sees full.
    Assembler as;
    as.bind("node0");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, fixnum(77));
    // give the consumer a head start so it caches the empty word
    as.movi(3, 200);
    as.bind("delay");
    as.subiR(3, 3, 1);
    as.jRaw(Cond::GT, "delay");
    as.nop();
    as.stfnw(2, 1, 0);              // store and set full
    as.halt();

    as.bind("node1");
    as.movi(1, ptr(kShared, Tag::Other));
    as.bind("spin");
    as.ldenw(4, 1, 0);              // consuming load (needs Modified)
    as.jRaw(Cond::EMPTY, "spin");
    as.nop();
    as.halt();
    emitPark(as);

    CohRig rig(as.finish());
    rig.machine->memory().setFull(kShared, false);
    rig.run(500000);
    EXPECT_EQ(rig.machine->proc(1).readReg(4), fixnum(77));
}

TEST(Coherence, FlushWritesBackAndCountsFence)
{
    Assembler as;
    as.bind("node0");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, fixnum(33));
    as.stnw(2, 1, 0);               // dirty the line
    as.flushLine(1, 0);             // write back + invalidate
    as.rdfence(3);                  // outstanding acknowledgments
    as.bind("fwait");
    as.rdfence(4);
    as.cmpiR(4, 0);
    as.jRaw(Cond::NE, "fwait");     // wait for the ack
    as.nop();
    as.ldnw(5, 1, 0);               // re-fetch from memory
    as.halt();
    emitPark(as);

    CohRig rig(as.finish());
    rig.run(500000);
    EXPECT_EQ(rig.machine->proc(0).readReg(3), 1u)
        << "fence counted the dirty flush";
    EXPECT_EQ(rig.machine->memory().read(kShared), fixnum(33))
        << "memory updated by the writeback";
    EXPECT_EQ(rig.machine->proc(0).readReg(5), fixnum(33));
}

TEST(Coherence, ManySharersAllInvalidated)
{
    // Nodes 1..3 cache the line; node 0 writes it. Strong coherence:
    // the write completes only after all three acknowledgments.
    constexpr Addr kFlag = 2000;
    Assembler as;
    as.bind("node0");
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, ptr(kFlag, Tag::Other));
    as.bind("n0wait");
    as.ldnw(3, 2, 0);
    as.cmpiR(3, int32_t(fixnum(3)));
    as.jRaw(Cond::LT, "n0wait");
    as.nop();
    as.movi(4, fixnum(42));
    as.stnw(4, 1, 0);
    as.halt();

    for (int node = 1; node <= 3; ++node) {
        as.bind("node" + std::to_string(node));
        as.movi(1, ptr(kShared, Tag::Other));
        as.movi(2, ptr(kFlag, Tag::Other));
        as.ldnw(5, 1, 0);           // become a sharer
        // fetch-and-add on the flag via tas-free increment: use the
        // f/e lock idiom to serialize.
        as.bind("lk" + std::to_string(node));
        as.ldenw(6, 2, wordOff(1));
        as.jRaw(Cond::EMPTY, "lk" + std::to_string(node));
        as.nop();
        as.ldnw(6, 2, 0);
        as.addi(6, 6, int32_t(fixnum(1)));
        as.stnw(6, 2, 0);
        as.stfnw(reg::r0, 2, wordOff(1));
        as.halt();
    }
    emitPark(as);

    CohRig rig(as.finish());
    rig.machine->memory().write(kShared, fixnum(5));
    rig.machine->memory().write(kFlag, fixnum(0));
    rig.run(500000);
    EXPECT_GE(rig.machine->controller(0).statInvSent.value(), 3.0);
    EXPECT_EQ(rig.machine->memory().read(kFlag), fixnum(3));
}

TEST(Coherence, FalseSharingIncrementsStayIsolated)
{
    // Four nodes each increment a PRIVATE word 100 times, but all
    // four words share one cache line: the line ping-pongs through
    // Modified on every step. Any lost update or stale merge shows up
    // as a wrong final count.
    constexpr Addr kBase = 800;     // words 800..803 = one line
    constexpr int kN = 100;
    Assembler as;
    for (int node = 0; node < 4; ++node) {
        as.bind("node" + std::to_string(node));
        as.movi(1, ptr(kBase + Addr(node), Tag::Other));
        as.movi(3, 0);
        as.bind("l" + std::to_string(node));
        as.ldnw(5, 1, 0);
        as.addi(5, 5, int32_t(fixnum(1)));
        as.stnw(5, 1, 0);
        as.addiR(3, 3, 1);
        as.cmpiR(3, kN);
        as.jRaw(Cond::LT, "l" + std::to_string(node));
        as.nop();
        as.halt();
    }
    emitPark(as);

    CohRig rig(as.finish(), 2, 2);
    for (int i = 0; i < 4; ++i)
        rig.machine->memory().write(kBase + Addr(i), fixnum(0));
    rig.run(2'000'000);
    for (uint32_t i = 0; i < 4; ++i) {
        // The authoritative copy may be dirty in some cache.
        EXPECT_EQ(toInt(rig.machine->coherentRead(kBase + i)), kN)
            << "word " << i;
    }
}

TEST(Coherence, EvictionStormWritesBack)
{
    // One node dirties many lines mapping to the same tiny set and
    // then reads them all back: every value must survive the
    // eviction/writeback/refill churn.
    constexpr int kLines = 32;
    Assembler as;
    as.bind("node0");
    as.movi(1, ptr(1024, Tag::Other));
    as.movi(3, 0);
    as.bind("wloop");
    as.slliR(5, 3, 2);              // fixnum(i)
    as.stnw(5, 1, 0);
    // Stride of 64 lines' worth of words (256 words) to stay in the
    // same set of the 64-line 2-way test cache.
    as.addiR(1, 1, wordOff(256));
    as.addiR(3, 3, 1);
    as.cmpiR(3, kLines);
    as.jRaw(Cond::LT, "wloop");
    as.nop();
    // Read back and sum.
    as.movi(1, ptr(1024, Tag::Other));
    as.movi(3, 0);
    as.movi(6, fixnum(0));
    as.bind("rloop");
    as.ldnw(5, 1, 0);
    as.add(6, 6, 5);
    as.addiR(1, 1, wordOff(256));
    as.addiR(3, 3, 1);
    as.cmpiR(3, kLines);
    as.jRaw(Cond::LT, "rloop");
    as.nop();
    as.halt();
    emitPark(as);

    CohRig rig(as.finish(), 1, 2);
    rig.run(2'000'000);
    int expect = kLines * (kLines - 1) / 2;
    EXPECT_EQ(rig.machine->proc(0).readReg(6), fixnum(expect));
    EXPECT_GE(rig.machine->controller(0).statWritebacks.value(), 8.0);
}

// ---------------------------------------------------------------------
// Directed controller-level tests: a TestFabric captures every
// transmitted message so the test can deliver them in an adversarial
// order — the interleavings april-mc's explorer found interesting.
// ---------------------------------------------------------------------

/** Captures transmitted messages for hand-ordered delivery. */
struct TestFabric : coh::Fabric
{
    struct Pkt
    {
        uint32_t to;
        coh::Message msg;
    };
    std::deque<Pkt> queue;
    uint64_t cycle = 0;

    void
    transmit(uint32_t to, const coh::Message &msg, uint32_t) override
    {
        queue.push_back({to, msg});
    }

    uint64_t now() const override { return cycle; }
};

/** Three bare controllers (home node 0) around one shared memory,
 *  with the mc conformance listener attached — every directed
 *  interleaving below is also a live spec-conformance run. */
struct DirectedRig
{
    TestFabric fabric;
    SharedMemory mem;
    mc::Conformance conform;
    std::vector<std::unique_ptr<coh::Controller>> ctrls;
    uint64_t fenceAcks = 0;     ///< FenceAcks delivered so far

    DirectedRig()
        : mem({.numNodes = 3, .wordsPerNode = 1u << 12})
    {
        coh::ControllerParams p;
        // 4 direct-mapped sets: lines 4 apart collide, so a second
        // fill can evict a dirty line on demand.
        p.cache = {.lineWords = 4, .numLines = 4, .assoc = 1};
        for (uint32_t n = 0; n < 3; ++n) {
            ctrls.push_back(std::make_unique<coh::Controller>(
                p, n, 4, &mem, &fabric));
            ctrls.back()->setTransitionListener(&conform);
        }
    }

    /** Advance time so delayed sends drain into the fabric queue. */
    void
    settle(int cycles = 64)
    {
        for (int i = 0; i < cycles; ++i) {
            ++fabric.cycle;
            for (auto &c : ctrls)
                c->tick();
        }
    }

    bool
    queued(coh::MsgType type, uint32_t to) const
    {
        for (const TestFabric::Pkt &p : fabric.queue) {
            if (p.msg.type == type && p.to == to)
                return true;
        }
        return false;
    }

    /** Deliver the first queued (type, to) message; test-fails when
     *  none is queued. */
    void
    deliver(coh::MsgType type, uint32_t to)
    {
        for (auto it = fabric.queue.begin(); it != fabric.queue.end();
             ++it) {
            if (it->msg.type != type || it->to != to)
                continue;
            coh::Message m = it->msg;
            fabric.queue.erase(it);
            fenceAcks += m.type == coh::MsgType::FenceAck;
            ctrls[to]->receive(m);
            settle();
            return;
        }
        ADD_FAILURE() << "no queued " << coh::msgTypeName(type)
                      << " for node " << to;
    }

    /** First access of a miss: registers the MSHR and emits the
     *  request (remote misses hold the core with Retry). */
    void
    startWrite(uint32_t node, Addr word)
    {
        MemAccess req;
        req.addr = word;
        req.op = MemOp::Store;
        req.storeData = fixnum(int32_t(node + 1));
        EXPECT_EQ(ctrls[node]->access(req).kind,
                  MemResult::Kind::Retry);
        settle();
    }

    /** The retried access after the fill arrived must hit. */
    void
    finishWrite(uint32_t node, Addr word)
    {
        ASSERT_TRUE(ctrls[node]->fillReady(0));
        MemAccess req;
        req.addr = word;
        req.op = MemOp::Store;
        req.storeData = fixnum(int32_t(node + 1));
        EXPECT_EQ(ctrls[node]->access(req).kind,
                  MemResult::Kind::Ready);
    }

    cache::LineState
    stateOf(uint32_t node, Addr line) const
    {
        auto *l = ctrls[node]->cacheRef().find(line);
        return l ? l->state : cache::LineState::Invalid;
    }
};

/** The directory pages in on first touch: fresh controllers hold no
 *  directory page, and one remote read materialises exactly one, at
 *  the line's home. */
TEST(CoherenceDirected, RemoteReadMaterialisesOneDirectoryPage)
{
    using coh::MsgType;
    constexpr Addr kW = 2 * (1u << 12) + 8;     // a word homed on node 2
    DirectedRig rig;
    for (const auto &c : rig.ctrls)
        EXPECT_EQ(c->residentDirectoryPages(), 0u);

    MemAccess req;
    req.addr = kW;
    req.op = MemOp::Load;
    EXPECT_EQ(rig.ctrls[1]->access(req).kind, MemResult::Kind::Retry);
    rig.settle();
    rig.deliver(MsgType::ReadReq, 2);
    rig.deliver(MsgType::ReadReply, 1);
    EXPECT_TRUE(rig.ctrls[1]->fillReady(0));

    EXPECT_EQ(rig.ctrls[0]->residentDirectoryPages(), 0u);
    EXPECT_EQ(rig.ctrls[1]->residentDirectoryPages(), 0u);
    EXPECT_EQ(rig.ctrls[2]->residentDirectoryPages(), 1u);
    const auto *census = rig.ctrls[2]->lineCensus(kW / 4);
    ASSERT_NE(census, nullptr);
    EXPECT_EQ(census->transitions, 1u);
    EXPECT_EQ(rig.ctrls[1]->lineCensus(kW / 4), nullptr);
}

TEST(CoherenceDirected, StaleWbEmptyCannotCompleteALaterRecall)
{
    using coh::MsgType;
    // The SWMR counterexample april-mc found (DESIGN.md §7.9): an
    // owner's copy races away via eviction; the eviction WbData
    // completes the recall; the solicited WbEmpty stays in flight and
    // must not complete a LATER recall to the same re-granted owner.
    constexpr Addr kW = 4;      // a word of line 1, homed on node 0
    constexpr Addr kL = 1;
    constexpr Addr kW2 = 20;    // line 5: same direct-mapped set
    DirectedRig rig;

    // n1 takes the line Modified.
    rig.startWrite(1, kW);
    rig.deliver(MsgType::WriteReq, 0);
    rig.deliver(MsgType::WriteReply, 1);
    rig.finishWrite(1, kW);

    // n2 wants it: the home recalls from n1. Hold the WbReq in
    // flight.
    rig.startWrite(2, kW);
    rig.deliver(MsgType::WriteReq, 0);
    EXPECT_TRUE(rig.queued(MsgType::WbReq, 1));

    // n1's copy races away first: a conflicting fill evicts the
    // dirty line, and the eviction WbData completes the recall.
    rig.startWrite(1, kW2);
    rig.deliver(MsgType::WriteReq, 0);
    rig.deliver(MsgType::WriteReply, 1);
    rig.finishWrite(1, kW2);
    rig.deliver(MsgType::WbData, 0);
    rig.deliver(MsgType::WriteReply, 2);
    rig.finishWrite(2, kW);

    // The recall finally reaches n1, which answers WbEmpty — the
    // stale answer to an already-settled recall. Hold it.
    rig.deliver(MsgType::WbReq, 1);
    EXPECT_TRUE(rig.queued(MsgType::WbEmpty, 0));

    // n1 regains Modified (recall to n2 runs to completion)...
    rig.startWrite(1, kW);
    rig.deliver(MsgType::WriteReq, 0);
    rig.deliver(MsgType::WbReq, 2);
    rig.deliver(MsgType::WbData, 0);
    rig.deliver(MsgType::WriteReply, 1);
    rig.finishWrite(1, kW);
    rig.deliver(MsgType::WbData, 0);    // n1's L2 eviction (R16 path)

    // ...and n2 asks again: a recall to n1 is outstanding once more.
    rig.startWrite(2, kW);
    rig.deliver(MsgType::WriteReq, 0);

    // The stale WbEmpty lands mid-recall. Completing it here would
    // grant n2 Modified while n1 still holds Modified.
    rig.deliver(MsgType::WbEmpty, 0);
    EXPECT_FALSE(rig.queued(MsgType::WriteReply, 2));
    EXPECT_FALSE(rig.ctrls[2]->fillReady(0));
    EXPECT_EQ(rig.stateOf(1, kL), cache::LineState::Modified);

    // The genuine answer completes the recall.
    rig.deliver(MsgType::WbReq, 1);
    rig.deliver(MsgType::WbData, 0);
    rig.deliver(MsgType::WriteReply, 2);
    rig.finishWrite(2, kW);
    EXPECT_EQ(rig.stateOf(2, kL), cache::LineState::Modified);
    EXPECT_EQ(rig.stateOf(1, kL), cache::LineState::Invalid);

    EXPECT_GT(rig.conform.checked(), 0u);
    EXPECT_FALSE(rig.conform.violated()) << rig.conform.firstViolation();
}

TEST(CoherenceDirected, FlushRacingARecallAcksTheFenceExactlyOnce)
{
    using coh::MsgType;
    // A FLUSH's fence-flagged WbData overtakes the recall sent for
    // the same line: it must both complete the recall and answer the
    // fence, and the late stale WbEmpty must not ack a second time.
    constexpr Addr kW = 4;
    constexpr Addr kL = 1;
    DirectedRig rig;

    // n1 Modified; recall for n2's write held in flight.
    rig.startWrite(1, kW);
    rig.deliver(MsgType::WriteReq, 0);
    rig.deliver(MsgType::WriteReply, 1);
    rig.finishWrite(1, kW);
    rig.startWrite(2, kW);
    rig.deliver(MsgType::WriteReq, 0);
    EXPECT_TRUE(rig.queued(MsgType::WbReq, 1));

    // n1 FLUSHes the dirty line: one fence goes outstanding.
    MemAccess flush;
    flush.addr = kW;
    flush.op = MemOp::Flush;
    MemResult res = rig.ctrls[1]->access(flush);
    EXPECT_EQ(res.kind, MemResult::Kind::Ready);
    EXPECT_EQ(res.fenceDelta, 1u);
    rig.settle();

    // The flush data reaches home first: recall completed, fence
    // acknowledged, n2 granted.
    rig.deliver(MsgType::WbData, 0);
    rig.deliver(MsgType::FenceAck, 1);
    EXPECT_EQ(rig.fenceAcks, 1u);
    rig.deliver(MsgType::WriteReply, 2);
    rig.finishWrite(2, kW);
    EXPECT_EQ(rig.stateOf(2, kL), cache::LineState::Modified);

    // The recall arrives late; the stale WbEmpty answer must neither
    // disturb the new owner nor ack another fence.
    rig.deliver(MsgType::WbReq, 1);
    rig.deliver(MsgType::WbEmpty, 0);
    rig.settle();
    EXPECT_FALSE(rig.queued(MsgType::FenceAck, 1));
    EXPECT_EQ(rig.fenceAcks, 1u);
    EXPECT_EQ(rig.stateOf(2, kL), cache::LineState::Modified);

    EXPECT_GT(rig.conform.checked(), 0u);
    EXPECT_FALSE(rig.conform.violated()) << rig.conform.firstViolation();
}

} // namespace
} // namespace april

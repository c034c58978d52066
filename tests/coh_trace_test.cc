/**
 * @file
 * Coherence-transaction span causality on a hand-written sharing
 * workload: three nodes read-share one line, then (synchronized
 * through an f/e-locked counter) the home node writes it, forcing
 * exactly three invalidations. Asserts every fill's parent is its
 * miss, the invalidation acks balance per transaction, the always-on
 * directory census saw the three-wide sharer set, and the whole run,
 * span log included, is bit-identical across cycle-skip modes and
 * host-thread counts.
 */

#include <gtest/gtest.h>

#include <map>

#include "machine/alewife_machine.hh"
#include "machine/coh_report.hh"
#include "machine/snapshot.hh"
#include "workloads/handwritten.hh"

namespace april
{
namespace
{

using namespace tagged;

constexpr Addr kShared = 512;   ///< the contended word (line 128)
constexpr Addr kLock = 400;     ///< f/e lock guarding the counter
constexpr Addr kCount = 404;    ///< arrival counter (separate line)
constexpr uint32_t kSharers = 3;

/**
 * Nodes 1..3: load kShared (becoming sharers), then bump the arrival
 * counter under the f/e lock and halt. Node 0 (kShared's home) spins
 * until all three arrived, writes kShared — invalidating the three
 * sharers — and stops the machine.
 */
Program
buildSharingWorkload()
{
    Assembler as;
    as.bind("worker");
    as.ldio(6, int(IoReg::NodeId));
    as.cmpiR(6, 0);
    as.jRaw(Cond::EQ, "master");
    as.nop();

    // Sharer path: read the line, then announce arrival.
    as.movi(1, ptr(kShared, Tag::Other));
    as.ldnw(2, 1, 0);
    as.movi(3, ptr(kLock, Tag::Other));
    as.movi(4, ptr(kCount, Tag::Other));
    as.bind("acq");
    as.ldenw(5, 3, 0);
    as.jRaw(Cond::EMPTY, "acq");
    as.nop();
    as.ldnw(5, 4, 0);
    as.addi(5, 5, int32_t(fixnum(1)));
    as.stnw(5, 4, 0);
    as.stfnw(reg::r0, 3, 0);
    as.halt();

    // Master path: wait for the sharers, then invalidate them all
    // with one exclusive write.
    as.bind("master");
    as.movi(4, ptr(kCount, Tag::Other));
    as.bind("wait");
    as.ldnw(5, 4, 0);
    as.cmpiR(5, int32_t(fixnum(int32_t(kSharers))));
    as.jRaw(Cond::NE, "wait");
    as.nop();
    as.movi(1, ptr(kShared, Tag::Other));
    as.movi(2, fixnum(7));
    as.stnw(2, 1, 0);
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.halt();

    // bootCoherentNode wires these stubs.
    workloads::emitSwitchStubs(as);
    return as.finish();
}

std::unique_ptr<AlewifeMachine>
runOnce(const Program &prog, uint32_t threads, bool skip,
        coh::DirScheme scheme = coh::DirScheme::FullMap,
        uint32_t pointers = 4, int dim = 2, int radix = 2)
{
    AlewifeParams p;
    p.network = {.dim = dim, .radix = radix};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.cycleSkip = skip;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    p.controller.dirScheme = scheme;
    p.controller.dirPointers = pointers;
    p.cohTrace = true;
    p.hostThreads = threads;
    auto m = std::make_unique<AlewifeMachine>(p, &prog);
    for (uint32_t n = 0; n < m->numNodes(); ++n)
        workloads::bootCoherentNode(m->proc(n), prog);
    m->memory().write(kCount, fixnum(0));
    m->run(10'000'000);
    EXPECT_TRUE(m->halted());
    // Raw workload: every core halts, so the machine drains fully and
    // the invalidation/ack balance must hold exactly.
    EXPECT_TRUE(m->quiesce(1'000'000));
    return m;
}

TEST(CohTrace, SpanCausalityOnSharingWorkload)
{
    Program prog = buildSharingWorkload();
    auto m = runOnce(prog, 1, true);
    coh::Controller &home = m->controller(0);

    // The write invalidated the three sharers (the lock and counter
    // lines are contended too, so >= not ==), and — with the machine
    // drained — every invalidation node 0 sent was acknowledged.
    EXPECT_GE(uint64_t(home.statInvSent.value()), kSharers);
    EXPECT_EQ(home.statInvSent.value(), home.statInvAcks.value());

    // The always-on census saw the three-wide sharer set...
    EXPECT_GE(home.statSharerCount.max(), int64_t(kSharers));
    // ...and the exclusive request that tore it down.
    EXPECT_EQ(home.statInvPerWrite.max(), int64_t(kSharers));
    size_t shared_to_excl =
        size_t(coh::DirState::Shared) * coh::kNumDirStates +
        size_t(coh::DirState::Exclusive);
    EXPECT_GE(home.statDirTransitions[shared_to_excl].value(), 1.0);

    Addr line = kShared / 4;
    const coh::Controller::LineCensus *census = home.lineCensus(line);
    ASSERT_NE(census, nullptr);
    EXPECT_EQ(census->maxSharers, kSharers);
    EXPECT_EQ(census->invs, kSharers);

    // Network telemetry accounted each invalidation leg: at least
    // the three kShared invalidations crossed the network, and every
    // sent message of both classes was delivered.
    net::Telemetry &tel = m->telemetry();
    EXPECT_GE(tel.classSent(size_t(coh::MsgType::Inv)), kSharers);
    EXPECT_EQ(tel.classSent(size_t(coh::MsgType::Inv)),
              tel.classDelivered(size_t(coh::MsgType::Inv)));
    EXPECT_EQ(tel.classSent(size_t(coh::MsgType::InvAck)),
              tel.classDelivered(size_t(coh::MsgType::InvAck)));

    // Span causality: every fill's parent is its miss, and the
    // node-0 write transaction carries the balanced invalidations.
    coh::TxnTracer *tracer = m->txnTracer();
    ASSERT_NE(tracer, nullptr);
    EXPECT_EQ(tracer->dropped(), 0u);
    EXPECT_EQ(checkCohInvariants(*tracer), "");

    std::map<uint64_t, uint64_t> issue_cycle;
    for (const coh::TxnEvent &e : *tracer) {
        if (e.phase == coh::TxnPhase::Issue)
            issue_cycle.emplace(e.txn, e.cycle);
    }
    size_t fills = 0;
    for (const coh::TxnEvent &e : *tracer) {
        if (e.phase != coh::TxnPhase::Fill)
            continue;
        ++fills;
        auto parent = issue_cycle.find(e.txn);
        ASSERT_NE(parent, issue_cycle.end())
            << "fill without a recorded miss, txn " << e.txn;
        EXPECT_LT(parent->second, e.cycle);
    }
    EXPECT_GT(fills, 0u);

    bool found_write = false;
    for (const coh::TxnRecord &r :
         coh::summarizeTransactions(*tracer)) {
        EXPECT_EQ(r.requester, r.id >> 32);
        if (r.requester == 0 && r.line == line && r.write) {
            found_write = true;
            EXPECT_TRUE(r.complete);
            EXPECT_EQ(r.invs, kSharers);
            EXPECT_EQ(r.acks, kSharers);
            EXPECT_GT(r.filled, r.issued);
        }
    }
    EXPECT_TRUE(found_write)
        << "node 0's invalidating write was not traced";
}

TEST(CohTrace, SpanLogIsBitIdenticalAcrossEngines)
{
    Program prog = buildSharingWorkload();
    RunRecord ref = recordRun(*runOnce(prog, 1, true));
    EXPECT_NE(ref.outputs.cohTrace.find("\"transactions\""), std::string::npos);

    for (bool skip : {true, false}) {
        for (uint32_t threads : {1u, 2u, 4u}) {
            if (skip && threads == 1)
                continue;       // the reference configuration
            EXPECT_EQ(compareRuns(ref, recordRun(*runOnce(prog, threads,
                                                          skip))),
                      "")
                << "threads=" << threads << " skip=" << skip;
        }
    }
}

/** The PR 8 machine-scaling configuration (DESIGN.md §7.8): the same
 *  workload reshaped onto a 1-D line mesh of 4 nodes under the
 *  limited directory with a single hardware pointer, so the
 *  three-sharer set overflows, the spill path runs inside the traced
 *  transactions — and the whole run, span log and stats included,
 *  stays bit-identical across host-thread counts and cycle-skip
 *  modes. */
TEST(CohTrace, SpanLogIsBitIdenticalUnderLimitedDirectoryOnMesh)
{
    Program prog = buildSharingWorkload();
    auto run = [&](uint32_t threads, bool skip) {
        return runOnce(prog, threads, skip,
                       coh::DirScheme::LimitedPtr, 1, 1, 4);
    };
    auto ref_machine = run(1, true);
    coh::Controller &home = ref_machine->controller(0);
    EXPECT_GE(home.statOverflowTraps.value(), 1.0);
    EXPECT_GE(home.statSpilledPtrs.value(), 1.0);
    EXPECT_EQ(home.statInvSent.value(), home.statInvAcks.value());
    ASSERT_NE(ref_machine->txnTracer(), nullptr);
    EXPECT_EQ(checkCohInvariants(*ref_machine->txnTracer()), "");
    RunRecord ref = recordRun(*ref_machine);

    for (bool skip : {true, false}) {
        for (uint32_t threads : {1u, 2u, 4u}) {
            if (skip && threads == 1)
                continue;       // the reference configuration
            EXPECT_EQ(compareRuns(ref, recordRun(*run(threads, skip))), "")
                << "threads=" << threads << " skip=" << skip;
        }
    }
}

} // namespace
} // namespace april

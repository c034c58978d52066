/**
 * @file
 * The i-pointer limited directory (DESIGN.md §7.8). The wide-sharing
 * workload pushes one line's sharer set past the pointer budget and
 * asserts the overflow trap fires, the software spill preserves
 * coherence (the final machine state is architecturally identical to
 * the full-map oracle), the always-on census records the spill, and
 * an evict/re-acquire round trip through a stale spilled pointer
 * stays balanced. The forced-spill variant (i = 0) traps on every
 * sharer addition — the fuzzer's worst case — and must agree too.
 */

#include <gtest/gtest.h>

#include <memory>

#include "machine/alewife_machine.hh"
#include "machine/snapshot.hh"
#include "workloads/handwritten.hh"

namespace april
{
namespace
{

using namespace tagged;

constexpr uint32_t kLineWords = 4;

std::unique_ptr<AlewifeMachine>
runWide(const workloads::WideSharing &w, int dim, int radix,
        coh::DirScheme scheme, uint32_t ptrs, uint32_t threads = 1,
        bool skip = true)
{
    AlewifeParams p;
    p.network = {.dim = dim, .radix = radix};
    p.wordsPerNode = w.wordsPerNode;
    p.bootRuntime = false;
    p.cycleSkip = skip;
    p.controller.cache = {.lineWords = kLineWords, .numLines = 64,
                          .assoc = 2};
    p.controller.dirScheme = scheme;
    p.controller.dirPointers = ptrs;
    p.hostThreads = threads;
    auto m = std::make_unique<AlewifeMachine>(p, &w.prog);
    for (uint32_t n = 0; n < m->numNodes(); ++n)
        workloads::bootCoherentNode(m->proc(n), w.prog);
    m->run(100'000'000);
    EXPECT_TRUE(m->halted());
    EXPECT_TRUE(m->quiesce(1'000'000));
    return m;
}

TEST(DirectoryLimited, OverflowTrapFiresAndSpillPreservesCoherence)
{
    workloads::WideSharing w = workloads::buildWideSharing(16, 1u << 14);
    auto limited = runWide(w, 2, 4, coh::DirScheme::LimitedPtr, 4);
    auto fullmap = runWide(w, 2, 4, coh::DirScheme::FullMap, 4);

    // 16 sharers against a 4-pointer budget: the trap fired, dumped
    // more pointers than the hardware array holds, and the exclusive
    // write walked the software spill table before invalidating.
    coh::Controller &home = limited->controller(0);
    EXPECT_GE(home.statOverflowTraps.value(), 1.0);
    EXPECT_GE(home.statSpilledPtrs.value(), 5.0);
    EXPECT_GE(home.statSpillWalks.value(), 1.0);

    // The census recorded both the spill and the full sharer width.
    Addr line = w.shared / kLineWords;
    const coh::Controller::LineCensus *census = home.lineCensus(line);
    ASSERT_NE(census, nullptr);
    EXPECT_GE(census->spills, uint64_t(1));
    EXPECT_EQ(census->maxSharers, 16u);

    // The invalidation storm stayed balanced under the spill walk.
    EXPECT_GE(uint64_t(home.statInvSent.value()), 15u);
    EXPECT_EQ(home.statInvSent.value(), home.statInvAcks.value());

    // The full-map oracle never traps...
    coh::Controller &ref = fullmap->controller(0);
    EXPECT_EQ(ref.statOverflowTraps.value(), 0.0);
    ASSERT_NE(ref.lineCensus(line), nullptr);
    EXPECT_EQ(ref.lineCensus(line)->spills, uint64_t(0));

    // ...and the two schemes finish architecturally identical: same
    // console, same memory image, same registers. Only timing moved.
    EXPECT_EQ(limited->console(), fullmap->console());
    ASSERT_EQ(limited->console().size(), 1u);
    EXPECT_EQ(limited->console()[0], fixnum(99));
    EXPECT_EQ(compareArchitectural(snapshotMachine(*limited),
                                   snapshotMachine(*fullmap)),
              "");
}

TEST(DirectoryLimited, ForcedSpillTrapsOnEveryAddition)
{
    workloads::WideSharing w = workloads::buildWideSharing(4, 1u << 14);
    auto forced = runWide(w, 2, 2, coh::DirScheme::LimitedPtr, 0);
    auto fullmap = runWide(w, 2, 2, coh::DirScheme::FullMap, 4);

    // i = 0 leaves no hardware pointers at all: all four sharer
    // additions on the shared line trap (plus whatever the done-flag
    // lines contribute at their own homes).
    coh::Controller &home = forced->controller(0);
    EXPECT_GE(home.statOverflowTraps.value(), 4.0);
    EXPECT_GE(home.statSpillWalks.value(), 1.0);

    EXPECT_EQ(compareArchitectural(snapshotMachine(*forced),
                                   snapshotMachine(*fullmap)),
              "");
}

TEST(DirectoryLimited, BitIdenticalAcrossEnginesUnderLimitedDirectory)
{
    // The spill penalty rides the controller's deterministic delay
    // queue, so the limited directory must keep the parallel engine's
    // bit-identity guarantee: the same record for every host-thread
    // count and cycle-skip mode.
    workloads::WideSharing w = workloads::buildWideSharing(16, 1u << 14);
    RunRecord ref = recordRun(
        *runWide(w, 2, 4, coh::DirScheme::LimitedPtr, 4, 1, true));

    for (bool skip : {true, false}) {
        for (uint32_t threads : {2u, 4u}) {
            auto m = runWide(w, 2, 4, coh::DirScheme::LimitedPtr, 4,
                             threads, skip);
            EXPECT_EQ(compareRuns(ref, recordRun(*m)), "")
                << "threads=" << threads << " skip=" << skip;
        }
    }
}

/**
 * Evict/re-acquire round trip: a sharer whose pointer already spilled
 * flushes its copy (a silent eviction — the home keeps the stale
 * pointer) and immediately re-reads the line. The re-acquire must
 * fill correctly without a second overflow trap for that node, and
 * the final invalidation storm must stay balanced even though one
 * target no longer holds a copy.
 */
Program
buildEvictReacquire(uint32_t nodes, uint32_t words_per_node,
                    Addr shared, Addr done_off)
{
    int32_t node_shift = 0;
    while ((1u << node_shift) < words_per_node)
        ++node_shift;
    node_shift += int32_t(tagShift);
    const int32_t done_imm = int32_t(ptr(done_off, Tag::Other));

    Assembler as;
    as.bind("worker");
    as.ldio(6, int(IoReg::NodeId));
    as.cmpiR(6, 0);
    as.jRaw(Cond::EQ, "master");
    as.nop();

    // Sharer path: read, evict, re-read; both reads must agree.
    as.movi(1, ptr(shared, Tag::Other));
    as.ldnw(2, 1, 0);
    as.flushLine(1, 0);
    as.ldnw(3, 1, 0);
    as.addR(4, 2, 3);               // fixnum(7) + fixnum(7) = fixnum(14)
    as.ldio(5, int(IoReg::NodeId));
    as.slliR(5, 5, node_shift);
    as.addiR(5, 5, done_imm);
    as.stnw(4, 5, 0);
    as.halt();

    // Master: wait for every sharer's fixnum(14), then invalidate the
    // whole (partly stale) sharer set with one exclusive write.
    as.bind("master");
    as.movi(8, 1);
    as.bind("poll");
    as.slliR(9, 8, node_shift);
    as.addiR(9, 9, done_imm);
    as.bind("pollw");
    as.ldnw(10, 9, 0);
    as.cmpiR(10, int32_t(fixnum(14)));
    as.jRaw(Cond::NE, "pollw");
    as.nop();
    as.addiR(8, 8, 1);
    as.cmpiR(8, int32_t(nodes));
    as.jRaw(Cond::LT, "poll");
    as.nop();
    as.movi(1, ptr(shared, Tag::Other));
    as.movi(2, fixnum(9));
    as.stnw(2, 1, 0);
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.halt();

    workloads::emitSwitchStubs(as);
    return as.finish();
}

TEST(DirectoryLimited, EvictReacquireRoundTrip)
{
    constexpr Addr kShared = 512;
    constexpr Addr kDoneOff = 520;
    constexpr uint32_t kWordsPerNode = 1u << 14;

    auto run = [&](coh::DirScheme scheme, uint32_t ptrs) {
        Program prog = buildEvictReacquire(4, kWordsPerNode, kShared,
                                           kDoneOff);
        AlewifeParams p;
        p.network = {.dim = 2, .radix = 2};
        p.wordsPerNode = kWordsPerNode;
        p.bootRuntime = false;
        p.controller.cache = {.lineWords = kLineWords, .numLines = 64,
                              .assoc = 2};
        p.controller.dirScheme = scheme;
        p.controller.dirPointers = ptrs;
        auto m = std::make_unique<AlewifeMachine>(p, &prog);
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            workloads::bootCoherentNode(m->proc(n), prog);
        m->memory().write(kShared, fixnum(7));
        m->run(50'000'000);
        EXPECT_TRUE(m->halted());
        EXPECT_TRUE(m->quiesce(1'000'000));
        return m;
    };

    auto limited = run(coh::DirScheme::LimitedPtr, 1);
    auto fullmap = run(coh::DirScheme::FullMap, 4);

    // Three sharers against one pointer: the set overflowed. Every
    // sharer read fixnum(7) both before and after its eviction (the
    // master verified fixnum(14) on every done flag before halting).
    coh::Controller &home = limited->controller(0);
    EXPECT_GE(home.statOverflowTraps.value(), 1.0);
    Addr line = kShared / kLineWords;
    const coh::Controller::LineCensus *census = home.lineCensus(line);
    ASSERT_NE(census, nullptr);
    EXPECT_GE(census->spills, uint64_t(1));
    EXPECT_EQ(census->maxSharers, 3u);

    // The storm targeted stale (flushed) sharers too; every
    // invalidation was still acknowledged.
    EXPECT_GE(uint64_t(home.statInvSent.value()), 3u);
    EXPECT_EQ(home.statInvSent.value(), home.statInvAcks.value());

    EXPECT_EQ(compareArchitectural(snapshotMachine(*limited),
                                   snapshotMachine(*fullmap)),
              "");
}

} // namespace
} // namespace april

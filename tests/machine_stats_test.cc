/**
 * @file
 * The statistics tree of a full machine run: every subsystem reports
 * through one nested stats::Group dump (processors, caches,
 * controllers, network), the derived utilization formula holds, a
 * reset keeps the cycle ledger consistent, and the report bytes of a
 * fixed run are pinned.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/digest.hh"
#include "machine/alewife_machine.hh"
#include "machine/coh_report.hh"
#include "machine/driver.hh"
#include "machine/perfect_machine.hh"
#include "machine/snapshot.hh"
#include "machine/workload.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

TEST(MachineStats, DumpCoversEverySubsystem)
{
    mult::CompileOptions copts;
    copts.futures = mult::CompileOptions::FutureMode::Eager;
    Program prog = mult::compileProgram(workloads::fibSource(9), copts);

    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    AlewifeMachine m(p, &prog);
    m.run(50'000'000);
    ASSERT_TRUE(m.halted());

    std::ostringstream os;
    m.dump(os);
    std::string out = os.str();
    for (const char *key :
         {"alewife.network.packets", "alewife.network.latency",
          "alewife.ctrl0.cache.hits", "alewife.ctrl3.remoteMisses",
          "alewife.proc0.cycles", "alewife.proc0.utilization",
          "alewife.proc2.contextSwitches"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(MachineStats, UtilizationFormulaIsConsistent)
{
    mult::CompileOptions copts;
    Program prog = mult::compileProgram("(define (main) (+ 1 2))", copts);

    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    AlewifeMachine m(p, &prog);
    m.run(1'000'000);
    ASSERT_TRUE(m.halted());

    // Utilization is defined on the cycle accountant (§7.5): the
    // fraction of cycles doing useful work, pipeline hazards included
    // (the paper's U counts issue slots the thread itself occupies).
    Processor &proc = m.proc(0);
    double useful = proc.bucketCycles(profile::Bucket::Useful);
    double hazard = proc.bucketCycles(profile::Bucket::Hazard);
    EXPECT_NEAR(proc.statUtilization.value(),
                (useful + hazard) / proc.statCycles.value(), 1e-12);
    EXPECT_GT(proc.statUtilization.value(), 0.0);
    EXPECT_LE(proc.statUtilization.value(), 1.0);
    // Useful cycles never exceed completed instructions and together
    // the buckets account for every cycle.
    EXPECT_LE(useful, proc.statInsts.value());
    proc.verifyCycleAccounting();
}

/** After a reset every processor's ledger, the per-frame matrix
 *  included, starts again from zero and still balances. */
void
expectLedgerCleared(Machine &m)
{
    m.verifyCycleAccounting();
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        for (const auto &row : m.proc(n).frameCycles())
            for (uint64_t v : row)
                EXPECT_EQ(v, 0u) << "node " << n;
    }
}

TEST(MachineStats, ResetClearsTheWholeTree)
{
    mult::CompileOptions copts;
    Program prog = mult::compileProgram("(define (main) 7)", copts);

    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    AlewifeMachine m(p, &prog);
    m.run(1'000'000);
    ASSERT_TRUE(m.halted());
    EXPECT_GT(m.proc(0).statCycles.value(), 0.0);

    m.resetStats();
    EXPECT_EQ(m.proc(0).statCycles.value(), 0.0);
    EXPECT_EQ(m.network().statPackets.value(), 0.0);
    EXPECT_EQ(m.controller(0).cacheRef().statHits.value(), 0.0);
    expectLedgerCleared(m);

    PerfectMachineParams pp;
    pp.numNodes = 2;
    PerfectMachine pm(pp, &prog);
    pm.run(1'000'000);
    ASSERT_TRUE(pm.halted());
    EXPECT_GT(pm.proc(0).statCycles.value(), 0.0);
    pm.resetStats();
    EXPECT_EQ(pm.proc(0).statCycles.value(), 0.0);
    expectLedgerCleared(pm);
}

/** FNV-1a digest of one report. */
uint64_t
digestOf(const std::string &s)
{
    Digest d;
    d.addString(s);
    return d.value();
}

/**
 * The bytes of every report a fib run writes are pinned: the stats
 * JSON (which also fixes the order stats and groups register in),
 * the profile JSON, the Chrome trace and the task JSON, plus the
 * coherence report JSON (whose census lists follow the directory's
 * address order at ties), the transaction log and the stats of a
 * limited-directory run wider than 64 nodes. A change to any of them
 * must update these values on purpose. ALEWIFE is checked at one and
 * at four host threads, which must agree.
 */
TEST(MachineStats, OutputDigestsArePinned)
{
    struct Pinned
    {
        uint64_t stats, profile, trace, task;
    };
    auto run = [](bool alewife, uint32_t threads) {
        DriverOptions o;
        o.nodes = 4;
        o.alewife = alewife;
        o.hostThreads = threads;
        o.traceEvents = o.taskTrace = o.profile = true;
        DriverResult r = runMultProgram(workloads::fibSource(8), o);
        EXPECT_EQ(tagged::toInt(r.result), 21);
        const RunOutputs &out = r.outputs;
        return Pinned{digestOf(out.stats), digestOf(out.profile),
                      digestOf(out.trace), digestOf(out.taskTrace)};
    };
    auto expectPinned = [](const Pinned &got, const Pinned &want,
                           const std::string &what) {
        EXPECT_EQ(got.stats, want.stats) << what << " stats JSON";
        EXPECT_EQ(got.profile, want.profile) << what << " profile JSON";
        EXPECT_EQ(got.trace, want.trace) << what << " Chrome trace";
        EXPECT_EQ(got.task, want.task) << what << " task JSON";
    };
    const Pinned perfect{0xc66b0fe174441092ull, 0x8c2883af92c1e2d0ull,
                         0x469952aff0e59672ull, 0xc0f5553a74b0130eull};
    const Pinned alewife{0xfdd8ba5a00b58aaeull, 0x614c41c15d9ebe9full,
                         0x0904538de434d387ull, 0xf86923bd7b4a17c9ull};
    expectPinned(run(false, 1), perfect, "perfect 4 nodes");
    expectPinned(run(true, 1), alewife, "2x2 ALEWIFE 1 thread");
    expectPinned(run(true, 4), alewife, "2x2 ALEWIFE 4 threads");

    // Runs @p spec to its halt and returns the machine for reporting.
    auto runSpec = [](const std::string &spec, uint32_t threads,
                      coh::DirScheme scheme) {
        workloads::Workload w = workloads::fromSpec(spec);
        w.options.hostThreads = threads;
        w.options.cohTrace = true;
        w.options.controller.dirScheme = scheme;
        std::unique_ptr<Machine> m =
            makeMachine(w.prog, w.options, w.boot);
        m->run(w.options.maxCycles);
        EXPECT_TRUE(m->halted()) << spec;
        EXPECT_EQ(w.answer(*m), w.expected) << spec;
        return m;
    };
    for (uint32_t threads : {1u, 4u}) {
        std::unique_ptr<Machine> m =
            runSpec("fib:8", threads, coh::DirScheme::FullMap);
        std::ostringstream report, txns;
        writeCohReportJson(report, dynamic_cast<AlewifeMachine &>(*m));
        m->writeCohTrace(txns);
        std::string what = std::to_string(threads) + " thread(s)";
        EXPECT_EQ(digestOf(report.str()), 0x485348afcb270a3cull)
            << what << " coherence report JSON";
        EXPECT_EQ(digestOf(txns.str()), 0x630f91e10308a0c1ull)
            << what << " transaction log";
    }
    std::unique_ptr<Machine> wide =
        runSpec("wide:81", 1, coh::DirScheme::LimitedPtr);
    auto &limited = dynamic_cast<AlewifeMachine &>(*wide);
    EXPECT_GT(limited.controller(0).statOverflowTraps.value(), 0.0)
        << "the storm must overflow the pointer array";
    std::ostringstream wideStats;
    wide->dumpJson(wideStats);
    EXPECT_EQ(digestOf(wideStats.str()), 0x997554360dc2cf99ull)
        << "LimitedPtr wide:81 stats JSON";
}

/**
 * The text outputs of the stats tree: the Group::dump() report the
 * differential fuzzer compares, for the same fib(8) runs as
 * OutputDigestsArePinned, and the `april run fib:10 --series` CSV.
 * Values recorded while every stat still owned copies of its text, so
 * printing from static text cannot change a byte.
 */
TEST(MachineStats, TextOutputsArePinned)
{
    auto dumpText = [](bool alewife, uint32_t threads) {
        DriverOptions o;
        o.nodes = 4;
        o.alewife = alewife;
        o.hostThreads = threads;
        o.traceEvents = o.taskTrace = o.profile = true;
        Program prog =
            mult::compileProgram(workloads::fibSource(8), o.compile);
        std::unique_ptr<Machine> m = makeMachine(prog, o);
        m->run(o.maxCycles);
        EXPECT_TRUE(m->halted());
        std::ostringstream os;
        m->dump(os);
        return digestOf(os.str());
    };
    const uint64_t alewifeText = 0xec411e9b36ace5b4ull;
    EXPECT_EQ(dumpText(false, 1), 0x911c5f0b205ad08full) << "perfect";
    EXPECT_EQ(dumpText(true, 1), alewifeText) << "2x2 ALEWIFE 1 thread";
    EXPECT_EQ(dumpText(true, 4), alewifeText) << "2x2 ALEWIFE 4 threads";

    // What `april run fib:10 --series=F` writes, less its final "\n".
    workloads::Workload w = workloads::fromSpec("fib:10");
    w.options.profile = true;
    w.options.statsInterval = 4096;
    std::unique_ptr<Machine> m = makeMachine(w.prog, w.options, w.boot);
    m->run(w.options.maxCycles);
    ASSERT_TRUE(m->halted());
    ASSERT_NE(m->intervalSampler(), nullptr);
    std::ostringstream series;
    m->intervalSampler()->writeCsv(series);
    EXPECT_EQ(digestOf(series.str()), 0xa09f81c00ca1cfd7ull)
        << "fib:10 series CSV";
}

/**
 * A 4x4 run of fib on the Table 4 cache. Its stats JSON and coherent
 * memory image are pinned (values recorded while every cache was
 * still built whole), so materialising cache storage on first fill
 * cannot change a simulated byte. The machine starts with no cache
 * page resident, and the run fills only some of them.
 */
TEST(MachineStats, Table4FibOn4x4IsPinned)
{
    workloads::Workload w = workloads::fromSpec("fib");
    w.options.nodes = 16;
    w.options.netRadix = 4;
    w.options.wordsPerNode = 1u << 16;
    std::unique_ptr<Machine> m = makeMachine(w.prog, w.options, w.boot);
    auto &alewife = dynamic_cast<AlewifeMachine &>(*m);
    auto residentCachePages = [&] {
        size_t pages = 0;
        for (uint32_t n = 0; n < alewife.numNodes(); ++n)
            pages += alewife.controller(n).cacheRef().residentPages();
        return pages;
    };
    EXPECT_EQ(residentCachePages(), 0u);
    m->run(w.options.maxCycles);
    ASSERT_TRUE(m->halted());
    EXPECT_EQ(w.answer(*m), w.expected);

    RunRecord run = recordRun(*m);
    EXPECT_TRUE(run.snap.coherenceErrors.empty());
    Digest memory;
    for (const MemWord &word : run.snap.memory) {
        memory.addWord(word.data);
        memory.addByte(word.full);
    }
    EXPECT_EQ(digestOf(run.outputs.stats), 0x6b7ea5dc1048a449ull)
        << "stats JSON";
    EXPECT_EQ(memory.value(), 0xcf6ea960987db47dull) << "memory image";
    const size_t pagesPerCache = alewife.controller(0).cacheRef().numPages();
    EXPECT_GT(residentCachePages(), 0u);
    EXPECT_LT(residentCachePages(), pagesPerCache * alewife.numNodes());
}

} // namespace
} // namespace april

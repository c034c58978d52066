#include "machine/alewife_machine.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"
#include "machine/trace_config.hh"
#include "runtime/layout.hh"

namespace april
{

AlewifeMachine::AlewifeMachine(const AlewifeParams &p,
                               const Program *prog)
    : Machine("alewife"),
      params(p),
      mem({.numNodes = [&] {
               uint32_t n = 1;
               for (int d = 0; d < p.network.dim; ++d)
                   n *= uint32_t(p.network.radix);
               return n;
           }(),
           .wordsPerNode = p.wordsPerNode}),
      net_(p.network, this),
      telemetry_(mem.numNodes(), messageClassNames(), this,
                 net_.maxHops()),
      statTraceDropped(
          this, "traceDropped",
          "machine trace events dropped at the capacity cap",
          [this] { return double(trace_.dropped()); }),
      statCohTraceDropped(
          this, "cohTraceDropped",
          "coherence-transaction legs dropped at the capacity cap",
          [this] { return double(coh_.dropped()); }),
      statTaskTraceDropped(
          this, "taskTraceDropped",
          "task events dropped at the capacity cap",
          [this] { return double(task_.dropped()); })
{
    debug::initFromEnv();
    uint32_t n = mem.numNodes();

    // The quantum: no cross-node message (coherence packet or IPI)
    // sent at cycle c can be observed before c + Q, so shards may
    // advance Q cycles between barriers without seeing each other.
    quantum_ = net_.minCrossNodeLatency(
        std::min(p.controller.reqFlits, p.controller.dataFlits));
    if (quantum_ == 0)
        quantum_ = 1;

    uint32_t w = std::clamp<uint32_t>(params.hostThreads, 1, n);
    if (params.detectRaces)
        w = 1;      // the race observer keeps cross-node state
    params.hostThreads = w;

    if (p.traceEvents)
        trace_.open(p.capacity, w);
    if (p.cohTrace)
        coh_.open(p.capacity, w);
    if (p.taskTrace) {
        task_.open(p.capacity, w);
        taskProbes_ = std::make_unique<task::ProbeMap>(*prog);
    }
    if (p.detectRaces) {
        races = std::make_unique<analysis::RaceDetector>(
            n, p.raceMaxReports, this);
        races->setTraceRecorder(trace_.lane(0));
    }
    if (p.conformance)
        conform_ = std::make_unique<mc::Conformance>();

    shards.resize(w);
    uint32_t base = n / w;
    uint32_t rem = n % w;
    uint32_t at = 0;
    for (uint32_t s = 0; s < w; ++s) {
        shards[s].first = at;
        at += base + (s < rem ? 1 : 0);
        shards[s].last = at;
        shards[s].trace = trace_.lane(s);
    }
    arrivals.resize(n);

    // AlewifeParams::dirScheme is authoritative over whatever the
    // embedded ControllerParams carries.
    params.controller.dirScheme = p.dirScheme;
    params.controller.dirPointers = p.dirPointers;

    for (uint32_t i = 0; i < n; ++i) {
        rt::Runtime::initNode(mem, i);
        uint32_t shard = shardOf(i);
        Shard *sh = &shards[shard];
        fabrics.push_back(std::make_unique<NodeFabric>(this, sh));
        ctrls.push_back(std::make_unique<coh::Controller>(
            params.controller, i, p.proc.numFrames, &mem,
            fabrics.back().get(), this));
        ios.push_back(std::make_unique<NodeIo>(this, sh, i,
                                               p.seed * 1000003 + i));
        ProcParams pp = p.proc;
        pp.nodeId = i;
        procs.push_back(std::make_unique<Processor>(
            pp, prog, ctrls.back().get(), ios.back().get(), this));
        ctrls.back()->setProcessor(procs.back().get());
        ctrls.back()->setTraceRecorder(sh->trace);
        ctrls.back()->setTxnTracer(coh_.lane(shard));
        ctrls.back()->setObserver(races.get());
        ctrls.back()->setTransitionListener(conform_.get());
        procs.back()->setTraceRecorder(sh->trace);
        procs.back()->setTaskProbe(taskProbes_.get(), task_.lane(shard));
        if (p.bootRuntime)
            rt::Runtime::bootProcessor(*procs.back(), *prog, mem, i, n);
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
    if (w > 1) {
        pool_ = std::make_unique<par::WorkerPool>(
            w, [this](uint32_t worker) {
                advanceShard(shards[worker], quantumTarget_);
            });
    }
}

AlewifeMachine::~AlewifeMachine() = default;

uint64_t
AlewifeMachine::NodeFabric::now() const
{
    return s->cycle;
}

uint32_t
AlewifeMachine::shardOf(uint32_t node) const
{
    for (uint32_t s = 0; s < shards.size(); ++s) {
        if (node >= shards[s].first && node < shards[s].last)
            return s;
    }
    panic("shardOf: node ", node, " outside every shard");
}

uint64_t
AlewifeMachine::gridAlign(uint64_t c) const
{
    return (c + quantum_ - 1) / quantum_ * quantum_;
}

uint64_t
AlewifeMachine::nextGrid(uint64_t c) const
{
    return (c / quantum_ + 1) * quantum_;
}

profile::ProfileSource
AlewifeMachine::profileSource() const
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
AlewifeMachine::verifyCycleAccounting() const
{
    for (const auto &p : procs)
        p->verifyCycleAccounting();
}

// ---------------------------------------------------------------------
// Cross-node channels
// ---------------------------------------------------------------------

void
AlewifeMachine::pushArrival(const InFlight &f)
{
    auto &q = arrivals[f.dst].q;
    q.push_back(f);
    std::push_heap(q.begin(), q.end());
}

void
AlewifeMachine::shardTransmit(Shard &s, uint32_t to,
                              const coh::Message &msg, uint32_t flits)
{
    net::Injection inj = net_.inject(msg.from, to, flits, s.cycle);
    telemetry_.recordSend(msg.from, to, uint8_t(msg.type), flits);
    if (s.trace) {
        s.trace->record({s.cycle, msg.from, trace::EventKind::NetSend,
                         0, 0, to, flits});
    }
    TRACE(Net, "c", s.cycle, " send ", msg.from, "->", to,
          " flits=", flits, " arrive=", inj.arrive);
    InFlight f;
    f.arrive = inj.arrive;
    f.src = msg.from;
    f.seq = inj.seq;
    f.dst = to;
    f.flits = flits;
    f.hops = inj.hops;
    f.sendCycle = s.cycle;
    f.msg = msg;
    if (to >= s.first && to < s.last)
        pushArrival(f);
    else
        s.outbox.push_back(std::move(f));
}

void
AlewifeMachine::deliverNode(Shard &s, uint32_t node)
{
    auto &q = arrivals[node].q;
    while (!q.empty() && q.front().arrive <= s.cycle) {
        std::pop_heap(q.begin(), q.end());
        InFlight f = std::move(q.back());
        q.pop_back();
        net_.recordDelivery(node, s.cycle - f.sendCycle, f.hops,
                            f.flits);
        telemetry_.recordDeliver(f.src, node, uint8_t(f.msg.type),
                                 f.flits, s.cycle - f.sendCycle,
                                 f.hops);
        if (s.trace) {
            s.trace->record({s.cycle, node,
                             trace::EventKind::NetDeliver, 0, 0, f.src,
                             uint32_t(s.cycle - f.sendCycle)});
        }
        TRACE(Net, "c", s.cycle, " deliver ", f.src, "->", node,
              " latency=", s.cycle - f.sendCycle);
        ctrls[node]->receive(f.msg);
    }
}

void
AlewifeMachine::queueIpi(Shard &s, uint32_t src, uint32_t dst,
                         Word arg)
{
    // Preemptive interprocessor interrupts (Section 3.4) travel
    // through the network as a request packet handled once by the
    // remote controller: occupancy + traversal. The latency is at
    // least the quantum for any cross-node pair, so the parallel
    // engine can commit them at barriers.
    uint64_t due = s.cycle + params.controller.occupancy +
                   uint64_t(net_.distance(src, dst)) *
                       net_.hopCycles() +
                   params.controller.reqFlits;
    PendingIpi ipi{due, src, dst, arg};
    Shard &home = shards[shardOf(dst)];
    if (&home == &s) {
        auto pos = std::upper_bound(
            s.ipiPending.begin(), s.ipiPending.end(), ipi,
            [](const PendingIpi &a, const PendingIpi &b) {
                return a.due != b.due ? a.due < b.due : a.src < b.src;
            });
        s.ipiPending.insert(pos, ipi);
    } else {
        s.ipiOutbox.push_back(ipi);
    }
}

void
AlewifeMachine::applyIpis(Shard &s)
{
    if (s.ipiPending.empty() || s.ipiPending.front().due > s.cycle)
        return;
    size_t n = 0;
    while (n < s.ipiPending.size() && s.ipiPending[n].due <= s.cycle) {
        const PendingIpi &ipi = s.ipiPending[n];
        procs[ipi.dst]->postIpi(ipi.arg);
        ++n;
    }
    s.ipiPending.erase(s.ipiPending.begin(),
                       s.ipiPending.begin() + long(n));
}

uint32_t
AlewifeMachine::queueBlockGo(Shard &s, uint32_t node, Word src,
                             Word dst, Word len)
{
    // The transfer commits at the next grid boundary, where every
    // shard is parked at a barrier: the coherent sweep reads all
    // caches, which no shard may do mid-quantum. The issuing
    // processor is held one cycle per word and at least until the
    // boundary, so the resuming thread always observes the copy.
    uint64_t commit = gridAlign(s.cycle);
    s.blockOps.push_back({commit, s.cycle, node, src, dst, len});
    s.blockMin = std::min(s.blockMin, commit);
    return uint32_t(std::max<uint64_t>(len, commit - s.cycle));
}

void
AlewifeMachine::executeBlockOp(const BlockOp &op)
{
    // The block-transfer engine (Section 3.4) is coherent:
    //  1) dirty source lines anywhere are swept back to memory so
    //     the copy sees current data;
    //  2) the words move in memory;
    //  3) cached copies overlapping the destination are updated
    //     in place (a destination line can legitimately be cached
    //     dirty when a bump-allocated region shares a line with a
    //     live earlier allocation — invalidating would lose that
    //     neighbor's data, so the transfer write-updates instead).
    for (uint32_t node_i = 0; node_i < numNodes(); ++node_i) {
        auto &cache = ctrls[node_i]->cacheRef();
        uint32_t lw = cache.lineWords();
        for (Word w = op.src / lw; w <= (op.src + op.len) / lw; ++w) {
            auto *line = cache.find(Addr(w));
            if (line && line->state == cache::LineState::Modified) {
                for (uint32_t k = 0; k < lw; ++k)
                    mem.word(Addr(w * lw + k)) = line->words[k];
            }
        }
    }
    const SharedMemory &image = mem;    // reading never materialises
    for (Word i = 0; i < op.len; ++i)
        mem.word(op.dst + i) = image.word(op.src + i);
    for (uint32_t node_i = 0; node_i < numNodes(); ++node_i) {
        auto &cache = ctrls[node_i]->cacheRef();
        uint32_t lw = cache.lineWords();
        for (Word i = 0; i < op.len; ++i) {
            auto *line = cache.find(Addr((op.dst + i) / lw));
            if (line) {
                line->words[(op.dst + i) % lw] =
                    image.word(op.dst + i);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The execution engine
// ---------------------------------------------------------------------

uint64_t
AlewifeMachine::shardNextEvent(const Shard &s) const
{
    uint64_t soon = s.cycle + 1;
    uint64_t next = std::min(s.haltAt, s.blockMin);
    if (!s.ipiPending.empty())
        next = std::min(next, s.ipiPending.front().due);
    next = std::max(next, soon);
    // Components in cheapest-first order, bailing out as soon as one
    // wants the very next tick: the common busy case must not pay
    // full scans.
    for (uint32_t i = s.first; i < s.last; ++i) {
        next = std::min(next, procs[i]->nextEventCycle());
        if (next <= soon)
            return next;
    }
    for (uint32_t i = s.first; i < s.last; ++i) {
        next = std::min(next, ctrls[i]->nextEventCycle());
        if (next <= soon)
            return next;
        const auto &q = arrivals[i].q;
        if (!q.empty()) {
            next = std::min(next, std::max(q.front().arrive, soon));
            if (next <= soon)
                return next;
        }
    }
    return next;
}

void
AlewifeMachine::shardSkip(Shard &s, uint64_t cycles)
{
    for (uint32_t i = s.first; i < s.last; ++i)
        procs[i]->skipCycles(cycles);
    // Controllers keep no per-cycle state (absolute due times), and
    // packet arrivals are absolute-cycle heaps: only the processors
    // and the shard clock move.
    s.cycle += cycles;
}

void
AlewifeMachine::advanceShard(Shard &s, uint64_t target)
{
    for (;;) {
        // A commit boundary of our own (halt write or block transfer)
        // forces this shard to stop there so the coordinator can run
        // the barrier phase exactly at the boundary. With several
        // shards those boundaries coincide with the quantum end; with
        // one shard (longer targets) this is what slices the run.
        uint64_t stop = std::min({target, s.haltAt, s.blockMin});
        if (s.cycle >= stop)
            break;
        if (params.cycleSkip && s.cycle >= s.probeAt) {
            uint64_t next = shardNextEvent(s);
            if (next > s.cycle + 1) {
                s.probeBackoff = 0;
                uint64_t to = std::min(next - 1, stop);
                if (to > s.cycle) {
                    shardSkip(s, to - s.cycle);
                    continue;
                }
            } else {
                // Nothing to skip: on probe-hostile phases (coherence
                // traffic every cycle) the full scan is pure overhead,
                // so back off exponentially before asking again. A
                // window that opens mid-back-off is simply ticked
                // through, which the skip contract makes equivalent.
                s.probeBackoff = std::min<uint32_t>(
                    s.probeBackoff ? s.probeBackoff * 2 : 1, 32);
                s.probeAt = s.cycle + 1 + s.probeBackoff;
            }
        }
        ++s.cycle;
        applyIpis(s);
        for (uint32_t i = s.first; i < s.last; ++i) {
            deliverNode(s, i);
            ctrls[i]->tick();
            procs[i]->tick();
        }
    }
}

void
AlewifeMachine::syncAt(uint64_t t)
{
    _cycle = t;
    // Cross-shard packets: the arrival heaps order by the canonical
    // (arrive, src, seq) key, so insertion order is irrelevant — but
    // every merged packet must still be in this barrier's future.
    for (Shard &s : shards) {
        for (InFlight &f : s.outbox) {
            if (f.arrive <= t) {
                panic("parallel engine: packet ", f.src, "->", f.dst,
                      " arrives at ", f.arrive,
                      " on or before the barrier at ", t);
            }
            pushArrival(f);
        }
        s.outbox.clear();
        for (const PendingIpi &ipi : s.ipiOutbox) {
            if (ipi.due <= t) {
                panic("parallel engine: IPI ", ipi.src, "->", ipi.dst,
                      " due at ", ipi.due,
                      " on or before the barrier at ", t);
            }
            Shard &home = shards[shardOf(ipi.dst)];
            auto pos = std::upper_bound(
                home.ipiPending.begin(), home.ipiPending.end(), ipi,
                [](const PendingIpi &a, const PendingIpi &b) {
                    return a.due != b.due ? a.due < b.due
                                          : a.src < b.src;
                });
            home.ipiPending.insert(pos, ipi);
        }
        s.ipiOutbox.clear();
    }
    // Block transfers commit in canonical (commit, issue-cycle, node)
    // order; ops beyond this barrier (budget- or sample-clamped
    // quanta) stay pending and force a barrier at their boundary.
    bool gathered = false;
    for (Shard &s : shards) {
        if (!s.blockOps.empty()) {
            pendingBlocks.insert(pendingBlocks.end(),
                                 s.blockOps.begin(), s.blockOps.end());
            s.blockOps.clear();
            s.blockMin = kNeverCycle;
            gathered = true;
        }
    }
    if (gathered) {
        std::sort(pendingBlocks.begin(), pendingBlocks.end(),
                  [](const BlockOp &a, const BlockOp &b) {
                      if (a.commit != b.commit)
                          return a.commit < b.commit;
                      if (a.issued != b.issued)
                          return a.issued < b.issued;
                      return a.node < b.node;
                  });
    }
    size_t done = 0;
    while (done < pendingBlocks.size() &&
           pendingBlocks[done].commit <= t) {
        executeBlockOp(pendingBlocks[done]);
        ++done;
    }
    if (done)
        pendingBlocks.erase(pendingBlocks.begin(),
                            pendingBlocks.begin() + long(done));
    // Halt commits at its grid boundary.
    for (Shard &s : shards) {
        if (s.haltAt <= t) {
            haltFlag = true;
            s.haltAt = kNeverCycle;
        }
    }
    // Console output merges in (cycle, node) order — exactly the
    // order the one-shard machine emits, since it processes nodes in
    // ascending order within a cycle.
    bool any_console = false;
    for (const Shard &s : shards)
        any_console |= !s.console.empty();
    if (any_console) {
        std::vector<ConsoleEntry> merged;
        for (Shard &s : shards) {
            merged.insert(merged.end(), s.console.begin(),
                          s.console.end());
            s.console.clear();
        }
        std::sort(merged.begin(), merged.end(),
                  [](const ConsoleEntry &a, const ConsoleEntry &b) {
                      return a.cycle != b.cycle ? a.cycle < b.cycle
                                                : a.node < b.node;
                  });
        for (const ConsoleEntry &e : merged)
            consoleWords.push_back(e.word);
    }
    if (interval_) {
        foldObservability();
        interval_->sampleIfDue(t);
    }
    // Raise any conformance violation the shard workers recorded
    // from the coordinating thread (workers must stay noexcept).
    if (conform_)
        conform_->check();
}

void
AlewifeMachine::tick()
{
    // Serial one-cycle advance (tests, quiesce): shard order equals
    // node order, so this is the same schedule the parallel engine's
    // barriers guarantee.
    uint64_t t = _cycle + 1;
    for (Shard &s : shards)
        advanceShard(s, t);
    syncAt(t);
}

uint64_t
AlewifeMachine::nextEventCycle() const
{
    uint64_t next = kNeverCycle;
    if (!pendingBlocks.empty())
        next = pendingBlocks.front().commit;
    for (const Shard &s : shards) {
        next = std::min(next, shardNextEvent(s));
        if (next <= _cycle + 1)
            return next;
    }
    return next;
}

uint64_t
AlewifeMachine::run(uint64_t max_cycles)
{
    uint64_t start = _cycle;
    uint64_t end = max_cycles > kNeverCycle - _cycle
        ? kNeverCycle
        : _cycle + max_cycles;
    uint32_t w = hostThreads();
    while (!haltFlag && _cycle < end) {
        uint64_t target = end;
        for (const Shard &s : shards)
            target = std::min({target, s.haltAt, s.blockMin});
        if (!pendingBlocks.empty())
            target = std::min(target, pendingBlocks.front().commit);
        if (interval_)
            target = std::min(target,
                              interval_->nextSampleCycle(_cycle));
        if (w == 1) {
            // One shard: no quantum needed — the shard slices itself
            // at its own commit boundaries.
            advanceShard(shards[0], target);
            syncAt(shards[0].cycle);
            continue;
        }
        target = std::min(target, nextGrid(_cycle));
        if (params.cycleSkip) {
            // Whole-machine fast-forward across quanta: sound because
            // every shard's next event (including in-flight arrivals
            // and pending commits) bounds the window.
            uint64_t next = nextEventCycle();
            if (next > _cycle + 1) {
                uint64_t to = std::min(
                    next == kNeverCycle ? end : next - 1, target);
                if (to > _cycle) {
                    for (Shard &s : shards)
                        shardSkip(s, to - _cycle);
                    syncAt(to);
                    continue;
                }
            }
        }
        quantumTarget_ = target;
        pool_->runQuantum();
        syncAt(target);
    }
    foldObservability();
    obs::warnOverflow(warnedTraceDrop_, trace_.dropped(), coh_.dropped(),
                      task_.dropped());
    return _cycle - start;
}

bool
AlewifeMachine::quiesce(uint64_t max_cycles)
{
    bool quiet = false;
    for (uint64_t i = 0; i < max_cycles && !quiet; ++i) {
        if (nextEventCycle() == kNeverCycle)
            quiet = true;
        else
            tick();
    }
    quiet = quiet || nextEventCycle() == kNeverCycle;
    verifyCycleAccounting();
    if (conform_)
        conform_->check();
    foldObservability();
    return quiet;
}

void
AlewifeMachine::foldObservability()
{
    net_.foldStats();
    telemetry_.foldStats();
}

Word
AlewifeMachine::coherentRead(Addr a) const
{
    // As snapshotMachine folds the image: a value may still sit in a
    // dirty line, and at most one cache holds the line Modified.
    for (const auto &c : ctrls) {
        cache::Cache &cache = c->cacheRef();
        const cache::CacheLine *line = cache.find(cache.lineOf(a));
        if (line && line->state == cache::LineState::Modified)
            return line->words[cache.offsetOf(a)].data;
    }
    return mem.read(a);
}

uint64_t
AlewifeMachine::runtimeCounter(int slot) const
{
    uint64_t total = 0;
    for (uint32_t i = 0; i < numNodes(); ++i)
        total += coherentRead(mem.nodeBase(i) + rt::nodeBlockOff +
                              Addr(slot));
    return total;
}

void
AlewifeMachine::writeTrace(std::ostream &os)
{
    trace::Recorder *r = traceRecorder();
    if (!r)
        return;
    coh::TxnTracer *t = txnTracer();
    task::Tracer *tt = taskTracer();
    trace::writeChromeTrace(
        os, *r, makeRecorderConfig(numNodes(), params.proc.numFrames),
        [t, tt](std::ostream &o, bool &first) {
            if (t)
                coh::writeChromeEvents(o, first, *t);
            if (tt)
                task::writeChromeEvents(o, first, *tt);
        });
}

void
AlewifeMachine::writeCohTrace(std::ostream &os)
{
    if (coh::TxnTracer *t = txnTracer())
        coh::writeJson(os, *t);
}

Word
AlewifeMachine::NodeIo::ioRead(IoReg r)
{
    switch (r) {
      case IoReg::CycleCount: return Word(s->cycle);
      case IoReg::NodeId: return node;
      case IoReg::NumNodes: return m->numNodes();
      case IoReg::Random: return Word(rng.next());
      default: return 0;
    }
}

uint32_t
AlewifeMachine::NodeIo::ioWrite(IoReg r, Word value)
{
    switch (r) {
      case IoReg::ConsoleOut:
        s->console.push_back({s->cycle, node, value});
        break;
      case IoReg::MachineHalt:
        // Commits at the next grid boundary (identical for every
        // host-thread count: the boundary depends only on the write
        // cycle and the quantum).
        s->haltAt = std::min(s->haltAt, m->gridAlign(s->cycle));
        break;
      case IoReg::IpiDest:
        ipiDest = value;
        break;
      case IoReg::IpiSend:
        if (ipiDest < m->numNodes())
            m->queueIpi(*s, node, uint32_t(ipiDest), value);
        break;
      case IoReg::BlockSrc:
        blockSrc = value;
        break;
      case IoReg::BlockDst:
        blockDst = value;
        break;
      case IoReg::BlockGo:
        return m->queueBlockGo(*s, node, blockSrc, blockDst, value);
      default:
        break;
    }
    return 0;
}

} // namespace april

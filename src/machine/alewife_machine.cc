#include "machine/alewife_machine.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"
#include "machine/trace_config.hh"

namespace april
{

namespace
{

/** The node count @p p describes. */
uint32_t
nodeCount(const AlewifeParams &p)
{
    uint32_t n = 1;
    for (int d = 0; d < p.network.dim; ++d)
        n *= uint32_t(p.network.radix);
    return n;
}

/** The shards (= host worker threads) a machine of @p p runs on. */
uint32_t
shardCount(const AlewifeParams &p)
{
    if (p.detectRaces)
        return 1;   // the race observer keeps cross-node state
    return std::clamp<uint32_t>(p.hostThreads, 1, nodeCount(p));
}

} // namespace

AlewifeMachine::AlewifeMachine(const AlewifeParams &p,
                               const Program *prog)
    : Machine({.name = "alewife",
               .numNodes = nodeCount(p),
               .lanes = shardCount(p),
               .coherent = true},
              p, prog),
      ctrlParams_(p.controller),
      net_(p.network, this),
      telemetry_(numNodes(), messageClasses(), this, net_.maxHops())
{
    uint32_t n = numNodes();
    uint32_t w = shardCount(p);

    // The quantum: no cross-node message (coherence packet or IPI)
    // sent at cycle c can be observed before c + Q, so shards may
    // advance Q cycles between barriers without seeing each other.
    quantum_ = net_.minCrossNodeLatency(
        std::min(coh::ControllerParams::kReqFlits,
                 coh::ControllerParams::kDataFlits));
    if (quantum_ == 0)
        quantum_ = 1;

    if (p.detectRaces) {
        races = std::make_unique<analysis::RaceDetector>(n, this);
        races->setTraceRecorder(trace_.lane(0));
    }

    shards.resize(w);
    uint32_t base = n / w;
    uint32_t rem = n % w;
    uint32_t at = 0;
    for (uint32_t s = 0; s < w; ++s) {
        shards[s].machine = this;
        shards[s].first = at;
        at += base + (s < rem ? 1 : 0);
        shards[s].last = at;
        shards[s].trace = trace_.lane(s);
    }
    arrivals.resize(n);

    for (uint32_t i = 0; i < n; ++i) {
        uint32_t shard = shardOf(i);
        Shard *sh = &shards[shard];
        ctrls.push_back(std::make_unique<coh::Controller>(
            ctrlParams_, i, p.proc.numFrames, &mem_, sh, this));
        coh::Controller &ctrl = *ctrls.back();
        ctrl.setProcessor(&addNode(i, &ctrl, shard, &sh->cycle));
        ctrl.setTraceRecorder(sh->trace);
        ctrl.setTxnTracer(coh_.lane(shard));
        ctrl.setObserver(races.get());
        ctrl.setTransitionListener(&conform_);
    }
    startIntervalSampler();
    if (w > 1) {
        pool_ = std::make_unique<par::WorkerPool>(
            w, [this](uint32_t worker) {
                advanceShard(shards[worker], quantumTarget_);
            });
    }
}

AlewifeMachine::~AlewifeMachine() = default;

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

// ---------------------------------------------------------------------
// Cross-node channels
// ---------------------------------------------------------------------

void
AlewifeMachine::pushArrival(InFlight &&f)
{
    auto &q = arrivals[f.dst].q;
    q.push_back(std::move(f));
    std::push_heap(q.begin(), q.end());
}

void
AlewifeMachine::post(Shard &s, InFlight &&f)
{
    if (f.dst >= s.first && f.dst < s.last)
        pushArrival(std::move(f));
    else
        s.outbox.push_back(std::move(f));
}

void
AlewifeMachine::shardTransmit(Shard &s, uint32_t to,
                              const coh::Message &msg, uint32_t flits)
{
    net::Injection inj = net_.inject(msg.from, to, flits, s.cycle);
    telemetry_.recordSend(msg.from, uint8_t(msg.type));
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
    post(s, std::move(f));
}

void
AlewifeMachine::queueIpi(Shard &s, uint32_t src, uint32_t dst,
                         Word arg)
{
    // Preemptive interprocessor interrupts (Section 3.4) travel
    // through the network as a request packet handled once by the
    // remote controller: occupancy + traversal, without link
    // contention. The latency is at least the quantum for any
    // cross-node pair, so they share the packets' barrier merge.
    net::Injection inj = net_.injectUncontended(
        src, dst, coh::ControllerParams::kReqFlits,
        s.cycle + coh::ControllerParams::kOccupancy);
    InFlight f;
    f.arrive = inj.arrive;
    f.src = src;
    f.seq = inj.seq;
    f.dst = dst;
    f.ipiArg = arg;
    post(s, std::move(f));
}

void
AlewifeMachine::deliverNode(Shard &s, uint32_t node)
{
    auto &q = arrivals[node].q;
    while (!q.empty() && q.front().arrive <= s.cycle) {
        std::pop_heap(q.begin(), q.end());
        InFlight f = std::move(q.back());
        q.pop_back();
        if (f.flits == 0) {
            procs_[node]->postIpi(f.ipiArg);
            continue;
        }
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
                    mem_.word(Addr(w * lw + k)) = line->words[k];
            }
        }
    }
    const SharedMemory &image = mem_;   // reading never materialises
    for (Word i = 0; i < op.len; ++i)
        mem_.word(op.dst + i) = image.word(op.src + i);
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
    uint64_t next = std::max(std::min(s.haltAt, s.blockMin), soon);
    // Components in cheapest-first order, bailing out as soon as one
    // wants the very next tick: the common busy case must not pay
    // full scans.
    for (uint32_t i = s.first; i < s.last; ++i) {
        next = std::min(next, procs_[i]->nextEventCycle());
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
        procs_[i]->skipCycles(cycles);
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
        uint64_t to = skipTarget(&s.probe, s.cycle, stop,
                                 [&] { return shardNextEvent(s); });
        if (to > s.cycle) {
            shardSkip(s, to - s.cycle);
            continue;
        }
        ++s.cycle;
        for (uint32_t i = s.first; i < s.last; ++i) {
            deliverNode(s, i);
            ctrls[i]->tick();
            procs_[i]->tick();
        }
    }
}

void
AlewifeMachine::syncAt(uint64_t t)
{
    cycle_ = t;
    // Cross-shard packets and interrupts: the arrival heaps order by
    // the canonical (arrive, src, seq) key, so insertion order is
    // irrelevant — but every merged one must still be in this
    // barrier's future.
    for (Shard &s : shards) {
        for (InFlight &f : s.outbox) {
            if (f.arrive <= t) {
                panic("parallel engine: ",
                      f.flits ? "packet " : "interrupt ", f.src, "->",
                      f.dst, " arrives at ", f.arrive,
                      " on or before the barrier at ", t);
            }
            pushArrival(std::move(f));
        }
        s.outbox.clear();
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
            haltFlag_ = true;
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
            console_.push_back(e.word);
    }
    // Raise any conformance violation the shard workers recorded
    // from the coordinating thread, at the same barrier for every
    // host-thread count.
    conform_.check();
}

void
AlewifeMachine::tick()
{
    // Serial one-cycle advance (tests, quiesce): shard order equals
    // node order, so this is the same schedule the parallel engine's
    // barriers guarantee.
    uint64_t t = cycle_ + 1;
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
        if (next <= cycle_ + 1)
            return next;
    }
    return next;
}

void
AlewifeMachine::advance(uint64_t stop)
{
    // The barrier must run exactly at each pending commit boundary.
    for (const Shard &s : shards)
        stop = std::min({stop, s.haltAt, s.blockMin});
    if (!pendingBlocks.empty())
        stop = std::min(stop, pendingBlocks.front().commit);
    if (shards.size() == 1) {
        // One shard: no quantum needed — the shard slices itself at
        // its own commit boundaries.
        advanceShard(shards[0], stop);
        syncAt(shards[0].cycle);
        return;
    }
    stop = std::min(stop, nextGrid(cycle_));
    // Whole-machine fast-forward across quanta: sound because every
    // shard's next event (including in-flight arrivals and pending
    // commits) bounds the window.
    uint64_t to = skipTarget(nullptr, cycle_, stop,
                             [this] { return nextEventCycle(); });
    if (to > cycle_) {
        for (Shard &s : shards)
            shardSkip(s, to - cycle_);
        syncAt(to);
        return;
    }
    quantumTarget_ = stop;
    pool_->runQuantum();
    syncAt(stop);
}

void
AlewifeMachine::foldObservability()
{
    conform_.check();
    telemetry_.foldStats();
    net_.foldStats(telemetry_);
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
    return mem_.read(a);
}

void
AlewifeMachine::consoleOut(uint32_t node, Word word)
{
    Shard &s = shards[shardOf(node)];
    s.console.push_back({s.cycle, node, word});
}

void
AlewifeMachine::machineHalt(uint32_t node)
{
    // Commits at the next grid boundary (identical for every
    // host-thread count: the boundary depends only on the write cycle
    // and the quantum).
    Shard &s = shards[shardOf(node)];
    s.haltAt = std::min(s.haltAt, gridAlign(s.cycle));
}

void
AlewifeMachine::sendIpi(uint32_t src, uint32_t dst, Word arg)
{
    queueIpi(shards[shardOf(src)], src, dst, arg);
}

uint32_t
AlewifeMachine::blockGo(uint32_t node, Word src, Word dst, Word len)
{
    return queueBlockGo(shards[shardOf(node)], node, src, dst, len);
}

} // namespace april

#include "coherence/controller.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"
#include "proc/fe_semantics.hh"
#include "proc/processor.hh"

namespace april::coh
{

namespace
{

/** The first line whose first word is at or past word @p a. */
Addr
lineAtOrAfter(uint64_t a, uint32_t line_words)
{
    return Addr((a + line_words - 1) / line_words);
}

/** log2 of the lines per directory page: the lines of 4,096 words
 *  (1,024 four-word lines, 4 KB of slots), or of the largest power
 *  of two dividing wordsPerNode if that is smaller. A slot page spans
 *  eight 512-word memory pages: pages as small as those would grow
 *  each home's one-level slot table eightfold. */
unsigned
dirPageShift(const SharedMemory &mem, uint32_t line_words)
{
    unsigned span = std::min(12u, unsigned(std::countr_zero(
                                      mem.wordsPerNode())));
    unsigned line = unsigned(std::bit_width(line_words - 1));
    return span > line ? span - line : 0;
}

/** dir<From>To<To> statistic text (old state x new state), built
 *  once per process. */
const std::vector<stats::FamilyText> &
dirTransitionText()
{
    static const std::vector<stats::FamilyText> table = [] {
        std::vector<stats::FamilyText> t;
        for (size_t old_s = 0; old_s < kNumDirStates; ++old_s) {
            for (size_t new_s = 0; new_s < kNumDirStates; ++new_s) {
                const std::string from = dirStateName(DirState(old_s));
                const std::string to = dirStateName(DirState(new_s));
                t.push_back({"dir" + from + "To" + to,
                             "directory transitions " + from + " -> " +
                                 to});
            }
        }
        return t;
    }();
    return table;
}

} // namespace

Controller::Controller(const ControllerParams &p, uint32_t node_id,
                       uint32_t num_frames, SharedMemory *memory,
                       Fabric *fabric_, stats::Group *parent)
    : stats::Group("ctrl" + std::to_string(node_id), parent),
      statLocalMisses(this, "localMisses", "misses served locally"),
      statRemoteMisses(this, "remoteMisses",
                       "misses needing the network"),
      statInvSent(this, "invalidations", "invalidations sent"),
      statInvAcks(this, "invAcks",
                  "invalidation acknowledgments received"),
      statWritebacks(this, "writebacks", "dirty lines written back"),
      statRemoteLatency(this, "remoteLatency",
                        "issue-to-fill cycles of remote transactions"),
      statSharerCount(this, "sharerCount",
                      "sharer-set width at directory transitions"),
      statInvPerWrite(this, "invPerWrite",
                      "invalidations per exclusive request"),
      statOverflowTraps(this, "overflowTraps",
                        "directory pointer-overflow traps taken"),
      statSpilledPtrs(this, "spilledPtrs",
                      "hardware pointers dumped to the spill table"),
      statSpillWalks(this, "spillWalks",
                     "exclusive requests that walked the spill table"),
      statInboxPeak(this, "inboxPeak",
                    "high-water mark of the message inbox"),
      statInboxDepth(this, "inboxDepth",
                     "instantaneous message-inbox depth",
                     [this] { return double(inboxDepth()); }),
      params(p), nodeId(node_id), mem(memory), fabric(fabric_),
      _cache(p.cache, this),
      firstHomeLine(lineAtOrAfter(memory->nodeBase(node_id),
                                  p.cache.lineWords)),
      slots(lineAtOrAfter(uint64_t(memory->nodeBase(node_id)) +
                              memory->wordsPerNode(),
                          p.cache.lineWords) -
                firstHomeLine,
            dirPageShift(*memory, p.cache.lineWords)),
      mshrs(num_frames)
{
    statDirTransitions.reserve(dirTransitionText().size());
    for (const stats::FamilyText &t : dirTransitionText())
        statDirTransitions.emplace_back(this, t.nameText(), t.descText());
}

uint32_t
Controller::homeOf(Addr line_addr) const
{
    return mem->homeNode(line_addr * params.cache.lineWords);
}

Controller::DirEntry &
Controller::dirEntry(Addr line_addr)
{
    Addr local = line_addr - firstHomeLine;
    if (line_addr < firstHomeLine || local >= slots.size())
        panic("ctrl", nodeId, ": line ", line_addr, " is not homed here");
    uint32_t &slot = slots[local];
    if (slot == 0) {
        if ((numEntries & kEntryChunkMask) == 0)
            entryChunks.push_back(
                std::make_unique<DirEntry[]>(kEntryChunkMask + 1));
        slot = ++numEntries;
    }
    return entryAt(slot);
}

const Controller::LineCensus *
Controller::lineCensus(Addr line_addr) const
{
    Addr local = line_addr - firstHomeLine;
    if (line_addr < firstHomeLine || local >= slots.size())
        return nullptr;
    const uint32_t *slot = slots.find(local);
    if (!slot || *slot == 0)
        return nullptr;
    const LineCensus &c = entryAt(*slot).census;
    return c.recorded() ? &c : nullptr;
}

std::vector<MemWord>
Controller::readMemoryLine(Addr line_addr) const
{
    // Through the const image: a read never materialises a page.
    const SharedMemory &image = *mem;
    std::vector<MemWord> words(params.cache.lineWords);
    for (uint32_t i = 0; i < params.cache.lineWords; ++i)
        words[i] = image.word(line_addr * params.cache.lineWords + i);
    return words;
}

void
Controller::writeMemoryLine(Addr line_addr,
                            const std::vector<MemWord> &words)
{
    for (uint32_t i = 0; i < params.cache.lineWords; ++i)
        mem->word(line_addr * params.cache.lineWords + i) = words[i];
}

void
Controller::pushDelayed(uint64_t due, uint32_t to, const Message &msg)
{
    delayed.push_back({due, delayedSeq++, to, msg});
    std::push_heap(delayed.begin(), delayed.end());
}

void
Controller::send(uint32_t to, Message msg, uint32_t extra)
{
    msg.from = nodeId;
    pushDelayed(fabric->now() + ControllerParams::kOccupancy + extra, to,
                msg);
}

void
Controller::sendAfterMemory(uint32_t to, Message msg, uint32_t extra)
{
    msg.from = nodeId;
    pushDelayed(fabric->now() + ControllerParams::kOccupancy +
                    params.memLatency + extra,
                to, msg);
}

void
Controller::dispatch(uint32_t to, const Message &msg)
{
    if (to == nodeId) {
        inbox.push_back(msg);
    } else {
        fabric->transmit(to, msg,
                         carriesData(msg.type)
                             ? ControllerParams::kDataFlits
                             : ControllerParams::kReqFlits);
    }
}

void
Controller::tick()
{
    // Dispatch due delayed work (occupancy / memory latency) in
    // (due, insertion) order off the heap.
    while (!delayed.empty() && delayed.front().due <= fabric->now()) {
        std::pop_heap(delayed.begin(), delayed.end());
        Delayed d = std::move(delayed.back());
        delayed.pop_back();
        dispatch(d.to, d.msg);
    }
    // Handle a bounded number of messages per cycle (occupancy).
    int budget = 2;
    while (budget-- > 0 && inboxHead < inbox.size()) {
        Message msg = std::move(inbox[inboxHead++]);
        handleMessage(msg);
    }
    if (inboxHead != 0 && 2 * inboxHead >= inbox.size()) {
        inbox.erase(inbox.begin(), inbox.begin() + ptrdiff_t(inboxHead));
        inboxHead = 0;
    }
}

void
Controller::receive(const Message &msg)
{
    inbox.push_back(msg);
    if (double(inboxDepth()) > statInboxPeak.value())
        statInboxPeak = double(inboxDepth());
}

uint64_t
Controller::nextEventCycle() const
{
    // Queued messages are handled on the very next tick.
    uint64_t now = fabric->now();
    if (inboxHead != inbox.size())
        return now + 1;
    // Delayed work dispatches at its due time; entries already due
    // (scheduled this cycle, after our tick ran) go out next tick.
    // The heap root is the minimum due: O(1).
    if (delayed.empty())
        return kNeverCycle;
    return std::max(delayed.front().due, now + 1);
}

bool
Controller::fillReady(uint8_t frame) const
{
    return !mshrs.at(frame).valid;
}

void
Controller::recordTransition(DirEntry &e, DirState old_state,
                             Addr line_addr, uint32_t requester,
                             MsgType cause)
{
    if (tlisten) {
        tlisten->onDirTransition(nodeId, line_addr, old_state, cause,
                                 e.state, requester);
    }
    if (trec) {
        trec->record({fabric->now(), nodeId,
                      trace::EventKind::Coherence, uint8_t(old_state),
                      uint8_t(e.state), line_addr, requester});
    }
    // Always-on census: sharer-set width after the transition, the
    // per-transition protocol mix, and the per-line churn record.
    uint32_t width = e.state == DirState::Shared
                         ? uint32_t(e.sharers.size())
                         : (e.state == DirState::Exclusive ? 1 : 0);
    statSharerCount.sample(int64_t(width));
    ++statDirTransitions[size_t(old_state) * kNumDirStates +
                         size_t(e.state)];
    LineCensus &c = e.census;
    ++c.transitions;
    c.maxSharers = std::max(c.maxSharers, width);
    TRACE(Coh, "c", fabric->now(), " n", nodeId, " line=", line_addr,
          " ", dirStateName(old_state), "->", dirStateName(e.state),
          " requester=", requester);
}

uint32_t
Controller::addSharer(DirEntry &e, Addr line_addr, uint32_t sharer)
{
    auto at = std::lower_bound(e.sharers.begin(), e.sharers.end(), sharer);
    if (at != e.sharers.end() && *at == sharer)
        return 0;               // already present: no new pointer
    e.sharers.insert(at, sharer);
    if (params.dirScheme != DirScheme::LimitedPtr)
        return 0;
    uint32_t resident = uint32_t(e.sharers.size()) - e.spilled;
    if (resident <= params.dirPointers)
        return 0;               // the new sharer fit in hardware
    // Overflow trap: the software handler dumps every resident
    // pointer (including the new sharer's) into the spill table,
    // leaving the hardware array empty. The triggering transaction
    // pays the handler's occupancy.
    ++statOverflowTraps;
    statSpilledPtrs += double(resident);
    e.spilled = uint32_t(e.sharers.size());
    ++e.census.spills;
    TRACE(Coh, "c", fabric->now(), " n", nodeId, " line=", line_addr,
          " overflow trap: ", resident, " ptrs spilled (",
          e.sharers.size(), " sharers)");
    return ControllerParams::kSpillPenalty;
}

void
Controller::clearSharers(DirEntry &e)
{
    e.sharers.clear();
    e.spilled = 0;
}

uint32_t
Controller::spillWalkCost(DirEntry &e)
{
    if (params.dirScheme != DirScheme::LimitedPtr || e.spilled == 0)
        return 0;
    ++statSpillWalks;
    return ControllerParams::kSpillPenalty;
}

// ---------------------------------------------------------------------
// Processor side
// ---------------------------------------------------------------------

MemResult
Controller::access(const MemAccess &req)
{
    Addr line_addr = _cache.lineOf(req.addr);
    uint32_t offset = _cache.offsetOf(req.addr);
    bool need_m = req.op == MemOp::Store || req.op == MemOp::Tas ||
                  (req.op == MemOp::Load && req.feModify);

    if (req.op == MemOp::Flush) {
        // Software-enforced coherence support (Section 3.4): write
        // back and invalidate; dirty data increments the fence
        // counter until the home acknowledges.
        cache::CacheLine *line = _cache.find(line_addr);
        MemResult res = MemResult::ready(0, true);
        if (line && line->state == cache::LineState::Modified) {
            Message wb;
            wb.type = MsgType::WbData;
            wb.lineAddr = line_addr;
            wb.requester = nodeId;
            wb.fenceAck = true;
            wb.data.assign(line->words, line->words + _cache.lineWords());
            send(homeOf(line_addr), wb);
            ++statWritebacks;
            res.fenceDelta = 1;
        }
        if (line)
            _cache.invalidate(line_addr);
        return res;
    }

    cache::CacheLine *line = _cache.find(line_addr);
    if (line && (line->state == cache::LineState::Modified ||
                 (!need_m && line->state == cache::LineState::Shared))) {
        ++_cache.statHits;
        _cache.use(line);
        MemResult res = applyFeAccess(line->words[offset], req);
        // Every data access eventually completes through this hit
        // path (misses retry until they fill), so observing Ready
        // results here sees each architectural access exactly once.
        if (observer && res.kind == MemResult::Kind::Ready) {
            observer->observe(fabric->now(), nodeId,
                              proc ? proc->pc() : 0, req, res);
        }
        return res;
    }

    uint32_t home = homeOf(line_addr);
    Mshr &m = mshrs.at(req.frame);

    if (!(m.valid && m.lineAddr == line_addr)) {
        if (m.valid) {
            // The frame already has a different transaction in
            // flight (e.g. a handler touching another line): hold.
            return MemResult::retry();
        }
        ++_cache.statMisses;
        m.valid = true;
        m.lineAddr = line_addr;
        m.write = need_m;
        m.issued = fabric->now();
        m.remote = home != nodeId;
        m.txn = (uint64_t(nodeId) << 32) | ++txnSeq;
        Message msg;
        msg.type = need_m ? MsgType::WriteReq : MsgType::ReadReq;
        msg.lineAddr = line_addr;
        msg.requester = nodeId;
        msg.txn = m.txn;
        send(home, msg);
        traceTxn(m.txn, TxnPhase::Issue, line_addr, home, need_m,
                 req.frame);
        if (home == nodeId)
            ++statLocalMisses;
        else
            ++statRemoteMisses;
    }

    // "The cache controller forces a context switch on the processor,
    // typically on remote network requests" — local misses hold.
    if (home != nodeId && req.miss == MissPolicy::Trap &&
        req.trapsEnabled) {
        return MemResult::forceSwitch();
    }
    return MemResult::retry();
}

void
Controller::evict(const cache::Victim &victim)
{
    if (!victim.valid)
        return;
    if (victim.state == cache::LineState::Modified) {
        Message wb;
        wb.type = MsgType::WbData;
        wb.lineAddr = victim.lineAddr;
        wb.requester = nodeId;
        wb.data = victim.words;
        send(homeOf(victim.lineAddr), wb);
        ++statWritebacks;
    }
    // Shared lines drop silently; the stale sharer bit is harmless
    // (we acknowledge any later invalidation without a copy).
}

void
Controller::fill(const Message &msg)
{
    // An upgrade reply refreshes the line already resident (filling a
    // second way would leave a stale duplicate that lookups can hit).
    cache::CacheLine *line = _cache.find(msg.lineAddr);
    if (!line) {
        cache::Victim victim;
        line = _cache.allocate(msg.lineAddr, &victim);
        evict(victim);
    }
    std::copy(msg.data.begin(), msg.data.end(), line->words);
    line->state = msg.type == MsgType::WriteReply
        ? cache::LineState::Modified
        : cache::LineState::Shared;
    _cache.use(line);
    for (size_t f = 0; f < mshrs.size(); ++f) {
        Mshr &m = mshrs[f];
        if (m.valid && m.lineAddr == msg.lineAddr) {
            m.valid = false;
            if (m.remote)
                statRemoteLatency.sample(
                    int64_t(fabric->now() - m.issued));
            // Piggybacked frames complete under their own ids, so
            // every issued transaction gets exactly one Fill.
            traceTxn(m.txn, TxnPhase::Fill, msg.lineAddr, msg.from,
                     m.write, uint8_t(f));
        }
    }
}

// ---------------------------------------------------------------------
// Home (directory) side
// ---------------------------------------------------------------------

void
Controller::handleMessage(const Message &msg)
{
    TRACE(Coh, "c", fabric->now(), " n", nodeId, " handle ",
          msgTypeName(msg.type), " line=", msg.lineAddr, " from=",
          msg.from, " req=", msg.requester);
    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::WriteReq: {
        DirEntry &e = dirEntry(msg.lineAddr);
        Request req{msg.txn, msg.requester, msg.type};
        if (e.busy) {
            traceTxn(msg.txn, TxnPhase::HomeQueue, msg.lineAddr,
                     msg.requester, msg.type == MsgType::WriteReq);
            e.waiting.push_back(req);
            return;
        }
        handleHomeRequest(msg.lineAddr, req, e);
        return;
      }

      case MsgType::InvAck: {
        DirEntry &e = dirEntry(msg.lineAddr);
        // Count and trace the ack before the staleness check: stale
        // acks carry their Inv's transaction id, so per-transaction
        // InvSend/InvAck legs balance exactly.
        ++statInvAcks;
        traceTxn(msg.txn, TxnPhase::InvAck, msg.lineAddr, msg.from,
                 true);
        if (!e.busy || e.wait != DirEntry::Wait::Acks ||
            e.pendingAcks == 0) {
            return;             // stale ack for a dropped copy
        }
        if (--e.pendingAcks == 0)
            completePending(msg.lineAddr, e, MsgType::InvAck);
        return;
      }

      case MsgType::WbData: {
        DirEntry &e = dirEntry(msg.lineAddr);
        traceTxn(msg.txn, TxnPhase::WbRecv, msg.lineAddr, msg.from,
                 false);
        writeMemoryLine(msg.lineAddr, msg.data);
        if (msg.fenceAck) {
            Message ack;
            ack.type = MsgType::FenceAck;
            ack.lineAddr = msg.lineAddr;
            send(msg.requester, ack);
        }
        if (e.state == DirState::Exclusive && e.owner == msg.from) {
            if (e.busy && e.wait == DirEntry::Wait::Data) {
                completePending(msg.lineAddr, e, MsgType::WbData);
            } else if (!e.busy) {
                // Unsolicited eviction: the owner gave up its copy.
                e.state = DirState::Uncached;
                clearSharers(e);
                recordTransition(e, DirState::Exclusive, msg.lineAddr,
                                 msg.from, MsgType::WbData);
            }
        }
        return;
      }

      case MsgType::WbEmpty: {
        // The owner's copy raced away via an eviction whose WbData
        // (FIFO-ordered on the same route) has already updated memory.
        DirEntry &e = dirEntry(msg.lineAddr);
        traceTxn(msg.txn, TxnPhase::WbRecv, msg.lineAddr, msg.from,
                 false);
        // The txn match pins the answer to the recall it was sent
        // for: a WbEmpty for an already-settled recall must not
        // complete a LATER recall to the same (re-granted) owner,
        // which would hand out a second Modified copy while the real
        // answer is still in flight. Found by the april-mc explorer
        // (SWMR counterexample at 2 nodes under unbounded message
        // delay).
        if (e.busy && e.wait == DirEntry::Wait::Data &&
            e.state == DirState::Exclusive && e.owner == msg.from &&
            msg.txn == e.pendingReq.txn) {
            completePending(msg.lineAddr, e, MsgType::WbEmpty);
        }
        return;
      }

      case MsgType::Unpend: {
        DirEntry &e = dirEntry(msg.lineAddr);
        e.busy = false;
        drainWaiting(msg.lineAddr, e);
        return;
      }

      case MsgType::Inv: {
        _cache.invalidate(msg.lineAddr);
        Message ack;
        ack.type = MsgType::InvAck;
        ack.lineAddr = msg.lineAddr;
        ack.txn = msg.txn;
        send(msg.from, ack);
        return;
      }

      case MsgType::WbReq: {
        cache::CacheLine *line = _cache.find(msg.lineAddr);
        if (line && line->state == cache::LineState::Modified) {
            Message wb;
            wb.type = MsgType::WbData;
            wb.lineAddr = msg.lineAddr;
            wb.requester = nodeId;
            wb.data.assign(line->words, line->words + _cache.lineWords());
            wb.txn = msg.txn;
            if (msg.isWrite)
                _cache.invalidate(msg.lineAddr);
            else
                line->state = cache::LineState::Shared;
            send(msg.from, wb);
            ++statWritebacks;
        } else {
            Message none;
            none.type = MsgType::WbEmpty;
            none.lineAddr = msg.lineAddr;
            none.txn = msg.txn;
            send(msg.from, none);
        }
        return;
      }

      case MsgType::ReadReply:
      case MsgType::WriteReply:
        fill(msg);
        return;

      case MsgType::FenceAck:
        if (proc)
            proc->decFence();
        return;
    }
}

void
Controller::handleHomeRequest(Addr line_addr, const Request &req,
                              DirEntry &e)
{
    bool write = req.type == MsgType::WriteReq;

    traceTxn(req.txn, TxnPhase::HomeHandle, line_addr, req.requester,
             write);

    // An Exclusive entry whose owner re-requests has lost its copy to
    // an eviction (whose WbData arrived first, FIFO): fold to
    // Uncached.
    if (e.state == DirState::Exclusive && e.owner == req.requester) {
        e.state = DirState::Uncached;
        clearSharers(e);
        recordTransition(e, DirState::Exclusive, line_addr,
                         req.requester, req.type);
    }

    DirState old_state = e.state;

    switch (e.state) {
      case DirState::Uncached: {
        e.busy = true;
        uint32_t extra = 0;
        if (write) {
            e.state = DirState::Exclusive;
            e.owner = req.requester;
            clearSharers(e);
            statInvPerWrite.sample(0);
        } else {
            e.state = DirState::Shared;
            clearSharers(e);
            extra = addSharer(e, line_addr, req.requester);
        }
        recordTransition(e, old_state, line_addr, req.requester,
                         req.type);
        replyAndUnpend(line_addr, req.requester, write, req.txn,
                       extra);
        return;
      }

      case DirState::Shared: {
        if (!write) {
            e.busy = true;
            uint32_t extra = addSharer(e, line_addr, req.requester);
            recordTransition(e, old_state, line_addr, req.requester,
                             req.type);
            replyAndUnpend(line_addr, req.requester, false, req.txn,
                           extra);
            return;
        }
        // Strong coherence: invalidate every other sharer and wait
        // for all acknowledgments before granting exclusivity.
        bool requester_shares = std::binary_search(
            e.sharers.begin(), e.sharers.end(), req.requester);
        size_t to_inv = e.sharers.size() - size_t(requester_shares);
        statInvPerWrite.sample(int64_t(to_inv));
        if (to_inv == 0) {
            e.busy = true;
            e.state = DirState::Exclusive;
            e.owner = req.requester;
            clearSharers(e);
            recordTransition(e, old_state, line_addr, req.requester,
                             req.type);
            replyAndUnpend(line_addr, req.requester, true, req.txn);
            return;
        }
        e.busy = true;
        e.wait = DirEntry::Wait::Acks;
        e.pendingReq = req;
        e.pendingAcks = uint32_t(to_inv);
        e.census.invs += to_inv;
        // Sharers beyond the hardware pointers cost a software walk
        // of the spill table before the invalidations can go out.
        uint32_t walk = spillWalkCost(e);
        for (uint32_t s : e.sharers) {
            if (s == req.requester)
                continue;
            Message inv;
            inv.type = MsgType::Inv;
            inv.lineAddr = line_addr;
            inv.txn = req.txn;
            send(s, inv, walk);
            ++statInvSent;
            traceTxn(req.txn, TxnPhase::InvSend, line_addr, s, true);
        }
        return;
      }

      case DirState::Exclusive: {
        e.busy = true;
        e.wait = DirEntry::Wait::Data;
        e.pendingReq = req;
        if (write)
            statInvPerWrite.sample(1);  // the owner loses its copy
        Message wbreq;
        wbreq.type = MsgType::WbReq;
        wbreq.lineAddr = line_addr;
        wbreq.isWrite = write;
        wbreq.txn = req.txn;
        send(e.owner, wbreq);
        traceTxn(req.txn, TxnPhase::WbReqSend, line_addr, e.owner,
                 write);
        return;
      }
    }
}

void
Controller::replyAndUnpend(Addr line_addr, uint32_t requester,
                           bool write, uint64_t txn, uint32_t extra)
{
    Message reply;
    reply.type = write ? MsgType::WriteReply : MsgType::ReadReply;
    reply.lineAddr = line_addr;
    reply.data = readMemoryLine(line_addr);
    reply.txn = txn;
    sendAfterMemory(requester, reply, extra);
    traceTxn(txn, TxnPhase::ReplySend, line_addr, requester, write);
    // Scheduled after the reply at the same time: dispatch order in
    // the delayed queue (and FIFO network routes) keeps the grant
    // ahead of anything a drained waiter triggers.
    Message unpend;
    unpend.type = MsgType::Unpend;
    unpend.lineAddr = line_addr;
    sendAfterMemory(nodeId, unpend, extra);
}

void
Controller::completePending(Addr line_addr, DirEntry &e, MsgType cause)
{
    Request req = e.pendingReq;
    bool write = req.type == MsgType::WriteReq;

    uint32_t prev_owner = e.owner;
    bool was_exclusive = e.state == DirState::Exclusive;
    uint32_t extra = 0;
    if (write) {
        e.state = DirState::Exclusive;
        e.owner = req.requester;
        clearSharers(e);
    } else {
        e.state = DirState::Shared;
        clearSharers(e);
        if (was_exclusive) {
            // Downgraded owner kept a copy.
            extra += addSharer(e, line_addr, prev_owner);
        }
        extra += addSharer(e, line_addr, req.requester);
    }
    e.wait = DirEntry::Wait::None;
    e.pendingAcks = 0;
    recordTransition(e,
                     was_exclusive ? DirState::Exclusive
                                   : DirState::Shared,
                     line_addr, req.requester, cause);
    replyAndUnpend(line_addr, req.requester, write, req.txn, extra);
}

void
Controller::drainWaiting(Addr line_addr, DirEntry &e)
{
    while (!e.busy && !e.waiting.empty()) {
        Request next = e.waiting.front();
        e.waiting.erase(e.waiting.begin());
        handleHomeRequest(line_addr, next, e);
    }
}

} // namespace april::coh

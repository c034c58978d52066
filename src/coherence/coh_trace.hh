/**
 * @file
 * Coherence-transaction tracing: every remote memory transaction
 * (miss -> directory request -> invalidations/acks -> data fill ->
 * MSHR clear) becomes a causally linked span keyed by a stable
 * transaction id.
 *
 * Transaction ids are (requester node << 32 | per-node sequence),
 * assigned by the requesting Controller when the MSHR is allocated,
 * so they are deterministic regardless of host thread count or
 * cycle-skipping. The home copies the id into every message it sends
 * on the transaction's behalf (Inv, WbReq, replies) and sharers copy
 * it into their acknowledgments, giving each protocol leg a parent.
 *
 * Like trace::Recorder, the tracer is an obs::Log: per-shard lanes
 * merged canonically by (cycle, node) (common/obs_log.hh). Every leg
 * is recorded by the controller whose node it names.
 */

#ifndef APRIL_COHERENCE_COH_TRACE_HH
#define APRIL_COHERENCE_COH_TRACE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/obs_log.hh"
#include "isa/types.hh"

namespace april::coh
{

/** Protocol legs of one transaction, in causal order. */
enum class TxnPhase : uint8_t
{
    Issue,      ///< requester: MSHR allocated, request sent to home
    HomeQueue,  ///< home: request queued behind a busy line
    HomeHandle, ///< home: directory takes up the request
    InvSend,    ///< home -> sharer (peer): invalidation sent
    InvAck,     ///< home: acknowledgment from sharer (peer) arrived
    WbReqSend,  ///< home -> owner (peer): dirty-line recall sent
    WbRecv,     ///< home: WbData/WbEmpty from owner (peer) arrived
    ReplySend,  ///< home -> requester: data grant dispatched
    Fill,       ///< requester: line filled, MSHR cleared
};

/** Canonical phase name ("Issue", "InvSend", ...). */
inline const char *
txnPhaseName(TxnPhase p)
{
    switch (p) {
      case TxnPhase::Issue: return "Issue";
      case TxnPhase::HomeQueue: return "HomeQueue";
      case TxnPhase::HomeHandle: return "HomeHandle";
      case TxnPhase::InvSend: return "InvSend";
      case TxnPhase::InvAck: return "InvAck";
      case TxnPhase::WbReqSend: return "WbReqSend";
      case TxnPhase::WbRecv: return "WbRecv";
      case TxnPhase::ReplySend: return "ReplySend";
      case TxnPhase::Fill: return "Fill";
    }
    return "?";
}

/** One recorded transaction leg. `node` is always the controller that
 *  recorded the event (the merge key); `peer` is the other end. */
struct TxnEvent
{
    uint64_t cycle = 0;
    uint64_t txn = 0;
    Addr line = 0;
    uint32_t node = 0;
    uint32_t peer = 0;
    TxnPhase phase = TxnPhase::Issue;
    uint8_t frame = 0;      ///< requester task frame (Issue/Fill only)
    bool write = false;

    bool operator==(const TxnEvent &) const = default;

    /** Fields of a log record after the cycle (obs::codec). */
    static constexpr auto
    fields()
    {
        return std::tuple{&TxnEvent::txn,  &TxnEvent::line,
                          &TxnEvent::node, &TxnEvent::peer,
                          &TxnEvent::phase, &TxnEvent::frame,
                          &TxnEvent::write};
    }
};

/** Flattened per-transaction summary (reports, invariant checks). */
struct TxnRecord
{
    uint64_t id = 0;
    Addr line = 0;
    uint32_t requester = 0;     ///< id >> 32
    uint32_t home = 0;          ///< valid when issued
    uint8_t frame = 0;          ///< requester task frame when issued
    bool write = false;
    bool complete = false;      ///< both Issue and Fill recorded
    uint64_t issued = 0;        ///< Issue cycle (valid when an Issue
                                ///< survived the capacity cap)
    uint64_t filled = 0;        ///< Fill cycle (valid when complete)
    uint32_t invs = 0;          ///< InvSend legs recorded
    uint32_t acks = 0;          ///< InvAck legs recorded

    uint64_t latency() const { return complete ? filled - issued : 0; }
};

/** The per-machine (or per-shard lane) transaction log. */
using TxnTracer = obs::Log<TxnEvent>;

/** Summaries of @p log's legs grouped by transaction id, in
 *  first-appearance order (deterministic for a given log). */
std::vector<TxnRecord> summarizeTransactions(const TxnTracer &log);

/**
 * Serialize @p log as structured JSON: events grouped into
 * transactions in first-appearance order, each with issue/fill
 * cycles, latency and invalidation/ack tallies. Deterministic for a
 * given log, so differential tests compare serializations byte for
 * byte.
 */
void writeJson(std::ostream &os, const TxnTracer &log);

/**
 * Append Perfetto events for the transactions of @p log to an open
 * Chrome-trace event array (trace::ExtraEventWriter shape): one async
 * "txn" span per transaction on the requester's process plus flow
 * arrows (s/t/f) threading requester -> home -> requester through
 * every leg.
 */
void writeChromeEvents(std::ostream &os, bool &first,
                       const TxnTracer &log);

} // namespace april::coh

#endif // APRIL_COHERENCE_COH_TRACE_HH

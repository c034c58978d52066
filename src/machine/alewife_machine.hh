/**
 * @file
 * The full ALEWIFE machine (Figure 1): N nodes, each a processing
 * element + cache + cache/directory controller + local memory, glued
 * by the k-ary n-cube network. This is the configuration the paper's
 * Figure 4 simulator models when the cache and network simulators are
 * enabled.
 *
 * Execution engine (DESIGN.md §7.6): the nodes are partitioned into
 * contiguous shards, one per host worker thread. Each shard owns its
 * processors, controllers, caches, home memory segment, per-node
 * network arrival queues and a local clock, and advances
 * independently inside a quantum of Q cycles, where Q is the minimum
 * cross-node network latency — no message sent during a quantum can
 * arrive inside the same quantum. The arrival queues are the one
 * cross-node channel: coherence packets and interprocessor
 * interrupts (Section 3.4) both travel on them. At the quantum
 * barrier the coordinator merges cross-shard traffic in a canonical
 * order, so a run is bit-identical for every host-thread count (the
 * 1-thread configuration IS the sequential simulator; there is no
 * separate sequential loop).
 *
 * The shared layer (machine/machine.hh) owns the nodes' processors,
 * I/O registers, planes, clock and run loop; this machine adds the
 * memory system under them: caches and controllers, the network, the
 * shards and the barrier merge, which also checks every directory
 * transition against the protocol spec (mc::Conformance).
 */

#ifndef APRIL_MACHINE_ALEWIFE_MACHINE_HH
#define APRIL_MACHINE_ALEWIFE_MACHINE_HH

#include <memory>
#include <vector>

#include "analysis/race_detector.hh"
#include "coherence/controller.hh"
#include "mc/conform.hh"
#include "common/parallel.hh"
#include "machine/machine.hh"
#include "network/network.hh"
#include "network/telemetry.hh"

namespace april
{

/** Configuration of the full machine. */
struct AlewifeParams : MachineParams
{
    net::NetworkParams network;     ///< defines the node count
    /// Every node's cache and directory, the directory scheme
    /// (controller.dirScheme, controller.dirPointers) included.
    coh::ControllerParams controller;
    /// Host worker threads for run(). Nodes are split into that many
    /// contiguous shards advanced in parallel; results are
    /// bit-identical for every value. Clamped to [1, numNodes] and
    /// forced to 1 when detectRaces is on (the race observer keeps
    /// global state).
    uint32_t hostThreads = 1;
    /// Attach the Eraser-style full/empty race detector to every
    /// controller. Purely observational: execution (and the trace
    /// event stream, minus Race events) is identical either way.
    bool detectRaces = false;
};

/** N ALEWIFE nodes on a mesh. */
class AlewifeMachine final : public Machine
{
  public:
    AlewifeMachine(const AlewifeParams &params, const Program *prog);
    ~AlewifeMachine();

    /** Every shard in node order, then one barrier (serial). */
    void tick() override;

    /** Over processors, controllers, in-flight packets and
     *  interrupts, and block transfers. */
    uint64_t nextEventCycle() const override;

    /** Number of shards (= host worker threads) actually in use. */
    uint32_t hostThreads() const { return uint32_t(shards.size()); }

    /** The parallel quantum Q (minimum cross-node network latency). */
    uint64_t quantum() const { return quantum_; }

    coh::Controller &controller(uint32_t n) { return *ctrls.at(n); }
    net::Network &network() { return net_; }

    /** The word at @p a as the coherent image holds it: a Modified
     *  copy in some cache wins over the backing store. */
    Word coherentRead(Addr a) const override;

    /** Network telemetry (always on; folded at sync points). */
    net::Telemetry &telemetry() { return telemetry_; }

    /** Race detector (nullptr unless params.detectRaces). */
    analysis::RaceDetector *raceDetector() { return races.get(); }

  private:
    /** One coherence packet or interprocessor interrupt in flight,
     *  timing fixed at injection. Heap-ordered by the canonical
     *  (arrive, src, seq) key, so the delivery order is independent
     *  of insertion order. */
    struct InFlight
    {
        uint64_t arrive = 0;
        uint32_t src = 0;
        uint32_t dst = 0;
        uint64_t seq = 0;       ///< per-source injection sequence
        uint64_t sendCycle = 0;
        uint32_t flits = 0;     ///< 0: an interrupt, not a packet
        uint32_t hops = 0;
        Word ipiArg = 0;        ///< the interrupt's trap argument
        coh::Message msg;

        /// std::push_heap builds a max-heap; invert for earliest-first.
        bool
        operator<(const InFlight &o) const
        {
            if (arrive != o.arrive)
                return arrive > o.arrive;
            if (src != o.src)
                return src > o.src;
            return seq > o.seq;
        }
    };

    /** Per-node arrival queue, padded so neighbouring shards never
     *  share a cache line. */
    struct alignas(64) ArrivalQueue
    {
        std::vector<InFlight> q;    ///< binary min-heap (see InFlight)
    };

    /** A block transfer awaiting its commit boundary. */
    struct BlockOp
    {
        uint64_t commit = 0;    ///< grid boundary the copy runs at
        uint64_t issued = 0;
        uint32_t node = 0;
        Word src = 0;
        Word dst = 0;
        Word len = 0;
    };

    struct ConsoleEntry
    {
        uint64_t cycle = 0;
        uint32_t node = 0;
        Word word = 0;
    };

    /** One worker thread's slice of the machine. It is also the
     *  fabric of its nodes' controllers: a packet leaves on the
     *  shard's clock (msg.from names the source). */
    struct alignas(64) Shard final : coh::Fabric
    {
        AlewifeMachine *machine = nullptr;
        uint32_t first = 0;         ///< node range [first, last)
        uint32_t last = 0;
        uint64_t cycle = 0;         ///< local clock
        /// Cross-shard packets and interrupts injected this quantum,
        /// merged into the destination queues at the barrier.
        std::vector<InFlight> outbox;
        /// Block transfers issued this quantum (committed at the
        /// barrier by the coordinator).
        std::vector<BlockOp> blockOps;
        uint64_t blockMin = kNeverCycle;  ///< earliest pending commit
        uint64_t haltAt = kNeverCycle;    ///< committed halt boundary
        ProbeBackoff probe;
        /// The machine-trace log this shard's network events go to
        /// (nullptr when tracing is off).
        trace::Recorder *trace = nullptr;
        std::vector<ConsoleEntry> console;

        void
        transmit(uint32_t to, const coh::Message &msg,
                 uint32_t flits) override
        {
            machine->shardTransmit(*this, to, msg, flits);
        }

        uint64_t now() const override { return cycle; }
    };

    uint32_t shardOf(uint32_t node) const;
    /** Smallest grid boundary (multiple of Q) >= @p c. */
    uint64_t gridAlign(uint64_t c) const;
    /** Smallest grid boundary (multiple of Q) > @p c. */
    uint64_t nextGrid(uint64_t c) const;

    void shardTransmit(Shard &s, uint32_t to, const coh::Message &msg,
                       uint32_t flits);
    /** Queue @p f at its destination: @p s's own heap, or the outbox
     *  when another shard owns the destination. */
    void post(Shard &s, InFlight &&f);
    void pushArrival(InFlight &&f);
    /** Deliver @p node's due packets to its controller and its due
     *  interrupts to its processor. */
    void deliverNode(Shard &s, uint32_t node);
    void queueIpi(Shard &s, uint32_t src, uint32_t dst, Word arg);
    uint32_t queueBlockGo(Shard &s, uint32_t node, Word src, Word dst,
                          Word len);
    void executeBlockOp(const BlockOp &op);

    void consoleOut(uint32_t node, Word word) override;
    void machineHalt(uint32_t node) override;
    void sendIpi(uint32_t src, uint32_t dst, Word arg) override;
    uint32_t blockGo(uint32_t node, Word src, Word dst,
                     Word len) override;

    /** Earliest observable event for @p s's own components. */
    uint64_t shardNextEvent(const Shard &s) const;
    /** Skip @p cycles provably idle cycles on @p s (cycle-exact). */
    void shardSkip(Shard &s, uint64_t cycles);
    /**
     * Advance @p s to @p target (clamped at this shard's own pending
     * commit boundaries), delivering packets and interrupts and
     * ticking controllers and processors cycle by cycle, with
     * skip-window fast-forwarding when enabled.
     */
    void advanceShard(Shard &s, uint64_t target);

    /** One barrier: the one shard runs to its next commit boundary,
     *  or every shard skips or runs one quantum; then syncAt(). */
    void advance(uint64_t stop) override;

    /** Barrier phase: all shards parked at cycle @p t. Merges
     *  cross-shard traffic canonically, commits due block transfers
     *  and halts, and raises any conformance violation. */
    void syncAt(uint64_t t);

    /** Raise any conformance violation; fold network and telemetry. */
    void foldObservability() override;

    /// Controller configuration, the directory scheme applied.
    coh::ControllerParams ctrlParams_;
    std::unique_ptr<analysis::RaceDetector> races;
    mc::Conformance conform_;
    net::Network net_;
    net::Telemetry telemetry_;
    uint64_t quantum_ = 1;
    std::vector<Shard> shards;
    std::vector<ArrivalQueue> arrivals;
    std::vector<std::unique_ptr<coh::Controller>> ctrls;
    std::unique_ptr<par::WorkerPool> pool_;
    /// Quantum end published to the worker pool for the current
    /// runQuantum() call (the pool's epoch counter orders the write).
    uint64_t quantumTarget_ = 0;
    /// Block transfers whose commit boundary lies beyond the barrier
    /// they were collected at (budget/interval-clamped quanta), in
    /// canonical (commit, issued, node) order.
    std::vector<BlockOp> pendingBlocks;
};

} // namespace april

#endif // APRIL_MACHINE_ALEWIFE_MACHINE_HH

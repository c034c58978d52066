/**
 * @file
 * Eraser-style dynamic race detection over full/empty-bit programs.
 *
 * The detector watches every completed data access (MemObserver) and
 * flags shared words that two nodes touch without any APRIL
 * synchronization discipline in between. Three mechanisms count as
 * synchronization:
 *
 *  - full/empty transfer: any access with feTrap or feModify set, or
 *    a TAS, marks its word as a *sync word* — a word whose f/e bit
 *    carries the protocol (producer/consumer handoffs, J-structure
 *    slots, lock cells). Sync words are exempt from race reporting;
 *    mixing plain and f/e accesses to the same word disables the word
 *    rather than producing noise.
 *  - locks: a node *acquires* addr L on a successful TAS (result 0)
 *    or a consuming load that found the word full (ldenw on a lock
 *    cell), and *releases* it on a set-to-full store (stfnw) or a
 *    plain store to a word it holds (the Encore `stnw r0` unlock
 *    idiom). Plain data words are checked Eraser-style: a word's
 *    candidate lockset starts universal and is intersected with the
 *    accessor's held set; an empty intersection once the word is
 *    write-shared is a race.
 *  - ownership transfer: per Eraser, a word is Exclusive to the first
 *    node that touches it and checking only begins when a second node
 *    appears. Additionally a *write* by the original owner that would
 *    empty the lockset re-claims the word (stack segments recycled
 *    through the free list, thief markers) — this trades missed
 *    owner-side WAR races for zero false positives on the runtime's
 *    ownership-passing idioms.
 *
 * Reports carry cycle, node, pc, and address; they feed the PR 2
 * trace layer (EventKind::Race) and a stats group. The detector is
 * passive: with it disabled (the default), machine execution is
 * untouched.
 */

#ifndef APRIL_ANALYSIS_RACE_DETECTOR_HH
#define APRIL_ANALYSIS_RACE_DETECTOR_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "proc/ports.hh"

namespace april::analysis
{

class RaceDetector : public MemObserver, public stats::Group
{
  public:
    struct Report
    {
        uint64_t cycle = 0;
        Addr addr = 0;
        uint32_t node = 0;          ///< second (racing) accessor
        uint32_t pc = 0;
        uint32_t firstNode = 0;     ///< who owned/shared it before
        bool write = false;
    };

    /// Detailed reports retained; statRaces keeps counting past it.
    static constexpr uint64_t kMaxReports = 64;

    RaceDetector(uint32_t num_nodes, stats::Group *parent);

    /** Attach the machine's event recorder (nullptr: no events). */
    void setTraceRecorder(trace::Recorder *r) { trec = r; }

    void observe(uint64_t cycle, uint32_t node, uint32_t pc,
                 const MemAccess &req, const MemResult &res) override;

    const std::vector<Report> &reports() const { return _reports; }

    /** One line per report, for logs and test failure messages. */
    std::string formatReports() const;

    stats::Scalar statRaces;
    stats::Scalar statSyncWords;
    stats::Scalar statWordsTracked;

  private:
    enum class Phase : uint8_t
    {
        Exclusive,              ///< only `owner` has touched it
        Shared,                 ///< read by others, never written since
        SharedMod,              ///< write-shared: lockset must hold
        Reported,               ///< already flagged; stay quiet
    };

    struct WordState
    {
        Phase phase = Phase::Exclusive;
        uint32_t owner = 0;
        bool syncWord = false;      ///< carries f/e protocol: exempt
        bool locksetUniversal = true;
        std::set<Addr> lockset;     ///< candidate protecting locks
    };

    void intersect(WordState &w, const std::set<Addr> &held);
    void report(WordState &w, uint64_t cycle, uint32_t node,
                uint32_t pc, Addr addr, bool write);

    trace::Recorder *trec = nullptr;
    std::unordered_map<Addr, WordState> words;
    std::vector<std::set<Addr>> held;   ///< per-node held locks
    std::vector<Report> _reports;
};

} // namespace april::analysis

#endif // APRIL_ANALYSIS_RACE_DETECTOR_HH

/**
 * @file
 * Live-controller conformance bridge (DESIGN.md §7.9): every
 * directory transition the real coh::Controller records — the same
 * stream the always-on census counts — is checked against the model
 * checker's rule tables via the derived legal-transition relation
 * (mc::legalDirTransitions). Runs in every AlewifeMachine, always
 * (one table lookup per transition), so every unit test, fuzz program and
 * workload run doubles as a spec-conformance run: if the
 * implementation ever performs a (old state, cause message) -> new
 * state step no spec rule allows, the machine panics with the
 * offending transition.
 *
 * The listener only records under the parallel engine's shard
 * threads (atomics + a mutex on the first failure); the machine
 * raises the panic from the coordinating thread at its next sync
 * point, the same point at every host-thread count.
 */

#ifndef APRIL_MC_CONFORM_HH
#define APRIL_MC_CONFORM_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "coherence/controller.hh"

namespace april::mc
{

/** Checks every recorded directory transition against the spec. */
class Conformance : public coh::TransitionListener
{
  public:
    void onDirTransition(uint32_t home, Addr line,
                         coh::DirState old_state, coh::MsgType cause,
                         coh::DirState new_state,
                         uint32_t requester) override;

    /** Transitions checked so far. */
    uint64_t checked() const
    {
        return checked_.load(std::memory_order_relaxed);
    }

    /** @return true once any illegal transition was recorded. */
    bool violated() const
    {
        return violated_.load(std::memory_order_acquire);
    }

    /** First recorded violation ("" when clean). */
    std::string firstViolation() const;

    /** Panic with the first violation, no-op when clean. Called by
     *  the machine from the coordinating thread at sync points. */
    void check() const;

  private:
    std::atomic<uint64_t> checked_{0};
    std::atomic<bool> violated_{false};
    mutable std::mutex mu_;
    std::string detail_;
};

} // namespace april::mc

#endif // APRIL_MC_CONFORM_HH

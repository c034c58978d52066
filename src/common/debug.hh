/**
 * @file
 * gem5-style per-component debug tracing.
 *
 * Each simulator component owns a debug flag (Cache, Coh, Net, Ctx,
 * Trap, FE, Runtime); a TRACE(Flag, ...) call prints its streamed
 * message to stderr only while that flag is enabled. Flags are runtime
 * toggles selected programmatically (debug::setFlags("Ctx,Trap")), or
 * from the environment (APRIL_DEBUG="Coh,Net").
 *
 * Cost contract: a disabled TRACE is one load of a plain global bool
 * and one predictable branch — no argument evaluation, no formatting,
 * no function call. This is what lets TRACE sit on simulator paths
 * without moving the bench_sim_speed needle.
 */

#ifndef APRIL_COMMON_DEBUG_HH
#define APRIL_COMMON_DEBUG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/logging.hh"    // formatMessage for the TRACE macro

namespace april::debug
{

/** One flag per traceable component. */
enum class Flag : uint8_t
{
    Cache,      ///< cache fills, evictions, invalidations
    Coh,        ///< coherence protocol messages and transitions
    Net,        ///< network packet injection and delivery
    Ctx,        ///< context switches (both switch implementations)
    Trap,       ///< synchronous and asynchronous traps
    FE,         ///< full/empty synchronization faults
    Runtime,    ///< Mul-T runtime boot and node setup
    NumFlags,
};

/** Canonical flag name ("Cache", "Coh", ...). */
const char *flagName(Flag f);

namespace detail
{

/** Per-flag enable state; read directly by the TRACE macro. */
extern std::array<bool, size_t(Flag::NumFlags)> flagState;

/** Print one formatted trace line ("<Flag>: <msg>"). */
void emit(Flag f, const std::string &msg);

} // namespace detail

/** @return true while @p f is enabled. */
inline bool
enabled(Flag f)
{
    return detail::flagState[size_t(f)];
}

/** Enable or disable one flag. */
void setFlag(Flag f, bool on);

/** Enable or disable every flag. */
void setAllFlags(bool on);

/**
 * Enable flags from a comma-separated list ("Coh,Net", or "All").
 * Unknown names raise FatalError; an empty list is a no-op.
 */
void setFlags(const std::string &list);

/**
 * Apply the APRIL_DEBUG environment variable once per process (later
 * calls are no-ops). Machines call this at construction so that any
 * binary — tests, benches, examples — honors the variable.
 */
void initFromEnv();

} // namespace april::debug

/**
 * TRACE(Coh, "cycle=", now, " inv line=", addr);
 *
 * Arguments are only evaluated when the flag is on; when off, the
 * whole statement is a single branch on a global bool.
 */
#define TRACE(flag, ...)                                                \
    do {                                                                \
        if (__builtin_expect(                                           \
                ::april::debug::detail::flagState[size_t(               \
                    ::april::debug::Flag::flag)], 0)) {                 \
            ::april::debug::detail::emit(                               \
                ::april::debug::Flag::flag,                             \
                ::april::detail::formatMessage(__VA_ARGS__));           \
        }                                                               \
    } while (0)

#endif // APRIL_COMMON_DEBUG_HH

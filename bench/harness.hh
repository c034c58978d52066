/**
 * @file
 * The measuring harness the plain-executable benches share: their
 * command line, the host clock, alternating two-mode timing, the
 * timed machine run and the BENCH_<name>.json writer. Every host time a bench reports is a Lap, so a change of
 * clock (DESIGN.md §6) is a change here alone.
 */

#ifndef APRIL_BENCH_HARNESS_HH
#define APRIL_BENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse_int.hh"
#include "machine/machine.hh"

namespace april::bench
{

/** Host seconds on the steady clock since construction. */
class Lap
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - _start)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point _start = Clock::now();
};

/** What a bench accepts on its command line besides --quick. */
struct Grammar
{
    bool scan = false;              ///< --scan
    const char *number = nullptr;   ///< name of one positional number
};

/**
 * One bench run: its command line, parsed strictly, and quiet logging
 * for its length. The command line is `[--quick] [--scan] [number]`,
 * with --scan and the number only where the Grammar names them.
 * Anything else prints a usage line on stderr and exits 2.
 */
struct Session
{
    Session(int argc, char **argv, Grammar g = {})
    {
        for (int i = 1; i < argc; ++i) {
            std::string_view arg = argv[i];
            bool hex = arg.starts_with("0x") || arg.starts_with("0X");
            uint64_t n = 0;
            if (arg == "--quick")
                quick = true;
            else if (g.scan && arg == "--scan")
                scan = true;
            else if (g.number && !number &&
                     cli::parseU64(arg.substr(hex ? 2 : 0), n,
                                   hex ? 16 : 10))
                number = n;
            else
                usage(argv[0], g);
        }
    }

    /**
     * Print {"bench":@p name,"quick":...,<fields>} on stdout after a
     * blank line and write it to BENCH_<name>.json in the working
     * directory; @p fields(json::Writer &) writes the members.
     */
    template <typename Fields>
    void
    emit(std::string_view name, Fields fields) const
    {
        std::ostringstream os;
        json::Writer w(os);
        w.beginObject().field("bench", name).field("quick", quick);
        fields(w);
        w.endObject();
        std::printf("\n%s\n", os.str().c_str());
        std::ofstream("BENCH_" + std::string(name) + ".json")
            << os.str() << "\n";
    }

    bool quick = false;
    bool scan = false;
    std::optional<uint64_t> number;
    QuietScope quiet;

  private:
    [[noreturn]] static void
    usage(const char *prog, Grammar g)
    {
        std::fprintf(stderr, "usage: %s [--quick]%s%s%s%s\n", prog,
                     g.scan ? " [--scan]" : "", g.number ? " [" : "",
                     g.number ? g.number : "", g.number ? "]" : "");
        std::exit(2);
    }
};

/**
 * Two modes timed in alternation, run by run and in ABBA order, until
 * each has run for at least @p minSeconds, so that a swing in host
 * speed hits both alike and no short run is timed on one scheduler
 * slice. Returns each mode's first result, its `seconds` replaced by
 * the mean per run.
 */
template <typename RunA, typename RunB>
auto
alternating(double minSeconds, RunA runA, RunB runB)
{
    auto a = runA();
    auto b = runB();
    double totalA = a.seconds;
    double totalB = b.seconds;
    int runs = 1;
    while (totalA < minSeconds || totalB < minSeconds) {
        if (runs % 2) {
            totalB += runB().seconds;
            totalA += runA().seconds;
        } else {
            totalA += runA().seconds;
            totalB += runB().seconds;
        }
        ++runs;
    }
    a.seconds = totalA / runs;
    b.seconds = totalB / runs;
    return std::pair{a, b};
}

/** One timed run: simulated cycles and instructions, host seconds. */
struct Timing
{
    uint64_t cycles = 0;
    uint64_t insts = 0;
    double seconds = 0;

    double cyclesPerSec() const { return double(cycles) / seconds; }
    double instsPerSec() const { return double(insts) / seconds; }
};

/** Time one @p m.run(@p budget); fatal, naming @p what, unless the
 *  machine halts. */
inline Timing
runToHalt(Machine &m, uint64_t budget, std::string_view what)
{
    Lap lap;
    m.run(budget);
    double seconds = lap.seconds();
    if (!m.halted())
        fatal(what, " did not halt within ", budget, " cycles");
    return {m.cycle(), m.instructions(), seconds};
}

} // namespace april::bench

#endif // APRIL_BENCH_HARNESS_HH

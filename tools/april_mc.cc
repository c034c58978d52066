/**
 * @file
 * april-mc — exhaustive model checker for the directory coherence
 * protocol (DESIGN.md §7.9).
 *
 * Modes:
 *
 *   april-mc [--scheme=fullmap|limited] [--pointers=N] [--nodes=N]
 *       Exhaustively explore the protocol spec (src/mc/spec.cc) on
 *       one line and N nodes with bounded FIFO channels and
 *       cross-channel reordering, checking SWMR, data value (reads
 *       return the last write), invalidation/ack and fence balance,
 *       deadlock freedom and bounded liveness (every state can reach
 *       quiescence). Prints state/transition counts and per-rule
 *       coverage; a violation prints its shortest counterexample as
 *       a message-sequence trace in coherence-report span vocabulary.
 *
 *   april-mc --mutate=RULE [same options]
 *       The checker checks itself: plant a protocol bug by rotating
 *       rule RULE's resulting directory state and assert the
 *       explorer catches it. Exit 0 when the planted bug is caught,
 *       1 when it survives — the CI mutation gate.
 *
 *   april-mc --replay=FILE
 *       Validate a recorded coherence-transaction trace (`april run
 *       --txns=FILE` / AlewifeMachine::writeCohTrace JSON) against
 *       the protocol's span shape: leg ordering, exactly one
 *       Issue/ReplySend/Fill per complete transaction, Inv/InvAck and
 *       WbReqSend/WbRecv balance, summary-tally agreement. Refuses
 *       traces that dropped legs at the capacity cap.
 *
 *   april-mc --list-rules
 *       Print the spec's home-directory rule table.
 *
 * Exit codes: 0 ok, 1 violation (or planted mutation missed),
 * 2 usage/input error.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "mc/explore.hh"
#include "mc/replay.hh"
#include "mc/spec.hh"

#include "cli_common.hh"

namespace
{

using april::cli::parseU32;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: april-mc [options]\n"
        "       april-mc --replay=FILE\n"
        "       april-mc --list-rules\n"
        "\n"
        "options:\n"
        "  --scheme=S         directory scheme: fullmap (default) or\n"
        "                     limited (i-pointer + software spill)\n"
        "  --pointers=N       hardware pointers i for --scheme=limited\n"
        "                     (default 4)\n"
        "  --nodes=N          nodes in the abstract machine, home is\n"
        "                     node 0 (2..4, default 3)\n"
        "  --max-states=N     exploration cap (default 2000000;\n"
        "                     hitting it fails the run)\n"
        "  --max-fence=N      FLUSH fence-counter bound (default 2)\n"
        "  --no-symmetry      disable non-home node canonicalization\n"
        "  --no-liveness      skip the EF-quiescence pass\n"
        "  --mutate=RULE      rotate rule RULE's resulting state and\n"
        "                     assert the checker catches it\n"
        "  --trace            print the counterexample trace (default\n"
        "                     on; --no-trace for counts only)\n"
        "  --quiet            summary line only\n");
    return 2;
}

void
printRules()
{
    std::printf("home-directory rules (%zu):\n", april::mc::kNumDirRules);
    for (const auto &r : april::mc::dirRules())
        std::printf("  %s\n", april::mc::describeDirRule(r.id).c_str());
}

void
printCoverage(const april::mc::ExploreResult &res)
{
    const auto &dr = april::mc::dirRules();
    std::printf("rule coverage (dir):\n");
    for (size_t i = 0; i < april::mc::kNumDirRules; ++i) {
        std::printf("  R%-2zu %-18s %10llu\n", i, dr[i].name,
                    (unsigned long long)res.dirRuleFires[i]);
    }
    std::printf("rule coverage (cache):\n");
    for (size_t i = 0; i < april::mc::kNumCacheRules; ++i) {
        std::printf("  C%-2zu %-18s %10llu\n", i,
                    april::mc::cacheRules()[i].name,
                    (unsigned long long)res.cacheRuleFires[i]);
    }
}

int
runReplay(const std::string &path)
{
    std::string text;
    try {
        text = april::cli::readFile("april-mc", path);
    } catch (const std::exception &) {
        return 2;
    }
    april::mc::ReplayResult r = april::mc::replayCohTrace(text);
    std::printf("replay %s: %s\n", path.c_str(),
                april::mc::summarizeReplay(r).c_str());
    for (const std::string &e : r.errors)
        std::printf("  %s\n", e.c_str());
    return r.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    april::mc::ExploreParams p;
    int mutate = -1;
    bool show_trace = true;
    bool quiet = false;
    std::string replay_path;
    bool list_rules = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto val = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
        };
        if (const char *v = val("--scheme=")) {
            if (std::strcmp(v, "fullmap") == 0) {
                p.spec.scheme = april::coh::DirScheme::FullMap;
            } else if (std::strcmp(v, "limited") == 0) {
                p.spec.scheme = april::coh::DirScheme::LimitedPtr;
            } else {
                std::fprintf(stderr, "april-mc: unknown scheme %s\n", v);
                return usage();
            }
        } else if (const char *v = val("--pointers=")) {
            if (!parseU32(v, p.spec.dirPointers))
                return usage();
        } else if (const char *v = val("--nodes=")) {
            if (!parseU32(v, p.nodes) || p.nodes < 2 ||
                p.nodes > april::mc::kMaxNodes) {
                std::fprintf(stderr, "april-mc: --nodes must be 2..%u\n",
                             april::mc::kMaxNodes);
                return 2;
            }
        } else if (const char *v = val("--max-states=")) {
            uint32_t n;
            if (!parseU32(v, n))
                return usage();
            p.maxStates = n;
        } else if (const char *v = val("--max-fence=")) {
            uint32_t n;
            if (!parseU32(v, n) || n > 255)
                return usage();
            p.maxFence = uint8_t(n);
        } else if (std::strcmp(a, "--no-symmetry") == 0) {
            p.symmetry = false;
        } else if (std::strcmp(a, "--no-liveness") == 0) {
            p.checkLiveness = false;
        } else if (const char *v = val("--mutate=")) {
            uint32_t n;
            if (!parseU32(v, n) || n >= april::mc::kNumDirRules) {
                std::fprintf(stderr,
                             "april-mc: --mutate takes a rule id 0..%zu\n",
                             april::mc::kNumDirRules - 1);
                return 2;
            }
            mutate = int(n);
        } else if (const char *v = val("--replay=")) {
            replay_path = v;
        } else if (std::strcmp(a, "--list-rules") == 0) {
            list_rules = true;
        } else if (std::strcmp(a, "--trace") == 0) {
            show_trace = true;
        } else if (std::strcmp(a, "--no-trace") == 0) {
            show_trace = false;
        } else if (std::strcmp(a, "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "april-mc: unknown option %s\n", a);
            return usage();
        }
    }

    if (list_rules) {
        printRules();
        return 0;
    }
    if (!replay_path.empty())
        return runReplay(replay_path);

    p.spec.mutateRule = mutate;
    april::mc::ExploreResult res = april::mc::explore(p);
    std::printf("%s\n", april::mc::summarize(p, res).c_str());
    if (!quiet && res.violations.empty())
        printCoverage(res);
    for (const april::mc::Violation &v : res.violations) {
        std::printf("violation: %s: %s\n", v.kind.c_str(),
                    v.detail.c_str());
        if (show_trace) {
            for (const std::string &line : v.trace)
                std::printf("  %s\n", line.c_str());
        }
    }

    if (mutate >= 0) {
        // The mutation gate inverts the verdict: the planted bug must
        // be caught.
        if (!res.violations.empty()) {
            std::printf("mutation gate: planted bug in %s caught\n",
                        april::mc::describeDirRule(uint8_t(mutate))
                            .c_str());
            return 0;
        }
        std::printf("mutation gate: planted bug in %s NOT caught\n",
                    april::mc::describeDirRule(uint8_t(mutate)).c_str());
        return 1;
    }
    return res.ok() ? 0 : 1;
}

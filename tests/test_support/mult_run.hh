/** @file Helpers to compile and run Mul-T programs in tests. */

#ifndef APRIL_TESTS_TEST_SUPPORT_MULT_RUN_HH
#define APRIL_TESTS_TEST_SUPPORT_MULT_RUN_HH

#include <string>

#include "machine/driver.hh"

namespace april::testutil
{

using RunResult = DriverResult;

/** Compile @p source and run it to completion on @p nodes processors
 *  of the perfect-memory machine (a runMultProgram() call). */
inline RunResult
runMult(const std::string &source, mult::CompileOptions copts = {},
        uint32_t nodes = 1, uint64_t max_cycles = 200'000'000,
        uint32_t words_per_node = 1u << 20, uint32_t num_frames = 4)
{
    DriverOptions o;
    o.compile = copts;
    o.nodes = nodes;
    o.maxCycles = max_cycles;
    o.wordsPerNode = words_per_node;
    o.proc.numFrames = num_frames;
    return runMultProgram(source, o);
}

} // namespace april::testutil

#endif // APRIL_TESTS_TEST_SUPPORT_MULT_RUN_HH

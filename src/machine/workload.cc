#include "machine/workload.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parse_int.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace april::workloads
{

namespace
{

/** The Table 4 64 KB cache of the Mul-T machine. */
constexpr cache::CacheParams kTable4Cache = {
    .lineWords = 4, .numLines = 4096, .assoc = 4};
/** The small cache the raw loops contend in. */
constexpr cache::CacheParams kRawCache = {
    .lineWords = 4, .numLines = 64, .assoc = 2};

/** Point every core at the raw loops' shared entry and handlers. */
void
bootRawNodes(Machine &m, const Program &prog)
{
    for (uint32_t n = 0; n < m.numNodes(); ++n)
        bootCoherentNode(m.proc(n), prog);
}

/** The last console word: what a Mul-T main and wide print. */
int64_t
lastConsoleWord(Machine &m)
{
    if (m.console().empty())
        fatal("workload: the run printed nothing");
    return tagged::toInt(m.console().back());
}

} // namespace

Workload
fromSpec(const std::string &spec, const rt::RuntimeOptions &runtime)
{
    std::vector<std::string> parts;
    for (size_t at = 0;;) {
        size_t colon = spec.find(':', at);
        parts.push_back(spec.substr(at, colon - at));
        if (colon == std::string::npos)
            break;
        at = colon + 1;
    }
    Workload w;
    w.name = parts[0];

    // The arguments after the name; @p defaults sets their number and
    // fills the ones the spec leaves out.
    auto args = [&](std::vector<int> defaults) {
        if (parts.size() > 1 + defaults.size())
            fatal("workload '", spec, "': ", w.name, " takes at most ",
                  defaults.size(), " argument(s)");
        for (size_t i = 1; i < parts.size(); ++i) {
            if (!cli::parsePositive(parts[i].c_str(), defaults[i - 1]))
                fatal("workload '", spec, "': '", parts[i],
                      "' is not a positive integer");
        }
        return defaults;
    };

    DriverOptions &o = w.options;
    o.alewife = true;
    o.compile.futures = mult::CompileOptions::FutureMode::Lazy;
    o.wordsPerNode = 1u << 20;
    o.nodes = 4;
    o.netRadix = 2;
    o.controller.cache = kTable4Cache;

    std::string source;
    if (w.name == "fib") {
        int n = args({12})[0];
        source = fibSource(n);
        w.expected = fibExpected(n);
    } else if (w.name == "factor") {
        std::vector<int> range = args({1000, 1040});
        int lo = range[0];
        int hi = range[1];
        if (lo > hi)
            fatal("workload '", spec, "': empty range");
        source = factorSource(lo, hi);
        w.expected = factorExpected(lo, hi);
    } else if (w.name == "queens") {
        int n = args({6})[0];
        source = queensSource(n);
        w.expected = queensExpected(n);
    } else if (w.name == "speech") {
        std::vector<int> shape = args({8, 12});
        int layers = shape[0];
        int width = shape[1];
        source = speechSource(layers, width);
        w.expected = speechExpected(layers, width);
    } else if (w.name == "coherent16") {
        CoherentLoop loop = buildCoherentLoop(16, uint32_t(args({200})[0]));
        o.nodes = 16;
        o.netRadix = 4;
        o.wordsPerNode = 1u << 16;
        o.controller.cache = kRawCache;
        w.expected = int64_t(loop.nodes) * loop.iters;
        const Addr count = loop.count;
        w.prog = std::move(loop.prog);
        w.boot = [count](Machine &m, const Program &prog) {
            bootRawNodes(m, prog);
            m.memory().write(count, tagged::fixnum(0));
        };
        w.answer = [count](Machine &m) {
            return int64_t(tagged::toInt(m.coherentRead(count)));
        };
        return w;
    } else if (w.name == "wide") {
        uint32_t nodes = uint32_t(args({64})[0]);
        uint32_t radix = 0;
        while (uint64_t(radix) * radix < nodes)
            ++radix;
        if (uint64_t(radix) * radix != nodes || nodes < 4)
            fatal("workload '", spec, "': ", nodes,
                  " nodes are not a square mesh of at least 2x2");
        WideSharing wide = buildWideSharing(nodes, 1u << 14);
        o.nodes = nodes;
        o.netRadix = int(radix);
        o.wordsPerNode = wide.wordsPerNode;
        o.controller.cache = kRawCache;
        w.expected = 99;    // node 0 prints the value it stores
        w.prog = std::move(wide.prog);
        w.boot = bootRawNodes;
        w.answer = lastConsoleWord;
        return w;
    } else {
        fatal("workload '", spec, "': unknown name (try fib, factor, "
              "queens, speech, coherent16, wide)");
    }
    w.prog = mult::compileProgram(source, o.compile, runtime);
    w.answer = lastConsoleWord;
    return w;
}

} // namespace april::workloads

/**
 * @file
 * Differential property testing: generate random Mul-T programs,
 * evaluate them with a host-side reference interpreter, and check the
 * simulator agrees — in sequential mode, with eager futures, with
 * lazy futures, on one and on four processors, and under Encore-style
 * software checks. Any disagreement is a compiler, runtime, processor
 * or memory-system bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/random.hh"
#include "test_support/mult_run.hh"

namespace april
{
namespace
{

using mult::Sexp;
using testutil::runMult;
using FM = mult::CompileOptions::FutureMode;

/** Generates random integer expressions over bounded variables. */
class ExprGen
{
  public:
    explicit ExprGen(uint64_t seed) : rng(seed) {}

    /**
     * Random expression of the given depth over variables in scope;
     * `futures_ok` sprinkles future/touch pairs over subexpressions.
     */
    Sexp
    gen(int depth, const std::vector<std::string> &vars, bool futures_ok)
    {
        if (depth == 0 || rng.chance(0.25)) {
            if (!vars.empty() && rng.chance(0.6)) {
                return Sexp::symbol(
                    vars[size_t(rng.below(vars.size()))]);
            }
            return Sexp::integer(rng.range(-50, 50));
        }
        switch (rng.below(futures_ok ? 7 : 6)) {
          case 0:
            return op2("+", depth, vars, futures_ok);
          case 1:
            return op2("-", depth, vars, futures_ok);
          case 2: {
            // Keep products small to stay inside fixnum range.
            Sexp e = Sexp::list({Sexp::symbol("*"),
                                 gen(0, vars, false),
                                 gen(0, vars, false)});
            return e;
          }
          case 3: {
            std::vector<Sexp> items = {
                Sexp::symbol("if"),
                Sexp::list({Sexp::symbol(rng.chance(0.5) ? "<" : ">="),
                            gen(depth - 1, vars, futures_ok),
                            gen(depth - 1, vars, futures_ok)}),
                gen(depth - 1, vars, futures_ok),
                gen(depth - 1, vars, futures_ok)};
            return Sexp::list(std::move(items));
          }
          case 4: {
            // (let ((tN e1)) e2) with the new variable in scope.
            std::string v = "t" + std::to_string(letCounter++);
            std::vector<std::string> inner = vars;
            inner.push_back(v);
            return Sexp::list(
                {Sexp::symbol("let"),
                 Sexp::list({Sexp::list(
                     {Sexp::symbol(v),
                      gen(depth - 1, vars, futures_ok)})}),
                 gen(depth - 1, inner, futures_ok)});
          }
          case 5:
            return op2("+", depth, vars, futures_ok);
          default:
            // (touch (future e)): forces real task machinery.
            return Sexp::list(
                {Sexp::symbol("touch"),
                 Sexp::list({Sexp::symbol("future"),
                             gen(depth - 1, vars, futures_ok)})});
        }
    }

  private:
    Sexp
    op2(const char *op, int depth, const std::vector<std::string> &vars,
        bool futures_ok)
    {
        return Sexp::list({Sexp::symbol(op),
                           gen(depth - 1, vars, futures_ok),
                           gen(depth - 1, vars, futures_ok)});
    }

    Rng rng;
    int letCounter = 0;
};

/** Host-side reference evaluation (futures are pure values here). */
int64_t
evalRef(const Sexp &e, std::vector<std::pair<std::string, int64_t>> &env)
{
    if (e.isInteger())
        return e.num;
    if (e.isSymbol()) {
        for (auto it = env.rbegin(); it != env.rend(); ++it) {
            if (it->first == e.sym)
                return it->second;
        }
        ADD_FAILURE() << "unbound " << e.sym;
        return 0;
    }
    const std::string &op = e[0].sym;
    if (op == "+")
        return evalRef(e[1], env) + evalRef(e[2], env);
    if (op == "-")
        return evalRef(e[1], env) - evalRef(e[2], env);
    if (op == "*")
        return evalRef(e[1], env) * evalRef(e[2], env);
    if (op == "<")
        return evalRef(e[1], env) < evalRef(e[2], env);
    if (op == ">=")
        return evalRef(e[1], env) >= evalRef(e[2], env);
    if (op == "if") {
        int64_t c = evalRef(e[1], env);
        return (op == "if" && c != 0) ? evalRef(e[2], env)
                                      : evalRef(e[3], env);
    }
    if (op == "let") {
        int64_t v = evalRef(e[1][0][1], env);
        env.emplace_back(e[1][0][0].sym, v);
        int64_t r = evalRef(e[2], env);
        env.pop_back();
        return r;
    }
    if (op == "touch" || op == "future")
        return evalRef(e[1], env);
    ADD_FAILURE() << "ref eval: " << e.str();
    return 0;
}

/** `if` in the reference: comparisons return 1/0, if tests truthiness
 * of a *boolean*, so wrap the comparison result. In Mul-T the
 * comparison returns #t/#f; the generator only puts comparisons in if
 * conditions, so 1/0 vs #t/#f agree. */

struct Case
{
    uint64_t seed;
    FM mode;
    bool software;
    uint32_t nodes;
    const char *name;
};

/** gtest prints the parameter into each test's name: the case name,
 *  not the struct's bytes. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

class Differential : public ::testing::TestWithParam<Case>
{
};

TEST_P(Differential, RandomProgramsAgreeWithReference)
{
    Case c = GetParam();
    for (int trial = 0; trial < 6; ++trial) {
        ExprGen gen(c.seed * 97 + uint64_t(trial));
        std::vector<std::string> params = {"a", "b", "c"};
        bool futures = c.mode != FM::Erase;
        Sexp body = gen.gen(4, params, futures);

        // Reference value.
        std::vector<std::pair<std::string, int64_t>> env = {
            {"a", 5}, {"b", -3}, {"c", 11}};
        int64_t expect = evalRef(body, env);
        if (expect > (1 << 28) || expect < -(1 << 28))
            continue;       // fixnum overflow: skip this sample

        std::string src = "(define (f a b c) " + body.str() + ")"
                          "(define (main) (f 5 -3 11))";
        mult::CompileOptions copts;
        copts.futures = c.mode;
        copts.softwareChecks = c.software;
        auto r = runMult(src, copts, c.nodes);
        Word res = r.result;
        int64_t got;
        if (res == tagged::TRUE) {
            got = 1;
        } else if (res == tagged::FALSE) {
            got = 0;
        } else {
            got = tagged::toInt(res);
        }
        EXPECT_EQ(got, expect)
            << "seed=" << c.seed << " trial=" << trial << "\n"
            << src;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Differential,
    ::testing::Values(
        Case{1, FM::Erase, false, 1, "seq"},
        Case{2, FM::Erase, true, 1, "encore_seq"},
        Case{3, FM::Eager, false, 1, "eager_1p"},
        Case{4, FM::Eager, false, 4, "eager_4p"},
        Case{5, FM::Lazy, false, 1, "lazy_1p"},
        Case{6, FM::Lazy, false, 4, "lazy_4p"},
        Case{7, FM::Eager, true, 2, "encore_eager_2p"},
        Case{8, FM::Lazy, false, 8, "lazy_8p"}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name;
    });

} // namespace
} // namespace april

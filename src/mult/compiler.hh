/**
 * @file
 * The Mul-T compiler (paper Sections 2.2 and 6).
 *
 * Compiles a first-order Scheme subset with `future` and `touch` to
 * APRIL assembly. Three future-compilation strategies reproduce the
 * systems of Table 3:
 *
 *   Erase  (future X) == X               — the "T seq" reference
 *   Eager  normal task creation: every future allocates a future
 *          object and enqueues a task (rt$spawn)
 *   Lazy   lazy task creation [17]: the future body is evaluated as a
 *          local call and a stealable continuation marker is left
 *          behind; a future object exists only if a steal occurs
 *
 * Independently, `softwareChecks` selects the Encore Multimax code
 * generation: every strict operation explicitly tests its operands'
 * low bit and calls a software touch routine, instead of relying on
 * APRIL's tag-trap hardware (Section 3.2, "Detection of Futures").
 *
 * Code generation is a straightforward stack-frame model: all named
 * variables and expression temporaries live in frame slots addressed
 * off `sp`, which is what makes continuation stealing a frame-copy
 * (see runtime/runtime.cc). This costs instructions relative to a
 * register allocator, but identically across all compared systems, so
 * Table 3's ratios are preserved.
 */

#ifndef APRIL_MULT_COMPILER_HH
#define APRIL_MULT_COMPILER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "mult/sexp.hh"
#include "runtime/runtime.hh"

namespace april::mult
{

/** Future strategy and baseline selection. */
struct CompileOptions
{
    enum class FutureMode { Erase, Eager, Lazy };

    FutureMode futures = FutureMode::Erase;
    /// Encore-style software future detection (no tag traps).
    bool softwareChecks = false;
};

/** Compiles Mul-T top-level programs into an Assembler. */
class Compiler
{
  public:
    Compiler(Assembler &as, CompileOptions opts) : as(as), opts(opts) {}

    /**
     * Compile a whole program: a sequence of
     * (define (name params...) body...) forms. A function called
     * `main` (arity 0) must be present; it becomes rt$boot's target.
     */
    void compileProgram(const std::vector<Sexp> &forms);

    /** Convenience: parse and compile a source string. */
    void compileSource(const std::string &source);

  private:
    struct FnInfo
    {
        std::string label;
        unsigned arity = 0;
    };

    /** Per-function compilation state. */
    struct FnCtx
    {
        std::string name;
        std::vector<std::map<std::string, int>> scopes;
        int nextSlot = 0;       ///< next free frame slot
        int maxSlot = 0;        ///< frame-size high-water mark
        std::vector<uint32_t> framePatches; ///< insts needing the size

        int
        pushTemp()
        {
            int s = nextSlot++;
            if (nextSlot > maxSlot)
                maxSlot = nextSlot;
            return s;
        }

        void popTemp(int n = 1) { nextSlot -= n; }

        int *
        lookup(const std::string &name)
        {
            for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
                auto f = it->find(name);
                if (f != it->end())
                    return &f->second;
            }
            return nullptr;
        }
    };

    /** A future body lifted to a top-level function. */
    struct Lifted
    {
        std::string name;
        std::vector<std::string> params;
        Sexp body;
    };

    void registerDefine(const Sexp &form);
    void compileDefine(const Sexp &form);
    void compileFunction(const std::string &name,
                         const std::vector<std::string> &params,
                         const Sexp *body_begin, size_t body_count);

    /** Compile one expression; result lands in the accumulator r16. */
    void compileExpr(const Sexp &e, FnCtx &ctx);

    void compileIf(const Sexp &e, FnCtx &ctx);
    void compileLet(const Sexp &e, FnCtx &ctx);
    void compileCall(const std::string &fn, const Sexp &e, size_t first,
                     FnCtx &ctx);
    void compileFuture(const Sexp &e, FnCtx &ctx);
    void compileFutureOn(const Sexp &e, FnCtx &ctx);
    void compileTouch(const Sexp &e, FnCtx &ctx);
    bool compileBuiltin(const std::string &op, const Sexp &e, FnCtx &ctx);

    /** Evaluate operands of a binary op into (r17, r16). */
    void compileBinaryOperands(const Sexp &e, FnCtx &ctx);
    /** Left-fold a variadic arithmetic op. */
    void compileFold(Opcode op, const Sexp &e, FnCtx &ctx);
    void compileCompare(Cond cond, const Sexp &e, FnCtx &ctx);
    void emitBoolFromCond(Cond cond);

    /** Encore mode: ensure register @p r holds a non-future. */
    void emitCheck(uint8_t r);
    /** Touch the value in @p r (strict no-op on APRIL, check on Encore). */
    void emitTouch(uint8_t r);
    /** Branch to @p target when r16 is false (#f or nil). */
    void emitBranchIfFalse(const std::string &target);

    void loadSlot(uint8_t rd, int slot);
    void storeSlot(uint8_t rs, int slot);

    /** Collect free variables of @p e bound in @p ctx. */
    void freeVars(const Sexp &e, FnCtx &ctx,
                  std::vector<std::string> &out) const;

    std::string userLabel(const std::string &fn) const
    {
        return "mt$" + fn;
    }

    Assembler &as;
    CompileOptions opts;
    std::map<std::string, FnInfo> functions;
    std::vector<Lifted> pendingLifts;
    uint64_t liftCounter = 0;

    static constexpr uint8_t ACC = 16;   ///< expression accumulator
    static constexpr uint8_t OP2 = 17;   ///< left operand / scratch
    static constexpr uint8_t CHK = 18;   ///< tag-check scratch
    static constexpr uint8_t SCR = 19;   ///< extra scratch
    static constexpr uint8_t TST = 20;   ///< tag-test scratch (emitCheck)
};

/**
 * One bootable image: the run-time system followed by @p source
 * compiled under @p opts. The runtime's `encore` mode follows
 * opts.softwareChecks (Encore code generation needs the Encore
 * runtime); the other RuntimeOptions come from @p runtime.
 */
Program compileProgram(const std::string &source,
                       const CompileOptions &opts,
                       rt::RuntimeOptions runtime = {});

} // namespace april::mult

#endif // APRIL_MULT_COMPILER_HH

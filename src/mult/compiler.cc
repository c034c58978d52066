#include "mult/compiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/runtime.hh"

namespace april::mult
{

using reg::sp;
using tagged::fixnum;

void
Compiler::loadSlot(uint8_t rd, int slot)
{
    // Compiled code uses the trap-on-miss flavors: "a context switch
    // occurs whenever the network must be used" (Section 2.1). Frame
    // slots are almost always cache-resident, so this costs nothing
    // sequentially and buys latency tolerance when a continuation's
    // stack is remote.
    as.ldnt(rd, sp, wordOff(slot));
}

void
Compiler::storeSlot(uint8_t rs, int slot)
{
    as.stnt(rs, sp, wordOff(slot));
}

void
Compiler::emitCheck(uint8_t r)
{
    // Encore Multimax software future detection (Section 3.2): test
    // the operand's low bit; call the run-time touch on a hit. The
    // scratch must not alias any checkable register (r may be CHK).
    as.andiR(TST, r, 1);
    auto ok = as.fresh("chk");
    as.jRaw(Cond::EQ, ok);
    as.nop();
    as.mov(reg::a(0), r);
    as.call(rt::sym::touchSw);
    as.mov(r, reg::a(0));
    as.bind(ok);
}

void
Compiler::emitTouch(uint8_t r)
{
    if (opts.softwareChecks) {
        emitCheck(r);
    } else {
        // On APRIL a strict no-op is a free hardware touch: it traps
        // to the resolving handler if (and only if) r holds a future.
        Instruction i;
        i.op = Opcode::ADD;
        i.rd = r;
        i.rs1 = r;
        i.imm = 0;
        i.useImm = true;
        i.strict = true;
        as.push(i);
    }
}

void
Compiler::emitBranchIfFalse(const std::string &target)
{
    // Falsity follows T: both #f and () are false.
    as.cmpiR(ACC, int32_t(tagged::FALSE));
    as.jRaw(Cond::EQ, target);
    as.nop();
    as.cmpiR(ACC, int32_t(tagged::NIL));
    as.jRaw(Cond::EQ, target);
    as.nop();
}

void
Compiler::emitBoolFromCond(Cond cond)
{
    auto yes = as.fresh("bt");
    auto end = as.fresh("bend");
    as.jRaw(cond, yes);
    as.nop();
    as.movi(ACC, tagged::FALSE);
    as.j(Cond::AL, end);
    as.bind(yes);
    as.movi(ACC, tagged::TRUE);
    as.bind(end);
}

void
Compiler::compileBinaryOperands(const Sexp &e, FnCtx &ctx)
{
    if (e.size() != 3)
        fatal("mult: ", e[0].sym, " expects 2 operands: ", e.str());
    int t = ctx.pushTemp();
    compileExpr(e[1], ctx);
    storeSlot(ACC, t);
    compileExpr(e[2], ctx);
    loadSlot(OP2, t);
    ctx.popTemp();
}

void
Compiler::compileFold(Opcode op, const Sexp &e, FnCtx &ctx)
{
    if (e.size() < 2)
        fatal("mult: ", e[0].sym, " needs operands");
    compileExpr(e[1], ctx);
    for (size_t i = 2; i < e.size(); ++i) {
        int t = ctx.pushTemp();
        storeSlot(ACC, t);
        compileExpr(e[i], ctx);
        loadSlot(OP2, t);
        ctx.popTemp();
        if (opts.softwareChecks) {
            emitCheck(OP2);
            emitCheck(ACC);
        }
        Instruction inst;
        inst.op = op;
        inst.rd = ACC;
        inst.rs1 = OP2;
        inst.rs2 = ACC;
        inst.strict = !opts.softwareChecks;
        as.push(inst);
    }
}

void
Compiler::compileCompare(Cond cond, const Sexp &e, FnCtx &ctx)
{
    compileBinaryOperands(e, ctx);
    if (opts.softwareChecks) {
        emitCheck(OP2);
        emitCheck(ACC);
        as.cmpR(OP2, ACC);
    } else {
        as.cmp(OP2, ACC);
    }
    emitBoolFromCond(cond);
}

void
Compiler::compileIf(const Sexp &e, FnCtx &ctx)
{
    if (e.size() != 3 && e.size() != 4)
        fatal("mult: bad if: ", e.str());
    auto l_else = as.fresh("else");
    auto l_end = as.fresh("endif");
    compileExpr(e[1], ctx);
    emitTouch(ACC);
    emitBranchIfFalse(l_else);
    compileExpr(e[2], ctx);
    as.j(Cond::AL, l_end);
    as.bind(l_else);
    if (e.size() == 4)
        compileExpr(e[3], ctx);
    else
        as.movi(ACC, tagged::NIL);
    as.bind(l_end);
}

void
Compiler::compileLet(const Sexp &e, FnCtx &ctx)
{
    if (e.size() < 3 || !e[1].isList())
        fatal("mult: bad let: ", e.str());

    int save_slot = ctx.nextSlot;
    std::map<std::string, int> scope;
    // Evaluate all initializers in the outer scope first (let, not
    // let*), each into its own fresh slot.
    for (const Sexp &binding : e[1].items) {
        if (!binding.isList() || binding.size() != 2 ||
            !binding[0].isSymbol()) {
            fatal("mult: bad let binding in ", e.str());
        }
        int slot = ctx.pushTemp();
        compileExpr(binding[1], ctx);
        storeSlot(ACC, slot);
        scope[binding[0].sym] = slot;
    }
    ctx.scopes.push_back(std::move(scope));
    for (size_t i = 2; i < e.size(); ++i)
        compileExpr(e[i], ctx);
    ctx.scopes.pop_back();
    ctx.nextSlot = save_slot;
}

void
Compiler::compileCall(const std::string &fn, const Sexp &e, size_t first,
                      FnCtx &ctx)
{
    auto it = functions.find(fn);
    if (it == functions.end())
        fatal("mult: call to unknown function '", fn, "' in ", e.str());
    size_t argc = e.size() - first;
    if (argc != it->second.arity) {
        fatal("mult: ", fn, " expects ", it->second.arity,
              " arguments, got ", argc, " in ", e.str());
    }
    if (argc > reg::numArgRegs)
        fatal("mult: too many arguments in ", e.str());

    std::vector<int> temps;
    for (size_t i = 0; i < argc; ++i) {
        int t = ctx.pushTemp();
        compileExpr(e[first + i], ctx);
        storeSlot(ACC, t);
        temps.push_back(t);
    }
    for (size_t i = 0; i < argc; ++i)
        loadSlot(reg::a(unsigned(i)), temps[i]);

    ctx.framePatches.push_back(as.here());
    as.addiR(sp, sp, 0);                    // patched: + frame size
    as.call(it->second.label);
    ctx.framePatches.push_back(as.here());
    as.subiR(sp, sp, 0);                    // patched: - frame size
    as.mov(ACC, reg::a(0));
    ctx.popTemp(int(argc));
}

void
Compiler::freeVars(const Sexp &e, FnCtx &ctx,
                   std::vector<std::string> &out) const
{
    struct Walker
    {
        FnCtx &ctx;
        std::vector<std::string> &out;
        std::vector<std::string> shadow;

        bool
        shadowed(const std::string &s) const
        {
            return std::find(shadow.begin(), shadow.end(), s) !=
                   shadow.end();
        }

        void
        walk(const Sexp &e)
        {
            if (e.isSymbol()) {
                const std::string &s = e.sym;
                if (s == "true" || s == "false" || s == "nil")
                    return;
                if (shadowed(s) || !ctx.lookup(s))
                    return;
                if (std::find(out.begin(), out.end(), s) == out.end())
                    out.push_back(s);
                return;
            }
            if (!e.isList() || e.size() == 0)
                return;
            if (e[0].isSymbol("let") && e.size() >= 3 && e[1].isList()) {
                size_t added = 0;
                for (const Sexp &b : e[1].items) {
                    if (b.isList() && b.size() == 2)
                        walk(b[1]);
                }
                for (const Sexp &b : e[1].items) {
                    if (b.isList() && b.size() == 2 && b[0].isSymbol()) {
                        shadow.push_back(b[0].sym);
                        ++added;
                    }
                }
                for (size_t i = 2; i < e.size(); ++i)
                    walk(e[i]);
                shadow.resize(shadow.size() - added);
                return;
            }
            // Operator position of a call is a function name, never a
            // frame variable (first-order language): skip index 0 for
            // plain calls, but walk everything for special forms whose
            // head is not a binding construct.
            size_t start = e[0].isSymbol() ? 1 : 0;
            for (size_t i = start; i < e.size(); ++i)
                walk(e[i]);
        }
    };

    Walker w{ctx, out, {}};
    w.walk(e);
}

void
Compiler::compileFuture(const Sexp &e, FnCtx &ctx)
{
    if (e.size() != 2)
        fatal("mult: bad future: ", e.str());
    const Sexp &body = e[1];

    if (opts.futures == CompileOptions::FutureMode::Erase) {
        compileExpr(body, ctx);
        return;
    }

    // Decide the task's function and arguments: a direct call with
    // trivial arguments is used as-is; anything else is lambda-lifted
    // into a fresh top-level function over its free variables.
    std::string fn;
    std::vector<Sexp> args;
    bool direct = body.isList() && body.size() >= 1 &&
        body[0].isSymbol() && functions.count(body[0].sym) &&
        !ctx.lookup(body[0].sym);
    if (direct) {
        for (size_t i = 1; i < body.size() && direct; ++i) {
            const Sexp &a = body[i];
            bool trivial = a.isInteger() ||
                (a.isSymbol() && (ctx.lookup(a.sym) || a.sym == "true" ||
                                  a.sym == "false" || a.sym == "nil"));
            direct = trivial;
        }
    }
    if (direct) {
        fn = body[0].sym;
        args.assign(body.items.begin() + 1, body.items.end());
    } else {
        std::vector<std::string> fv;
        freeVars(body, ctx, fv);
        fn = "fut$" + std::to_string(liftCounter++);
        functions[fn] = {userLabel(fn), unsigned(fv.size())};
        pendingLifts.push_back({fn, fv, body});
        for (const std::string &v : fv)
            args.push_back(Sexp::symbol(v));
    }

    Sexp call_form;
    call_form.items.push_back(Sexp::symbol(fn));
    for (const Sexp &a : args)
        call_form.items.push_back(a);

    if (opts.futures == CompileOptions::FutureMode::Eager) {
        // Normal task creation: make a future, package a task, enqueue.
        if (args.size() > 4) {
            fatal("mult: eager future body needs ", args.size(),
                  " arguments (max 4): ", body.str());
        }
        int s = ctx.pushTemp();
        std::vector<int> temps;
        for (const Sexp &a : args) {
            int t = ctx.pushTemp();
            compileExpr(a, ctx);
            storeSlot(ACC, t);
            temps.push_back(t);
        }
        as.call(rt::sym::makeFuture);
        storeSlot(reg::a(0), s);
        as.moviLabel(reg::a(0), userLabel(fn));
        loadSlot(reg::a(1), s);
        as.movi(reg::a(2), Word(args.size()));
        for (size_t i = 0; i < args.size(); ++i)
            loadSlot(uint8_t(4 + i), temps[i]);
        as.call(rt::sym::spawn);
        loadSlot(ACC, s);
        ctx.popTemp(int(args.size()) + 1);
        return;
    }

    // Lazy task creation [17]: leave a stealable marker, evaluate the
    // body as a local call, and only deal in futures if someone stole
    // the continuation meanwhile. Push, pop and the claim are inlined:
    // the fast path costs a handful of instructions, which is what
    // makes lazy futures ~1.5x sequential instead of ~14x (Table 3).
    int m = ctx.pushTemp();
    for (int i = 1; i < rt::marker::size; ++i)
        ctx.pushTemp();
    int s = ctx.pushTemp();

    auto l_resume = as.fresh("fresume");
    auto l_spin = as.fresh("fspin");
    auto l_merge = as.fresh("fmerge");

    // Initialize the marker; the f/e state word is published last.
    as.moviLabel(OP2, l_resume);
    storeSlot(OP2, m + rt::marker::resumePC);
    storeSlot(sp, m + rt::marker::frameBase);
    ctx.framePatches.push_back(as.here());
    as.addiR(OP2, sp, 0);                   // patched: frame top
    storeSlot(OP2, m + rt::marker::frameTop);
    storeSlot(reg::sb, m + rt::marker::stackBase);
    as.stfnw(reg::r0, sp, wordOff(m + rt::marker::state));
    // Publish on the local steal deque (owner-private bottom index;
    // thieves synchronize on the marker's f/e word, not on us).
    as.ldnw(OP2, reg::g(0), wordOff(rt::nb::dequeBottom));
    as.andiR(CHK, OP2, int32_t(rt::dequeCapacity - 1));
    as.slliR(CHK, CHK, tagged::tagShift);
    as.ldnw(SCR, reg::g(0), wordOff(rt::nb::dequeBase));
    as.addR(CHK, CHK, SCR);
    as.addiR(SCR, sp, wordOff(m));
    as.stnw(SCR, CHK, 0);
    as.addiR(OP2, OP2, 1);
    // The probe marks the bottom-index store: the event fires exactly
    // when the marker becomes visible to thieves, with the boxed
    // marker pointer still live in SCR.
    as.note("tp$lazy_push");
    as.stnw(OP2, reg::g(0), wordOff(rt::nb::dequeBottom));

    compileCall(fn, call_form, 1, ctx);     // inline local call
    storeSlot(ACC, s);

    // Pop: one atomic consuming load decides the race (Section 3.2).
    // Empty = a thief is mid-copy; full with zero = ours (the common,
    // cheap case); full with a value = stolen, the value is the
    // thief's future.
    auto l_stolen = as.fresh("fstolen");
    auto l_mine = as.fresh("fmine");
    as.ldenw(OP2, sp, wordOff(m + rt::marker::state));
    as.jRaw(Cond::EMPTY, l_spin);
    as.nop();
    as.cmpiR(OP2, 0);
    as.jRaw(Cond::EQ, l_mine);              // we won: inline value
    as.nop();
    as.j(Cond::AL, l_stolen);
    // Thief mid-copy: wait for it to publish the future.
    as.bind(l_spin);
    as.ldnw(OP2, sp, wordOff(m + rt::marker::state));
    as.jRaw(Cond::EMPTY, l_spin);
    as.nop();
    as.bind(l_stolen);                      // OP2 = the future:
    as.mov(reg::a(0), OP2);                 // resolve it with our value
    loadSlot(reg::a(1), s);                 // and become a worker
    as.j(Cond::AL, rt::sym::stolenExit);

    // We won the claim, so our entry is still the deque's newest and
    // the owner-private bottom index can step back over it. Pops nest
    // LIFO within a thread, so this keeps the deque dense: without it,
    // dead entries pile up for the lifetime of the program and every
    // thief scan wades through all of them (probing stale markers in
    // long-returned frames) while holding the deque lock. On the
    // stolen and mid-copy paths the thief has already consumed the
    // entry from the top end, so retracting there would undercut top
    // and hide later pushes from every scan.
    as.bind(l_mine);
    as.note("tp$lazy_mine");            // owner reclaimed the marker
    as.ldnw(OP2, reg::g(0), wordOff(rt::nb::dequeBottom));
    as.subiR(OP2, OP2, 1);
    as.stnw(OP2, reg::g(0), wordOff(rt::nb::dequeBottom));
    as.j(Cond::AL, l_merge);

    as.bind(l_resume);                      // thief enters here, r1 = F
    as.note("tp$lazy_resume");          // r1 = the published future
    storeSlot(reg::a(0), s);

    as.bind(l_merge);
    loadSlot(ACC, s);
    // Only the value slot is recycled. The marker slots stay reserved
    // for the rest of the function: stale deque entries keep pointing
    // at them, and claims through an alias are only sound if a marker
    // address is never reused for a different marker in one frame.
    ctx.popTemp(1);
}

void
Compiler::compileFutureOn(const Sexp &e, FnCtx &ctx)
{
    // (future-on <node> <body>): "works just like a normal future but
    // allows the specification of the node on which to schedule the
    // future" (Section 2.2). Placement implies an eager task on the
    // target's queue, whatever the ambient future strategy.
    if (e.size() != 3)
        fatal("mult: bad future-on: ", e.str());
    if (opts.futures == CompileOptions::FutureMode::Erase) {
        compileExpr(e[2], ctx);
        return;
    }

    const Sexp &body = e[2];
    std::vector<std::string> fv;
    freeVars(body, ctx, fv);
    std::string fn = "fut$" + std::to_string(liftCounter++);
    functions[fn] = {userLabel(fn), unsigned(fv.size())};
    pendingLifts.push_back({fn, fv, body});
    if (fv.size() > 4) {
        fatal("mult: future-on body needs ", fv.size(),
              " arguments (max 4): ", body.str());
    }

    int s = ctx.pushTemp();
    int node_slot = ctx.pushTemp();
    compileExpr(e[1], ctx);                 // target node (fixnum)
    storeSlot(ACC, node_slot);
    std::vector<int> temps;
    for (const std::string &v : fv) {
        int t = ctx.pushTemp();
        compileExpr(Sexp::symbol(v), ctx);
        storeSlot(ACC, t);
        temps.push_back(t);
    }
    as.call(rt::sym::makeFuture);
    storeSlot(reg::a(0), s);
    as.moviLabel(reg::a(0), userLabel(fn));
    loadSlot(reg::a(1), s);
    as.movi(reg::a(2), Word(fv.size()));
    for (size_t i = 0; i < fv.size(); ++i)
        loadSlot(uint8_t(4 + i), temps[i]);
    loadSlot(8, node_slot);
    as.sraiR(8, 8, 2);                      // untag the node number
    as.call(rt::sym::spawnOn);
    loadSlot(ACC, s);
    ctx.popTemp(int(fv.size()) + 2);
}

void
Compiler::compileTouch(const Sexp &e, FnCtx &ctx)
{
    if (e.size() != 2)
        fatal("mult: bad touch: ", e.str());
    compileExpr(e[1], ctx);
    if (opts.futures != CompileOptions::FutureMode::Erase ||
        opts.softwareChecks) {
        emitTouch(ACC);
    }
}

bool
Compiler::compileBuiltin(const std::string &op, const Sexp &e, FnCtx &ctx)
{
    auto strict_shift_untag = [&](uint8_t r) {
        if (opts.softwareChecks) {
            emitCheck(r);
            as.sraiR(r, r, 2);
        } else {
            Instruction i;
            i.op = Opcode::SRA;
            i.rd = r;
            i.rs1 = r;
            i.imm = 2;
            i.useImm = true;
            i.strict = true;
            as.push(i);
        }
    };

    if (op == "+") {
        compileFold(Opcode::ADD, e, ctx);
        return true;
    }
    if (op == "-") {
        if (e.size() == 2) {
            compileExpr(e[1], ctx);
            emitTouch(ACC);
            as.mov(OP2, ACC);
            as.movi(ACC, fixnum(0));
            Instruction i;
            i.op = Opcode::SUB;
            i.rd = ACC;
            i.rs1 = ACC;
            i.rs2 = OP2;
            i.strict = !opts.softwareChecks;
            as.push(i);
            return true;
        }
        compileFold(Opcode::SUB, e, ctx);
        return true;
    }
    if (op == "*") {
        compileBinaryOperands(e, ctx);
        strict_shift_untag(OP2);
        emitTouch(ACC);
        as.mulR(ACC, OP2, ACC);
        return true;
    }
    if (op == "quotient") {
        compileBinaryOperands(e, ctx);
        emitTouch(OP2);
        emitTouch(ACC);
        Instruction i;
        i.op = Opcode::DIV;
        i.rd = ACC;
        i.rs1 = OP2;
        i.rs2 = ACC;
        as.push(i);
        as.slliR(ACC, ACC, 2);
        return true;
    }
    if (op == "remainder") {
        compileBinaryOperands(e, ctx);
        emitTouch(OP2);
        emitTouch(ACC);
        Instruction i;
        i.op = Opcode::REM;
        i.rd = ACC;
        i.rs1 = OP2;
        i.rs2 = ACC;
        as.push(i);
        return true;
    }

    if (op == "=")  { compileCompare(Cond::EQ, e, ctx); return true; }
    if (op == "<")  { compileCompare(Cond::LT, e, ctx); return true; }
    if (op == ">")  { compileCompare(Cond::GT, e, ctx); return true; }
    if (op == "<=") { compileCompare(Cond::LE, e, ctx); return true; }
    if (op == ">=") { compileCompare(Cond::GE, e, ctx); return true; }
    if (op == "eq?") { compileCompare(Cond::EQ, e, ctx); return true; }

    if (op == "cons") {
        compileBinaryOperands(e, ctx);
        as.mov(reg::a(1), ACC);
        as.mov(reg::a(0), OP2);
        as.call(rt::sym::cons);
        as.mov(ACC, reg::a(0));
        return true;
    }
    if (op == "car" || op == "cdr") {
        if (e.size() != 2)
            fatal("mult: bad ", op, ": ", e.str());
        compileExpr(e[1], ctx);
        int32_t off = op == "car" ? -6 : 2;     // cons tag is 110
        if (opts.softwareChecks) {
            emitCheck(ACC);
            as.load(ACC, ACC, off, false, false, MissPolicy::Trap, false);
        } else {
            // Strict load: traps (implicit touch) if ACC is a future.
            as.load(ACC, ACC, off, false, false, MissPolicy::Trap, true);
        }
        return true;
    }
    if (op == "set-car!" || op == "set-cdr!") {
        if (e.size() != 3)
            fatal("mult: bad ", op, ": ", e.str());
        compileBinaryOperands(e, ctx);      // OP2 = pair, ACC = value
        int32_t off = op == "set-car!" ? -6 : 2;
        if (opts.softwareChecks) {
            emitCheck(OP2);
            as.store(ACC, OP2, off, false, false, MissPolicy::Trap,
                     false);
        } else {
            as.store(ACC, OP2, off, false, false, MissPolicy::Trap,
                     true);
        }
        return true;
    }
    if (op == "min" || op == "max") {
        compileBinaryOperands(e, ctx);      // OP2 = a, ACC = b
        if (opts.softwareChecks) {
            emitCheck(OP2);
            emitCheck(ACC);
            as.cmpR(OP2, ACC);
        } else {
            as.cmp(OP2, ACC);
        }
        auto keep = as.fresh("mm");
        as.jRaw(op == "min" ? Cond::GE : Cond::LE, keep);
        as.nop();
        as.mov(ACC, OP2);                   // a wins
        as.bind(keep);
        return true;
    }
    if (op == "abs") {
        if (e.size() != 2)
            fatal("mult: bad abs: ", e.str());
        compileExpr(e[1], ctx);
        emitTouch(ACC);
        as.cmpiR(ACC, int32_t(fixnum(0)));
        auto pos = as.fresh("abs");
        as.jRaw(Cond::GE, pos);
        as.nop();
        as.mov(OP2, ACC);
        as.movi(ACC, fixnum(0));
        as.subR(ACC, ACC, OP2);
        as.bind(pos);
        return true;
    }
    if (op == "null?") {
        if (e.size() != 2)
            fatal("mult: bad null?: ", e.str());
        compileExpr(e[1], ctx);
        emitTouch(ACC);
        as.cmpiR(ACC, int32_t(tagged::NIL));
        emitBoolFromCond(Cond::EQ);
        return true;
    }
    if (op == "pair?") {
        if (e.size() != 2)
            fatal("mult: bad pair?: ", e.str());
        compileExpr(e[1], ctx);
        emitTouch(ACC);
        as.andiR(CHK, ACC, 7);
        as.cmpiR(CHK, int32_t(Tag::Cons));
        emitBoolFromCond(Cond::EQ);
        return true;
    }
    if (op == "not") {
        if (e.size() != 2)
            fatal("mult: bad not: ", e.str());
        compileExpr(e[1], ctx);
        emitTouch(ACC);
        auto l_yes = as.fresh("noty");
        auto l_end = as.fresh("notend");
        emitBranchIfFalse(l_yes);
        as.movi(ACC, tagged::FALSE);
        as.j(Cond::AL, l_end);
        as.bind(l_yes);
        as.movi(ACC, tagged::TRUE);
        as.bind(l_end);
        return true;
    }
    if (op == "and" || op == "or") {
        if (e.size() < 2)
            fatal("mult: bad ", op, ": ", e.str());
        auto l_end = as.fresh("sc");
        for (size_t i = 1; i < e.size(); ++i) {
            compileExpr(e[i], ctx);
            if (i + 1 == e.size())
                break;
            emitTouch(ACC);
            if (op == "and") {
                emitBranchIfFalse(l_end);
            } else {
                auto l_next = as.fresh("or");
                emitBranchIfFalse(l_next);
                as.j(Cond::AL, l_end);
                as.bind(l_next);
            }
        }
        as.bind(l_end);
        return true;
    }

    if (op == "make-vector") {
        if (e.size() != 2 && e.size() != 3)
            fatal("mult: bad make-vector: ", e.str());
        int t = ctx.pushTemp();
        compileExpr(e[1], ctx);
        storeSlot(ACC, t);
        if (e.size() == 3)
            compileExpr(e[2], ctx);
        else
            as.movi(ACC, fixnum(0));
        as.mov(reg::a(1), ACC);
        loadSlot(reg::a(0), t);
        ctx.popTemp();
        as.call(rt::sym::makeVector);
        as.mov(ACC, reg::a(0));
        return true;
    }
    if (op == "vector-ref") {
        compileBinaryOperands(e, ctx);      // OP2 = v, ACC = i
        if (opts.softwareChecks) {
            emitCheck(OP2);
            emitCheck(ACC);
            as.slliR(ACC, ACC, 1);
            as.addR(OP2, OP2, ACC);
            as.load(ACC, OP2, 6, false, false, MissPolicy::Trap, false);
        } else {
            Instruction sh;
            sh.op = Opcode::SLL;
            sh.rd = ACC;
            sh.rs1 = ACC;
            sh.imm = 1;
            sh.useImm = true;
            sh.strict = true;
            as.push(sh);
            as.add(OP2, OP2, ACC);          // strict: touches v
            as.load(ACC, OP2, 6, false, false, MissPolicy::Trap, true);
        }
        return true;
    }
    if (op == "vector-set!") {
        if (e.size() != 4)
            fatal("mult: bad vector-set!: ", e.str());
        int tv = ctx.pushTemp();
        int ti = ctx.pushTemp();
        compileExpr(e[1], ctx);
        storeSlot(ACC, tv);
        compileExpr(e[2], ctx);
        storeSlot(ACC, ti);
        compileExpr(e[3], ctx);
        loadSlot(OP2, tv);
        loadSlot(CHK, ti);
        ctx.popTemp(2);
        if (opts.softwareChecks) {
            emitCheck(OP2);
            emitCheck(CHK);
            as.slliR(CHK, CHK, 1);
            as.addR(OP2, OP2, CHK);
            as.store(ACC, OP2, 6, false, false, MissPolicy::Trap, false);
        } else {
            Instruction sh;
            sh.op = Opcode::SLL;
            sh.rd = CHK;
            sh.rs1 = CHK;
            sh.imm = 1;
            sh.useImm = true;
            sh.strict = true;
            as.push(sh);
            as.add(OP2, OP2, CHK);
            as.store(ACC, OP2, 6, false, false, MissPolicy::Trap, true);
        }
        return true;
    }
    if (op == "vector-length") {
        if (e.size() != 2)
            fatal("mult: bad vector-length: ", e.str());
        compileExpr(e[1], ctx);
        if (opts.softwareChecks) {
            emitCheck(ACC);
            as.load(ACC, ACC, -2, false, false, MissPolicy::Trap, false);
        } else {
            as.load(ACC, ACC, -2, false, false, MissPolicy::Trap, true);
        }
        return true;
    }

    if (op == "println") {
        if (e.size() != 2)
            fatal("mult: bad println: ", e.str());
        compileExpr(e[1], ctx);
        as.stio(int(IoReg::ConsoleOut), ACC);
        return true;
    }

    return false;
}

void
Compiler::compileExpr(const Sexp &e, FnCtx &ctx)
{
    if (e.isInteger()) {
        if (e.num > (1 << 29) - 1 || e.num < -(1 << 29))
            fatal("mult: fixnum overflow: ", e.num);
        as.movi(ACC, fixnum(int32_t(e.num)));
        return;
    }

    if (e.isSymbol()) {
        if (e.sym == "true") {
            as.movi(ACC, tagged::TRUE);
        } else if (e.sym == "false") {
            as.movi(ACC, tagged::FALSE);
        } else if (e.sym == "nil") {
            as.movi(ACC, tagged::NIL);
        } else if (int *slot = ctx.lookup(e.sym)) {
            loadSlot(ACC, *slot);
        } else {
            fatal("mult: unbound variable '", e.sym, "' in ", ctx.name);
        }
        return;
    }

    if (!e.isList() || e.size() == 0)
        fatal("mult: cannot compile ", e.str());
    if (!e[0].isSymbol())
        fatal("mult: operator must be a symbol: ", e.str());
    const std::string &head = e[0].sym;

    if (head == "if") {
        compileIf(e, ctx);
    } else if (head == "let") {
        compileLet(e, ctx);
    } else if (head == "begin") {
        if (e.size() == 1) {
            as.movi(ACC, tagged::NIL);
            return;
        }
        for (size_t i = 1; i < e.size(); ++i)
            compileExpr(e[i], ctx);
    } else if (head == "future") {
        compileFuture(e, ctx);
    } else if (head == "future-on") {
        compileFutureOn(e, ctx);
    } else if (head == "touch") {
        compileTouch(e, ctx);
    } else if (compileBuiltin(head, e, ctx)) {
        // handled
    } else {
        compileCall(head, e, 1, ctx);
    }
}

void
Compiler::compileFunction(const std::string &name,
                          const std::vector<std::string> &params,
                          const Sexp *body_begin, size_t body_count)
{
    if (params.size() > reg::numArgRegs)
        fatal("mult: too many parameters in ", name);
    if (body_count == 0)
        fatal("mult: empty body in ", name);

    as.bind(userLabel(name));

    FnCtx ctx;
    ctx.name = name;
    ctx.scopes.emplace_back();
    ctx.nextSlot = 1;                       // slot 0: saved ra
    as.stnw(reg::ra, sp, wordOff(0));
    for (size_t i = 0; i < params.size(); ++i) {
        int slot = ctx.pushTemp();
        as.stnw(reg::a(unsigned(i)), sp, wordOff(slot));
        ctx.scopes.back()[params[i]] = slot;
    }

    for (size_t i = 0; i < body_count; ++i)
        compileExpr(body_begin[i], ctx);

    as.mov(reg::a(0), ACC);
    as.ldnw(reg::ra, sp, wordOff(0));
    as.ret();

    for (uint32_t idx : ctx.framePatches)
        as.patchImm(idx, wordOff(ctx.maxSlot));
}

void
Compiler::registerDefine(const Sexp &form)
{
    if (!form.isList() || form.size() < 3 || !form[0].isSymbol("define") ||
        !form[1].isList() || form[1].size() == 0 ||
        !form[1][0].isSymbol()) {
        fatal("mult: bad define: ", form.str());
    }
    const std::string &name = form[1][0].sym;
    if (functions.count(name))
        fatal("mult: duplicate definition of ", name);
    functions[name] = {userLabel(name), unsigned(form[1].size() - 1)};
}

void
Compiler::compileDefine(const Sexp &form)
{
    std::vector<std::string> params;
    for (size_t i = 1; i < form[1].size(); ++i) {
        if (!form[1][i].isSymbol())
            fatal("mult: bad parameter in ", form.str());
        params.push_back(form[1][i].sym);
    }
    compileFunction(form[1][0].sym, params, form.items.data() + 2,
                    form.size() - 2);
}

void
Compiler::compileProgram(const std::vector<Sexp> &forms)
{
    for (const Sexp &f : forms)
        registerDefine(f);
    if (!functions.count("main") || functions["main"].arity != 0)
        fatal("mult: program needs (define (main) ...)");

    for (const Sexp &f : forms)
        compileDefine(f);

    // Drain lambda-lifted future bodies (which may create more).
    while (!pendingLifts.empty()) {
        Lifted l = std::move(pendingLifts.back());
        pendingLifts.pop_back();
        compileFunction(l.name, l.params, &l.body, 1);
    }
}

void
Compiler::compileSource(const std::string &source)
{
    compileProgram(readAll(source));
}

Program
compileProgram(const std::string &source, const CompileOptions &opts,
               rt::RuntimeOptions runtime)
{
    runtime.encore = opts.softwareChecks;
    Assembler as;
    rt::Runtime{runtime}.emit(as);
    Compiler{as, opts}.compileSource(source);
    return as.finish();
}

} // namespace april::mult

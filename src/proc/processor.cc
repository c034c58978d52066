#include "proc/processor.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"
#include "profile/pc_sampler.hh"

namespace april
{

namespace
{

/** traps<Kind> statistic text, built once per process. */
const std::vector<stats::FamilyText> &
trapText()
{
    static const std::vector<stats::FamilyText> table = [] {
        std::vector<stats::FamilyText> t;
        for (size_t k = 0; k < size_t(TrapKind::NumKinds); ++k) {
            const std::string kind = trapKindName(TrapKind(k));
            t.push_back({"traps" + kind, kind + " traps"});
        }
        return t;
    }();
    return table;
}

/** cycles<Bucket> statistic text, built once per process. */
const std::vector<stats::FamilyText> &
bucketText()
{
    static const std::vector<stats::FamilyText> table = [] {
        std::vector<stats::FamilyText> t;
        for (size_t b = 0; b < profile::kNumBuckets; ++b) {
            const std::string bucket =
                profile::bucketName(profile::Bucket(b));
            t.push_back({"cycles" + bucket,
                         "cycles attributed to the " + bucket +
                             " bucket"});
        }
        return t;
    }();
    return table;
}

} // namespace

Processor::Processor(const ProcParams &p, const Program *program,
                     MemPort *mem_port, IoPort *io_port,
                     stats::Group *parent)
    : stats::Group("proc" + std::to_string(p.nodeId), parent),
      statCycles(this, "cycles", "total cycles"),
      statInsts(this, "insts", "completed instructions"),
      statStallCycles(this, "stallCycles", "hold cycles (MHOLD etc.)"),
      statTrapCycles(this, "trapCycles", "trap-entry squash cycles"),
      statSwitches(this, "contextSwitches", "context switches"),
      statUtilization(this, "utilization",
                      "useful-cycle fraction "
                      "((Useful + Hazard buckets) / cycles)",
                      [this] {
                          return statCycles.value()
                              ? (statBuckets[size_t(
                                     profile::Bucket::Useful)].value() +
                                 statBuckets[size_t(
                                     profile::Bucket::Hazard)].value())
                                  / statCycles.value()
                              : 0.0;
                      }),
      statSwitchGap(this, "switchGap",
                    "cycles between consecutive context switches"),
      params(p), prog(program), mem(mem_port), io(io_port),
      frames(p.numFrames)
{
    if (p.numFrames == 0)
        fatal("Processor: at least one task frame required");
    statTraps.reserve(trapText().size());
    for (const stats::FamilyText &t : trapText())
        statTraps.emplace_back(this, t.nameText(), t.descText());
    statBuckets.reserve(bucketText().size());
    for (const stats::FamilyText &t : bucketText())
        statBuckets.emplace_back(this, t.nameText(), t.descText());
    frameCycles_.resize(p.numFrames);
    spinArmed_.assign(p.numFrames, 0);
    spinPc_.assign(p.numFrames, 0);
    vectorSet.fill(false);
    vectors.fill(0);
    setFrame(0);
}

void
Processor::account(uint32_t frame, profile::Bucket b)
{
    ++statBuckets[size_t(b)];
    ++frameCycles_[frame][size_t(b)];
    if (b == profile::Bucket::Useful && spinArmed_[frame]) {
        spinArmed_[frame] = 0;
        --spinArmedCount_;
    }
}

profile::Bucket
Processor::bucketForTrap(TrapKind kind)
{
    switch (kind) {
      case TrapKind::RemoteMiss:
      case TrapKind::FeFull:
      case TrapKind::FeEmpty:
        return profile::Bucket::Switch;
      default:
        return profile::Bucket::Trap;
    }
}

void
Processor::verifyCycleAccounting() const
{
    double sum = 0;
    for (const stats::Scalar &s : statBuckets)
        sum += s.value();
    if (sum != statCycles.value()) {
        panic("cycle accounting broken on node ", params.nodeId,
              ": bucket sum ", sum, " != cycles ", statCycles.value());
    }
    uint64_t frame_sum = 0;
    for (const auto &row : frameCycles_)
        for (uint64_t v : row)
            frame_sum += v;
    if (double(frame_sum) != statCycles.value()) {
        panic("per-frame cycle accounting broken on node ",
              params.nodeId, ": matrix sum ", frame_sum, " != cycles ",
              statCycles.value());
    }
}

void
Processor::resetOwnState()
{
    for (auto &row : frameCycles_)
        row.fill(0);
}

void
Processor::setFrame(uint32_t f)
{
    _fp = f;
    Frame &fr = frames[f];
    for (unsigned i = 0; i < reg::numUser; ++i)
        regTable[i] = &fr.regs[i];
    for (unsigned i = 0; i < reg::numGlobal; ++i)
        regTable[reg::numUser + i] = &globals[i];
    for (unsigned i = 0; i < reg::numTrap; ++i)
        regTable[reg::numUser + reg::numGlobal + i] = &fr.trapRegs[i];
}

void
Processor::reset(uint32_t entry_pc)
{
    for (Frame &f : frames)
        f = Frame{};
    globals.fill(0);
    setFrame(0);
    _pc = entry_pc;
    _npc = entry_pc + 1;
    _psr = psr::ET;
    _fence = 0;
    _halted = false;
    stall = 0;
    ipiPosted = false;
    handlerBucket_ = profile::Bucket::Useful;
    stallBucket_ = profile::Bucket::Hazard;
    std::fill(spinArmed_.begin(), spinArmed_.end(), uint8_t(0));
    spinArmedCount_ = 0;
}

Word
Processor::readReg(uint8_t r) const
{
    if (r >= reg::numNames)
        panic("register read out of range: ", int(r));
    return r == reg::r0 ? 0 : *regTable[r];
}

void
Processor::writeReg(uint8_t r, Word v)
{
    if (r >= reg::numNames)
        panic("register write out of range: ", int(r));
    if (r != reg::r0)           // r0 is hardwired zero
        *regTable[r] = v;
}

void
Processor::setTrapVector(TrapKind kind, uint32_t entry_pc)
{
    vectors[size_t(kind)] = entry_pc;
    vectorSet[size_t(kind)] = true;
}

uint32_t
Processor::trapVector(TrapKind kind) const
{
    return vectors[size_t(kind)];
}

void
Processor::postIpi(Word arg)
{
    ipiPosted = true;
    ipiArg = arg;
}

void
Processor::setConditions(Word result)
{
    _psr &= ~(psr::Z | psr::N);
    if (result == 0)
        _psr |= psr::Z;
    if (int32_t(result) < 0)
        _psr |= psr::N;
}

bool
Processor::condTrue(Cond c) const
{
    bool z = _psr & psr::Z;
    bool n = _psr & psr::N;
    bool f = _psr & psr::F;
    switch (c) {
      case Cond::AL: return true;
      case Cond::EQ: return z;
      case Cond::NE: return !z;
      case Cond::LT: return n;
      case Cond::GE: return !n;
      case Cond::LE: return z || n;
      case Cond::GT: return !z && !n;
      case Cond::FULL: return f;
      case Cond::EMPTY: return !f;
    }
    return false;
}

Word
Processor::operand2(const Instruction &inst) const
{
    return inst.useImm ? Word(inst.imm) : readReg(inst.rs2);
}

void
Processor::fireTaskProbe(const task::Site &s)
{
    Word a = 0;
    Word x = 0;
    if (s.addrReg != task::kNoReg) {
        a = readReg(s.addrReg);
        if (s.addrPtr)
            a = Word(tagged::ptrAddr(a));
    }
    if (s.auxReg != task::kNoReg) {
        x = readReg(s.auxReg);
        if (s.auxPtr)
            x = Word(tagged::ptrAddr(x));
    }
    taskRecord(s.kind, Addr(a), uint32_t(x));
}

void
Processor::taskRecord(task::Ev kind, Addr addr, uint32_t aux)
{
    if (!taskLane_)
        return;
    // The work stamp snapshots this frame's Useful+Hazard counters;
    // they advance only on executed instructions, so the stamp (and
    // with it the whole event) is invariant under cycle skipping.
    const auto &row = frameCycles_[_fp];
    taskLane_->record({_cycle,
                       row[size_t(profile::Bucket::Useful)] +
                           row[size_t(profile::Bucket::Hazard)],
                       params.nodeId, addr, aux, kind, uint8_t(_fp)});
}

void
Processor::noteSwitch(uint32_t from, uint32_t to)
{
    ++statSwitches;
    statSwitchGap.sample(int64_t(_cycle - lastSwitchCycle_));
    lastSwitchCycle_ = _cycle;
    taskRecord(task::Ev::FrameSwitch, Addr(from), to);
    if (trec) {
        trec->record({_cycle, params.nodeId, trace::EventKind::CtxSwitch,
                      uint8_t(from), uint8_t(to), _pc, 0});
    }
    TRACE(Ctx, "c", _cycle, " n", params.nodeId, " switch f", from,
          "->f", to, " pc=", _pc);
}

void
Processor::takeTrap(TrapKind kind, Word arg, Word va)
{
    ++statTraps[size_t(kind)];
    if (trec) {
        trec->record({_cycle, params.nodeId, trace::EventKind::Trap,
                      uint8_t(kind), 0, _pc, 0});
    }
    TRACE(Trap, "c", _cycle, " n", params.nodeId, " ",
          trapKindName(kind), " trap at pc=", _pc, " arg=", arg);
    if (taskLane_) {
        // Future touches are the runtime's wait vocabulary: log them
        // with the touched cell's word address. (f/e faults are logged
        // at the memory path instead, where the address is at hand.)
        if (kind == TrapKind::FutureCompute) {
            taskRecord(task::Ev::Touch,
                       Addr(tagged::ptrAddr(readReg(uint8_t(arg)))), 0);
        } else if (kind == TrapKind::FutureMemory) {
            taskRecord(task::Ev::Touch, Addr(tagged::ptrAddr(va)), 0);
        }
    }
    redirected = true;

    // Classify the trap (§7.5). Switch-class traps feed the spin
    // detector: a repeat trap at the same PC while every frame is
    // armed means the frame revolution found no runnable work.
    profile::Bucket b = bucketForTrap(kind);
    if (b == profile::Bucket::Switch) {
        if (spinArmed_[_fp] && spinPc_[_fp] == _pc) {
            if (spinArmedCount_ == params.numFrames)
                b = profile::Bucket::Idle;
        } else {
            if (!spinArmed_[_fp]) {
                spinArmed_[_fp] = 1;
                ++spinArmedCount_;
            }
            spinPc_[_fp] = _pc;
        }
    }
    cycleBucket_ = b;
    stallBucket_ = b;

    Frame &f = frames[_fp];
    f.trapPC = _pc;
    f.trapNPC = _npc;
    f.trapType = kind;
    f.trapArg = arg;
    f.trapVA = va;

    if (kind == TrapKind::RemoteMiss &&
        params.switchMode == ProcParams::SwitchMode::Hardware) {
        hardwareSwitch();
        return;
    }

    if (!(_psr & psr::ET)) {
        panic("nested ", trapKindName(kind), " trap at pc=", _pc, " [",
              prog->symbolAt(_pc), "] on node ", params.nodeId,
              ": handlers must use non-trapping access flavors");
    }

    if (!vectorSet[size_t(kind)]) {
        panic("trap kind ", trapKindName(kind), " has no vector; pc=",
              _pc, " [", prog->symbolAt(_pc), "] node ", params.nodeId);
    }

    handlerBucket_ = b;
    _psr &= ~psr::ET;
    _pc = vectors[size_t(kind)];
    _npc = _pc + 1;
    // The instruction consumed this cycle; the remaining squash
    // cycles stall the front end (5-cycle total entry by default).
    stall += params.trapEntryCycles - 1;
    statTrapCycles += params.trapEntryCycles;
}

void
Processor::hardwareSwitch()
{
    redirected = true;
    uint32_t prev = _fp;
    Frame &f = frames[_fp];
    f.savedPsr = _psr;
    setFrame((_fp + 1) % params.numFrames);
    Frame &g = frames[_fp];
    _psr = g.savedPsr | psr::ET;
    _pc = g.trapPC;
    _npc = g.trapNPC;
    stall += params.hwSwitchCycles - 1;
    noteSwitch(prev, _fp);
}

void
Processor::tick()
{
    if (_halted)
        return;
    ++_cycle;
    ++statCycles;
    if (pcSampler_)
        pcSampler_->tick(_cycle, _pc);

    // Every cycle is attributed to the frame active when it starts;
    // a mid-cycle switch (takeTrap/INCFP) charges the switcher.
    uint32_t acct_frame = _fp;

    if (stall > 0) {
        --stall;
        ++statStallCycles;
        account(acct_frame, stallBucket_);
        return;
    }

    // Instruction cycles default to the execution context (user code
    // or a handler); execute paths override for faults and holds.
    cycleBucket_ = handlerBucket_;

    if (ipiPosted && (_psr & psr::ET)) {
        ipiPosted = false;
        takeTrap(TrapKind::Ipi, ipiArg);
        account(acct_frame, cycleBucket_);
        return;
    }

    const Instruction &inst = prog->at(_pc);
    uint32_t exec_pc = _pc;
    execute(inst);
    // A probe fires when its marked instruction completes: a trapped
    // or MHOLD-retried execution redirects and records nothing, so
    // each completed execution logs exactly one event with the site's
    // payload registers still live.
    if (taskProbes_ && !redirected) {
        if (const task::Site *s = taskProbes_->at(exec_pc))
            fireTaskProbe(*s);
    }
    account(acct_frame, cycleBucket_);
}

uint64_t
Processor::run(uint64_t max_cycles)
{
    uint64_t start = _cycle;
    while (!_halted && _cycle - start < max_cycles)
        tick();
    return _cycle - start;
}

uint64_t
Processor::nextEventCycle() const
{
    if (_halted)
        return kNeverCycle;
    // Ticks _cycle+1 .. _cycle+stall only decrement the stall counter;
    // the first tick that executes again is the one after.
    if (stall > 0)
        return _cycle + stall + 1;
    return _cycle + 1;
}

void
Processor::skipCycles(uint64_t cycles)
{
    if (_halted || cycles == 0)
        return;
    if (cycles > stall) {
        panic("Processor::skipCycles(", cycles, ") overruns the next "
              "event (stall=", stall, ") on node ", params.nodeId);
    }
    if (pcSampler_)
        pcSampler_->skip(_cycle, cycles, _pc);
    _cycle += cycles;
    statCycles += double(cycles);
    statStallCycles += double(cycles);
    // The whole window drains one stall whose bucket is already
    // decided; bulk-credit it exactly as per-cycle ticks would.
    statBuckets[size_t(stallBucket_)] += double(cycles);
    frameCycles_[_fp][size_t(stallBucket_)] += cycles;
    stall -= uint32_t(cycles);
}

void
Processor::executeCompute(const Instruction &inst)
{
    Word a = readReg(inst.rs1);
    Word b = operand2(inst);

    // Hardware future detection (Section 5): a strict operation traps
    // when an operand has a non-zero least-significant bit.
    if (inst.strict) {
        if (tagged::isFuture(a)) {
            takeTrap(TrapKind::FutureCompute, inst.rs1);
            return;
        }
        if (!inst.useImm && tagged::isFuture(b)) {
            takeTrap(TrapKind::FutureCompute, inst.rs2);
            return;
        }
    }

    Word r = 0;
    switch (inst.op) {
      case Opcode::ADD: r = a + b; break;
      case Opcode::SUB: r = a - b; break;
      case Opcode::MUL:
        // Widen before multiplying: int32 * int32 overflows (UB) on
        // plenty of legitimate tagged operands; the architected result
        // is the low 32 bits of the full product.
        r = Word(int64_t(int32_t(a)) * int64_t(int32_t(b)));
        stallBucket_ = profile::Bucket::Hazard;
        stall += params.mulCycles - 1;
        break;
      case Opcode::DIV:
        if (b == 0)
            panic("DIV by zero at pc=", _pc, " [", prog->symbolAt(_pc), "]");
        // INT_MIN / -1 overflows (UB in C++); the hardware quotient
        // wraps back to INT_MIN. Widen to make that case defined.
        r = Word(int64_t(int32_t(a)) / int64_t(int32_t(b)));
        stallBucket_ = profile::Bucket::Hazard;
        stall += params.divCycles - 1;
        break;
      case Opcode::REM:
        if (b == 0)
            panic("REM by zero at pc=", _pc, " [", prog->symbolAt(_pc), "]");
        r = Word(int64_t(int32_t(a)) % int64_t(int32_t(b)));
        stallBucket_ = profile::Bucket::Hazard;
        stall += params.divCycles - 1;
        break;
      case Opcode::AND: r = a & b; break;
      case Opcode::OR: r = a | b; break;
      case Opcode::XOR: r = a ^ b; break;
      case Opcode::SLL: r = a << (b & 31); break;
      case Opcode::SRL: r = a >> (b & 31); break;
      case Opcode::SRA: r = Word(int32_t(a) >> (b & 31)); break;
      default:
        panic("executeCompute: bad opcode");
    }

    writeReg(inst.rd, r);
    setConditions(r);
    ++statInsts;
}

void
Processor::executeMemory(const Instruction &inst)
{
    Word ea_raw = readReg(inst.rs1) + Word(inst.imm);

    // Memory instructions share responsibility for detecting futures
    // in their address operands (Section 4): supports implicit touch
    // on dereference (e.g. car of a future in LISP).
    if (inst.strict && tagged::isFuture(ea_raw)) {
        takeTrap(TrapKind::FutureMemory, inst.rs1, ea_raw);
        return;
    }

    MemAccess req;
    req.addr = Addr(ea_raw >> tagged::tagShift);
    req.feTrap = inst.feTrap;
    req.feModify = inst.feModify;
    req.miss = inst.miss;
    req.frame = uint8_t(_fp);
    req.trapsEnabled = (_psr & psr::ET) != 0;

    switch (inst.op) {
      case Opcode::LD: req.op = MemOp::Load; break;
      case Opcode::ST:
        req.op = MemOp::Store;
        req.storeData = readReg(inst.rd);
        break;
      case Opcode::TAS:
        req.op = MemOp::Tas;
        req.storeData = 1;
        break;
      case Opcode::FLUSH: req.op = MemOp::Flush; break;
      default:
        panic("executeMemory: bad opcode");
    }

    MemResult res = mem->access(req);
    switch (res.kind) {
      case MemResult::Kind::Ready:
        break;
      case MemResult::Kind::FeFault:
        // A failed synchronization attempt: the handler will retry
        // (or queue the thread), so this word is a contention point.
        if (trec) {
            trec->record({_cycle, params.nodeId,
                          trace::EventKind::FeRetry,
                          uint8_t(inst.op == Opcode::ST), 0,
                          uint32_t(req.addr), 0});
        }
        TRACE(FE, "c", _cycle, " n", params.nodeId, " f/e ",
              inst.op == Opcode::ST ? "full" : "empty",
              " fault addr=", req.addr, " pc=", _pc);
        taskRecord(task::Ev::FeStall, req.addr, 0);
        takeTrap(inst.op == Opcode::ST ? TrapKind::FeFull
                                       : TrapKind::FeEmpty,
                 inst.rs1, ea_raw);
        return;
      case MemResult::Kind::Switch:
        takeTrap(TrapKind::RemoteMiss, inst.rs1, ea_raw);
        return;
      case MemResult::Kind::Retry:
        // MHOLD: stay on this instruction; the cycle is a stall.
        // Memory wait beats handler context in the accounting (§7.5).
        redirected = true;          // keep the PC chain in place
        ++statStallCycles;
        cycleBucket_ = profile::Bucket::LocalMiss;
        return;
    }

    // Cache-fill / local-memory hold cycles (and the TAS penalty
    // below) drain as memory wait.
    stallBucket_ = profile::Bucket::LocalMiss;
    stall += res.extraCycles;

    // Latch the observed f/e state into the condition bit so that
    // Jfull/Jempty can dispatch on it (Section 4).
    if (res.wasFull)
        _psr |= psr::F;
    else
        _psr &= ~psr::F;

    if (inst.op == Opcode::LD) {
        writeReg(inst.rd, res.data);
        // A non-trapping read-and-empty that found the word already
        // empty is a failed lock acquire spinning in software (the
        // Jempty-retry idiom): a contention point like a TAS retry.
        if (inst.feModify && !inst.feTrap && !res.wasFull)
            taskRecord(task::Ev::TasRetry, req.addr, 0);
    } else if (inst.op == Opcode::TAS) {
        writeReg(inst.rd, res.data);
        setConditions(res.data);
        stall += params.tasExtraCycles;
        if (res.data != 0)
            taskRecord(task::Ev::TasRetry, req.addr, 0);
    } else if (inst.op == Opcode::FLUSH) {
        // "A fence counter is incremented for each dirty cache line
        // that is flushed and decremented for each acknowledgement
        // from memory" (Section 3.4). The controller acks later via
        // decFence(); a clean or absent line contributes nothing.
        _fence += res.fenceDelta;
    }
    ++statInsts;
}

void
Processor::execute(const Instruction &inst)
{
    uint32_t next_pc = _npc;
    uint32_t next_npc = _npc + 1;
    redirected = false;

    if (inst.isCompute()) {
        executeCompute(inst);
        if (!redirected) {
            _pc = next_pc;
            _npc = next_npc;
        }
        return;
    }

    if (inst.isMemory()) {
        executeMemory(inst);
        if (!redirected) {
            _pc = next_pc;
            _npc = next_npc;
        }
        return;
    }

    switch (inst.op) {
      case Opcode::MOVI:
        writeReg(inst.rd, Word(inst.imm));
        break;

      case Opcode::J:
        if (condTrue(inst.cond))
            next_npc = uint32_t(inst.imm);
        break;

      case Opcode::JMPL: {
        uint32_t target = inst.useImm
            ? uint32_t(inst.imm)
            : uint32_t(int32_t(readReg(inst.rs1)) + inst.imm);
        writeReg(inst.rd, Word(_npc + 1));     // link past the delay slot
        next_npc = target;
        break;
      }

      // In the SPARC-based design (TrapHandler mode) INCFP/DECFP only
      // rotate the register frame, like SAVE/RESTORE rotate windows;
      // the PC chain is global and the surrounding handler manages the
      // saved chain. In the custom-APRIL design (Hardware mode) the FP
      // change *is* the 4-cycle hardware context switch: the per-frame
      // PC chain and PSR swap automatically (Section 6.1).
      case Opcode::INCFP:
      case Opcode::DECFP: {
        uint32_t prev = _fp;
        if (params.switchMode == ProcParams::SwitchMode::Hardware) {
            // The FP change *is* the context switch here; its cycle
            // and the hardware drain are switch overhead. (In
            // TrapHandler mode the surrounding cswitch handler already
            // classifies these cycles via handlerBucket_.)
            cycleBucket_ = profile::Bucket::Switch;
            stallBucket_ = profile::Bucket::Switch;
            Frame &f = frames[_fp];
            f.trapPC = next_pc;         // resume after the switch inst
            f.trapNPC = next_npc;
            f.savedPsr = _psr;
            setFrame(inst.op == Opcode::INCFP
                         ? (_fp + 1) % params.numFrames
                         : (_fp + params.numFrames - 1) %
                               params.numFrames);
            Frame &g = frames[_fp];
            _psr = g.savedPsr | psr::ET;
            _pc = g.trapPC;
            _npc = g.trapNPC;
            stall += params.hwSwitchCycles - 1;
            noteSwitch(prev, _fp);
            ++statInsts;
            return;
        }
        setFrame(inst.op == Opcode::INCFP
                     ? (_fp + 1) % params.numFrames
                     : (_fp + params.numFrames - 1) % params.numFrames);
        noteSwitch(prev, _fp);
        break;
      }
      case Opcode::RDFP:
        writeReg(inst.rd, Word(_fp));
        break;
      case Opcode::STFP:
        setFrame(readReg(inst.rs1) % params.numFrames);
        break;

      case Opcode::RDPSR:
        writeReg(inst.rd, _psr);
        break;
      case Opcode::WRPSR:
        _psr = readReg(inst.rs1);
        break;

      case Opcode::RDSPEC: {
        const Frame &f = frames[_fp];
        Word v = 0;
        switch (Spec(inst.imm)) {
          case Spec::TrapPC: v = f.trapPC; break;
          case Spec::TrapNPC: v = f.trapNPC; break;
          case Spec::TrapType: v = Word(f.trapType); break;
          case Spec::TrapArg: v = f.trapArg; break;
          case Spec::TrapVA: v = f.trapVA; break;
          case Spec::NodeId: v = params.nodeId; break;
          case Spec::FrameId: v = _fp; break;
          case Spec::NumFrames: v = params.numFrames; break;
          case Spec::CycleLo: v = Word(_cycle); break;
        }
        writeReg(inst.rd, v);
        break;
      }

      case Opcode::WRSPEC: {
        Frame &f = frames[_fp];
        Word v = readReg(inst.rs1);
        switch (Spec(inst.imm)) {
          case Spec::TrapPC: f.trapPC = v; break;
          case Spec::TrapNPC: f.trapNPC = v; break;
          case Spec::TrapType: f.trapType = TrapKind(v); break;
          case Spec::TrapArg: f.trapArg = v; break;
          case Spec::TrapVA: f.trapVA = v; break;
          default:
            panic("WRSPEC: read-only special register ", inst.imm);
        }
        break;
      }

      case Opcode::RDREGX:
        writeReg(inst.rd,
                 readReg(uint8_t(readReg(inst.rs1) % reg::numNames)));
        break;
      case Opcode::WRREGX:
        writeReg(uint8_t(readReg(inst.rs1) % reg::numNames),
                 readReg(inst.rs2));
        break;

      case Opcode::RETT: {
        const Frame &f = frames[_fp];
        if (inst.imm == 0) {            // retry the trapped instruction
            _pc = f.trapPC;
            _npc = f.trapNPC;
        } else {                        // skip it
            _pc = f.trapNPC;
            _npc = f.trapNPC + 1;
        }
        _psr |= psr::ET;
        // Leaving the handler: subsequent instruction cycles are user
        // code again. This RETT's own cycle still counts as handler
        // (cycleBucket_ was latched at tick entry).
        handlerBucket_ = profile::Bucket::Useful;
        ++statInsts;
        return;
      }

      case Opcode::TRAP: {
        int v = inst.imm;
        if (v < 0 || v > 7)
            panic("TRAP: bad software vector ", v);
        takeTrap(TrapKind(int(TrapKind::SoftTrap0) + v));
        return;
      }

      case Opcode::RDFENCE:
        writeReg(inst.rd, _fence);
        break;

      case Opcode::STIO:
        // I/O holds (e.g. the block-transfer engine) are hazards.
        stallBucket_ = profile::Bucket::Hazard;
        stall += io->ioWrite(IoReg(inst.imm), readReg(inst.rd));
        break;
      case Opcode::LDIO:
        writeReg(inst.rd, io->ioRead(IoReg(inst.imm)));
        break;

      case Opcode::HALT:
        _halted = true;
        ++statInsts;
        return;

      case Opcode::NOP:
        break;

      default:
        panic("unimplemented opcode at pc=", _pc);
    }

    ++statInsts;
    _pc = next_pc;
    _npc = next_npc;
}

} // namespace april

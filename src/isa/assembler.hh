/**
 * @file
 * Macro-assembler for the APRIL instruction set.
 *
 * The run-time system (Section 6) and the Mul-T compiler back end both
 * emit code through this interface. Labels are symbolic and resolved
 * to absolute instruction addresses by finish().
 *
 * Branch discipline: APRIL has a single-cycle branch delay slot
 * (Section 3). The convenience emitters (j, call, ret, ...) append a
 * NOP into the slot automatically; the *Raw variants leave the slot to
 * the caller so hand-scheduled sequences (e.g. the 6-cycle context
 * switch handler) can fill it.
 */

#ifndef APRIL_ISA_ASSEMBLER_HH
#define APRIL_ISA_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/types.hh"

namespace april
{

/** A fully assembled instruction image plus its symbol table. */
class Program
{
  public:
    /** @return the instruction at address @p pc. */
    const Instruction &
    at(uint32_t pc) const
    {
        if (pc >= _insts.size())
            panic("instruction fetch past end of program: pc=", pc);
        return _insts[pc];
    }

    uint32_t size() const { return uint32_t(_insts.size()); }

    /** Resolve a symbol to its instruction address. */
    uint32_t entry(const std::string &sym) const;

    /** @return true when the symbol is defined. */
    bool hasSymbol(const std::string &sym) const;

    /** Nearest symbol at or before @p pc (for diagnostics). */
    std::string symbolAt(uint32_t pc) const;

    /** The full symbol table (name -> instruction address). */
    const std::map<std::string, uint32_t> &symbols() const { return _symbols; }

    /**
     * Out-of-band annotations (name, pc) in emission order. Unlike
     * symbols, notes never participate in symbolAt()/listing(), so
     * instrumentation markers (e.g. the task-probe `tp$...` notes) do
     * not perturb profiler symbolization. Several notes may share a
     * pc, and the same name may appear at several pcs.
     */
    const std::vector<std::pair<std::string, uint32_t>> &
    notes() const
    {
        return _notes;
    }

    /** Render the whole program as assembly text. */
    std::string listing() const;

  private:
    friend class Assembler;

    std::vector<Instruction> _insts;
    std::map<std::string, uint32_t> _symbols;
    std::vector<std::pair<std::string, uint32_t>> _notes;
};

/** A label problem found while assembling (see Assembler::finish). */
struct AsmDiagnostic
{
    /// Instruction address of the offending bind / reference site.
    uint32_t where = 0;
    std::string message;
};

/** Incremental program builder with label fix-ups. */
class Assembler
{
  public:
    using Label = std::string;

    /**
     * Define @p name at the current position. Binding a label twice is
     * recorded as a diagnostic (the first binding wins) and reported at
     * finish() time rather than asserting immediately.
     */
    void bind(const Label &name);

    /** Create a fresh unique label (not yet bound). */
    Label fresh(const std::string &prefix = "L");

    /**
     * Attach an out-of-band note naming the current position. Notes
     * land in Program::notes(), not the symbol table: they are
     * invisible to symbolAt()/listing() and may repeat freely.
     */
    void note(const std::string &name) { notes.push_back({name, here()}); }

    /** Current instruction address. */
    uint32_t here() const { return uint32_t(insts.size()); }

    /**
     * Resolve fix-ups and produce the final Program. Panics if any
     * label was bound twice or referenced but never bound, listing
     * every such diagnostic.
     */
    Program finish();

    /**
     * Non-panicking variant: label problems are appended to @p diags
     * (undefined references leave their branches pointing at 0).
     * Callers with untrusted input — the text assembler, fuzz tooling —
     * use this to report instead of aborting.
     */
    Program finish(std::vector<AsmDiagnostic> &diags);

    // --- compute -----------------------------------------------------
    // Strict forms trap when an operand is a future (Section 4);
    // the raw (suffix R) forms are for run-time-internal arithmetic.

    void add(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::ADD, rd, rs1, rs2, true); }
    void sub(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::SUB, rd, rs1, rs2, true); }
    void mul(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::MUL, rd, rs1, rs2, true); }
    void div(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::DIV, rd, rs1, rs2, true); }
    void rem(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::REM, rd, rs1, rs2, true); }

    void addi(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::ADD, rd, rs1, imm, true); }
    void subi(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::SUB, rd, rs1, imm, true); }

    void addR(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::ADD, rd, rs1, rs2, false); }
    void subR(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::SUB, rd, rs1, rs2, false); }
    void mulR(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::MUL, rd, rs1, rs2, false); }
    void addiR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::ADD, rd, rs1, imm, false); }
    void subiR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::SUB, rd, rs1, imm, false); }
    void andR(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::AND, rd, rs1, rs2, false); }
    void andiR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::AND, rd, rs1, imm, false); }
    void orR(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::OR, rd, rs1, rs2, false); }
    void oriR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::OR, rd, rs1, imm, false); }
    void xorR(uint8_t rd, uint8_t rs1, uint8_t rs2) { alu3(Opcode::XOR, rd, rs1, rs2, false); }
    void slliR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::SLL, rd, rs1, imm, false); }
    void srliR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::SRL, rd, rs1, imm, false); }
    void sraiR(uint8_t rd, uint8_t rs1, int32_t imm) { alui(Opcode::SRA, rd, rs1, imm, false); }

    /** Strict compare: SUB to r0 (sets condition codes only). */
    void cmp(uint8_t rs1, uint8_t rs2) { alu3(Opcode::SUB, reg::r0, rs1, rs2, true); }
    /** Raw compare (no future trap). */
    void cmpR(uint8_t rs1, uint8_t rs2) { alu3(Opcode::SUB, reg::r0, rs1, rs2, false); }
    void cmpiR(uint8_t rs1, int32_t imm) { alui(Opcode::SUB, reg::r0, rs1, imm, false); }

    /** rd <- full 32-bit immediate. */
    void movi(uint8_t rd, Word value);
    /** rd <- address of label (a code pointer), fixed up at finish(). */
    void moviLabel(uint8_t rd, const Label &target);
    /** Register move (raw). */
    void mov(uint8_t rd, uint8_t rs) { alui(Opcode::OR, rd, rs, 0, false); }

    // --- memory (Table 2) ---------------------------------------------
    // Generic emitters; fe_trap = trap on empty (LD) / full (ST),
    // fe_modify = reset-to-empty (LD) / set-to-full (ST).

    void load(uint8_t rd, uint8_t base, int32_t off, bool fe_trap,
              bool fe_modify, MissPolicy miss, bool strict = true);
    void store(uint8_t rs, uint8_t base, int32_t off, bool fe_trap,
               bool fe_modify, MissPolicy miss, bool strict = true);

    // Table 2 load flavors (offsets are raw; one word == 8).
    void ldtt(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, true, false, MissPolicy::Trap); }
    void ldett(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, true, true, MissPolicy::Trap); }
    void ldnt(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, false, false, MissPolicy::Trap); }
    void ldent(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, false, true, MissPolicy::Trap); }
    void ldnw(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, false, false, MissPolicy::Wait); }
    void ldenw(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, false, true, MissPolicy::Wait); }
    void ldtw(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, true, false, MissPolicy::Wait); }
    void ldetw(uint8_t rd, uint8_t b, int32_t o) { load(rd, b, o, true, true, MissPolicy::Wait); }

    // Store duals (trap on *full*; 'f' sets the bit to full).
    void sttt(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, true, false, MissPolicy::Trap); }
    void stftt(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, true, true, MissPolicy::Trap); }
    void stnt(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, false, false, MissPolicy::Trap); }
    void stfnt(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, false, true, MissPolicy::Trap); }
    void stnw(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, false, false, MissPolicy::Wait); }
    void stfnw(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, false, true, MissPolicy::Wait); }
    void sttw(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, true, false, MissPolicy::Wait); }
    void stftw(uint8_t rs, uint8_t b, int32_t o) { store(rs, b, o, true, true, MissPolicy::Wait); }

    /** Atomic test&set (Encore-style synchronization). */
    void tas(uint8_t rd, uint8_t base, int32_t off);

    // --- control flow --------------------------------------------------

    /** Conditional branch; a NOP fills the delay slot. */
    void j(Cond cond, const Label &target);
    /** Branch leaving the delay slot to the caller. */
    void jRaw(Cond cond, const Label &target);

    /** Call a known function: link into `ra`, NOP in the slot. */
    void call(const Label &target);
    void callRaw(const Label &target);
    /** Indirect call through a register. */
    void callReg(uint8_t rs);
    /** Return: jmpl r0, ra+0 with a NOP slot. */
    void ret();
    void retRaw();
    /** Raw register-indirect jump (no link). */
    void jmpReg(uint8_t rs, int32_t off = 0);

    // --- multithreading / traps ----------------------------------------

    void incfp() { push({.op = Opcode::INCFP}); }
    void decfp() { push({.op = Opcode::DECFP}); }
    void rdfp(uint8_t rd) { push({.op = Opcode::RDFP, .rd = rd}); }
    void stfp(uint8_t rs) { push({.op = Opcode::STFP, .rs1 = rs}); }
    void rdpsr(uint8_t rd) { push({.op = Opcode::RDPSR, .rd = rd}); }
    void wrpsr(uint8_t rs) { push({.op = Opcode::WRPSR, .rs1 = rs}); }
    void rdspec(uint8_t rd, Spec s) { push({.op = Opcode::RDSPEC, .rd = rd, .imm = int32_t(s)}); }
    void wrspec(Spec s, uint8_t rs) { push({.op = Opcode::WRSPEC, .rs1 = rs, .imm = int32_t(s)}); }
    void rdregx(uint8_t rd, uint8_t ridx) { push({.op = Opcode::RDREGX, .rd = rd, .rs1 = ridx}); }
    void wrregx(uint8_t ridx, uint8_t rval) { push({.op = Opcode::WRREGX, .rs1 = ridx, .rs2 = rval}); }
    void rettRetry() { push({.op = Opcode::RETT, .imm = 0}); }
    void rettSkip() { push({.op = Opcode::RETT, .imm = 1}); }
    void trap(int vec) { push({.op = Opcode::TRAP, .imm = vec}); }

    // --- out-of-band mechanisms (Section 3.4) ---------------------------

    void flushLine(uint8_t base, int32_t off);
    void rdfence(uint8_t rd) { push({.op = Opcode::RDFENCE, .rd = rd}); }
    void stio(int io_reg, uint8_t rs) { push({.op = Opcode::STIO, .rd = rs, .imm = io_reg}); }
    void ldio(uint8_t rd, int io_reg) { push({.op = Opcode::LDIO, .rd = rd, .imm = io_reg}); }

    void halt() { push({.op = Opcode::HALT}); }
    void nop() { push({.op = Opcode::NOP}); }

    /** Append an arbitrary pre-built instruction. */
    void push(Instruction inst) { insts.push_back(inst); }

    /**
     * Overwrite the immediate of an already-emitted instruction.
     * Used by the compiler to backpatch frame sizes once a function
     * body has been fully generated.
     */
    void
    patchImm(uint32_t index, int32_t imm)
    {
        if (index >= insts.size())
            panic("patchImm: bad instruction index ", index);
        insts[index].imm = imm;
    }

  private:
    void alu3(Opcode op, uint8_t rd, uint8_t rs1, uint8_t rs2, bool strict);
    void alui(Opcode op, uint8_t rd, uint8_t rs1, int32_t imm, bool strict);

    struct Fixup
    {
        uint32_t index;     ///< instruction whose imm needs the target
        std::string label;
    };

    std::vector<Instruction> insts;
    std::map<std::string, uint32_t> symbols;
    std::vector<std::pair<std::string, uint32_t>> notes;
    std::vector<Fixup> fixups;
    std::vector<AsmDiagnostic> diags;
    uint64_t freshCounter = 0;
};

/** Raw pointer distance of one memory word (addresses are tagged). */
constexpr int32_t kWordOff = 1 << tagged::tagShift;

/** Byte-like offset of the @p i th word of an object. */
constexpr int32_t
wordOff(int i)
{
    return i * kWordOff;
}

} // namespace april

#endif // APRIL_ISA_ASSEMBLER_HH

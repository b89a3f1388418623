// Two-pass assembler for CKVM guest programs.
//
// The benchmark guests and the example applications are written in this
// assembly (see tests/ and examples/ for programs). Syntax, one statement per
// line:
//
//   ; comment          # comment
//   label:
//   .org 0x1000        ; set location counter (absolute virtual address)
//   .word 42           ; emit a literal word
//   .space 64          ; emit n zero bytes (word-aligned)
//   add  rd, rs1, rs2
//   addi rd, rs1, imm
//   lw   rd, imm(rs1)
//   sw   rs, imm(rs1)
//   beq  r1, r2, label
//   jal  rd, label
//   trap imm
//
// Pseudo-instructions: li rd, imm32 (2 words) / la rd, label (2 words) /
// mv rd, rs / j label / call label / ret / nop / halt.
// Register names: r0..r31 and aliases zero, ra, sp, gp, a0..a5, t0..t7,
// s0..s7, k0..k5.

#ifndef SRC_ISA_ASSEMBLER_H_
#define SRC_ISA_ASSEMBLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ckisa {

struct Program {
  uint32_t base = 0;                       // virtual address of words[0]
  std::vector<uint32_t> words;             // assembled image
  std::map<std::string, uint32_t> labels;  // label -> virtual address

  uint32_t SizeBytes() const { return static_cast<uint32_t>(words.size()) * 4; }
};

struct AssembleResult {
  bool ok = false;
  Program program;
  std::string error;  // first error with line number, when !ok
};

AssembleResult Assemble(std::string_view source, uint32_t base);

// Disassemble one instruction word (for debugging and the disassembler test).
std::string Disassemble(uint32_t word);

}  // namespace ckisa

#endif  // SRC_ISA_ASSEMBLER_H_

// Unit tests for the CKVM assembler and interpreter against a flat host bus.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/isa/assembler.h"
#include "src/isa/interpreter.h"
#include "src/isa/isa.h"

namespace {

using ckisa::Assemble;
using ckisa::AssembleResult;
using ckisa::GuestBus;

using ckisa::RunEvent;
using ckisa::RunResult;
using ckisa::VmContext;

// Flat in-process memory, no translation: exercises the ISA semantics alone.
class FlatBus : public GuestBus {
 public:
  explicit FlatBus(uint32_t size = 1 << 20) : memory_(size, 0) {}

  void LoadProgram(const ckisa::Program& program) {
    std::memcpy(memory_.data() + program.base, program.words.data(), program.SizeBytes());
  }

  MemResult Fetch(uint32_t vaddr) override { return Load(vaddr, 4); }
  MemResult Load(uint32_t vaddr, uint32_t width) override {
    MemResult r;
    if (uint64_t{vaddr} + width > memory_.size()) {
      r.fault.type = cksim::FaultType::kNoMapping;
      r.fault.address = vaddr;
      return r;
    }
    std::memcpy(&r.value, memory_.data() + vaddr, width);
    r.ok = true;
    return r;
  }
  MemResult Store(uint32_t vaddr, uint32_t value, uint32_t width) override {
    MemResult r;
    if (uint64_t{vaddr} + width > memory_.size()) {
      r.fault.type = cksim::FaultType::kNoMapping;
      r.fault.address = vaddr;
      r.fault.access = cksim::Access::kWrite;
      return r;
    }
    std::memcpy(memory_.data() + vaddr, &value, width);
    r.ok = true;
    return r;
  }
  void ChargeInstruction() override { ++instructions_; }
  void OnMessageWrite(uint32_t) override {}

  uint32_t Word(uint32_t addr) const {
    uint32_t v;
    std::memcpy(&v, memory_.data() + addr, 4);
    return v;
  }

  uint64_t instructions_ = 0;

 private:
  std::vector<uint8_t> memory_;
};

VmContext RunToHalt(FlatBus& bus, const ckisa::Program& program, uint32_t budget = 100000) {
  bus.LoadProgram(program);
  VmContext ctx;
  ctx.pc = program.base;
  RunResult result = ckisa::Run(ctx, bus, budget);
  EXPECT_EQ(result.event, RunEvent::kHalt);
  return ctx;
}

TEST(AssemblerTest, BasicEncodingRoundTrip) {
  AssembleResult result = Assemble(R"(
    ; comment line
    start:
      addi r5, r0, 42     # another comment
      add  r6, r5, r5
      halt
  )", 0x1000);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.program.base, 0x1000u);
  EXPECT_EQ(result.program.words.size(), 3u);
  EXPECT_EQ(result.program.labels.at("start"), 0x1000u);
}

TEST(AssemblerTest, ErrorsAreReported) {
  EXPECT_FALSE(Assemble("bogus r1, r2", 0).ok);
  EXPECT_FALSE(Assemble("addi r1, r2", 0).ok);          // missing imm
  EXPECT_FALSE(Assemble("addi r1, r2, 100000", 0).ok);  // imm out of range
  EXPECT_FALSE(Assemble("x: \n x: nop", 0).ok);         // duplicate label
  AssembleResult bad = Assemble("nop\nbogus", 0);
  EXPECT_NE(bad.error.find("line 2"), std::string::npos);
}

TEST(AssemblerTest, DisassembleMatchesMnemonic) {
  AssembleResult result = Assemble("add r1, r2, r3", 0);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(ckisa::Disassemble(result.program.words[0]), "add r1, r2, r3");
  result = Assemble("lw r4, 8(r2)", 0);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(ckisa::Disassemble(result.program.words[0]), "lw r4, 8(r2)");
}

TEST(InterpreterTest, Arithmetic) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      addi r5, r0, 10
      addi r6, r0, 3
      add  r7, r5, r6
      sub  r8, r5, r6
      mul  r9, r5, r6
      div  r10, r5, r6
      rem  r11, r5, r6
      slt  r12, r6, r5
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[7], 13u);
  EXPECT_EQ(ctx.regs[8], 7u);
  EXPECT_EQ(ctx.regs[9], 30u);
  EXPECT_EQ(ctx.regs[10], 3u);
  EXPECT_EQ(ctx.regs[11], 1u);
  EXPECT_EQ(ctx.regs[12], 1u);
}

TEST(InterpreterTest, DivisionByZeroYieldsZero) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      addi r5, r0, 10
      div  r6, r5, r0
      rem  r7, r5, r0
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[6], 0u);
  EXPECT_EQ(ctx.regs[7], 0u);
}

TEST(InterpreterTest, DivisionOverflowIsDefined) {
  // INT_MIN / -1 overflows int32 and traps as a host division. The table
  // defines it as on RISC-V: quotient INT_MIN, remainder 0.
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      lui  r5, 0x8000     ; INT_MIN
      addi r6, r0, -1
      div  r7, r5, r6
      rem  r8, r5, r6
      div  r9, r5, r0
      rem  r10, r5, r0
      addi r11, r0, -7
      div  r12, r11, r6
      rem  r13, r11, r6
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[7], 0x80000000u);
  EXPECT_EQ(ctx.regs[8], 0u);
  EXPECT_EQ(ctx.regs[9], 0u);
  EXPECT_EQ(ctx.regs[10], 0u);
  EXPECT_EQ(ctx.regs[12], 7u);
  EXPECT_EQ(ctx.regs[13], 0u);
}

TEST(InterpreterTest, RegisterZeroStaysZero) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      addi r0, r0, 99
      add  r5, r0, r0
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[0], 0u);
  EXPECT_EQ(ctx.regs[5], 0u);
}

TEST(InterpreterTest, LoadStoreAndBytes) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      li   r5, 0x8000
      li   r6, 0xdeadbeef
      sw   r6, 0(r5)
      lw   r7, 0(r5)
      lb   r8, 0(r5)      ; low byte (little endian)
      addi r9, r0, 0x7f
      sb   r9, 4(r5)
      lb   r10, 4(r5)
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[7], 0xdeadbeefu);
  EXPECT_EQ(ctx.regs[8], 0xefu);
  EXPECT_EQ(ctx.regs[10], 0x7fu);
  EXPECT_EQ(bus.Word(0x8000), 0xdeadbeefu);
}

TEST(InterpreterTest, BranchesAndLoops) {
  // Sum 1..10 with a loop.
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      addi r5, r0, 0      ; sum
      addi r6, r0, 1      ; i
      addi r7, r0, 10     ; limit
    loop:
      add  r5, r5, r6
      addi r6, r6, 1
      bge  r7, r6, loop   ; while limit >= i
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[5], 55u);
}

TEST(InterpreterTest, CallAndReturn) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      li   sp, 0x10000
      addi a0, r0, 20
      call double
      mv   s0, a0
      halt
    double:
      add  a0, a0, a0
      ret
  )", 0).program);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0], 40u);
}

TEST(InterpreterTest, TrapReportsNumberAndAdvancesPc) {
  FlatBus bus;
  ckisa::Program program = Assemble(R"(
      addi a0, r0, 5
      trap 16
      addi a1, r0, 7
      halt
  )", 0).program;
  bus.LoadProgram(program);
  VmContext ctx;
  RunResult result = ckisa::Run(ctx, bus, 100);
  ASSERT_EQ(result.event, RunEvent::kTrap);
  EXPECT_EQ(result.trap_number, 16u);
  EXPECT_EQ(ctx.pc, 8u) << "pc must point past the trap";
  // Resume: the remainder executes.
  result = ckisa::Run(ctx, bus, 100);
  EXPECT_EQ(result.event, RunEvent::kHalt);
  EXPECT_EQ(ctx.regs[ckisa::kRegA0 + 1], 7u);
}

TEST(InterpreterTest, FaultLeavesPcOnFaultingInstruction) {
  FlatBus bus;
  ckisa::Program program = Assemble(R"(
      li   r5, 0xf0000000  ; out of bus range
      lw   r6, 0(r5)
      halt
  )", 0).program;
  bus.LoadProgram(program);
  VmContext ctx;
  RunResult result = ckisa::Run(ctx, bus, 100);
  ASSERT_EQ(result.event, RunEvent::kFault);
  EXPECT_EQ(result.fault.type, cksim::FaultType::kNoMapping);
  EXPECT_EQ(result.fault.address, 0xf0000000u);
  EXPECT_EQ(ctx.pc, 8u) << "pc must re-execute the faulting lw";
}

TEST(InterpreterTest, MisalignedAccessFaults) {
  FlatBus bus;
  ckisa::Program program = Assemble(R"(
      li   r5, 0x8001
      lw   r6, 0(r5)
      halt
  )", 0).program;
  bus.LoadProgram(program);
  VmContext ctx;
  RunResult result = ckisa::Run(ctx, bus, 100);
  ASSERT_EQ(result.event, RunEvent::kFault);
  EXPECT_EQ(result.fault.type, cksim::FaultType::kBadAlignment);
}

TEST(InterpreterTest, BudgetExhaustionIsResumable) {
  FlatBus bus;
  ckisa::Program program = Assemble(R"(
    spin:
      addi r5, r5, 1
      j spin
  )", 0).program;
  bus.LoadProgram(program);
  VmContext ctx;
  RunResult result = ckisa::Run(ctx, bus, 10);
  EXPECT_EQ(result.event, RunEvent::kBudgetExhausted);
  EXPECT_EQ(result.instructions, 10u);
  uint32_t r5 = ctx.regs[5];
  ckisa::Run(ctx, bus, 10);
  EXPECT_GT(ctx.regs[5], r5) << "execution continues from saved context";
}

TEST(InterpreterTest, BadOpcodeFaults) {
  FlatBus bus;
  ckisa::Program program;
  program.base = 0;
  program.words = {0xffffffffu};
  bus.LoadProgram(program);
  VmContext ctx;
  RunResult result = ckisa::Run(ctx, bus, 10);
  ASSERT_EQ(result.event, RunEvent::kFault);
  EXPECT_EQ(result.fault.type, cksim::FaultType::kBadInstruction);
}

TEST(InterpreterTest, LogicalAndShiftOps) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      li   t0, 0xff00ff00
      li   t1, 0x0ff00ff0
      and  s0, t0, t1
      or   s1, t0, t1
      xor  s2, t0, t1
      addi t2, r0, 8
      sll  s3, t0, t2
      srl  s4, t0, t2
      sra  s5, t0, t2
      andi s6, t0, 0x00ff
      ori  s7, r0, 0x1234
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 0], 0x0f000f00u);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 1], 0xfff0fff0u);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 2], 0xf0f0f0f0u);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 3], 0x00ff0000u);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 4], 0x00ff00ffu);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 5], 0xffff00ffu) << "arithmetic shift extends the sign";
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 6], 0x00000000u) << "andi with positive imm16";
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 7], 0x1234u);
}

TEST(InterpreterTest, SetLessThanSignedVsUnsigned) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      addi t0, r0, -1     ; 0xffffffff
      addi t1, r0, 1
      slt  s0, t0, t1     ; -1 < 1 signed -> 1
      sltu s1, t0, t1     ; 0xffffffff < 1 unsigned -> 0
      slti s2, t0, 0      ; -1 < 0 -> 1
      halt
  )", 0).program);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 0], 1u);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 1], 0u);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0 + 2], 1u);
}

TEST(InterpreterTest, JalrComputedTarget) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      la   t0, table
      lw   t1, 4(t0)      ; second entry = address of 'second'
      jalr ra, t1, 0
      halt
    first:
      addi s0, r0, 1
      halt
    second:
      addi s0, r0, 2
      halt
    table:
      .word first
      .word second
  )", 0x3000).program);
  EXPECT_EQ(ctx.regs[ckisa::kRegS0], 2u) << "indirect jump through a jump table";
}

TEST(InterpreterTest, LiLaPseudoOps) {
  FlatBus bus;
  VmContext ctx = RunToHalt(bus, Assemble(R"(
      li r5, 0x12345678
      la r6, data
      lw r7, 0(r6)
      halt
    data:
      .word 0xcafef00d
  )", 0x2000).program);
  EXPECT_EQ(ctx.regs[5], 0x12345678u);
  EXPECT_EQ(ctx.regs[7], 0xcafef00du);
}

}  // namespace

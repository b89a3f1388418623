// CKVM: the guest instruction set.
//
// User-level programs in this reproduction execute as real instruction
// streams through the simulated MMU, so traps, page faults and the
// memory-based-messaging fast path are driven by actual loads, stores and
// trap instructions -- not by host function calls. The ISA is a minimal
// 32-bit load/store machine (32 registers, fixed 32-bit encoding), small
// enough to interpret quickly but rich enough to write the benchmark guests
// (getpid loops, page touchers, message senders) and example programs.
//
// Encoding (fields from the high bits down):
//   R-type:  op[31:26] rd[25:21] rs1[20:16] rs2[15:11] zeros
//   I-type:  op[31:26] rd[25:21] rs1[20:16] imm16[15:0]   (imm sign-extended)
//   B-type:  op[31:26] r1[25:21] r2[20:16]  off16[15:0]   (word offset from
//                                                          the next pc)

#ifndef SRC_ISA_ISA_H_
#define SRC_ISA_ISA_H_

#include <cstdint>
#include <iterator>
#include <string_view>

namespace ckisa {

// Assembler operand format of an op.
enum class Format : uint8_t {
  kBare,    // nop
  kR3,      // add rd, rs1, rs2
  kI2,      // addi rd, rs1, imm16
  kLui,     // lui rd, imm16
  kMem,     // lw rd, imm(rs1) -- a store's rd field holds the source register
  kBranch,  // beq r1, r2, target
  kJal,     // jal rd, target
  kJalr,    // jalr rd, rs1[, imm]
  kTrap,    // trap imm16
};

// How the executors run an op; each class has one body per executor.
enum class OpClass : uint8_t { kAlu, kLoad, kStore, kBranch, kJal, kJalr, kTrap, kHalt, kNop };

// The instruction table: one row per op, in opcode order, and the only place
// an op's meaning is written. The Op enum, both executors (interpreter.cc),
// the trace builder's classification (fastpath.cc), the assembler and the
// disassembler are all generated from it. A row is
//
//   X(mnemonic, enumerator, format, class, semantics)
//
// where the semantics is an expression over a, b (uint32_t) and imm (the
// sign-extended imm16 as uint32_t): for kAlu the value written to rd, with
// a = rs1 and b = rs2; for kBranch the taken condition, with a = r1 and
// b = r2; for kLoad/kStore the access width in bytes (a byte load
// zero-extends). Branch and jal targets are pc + 4 + imm * 4; jal and jalr
// write pc + 4 to rd; jalr jumps to rs1 + imm; trap reports imm16.
//
// Signed division never traps: x / 0 = 0 and x % 0 = 0 (no-fault hardware),
// and INT_MIN / -1 = INT_MIN with INT_MIN % -1 = 0, as on RISC-V.
#define CKVM_OPS(X)                                                                         \
  X("nop", kNop, kBare, kNop, 0)                                                            \
  X("halt", kHalt, kBare, kHalt, 0)                                                         \
  X("add", kAdd, kR3, kAlu, a + b)                                                          \
  X("sub", kSub, kR3, kAlu, a - b)                                                          \
  X("and", kAnd, kR3, kAlu, a & b)                                                          \
  X("or", kOr, kR3, kAlu, a | b)                                                            \
  X("xor", kXor, kR3, kAlu, a ^ b)                                                          \
  X("sll", kSll, kR3, kAlu, a << (b & 31u))                                                 \
  X("srl", kSrl, kR3, kAlu, a >> (b & 31u))                                                 \
  X("sra", kSra, kR3, kAlu, static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31u)))    \
  X("mul", kMul, kR3, kAlu, a * b)                                                          \
  X("slt", kSlt, kR3, kAlu, static_cast<int32_t>(a) < static_cast<int32_t>(b))              \
  X("sltu", kSltu, kR3, kAlu, a < b)                                                        \
  X("addi", kAddi, kI2, kAlu, a + imm)                                                      \
  X("andi", kAndi, kI2, kAlu, a & (imm & 0xffffu))                                          \
  X("ori", kOri, kI2, kAlu, a | (imm & 0xffffu))                                            \
  X("xori", kXori, kI2, kAlu, a ^ (imm & 0xffffu))                                          \
  X("lui", kLui, kLui, kAlu, (imm & 0xffffu) << 16)                                         \
  X("slti", kSlti, kI2, kAlu, static_cast<int32_t>(a) < static_cast<int32_t>(imm))          \
  X("lw", kLw, kMem, kLoad, 4)                                                              \
  X("sw", kSw, kMem, kStore, 4)                                                             \
  X("lb", kLb, kMem, kLoad, 1)                                                              \
  X("sb", kSb, kMem, kStore, 1)                                                             \
  X("beq", kBeq, kBranch, kBranch, a == b)                                                  \
  X("bne", kBne, kBranch, kBranch, a != b)                                                  \
  X("blt", kBlt, kBranch, kBranch, static_cast<int32_t>(a) < static_cast<int32_t>(b))       \
  X("bge", kBge, kBranch, kBranch, static_cast<int32_t>(a) >= static_cast<int32_t>(b))      \
  X("jal", kJal, kJal, kJal, 0)                                                             \
  X("jalr", kJalr, kJalr, kJalr, 0)                                                         \
  X("trap", kTrap, kTrap, kTrap, 0)                                                         \
  X("div", kDiv, kR3, kAlu,                                                                 \
    b == 0 ? 0 : b == ~0u ? 0u - a : static_cast<uint32_t>(static_cast<int32_t>(a) /       \
                                                           static_cast<int32_t>(b)))        \
  X("rem", kRem, kR3, kAlu,                                                                 \
    b == 0 || b == ~0u ? 0 : static_cast<uint32_t>(static_cast<int32_t>(a) %               \
                                                   static_cast<int32_t>(b)))

enum class Op : uint8_t {
#define CKVM_ENUM(mnemonic, op, format, cls, sem) op,
  CKVM_OPS(CKVM_ENUM)
#undef CKVM_ENUM
};

struct OpInfo {
  std::string_view mnemonic;  // NUL-terminated: it views a string literal
  Format format;
  OpClass cls;
};

inline constexpr OpInfo kOps[] = {
#define CKVM_INFO(mnemonic, op, format, cls, sem) {mnemonic, Format::format, OpClass::cls},
    CKVM_OPS(CKVM_INFO)
#undef CKVM_INFO
};

// Opcodes are the row indices; this pins the encoding.
inline constexpr uint32_t kOpCount = std::size(kOps);
static_assert(kOpCount == 32 && static_cast<uint32_t>(Op::kRem) == 31, "CKVM encoding moved");

// The row of a decoded opcode, or null for the 32 undefined opcodes.
inline constexpr const OpInfo* InfoOf(Op op) {
  return static_cast<uint32_t>(op) < kOpCount ? &kOps[static_cast<uint32_t>(op)] : nullptr;
}

// A row's semantics column as a function: Sem<Op::kAdd>(a, b, imm).
template <Op>
constexpr uint32_t Sem(uint32_t a, uint32_t b, uint32_t imm);
#define CKVM_SEM(mnemonic, op, format, cls, sem)                                   \
  template <>                                                                      \
  constexpr uint32_t Sem<Op::op>([[maybe_unused]] uint32_t a,                      \
                                 [[maybe_unused]] uint32_t b,                      \
                                 [[maybe_unused]] uint32_t imm) {                  \
    return sem;                                                                    \
  }
CKVM_OPS(CKVM_SEM)
#undef CKVM_SEM

inline constexpr uint32_t Encode(Op op, uint32_t a, uint32_t b, uint32_t c_or_imm16) {
  return (static_cast<uint32_t>(op) << 26) | ((a & 31u) << 21) | ((b & 31u) << 16) |
         (c_or_imm16 & 0xffffu);
}

inline constexpr uint32_t EncodeR(Op op, uint32_t rd, uint32_t rs1, uint32_t rs2) {
  return (static_cast<uint32_t>(op) << 26) | ((rd & 31u) << 21) | ((rs1 & 31u) << 16) |
         ((rs2 & 31u) << 11);
}

struct Decoded {
  Op op;
  uint8_t rd;   // or r1 for branches
  uint8_t rs1;  // or r2 for branches
  uint8_t rs2;
  int32_t imm;  // sign-extended 16-bit immediate
};

inline Decoded Decode(uint32_t word) {
  Decoded d;
  d.op = static_cast<Op>(word >> 26);
  d.rd = static_cast<uint8_t>((word >> 21) & 31u);
  d.rs1 = static_cast<uint8_t>((word >> 16) & 31u);
  d.rs2 = static_cast<uint8_t>((word >> 11) & 31u);
  d.imm = static_cast<int16_t>(word & 0xffffu);
  return d;
}

// Conventional register roles used by the assembler and the application
// kernels' syscall ABI:
//   r0  zero    hardwired zero
//   r1  ra      return address
//   r2  sp      stack pointer / syscall return value register
//   r3  gp      global pointer
//   r4..r9   a0..a5   arguments (a0 also = syscall number result space)
//   r10..r17 t0..t7   temporaries
//   r18..r25 s0..s7   saved
//   r26..r31 k0..k5   reserved for handler glue
inline constexpr uint8_t kRegZero = 0;
inline constexpr uint8_t kRegRa = 1;
inline constexpr uint8_t kRegSp = 2;
inline constexpr uint8_t kRegGp = 3;
inline constexpr uint8_t kRegA0 = 4;
inline constexpr uint8_t kRegT0 = 10;
inline constexpr uint8_t kRegS0 = 18;
inline constexpr uint8_t kRegK0 = 26;

}  // namespace ckisa

#endif  // SRC_ISA_ISA_H_

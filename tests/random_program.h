// Seeded generator of random, well-formed CKVM programs, drawn from the
// instruction table (src/isa/isa.h). Used by the trace/slow
// differential (fastpath_test.cc) and the policy-VM sandbox fuzz
// (policy_vm_test.cc); the seed is part of every test name.
//
// A program is a prologue that divides INT_MIN by -1 (so every run, the
// sandbox's included, meets that edge case first), a list of random items and
// a closing halt. Items:
//   * an ALU row with random registers and immediate;
//   * a load or store row at a mapped, read-only, code, copy-on-write,
//     message-mode, unmapped or misaligned address (unmapped, misaligned and
//     read-only-store accesses fault and end the thread);
//   * div or rem on 0, -1, INT_MIN or a random value;
//   * trap 16;
//   * a forward branch, jal or jalr over the next 1..3 items of its list;
//   * a store of a fresh ALU instruction over an earlier ALU item (a store
//     into the code page that may rewrite a cached superblock);
//   * at top level, a counted loop (1..64 iterations) over 2..6 items.
// Control flow only moves forward except for loop-closing branches, and
// nothing but a loop's own two instructions writes its counter, so every
// program ends in a halt, a fault or the run budget. A read-only layout
// (the policy-VM sandbox, which has no writable memory) turns every store
// into a load and every trap and code patch into a nop.

#ifndef TESTS_RANDOM_PROGRAM_H_
#define TESTS_RANDOM_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/isa/isa.h"

namespace cktest {

// Where a generated program runs. The code pages must be writable for the
// patch stores to land; `readonly_base` is one mapped read-only page,
// `cow_base` one copy-on-write page, `message_base` one writable
// message-mode page, and nothing is mapped at `unmapped_base`.
struct ProgramLayout {
  uint32_t code_base = 0x10000;
  uint32_t data_base = 0x00400000;  // two writable pages
  uint32_t readonly_base = 0x00500000;
  uint32_t cow_base = 0x00600000;
  uint32_t message_base = 0x00700000;
  uint32_t unmapped_base = 0x00800000;
  uint32_t data_bytes = 2 * 4096;  // span of data_base the memory items address
  bool read_only = false;          // no stores, traps or code patches
};

class ProgramGenerator {
 public:
  ProgramGenerator(uint64_t seed, const ProgramLayout& layout) : rng_(seed), layout_(layout) {}

  std::vector<uint32_t> Generate() {
    Li(5, 0x80000000u);
    Emit(ckisa::Encode(ckisa::Op::kAddi, 6, 0, 0xffff));
    Emit(ckisa::EncodeR(ckisa::Op::kDiv, 7, 5, 6));
    Emit(ckisa::EncodeR(ckisa::Op::kRem, 8, 5, 6));
    List(static_cast<int>(rng_.Range(12, 32)), /*top_level=*/true);
    Emit(ckisa::Encode(ckisa::Op::kHalt, 0, 0, 0));
    return words_;
  }

 private:
  // Register roles: r1..r12 carry data; kAddr holds addresses and jalr
  // targets, kPatch patch words, kCount the loop counter.
  static constexpr uint32_t kDataRegs = 12;
  static constexpr uint32_t kPatch = 28;
  static constexpr uint32_t kAddr = 29;
  static constexpr uint32_t kCount = 30;

  // A pending forward skip: patched to the start of the item `remaining`
  // items later in the same list, or to the list's end.
  struct Skip {
    size_t at;
    int remaining;
  };

  uint32_t Pc(size_t index) const { return layout_.code_base + static_cast<uint32_t>(index) * 4; }
  void Emit(uint32_t word) { words_.push_back(word); }
  uint32_t Pick(uint32_t n) { return static_cast<uint32_t>(rng_.Below(n)); }
  uint32_t DataReg() { return 1 + Pick(kDataRegs); }
  uint32_t Source() { return Pick(kDataRegs + 1); }  // r0 or a data register
  uint32_t Dest() { return rng_.Chance(1, 16) ? 0 : DataReg(); }

  void Li(uint32_t rd, uint32_t value) {
    Emit(ckisa::Encode(ckisa::Op::kLui, rd, 0, value >> 16));
    Emit(ckisa::Encode(ckisa::Op::kOri, rd, rd, value & 0xffff));
  }

  // A random row of `cls` from the instruction table.
  ckisa::Op Draw(ckisa::OpClass cls) {
    for (;;) {
      uint32_t op = Pick(ckisa::kOpCount);
      if (ckisa::kOps[op].cls == cls) {
        return static_cast<ckisa::Op>(op);
      }
    }
  }

  uint32_t AluWord() {
    ckisa::Op op = Draw(ckisa::OpClass::kAlu);
    if (ckisa::InfoOf(op)->format == ckisa::Format::kR3) {
      return ckisa::EncodeR(op, Dest(), Source(), Source());
    }
    return ckisa::Encode(op, Dest(), Source(), Pick(65536));
  }

  void List(int items, bool top_level) {
    std::vector<Skip> skips;
    for (int i = 0; i < items; ++i) {
      size_t start = words_.size();
      Item(top_level, &skips);
      // Each skip counts the items after the one that emitted it.
      for (Skip& s : skips) {
        if (s.at < start && --s.remaining == 0) {
          Patch(s.at, words_.size());
        }
      }
    }
    for (const Skip& s : skips) {
      if (s.remaining > 0) {
        Patch(s.at, words_.size());
      }
    }
  }

  void Patch(size_t at, size_t target_index) {
    uint32_t target = Pc(target_index);
    ckisa::Decoded d = ckisa::Decode(words_[at]);
    if (d.op == ckisa::Op::kLui) {  // the li of a jalr target
      words_[at] = (words_[at] & ~0xffffu) | (target >> 16);
      words_[at + 1] = (words_[at + 1] & ~0xffffu) | (target & 0xffff);
    } else {
      uint32_t off = (target - (Pc(at) + 4)) / 4;
      words_[at] = (words_[at] & ~0xffffu) | (off & 0xffff);
    }
  }

  void Item(bool top_level, std::vector<Skip>* skips) {
    uint32_t roll = Pick(top_level ? 20 : 17);
    if (roll < 6) {
      patchable_.push_back(words_.size());
      Emit(AluWord());
    } else if (roll < 11) {
      Memory();
    } else if (roll < 12) {
      DivRem();
    } else if (roll < 13) {
      Emit(ckisa::Encode(layout_.read_only ? ckisa::Op::kNop : ckisa::Op::kTrap, 0, 0, 16));
    } else if (roll < 16) {
      skips->push_back({words_.size(), static_cast<int>(rng_.Range(1, 3))});
      uint32_t kind = Pick(3);
      if (kind == 0) {
        Emit(ckisa::Encode(Draw(ckisa::OpClass::kBranch), Source(), Source(), 0));
      } else if (kind == 1) {
        Emit(ckisa::Encode(ckisa::Op::kJal, Dest(), 0, 0));
      } else {
        Li(kAddr, 0);
        Emit(ckisa::Encode(ckisa::Op::kJalr, Dest(), kAddr, 0));
      }
    } else if (roll < 17) {
      if (patchable_.empty() || layout_.read_only) {
        Emit(ckisa::Encode(ckisa::Op::kNop, 0, 0, 0));
        return;
      }
      size_t slot = patchable_[Pick(static_cast<uint32_t>(patchable_.size()))];
      Li(kPatch, AluWord());
      Li(kAddr, Pc(slot));
      Emit(ckisa::Encode(ckisa::Op::kSw, kPatch, kAddr, 0));
    } else {
      size_t head = words_.size() + 1;
      Emit(ckisa::Encode(ckisa::Op::kAddi, kCount, 0, static_cast<uint32_t>(rng_.Range(1, 64))));
      List(static_cast<int>(rng_.Range(2, 6)), /*top_level=*/false);
      Emit(ckisa::Encode(ckisa::Op::kAddi, kCount, kCount, 0xffff));
      int32_t back = static_cast<int32_t>(Pc(head) - (Pc(words_.size()) + 4)) / 4;
      Emit(ckisa::Encode(ckisa::Op::kBne, kCount, 0, static_cast<uint32_t>(back)));
    }
  }

  void Memory() {
    bool load = rng_.Chance(1, 2) || layout_.read_only;
    ckisa::Op op = Draw(load ? ckisa::OpClass::kLoad : ckisa::OpClass::kStore);
    uint32_t base = layout_.data_base;
    uint32_t offset = Pick(layout_.data_bytes / 4) * 4;
    uint32_t kind = Pick(40);
    if (kind == 0) {
      base = layout_.unmapped_base;
    } else if (kind == 1) {
      offset += 1 + Pick(3);  // misaligned: faults a word access only
    } else if (kind == 2) {
      base = layout_.readonly_base;  // a store faults
      offset %= 4096;
    } else if (kind < 5 && load) {
      base = layout_.code_base;  // read our own instructions
      offset %= 4096;
    } else if (kind < 9 && !layout_.read_only) {
      base = kind < 7 ? layout_.cow_base : layout_.message_base;
      offset %= 4096;
    }
    Li(kAddr, base + offset);
    Emit(ckisa::Encode(op, load ? Dest() : Pick(32), kAddr, 0));
  }

  void DivRem() {
    const uint32_t values[4] = {0, 0xffffffffu, 0x80000000u, static_cast<uint32_t>(rng_.Next())};
    uint32_t a = DataReg();
    uint32_t b = DataReg();
    Li(a, values[Pick(4)]);
    Li(b, values[Pick(4)]);
    Emit(ckisa::EncodeR(rng_.Chance(1, 2) ? ckisa::Op::kDiv : ckisa::Op::kRem, Dest(), a, b));
  }

  ckbase::Rng rng_;
  ProgramLayout layout_;
  std::vector<uint32_t> words_;
  std::vector<size_t> patchable_;  // indices of single-word ALU items
};

inline std::vector<uint32_t> GenerateProgram(uint64_t seed,
                                             const ProgramLayout& layout = ProgramLayout()) {
  return ProgramGenerator(seed, layout).Generate();
}

}  // namespace cktest

#endif  // TESTS_RANDOM_PROGRAM_H_

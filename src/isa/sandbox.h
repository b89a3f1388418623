// Sandboxed CKVM embedding for guest replacement-policy programs
// (docs/POLICY_VM.md).
//
// The Cache Kernel runs app-kernel-supplied policy programs while holding
// descriptor-cache state, so the execution environment is far stricter than
// normal guest execution: no MMU, no devices, no traps, no stores, no cycle
// charges. The program sees exactly two address ranges --
//
//   [code_base, code_base + 4 * word_count)      execute-only program words
//   [feature_base, feature_base + 4 * features)  read-only candidate features
//
// -- and every other access, every store and every trap instruction faults
// the run. Programs run through the interpreter's one run loop under a
// sandbox memory policy (src/isa/interpreter.cc): fetches read the word
// array, loads read the feature window, and there is no bus, no trace and no
// cycle charge. The run loop's budget bounds the instruction count; the
// caller passes the remaining per-scan budget so one scan's candidates share
// one allowance, and scores them all in one PolicyVm. The host-side cost is
// attributed to the owning tenant by the caller (CostAccount::policy_vm_steps);
// nothing here advances simulated clocks.

#ifndef SRC_ISA_SANDBOX_H_
#define SRC_ISA_SANDBOX_H_

#include <cstdint>

#include "src/isa/interpreter.h"

namespace ckisa {

// How one sandboxed policy run ended.
enum class PolicyVmEvent : uint8_t {
  kScore = 0,  // halt executed; score is a0
  kFault = 1,  // out-of-window access, store, or misaligned fetch
  kTrap = 2,   // trap instruction (forbidden in policy programs)
  kBudget = 3, // instruction budget exhausted
};

struct PolicyVmResult {
  PolicyVmEvent event = PolicyVmEvent::kFault;
  uint32_t score = 0;  // valid when event == kScore
  uint32_t steps = 0;  // instructions retired (<= budget)
};

// Run `words` from code_base with the feature window mapped read-only at
// feature_base, for at most `budget` instructions. Registers start zeroed;
// the result score is register a0 at halt.
PolicyVmResult RunPolicyProgram(const uint32_t* words, uint32_t word_count,
                                const uint32_t* features, uint32_t feature_words,
                                uint32_t code_base, uint32_t feature_base, uint32_t budget);

// One reclaim scan's program and the register context all its candidates run
// in. Run returns what RunPolicyProgram would: it first clears every register
// an instruction of the program can write. The words must not change under it.
class PolicyVm {
 public:
  PolicyVm(const uint32_t* words, uint32_t word_count, uint32_t code_base,
           uint32_t feature_base);
  PolicyVmResult Run(const uint32_t* features, uint32_t feature_words, uint32_t budget);

 private:
  const uint32_t* words_;
  uint32_t word_count_;
  uint32_t code_base_;
  uint32_t feature_base_;
  uint32_t written_ = 0;  // bit r set: some instruction writes register r
  VmContext ctx_;
};

}  // namespace ckisa

#endif  // SRC_ISA_SANDBOX_H_

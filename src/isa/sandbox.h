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
// the run.
//
// One engine runs every policy program: PolicyVm scores up to kLanes
// candidates of a reclaim scan in one lane-parallel pass (vectorized
// interpretation, as in MonetDB/X100), and RunPolicyProgram is its one-lane
// call. Each step decodes the instruction at the pc of the lowest-index live
// lane, the leader, once and applies it through the instruction table's
// semantics (Sem<>, src/isa/isa.h) to every live lane at that pc. Lanes that
// branch apart run as groups of their own and merge again where their pcs
// meet. A scan's lanes share one step budget exactly as if they ran one
// after another: lane k gets what lanes 0..k-1 left, and the scan stops at
// the first lane that does not score. While they run, no lane executes past
// the budget left after the steps the lanes before it have already
// executed; the results are then cut to the sequential budgets, so they are
// bit-exact, and a looping program over a chunk of L lanes costs at most
// about budget * (1 + ln L) lane-steps of host work. Nothing here advances
// simulated clocks; the caller attributes the host work to the owning
// tenant (CostAccount::policy_vm_steps).

#ifndef SRC_ISA_SANDBOX_H_
#define SRC_ISA_SANDBOX_H_

#include <cstdint>

#include "src/isa/isa.h"

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

// One reclaim scan's program and the lanes its candidates run in (see the
// file header). The words must not change under it.
class PolicyVm {
 public:
  static constexpr uint32_t kLanes = 128;

  PolicyVm(const uint32_t* words, uint32_t word_count, uint32_t code_base,
           uint32_t feature_base);

  // Score lanes [0, lanes) (at most kLanes) as a sequential scan sharing
  // `budget`: word w of lane k's window is features[w * stride + k], and
  // registers start zeroed in every lane. Returns how many lanes scored
  // before the first that did not -- `lanes` when every one did -- and fills
  // out[] through that lane with what RunPolicyProgram would return for each
  // at the budget the lanes before it left.
  uint32_t Run(const uint32_t* features, uint32_t feature_words, uint32_t stride, uint32_t lanes,
               uint32_t budget, PolicyVmResult* out);

  // Instructions executed over every lane of every Run, those a lane ran
  // past its sequential budget included: the host work.
  uint64_t lane_steps() const { return lane_steps_; }

 private:
  static constexpr uint32_t kSink = 32;  // register row that writes to r0 land in

  const uint32_t* words_;
  uint32_t code_bytes_;
  uint32_t code_base_;
  uint32_t feature_base_;
  uint32_t touched_ = 0;  // bit r set: some instruction names register r
  uint64_t lane_steps_ = 0;
  // Per lane. A lane outside the running group holds its own pc and steps;
  // a group member's are the group's, folded in when the group breaks up.
  uint32_t regs_[33][kLanes];
  uint32_t pc_[kLanes];
  uint32_t steps_[kLanes];
  uint8_t end_[kLanes];    // how the lane ended, or that it runs (sandbox.cc)
  uint8_t live_[kLanes];   // running lanes that can still matter, ascending
  uint8_t group_[kLanes];  // running lanes at the leader's pc, ascending
};

}  // namespace ckisa

#endif  // SRC_ISA_SANDBOX_H_

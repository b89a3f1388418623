#include "src/isa/sandbox.h"

#include "src/isa/isa.h"

namespace ckisa {
namespace {

// The restricted bus: program words are execute-only, the feature window is
// read-only, everything else faults. No fast path (the sandbox must observe
// every access) and no cycle accounting (policy evaluation is host-side).
class PolicyBus : public GuestBus {
 public:
  PolicyBus(const uint32_t* words, uint32_t word_count, const uint32_t* features,
            uint32_t feature_words, uint32_t code_base, uint32_t feature_base)
      : words_(words),
        word_count_(word_count),
        features_(features),
        feature_words_(feature_words),
        code_base_(code_base),
        feature_base_(feature_base) {}

  MemResult Fetch(uint32_t vaddr) override {
    MemResult r;
    uint32_t off = vaddr - code_base_;
    if ((vaddr & 3u) != 0 || vaddr < code_base_ || off >= word_count_ * 4) {
      r.fault.type = cksim::FaultType::kNoMapping;
      r.fault.address = vaddr;
      r.fault.access = cksim::Access::kExecute;
      return r;
    }
    r.ok = true;
    r.value = words_[off / 4];
    return r;
  }

  MemResult Load(uint32_t vaddr, uint32_t width) override {
    MemResult r;
    r.fault.address = vaddr;
    uint32_t word = vaddr & ~3u;
    if (width == 4 && word != vaddr) {
      r.fault.type = cksim::FaultType::kBadAlignment;
    } else if (word < feature_base_ || word - feature_base_ >= feature_words_ * 4) {
      r.fault.type = cksim::FaultType::kNoMapping;
    } else {
      r.ok = true;
      r.value = features_[(word - feature_base_) / 4] >> ((vaddr & 3u) * 8);
      r.value &= width == 4 ? ~0u : 0xffu;
    }
    return r;
  }

  MemResult Store(uint32_t vaddr, uint32_t, uint32_t) override {
    MemResult r;
    r.fault = {cksim::FaultType::kProtection, vaddr, cksim::Access::kWrite};
    return r;
  }

  void ChargeInstruction() override {}
  void OnMessageWrite(uint32_t) override {}

 private:
  const uint32_t* words_;
  uint32_t word_count_;
  const uint32_t* features_;
  uint32_t feature_words_;
  uint32_t code_base_;
  uint32_t feature_base_;
};

}  // namespace

PolicyVmResult RunPolicyProgram(const uint32_t* words, uint32_t word_count,
                                const uint32_t* features, uint32_t feature_words,
                                uint32_t code_base, uint32_t feature_base,
                                uint32_t budget) {
  PolicyVmResult out;
  if (words == nullptr || word_count == 0 || budget == 0) {
    out.event = budget == 0 ? PolicyVmEvent::kBudget : PolicyVmEvent::kFault;
    return out;
  }
  PolicyBus bus(words, word_count, features, feature_words, code_base, feature_base);
  VmContext ctx;
  ctx.pc = code_base;
  RunResult run = Run(ctx, bus, budget);
  out.steps = run.instructions;
  switch (run.event) {
    case RunEvent::kHalt:
      out.event = PolicyVmEvent::kScore;
      out.score = ctx.regs[kRegA0];
      break;
    case RunEvent::kTrap:
      out.event = PolicyVmEvent::kTrap;
      break;
    case RunEvent::kFault:
      out.event = PolicyVmEvent::kFault;
      break;
    case RunEvent::kBudgetExhausted:
      out.event = PolicyVmEvent::kBudget;
      break;
  }
  return out;
}

}  // namespace ckisa

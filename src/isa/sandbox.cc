#include "src/isa/sandbox.h"

#include <algorithm>
#include <bit>
#include <type_traits>

namespace ckisa {
namespace {

// Every lane [0, n) of the chunk: the converged group, whose loops vectorize.
struct DenseLanes {
  uint32_t n;
  template <typename F>
  void Each(F&& f) const {
    for (uint32_t l = 0; l < n; ++l) {
      f(l);
    }
  }
};

// Any other group: its lanes by index, ascending.
struct ListedLanes {
  const uint8_t* lane;
  uint32_t n;
  template <typename F>
  void Each(F&& f) const {
    for (uint32_t i = 0; i < n; ++i) {
      f(lane[i]);
    }
  }
};

// How a lane ended: a PolicyVmEvent value, or that it has not.
constexpr uint8_t kRunning = 4;

constexpr uint8_t Ended(PolicyVmEvent event) { return static_cast<uint8_t>(event); }

// What a step left of the group.
enum class StepEnd : uint8_t {
  kTogether,  // every lane goes on at the new pc
  kApart,     // lanes ended or took pcs of their own
  kEnded,     // every lane ended
};

}  // namespace

PolicyVmResult RunPolicyProgram(const uint32_t* words, uint32_t word_count,
                                const uint32_t* features, uint32_t feature_words,
                                uint32_t code_base, uint32_t feature_base, uint32_t budget) {
  PolicyVmResult out;
  PolicyVm(words, word_count, code_base, feature_base)
      .Run(features, feature_words, /*stride=*/1, /*lanes=*/1, budget, &out);
  return out;
}

PolicyVm::PolicyVm(const uint32_t* words, uint32_t word_count, uint32_t code_base,
                   uint32_t feature_base)
    : words_(words),
      code_bytes_(words != nullptr ? word_count * 4 : 0),
      code_base_(code_base),
      feature_base_(feature_base) {
  // Only r0, a0 (halt reads the score there) and the registers some program
  // word names are read; Run zeroes just those. A program longer than
  // LoadPolicy accepts is not decoded: its runs zero every register.
  touched_ = words == nullptr || word_count > 256 ? ~0u : 1u | 1u << kRegA0;
  for (uint32_t i = 0; i < word_count && touched_ != ~0u; ++i) {
    Decoded d = Decode(words[i]);
    touched_ |= 1u << d.rd | 1u << d.rs1 | 1u << d.rs2;
  }
}

uint32_t PolicyVm::Run(const uint32_t* features, uint32_t feature_words, uint32_t stride,
                       uint32_t lanes, uint32_t budget, PolicyVmResult* out) {
  static constexpr uint32_t kNoFeatures = 0;
  if (feature_words == 0) {
    features = &kNoFeatures;  // every load reads a word before it knows it faults
  }
  const uint32_t window_bytes = feature_words * 4;
  lanes = std::min(lanes, kLanes);
  for (uint32_t m = touched_; m != 0; m &= m - 1) {
    std::fill_n(regs_[std::countr_zero(m)], lanes, 0u);
  }
  std::fill_n(end_, lanes, kRunning);

  // The first group is every lane at the code base. Until it first folds
  // (`fresh`), no lane has steps or a pc of its own, and until the first
  // regroup live_ is not listed.
  bool fresh = true;
  bool listed = false;
  uint32_t live = lanes;     // running lanes that can still matter
  uint32_t end = lanes;      // lanes from here on cannot change the scan's outcome
  uint32_t g = lanes;        // the group: lanes [0, g) when dense, else group_[0, g)
  bool dense = true;
  uint32_t pc = code_base_;  // the group's pc
  uint32_t group_steps = 0;  // steps the group retired since it formed
  bool split = false;        // the group's lanes went their own ways: pc_ holds theirs
  uint64_t total = 0;        // steps of lanes [0, end) but the group's unfolded ones

  auto each = [&](auto&& f) {
    if (dense) {
      DenseLanes{g}.Each(f);
    } else {
      ListedLanes{group_, g}.Each(f);
    }
  };
  // Every lane of the group ended `how`. Unless that is a score, the scan
  // ends at or before the group's first lane.
  auto end_group = [&](uint8_t how) {
    each([&](uint32_t l) { end_[l] = how; });
    if (how != Ended(PolicyVmEvent::kScore)) {
      end = std::min(end, (dense ? 0u : group_[0]) + 1);
    }
  };
  // Give the group's lanes their steps and pcs.
  auto fold = [&] {
    if (fresh) {
      std::fill_n(steps_, lanes, 0u);
      fresh = false;
    }
    each([&](uint32_t l) {
      steps_[l] += group_steps;
      pc_[l] = split ? pc_[l] : pc;
    });
    group_steps = 0;
    split = false;
    total = 0;
    for (uint32_t l = 0; l < end; ++l) {
      total += steps_[l];
    }
  };

  for (;;) {
    if (total + uint64_t{group_steps} * g + g > budget) {
      // Some lane may be at its share: admit the group in lane order while
      // each lane is below what the lanes before it left. The first that is
      // not ran out of budget there, and the scan ends with it.
      fold();
      uint64_t prefix = 0;
      uint32_t admitted = 0;
      for (uint32_t l = 0; admitted < g; ++l) {
        if (!dense && group_[admitted] != l) {
          prefix += steps_[l];
        } else if (prefix + steps_[l] >= budget) {
          end_[l] = Ended(PolicyVmEvent::kBudget);
          end = l + 1;
          break;
        } else {
          prefix += steps_[l] + 1;
          ++admitted;
        }
      }
      g = admitted;
    }

    // A fetch outside the code ends the group there, its leader with it: the
    // leader's budget is final (every lane before it has ended), so it needed
    // no step it did not have.
    const uint32_t offset = pc - code_base_;
    StepEnd how = StepEnd::kEnded;
    if (g == 0) {
      how = StepEnd::kApart;
    } else if ((pc & 3u) != 0 || offset >= code_bytes_) {
      end_group(Ended(PolicyVmEvent::kFault));
    } else {
      lane_steps_ += g;
      ++group_steps;
      const Decoded d = Decode(words_[offset / 4]);
      const uint32_t imm = static_cast<uint32_t>(d.imm);
      uint32_t* const w = regs_[d.rd == 0 ? kSink : d.rd];
      const uint32_t* const a = regs_[d.rs1];
      const uint32_t* const b = regs_[d.rs2];
      const uint32_t* const first = regs_[d.rd];  // a branch's first operand

      // One body per execution class; kOp picks the table row's semantics.
      auto step = [&]<Op kOp, typename Lanes>(const Lanes& group)
          __attribute__((always_inline)) -> StepEnd {
        constexpr OpClass kClass = kOps[static_cast<uint32_t>(kOp)].cls;
        if constexpr (kClass == OpClass::kAlu) {
          group.Each([&](uint32_t l) { w[l] = Sem<kOp>(a[l], b[l], imm); });
          pc += 4;
          return StepEnd::kTogether;
        } else if constexpr (kClass == OpClass::kNop) {
          pc += 4;
          return StepEnd::kTogether;
        } else if constexpr (kClass == OpClass::kJal) {
          group.Each([&](uint32_t l) { w[l] = pc + 4; });
          pc += 4 + imm * 4;
          return StepEnd::kTogether;
        } else if constexpr (kClass == OpClass::kBranch) {
          const uint32_t taken_pc = pc + 4 + imm * 4;
          uint32_t taken = 0;
          group.Each([&](uint32_t l) {
            const bool t = Sem<kOp>(first[l], a[l], imm) != 0;
            pc_[l] = t ? taken_pc : pc + 4;
            taken += t ? 1 : 0;
          });
          if (taken != 0 && taken != group.n) {
            split = true;
            return StepEnd::kApart;
          }
          pc = taken != 0 ? taken_pc : pc + 4;
          return StepEnd::kTogether;
        } else if constexpr (kClass == OpClass::kJalr) {
          const uint32_t target = a[dense ? 0 : group_[0]] + imm;
          bool same = true;
          group.Each([&](uint32_t l) {
            pc_[l] = a[l] + imm;  // read before the link write: rd may be rs1
            w[l] = pc + 4;
            same = same && pc_[l] == target;
          });
          if (!same) {
            split = true;
            return StepEnd::kApart;
          }
          pc = target;
          return StepEnd::kTogether;
        } else if constexpr (kClass == OpClass::kLoad) {
          // A byte load picks its byte out of the little-endian feature word.
          // A lane outside the window reads the first word, and faults.
          constexpr uint32_t kWidth = Sem<kOp>(0, 0, 0);
          auto in_window = [&](uint32_t addr) {
            const uint32_t word = addr & ~3u;
            return (kWidth == 1 || word == addr) && word >= feature_base_ &&
                   word - feature_base_ < window_bytes;
          };
          if constexpr (std::is_same_v<Lanes, DenseLanes>) {
            // The usual load: from a base every lane set alike, so one
            // feature word of every lane, a row of the window.
            const uint32_t addr = a[0] + imm;
            uint32_t differ = 0;
            group.Each([&](uint32_t l) { differ |= a[l] ^ a[0]; });
            if (differ == 0 && in_window(addr)) {
              const uint32_t* row = features + ((addr & ~3u) - feature_base_) / 4 * stride;
              group.Each([&](uint32_t l) {
                const uint32_t v = row[l] >> (addr & 3u) * 8;
                w[l] = kWidth == 4 ? v : v & 0xffu;
              });
              pc += 4;
              return StepEnd::kTogether;
            }
          }
          bool faulted = false;
          group.Each([&](uint32_t l) {
            const uint32_t addr = a[l] + imm;
            const bool ok = in_window(addr);
            const uint32_t v =
                features[ok ? ((addr & ~3u) - feature_base_) / 4 * stride + l : 0] >>
                (addr & 3u) * 8;
            w[l] = kWidth == 4 ? v : v & 0xffu;
            if (!ok) {
              end_[l] = Ended(PolicyVmEvent::kFault);
              end = std::min(end, l + 1);
              faulted = true;
            }
          });
          pc += 4;
          return faulted ? StepEnd::kApart : StepEnd::kTogether;
        } else {
          // Store, trap or halt: every lane of the group ends here.
          end_group(Ended(kClass == OpClass::kHalt   ? PolicyVmEvent::kScore
                          : kClass == OpClass::kTrap ? PolicyVmEvent::kTrap
                                                     : PolicyVmEvent::kFault));
          return StepEnd::kEnded;
        }
      };

      switch (d.op) {
#define CK_CASE(mnemonic, op, format, cls, sem)                              \
  case Op::op:                                                               \
    how = dense ? step.template operator()<Op::op>(DenseLanes{g})           \
                : step.template operator()<Op::op>(ListedLanes{group_, g}); \
    break;
        CKVM_OPS(CK_CASE)
#undef CK_CASE
        default:
          end_group(Ended(PolicyVmEvent::kFault));
          break;
      }
    }
    if (how == StepEnd::kTogether && g == live) {
      continue;
    }
    // Regroup: fold the group back into its lanes, drop the lanes that ended
    // or cannot matter, and form the group of every running lane at the new
    // leader's pc -- lanes outside the group may have been waiting there.
    const bool all_ended = how == StepEnd::kEnded && g == live;
    fold();
    if (all_ended) {
      break;
    }
    uint32_t kept = 0;
    for (uint32_t i = 0; i < live; ++i) {
      const uint32_t l = listed ? live_[i] : i;
      live_[kept] = static_cast<uint8_t>(l);
      kept += end_[l] == kRunning && l < end ? 1 : 0;
    }
    live = kept;
    listed = true;
    if (live == 0) {
      break;
    }
    pc = pc_[live_[0]];
    g = 0;
    for (uint32_t i = 0; i < live; ++i) {
      const uint32_t l = live_[i];
      group_[g] = static_cast<uint8_t>(l);
      g += pc_[l] == pc ? 1 : 0;
    }
    dense = group_[g - 1] == g - 1;
  }

  // Cut each lane to the budget the lanes before it left. A lane that needed
  // more ran out of budget there; the first lane that did not score ends the
  // scan. When every lane scored within the budget, nothing is cut.
  if (total <= budget && std::count(end_, end_ + lanes, Ended(PolicyVmEvent::kScore)) == lanes) {
    for (uint32_t l = 0; l < lanes; ++l) {
      out[l] = {PolicyVmEvent::kScore, regs_[kRegA0][l], steps_[l]};
    }
    return lanes;
  }
  uint32_t left = budget;
  for (uint32_t l = 0; l < lanes; ++l) {
    const uint32_t how = end_[l];
    const uint32_t steps = steps_[l];
    if (how == Ended(PolicyVmEvent::kBudget) || steps > left) {
      out[l] = {PolicyVmEvent::kBudget, 0, left};
      return l;
    }
    left -= steps;
    if (how != Ended(PolicyVmEvent::kScore)) {
      out[l] = {static_cast<PolicyVmEvent>(how), 0, steps};
      return l;
    }
    out[l] = {PolicyVmEvent::kScore, regs_[kRegA0][l], steps};
  }
  return lanes;
}

}  // namespace ckisa

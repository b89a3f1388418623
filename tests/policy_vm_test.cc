// The guest replacement-policy VM (docs/POLICY_VM.md):
//   * sandbox semantics at the unit level: score delivery, the read-only
//     feature window, byte loads, store/trap/out-of-window faults, budget
//     exhaustion -- every run also checked against a reference sandbox that
//     drives the bus-based interpreter (ckisa::Run) through a GuestBus;
//   * the lane engine: scans of many candidates scored in one pass must be
//     the reference run one candidate at a time at the shared budget, and
//     a spinning chunk stays within the harmonic host-work bound;
//   * a partly faulting scan's counters and CPU clock against the
//     one-at-a-time scan;
//   * LoadPolicy validation (argument checks, kDenied without a table,
//     stale-caller rejection);
//   * guest-scored victim selection against the Cache Kernel, including the
//     traced clock fallbacks (fault, budget, no candidate) with invariants
//     intact -- a hostile program must never corrupt descriptor state;
//   * confinement: a guest policy only ever scores its own kernel's
//     descriptors, so a malicious scorer cannot evict a neighbor's objects;
//   * the guest FIFO program, victim by victim, against a test-local FIFO
//     reference through a seeded storm;
//   * checkpoint round-trips carrying programs word for word.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/appkernel/app_kernel_base.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/policy.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/image.h"
#include "src/isa/assembler.h"
#include "src/isa/interpreter.h"
#include "src/isa/sandbox.h"
#include "src/obs/trace.h"
#include "tests/random_program.h"
#include "tests/test_harness.h"

namespace {

using ck::CacheKernel;
using ck::CacheKernelConfig;
using ck::CkApi;
using ck::KernelId;
using ck::ObjectType;
using ck::PolicyFallback;
using ck::SpaceId;
using ck::ThreadId;
using ck::ThreadSpec;
using ck::VictimFeatures;
using ckbase::CkStatus;
using ckisa::PolicyVmEvent;
using ckisa::PolicyVmResult;

// Assemble a policy program at the policy code base or die.
std::vector<uint32_t> Asm(const std::string& source) {
  ckisa::AssembleResult result = ckisa::Assemble(source, ck::kPolicyCodeBase);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program.words;
}

// Score the candidate by one feature word: lw a0, <index*4>(feature base).
std::string ScoreWordSource(uint32_t word_index) {
  return "li t0, " + std::to_string(ck::kPolicyFeatureBase) + "\n" +
         "lw a0, " + std::to_string(word_index * 4) + "(t0)\n" + "halt\n";
}

// The reference sandbox: the restricted bus the policy VM ran on before it
// had its own memory policy in the interpreter. Program words are
// execute-only, the feature window is read-only, everything else faults, and
// nothing is charged.
class PolicyBus : public ckisa::GuestBus {
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

PolicyVmResult ReferenceRun(const uint32_t* words, uint32_t word_count, const uint32_t* features,
                            uint32_t feature_words, uint32_t code_base, uint32_t feature_base,
                            uint32_t budget) {
  PolicyVmResult out;
  if (words == nullptr || word_count == 0 || budget == 0) {
    out.event = budget == 0 ? PolicyVmEvent::kBudget : PolicyVmEvent::kFault;
    return out;
  }
  PolicyBus bus(words, word_count, features, feature_words, code_base, feature_base);
  ckisa::VmContext ctx;
  ctx.pc = code_base;
  ckisa::RunResult run = ckisa::Run(ctx, bus, budget);
  out.steps = run.instructions;
  switch (run.event) {
    case ckisa::RunEvent::kHalt:
      out.event = PolicyVmEvent::kScore;
      out.score = ctx.regs[ckisa::kRegA0];
      break;
    case ckisa::RunEvent::kTrap:
      out.event = PolicyVmEvent::kTrap;
      break;
    case ckisa::RunEvent::kFault:
      out.event = PolicyVmEvent::kFault;
      break;
    case ckisa::RunEvent::kBudgetExhausted:
      out.event = PolicyVmEvent::kBudget;
      break;
  }
  return out;
}

// RunPolicyProgram, required to agree with the reference in event, score
// and steps.
PolicyVmResult RunChecked(const uint32_t* words, uint32_t word_count, const uint32_t* features,
                          uint32_t feature_words, uint32_t code_base, uint32_t feature_base,
                          uint32_t budget) {
  PolicyVmResult got = ckisa::RunPolicyProgram(words, word_count, features, feature_words,
                                               code_base, feature_base, budget);
  PolicyVmResult want = ReferenceRun(words, word_count, features, feature_words, code_base,
                                     feature_base, budget);
  EXPECT_EQ(got.event, want.event) << "budget " << budget;
  EXPECT_EQ(got.score, want.score) << "budget " << budget;
  EXPECT_EQ(got.steps, want.steps) << "budget " << budget;
  return got;
}

// Feature words of four distinct bytes each, so a byte load that picks the
// wrong byte of its word reads a different value.
std::vector<uint32_t> DistinctByteWords(uint32_t count, ckbase::Rng& rng) {
  std::vector<uint32_t> out(count);
  for (uint32_t& w : out) {
    uint32_t b = static_cast<uint32_t>(rng.Below(256));
    w = (b & 0xffu) | ((b + 1) & 0xffu) << 8 | ((b + 2) & 0xffu) << 16 | ((b + 3) & 0xffu) << 24;
  }
  return out;
}

PolicyVmResult RunOnce(const std::vector<uint32_t>& words, const VictimFeatures& f,
                       uint32_t budget = 1024) {
  uint32_t raw[ck::kPolicyFeatureWords];
  std::memcpy(raw, &f, sizeof(raw));
  return RunChecked(words.data(), static_cast<uint32_t>(words.size()), raw,
                    ck::kPolicyFeatureWords, ck::kPolicyCodeBase, ck::kPolicyFeatureBase, budget);
}

// ---------------------------------------------------------------------------
// Sandbox unit level
// ---------------------------------------------------------------------------

TEST(PolicySandboxTest, ScoreIsA0AtHalt) {
  VictimFeatures f;
  f.age = 7;
  PolicyVmResult result = RunOnce(Asm(ScoreWordSource(1)), f);
  EXPECT_EQ(result.event, PolicyVmEvent::kScore);
  EXPECT_EQ(result.score, 7u);
  EXPECT_GT(result.steps, 0u);
}

TEST(PolicySandboxTest, EveryFeatureWordIsReadable) {
  VictimFeatures f;
  f.slot = 3;
  f.age = 11;
  f.hw_ref = 1;
  f.soft_ref = 1;
  f.load_seq_low = 42;
  f.state_class = 2;
  f.owner_is_self = 1;
  f.object_type = static_cast<uint32_t>(ObjectType::kThread);
  const uint32_t expect[ck::kPolicyFeatureWords] = {3, 11, 1, 1, 42, 2, 1, 2};
  for (uint32_t i = 0; i < ck::kPolicyFeatureWords; ++i) {
    PolicyVmResult result = RunOnce(Asm(ScoreWordSource(i)), f);
    ASSERT_EQ(result.event, PolicyVmEvent::kScore) << "word " << i;
    EXPECT_EQ(result.score, expect[i]) << "word " << i;
  }
}

TEST(PolicySandboxTest, ByteLoadsPickTheirByteOfTheFeatureWord) {
  ckbase::Rng rng(5);
  std::vector<uint32_t> features = DistinctByteWords(ck::kPolicyFeatureWords, rng);
  for (uint32_t offset = 0; offset < 4 * ck::kPolicyFeatureWords; ++offset) {
    std::vector<uint32_t> words =
        Asm("li t0, " + std::to_string(ck::kPolicyFeatureBase) + "\nlb a0, " +
            std::to_string(offset) + "(t0)\nhalt\n");
    PolicyVmResult result =
        RunChecked(words.data(), static_cast<uint32_t>(words.size()), features.data(),
                   ck::kPolicyFeatureWords, ck::kPolicyCodeBase, ck::kPolicyFeatureBase, 64);
    ASSERT_EQ(result.event, PolicyVmEvent::kScore) << "offset " << offset;
    EXPECT_EQ(result.score, (features[offset / 4] >> (offset % 4 * 8)) & 0xffu)
        << "offset " << offset;
  }
}

TEST(PolicySandboxTest, StoresFault) {
  // Stores fault everywhere: the feature window, the code window, and the
  // void. A policy program has no writable memory at all.
  VictimFeatures f;
  for (uint32_t addr : {ck::kPolicyFeatureBase, ck::kPolicyCodeBase, 0x2000u}) {
    PolicyVmResult result =
        RunOnce(Asm("li t0, " + std::to_string(addr) + "\nsw zero, 0(t0)\nhalt\n"), f);
    EXPECT_EQ(result.event, PolicyVmEvent::kFault) << "store to " << addr;
  }
}

TEST(PolicySandboxTest, TrapsAreForbidden) {
  PolicyVmResult result = RunOnce(Asm("trap 3\nhalt\n"), VictimFeatures{});
  EXPECT_EQ(result.event, PolicyVmEvent::kTrap);
}

TEST(PolicySandboxTest, OutOfWindowLoadFaults) {
  // One word past the feature window, and far outside it.
  VictimFeatures f;
  for (uint32_t addr : {ck::kPolicyFeatureBase + 4 * ck::kPolicyFeatureWords, 0x80000000u}) {
    PolicyVmResult result =
        RunOnce(Asm("li t0, " + std::to_string(addr) + "\nlw a0, 0(t0)\nhalt\n"), f);
    EXPECT_EQ(result.event, PolicyVmEvent::kFault) << "load from " << addr;
  }
}

TEST(PolicySandboxTest, DivisionOverflowEndsInAScore) {
  // INT_MIN / -1 and INT_MIN % -1 trap as host divisions; an untrusted
  // program must still end in a score (quotient INT_MIN, remainder 0).
  PolicyVmResult result = RunOnce(
      Asm("lui t0, 0x8000\naddi t1, r0, -1\nrem a1, t0, t1\ndiv a0, t0, t1\nhalt\n"),
      VictimFeatures{});
  EXPECT_EQ(result.event, PolicyVmEvent::kScore);
  EXPECT_EQ(result.score, 0x80000000u);
}

TEST(PolicySandboxTest, BudgetBoundsRuntime) {
  std::vector<uint32_t> spin = Asm("loop: j loop\n");
  PolicyVmResult result = RunOnce(spin, VictimFeatures{}, /*budget=*/16);
  EXPECT_EQ(result.event, PolicyVmEvent::kBudget);
  EXPECT_LE(result.steps, 16u);

  EXPECT_EQ(RunOnce(spin, VictimFeatures{}, /*budget=*/0).event, PolicyVmEvent::kBudget);
}

TEST(PolicySandboxTest, EmptyProgramFaults) {
  uint32_t raw[ck::kPolicyFeatureWords] = {0};
  EXPECT_EQ(RunChecked(nullptr, 0, raw, ck::kPolicyFeatureWords, ck::kPolicyCodeBase,
                       ck::kPolicyFeatureBase, 64)
                .event,
            PolicyVmEvent::kFault);
}

// The random programs of the trace/slow differential
// (tests/random_program.h), run unchanged in the sandbox with the feature
// window at their data address: once as the 8-word policy window, once
// covering both data pages so most of their loads read features. A third run
// generates the seed as a read-only program whose data starts one to three
// bytes into the window, so its byte loads read an inner byte of a feature
// word (and its word loads fault as misaligned). Whatever they do -- divide INT_MIN by
// -1, store, trap, jump or loop -- every run matches the reference and ends
// in one of the four sandbox events within its budget.
class PolicySandboxFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicySandboxFuzz, GeneratedProgramsMatchTheReference) {
  const uint32_t kDataPageWords = 2 * cksim::kPageSize / 4;
  const cktest::ProgramLayout layout;
  cktest::ProgramLayout shifted = layout;
  shifted.data_base += 1 + GetParam() % 3;
  shifted.read_only = true;
  ckbase::Rng rng(GetParam());
  std::vector<uint32_t> features = DistinctByteWords(kDataPageWords, rng);
  const std::pair<const cktest::ProgramLayout*, uint32_t> runs[] = {
      {&layout, ck::kPolicyFeatureWords}, {&layout, kDataPageWords}, {&shifted, kDataPageWords}};
  for (const auto& [program_layout, window] : runs) {
    std::vector<uint32_t> words = cktest::GenerateProgram(GetParam(), *program_layout);
    for (uint32_t budget : {1u, 7u, 64u, CacheKernelConfig().policy_step_budget}) {
      PolicyVmResult result =
          RunChecked(words.data(), static_cast<uint32_t>(words.size()), features.data(), window,
                     layout.code_base, layout.data_base, budget);
      EXPECT_LE(result.steps, budget);
      switch (result.event) {
        case PolicyVmEvent::kBudget:
          EXPECT_EQ(result.steps, budget);
          break;
        case PolicyVmEvent::kScore:
        case PolicyVmEvent::kFault:
        case PolicyVmEvent::kTrap:
          EXPECT_GT(result.steps, 0u);
          break;
        default:
          ADD_FAILURE() << "unknown sandbox event " << static_cast<int>(result.event);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generated, PolicySandboxFuzz, ::testing::Range<uint64_t>(1, 65),
                         [](const ::testing::TestParamInfo<uint64_t>& seed) {
                           return "seed" + std::to_string(seed.param);
                         });

// ---------------------------------------------------------------------------
// The lane engine: a scan's candidates scored in one pass must be exactly the
// scan that runs them one at a time on the reference bus, sharing the step
// budget.
// ---------------------------------------------------------------------------

constexpr uint32_t kLanes = ckisa::PolicyVm::kLanes;

// A scan's candidate windows, kept both ways: one contiguous window per
// candidate for the reference, and word-major chunks of kLanes for the engine.
struct ScanInput {
  uint32_t words = 0;                          // window size
  std::vector<std::vector<uint32_t>> windows;  // [candidate][word]
  std::vector<std::vector<uint32_t>> chunks;   // [chunk][word * kLanes + lane]
};

ScanInput MakeScanInput(uint32_t count, uint32_t words, ckbase::Rng& rng) {
  ScanInput in;
  in.words = words;
  for (uint32_t i = 0; i < count; ++i) {
    in.windows.push_back(DistinctByteWords(words, rng));
  }
  for (uint32_t base = 0; base < count; base += kLanes) {
    std::vector<uint32_t> chunk(words * kLanes, 0);
    for (uint32_t lane = 0; lane < kLanes && base + lane < count; ++lane) {
      for (uint32_t w = 0; w < words; ++w) {
        chunk[w * kLanes + lane] = in.windows[base + lane][w];
      }
    }
    in.chunks.push_back(std::move(chunk));
  }
  return in;
}

// The first `count` candidates scored one at a time: each runs on the
// reference bus with the budget the ones before it left, and the first that
// does not score stops the scan. Returns the results through that one.
std::vector<PolicyVmResult> ReferenceScan(const std::vector<uint32_t>& words,
                                          const ScanInput& in, uint32_t count,
                                          uint32_t code_base, uint32_t feature_base,
                                          uint32_t budget) {
  std::vector<PolicyVmResult> out;
  for (uint32_t i = 0; i < count; ++i) {
    out.push_back(ReferenceRun(words.data(), static_cast<uint32_t>(words.size()),
                               in.windows[i].data(), in.words, code_base, feature_base, budget));
    budget -= out.back().steps;
    if (out.back().event != PolicyVmEvent::kScore) {
      break;
    }
  }
  return out;
}

// The same scan through the engine, a chunk of kLanes per Run.
std::vector<PolicyVmResult> EngineScan(ckisa::PolicyVm& vm, const ScanInput& in, uint32_t count,
                                       uint32_t budget) {
  std::vector<PolicyVmResult> out;
  for (uint32_t base = 0; base < count; base += kLanes) {
    const uint32_t lanes = std::min(kLanes, count - base);
    PolicyVmResult results[kLanes];
    uint32_t scored =
        vm.Run(in.chunks[base / kLanes].data(), in.words, kLanes, lanes, budget, results);
    for (uint32_t i = 0; i < lanes && i <= scored; ++i) {
      out.push_back(results[i]);
      budget -= results[i].steps;
    }
    if (scored < lanes) {
      break;
    }
  }
  return out;
}

// Every candidate gets the reference run at its sequentially shared budget,
// and the scan stops at the same candidate. Returns the engine's results.
std::vector<PolicyVmResult> ExpectScanMatchesReference(ckisa::PolicyVm& vm,
                                                       const std::vector<uint32_t>& words,
                                                       const ScanInput& in, uint32_t count,
                                                       uint32_t code_base, uint32_t feature_base,
                                                       uint32_t budget) {
  std::vector<PolicyVmResult> want =
      ReferenceScan(words, in, count, code_base, feature_base, budget);
  std::vector<PolicyVmResult> got = EngineScan(vm, in, count, budget);
  EXPECT_EQ(got.size(), want.size())
      << "scan of " << count << " at budget " << budget << " stops at another candidate";
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].event, want[i].event) << "candidate " << i << " of " << count << ", budget "
                                           << budget;
    EXPECT_EQ(got[i].score, want[i].score) << "candidate " << i << " of " << count << ", budget "
                                           << budget;
    EXPECT_EQ(got[i].steps, want[i].steps) << "candidate " << i << " of " << count << ", budget "
                                           << budget;
  }
  return got;
}

// A program that reads a0, ra, t1 and t2 before it writes them -- through an
// ALU op, a jal and a word and a byte load -- scores every candidate as a
// fresh run does: the registers the last chunk left in a lane are cleared.
TEST(PolicyVmScanTest, RegistersReadBeforeWrittenStartZeroForEveryCandidate) {
  const std::vector<uint32_t> words = Asm("li t0, " + std::to_string(ck::kPolicyFeatureBase) +
                                          R"(
      add  a0, a0, ra
      add  a0, a0, t1
      add  a0, a0, t2
      call next
  next:
      lw   t1, 16(t0)
      lb   t2, 9(t0)
      add  a0, a0, t1
      add  a0, a0, t2
      halt
  )");
  ckbase::Rng rng(5);
  ScanInput in = MakeScanInput(2 * kLanes + 3, ck::kPolicyFeatureWords, rng);
  ckisa::PolicyVm vm(words.data(), static_cast<uint32_t>(words.size()), ck::kPolicyCodeBase,
                     ck::kPolicyFeatureBase);
  for (int scan = 0; scan < 2; ++scan) {
    EXPECT_EQ(ExpectScanMatchesReference(vm, words, in, 2 * kLanes + 3, ck::kPolicyCodeBase,
                                         ck::kPolicyFeatureBase, 1u << 20)
                  .size(),
              2 * kLanes + 3);
  }
}

// Past the 256 words LoadPolicy accepts the program is not decoded for the
// registers it names; a write at word 290 must still be cleared.
TEST(PolicyVmScanTest, LongProgramsClearEveryRegister) {
  std::vector<uint32_t> words = Asm("add a0, a0, s5\nhalt\n");
  ckbase::Rng rng(6);
  while (words.size() < 290) {
    words.push_back(static_cast<uint32_t>(rng.Next()));  // never executed
  }
  std::vector<uint32_t> tail =
      Asm("li t0, " + std::to_string(ck::kPolicyFeatureBase) + "\nlw s5, 16(t0)\n" +
          "add a0, a0, s5\nhalt\n");
  words.insert(words.end(), tail.begin(), tail.end());
  words[1] = ckisa::Encode(ckisa::Op::kJal, ckisa::kRegZero, 0, 288);  // j word 290
  ASSERT_GT(words.size(), 256u);
  ScanInput in = MakeScanInput(kLanes + 8, ck::kPolicyFeatureWords, rng);
  ckisa::PolicyVm vm(words.data(), static_cast<uint32_t>(words.size()), ck::kPolicyCodeBase,
                     ck::kPolicyFeatureBase);
  ExpectScanMatchesReference(vm, words, in, kLanes + 8, ck::kPolicyCodeBase,
                             ck::kPolicyFeatureBase, 1u << 20);
}

// Programs whose lanes go different ways on their features: a jalr through a
// jump table indexed by the slot word (one entry faults), and a branch that
// sends one lane in eight to an out-of-window load. The generated programs'
// addresses are constants, so only these fault on some lanes of a scan.
const char* const kDivergentSources[] = {
    R"(
      li   t0, 0x1000
      lw   t1, 0(t0)
      andi t1, t1, 3
      addi t2, r0, 2
      sll  t1, t1, t2
      la   t3, table
      add  t3, t3, t1
      jalr ra, t3
  table:
      j    zero
      j    one
      j    two
      lw   a0, 64(t0)
  zero:
      addi a0, a0, 1
  one:
      addi a0, a0, 10
  two:
      addi a0, a0, 100
      add  a0, a0, ra
      halt
  )",
    R"(
      li   t0, 0x1000
      lw   t1, 4(t0)
      andi t1, t1, 7
      bne  t1, r0, fine
      lw   a0, 64(t0)
  fine:
      lw   a0, 16(t0)
      add  a0, a0, t1
      halt
  )"};

// The 64 generated programs of the sandbox fuzz -- as written for a guest,
// with the 8-word policy window, and in their read-only sandbox form, with a
// window over both data pages -- and the divergent programs above, each
// scoring scans of 1 to 200 candidates (one short of, at and one past 64 and
// 128 lanes) at the budgets the scans share. Together they must take
// branches that split lanes, run loops, jump through jalr and fault on some
// lanes of a scan only.
TEST(PolicyVmScanTest, ScansMatchTheReference) {
  struct Case {
    std::vector<uint32_t> words;
    uint32_t code_base;
    uint32_t feature_base;
    uint32_t window;
  };
  const uint32_t kDataPageWords = 2 * cksim::kPageSize / 4;
  cktest::ProgramLayout layout;
  cktest::ProgramLayout read_only = layout;
  read_only.read_only = true;
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    cases.push_back({cktest::GenerateProgram(seed, layout), layout.code_base, layout.data_base,
                     ck::kPolicyFeatureWords});
    cases.push_back({cktest::GenerateProgram(seed, read_only), layout.code_base,
                     layout.data_base, kDataPageWords});
  }
  for (const char* source : kDivergentSources) {
    cases.push_back(
        {Asm(source), ck::kPolicyCodeBase, ck::kPolicyFeatureBase, ck::kPolicyFeatureWords});
  }
  uint32_t split = 0;
  uint32_t looped = 0;
  uint32_t jalr = 0;
  uint32_t partly_faulted = 0;
  ckbase::Rng rng(23);
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("program " + std::to_string(c));
    const Case& k = cases[c];
    for (uint32_t word : k.words) {
      jalr += ckisa::Decode(word).op == ckisa::Op::kJalr ? 1 : 0;
    }
    ScanInput in = MakeScanInput(200, k.window, rng);
    ckisa::PolicyVm vm(k.words.data(), static_cast<uint32_t>(k.words.size()), k.code_base,
                       k.feature_base);
    for (uint32_t count : {1u, 63u, 64u, 65u, 128u, 129u, 200u}) {
      for (uint32_t budget : {1u, 7u, 64u, CacheKernelConfig().policy_step_budget}) {
        std::vector<PolicyVmResult> got = ExpectScanMatchesReference(
            vm, k.words, in, count, k.code_base, k.feature_base, budget);
        for (const PolicyVmResult& r : got) {
          split += r.event == PolicyVmEvent::kScore && r.steps != got[0].steps ? 1 : 0;
          looped += r.steps > k.words.size() ? 1 : 0;
        }
        partly_faulted += got.size() > 1 && got.back().event == PolicyVmEvent::kFault ? 1 : 0;
      }
    }
  }
  EXPECT_GT(split, 0u) << "no scan scored lanes that went different ways";
  EXPECT_GT(looped, 0u) << "no lane ran a loop";
  EXPECT_GT(jalr, 0u) << "no program jumps through jalr";
  EXPECT_GT(partly_faulted, 0u) << "no scan faulted on a lane after others scored";
}

// A scan of candidates whose windows hold one word each.
ScanInput ScanOf(const std::vector<uint32_t>& words) {
  ScanInput in;
  in.words = ck::kPolicyFeatureWords;
  in.chunks.assign(1, std::vector<uint32_t>(ck::kPolicyFeatureWords * kLanes, 0));
  for (uint32_t lane = 0; lane < words.size(); ++lane) {
    in.windows.push_back(std::vector<uint32_t>(ck::kPolicyFeatureWords, 0));
    in.windows.back()[0] = words[lane];
    in.chunks[0][lane] = words[lane];
  }
  return in;
}

// Every budget from 0 to one past what the scan needs, so each lane in turn
// runs out exactly at, one short of and one past its end: a halt, and a jump
// out of the code whose fetch fault needs one step of budget more than it
// retires.
TEST(PolicyVmScanTest, BudgetCutsMatchTheReferenceAtEveryBoundary) {
  const std::vector<uint32_t> words = Asm(R"(
      li   t0, 0x1000
      lw   t1, 0(t0)        ; loop count; 0 jumps out of the code
      beq  t1, r0, out
  loop:
      addi t1, t1, -1
      bne  t1, r0, loop
      halt
  out:
      jalr zero, t0
  )");
  ckisa::PolicyVm vm(words.data(), static_cast<uint32_t>(words.size()), ck::kPolicyCodeBase,
                     ck::kPolicyFeatureBase);
  const std::vector<std::vector<uint32_t>> scans = {
      {3, 0, 2}, {0, 3}, {3, 2, 0, 1}, {1, 1, 1, 1, 1, 0}};
  for (const std::vector<uint32_t>& counts : scans) {
    const ScanInput in = ScanOf(counts);
    for (uint32_t budget = 0; budget <= 60; ++budget) {
      ExpectScanMatchesReference(vm, words, in, static_cast<uint32_t>(counts.size()),
                                 ck::kPolicyCodeBase, ck::kPolicyFeatureBase, budget);
    }
  }
}

// A program that spins over a full chunk. Its lanes stay together, so under
// the rule that lane k runs only while its steps stay below the budget less
// what lanes 0..k-1 have run, lane k runs exactly floor(budget / (k + 1))
// steps: budget * H(lanes) <= budget * (1 + ln lanes) lane-steps in all.
TEST(PolicyVmScanTest, SelfLoopOverAFullChunkStaysWithinTheHarmonicBound) {
  const std::vector<uint32_t> spin = Asm("loop: j loop\n");
  std::vector<uint32_t> window(ck::kPolicyFeatureWords * kLanes, 0);
  for (uint32_t budget : {1u, 7u, 64u, 4096u, 100000u}) {
    ckisa::PolicyVm vm(spin.data(), static_cast<uint32_t>(spin.size()), ck::kPolicyCodeBase,
                       ck::kPolicyFeatureBase);
    PolicyVmResult out[kLanes];
    EXPECT_EQ(vm.Run(window.data(), ck::kPolicyFeatureWords, kLanes, kLanes, budget, out), 0u);
    EXPECT_EQ(out[0].event, PolicyVmEvent::kBudget);
    EXPECT_EQ(out[0].steps, budget);
    uint64_t lockstep = 0;
    for (uint32_t k = 0; k < kLanes; ++k) {
      lockstep += budget / (k + 1);
    }
    EXPECT_EQ(vm.lane_steps(), lockstep) << "budget " << budget;
    EXPECT_LE(static_cast<double>(vm.lane_steps()), budget * (1 + std::log(double{kLanes})))
        << "budget " << budget;
  }
}

// ---------------------------------------------------------------------------
// Kernel level
// ---------------------------------------------------------------------------

// Minimal app kernel with a PolicyTable (so LoadPolicy works).
class PolicyKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, CkApi&) override {
    ck::TrapAction action;
    action.action = ck::HandlerAction::kTerminate;
    return action;
  }
  void OnThreadWriteback(const ck::ThreadWriteback& record, CkApi&) override {
    thread_writebacks.push_back(record.cookie);
  }
  void OnMappingWriteback(const ck::MappingWriteback& record, CkApi&) override {
    mapping_writebacks.push_back(record.vaddr);
  }
  void OnSpaceWriteback(const ck::SpaceWriteback&, CkApi&) override {}
  ck::PolicyTable* policy_table() override { return &table; }

  ck::PolicyTable table;
  std::vector<uint64_t> thread_writebacks;
  std::vector<cksim::VirtAddr> mapping_writebacks;
};

// Same upcall surface, no policy table (the pre-PolicyTable app kernel).
class TablelessKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, CkApi&) override {
    ck::TrapAction action;
    action.action = ck::HandlerAction::kTerminate;
    return action;
  }
  void OnThreadWriteback(const ck::ThreadWriteback& record, CkApi&) override {
    thread_writebacks.push_back(record.cookie);
  }
  void OnMappingWriteback(const ck::MappingWriteback&, CkApi&) override {}
  void OnSpaceWriteback(const ck::SpaceWriteback&, CkApi&) override {}
  std::vector<uint64_t> thread_writebacks;
};

class PolicyVmTest : public ::testing::Test {
 protected:
  void Init(CacheKernelConfig config) {
    cksim::MachineConfig mc;
    mc.memory_bytes = 8u << 20;
    machine_ = std::make_unique<cksim::Machine>(mc);
    machine_->EnableTracing(/*capacity_per_cpu=*/4096);
    ck_ = std::make_unique<CacheKernel>(*machine_, config);
    first_id_ = ck_->BootFirstKernel(&first_, 0);
  }

  CkApi Api() { return CkApi(*ck_, first_id_, machine_->cpu(0)); }

  void ExpectClean() {
    std::vector<std::string> violations = ck_->ValidateInvariants();
    EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: "
                                    << (violations.empty() ? "" : violations[0]);
  }

  // Events of `type` recorded on CPU 0's ring.
  uint32_t TraceCount(obs::EventType type, uint32_t* last_arg32 = nullptr) {
    const obs::TraceRing& ring = machine_->tracer()->ring(0);
    uint32_t count = 0;
    for (size_t i = 0; i < ring.size(); ++i) {
      if (ring.at(i).type == static_cast<uint8_t>(type)) {
        ++count;
        if (last_arg32 != nullptr) {
          *last_arg32 = ring.at(i).arg32;
        }
      }
    }
    return count;
  }

  CkStatus Install(const std::string& source, ObjectType type = ObjectType::kThread) {
    std::vector<uint32_t> words = Asm(source);
    CkApi api = Api();
    return api.LoadPolicy(type, words.data(), static_cast<uint32_t>(words.size()));
  }

  // Fill the thread pool with `count` blocked threads, cookies base..base+n.
  SpaceId FillThreads(uint32_t count, uint64_t cookie_base = 100) {
    CkApi api = Api();
    ckbase::Result<SpaceId> space = api.LoadSpace(1, /*locked=*/true);
    EXPECT_TRUE(space.ok());
    for (uint32_t i = 0; i < count; ++i) {
      ThreadSpec spec;
      spec.space = space.value();
      spec.start_blocked = true;
      spec.cookie = cookie_base + i;
      EXPECT_TRUE(api.LoadThread(spec).ok()) << "load " << i;
    }
    return space.value();
  }

  std::unique_ptr<cksim::Machine> machine_;
  std::unique_ptr<CacheKernel> ck_;
  PolicyKernel first_;
  KernelId first_id_;
};

TEST_F(PolicyVmTest, LoadPolicyValidatesArguments) {
  Init(CacheKernelConfig());
  CkApi api = Api();
  std::vector<uint32_t> words = Asm("halt\n");
  EXPECT_EQ(api.LoadPolicy(ObjectType::kThread, nullptr, 1), CkStatus::kInvalidArgument);
  EXPECT_EQ(api.LoadPolicy(ObjectType::kThread, words.data(), 0), CkStatus::kInvalidArgument);
  std::vector<uint32_t> huge(ck::kMaxPolicyProgramWords + 1, 0);
  EXPECT_EQ(api.LoadPolicy(ObjectType::kThread, huge.data(),
                           static_cast<uint32_t>(huge.size())),
            CkStatus::kInvalidArgument);
  EXPECT_FALSE(first_.table.guest[static_cast<int>(ObjectType::kThread)].enabled);

  EXPECT_EQ(api.LoadPolicy(ObjectType::kThread, words.data(), 1), CkStatus::kOk);
  EXPECT_TRUE(first_.table.guest[static_cast<int>(ObjectType::kThread)].enabled);
  EXPECT_EQ(TraceCount(obs::EventType::kPolicyLoad), 1u);

  EXPECT_EQ(api.ClearPolicy(ObjectType::kThread), CkStatus::kOk);
  EXPECT_FALSE(first_.table.guest[static_cast<int>(ObjectType::kThread)].enabled);
}

TEST_F(PolicyVmTest, LoadPolicyDeniedWithoutTable) {
  Init(CacheKernelConfig());
  CkApi api = Api();
  TablelessKernel second;
  ckbase::Result<KernelId> second_id = api.LoadKernel(&second, 1);
  ASSERT_TRUE(second_id.ok());
  CkApi api2(*ck_, second_id.value(), machine_->cpu(0));
  std::vector<uint32_t> words = Asm("halt\n");
  EXPECT_EQ(api2.LoadPolicy(ObjectType::kThread, words.data(), 1), CkStatus::kDenied);
}

TEST_F(PolicyVmTest, GuestProgramPicksTheVictim) {
  CacheKernelConfig config;
  config.thread_slots = 4;
  Init(config);
  // FIFO expressed as a guest program: score = load_seq_low, evict minimum.
  ASSERT_EQ(Install(ScoreWordSource(4)), CkStatus::kOk);
  FillThreads(6);
  EXPECT_EQ(ck_->loaded_count(ObjectType::kThread), 4u);
  ASSERT_EQ(first_.thread_writebacks.size(), 2u);
  EXPECT_EQ(first_.thread_writebacks[0], 100u) << "guest FIFO evicts the oldest load";
  EXPECT_EQ(first_.thread_writebacks[1], 101u);
  EXPECT_GE(ck_->stats().policy_vm_runs, 2u) << "one run per admitted candidate per scan";
  EXPECT_GT(ck_->stats().policy_vm_steps, 0u);
  EXPECT_EQ(ck_->stats().policy_fallbacks, 0u);
  EXPECT_EQ(TraceCount(obs::EventType::kPolicyGuest), 2u);
  // The VM work is attributed to a tenant account (conservation: the sum
  // over tenants matches the work the engine reports).
  uint64_t tenant_vm_steps = 0;
  for (const ck::CostAccount& t : ck_->tenant_accounts()) {
    tenant_vm_steps += t.policy_vm_steps;
  }
  EXPECT_EQ(tenant_vm_steps, ck_->stats().policy_vm_steps);
  ExpectClean();
}

// A kernel may rewrite its PolicyTable's program words after LoadPolicy. A
// 300-word program (longer than LoadPolicy accepts) that jumps over 295
// words of filler to a FIFO scorer scores every candidate exactly as a
// one-shot RunPolicyProgram would.
TEST_F(PolicyVmTest, ProgramRewrittenPastTheLoadLimitScoresAsOneShotRuns) {
  CacheKernelConfig config;
  config.thread_slots = 4;
  Init(config);
  ASSERT_EQ(Install(ScoreWordSource(4)), CkStatus::kOk);
  std::vector<uint32_t> tail = Asm(ScoreWordSource(4));
  std::vector<uint32_t>& words =
      first_.table.guest[static_cast<uint32_t>(ObjectType::kThread)].words;
  words.assign(1, ckisa::Encode(ckisa::Op::kJal, ckisa::kRegZero, 0, 295));
  ckbase::Rng rng(9);
  while (words.size() < 296) {
    words.push_back(static_cast<uint32_t>(rng.Next()));
  }
  words.insert(words.end(), tail.begin(), tail.end());
  ASSERT_EQ(words.size(), 296u + tail.size());
  uint32_t window[ck::kPolicyFeatureWords] = {};
  PolicyVmResult one_shot =
      ckisa::RunPolicyProgram(words.data(), static_cast<uint32_t>(words.size()), window,
                              ck::kPolicyFeatureWords, ck::kPolicyCodeBase,
                              ck::kPolicyFeatureBase, config.policy_step_budget);
  ASSERT_EQ(one_shot.event, PolicyVmEvent::kScore);

  FillThreads(6);
  ASSERT_EQ(first_.thread_writebacks.size(), 2u);
  EXPECT_EQ(first_.thread_writebacks[0], 100u) << "guest FIFO evicts the oldest load";
  EXPECT_EQ(first_.thread_writebacks[1], 101u);
  EXPECT_GE(ck_->stats().policy_vm_runs, 2u);
  EXPECT_EQ(ck_->stats().policy_vm_steps, ck_->stats().policy_vm_runs * one_shot.steps);
  EXPECT_EQ(ck_->stats().policy_fallbacks, 0u);
  ExpectClean();
}

TEST_F(PolicyVmTest, BudgetExhaustionFallsBackToClock) {
  CacheKernelConfig config;
  config.thread_slots = 4;
  config.policy_step_budget = 8;  // too few for even one scoring run
  Init(config);
  ASSERT_EQ(Install("loop: j loop\n"), CkStatus::kOk);
  FillThreads(5);
  // The load still succeeded -- clock picked the victim after the budget ran
  // out -- and the failure is visible in stats and the trace.
  EXPECT_EQ(ck_->loaded_count(ObjectType::kThread), 4u);
  EXPECT_EQ(first_.thread_writebacks.size(), 1u);
  EXPECT_GE(ck_->stats().policy_vm_budget, 1u);
  EXPECT_GE(ck_->stats().policy_fallbacks, 1u);
  uint32_t arg32 = 0;
  ASSERT_GE(TraceCount(obs::EventType::kPolicyFallback, &arg32), 1u);
  EXPECT_EQ(arg32 & 0xff, static_cast<uint32_t>(PolicyFallback::kBudget));
  EXPECT_EQ(arg32 >> 8, static_cast<uint32_t>(ObjectType::kThread));
  ExpectClean();
}

TEST_F(PolicyVmTest, GuestFaultFallsBackToClock) {
  CacheKernelConfig config;
  config.thread_slots = 4;
  Init(config);
  // The program stores into the feature window: faults on the first run.
  ASSERT_EQ(Install("li t0, " + std::to_string(ck::kPolicyFeatureBase) +
                    "\nsw zero, 0(t0)\nhalt\n"),
            CkStatus::kOk);
  FillThreads(5);
  EXPECT_EQ(ck_->loaded_count(ObjectType::kThread), 4u);
  EXPECT_EQ(first_.thread_writebacks.size(), 1u);
  EXPECT_GE(ck_->stats().policy_vm_faults, 1u);
  EXPECT_GE(ck_->stats().policy_fallbacks, 1u);
  uint32_t arg32 = 0;
  ASSERT_GE(TraceCount(obs::EventType::kPolicyFallback, &arg32), 1u);
  EXPECT_EQ(arg32 & 0xff, static_cast<uint32_t>(PolicyFallback::kFault));
  ExpectClean();
}

TEST_F(PolicyVmTest, MaliciousProgramCannotTouchAnotherKernelsDescriptors) {
  CacheKernelConfig config;
  config.thread_slots = 4;
  Init(config);
  CkApi api = Api();

  // A tableless neighbor loads the two OLDEST threads; under clock they
  // would be the natural victims.
  TablelessKernel neighbor;
  ckbase::Result<KernelId> neighbor_id = api.LoadKernel(&neighbor, 7);
  ASSERT_TRUE(neighbor_id.ok());
  CkApi neighbor_api(*ck_, neighbor_id.value(), machine_->cpu(0));
  ckbase::Result<SpaceId> neighbor_space = neighbor_api.LoadSpace(70);
  ASSERT_TRUE(neighbor_space.ok());
  for (uint64_t cookie : {700, 701}) {
    ThreadSpec spec;
    spec.space = neighbor_space.value();
    spec.start_blocked = true;
    spec.cookie = cookie;
    ASSERT_TRUE(neighbor_api.LoadThread(spec).ok());
  }

  // The first kernel installs a "score everything 0, evict anything" program
  // -- the most aggressive scorer possible -- then overflows the pool.
  ASSERT_EQ(Install("li a0, 0\nhalt\n"), CkStatus::kOk);
  FillThreads(3);

  // Confinement: only the first kernel's own (newer) threads were eligible,
  // so its oldest thread went, and the neighbor's threads survived.
  ASSERT_EQ(first_.thread_writebacks.size(), 1u);
  EXPECT_EQ(first_.thread_writebacks[0], 100u);
  EXPECT_TRUE(neighbor.thread_writebacks.empty())
      << "a guest policy must never evict another kernel's descriptors";
  EXPECT_EQ(TraceCount(obs::EventType::kPolicyGuest), 1u);
  ExpectClean();
}

TEST_F(PolicyVmTest, GuestWithNoOwnCandidatesFallsBackToClock) {
  CacheKernelConfig config;
  config.thread_slots = 2;
  Init(config);
  CkApi api = Api();
  // Neighbor owns every slot; the first kernel's scorer admits nothing of
  // its own, so the scan reports no candidate and clock takes over (evicting
  // the neighbor's oldest, exactly as without any policy).
  TablelessKernel neighbor;
  ckbase::Result<KernelId> neighbor_id = api.LoadKernel(&neighbor, 7);
  ASSERT_TRUE(neighbor_id.ok());
  CkApi neighbor_api(*ck_, neighbor_id.value(), machine_->cpu(0));
  ckbase::Result<SpaceId> neighbor_space = neighbor_api.LoadSpace(70);
  ASSERT_TRUE(neighbor_space.ok());
  for (uint64_t cookie : {700, 701}) {
    ThreadSpec spec;
    spec.space = neighbor_space.value();
    spec.start_blocked = true;
    spec.cookie = cookie;
    ASSERT_TRUE(neighbor_api.LoadThread(spec).ok());
  }
  ASSERT_EQ(Install("li a0, 0\nhalt\n"), CkStatus::kOk);
  FillThreads(1);
  EXPECT_EQ(neighbor.thread_writebacks.size(), 1u);
  uint32_t arg32 = 0;
  ASSERT_GE(TraceCount(obs::EventType::kPolicyFallback, &arg32), 1u);
  EXPECT_EQ(arg32 & 0xff, static_cast<uint32_t>(PolicyFallback::kNoCandidate));
  ExpectClean();
}

// What the mapping load that forces one reclaim scan changed: every CkStats
// word, and CPU 0's clock.
struct ForcedReclaim {
  uint64_t stats[sizeof(ck::CkStats) / sizeof(uint64_t)];
  cksim::Cycles clock = 0;
};

// One kernel fills a 12-entry mapping cache (the records take slots 0..11 in
// load order), installs `program` as its mapping policy (none when empty)
// and loads a 13th mapping.
ForcedReclaim ForceMappingReclaim(const std::string& program, uint32_t candidates) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  CacheKernelConfig config;
  config.mapping_slots = candidates;
  CacheKernel ck(machine, config);
  PolicyKernel app;
  KernelId id = ck.BootFirstKernel(&app, 0);
  CkApi api(ck, id, machine.cpu(0));
  ckbase::Result<SpaceId> space = api.LoadSpace(1);
  EXPECT_TRUE(space.ok());
  auto map = [&](uint32_t page) {
    ck::MappingSpec spec;
    spec.space = space.value();
    spec.vaddr = 0x10000 + page * cksim::kPageSize;
    spec.paddr = 0x100000 + page * cksim::kPageSize;
    return api.LoadMapping(spec);
  };
  for (uint32_t page = 0; page < candidates; ++page) {
    EXPECT_EQ(map(page), CkStatus::kOk);
  }
  if (!program.empty()) {
    std::vector<uint32_t> words = Asm(program);
    EXPECT_EQ(api.LoadPolicy(ObjectType::kMapping, words.data(),
                             static_cast<uint32_t>(words.size())),
              CkStatus::kOk);
  }
  ForcedReclaim out;
  std::memcpy(out.stats, &ck.stats(), sizeof(out.stats));
  const cksim::Cycles clock = machine.cpu(0).clock();
  EXPECT_EQ(map(candidates), CkStatus::kOk);
  uint64_t after[sizeof(out.stats) / sizeof(uint64_t)];
  std::memcpy(after, &ck.stats(), sizeof(after));
  for (size_t i = 0; i < std::size(after); ++i) {
    out.stats[i] = after[i] - out.stats[i];
  }
  out.clock = machine.cpu(0).clock() - clock;
  EXPECT_TRUE(ck.ValidateInvariants().empty());
  return out;
}

// A program that faults on one candidate in the middle of a scan and scores
// the rest. The engine gathers every candidate's window first, but the scan
// must charge and count as one that runs the candidates one at a time and
// stops at the fault: the runs and steps through it, the referenced-bit
// walks (two table levels each) through it, its scan steps, then the clock
// fallback -- which costs what a scan with no policy at all costs.
TEST(PolicyVmKernelTest, PartlyFaultingScanChargesAsOneCandidateAtATime) {
  constexpr uint32_t kCandidates = 12;
  constexpr uint32_t kFaulting = 5;
  const std::string program = "li t0, " + std::to_string(ck::kPolicyFeatureBase) + R"(
      lw   t1, 0(t0)
      addi t2, r0, )" + std::to_string(kFaulting) + R"(
      bne  t1, t2, fine
      lw   a0, 64(t0)
  fine:
      lw   a0, 16(t0)
      halt
  )";
  const ForcedReclaim clock_only = ForceMappingReclaim("", kCandidates);
  const ForcedReclaim guest = ForceMappingReclaim(program, kCandidates);

  // The one-at-a-time scan: candidates in slot order, each run at the
  // budget the ones before it left, through the faulting one.
  const std::vector<uint32_t> words = Asm(program);
  uint32_t budget = CacheKernelConfig().policy_step_budget;
  uint64_t vm_steps = 0;
  for (uint32_t slot = 0; slot <= kFaulting; ++slot) {
    const uint32_t window[ck::kPolicyFeatureWords] = {slot};
    PolicyVmResult r = ReferenceRun(words.data(), static_cast<uint32_t>(words.size()), window,
                                    ck::kPolicyFeatureWords, ck::kPolicyCodeBase,
                                    ck::kPolicyFeatureBase, budget);
    ASSERT_EQ(r.event, slot == kFaulting ? PolicyVmEvent::kFault : PolicyVmEvent::kScore);
    vm_steps += r.steps;
    budget -= r.steps;
  }
  ck::CkStats want;
  std::memcpy(&want, clock_only.stats, sizeof(want));
  want.policy_vm_runs += kFaulting + 1;
  want.policy_vm_steps += vm_steps;
  want.policy_vm_faults += 1;
  want.policy_fallbacks += 1;
  want.reclaim_scan_steps[static_cast<uint32_t>(ObjectType::kMapping)] += kFaulting + 1;
  uint64_t want_words[std::size(guest.stats)];
  std::memcpy(want_words, &want, sizeof(want_words));
  for (size_t i = 0; i < std::size(want_words); ++i) {
    EXPECT_EQ(guest.stats[i], want_words[i]) << "CkStats word " << i;
  }
  const cksim::CostModel cost;
  EXPECT_EQ(guest.clock, clock_only.clock + (kFaulting + 1) * 2 * cost.table_walk_level)
      << "walks past the faulting candidate were charged";
}

// ---------------------------------------------------------------------------
// FIFO as a guest program against a test-local reference
// ---------------------------------------------------------------------------

// The reference is what the Cache Kernel's built-in FIFO scan chose before
// FIFO became a guest program: the minimum load stamp over the admitted
// (requester-owned) unpinned candidates, first wins on a tie. Stamps count
// this model's successful mapping loads, which orders candidates exactly as
// the mapping cache's per-slot load stamps do.
class FifoReference {
 public:
  struct Entry {
    uint32_t kernel = 0;
    cksim::VirtAddr vaddr = 0;
    uint64_t stamp = 0;
    bool pinned = false;
  };

  void Load(uint32_t kernel, cksim::VirtAddr vaddr, bool pinned) {
    loaded_.push_back(Entry{kernel, vaddr, ++clock_, pinned});
  }
  void Remove(cksim::VirtAddr vaddr) {
    for (size_t i = 0; i < loaded_.size(); ++i) {
      if (loaded_[i].vaddr == vaddr) {
        loaded_.erase(loaded_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    ADD_FAILURE() << "no loaded mapping at " << vaddr;
  }
  const Entry* Find(cksim::VirtAddr vaddr) const {
    for (const Entry& e : loaded_) {
      if (e.vaddr == vaddr) {
        return &e;
      }
    }
    return nullptr;
  }
  // The victim of a scan `kernel` forces, or nullptr when it admits no
  // candidate (the scan then falls back to clock).
  const Entry* Victim(uint32_t kernel) const {
    const Entry* best = nullptr;
    for (const Entry& e : loaded_) {
      if (e.kernel == kernel && !e.pinned && (best == nullptr || e.stamp < best->stamp)) {
        best = &e;
      }
    }
    return best;
  }

 private:
  std::vector<Entry> loaded_;
  uint64_t clock_ = 0;
};

class GuestFifoStormTest : public ::testing::TestWithParam<uint64_t> {};

// Two kernels share a 24-entry mapping cache, each with the guest FIFO
// program for its mappings; the first also pins some of its own. Every
// eviction a load forces must be the reference's victim for the loading
// kernel, and a scan with no admitted candidate must be the traced fallback.
TEST_P(GuestFifoStormTest, GuestFifoEvictsTheReferenceVictim) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  CacheKernelConfig config;
  config.mapping_slots = 24;
  CacheKernel ck(machine, config);
  PolicyKernel kernels[2];
  KernelId first = ck.BootFirstKernel(&kernels[0], 0);
  CkApi first_api(ck, first, machine.cpu(0));
  ckbase::Result<KernelId> second = first_api.LoadKernel(&kernels[1], 1, /*locked=*/true);
  ASSERT_TRUE(second.ok());
  // Both kernels map frames from 1 MiB up: grant the second kernel them.
  constexpr cksim::PhysAddr kFrames = 0x100000;
  ASSERT_EQ(first_api.GrantPageGroups(second.value(), kFrames / cksim::kPageGroupBytes,
                                      64 * cksim::kPageSize / cksim::kPageGroupBytes + 1,
                                      ck::GroupAccess::kRead),
            CkStatus::kOk);
  CkApi apis[2] = {first_api, CkApi(ck, second.value(), machine.cpu(0))};
  std::vector<uint32_t> fifo = Asm(ScoreWordSource(4));
  SpaceId spaces[2];
  for (uint32_t k = 0; k < 2; ++k) {
    ASSERT_EQ(apis[k].LoadPolicy(ObjectType::kMapping, fifo.data(),
                                 static_cast<uint32_t>(fifo.size())),
              CkStatus::kOk);
    // Only the first kernel may lock (a loaded kernel's lock limits are 0).
    ckbase::Result<SpaceId> space = apis[k].LoadSpace(10 + k, /*locked=*/k == 0);
    ASSERT_TRUE(space.ok());
    spaces[k] = space.value();
  }

  // Kernel k's pages live at vaddr (k + 1) MiB + page * 4 KiB, so a
  // writeback's vaddr names its owner.
  auto vaddr_of = [](uint32_t k, uint32_t page) {
    return static_cast<cksim::VirtAddr>(((k + 1) << 20) + page * cksim::kPageSize);
  };
  FifoReference model;
  ckbase::Rng rng(GetParam());
  uint32_t pinned = 0;
  uint32_t checked = 0;
  uint32_t fallbacks = 0;
  for (int op = 0; op < 1500; ++op) {
    uint32_t k = static_cast<uint32_t>(rng.Below(2));
    cksim::VirtAddr vaddr = vaddr_of(k, static_cast<uint32_t>(rng.Below(40)));
    if (const FifoReference::Entry* loaded = model.Find(vaddr)) {
      if (!loaded->pinned && rng.Chance(1, 3)) {
        ASSERT_EQ(apis[k].UnloadMapping(spaces[k], vaddr), CkStatus::kOk);
        model.Remove(vaddr);
      }
      continue;
    }
    ck::MappingSpec spec;
    spec.space = spaces[k];
    spec.vaddr = vaddr;
    spec.paddr = kFrames + static_cast<uint32_t>(rng.Below(64)) * cksim::kPageSize;
    spec.locked = k == 0 && pinned < 6 && rng.Chance(1, 10);
    const FifoReference::Entry* expected = model.Victim(k);
    uint64_t fallbacks_before = ck.stats().policy_fallbacks;
    kernels[0].mapping_writebacks.clear();
    kernels[1].mapping_writebacks.clear();
    ASSERT_EQ(apis[k].LoadMapping(spec), CkStatus::kOk) << "op " << op;
    std::vector<cksim::VirtAddr> evicted = kernels[0].mapping_writebacks;
    evicted.insert(evicted.end(), kernels[1].mapping_writebacks.begin(),
                   kernels[1].mapping_writebacks.end());
    ASSERT_LE(evicted.size(), 1u) << "op " << op;
    if (evicted.size() == 1) {
      if (expected != nullptr) {
        EXPECT_EQ(evicted[0], expected->vaddr) << "op " << op << ": not the oldest unpinned load";
        EXPECT_EQ(ck.stats().policy_fallbacks, fallbacks_before);
        ++checked;
      } else {
        EXPECT_EQ(ck.stats().policy_fallbacks, fallbacks_before + 1) << "op " << op;
        ++fallbacks;
      }
      model.Remove(evicted[0]);
    }
    model.Load(k, vaddr, spec.locked);
    pinned += spec.locked ? 1 : 0;
  }
  EXPECT_GT(checked, 100u) << "the storm must force many guest scans";
  EXPECT_EQ(ck.stats().policy_vm_faults, 0u);
  EXPECT_EQ(ck.stats().policy_fallbacks, fallbacks);
  std::vector<std::string> violations = ck.ValidateInvariants();
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: "
                                  << (violations.empty() ? "" : violations[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestFifoStormTest, ::testing::Values(1u, 7u, 42u, 90210u));

// ---------------------------------------------------------------------------
// Checkpoint round-trip: programs migrate word for word
// ---------------------------------------------------------------------------

TEST(PolicyCkptTest, PolicyTableSurvivesCheckpointRestoreBitExact) {
  cktest::TestWorld a;
  ckapp::AppKernelBase app_a("policy-ckpt", 16);
  ASSERT_TRUE(a.Launch(app_a).valid());
  ck::CkApi api_a(a.ck(), app_a.self(), a.machine().cpu(0));

  // Different programs for mappings and threads; spaces and kernels keep
  // none.
  ASSERT_EQ(app_a.InstallPolicyProgram(api_a, ObjectType::kMapping, ScoreWordSource(4)), "");
  ASSERT_EQ(app_a.InstallPolicyProgram(api_a, ObjectType::kThread, ScoreWordSource(1)), "");

  ckckpt::CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app_a, &image), CkStatus::kOk);
  std::vector<uint8_t> bytes = image.Serialize();
  ckckpt::CkptImage shipped;
  std::string error;
  ASSERT_TRUE(ckckpt::CkptImage::Parse(bytes, &shipped, &error)) << error;

  cktest::TestWorld b;
  ckapp::AppKernelBase app_b("policy-ckpt", 16);
  ASSERT_EQ(b.srm().Restore(app_b, shipped, ckckpt::RestoreOptions(), &error), CkStatus::kOk)
      << error;
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    const ck::GuestPolicy& before = app_a.policy_table()->guest[t];
    const ck::GuestPolicy& after = app_b.policy_table()->guest[t];
    EXPECT_EQ(after.enabled, before.enabled) << "type " << t;
    EXPECT_EQ(after.words, before.words) << "type " << t;
  }
  EXPECT_TRUE(app_b.policy_table()->guest[static_cast<int>(ObjectType::kMapping)].enabled);
  EXPECT_FALSE(app_b.policy_table()->guest[static_cast<int>(ObjectType::kSpace)].enabled);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

TEST(PolicyCkptTest, RestoredGuestProgramIsActive) {
  cktest::TestWorld a;
  ckapp::AppKernelBase app_a("policy-active", 16);
  ASSERT_TRUE(a.Launch(app_a).valid());
  ck::CkApi api_a(a.ck(), app_a.self(), a.machine().cpu(0));
  ASSERT_EQ(app_a.InstallPolicyProgram(api_a, ObjectType::kThread, ScoreWordSource(4)), "");

  ckckpt::CkptImage image;
  ASSERT_EQ(a.srm().Checkpoint(app_a, &image), CkStatus::kOk);

  cktest::TestWorld b;
  ckapp::AppKernelBase app_b("policy-active", 16);
  std::string error;
  ASSERT_EQ(b.srm().Restore(app_b, image, ckckpt::RestoreOptions(), &error), CkStatus::kOk)
      << error;
  const ck::GuestPolicy& guest =
      app_b.policy_table()->guest[static_cast<int>(ObjectType::kThread)];
  EXPECT_TRUE(guest.enabled);
  EXPECT_EQ(guest.words,
            app_a.policy_table()->guest[static_cast<int>(ObjectType::kThread)].words);
}

}  // namespace

// Property-based tests: random load/unload/lock/signal storms must preserve
// the Figure 6 dependency invariants after every operation, across seeds
// (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/policy.h"
#include "src/isa/assembler.h"
#include "src/obs/trace.h"
#include "src/sim/machine.h"
#include "tests/random_program.h"

namespace {

using ck::CacheKernel;
using ck::CacheKernelConfig;
using ck::CkApi;
using ck::KernelId;
using ck::MappingSpec;
using ck::SpaceId;
using ck::ThreadId;
using ck::ThreadSpec;
using ckbase::CkStatus;

// Writeback sink that keeps its own model of what should be loaded.
class ModelKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, CkApi&) override {
    ck::TrapAction action;
    action.action = ck::HandlerAction::kTerminate;
    return action;
  }
  void OnMappingWriteback(const ck::MappingWriteback& record, CkApi&) override {
    mapping_writebacks++;
    last_mapping = record;
  }
  void OnThreadWriteback(const ck::ThreadWriteback& record, CkApi&) override {
    thread_writebacks++;
    unloaded_threads.push_back(record.cookie);
  }
  void OnSpaceWriteback(const ck::SpaceWriteback& record, CkApi&) override {
    space_writebacks++;
    unloaded_spaces.push_back(record.cookie);
  }

  // Policy state, so LoadPolicy succeeds and guest-program storms run for
  // real.
  ck::PolicyTable* policy_table() override { return &table; }

  uint64_t mapping_writebacks = 0;
  uint64_t thread_writebacks = 0;
  uint64_t space_writebacks = 0;
  ck::MappingWriteback last_mapping;
  std::vector<uint64_t> unloaded_threads;
  std::vector<uint64_t> unloaded_spaces;
  ck::PolicyTable table;
};

// One churn step of the storm: the op mix every storm variant shares. The
// rng consumption per op is identical across variants, so two worlds driven
// with equal seeds and schedules see equal operation streams.
struct StormState {
  std::vector<SpaceId> spaces;
  std::vector<ThreadId> threads;
  std::vector<KernelId> sub_kernels;  // empty kernels churned alongside
  struct LiveMapping {
    SpaceId space;
    cksim::VirtAddr vaddr;
  };
  std::vector<LiveMapping> mappings;

  void Churn(CkApi& api, ckbase::Rng& rng, int op, ck::AppKernel* sub_handlers) {
    switch (rng.Below(12)) {
      case 0: {  // load space
        ckbase::Result<SpaceId> s = api.LoadSpace(op, rng.Chance(1, 8));
        if (s.ok()) {
          spaces.push_back(s.value());
        }
        break;
      }
      case 1: {  // unload random space (may be stale: fine)
        if (!spaces.empty()) {
          size_t i = rng.Below(spaces.size());
          api.UnloadSpace(spaces[i]);
          spaces.erase(spaces.begin() + static_cast<long>(i));
        }
        break;
      }
      case 2:
      case 3: {  // load thread into random space
        if (!spaces.empty()) {
          ThreadSpec spec;
          spec.space = spaces[rng.Below(spaces.size())];
          spec.cookie = static_cast<uint64_t>(op);
          spec.priority = static_cast<uint8_t>(rng.Below(31));
          spec.start_blocked = rng.Chance(1, 2);
          spec.locked = rng.Chance(1, 16);
          ckbase::Result<ThreadId> t = api.LoadThread(spec);
          if (t.ok()) {
            threads.push_back(t.value());
          } else {
            EXPECT_TRUE(t.status() == CkStatus::kStale || t.status() == CkStatus::kDenied ||
                        t.status() == CkStatus::kNoResources)
                << ckbase::CkStatusName(t.status());
          }
        }
        break;
      }
      case 4: {  // unload random thread
        if (!threads.empty()) {
          size_t i = rng.Below(threads.size());
          api.UnloadThread(threads[i]);
          threads.erase(threads.begin() + static_cast<long>(i));
        }
        break;
      }
      case 5:
      case 6:
      case 7: {  // load mapping (sometimes with a signal thread / cow)
        if (!spaces.empty()) {
          MappingSpec spec;
          spec.space = spaces[rng.Below(spaces.size())];
          spec.vaddr = static_cast<uint32_t>(rng.Below(512)) * cksim::kPageSize;
          spec.paddr = 0x100000 + static_cast<uint32_t>(rng.Below(256)) * cksim::kPageSize;
          spec.flags.writable = rng.Chance(1, 2);
          spec.flags.message = rng.Chance(1, 4);
          spec.locked = rng.Chance(1, 16);
          if (rng.Chance(1, 4) && !threads.empty()) {
            spec.signal_thread = threads[rng.Below(threads.size())];
          }
          if (rng.Chance(1, 8)) {
            spec.cow_source = 0x100000 + static_cast<uint32_t>(rng.Below(256)) * cksim::kPageSize;
            spec.flags.copy_on_write = true;
            spec.flags.writable = false;
          }
          CkStatus status = api.LoadMapping(spec);
          if (status == CkStatus::kOk) {
            mappings.push_back(LiveMapping{spec.space, spec.vaddr});
          }
        }
        break;
      }
      case 8: {  // unload random mapping
        if (!mappings.empty()) {
          size_t i = rng.Below(mappings.size());
          api.UnloadMapping(mappings[i].space, mappings[i].vaddr);
          mappings.erase(mappings.begin() + static_cast<long>(i));
        }
        break;
      }
      case 9: {  // lock/unlock a random mapping
        if (!mappings.empty()) {
          size_t i = rng.Below(mappings.size());
          api.LockMapping(mappings[i].space, mappings[i].vaddr, rng.Chance(1, 2));
        }
        break;
      }
      case 10: {  // load a sub-kernel (only the first kernel may)
        ckbase::Result<KernelId> k = api.LoadKernel(sub_handlers, 1000 + op, rng.Chance(1, 8));
        if (k.ok()) {
          sub_kernels.push_back(k.value());
        }
        break;
      }
      case 11: {  // unload a random sub-kernel
        if (!sub_kernels.empty()) {
          size_t i = rng.Below(sub_kernels.size());
          api.UnloadKernel(sub_kernels[i]);
          sub_kernels.erase(sub_kernels.begin() + static_cast<long>(i));
        }
        break;
      }
    }
  }
};

// The load/unload conservation identity every storm must end with: each load
// is still loaded, explicitly unloaded, or written back -- exactly once.
void ExpectConservation(CacheKernel& ck) {
  for (uint32_t type = 0; type < ck::kObjectTypeCount; ++type) {
    EXPECT_EQ(ck.stats().loads[type],
              ck.stats().explicit_unloads[type] + ck.stats().writebacks[type] +
                  ck.loaded_count(static_cast<ck::ObjectType>(type)))
        << "conservation violated for object type " << type;
  }
}

// Storms under the built-in clock scan: the Figure 6 invariants and the
// load/unload conservation identity hold whatever the victims. The guest
// storms below cover the scored scan.
class StormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StormTest, RandomObjectChurnPreservesInvariants) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  // Small pools so reclamation and cascades fire constantly.
  CacheKernelConfig config;
  config.space_slots = 8;
  config.thread_slots = 16;
  config.mapping_slots = 96;
  CacheKernel ck(machine, config);
  ModelKernel model;
  KernelId kid = ck.BootFirstKernel(&model, 0);
  CkApi api(ck, kid, machine.cpu(0));

  ckbase::Rng rng(GetParam());
  StormState storm;
  for (int op = 0; op < 3000; ++op) {
    storm.Churn(api, rng, op, &model);
    if (op % 50 == 0) {
      std::vector<std::string> violations = ck.ValidateInvariants();
      ASSERT_TRUE(violations.empty())
          << "op " << op << ": " << violations.size() << " violations, first: " << violations[0];
    }
  }

  std::vector<std::string> violations = ck.ValidateInvariants();
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: " << violations[0];
  // The storm must actually have exercised reclamation.
  EXPECT_GT(ck.stats().reclamations[static_cast<int>(ck::ObjectType::kMapping)] +
                ck.stats().reclamations[static_cast<int>(ck::ObjectType::kThread)] +
                ck.stats().reclamations[static_cast<int>(ck::ObjectType::kSpace)],
            0u);
  ExpectConservation(ck);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

// Loads over a handful of pages and frames, so most loads replace a loaded
// mapping, often a signal mapping whose unload also unloads the frame's
// writable peers: the new record then takes a freed slot other than the one
// it replaced. ValidateInvariants after every load compares each record's
// remembered leaf PTE address with a walk of the page tables.
TEST(MappingReplaceStormTest, ReplacedMappingsRememberTheirOwnLeafPte) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  CacheKernel ck(machine, CacheKernelConfig{});
  ModelKernel model;
  CkApi api(ck, ck.BootFirstKernel(&model, 0), machine.cpu(0));
  SpaceId spaces[2];
  ThreadId threads[2];
  for (uint32_t i = 0; i < 2; ++i) {
    spaces[i] = api.LoadSpace(i, false).value();
    ThreadSpec spec;
    spec.space = spaces[i];
    spec.start_blocked = true;
    threads[i] = api.LoadThread(spec).value();
  }
  ckbase::Rng rng(26);
  for (int op = 0; op < 2000; ++op) {
    MappingSpec spec;
    spec.space = spaces[rng.Below(2)];
    spec.vaddr = static_cast<uint32_t>(rng.Below(8)) * cksim::kPageSize;
    spec.paddr = 0x100000 + static_cast<uint32_t>(rng.Below(4)) * cksim::kPageSize;
    spec.flags.writable = rng.Chance(1, 2);
    if (rng.Chance(1, 2)) {
      spec.flags.message = true;
      spec.signal_thread = threads[rng.Below(2)];
    }
    ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk) << "op " << op;
    std::vector<std::string> violations = ck.ValidateInvariants();
    ASSERT_TRUE(violations.empty()) << "op " << op << ": " << violations[0];
  }
  // Most loads replaced a mapping, and replacements cascaded to peers.
  const uint32_t m = static_cast<uint32_t>(ck::ObjectType::kMapping);
  EXPECT_GT(ck.stats().writebacks[m], ck.stats().loads[m] / 2);
  EXPECT_GT(model.mapping_writebacks, 1000u);
  ExpectConservation(ck);
}

// Same churn with a guest policy program scoring every victim scan: the VM
// must not disturb any invariant or the conservation identity, whatever the
// scan shape (pools and the mapping cache both).
class GuestPolicyStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuestPolicyStormTest, GuestScoredChurnPreservesInvariants) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  CacheKernelConfig config;
  config.space_slots = 8;
  config.thread_slots = 16;
  config.mapping_slots = 96;
  CacheKernel ck(machine, config);
  ModelKernel model;
  KernelId kid = ck.BootFirstKernel(&model, 0);
  CkApi api(ck, kid, machine.cpu(0));

  // FIFO as a guest program: score = load_seq_low (word 4), evict minimum.
  ckisa::AssembleResult program = ckisa::Assemble(
      "li t0, " + std::to_string(ck::kPolicyFeatureBase) + "\nlw a0, 16(t0)\nhalt\n",
      ck::kPolicyCodeBase);
  ASSERT_TRUE(program.ok) << program.error;
  for (uint32_t type = 0; type < ck::kObjectTypeCount; ++type) {
    ASSERT_EQ(api.LoadPolicy(static_cast<ck::ObjectType>(type), program.program.words.data(),
                             static_cast<uint32_t>(program.program.words.size())),
              CkStatus::kOk);
  }

  ckbase::Rng rng(GetParam());
  StormState storm;
  for (int op = 0; op < 3000; ++op) {
    storm.Churn(api, rng, op, &model);
    if (op % 50 == 0) {
      std::vector<std::string> violations = ck.ValidateInvariants();
      ASSERT_TRUE(violations.empty())
          << "op " << op << ": " << violations.size() << " violations, first: " << violations[0];
    }
  }

  std::vector<std::string> violations = ck.ValidateInvariants();
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: " << violations[0];
  EXPECT_GT(ck.stats().policy_vm_runs, 0u) << "the storm must actually run the policy VM";
  EXPECT_EQ(ck.stats().policy_vm_faults, 0u) << "a well-formed program never faults";
  ExpectConservation(ck);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestPolicyStormTest,
                         ::testing::Values(1u, 7u, 23u, 101u, 977u));

// Generated programs (tests/random_program.h) installed with LoadPolicy as the
// mapping policy of a mapping cache squeezed below its working set. Most use
// the read-only layout over the feature window, so they score, fault or run
// out of budget depending on what they read; every fourth keeps its stores
// and traps. Whatever the program does, the churn keeps every invariant and
// the conservation identity, and the scan accounting balances: every guest
// scan evicts exactly once, either by the program's choice (a kPolicyGuest
// event) or after a fallback counted once in policy_fallbacks, and the fault
// and budget fallbacks are exactly the runs policy_vm_faults and
// policy_vm_budget count. Small per-scan budgets (7 and 64 steps) run out
// part-way through a scan's candidates, which all share one VM context.
TEST(GeneratedPolicyStormTest, GeneratedMappingPoliciesKeepTheScanAccounting) {
  uint64_t guest_wins = 0;
  uint64_t fallbacks = 0;
  for (uint32_t budget : {CacheKernelConfig().policy_step_budget, 7u, 64u}) {
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " seed " + std::to_string(seed));
      cksim::MachineConfig mc;
      mc.cpu_count = 1;
      mc.memory_bytes = 8u << 20;
      cksim::Machine machine(mc);
      machine.EnableTracing();
      CacheKernelConfig config;
      config.mapping_slots = 24;
      config.policy_step_budget = budget;
      CacheKernel ck(machine, config);
      ModelKernel model;
      KernelId kid = ck.BootFirstKernel(&model, 0);
      CkApi api(ck, kid, machine.cpu(0));

      cktest::ProgramLayout layout;
      layout.code_base = ck::kPolicyCodeBase;
      layout.data_base = ck::kPolicyFeatureBase;
      layout.data_bytes = 4 * ck::kPolicyFeatureWords;
      layout.read_only = seed % 4 != 0;
      std::vector<uint32_t> words = cktest::GenerateProgram(seed, layout);
      ASSERT_EQ(api.LoadPolicy(ck::ObjectType::kMapping, words.data(),
                               static_cast<uint32_t>(words.size())),
                CkStatus::kOk);

      // Plain unlocked mappings only, so a fallback clock scan always evicts.
      ckbase::Rng rng(seed);
      std::vector<SpaceId> spaces;
      for (uint32_t i = 0; i < 3; ++i) {
        spaces.push_back(api.LoadSpace(i, /*locked=*/true).value());
      }
      for (int op = 0; op < 600; ++op) {
        MappingSpec spec;
        spec.space = spaces[rng.Below(spaces.size())];
        spec.vaddr = static_cast<uint32_t>(rng.Below(32)) * cksim::kPageSize;
        if (rng.Chance(1, 5)) {
          api.UnloadMapping(spec.space, spec.vaddr);
          continue;
        }
        spec.paddr = 0x100000 + static_cast<uint32_t>(rng.Below(64)) * cksim::kPageSize;
        spec.flags.writable = rng.Chance(1, 2);
        ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk) << "op " << op;
        if (op % 100 == 0) {
          std::vector<std::string> violations = ck.ValidateInvariants();
          ASSERT_TRUE(violations.empty()) << "op " << op << ": " << violations[0];
        }
      }
      std::vector<std::string> violations = ck.ValidateInvariants();
      EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: "
                                      << violations[0];
      ExpectConservation(ck);

      const obs::TraceRing& ring = machine.tracer()->ring(0);
      ASSERT_EQ(ring.dropped(), 0u);
      uint64_t wins = 0;
      uint64_t by_reason[4] = {0, 0, 0, 0};
      for (size_t i = 0; i < ring.size(); ++i) {
        if (ring.at(i).type == static_cast<uint8_t>(obs::EventType::kPolicyGuest)) {
          ++wins;
        } else if (ring.at(i).type == static_cast<uint8_t>(obs::EventType::kPolicyFallback)) {
          EXPECT_EQ(ring.at(i).arg32 >> 8, static_cast<uint32_t>(ck::ObjectType::kMapping));
          ++by_reason[ring.at(i).arg32 & 3u];
        }
      }
      const ck::CkStats& s = ck.stats();
      uint64_t fell_back = by_reason[0] + by_reason[1] + by_reason[2] + by_reason[3];
      EXPECT_GT(wins + fell_back, 0u) << "the squeeze must force guest scans";
      EXPECT_EQ(s.reclamations[static_cast<uint32_t>(ck::ObjectType::kMapping)], wins + fell_back);
      EXPECT_EQ(s.policy_fallbacks, fell_back);
      EXPECT_EQ(s.policy_vm_faults + s.policy_vm_budget, by_reason[1] + by_reason[2]);
      EXPECT_EQ(s.policy_vm_faults, by_reason[1]);
      EXPECT_EQ(s.policy_vm_budget, by_reason[2]);
      uint64_t tenant_steps = 0;
      uint64_t tenant_fallbacks = 0;
      for (const ck::CostAccount& t : ck.tenant_accounts()) {
        tenant_steps += t.policy_vm_steps;
        tenant_fallbacks += t.policy_fallbacks;
      }
      EXPECT_EQ(tenant_steps, s.policy_vm_steps);
      EXPECT_EQ(tenant_fallbacks, s.policy_fallbacks);
      guest_wins += wins;
      fallbacks += fell_back;
    }
  }
  EXPECT_GT(guest_wins, 0u) << "some generated program must win a scan";
  EXPECT_GT(fallbacks, 0u) << "some generated program must fall back";
}

// Same churn with tiered physical memory squeezing the machine: every frame
// transition must keep the tier ledger identities (docs/TIERING.md) and the
// per-tier frame counts that ValidateInvariants cross-checks.
class TieredStormTest : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(TieredStormTest, TierLedgerBalancesUnderRandomChurn) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  CacheKernelConfig config;
  config.space_slots = 8;
  config.thread_slots = 16;
  config.mapping_slots = 96;
  // A DRAM budget far below the mapping working set so admissions displace
  // resident frames constantly, in both pressure modes.
  config.tier_dram_frames = 24;
  config.tier_demote = std::get<1>(GetParam());
  CacheKernel ck(machine, config);
  ModelKernel model;
  KernelId kid = ck.BootFirstKernel(&model, 0);
  CkApi api(ck, kid, machine.cpu(0));

  ckbase::Rng rng(std::get<0>(GetParam()));
  std::vector<SpaceId> spaces;
  struct LiveMapping {
    SpaceId space;
    cksim::VirtAddr vaddr;
  };
  std::vector<LiveMapping> mappings;

  auto check_ledger = [&](int op) {
    const ck::CkStats& s = ck.stats();
    const cksim::PhysicalMemory& mem = machine.memory();
    uint64_t dram = mem.tier_count(cksim::MemTier::kDram);
    uint64_t slow = mem.tier_count(cksim::MemTier::kSlow);
    // Every frame that ever entered DRAM is still there or left through
    // exactly one exit; every slow-tier entry is a demotion.
    EXPECT_EQ(s.tier_admissions + s.tier_promotions,
              s.tier_demotions + s.tier_evictions + s.tier_release_dram + dram)
        << "DRAM ledger out of balance at op " << op;
    EXPECT_EQ(s.tier_demotions, s.tier_promotions + s.tier_release_slow + slow)
        << "slow-tier ledger out of balance at op " << op;
  };

  for (int op = 0; op < 3000; ++op) {
    switch (rng.Below(8)) {
      case 0: {  // load space
        ckbase::Result<SpaceId> s = api.LoadSpace(op, false);
        if (s.ok()) {
          spaces.push_back(s.value());
        }
        break;
      }
      case 1: {  // unload random space (cascades its mappings)
        if (!spaces.empty()) {
          size_t i = rng.Below(spaces.size());
          api.UnloadSpace(spaces[i]);
          spaces.erase(spaces.begin() + static_cast<long>(i));
        }
        break;
      }
      case 2:
      case 3:
      case 4:
      case 5: {  // load mapping: the tier admission path
        if (!spaces.empty()) {
          MappingSpec spec;
          spec.space = spaces[rng.Below(spaces.size())];
          spec.vaddr = static_cast<uint32_t>(rng.Below(512)) * cksim::kPageSize;
          spec.paddr = 0x100000 + static_cast<uint32_t>(rng.Below(128)) * cksim::kPageSize;
          spec.flags.writable = rng.Chance(1, 2);
          spec.locked = rng.Chance(1, 16);
          if (api.LoadMapping(spec) == CkStatus::kOk) {
            mappings.push_back(LiveMapping{spec.space, spec.vaddr});
          }
        }
        break;
      }
      case 6: {  // unload random mapping
        if (!mappings.empty()) {
          size_t i = rng.Below(mappings.size());
          api.UnloadMapping(mappings[i].space, mappings[i].vaddr);
          mappings.erase(mappings.begin() + static_cast<long>(i));
        }
        break;
      }
      case 7: {  // lock/unlock a random mapping (pins its frame in DRAM)
        if (!mappings.empty()) {
          size_t i = rng.Below(mappings.size());
          api.LockMapping(mappings[i].space, mappings[i].vaddr, rng.Chance(1, 2));
        }
        break;
      }
    }

    if (op % 50 == 0) {
      check_ledger(op);
      std::vector<std::string> violations = ck.ValidateInvariants();
      ASSERT_TRUE(violations.empty())
          << "op " << op << ": " << violations.size() << " violations, first: " << violations[0];
    }
  }

  check_ledger(3000);
  std::vector<std::string> violations = ck.ValidateInvariants();
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: " << violations[0];
  // The squeeze must have actually displaced DRAM residents, in the mode
  // configured: demotions under demote pressure, full evictions otherwise.
  if (std::get<1>(GetParam())) {
    EXPECT_GT(ck.stats().tier_demotions, 0u);
  } else {
    EXPECT_GT(ck.stats().tier_evictions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndModes, TieredStormTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u),
                                            ::testing::Bool()));

class CapacitySweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CapacitySweepTest, LoadNeverHardFailsWhileUnlockedObjectsExist) {
  // "An application never encounters the 'hard' error of the kernel running
  // out of thread or address space descriptors ... The Cache Kernel always
  // allows more objects to be loaded, writing back other objects to make
  // space" (section 7).
  uint32_t capacity = GetParam();
  cksim::MachineConfig mc;
  mc.memory_bytes = 4u << 20;
  cksim::Machine machine(mc);
  CacheKernelConfig config;
  config.thread_slots = capacity;
  config.space_slots = std::max(4u, capacity / 4);
  CacheKernel ck(machine, config);
  ModelKernel model;
  KernelId kid = ck.BootFirstKernel(&model, 0);
  CkApi api(ck, kid, machine.cpu(0));

  ckbase::Result<SpaceId> space = api.LoadSpace(0, false);
  ASSERT_TRUE(space.ok());
  SpaceId sid = space.value();

  // Load 4x the capacity; every load must succeed (older ones written back).
  for (uint32_t i = 0; i < capacity * 4; ++i) {
    ThreadSpec spec;
    spec.space = sid;
    spec.cookie = i;
    spec.start_blocked = true;
    ckbase::Result<ThreadId> t = api.LoadThread(spec);
    if (t.status() == CkStatus::kStale) {
      // The space itself was reclaimed to make room; reload and retry --
      // exactly the documented application-kernel protocol.
      space = api.LoadSpace(0, false);
      ASSERT_TRUE(space.ok());
      sid = space.value();
      t = api.LoadThread(spec);
    }
    ASSERT_TRUE(t.ok()) << "load " << i << ": " << ckbase::CkStatusName(t.status());
  }
  EXPECT_EQ(ck.loaded_count(ck::ObjectType::kThread), capacity);
  EXPECT_EQ(model.thread_writebacks, static_cast<uint64_t>(capacity) * 3u);
  EXPECT_TRUE(ck.ValidateInvariants().empty());
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweepTest, ::testing::Values(2u, 4u, 16u, 64u));

class MappingChurnTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MappingChurnTest, WritebackReportsEveryDisplacedMapping) {
  // Conservation: loads - live == writebacks (nothing vanishes silently).
  uint32_t pool = GetParam();
  cksim::MachineConfig mc;
  mc.memory_bytes = 4u << 20;
  cksim::Machine machine(mc);
  CacheKernelConfig config;
  config.mapping_slots = pool;
  CacheKernel ck(machine, config);
  ModelKernel model;
  KernelId kid = ck.BootFirstKernel(&model, 0);
  CkApi api(ck, kid, machine.cpu(0));
  ckbase::Result<SpaceId> space = api.LoadSpace(0, false);
  ASSERT_TRUE(space.ok());

  uint32_t loads = pool * 3;
  for (uint32_t i = 0; i < loads; ++i) {
    MappingSpec spec;
    spec.space = space.value();
    spec.vaddr = i * cksim::kPageSize;
    spec.paddr = 0x100000 + (i % 128) * cksim::kPageSize;
    ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);
  }
  uint32_t live = ck.loaded_count(ck::ObjectType::kMapping);
  EXPECT_EQ(model.mapping_writebacks + live, loads);
  EXPECT_LE(live, pool);
  EXPECT_TRUE(ck.ValidateInvariants().empty());
}

INSTANTIATE_TEST_SUITE_P(Pools, MappingChurnTest, ::testing::Values(16u, 64u, 256u, 1024u));

}  // namespace

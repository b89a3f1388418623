// The generic descriptor-cache layer (src/ck/object_cache.h): the clock and
// scored scans at the unit level, and capacity-forced reclamation against the
// Cache Kernel with section 4.2 effective-lock chains pinning victims, under
// the built-in clock scan and under a guest FIFO policy program.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/fixed_pool.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/object_cache.h"
#include "src/ck/policy.h"
#include "src/isa/assembler.h"
#include "src/sim/machine.h"

namespace {

using ck::CacheKernel;
using ck::CacheKernelConfig;
using ck::CkApi;
using ck::KernelId;
using ck::MappingSpec;
using ck::ObjectType;
using ck::SpaceId;
using ck::ThreadId;
using ck::ThreadSpec;
using ckbase::CkStatus;

// ---------------------------------------------------------------------------
// Unit level: ObjectCache over a bare FixedPool
// ---------------------------------------------------------------------------

struct TestObj {
  ckbase::ListNode pool_node;
  bool pinned = false;
};

using TestCache = ck::ObjectCache<ckbase::FixedPool<TestObj>>;

struct PoolOps {
  static constexpr int kPasses = 1;
  static constexpr bool kScanOccupiedSteps = false;
  TestCache& pool;
  uint32_t evicted = ck::kNoVictim;
  bool Occupied(uint32_t slot) const { return pool.IsAllocated(slot); }
  bool Eligible(uint32_t, int) const { return true; }
  bool Pinned(uint32_t slot) { return pool.SlotAt(slot)->pinned; }
  bool TestAndClearReferenced(uint32_t) { return false; }  // pools have no hw bit
  void Evict(uint32_t slot) {
    evicted = slot;
    pool.Release(pool.SlotAt(slot));
  }
};

uint32_t ReclaimOnce(TestCache& pool, uint64_t* steps_out = nullptr) {
  PoolOps ops{pool};
  uint64_t steps = 0;
  if (!pool.ReclaimClock(ops, steps)) {
    return ck::kNoVictim;
  }
  if (steps_out != nullptr) {
    *steps_out = steps;
  }
  return ops.evicted;
}

TEST(ObjectCacheTest, LoadStampsTrackOccupancy) {
  TestCache pool(4);
  TestObj* a = pool.Allocate();
  TestObj* b = pool.Allocate();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(pool.load_seq(pool.SlotOf(a)), 0u);
  EXPECT_LT(pool.load_seq(pool.SlotOf(a)), pool.load_seq(pool.SlotOf(b)));
  uint32_t slot_a = pool.SlotOf(a);
  pool.Release(a);
  EXPECT_EQ(pool.load_seq(slot_a), 0u);
}

// A destroyed map's records and load stamps go to the next map of its
// capacity, which zeroes only what the last one used: records [0, bump) and
// stamps through the highest slot ever loaded. Nothing may carry over.
TEST(ObjectCacheTest, ReusedMapArraysAreZeroed) {
  using MapCache = ck::ObjectCache<ck::PhysicalMemoryMap>;
  constexpr uint32_t kCapacity = 20000;  // a size no other test here uses
  auto cache = std::make_unique<MapCache>(kCapacity);
  const ck::MemMapEntry* records = &cache->record(0);
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < 300; ++i) {
    ck::RecordType type = i % 5 == 0 ? ck::RecordType::kSignal : ck::RecordType::kPhysToVirt;
    indices.push_back(cache->Insert(i % 37, (0x400 + i) << 12, i + 1, type));
  }
  for (uint32_t i = 0; i < 300; i += 3) {
    cache->Remove(indices[i]);  // freed records keep their key and free-list link
  }
  ASSERT_EQ(cache->used_extent(), 300u);
  ASSERT_NE(cache->load_seq(299), 0u);
  cache.reset();

  MapCache reused(kCapacity);
  ASSERT_EQ(&reused.record(0), records) << "the new map must take the destroyed one's records";
  for (uint32_t i = 0; i < kCapacity; ++i) {
    const ck::MemMapEntry& rec = reused.record(i);
    ASSERT_EQ(rec.type(), ck::RecordType::kFree) << "record " << i;
    ASSERT_EQ(rec.key | rec.dependent | rec.context | rec.hash_link, 0u) << "record " << i;
    ASSERT_EQ(reused.load_seq(i), 0u) << "load stamp " << i;
  }
  EXPECT_EQ(reused.in_use(), 0u);
  EXPECT_EQ(reused.loaded(), 0u);
  EXPECT_EQ(reused.Insert(5, 0x7000, 1, ck::RecordType::kPhysToVirt), 0u)
      << "a reused map hands out record 0 first, like a fresh one";
}

TEST(ObjectCacheTest, ClockTakesTheHandSlotNotTheOldestLoad) {
  // Slots 0..3 hold A,B,C,D; A is released and its slot refilled with the
  // NEWEST object E. Pools have no hardware referenced bit, so the hand
  // (still at 0) takes E.
  TestCache pool(4);
  TestObj* a = pool.Allocate();
  pool.Allocate();  // B -> slot 1
  pool.Allocate();  // C -> slot 2
  pool.Allocate();  // D -> slot 3
  pool.Release(a);
  TestObj* e = pool.Allocate();
  ASSERT_EQ(pool.SlotOf(e), 0u);
  uint64_t steps = 0;
  EXPECT_EQ(ReclaimOnce(pool, &steps), 0u) << "hand takes slot 0";
  EXPECT_EQ(steps, 1u);
  EXPECT_EQ(pool.hand(), 1u) << "the hand commits past its victim";
}

TEST(ObjectCacheTest, ClockSkipsPinnedSlots) {
  TestCache pool(3);
  TestObj* a = pool.Allocate();
  pool.Allocate();
  pool.Allocate();
  a->pinned = true;
  EXPECT_EQ(ReclaimOnce(pool), 1u) << "first unpinned slot from the hand";
}

TEST(ObjectCacheTest, AllPinnedFails) {
  TestCache pool(2);
  pool.Allocate()->pinned = true;
  pool.Allocate()->pinned = true;
  EXPECT_EQ(ReclaimOnce(pool), ck::kNoVictim);
  EXPECT_EQ(pool.in_use(), 2u) << "a failed scan must not evict";
}

// ---------------------------------------------------------------------------
// Unit level: the scored victim-selection engine (ReclaimScored)
// ---------------------------------------------------------------------------

// ReclaimScored in chunks of two candidates, each scored in lane order by
// score(slot, s); false aborts the scan at that candidate.
template <typename Admit, typename ScoreOne>
ck::ScoredScan ScoreEach(TestCache& pool, PoolOps& ops, uint64_t& steps, Admit admit,
                         ScoreOne score) {
  uint32_t lane_slot[2];
  return pool.ReclaimScored<2>(
      ops, steps, admit, [&](uint32_t slot, uint32_t lane) { lane_slot[lane] = slot; },
      [&](uint32_t n, int64_t* scores) {
        for (uint32_t i = 0; i < n; ++i) {
          if (!score(lane_slot[i], scores[i])) {
            return i;
          }
        }
        return n;
      });
}

TEST(ObjectCacheTest, ScoredScanEvictsMinimumScoreFirstWins) {
  TestCache pool(4);
  pool.Allocate();  // slot 0
  pool.Allocate();  // slot 1
  pool.Allocate();  // slot 2
  PoolOps ops{pool};
  uint64_t steps = 0;
  // Scores 5, 3, 3: the minimum is tied between slots 1 and 2; the scan must
  // keep the FIRST minimum it saw.
  const int64_t scores[4] = {5, 3, 3, 0};
  ck::ScoredScan result = ScoreEach(
      pool, ops, steps, [](uint32_t) { return true; },
      [&](uint32_t slot, int64_t& s) {
        s = scores[slot];
        return true;
      });
  EXPECT_EQ(result, ck::ScoredScan::kEvicted);
  EXPECT_EQ(ops.evicted, 1u);
  EXPECT_EQ(steps, 3u) << "every occupied slot is scanned";
}

TEST(ObjectCacheTest, ScoredScanHonorsPinAndAdmitFilters) {
  TestCache pool(4);
  TestObj* a = pool.Allocate();  // slot 0: pinned
  pool.Allocate();               // slot 1: not admitted
  pool.Allocate();               // slot 2: the only real candidate
  a->pinned = true;
  PoolOps ops{pool};
  uint64_t steps = 0;
  ck::ScoredScan result = ScoreEach(
      pool, ops, steps, [](uint32_t slot) { return slot != 1; },
      [](uint32_t, int64_t& s) {
        s = 0;
        return true;
      });
  EXPECT_EQ(result, ck::ScoredScan::kEvicted);
  EXPECT_EQ(ops.evicted, 2u);
}

TEST(ObjectCacheTest, ScoredScanAbortEvictsNothing) {
  TestCache pool(3);
  pool.Allocate();
  pool.Allocate();
  PoolOps ops{pool};
  uint64_t steps = 0;
  uint32_t scored = 0;
  ck::ScoredScan result = ScoreEach(
      pool, ops, steps, [](uint32_t) { return true; },
      [&](uint32_t, int64_t& s) {
        s = 0;
        return ++scored < 2;  // abort on the second candidate
      });
  EXPECT_EQ(result, ck::ScoredScan::kAborted);
  EXPECT_EQ(steps, 2u) << "the scan counts the slots through the aborting candidate";
  EXPECT_EQ(ops.evicted, ck::kNoVictim);
  EXPECT_EQ(pool.in_use(), 2u) << "an aborted scan must not evict";
}

TEST(ObjectCacheTest, ScoredScanNoCandidateWhenAllPinnedOrFiltered) {
  TestCache pool(2);
  pool.Allocate()->pinned = true;
  pool.Allocate();
  PoolOps ops{pool};
  uint64_t steps = 0;
  ck::ScoredScan result = ScoreEach(
      pool, ops, steps, [](uint32_t) { return false; },  // admit nothing
      [](uint32_t, int64_t& s) {
        s = 0;
        return true;
      });
  EXPECT_EQ(result, ck::ScoredScan::kNoCandidate);
  EXPECT_EQ(pool.in_use(), 2u);
}

TEST(ObjectCacheTest, ScoredScanLeavesClockHandAlone) {
  TestCache pool(3);
  pool.Allocate();
  pool.Allocate();
  pool.Allocate();
  ASSERT_EQ(ReclaimOnce(pool), 0u);
  uint32_t hand_before = pool.hand();
  pool.Allocate();  // refill slot 0
  PoolOps ops{pool};
  uint64_t steps = 0;
  ASSERT_EQ(ScoreEach(
                pool, ops, steps, [](uint32_t) { return true; },
                [](uint32_t slot, int64_t& s) {
                  s = slot;
                  return true;
                }),
            ck::ScoredScan::kEvicted);
  EXPECT_EQ(pool.hand(), hand_before)
      << "a scored full sweep must not disturb the clock scan's state";
}

// ---------------------------------------------------------------------------
// Kernel level: capacity-forced reclamation with effective-lock pin chains
// ---------------------------------------------------------------------------

class SinkKernel : public ck::AppKernel {
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
  void OnSpaceWriteback(const ck::SpaceWriteback& record, CkApi&) override {
    space_writebacks.push_back(record.cookie);
  }
  void OnKernelWriteback(const ck::KernelWriteback& record, CkApi&) override {
    kernel_writebacks.push_back(record.cookie);
  }
  void OnMappingWriteback(const ck::MappingWriteback& record, CkApi&) override {
    mapping_writebacks.push_back(record.vaddr);
  }
  // Published only when the test gives the kernel a policy of its own.
  ck::PolicyTable* policy_table() override { return publish_table ? &table : nullptr; }

  bool publish_table = false;
  ck::PolicyTable table;
  std::vector<uint64_t> thread_writebacks;
  std::vector<uint64_t> space_writebacks;
  std::vector<uint64_t> kernel_writebacks;
  std::vector<uint64_t> mapping_writebacks;
};

// Who picks the victims: the built-in clock scan, or the first kernel's guest
// FIFO program (score = load_seq_low) for all four descriptor types.
enum class Victims { kClock, kGuestFifo };

class ReclaimPolicyTest : public ::testing::TestWithParam<Victims> {
 protected:
  void Init(CacheKernelConfig config) {
    cksim::MachineConfig mc;
    mc.memory_bytes = 8u << 20;
    machine_ = std::make_unique<cksim::Machine>(mc);
    ck_ = std::make_unique<CacheKernel>(*machine_, config);
    first_.publish_table = GetParam() == Victims::kGuestFifo;
    first_id_ = ck_->BootFirstKernel(&first_, 0);
    if (GetParam() == Victims::kGuestFifo) {
      ckisa::AssembleResult fifo = ckisa::Assemble(
          "li t0, " + std::to_string(ck::kPolicyFeatureBase) + "\nlw a0, 16(t0)\nhalt\n",
          ck::kPolicyCodeBase);
      ASSERT_TRUE(fifo.ok) << fifo.error;
      CkApi api = Api();
      for (uint32_t type = 0; type < ck::kObjectTypeCount; ++type) {
        ASSERT_EQ(api.LoadPolicy(static_cast<ObjectType>(type), fifo.program.words.data(),
                                 static_cast<uint32_t>(fifo.program.words.size())),
                  CkStatus::kOk);
      }
    }
  }

  CkApi Api() { return CkApi(*ck_, first_id_, machine_->cpu(0)); }
  cksim::PhysAddr Frame(uint32_t n) { return 0x100000 + n * cksim::kPageSize; }

  void ExpectClean() {
    std::vector<std::string> violations = ck_->ValidateInvariants();
    EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: "
                                    << (violations.empty() ? "" : violations[0]);
  }

  std::unique_ptr<cksim::Machine> machine_;
  std::unique_ptr<CacheKernel> ck_;
  SinkKernel first_;
  KernelId first_id_;
};

TEST_P(ReclaimPolicyTest, AllPinnedThreadsFailCleanly) {
  CacheKernelConfig config;
  config.thread_slots = 2;
  Init(config);
  CkApi api = Api();
  ckbase::Result<SpaceId> space = api.LoadSpace(1, /*locked=*/true);
  ASSERT_TRUE(space.ok());
  ThreadSpec spec;
  spec.space = space.value();
  spec.start_blocked = true;
  spec.locked = true;
  spec.cookie = 1;
  ASSERT_TRUE(api.LoadThread(spec).ok());
  spec.cookie = 2;
  ASSERT_TRUE(api.LoadThread(spec).ok());

  uint64_t failures_before = ck_->stats().load_failures;
  spec.cookie = 3;
  spec.locked = false;
  ckbase::Result<ThreadId> overflow = api.LoadThread(spec);
  EXPECT_EQ(overflow.status(), CkStatus::kNoResources);
  EXPECT_EQ(ck_->stats().load_failures, failures_before + 1);
  EXPECT_EQ(ck_->loaded_count(ObjectType::kThread), 2u);
  EXPECT_TRUE(first_.thread_writebacks.empty()) << "a failed scan must not evict";
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, PinnedThreadSkippedForUnpinnedVictim) {
  CacheKernelConfig config;
  config.thread_slots = 2;
  Init(config);
  CkApi api = Api();
  ckbase::Result<SpaceId> space = api.LoadSpace(1, /*locked=*/true);
  ASSERT_TRUE(space.ok());
  ThreadSpec spec;
  spec.space = space.value();
  spec.start_blocked = true;
  spec.locked = true;  // pinned through the locked space + locked kernel chain
  spec.cookie = 1;
  ASSERT_TRUE(api.LoadThread(spec).ok());
  spec.locked = false;
  spec.cookie = 2;
  ASSERT_TRUE(api.LoadThread(spec).ok());

  spec.cookie = 3;
  ASSERT_TRUE(api.LoadThread(spec).ok()) << "unpinned thread 2 is reclaimable";
  ASSERT_EQ(first_.thread_writebacks.size(), 1u);
  EXPECT_EQ(first_.thread_writebacks[0], 2u);
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, BrokenLockChainExposesThreadVictim) {
  // A locked thread in an UNLOCKED space is not effectively locked (section
  // 4.2): the pin chain must reach a locked kernel, so the scan may take it.
  CacheKernelConfig config;
  config.thread_slots = 1;
  Init(config);
  CkApi api = Api();
  ckbase::Result<SpaceId> space = api.LoadSpace(1, /*locked=*/false);
  ASSERT_TRUE(space.ok());
  ThreadSpec spec;
  spec.space = space.value();
  spec.start_blocked = true;
  spec.locked = true;
  spec.cookie = 1;
  ASSERT_TRUE(api.LoadThread(spec).ok());
  spec.cookie = 2;
  ASSERT_TRUE(api.LoadThread(spec).ok()) << "chain broken at the unlocked space";
  ASSERT_EQ(first_.thread_writebacks.size(), 1u);
  EXPECT_EQ(first_.thread_writebacks[0], 1u);
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, AllPinnedSpacesFailCleanly) {
  CacheKernelConfig config;
  config.space_slots = 2;
  Init(config);
  CkApi api = Api();
  ASSERT_TRUE(api.LoadSpace(1, /*locked=*/true).ok());
  ASSERT_TRUE(api.LoadSpace(2, /*locked=*/true).ok());
  uint64_t failures_before = ck_->stats().load_failures;
  EXPECT_EQ(api.LoadSpace(3).status(), CkStatus::kNoResources);
  EXPECT_EQ(ck_->stats().load_failures, failures_before + 1);
  EXPECT_EQ(ck_->loaded_count(ObjectType::kSpace), 2u);
  EXPECT_TRUE(first_.space_writebacks.empty());
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, AllPinnedKernelsFailCleanly) {
  CacheKernelConfig config;
  config.kernel_slots = 2;
  Init(config);
  CkApi api = Api();
  SinkKernel second;
  ASSERT_TRUE(api.LoadKernel(&second, 1, /*locked=*/true).ok());
  SinkKernel third;
  uint64_t failures_before = ck_->stats().load_failures;
  EXPECT_EQ(api.LoadKernel(&third, 2).status(), CkStatus::kNoResources);
  EXPECT_EQ(ck_->stats().load_failures, failures_before + 1);
  EXPECT_EQ(ck_->loaded_count(ObjectType::kKernel), 2u);
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, AllPinnedMappingsFailCleanly) {
  CacheKernelConfig config;
  config.mapping_slots = 2;
  Init(config);
  CkApi api = Api();
  ckbase::Result<SpaceId> space = api.LoadSpace(1, /*locked=*/true);
  ASSERT_TRUE(space.ok());
  MappingSpec spec;
  spec.space = space.value();
  spec.locked = true;
  spec.vaddr = 0x4000;
  spec.paddr = Frame(1);
  ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);
  spec.vaddr = 0x5000;
  spec.paddr = Frame(2);
  ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);

  uint64_t failures_before = ck_->stats().load_failures;
  spec.locked = false;
  spec.vaddr = 0x6000;
  spec.paddr = Frame(3);
  EXPECT_EQ(api.LoadMapping(spec), CkStatus::kNoResources);
  EXPECT_EQ(ck_->stats().load_failures, failures_before + 1);
  EXPECT_EQ(ck_->loaded_count(ObjectType::kMapping), 2u);
  EXPECT_TRUE(first_.mapping_writebacks.empty());
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, PinnedMappingSkippedForUnpinnedVictim) {
  CacheKernelConfig config;
  config.mapping_slots = 2;
  Init(config);
  CkApi api = Api();
  ckbase::Result<SpaceId> space = api.LoadSpace(1, /*locked=*/true);
  ASSERT_TRUE(space.ok());
  MappingSpec spec;
  spec.space = space.value();
  spec.locked = true;
  spec.vaddr = 0x4000;
  spec.paddr = Frame(1);
  ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);
  spec.locked = false;
  spec.vaddr = 0x5000;
  spec.paddr = Frame(2);
  ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);

  spec.vaddr = 0x6000;
  spec.paddr = Frame(3);
  ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk) << "unpinned mapping is reclaimable";
  ASSERT_EQ(first_.mapping_writebacks.size(), 1u);
  EXPECT_EQ(first_.mapping_writebacks[0], 0x5000u);
  ckbase::Result<ck::MappingInfo> pinned = api.QueryMapping(space.value(), 0x4000);
  EXPECT_TRUE(pinned.ok()) << "pinned mapping survived";
  ExpectClean();
}

TEST_P(ReclaimPolicyTest, ScanStepCountersAdvance) {
  CacheKernelConfig config;
  config.thread_slots = 2;
  Init(config);
  CkApi api = Api();
  ckbase::Result<SpaceId> space = api.LoadSpace(1);
  ASSERT_TRUE(space.ok());
  ThreadSpec spec;
  spec.space = space.value();
  spec.start_blocked = true;
  for (uint64_t i = 0; i < 4; ++i) {
    spec.cookie = i;
    ASSERT_TRUE(api.LoadThread(spec).ok());
  }
  uint32_t t = static_cast<uint32_t>(ObjectType::kThread);
  EXPECT_EQ(ck_->stats().reclamations[t], 2u);
  EXPECT_GT(ck_->stats().reclaim_scan_steps[t], 0u);
}

// Under the guest FIFO program the first kernel's scans admit only its own
// descriptors; a scan with nothing admitted and unpinned falls back to clock,
// so the pin-chain and failure semantics must hold on both paths.
INSTANTIATE_TEST_SUITE_P(Policies, ReclaimPolicyTest,
                         ::testing::Values(Victims::kClock, Victims::kGuestFifo),
                         [](const ::testing::TestParamInfo<Victims>& param_info) {
                           return param_info.param == Victims::kClock ? "Clock" : "GuestFifo";
                         });

}  // namespace

// Unit tests for the Cache Kernel's internal data structures: the physical
// memory map (16-byte dependency records), the page-table arena, and the
// kernel object's memory access array.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/ck/object_cache.h"
#include "src/ck/objects.h"
#include "src/ck/physmap.h"
#include "src/ck/table_arena.h"
#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/sim/physmem.h"

namespace {

using ck::kNilRecord;
using ck::MemMapEntry;
using ck::PhysicalMemoryMap;
using ck::RecordType;

TEST(PhysMapTest, InsertFindRemove) {
  PhysicalMemoryMap pmap(16);
  EXPECT_EQ(pmap.in_use(), 0u);
  uint32_t a = pmap.Insert(100, 0x4000 | ck::kPvWritable, 3, RecordType::kPhysToVirt);
  uint32_t b = pmap.Insert(100, 0x8000, 3, RecordType::kPhysToVirt);
  uint32_t c = pmap.Insert(200, 0xc000, 4, RecordType::kPhysToVirt);
  ASSERT_NE(a, kNilRecord);
  ASSERT_NE(b, kNilRecord);
  ASSERT_NE(c, kNilRecord);
  EXPECT_EQ(pmap.in_use(), 3u);

  // Chain for key 100 has exactly a and b.
  std::set<uint32_t> found;
  for (uint32_t cur = pmap.FindFirst(100); cur != kNilRecord; cur = pmap.NextWithKey(cur)) {
    found.insert(cur);
  }
  EXPECT_EQ(found, (std::set<uint32_t>{a, b}));

  // Accessors decode what Insert packed.
  EXPECT_EQ(pmap.record(a).pv_frame(), 100u);
  EXPECT_EQ(pmap.record(a).pv_vaddr(), 0x4000u);
  EXPECT_EQ(pmap.record(a).pv_space_slot(), 3u);
  EXPECT_TRUE((pmap.record(a).pv_flags() & ck::kPvWritable) != 0);

  pmap.Remove(a);
  EXPECT_EQ(pmap.in_use(), 2u);
  found.clear();
  for (uint32_t cur = pmap.FindFirst(100); cur != kNilRecord; cur = pmap.NextWithKey(cur)) {
    found.insert(cur);
  }
  EXPECT_EQ(found, (std::set<uint32_t>{b}));
  EXPECT_EQ(pmap.record(a).type(), RecordType::kFree);
}

TEST(PhysMapTest, FindPvMatchesSpaceAndVaddr) {
  PhysicalMemoryMap pmap(16);
  uint32_t a = pmap.Insert(100, 0x4000, 1, RecordType::kPhysToVirt);
  uint32_t b = pmap.Insert(100, 0x4000, 2, RecordType::kPhysToVirt);  // other space
  uint32_t c = pmap.Insert(100, 0x5000, 1, RecordType::kPhysToVirt);  // other vaddr
  EXPECT_EQ(pmap.FindPv(100, 1, 0x4000), a);
  EXPECT_EQ(pmap.FindPv(100, 2, 0x4000), b);
  EXPECT_EQ(pmap.FindPv(100, 1, 0x5abc), c) << "page-aligned match";
  EXPECT_EQ(pmap.FindPv(100, 3, 0x4000), kNilRecord);
  EXPECT_EQ(pmap.FindPv(101, 1, 0x4000), kNilRecord);
}

TEST(PhysMapTest, VisitPvWalksOneFramesPvRecordsAndStopsEarly) {
  PhysicalMemoryMap pmap(16);
  uint32_t a = pmap.Insert(100, 0x4000, 1, RecordType::kPhysToVirt);
  pmap.Insert(100, 0, 0, RecordType::kCopyOnWrite);  // same key, not a pv record
  uint32_t b = pmap.Insert(100, 0x5000, 2, RecordType::kPhysToVirt);
  pmap.Insert(101, 0x4000, 1, RecordType::kPhysToVirt);  // another frame
  std::vector<uint32_t> seen;
  uint32_t stopped = pmap.VisitPv(100, [&](uint32_t index, const MemMapEntry& rec) {
    EXPECT_EQ(rec.pv_frame(), 100u);
    seen.push_back(index);
    return false;
  });
  EXPECT_EQ(stopped, kNilRecord) << "a walk that never stops runs to the end";
  EXPECT_EQ(seen, (std::vector<uint32_t>{b, a})) << "hash-chain order, newest first";
  EXPECT_EQ(pmap.VisitPv(100, [](uint32_t, const MemMapEntry&) { return true; }), b);
  EXPECT_EQ(pmap.VisitPv(100, [](uint32_t, const MemMapEntry& rec) {
              return rec.pv_space_slot() == 1;
            }),
            a);
  EXPECT_EQ(pmap.VisitPv(102, [](uint32_t, const MemMapEntry&) { return true; }), kNilRecord);
}

TEST(PhysMapTest, SignalRecordsKeyedByPvIndex) {
  PhysicalMemoryMap pmap(16);
  uint32_t pv = pmap.Insert(100, 0x4000, 1, RecordType::kPhysToVirt);
  // Thread slot 7, generation 0x123456.
  uint32_t sig = pmap.Insert(pv, (0x123456u << 8) | 7, 0, RecordType::kSignal);
  ASSERT_NE(sig, kNilRecord);
  EXPECT_EQ(pmap.record(sig).signal_thread_slot(), 7u);
  EXPECT_EQ(pmap.record(sig).signal_thread_gen24(), 0x123456u);
  // Two-stage lookup: pv records for the frame, then signal records per pv.
  uint32_t found = kNilRecord;
  for (uint32_t cur = pmap.FindFirst(100); cur != kNilRecord; cur = pmap.NextWithKey(cur)) {
    if (pmap.record(cur).type() != RecordType::kPhysToVirt) {
      continue;
    }
    for (uint32_t s = pmap.FindFirst(cur); s != kNilRecord; s = pmap.NextWithKey(s)) {
      if (pmap.record(s).type() == RecordType::kSignal) {
        found = s;
      }
    }
  }
  EXPECT_EQ(found, sig);
}

TEST(PhysMapTest, ExhaustionReturnsNil) {
  PhysicalMemoryMap pmap(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(pmap.Insert(i, 0, 0, RecordType::kPhysToVirt), kNilRecord);
  }
  EXPECT_TRUE(pmap.full());
  EXPECT_EQ(pmap.Insert(99, 0, 0, RecordType::kPhysToVirt), kNilRecord);
  pmap.Remove(pmap.FindFirst(2));
  EXPECT_NE(pmap.Insert(99, 0, 0, RecordType::kPhysToVirt), kNilRecord);
}

// The pool as it was before the bump index: every record chained onto the
// free list at construction, freed records pushed on its head.
struct ChainedFreeList {
  explicit ChainedFreeList(uint32_t capacity) : next(capacity) {
    for (uint32_t i = 0; i < capacity; ++i) {
      next[i] = i + 1 < capacity ? i + 1 : kNilRecord;
    }
    head = capacity > 0 ? 0 : kNilRecord;
  }
  uint32_t Take() {
    uint32_t index = head;
    if (index != kNilRecord) {
      head = next[index];
    }
    return index;
  }
  void Give(uint32_t index) {
    next[index] = head;
    head = index;
  }
  std::vector<uint32_t> next;
  uint32_t head;
};

TEST(PhysMapTest, BumpIndexKeepsFreeListOrder) {
  constexpr uint32_t kCapacity = 48;
  ckbase::Rng rng(2024);
  PhysicalMemoryMap pmap(kCapacity);
  ChainedFreeList model(kCapacity);
  std::vector<uint32_t> live;
  for (int op = 0; op < 4000; ++op) {
    // Phases that fill the map to capacity and drain it, so both the free
    // list and the bump index are exercised and exhaustion is reached.
    const bool filling = (op / 200) % 2 == 0;
    if (live.empty() || rng.Chance(filling ? 4 : 1, 5)) {
      const uint32_t index =
          pmap.Insert(static_cast<uint32_t>(rng.Below(8)), 0, 0, RecordType::kPhysToVirt);
      ASSERT_EQ(index, model.Take()) << "insert at op " << op;
      ASSERT_EQ(index == kNilRecord, live.size() == kCapacity) << "op " << op;
      if (index != kNilRecord) {
        live.push_back(index);
      }
    } else {
      const size_t pick = static_cast<size_t>(rng.Below(live.size()));
      pmap.Remove(live[pick]);
      model.Give(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    ASSERT_EQ(pmap.in_use(), live.size());
  }
  EXPECT_EQ(pmap.used_extent(), kCapacity);
}

// Minimal Ops glue for driving ObjectCache's mapping-shaped clock scan
// directly against a bare PhysicalMemoryMap (no CacheKernel).
struct MapScanOps {
  static constexpr bool kScanOccupiedSteps = true;
  ck::ObjectCache<PhysicalMemoryMap>& map;
  uint32_t evicted = kNilRecord;
  bool Occupied(uint32_t index) const {
    return map.record(index).type() == RecordType::kPhysToVirt;
  }
  bool Pinned(uint32_t) const { return false; }
  bool TestAndClearReferenced(uint32_t) { return false; }
  void Evict(uint32_t index) {
    evicted = index;
    map.Remove(index);
  }
};

TEST(PhysMapTest, MappingScanSkipsNonPvRecords) {
  ck::ObjectCache<PhysicalMemoryMap> pmap(8);
  uint32_t pv1 = pmap.Insert(1, 0, 0, RecordType::kPhysToVirt);
  uint32_t sig = pmap.Insert(pv1, 5, 0, RecordType::kSignal);
  uint32_t pv2 = pmap.Insert(2, 0, 0, RecordType::kPhysToVirt);
  EXPECT_EQ(pmap.load_seq(sig), 0u) << "only pv records participate in replacement";
  EXPECT_NE(pmap.load_seq(pv1), 0u);

  // The clock scan visits only pv records, evicting in hand order.
  std::set<uint32_t> seen;
  for (int i = 0; i < 2; ++i) {
    MapScanOps ops{pmap};
    uint64_t steps = 0;
    ASSERT_TRUE(pmap.ReclaimClock(ops, steps));
    ASSERT_NE(ops.evicted, kNilRecord);
    EXPECT_EQ(steps, 1u) << "first occupied record is unreferenced and unpinned";
    seen.insert(ops.evicted);
  }
  EXPECT_EQ(seen, (std::set<uint32_t>{pv1, pv2}));

  // Only the signal record remains: no pv candidates left.
  MapScanOps ops{pmap};
  uint64_t steps = 0;
  EXPECT_FALSE(pmap.ReclaimClock(ops, steps));
}

TEST(PhysMapTest, RandomChurnKeepsChainsConsistent) {
  ckbase::Rng rng(99);
  PhysicalMemoryMap pmap(64);
  std::multimap<uint32_t, uint32_t> model;  // key -> index
  for (int op = 0; op < 2000; ++op) {
    if (model.empty() || (rng.Chance(3, 5) && !pmap.full())) {
      uint32_t key = static_cast<uint32_t>(rng.Below(16));
      uint32_t index = pmap.Insert(key, 0, 0, RecordType::kPhysToVirt);
      if (index != kNilRecord) {
        model.emplace(key, index);
      }
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Below(model.size())));
      pmap.Remove(it->second);
      model.erase(it);
    }
    // Validate every chain against the model.
    for (uint32_t key = 0; key < 16; ++key) {
      std::set<uint32_t> chain;
      for (uint32_t cur = pmap.FindFirst(key); cur != kNilRecord; cur = pmap.NextWithKey(cur)) {
        chain.insert(cur);
      }
      std::set<uint32_t> expect;
      auto [lo, hi] = model.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        expect.insert(it->second);
      }
      ASSERT_EQ(chain, expect) << "key " << key << " at op " << op;
    }
    ASSERT_EQ(pmap.in_use(), model.size());
  }
}

TEST(TableArenaTest, AllocateFreeRecycle) {
  cksim::PhysicalMemory memory(1 << 20);
  ck::TableArena arena(memory, 0x10000, 4096);
  EXPECT_EQ(arena.blocks_total(), 16u);

  cksim::PhysAddr t512 = arena.Allocate(512);
  ASSERT_NE(t512, 0u);
  EXPECT_EQ(t512 % 256, 0u);
  cksim::PhysAddr t256 = arena.Allocate(256);
  ASSERT_NE(t256, 0u);
  EXPECT_EQ(arena.blocks_free(), 16u - 3u);

  // Zeroed on allocation.
  for (uint32_t off = 0; off < 512; off += 4) {
    EXPECT_EQ(memory.ReadWord(t512 + off), 0u);
  }

  memory.WriteWord(t256 + 8, 0xdeadbeef);
  arena.Free(t256, 256);
  cksim::PhysAddr again = arena.Allocate(256);
  EXPECT_EQ(again, t256) << "free list reuses the block";
  EXPECT_EQ(memory.ReadWord(again + 8), 0u) << "recycled blocks are re-zeroed";

  arena.Free(t512, 512);
  arena.Free(again, 256);
  EXPECT_EQ(arena.blocks_free(), 16u);
}

TEST(TableArenaTest, ExhaustionReturnsZero) {
  cksim::PhysicalMemory memory(1 << 20);
  ck::TableArena arena(memory, 0x10000, 1024);  // 4 blocks
  EXPECT_NE(arena.Allocate(512), 0u);
  EXPECT_NE(arena.Allocate(512), 0u);
  EXPECT_EQ(arena.Allocate(256), 0u);
  EXPECT_EQ(arena.Allocate(512), 0u);
}

TEST(KernelObjectTest, AccessArrayPacking) {
  ck::KernelObject kernel;
  // 2 bits per group; defaults to none.
  EXPECT_EQ(kernel.GroupAccessOf(0), ck::GroupAccess::kNone);
  kernel.SetGroupAccess(0, ck::GroupAccess::kReadWrite);
  kernel.SetGroupAccess(1, ck::GroupAccess::kRead);
  kernel.SetGroupAccess(5, ck::GroupAccess::kReadWrite);
  EXPECT_EQ(kernel.GroupAccessOf(0), ck::GroupAccess::kReadWrite);
  EXPECT_EQ(kernel.GroupAccessOf(1), ck::GroupAccess::kRead);
  EXPECT_EQ(kernel.GroupAccessOf(2), ck::GroupAccess::kNone);
  EXPECT_EQ(kernel.GroupAccessOf(5), ck::GroupAccess::kReadWrite);
  // Neighbors within the same byte are independent.
  kernel.SetGroupAccess(1, ck::GroupAccess::kNone);
  EXPECT_EQ(kernel.GroupAccessOf(0), ck::GroupAccess::kReadWrite);
  EXPECT_EQ(kernel.GroupAccessOf(1), ck::GroupAccess::kNone);
}

TEST(KernelObjectTest, AllowsPhysicalByGroup) {
  ck::KernelObject kernel;
  kernel.SetGroupAccess(2, ck::GroupAccess::kRead);
  cksim::PhysAddr in_group2 = 2 * cksim::kPageGroupBytes + 0x1234;
  EXPECT_TRUE(kernel.AllowsPhysical(in_group2, /*write=*/false));
  EXPECT_FALSE(kernel.AllowsPhysical(in_group2, /*write=*/true));
  EXPECT_FALSE(kernel.AllowsPhysical(3 * cksim::kPageGroupBytes, false));
  // Out-of-array groups are denied, not UB.
  EXPECT_EQ(kernel.GroupAccessOf(1u << 20), ck::GroupAccess::kNone);
}

class AssemblerRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AssemblerRoundTripTest, DisassembleReassembleFixpoint) {
  // Random canonical encodings of every instruction-table row survive
  // disassemble -> reassemble at base 0. Canonical: the fields the text form
  // omits are zero (e.g. lui's rs1, an R-type's low 11 bits).
  ckbase::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    const auto op = static_cast<ckisa::Op>(rng.Below(ckisa::kOpCount));
    const uint32_t a = static_cast<uint32_t>(rng.Below(32));
    const uint32_t b = static_cast<uint32_t>(rng.Below(32));
    const uint32_t c = static_cast<uint32_t>(rng.Below(32));
    const uint32_t imm = static_cast<uint32_t>(rng.Below(65536));
    uint32_t word = 0;
    switch (ckisa::InfoOf(op)->format) {
      case ckisa::Format::kBare:
        word = ckisa::Encode(op, 0, 0, 0);
        break;
      case ckisa::Format::kR3:
        word = ckisa::EncodeR(op, a, b, c);
        break;
      case ckisa::Format::kI2:
      case ckisa::Format::kMem:
      case ckisa::Format::kBranch:
      case ckisa::Format::kJalr:
        word = ckisa::Encode(op, a, b, imm);
        break;
      case ckisa::Format::kLui:
      case ckisa::Format::kJal:
        word = ckisa::Encode(op, a, 0, imm);
        break;
      case ckisa::Format::kTrap:
        word = ckisa::Encode(op, 0, 0, imm);
        break;
    }
    std::string text = ckisa::Disassemble(word);
    ckisa::AssembleResult result = ckisa::Assemble(text, 0);
    ASSERT_TRUE(result.ok) << text << ": " << result.error;
    ASSERT_EQ(result.program.words.size(), 1u) << text;
    EXPECT_EQ(result.program.words[0], word) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerRoundTripTest, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace

// Property tests: the MMU + page tables + TLB against reference models.
//
// Random mapping load/unload churn interleaved with random translated
// accesses; every access outcome (paddr, fault type, protection) must match
// a simple map<vpage, (frame, flags)> oracle. This hammers exactly the
// coherence the Cache Kernel must maintain: TLB flushes on unload, PTE
// updates on load, referenced/modified bit behavior.
//
// MmuReferenceTest keeps the MMU's one-function Translate and its TLB from
// before the hit path went inline, and requires the MMU to match them call
// by call: every result field, every TLB entry and counter, every
// page-table word. NativeSlowPathTest pins the native accesses that must
// leave the inline path although their TLB entry is resident.
// NativeLoadRunTest requires NativeCtx::LoadWords to do exactly what its
// loop of LoadWord and Charge does, on seeded scripts of faults.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/ck/cache_kernel.h"
#include "src/sim/machine.h"
#include "src/sim/mmu.h"

namespace {

using ck::CacheKernel;
using ck::CkApi;
using ck::MappingSpec;
using ck::SpaceId;
using ckbase::CkStatus;

class NullKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, CkApi&) override { return {}; }
  void OnMappingWriteback(const ck::MappingWriteback&, CkApi&) override {}
  void OnThreadWriteback(const ck::ThreadWriteback&, CkApi&) override {}
  void OnSpaceWriteback(const ck::SpaceWriteback&, CkApi&) override {}
};

struct OracleEntry {
  uint32_t frame;
  bool writable;
};

class MmuOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MmuOracleTest, TranslationsAlwaysMatchTheOracle) {
  cksim::MachineConfig mc;
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  ck::CacheKernelConfig config;
  config.mapping_slots = 2048;  // ample: the oracle does not model reclaim
  CacheKernel ck(machine, config);
  NullKernel null_kernel;
  ck::KernelId kid = ck.BootFirstKernel(&null_kernel, 0);
  CkApi api(ck, kid, machine.cpu(0));
  SpaceId space = api.LoadSpace(0, false).value();
  // The freshly loaded space occupies slot 0 -> asid 0. Derive the root the
  // MMU would use from a thread's perspective via translated probes only.

  ckbase::Rng rng(GetParam());
  std::map<uint32_t, OracleEntry> oracle;  // vpage -> entry
  constexpr uint32_t kVpages = 64;         // virtual window: pages 0x400..0x43f
  constexpr uint32_t kVbase = 0x400;
  constexpr uint32_t kFrames = 32;
  constexpr uint32_t kFrameBase = 0x100000 / cksim::kPageSize;

  // Use a second CPU's MMU for raw probes (api charges cpu0). The space's
  // root table address: QueryMapping does the walk for us, so instead probe
  // through the Mmu directly using the root from a loaded mapping's PTE walk.
  // Simpler: probe through QueryMapping (authoritative PTE view) AND through
  // the raw MMU using the root obtained from the Cache Kernel's own leaf
  // lookups -- QueryMapping already exercises LeafPteAddr; for the TLB view
  // we translate via cpu(1)'s MMU bound to the same tables. To get the root,
  // load one bootstrap mapping and read the machine's page-table arena...
  // That is kernel-internal; instead validate the TLB path indirectly via
  // GuestLoad/GuestStore on a loaded thread, which is the real access path.

  ck::ThreadSpec tspec;
  tspec.space = space;
  tspec.start_blocked = true;
  ck::ThreadId thread = api.LoadThread(tspec).value();

  for (int op = 0; op < 4000; ++op) {
    uint32_t choice = static_cast<uint32_t>(rng.Below(10));
    uint32_t vpage = kVbase + static_cast<uint32_t>(rng.Below(kVpages));
    cksim::VirtAddr vaddr = vpage * cksim::kPageSize +
                            static_cast<uint32_t>(rng.Below(cksim::kPageSize / 4)) * 4;

    if (choice < 3) {  // load/replace a mapping
      MappingSpec spec;
      spec.space = space;
      spec.vaddr = vpage * cksim::kPageSize;
      spec.paddr = (kFrameBase + static_cast<uint32_t>(rng.Below(kFrames))) * cksim::kPageSize;
      spec.flags.writable = rng.Chance(1, 2);
      ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);
      oracle[vpage] = OracleEntry{spec.paddr >> cksim::kPageShift, spec.flags.writable};
    } else if (choice < 5) {  // unload
      CkStatus status = api.UnloadMapping(space, vpage * cksim::kPageSize);
      if (oracle.count(vpage) != 0) {
        ASSERT_EQ(status, CkStatus::kOk);
        oracle.erase(vpage);
      } else {
        ASSERT_EQ(status, CkStatus::kNotFound);
      }
    } else if (choice < 8) {  // read access through the real path
      ckbase::Result<uint32_t> value = ck.GuestLoad(kid, machine.cpu(0), thread, vaddr);
      if (oracle.count(vpage) != 0) {
        ASSERT_TRUE(value.ok()) << "mapped read must succeed at op " << op;
      } else {
        // The access faulted; the null kernel terminated the thread. Reload.
        ASSERT_FALSE(value.ok());
        tspec.cookie = static_cast<uint64_t>(op);
        ck.UnloadThread(kid, machine.cpu(0), thread);
        thread = api.LoadThread(tspec).value();
      }
    } else {  // write access
      uint32_t marker = 0xbeef0000u + static_cast<uint32_t>(op);
      CkStatus status = ck.GuestStore(kid, machine.cpu(0), thread, vaddr, marker);
      auto it = oracle.find(vpage);
      if (it != oracle.end() && it->second.writable) {
        ASSERT_EQ(status, CkStatus::kOk) << "writable page at op " << op;
        // The word must land in the oracle's frame.
        uint32_t stored = machine.memory().ReadWord(
            (it->second.frame << cksim::kPageShift) | (vaddr & cksim::kPageOffsetMask & ~3u));
        ASSERT_EQ(stored, marker);
        // And the modified bit must be visible to the owner.
        ckbase::Result<ck::MappingInfo> info =
            api.QueryMapping(space, vpage * cksim::kPageSize);
        ASSERT_TRUE(info.ok());
        EXPECT_TRUE(info.value().modified);
      } else {
        ASSERT_NE(status, CkStatus::kOk) << "unmapped/read-only write at op " << op;
        tspec.cookie = static_cast<uint64_t>(op);
        ck.UnloadThread(kid, machine.cpu(0), thread);
        thread = api.LoadThread(tspec).value();
      }
    }
  }

  // Final sweep: every oracle entry agrees with QueryMapping.
  for (const auto& [vpage, entry] : oracle) {
    ckbase::Result<ck::MappingInfo> info = api.QueryMapping(space, vpage * cksim::kPageSize);
    ASSERT_TRUE(info.ok()) << "vpage " << vpage;
    EXPECT_EQ(info.value().paddr >> cksim::kPageShift, entry.frame);
    EXPECT_EQ(info.value().writable, entry.writable);
  }
  EXPECT_TRUE(ck.ValidateInvariants().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmuOracleTest, ::testing::Values(101u, 202u, 303u, 404u, 505u));

// Configuration sweep: the same guest workload must complete on 1-4 CPU
// machines ("these extensions are relatively easy to omit ... especially
// with uniprocessor configurations", section 4.1).
class CpuCountTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CpuCountTest, StandardWorkloadCompletesOnAnyCpuCount) {
  cksim::MachineConfig mc;
  mc.cpu_count = GetParam();
  mc.memory_bytes = 8u << 20;
  cksim::Machine machine(mc);
  ck::CacheKernelConfig config;
  CacheKernel ck(machine, config);
  NullKernel null_kernel;
  ck::KernelId kid = ck.BootFirstKernel(&null_kernel, 0);
  CkApi api(ck, kid, machine.cpu(0));
  SpaceId space = api.LoadSpace(0, false).value();

  // A dozen blocked threads + mapping churn + unload everything.
  std::vector<ck::ThreadId> threads;
  for (int i = 0; i < 12; ++i) {
    ck::ThreadSpec spec;
    spec.space = space;
    spec.cookie = static_cast<uint64_t>(i);
    spec.start_blocked = true;
    ckbase::Result<ck::ThreadId> t = api.LoadThread(spec);
    ASSERT_TRUE(t.ok());
    threads.push_back(t.value());
  }
  for (int i = 0; i < 64; ++i) {
    MappingSpec spec;
    spec.space = space;
    spec.vaddr = 0x100000 + i * cksim::kPageSize;
    spec.paddr = 0x100000 + (i % 32) * cksim::kPageSize;
    spec.flags.writable = true;
    ASSERT_EQ(api.LoadMapping(spec), CkStatus::kOk);
  }
  machine.RunFor(100000);
  EXPECT_TRUE(ck.ValidateInvariants().empty());
  ASSERT_EQ(api.UnloadSpace(space), CkStatus::kOk);
  EXPECT_EQ(ck.loaded_count(ck::ObjectType::kThread), 0u);
  EXPECT_EQ(ck.loaded_count(ck::ObjectType::kMapping), 0u);
  EXPECT_TRUE(ck.ValidateInvariants().empty());
}

INSTANTIATE_TEST_SUITE_P(CpuCounts, CpuCountTest, ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// The inline hit path against the one-function reference
// ---------------------------------------------------------------------------

// The 64-entry, 4-way TLB as it was written before its Lookup went inline:
// a set index by `%`, the same LRU clock and counters.
class ReferenceTlb {
 public:
  static constexpr uint32_t kEntries = 64;
  static constexpr uint32_t kWays = 4;

  cksim::Tlb::LookupResult Lookup(uint16_t asid, uint32_t vpage) {
    uint32_t base = SetOf(asid, vpage);
    for (uint32_t w = 0; w < kWays; ++w) {
      cksim::TlbEntry& e = entries[base + w];
      if (e.valid && e.asid == asid && e.vpage == vpage) {
        e.lru = ++tick;
        ++hits;
        return cksim::Tlb::LookupResult{true, e.pframe, e.flags};
      }
    }
    ++misses;
    return cksim::Tlb::LookupResult{};
  }

  void Insert(uint16_t asid, uint32_t vpage, uint32_t pframe, uint8_t flags) {
    uint32_t base = SetOf(asid, vpage);
    cksim::TlbEntry* victim = &entries[base];
    for (uint32_t w = 0; w < kWays; ++w) {
      cksim::TlbEntry& e = entries[base + w];
      if ((e.valid && e.asid == asid && e.vpage == vpage) || !e.valid) {
        victim = &e;
        break;
      }
      if (e.lru < victim->lru) {
        victim = &e;
      }
    }
    *victim = cksim::TlbEntry{true, asid, vpage, pframe, flags, ++tick};
  }

  void FlushPage(uint16_t asid, uint32_t vpage) {
    Flush([&](const cksim::TlbEntry& e) { return e.asid == asid && e.vpage == vpage; });
  }
  void FlushAsid(uint16_t asid) {
    Flush([&](const cksim::TlbEntry& e) { return e.asid == asid; });
  }
  void FlushFrame(uint32_t pframe) {
    Flush([&](const cksim::TlbEntry& e) { return e.pframe == pframe; });
  }
  void FlushAll() {
    Flush([](const cksim::TlbEntry&) { return true; });
  }

  std::array<cksim::TlbEntry, kEntries> entries{};
  uint64_t tick = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;

 private:
  static uint32_t SetOf(uint16_t asid, uint32_t vpage) {
    uint32_t h = vpage ^ (static_cast<uint32_t>(asid) * 0x9e3779b1u);
    return (h % (kEntries / kWays)) * kWays;
  }
  template <typename Match>
  void Flush(Match match) {
    for (cksim::TlbEntry& e : entries) {
      if (e.valid && match(e)) {
        e.valid = false;
      }
    }
  }
};

cksim::Fault MakeFault(cksim::FaultType type, cksim::VirtAddr vaddr, cksim::Access access) {
  cksim::Fault f;
  f.type = type;
  f.address = vaddr;
  f.access = access;
  return f;
}

// The MMU's Translate as one function, before its hit path went inline.
cksim::Mmu::TranslateResult ReferenceTranslate(ReferenceTlb& tlb, cksim::PhysicalMemory& memory,
                                               const cksim::CostModel& cost,
                                               cksim::PhysAddr root_paddr, uint16_t asid,
                                               cksim::VirtAddr vaddr, cksim::Access access) {
  using namespace cksim;
  Mmu::TranslateResult result;
  uint32_t vpage = vaddr >> kPageShift;
  Tlb::LookupResult hit = tlb.Lookup(asid, vpage);
  uint32_t flags = 0;
  uint32_t pframe = 0;
  if (hit.hit) {
    result.cycles += cost.tlb_hit;
    flags = hit.flags;
    pframe = hit.pframe;
  } else {
    if (root_paddr == 0) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    result.cycles += cost.table_walk_level;
    uint32_t l1 = memory.ReadWord(root_paddr + L1Index(vaddr) * 4);
    if (!PteValid(l1)) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    result.cycles += cost.table_walk_level;
    uint32_t l2 = memory.ReadWord(PteAddress(l1) + L2Index(vaddr) * 4);
    if (!PteValid(l2)) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    result.cycles += cost.table_walk_level;
    PhysAddr leaf_addr = PteAddress(l2) + L3Index(vaddr) * 4;
    uint32_t leaf = memory.ReadWord(leaf_addr);
    if (!PteValid(leaf)) {
      result.fault = MakeFault(FaultType::kNoMapping, vaddr, access);
      return result;
    }
    if ((leaf & kPteReferenced) == 0) {
      memory.WriteWord(leaf_addr, leaf | kPteReferenced);
      leaf |= kPteReferenced;
      result.cycles += cost.pte_write;
    }
    flags = leaf & kPteFlagsMask;
    pframe = PageFrame(PteAddress(leaf));
    tlb.Insert(asid, vpage, pframe, static_cast<uint8_t>(flags));
    result.cycles += cost.tlb_fill;
    if (memory.tier_of(pframe) == MemTier::kSlow) {
      result.cycles += cost.tier_slow_fill;
    }
  }
  if (access == Access::kWrite) {
    if ((flags & kPteCopyOnWrite) != 0 || (flags & kPteWritable) == 0) {
      result.fault = MakeFault(FaultType::kProtection, vaddr, access);
      return result;
    }
    if ((flags & kPteModified) == 0) {
      uint32_t l1 = memory.ReadWord(root_paddr + L1Index(vaddr) * 4);
      PhysAddr leaf_addr =
          PteAddress(memory.ReadWord(PteAddress(l1) + L2Index(vaddr) * 4)) + L3Index(vaddr) * 4;
      uint32_t leaf = memory.ReadWord(leaf_addr);
      if ((leaf & kPteModified) == 0) {
        memory.WriteWord(leaf_addr, leaf | kPteModified);
        result.cycles += cost.pte_write;
      }
      flags |= kPteModified;
      tlb.Insert(asid, vpage, pframe, static_cast<uint8_t>(flags));
    }
    if ((flags & kPteMessage) != 0) {
      result.message_write = true;
    }
  }
  result.ok = true;
  result.paddr = FrameBase(pframe) | (vaddr & kPageOffsetMask);
  return result;
}

// Two identical memories, one driven through the MMU and one through the
// reference. Page tables live in [kTablesBegin, kTablesEnd): asids 1 and 2
// each have a root, two mid tables and four leaf tables; asid 3 has no root
// (a miss is a mapping fault). Each asid maps 4 x 64 pages at random, frames
// from kFrameBase on.
class MmuReferenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint32_t kMemory = 4u << 20;
  static constexpr cksim::PhysAddr kTablesBegin = 0x1000;
  static constexpr cksim::PhysAddr kTablesEnd = 0x8000;
  static constexpr uint32_t kFrameBase = 0x100;
  static constexpr uint32_t kFrames = 96;
  // Leaf tables cover these four 256 KiB regions; the L1 slot of kUnmappedL1
  // and the L2 slot of kUnmappedL2 stay invalid.
  static constexpr cksim::VirtAddr kRegions[4] = {0x00400000, 0x00440000, 0x02400000,
                                                  0x02440000};
  static constexpr cksim::VirtAddr kUnmappedL1 = 0x10000000;
  static constexpr cksim::VirtAddr kUnmappedL2 = 0x00c00000;

  MmuReferenceTest() : mem_(kMemory), ref_mem_(kMemory), mmu_(mem_, cost_) {}

  static cksim::PhysAddr RootOf(uint16_t asid) { return asid == 3 ? 0 : 0x1000 + asid * 0x200; }
  // Leaf table of region r of asid a.
  static cksim::PhysAddr LeafTable(uint16_t asid, uint32_t region) {
    return 0x2000 + (asid * 4 + region) * cksim::kL3TableBytes;
  }
  static cksim::PhysAddr LeafAddr(uint16_t asid, cksim::VirtAddr vaddr) {
    for (uint32_t r = 0; r < 4; ++r) {
      if (vaddr - kRegions[r] < 64 * cksim::kPageSize) {
        return LeafTable(asid, r) + cksim::L3Index(vaddr) * 4;
      }
    }
    return 0;
  }

  void WriteBoth(cksim::PhysAddr addr, uint32_t word) {
    mem_.WriteWord(addr, word);
    ref_mem_.WriteWord(addr, word);
  }

  uint32_t RandomLeaf(ckbase::Rng& rng) {
    if (rng.Chance(1, 8)) {
      return 0;
    }
    uint32_t flags = cksim::kPteValid;
    for (uint32_t bit : {cksim::kPteWritable, cksim::kPteMessage, cksim::kPteReferenced,
                         cksim::kPteModified, cksim::kPteCopyOnWrite}) {
      // Writable half the time, the rest a quarter.
      if (rng.Chance(1, bit == cksim::kPteWritable ? 2 : 4)) {
        flags |= bit;
      }
    }
    uint32_t frame = kFrameBase + static_cast<uint32_t>(rng.Below(kFrames));
    return cksim::MakePte(cksim::FrameBase(frame), flags);
  }

  void BuildTables(ckbase::Rng& rng) {
    for (uint16_t asid : {1, 2}) {
      for (uint32_t r = 0; r < 4; ++r) {
        cksim::VirtAddr base = kRegions[r];
        cksim::PhysAddr mid = 0x1800 + (asid * 2 + cksim::L1Index(base)) * cksim::kL2TableBytes;
        WriteBoth(RootOf(asid) + cksim::L1Index(base) * 4, cksim::MakePte(mid, cksim::kPteValid));
        WriteBoth(mid + cksim::L2Index(base) * 4,
                  cksim::MakePte(LeafTable(asid, r), cksim::kPteValid));
        for (uint32_t i = 0; i < 64; ++i) {
          WriteBoth(LeafTable(asid, r) + i * 4, RandomLeaf(rng));
        }
      }
    }
    ASSERT_LE(LeafTable(2, 3) + cksim::kL3TableBytes, kTablesEnd);
  }

  cksim::VirtAddr RandomVaddr(ckbase::Rng& rng) {
    uint32_t pick = static_cast<uint32_t>(rng.Below(40));
    cksim::VirtAddr offset = static_cast<uint32_t>(rng.Below(cksim::kPageSize / 4)) * 4;
    if (pick == 0) {
      return kUnmappedL1 + offset;
    }
    if (pick == 1) {
      return kUnmappedL2 + offset;
    }
    // A hot set of 24 pages most of the time, so entries stay resident and
    // hit; the rest of the 256 pages evict at capacity.
    uint32_t region = static_cast<uint32_t>(rng.Below(4));
    uint32_t page = static_cast<uint32_t>(pick < 30 ? rng.Below(6) : rng.Below(64));
    return kRegions[region] + page * cksim::kPageSize + offset;
  }

  // Everything the two sides can differ in after a call.
  void ExpectSame(const cksim::Mmu::TranslateResult& got,
                  const cksim::Mmu::TranslateResult& want, int op) {
    ASSERT_EQ(got.ok, want.ok) << "op " << op;
    ASSERT_EQ(got.paddr, want.paddr) << "op " << op;
    ASSERT_EQ(got.fault.type, want.fault.type) << "op " << op;
    ASSERT_EQ(got.fault.address, want.fault.address) << "op " << op;
    ASSERT_EQ(got.fault.access, want.fault.access) << "op " << op;
    ASSERT_EQ(got.message_write, want.message_write) << "op " << op;
    ASSERT_EQ(got.cycles, want.cycles) << "op " << op;
    ExpectSameState(op);
  }
  void ExpectSameState(int op) {
    const cksim::Tlb& tlb = mmu_.tlb();
    ASSERT_EQ(tlb.hits(), ref_.hits) << "op " << op;
    ASSERT_EQ(tlb.misses(), ref_.misses) << "op " << op;
    ASSERT_EQ(tlb.tick(), ref_.tick) << "op " << op;
    for (uint32_t i = 0; i < ReferenceTlb::kEntries; ++i) {
      const cksim::TlbEntry& got = tlb.EntryAt(i);
      const cksim::TlbEntry& want = ref_.entries[i];
      ASSERT_EQ(got.valid, want.valid) << "entry " << i << " op " << op;
      if (want.valid) {
        ASSERT_EQ(got.asid, want.asid) << "entry " << i << " op " << op;
        ASSERT_EQ(got.vpage, want.vpage) << "entry " << i << " op " << op;
        ASSERT_EQ(got.pframe, want.pframe) << "entry " << i << " op " << op;
        ASSERT_EQ(got.flags, want.flags) << "entry " << i << " op " << op;
        ASSERT_EQ(got.lru, want.lru) << "entry " << i << " op " << op;
      }
    }
    ASSERT_EQ(std::memcmp(mem_.raw() + kTablesBegin, ref_mem_.raw() + kTablesBegin,
                          kTablesEnd - kTablesBegin),
              0)
        << "page-table words differ after op " << op;
  }

  cksim::CostModel cost_;
  cksim::PhysicalMemory mem_;
  cksim::PhysicalMemory ref_mem_;
  cksim::Mmu mmu_;
  ReferenceTlb ref_;
};

TEST_P(MmuReferenceTest, EveryCallMatchesTheOneFunctionTranslate) {
  using cksim::Access;
  ckbase::Rng rng(GetParam());
  BuildTables(rng);
  // Outcomes the run must reach, so the comparison is never vacuous.
  enum Outcome {
    kInlineRead, kInlineFetch, kInlineStore, kWriteThrough, kCowFault, kReadOnlyFault,
    kMessageStore, kWalk, kNoRoot, kNoL1, kNoL2, kNoLeaf, kSlowFill, kEviction, kOutcomes
  };
  std::array<uint64_t, kOutcomes> seen{};
  constexpr uint32_t kWriteReady = cksim::kPteWritable | cksim::kPteModified;
  for (int op = 0; op < 6000; ++op) {
    uint32_t choice = static_cast<uint32_t>(rng.Below(100));
    if (choice < 70) {
      uint16_t asid = static_cast<uint16_t>(rng.Chance(1, 30) ? 3 : 1 + rng.Below(2));
      cksim::VirtAddr vaddr = RandomVaddr(rng);
      Access access = static_cast<Access>(rng.Below(3));
      int32_t resident = mmu_.tlb().Probe(asid, vaddr >> cksim::kPageShift);
      uint8_t flags = resident >= 0 ? mmu_.tlb().EntryAt(static_cast<uint32_t>(resident)).flags : 0;
      std::array<cksim::TlbEntry, ReferenceTlb::kEntries> before = ref_.entries;
      cksim::Mmu::TranslateResult want =
          ReferenceTranslate(ref_, ref_mem_, cost_, RootOf(asid), asid, vaddr, access);
      cksim::Mmu::TranslateResult got = mmu_.Translate(RootOf(asid), asid, vaddr, access);
      ExpectSame(got, want, op);
      if (resident >= 0) {
        bool ready = (flags & (kWriteReady | cksim::kPteCopyOnWrite)) == kWriteReady;
        if (access == Access::kRead) {
          ++seen[kInlineRead];
        } else if (access == Access::kExecute) {
          ++seen[kInlineFetch];
        } else if (ready) {
          ++seen[(flags & cksim::kPteMessage) != 0 ? kMessageStore : kInlineStore];
        } else if ((flags & cksim::kPteCopyOnWrite) != 0) {
          ++seen[kCowFault];
        } else if ((flags & cksim::kPteWritable) == 0) {
          ++seen[kReadOnlyFault];
        } else {
          ++seen[kWriteThrough];
        }
      } else if (want.ok || want.fault.type == cksim::FaultType::kProtection) {
        ++seen[kWalk];
        if (want.cycles >= cost_.tier_slow_fill) {
          ++seen[kSlowFill];
        }
      } else if (asid == 3) {
        ++seen[kNoRoot];
      } else if (vaddr >= kUnmappedL1) {
        ++seen[kNoL1];
      } else if (vaddr >= kUnmappedL2 && vaddr < kRegions[2]) {
        ++seen[kNoL2];
      } else {
        ++seen[kNoLeaf];
      }
      for (uint32_t i = 0; i < ReferenceTlb::kEntries; ++i) {
        const cksim::TlbEntry& was = before[i];
        const cksim::TlbEntry& now = ref_.entries[i];
        if (was.valid && now.valid && (was.asid != now.asid || was.vpage != now.vpage)) {
          ++seen[kEviction];
        }
      }
      continue;
    }
    uint16_t asid = static_cast<uint16_t>(1 + rng.Below(2));
    cksim::VirtAddr vaddr = kRegions[rng.Below(4)] +
                            static_cast<uint32_t>(rng.Below(64)) * cksim::kPageSize;
    cksim::PhysAddr leaf = LeafAddr(asid, vaddr);
    if (choice < 80) {
      // Rewrite a PTE behind the TLB's back, as a (buggy or racing) kernel
      // could: both sides must still agree on what the stale entry does.
      WriteBoth(leaf, RandomLeaf(rng));
    } else if (choice < 86) {
      // The reclaim scan's clearing of a referenced bit.
      WriteBoth(leaf, mem_.ReadWord(leaf) & ~cksim::kPteReferenced);
    } else if (choice < 90) {
      mmu_.tlb().FlushPage(asid, vaddr >> cksim::kPageShift);
      ref_.FlushPage(asid, vaddr >> cksim::kPageShift);
    } else if (choice < 93) {
      uint32_t frame = kFrameBase + static_cast<uint32_t>(rng.Below(kFrames));
      mmu_.tlb().FlushFrame(frame);
      ref_.FlushFrame(frame);
    } else if (choice < 95) {
      mmu_.tlb().FlushAsid(asid);
      ref_.FlushAsid(asid);
    } else if (choice < 96) {
      mmu_.tlb().FlushAll();
      ref_.FlushAll();
    } else {
      uint32_t frame = kFrameBase + static_cast<uint32_t>(rng.Below(kFrames));
      cksim::MemTier tier = rng.Chance(1, 2) ? cksim::MemTier::kSlow : cksim::MemTier::kDram;
      mem_.SetFrameTier(frame, tier);
      ref_mem_.SetFrameTier(frame, tier);
    }
    ExpectSameState(op);
  }
  const char* names[kOutcomes] = {"inline read", "inline fetch", "inline store",
                                  "first-store write-through", "copy-on-write fault",
                                  "read-only fault", "message store", "walk", "no root",
                                  "no L1", "no L2", "no leaf", "slow-tier fill", "eviction"};
  for (uint32_t o = 0; o < kOutcomes; ++o) {
    EXPECT_GT(seen[o], 0u) << "never reached: " << names[o];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmuReferenceTest,
                         ::testing::Values(1u, 7u, 42u, 1001u, 90210u, 31337u));

// ---------------------------------------------------------------------------
// Native accesses that must leave the inline path
// ---------------------------------------------------------------------------

// Records each forwarded fault. A consistency fault is resolved as a DSM
// kernel would (the line comes home); any other fault terminates.
class FaultLog : public NullKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward& forward, CkApi&) override {
    faults.push_back(forward.fault.type);
    if (forward.fault.type == cksim::FaultType::kConsistency && kernel != nullptr) {
      kernel->MarkFrameRemote(cksim::PageFrame(remote_paddr), false);
      return ck::HandlerAction::kResume;
    }
    return ck::HandlerAction::kTerminate;
  }
  std::vector<cksim::FaultType> faults;
  CacheKernel* kernel = nullptr;
  cksim::PhysAddr remote_paddr = 0;
};

// One kernel, one space, a blocked native thread that accesses memory and a
// second one that receives signals; each case maps one page at kVaddr.
class NativeSlowPathTest : public ::testing::Test {
 protected:
  static constexpr cksim::VirtAddr kVaddr = 0x00400000;
  static constexpr cksim::PhysAddr kPaddr = 0x00100000;

  NativeSlowPathTest() : machine_(Config()), ck_(machine_, CkConfig()) {
    kid_ = ck_.BootFirstKernel(&kernel_, 0);
    kernel_.kernel = &ck_;
    CkApi api = Api();
    space_ = api.LoadSpace(0, false).value();
    ck::ThreadSpec spec;
    spec.space = space_;
    spec.start_blocked = true;
    spec.cpu_hint = 0;  // the receiver too: a signal to it is delivered, not queued for an IPI
    thread_ = api.LoadThread(spec).value();
    receiver_ = api.LoadThread(spec).value();
  }
  static cksim::MachineConfig Config() {
    cksim::MachineConfig mc;
    mc.memory_bytes = 8u << 20;
    return mc;
  }
  static ck::CacheKernelConfig CkConfig() {
    ck::CacheKernelConfig config;
    config.signal_on_write = true;  // every store to a message page signals
    return config;
  }
  CkApi Api() { return CkApi(ck_, kid_, machine_.cpu(0)); }

  void Map(cksim::MapFlags flags) {
    MappingSpec spec;
    spec.space = space_;
    spec.vaddr = kVaddr;
    spec.paddr = kPaddr;
    spec.flags = flags;
    if (flags.message) {
      spec.signal_thread = receiver_;
    }
    ASSERT_EQ(Api().LoadMapping(spec), CkStatus::kOk);
  }
  // The page's TLB entry on cpu 0; the asid is the space's slot.
  const cksim::TlbEntry* Resident() {
    cksim::Tlb& tlb = machine_.cpu(0).mmu().tlb();
    int32_t index = tlb.Probe(static_cast<uint16_t>(space_.id.slot), kVaddr >> cksim::kPageShift);
    return index < 0 ? nullptr : &tlb.EntryAt(static_cast<uint32_t>(index));
  }
  ckbase::Result<uint32_t> Load() { return ck_.GuestLoad(kid_, machine_.cpu(0), thread_, kVaddr); }
  CkStatus Store(uint32_t value) {
    return ck_.GuestStore(kid_, machine_.cpu(0), thread_, kVaddr, value);
  }
  uint64_t Signals() const {
    const ck::CkStats& s = ck_.stats();
    return s.signals_delivered_fast + s.signals_delivered_slow + s.signals_queued;
  }

  cksim::Machine machine_;
  CacheKernel ck_;
  FaultLog kernel_;
  ck::KernelId kid_;
  SpaceId space_;
  ck::ThreadId thread_;
  ck::ThreadId receiver_;
};

TEST_F(NativeSlowPathTest, StoreToAWriteReadyMessagePageStillSignals) {
  cksim::MapFlags flags;
  flags.writable = true;
  flags.message = true;
  Map(flags);
  ASSERT_EQ(Store(1), CkStatus::kOk);  // the first store writes the modified bit through
  ASSERT_EQ(Signals(), 1u);
  const cksim::TlbEntry* entry = Resident();
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->flags & cksim::kPteModified, 0u) << "the second store must be write-ready";
  ASSERT_EQ(Store(2), CkStatus::kOk);
  EXPECT_EQ(Signals(), 2u) << "a resident, write-ready message page lost its signal";
  EXPECT_EQ(machine_.memory().ReadWord(kPaddr), 2u);
  ASSERT_EQ(Load().value(), 2u);
  EXPECT_EQ(Signals(), 2u) << "a load never signals";
}

TEST_F(NativeSlowPathTest, FirstStoreToACleanResidentPageWritesTheModifiedBitThrough) {
  cksim::MapFlags flags;
  flags.writable = true;
  Map(flags);
  ASSERT_TRUE(Load().ok());
  const cksim::TlbEntry* entry = Resident();
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->flags & cksim::kPteModified, 0u);
  EXPECT_FALSE(Api().QueryMapping(space_, kVaddr).value().modified);
  ASSERT_EQ(Store(7), CkStatus::kOk);
  EXPECT_TRUE(Api().QueryMapping(space_, kVaddr).value().modified)
      << "the first store to a clean page left the leaf PTE clean";
  EXPECT_NE(Resident()->flags & cksim::kPteModified, 0u);
  EXPECT_EQ(machine_.memory().ReadWord(kPaddr), 7u);
}

TEST_F(NativeSlowPathTest, AccessToARemoteFrameRaisesAConsistencyFault) {
  cksim::MapFlags flags;
  flags.writable = true;
  Map(flags);
  ASSERT_EQ(Store(5), CkStatus::kOk);
  ASSERT_TRUE(Load().ok());
  ck_.MarkFrameRemote(cksim::PageFrame(kPaddr), true);
  kernel_.remote_paddr = kPaddr;
  ASSERT_NE(Resident(), nullptr);
  ckbase::Result<uint32_t> value = Load();
  ASSERT_TRUE(value.ok()) << "the retry after the line came home must succeed";
  EXPECT_EQ(value.value(), 5u);
  ASSERT_EQ(kernel_.faults.size(), 1u) << "a resident entry to a remote frame must fault";
  EXPECT_EQ(kernel_.faults[0], cksim::FaultType::kConsistency);
  EXPECT_EQ(ck_.stats().consistency_faults, 1u);
}

// A handler that ends the thread on a consistency fault ends the access: the
// fault is forwarded once and the call reports kBusy, as for any fault the
// handler answers by blocking or killing the thread.
TEST_F(NativeSlowPathTest, ConsistencyFaultThatKillsTheThreadIsForwardedOnce) {
  cksim::MapFlags flags;
  flags.writable = true;
  Map(flags);
  ck_.MarkFrameRemote(cksim::PageFrame(kPaddr), true);
  kernel_.kernel = nullptr;  // the handler now terminates on every fault
  ckbase::Result<uint32_t> value = Load();
  EXPECT_EQ(ck_.stats().faults_forwarded, 1u);
  EXPECT_EQ(ck_.stats().consistency_faults, 1u);
  EXPECT_EQ(kernel_.faults.size(), 1u) << "the fault reached the handler of a halted thread";
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status(), CkStatus::kBusy);
}

TEST_F(NativeSlowPathTest, StoreToAResidentCopyOnWritePageFaults) {
  cksim::MapFlags flags;
  flags.writable = true;
  flags.copy_on_write = true;
  Map(flags);
  ASSERT_TRUE(Load().ok());
  ASSERT_NE(Resident(), nullptr);
  EXPECT_NE(Store(9), CkStatus::kOk);
  ASSERT_EQ(kernel_.faults.size(), 1u) << "a store to a resident copy-on-write page must fault";
  EXPECT_EQ(kernel_.faults[0], cksim::FaultType::kProtection);
  EXPECT_EQ(machine_.memory().ReadWord(kPaddr), 0u) << "the shared frame was written";
}

// ---------------------------------------------------------------------------
// NativeCtx::LoadWords against a loop of LoadWord and Charge
// ---------------------------------------------------------------------------

// The frame a virtual page maps to; several pages share each frame.
constexpr cksim::PhysAddr kRunFrameBase = 0x00100000;
constexpr uint32_t kRunFrames = 12;
cksim::PhysAddr RunFrameOf(cksim::VirtAddr vaddr) {
  return kRunFrameBase + ((vaddr >> cksim::kPageShift) * 7 % kRunFrames) * cksim::kPageSize;
}

// What a scripted fault handler did, counted for the coverage check.
enum class RunAct : uint32_t { kMap, kBlock, kTerminate, kUnloadSpace, kCount };

// Answers each fault as its seeded script says: load the missing mapping, or
// bring a remote line home, and resume; block the thread; end it; or unload
// its space.
class ScriptedPager : public NullKernel {
 public:
  explicit ScriptedPager(uint64_t seed) : rng_(seed) {}
  ck::HandlerAction HandleFault(const ck::FaultForward& forward, CkApi& api) override {
    RunAct act = rng_.Chance(5, 8) ? RunAct::kMap : static_cast<RunAct>(rng_.Range(1, 3));
    acts[static_cast<uint32_t>(act)]++;
    consistency += forward.fault.type == cksim::FaultType::kConsistency ? 1 : 0;
    switch (act) {
      case RunAct::kMap:
        if (forward.fault.type == cksim::FaultType::kConsistency) {
          api.kernel().MarkFrameRemote(cksim::PageFrame(RunFrameOf(forward.fault.address)),
                                       false);
        } else {
          MappingSpec spec;
          spec.space = space;
          spec.vaddr = forward.fault.address & ~cksim::kPageOffsetMask;
          spec.paddr = RunFrameOf(forward.fault.address);
          EXPECT_EQ(api.LoadMapping(spec), CkStatus::kOk);
        }
        return ck::HandlerAction::kResume;
      case RunAct::kBlock:
        return ck::HandlerAction::kBlock;
      case RunAct::kTerminate:
        return ck::HandlerAction::kTerminate;
      default:
        EXPECT_EQ(api.UnloadSpace(space), CkStatus::kOk);
        return ck::HandlerAction::kResume;
    }
  }
  SpaceId space;
  uint64_t acts[static_cast<uint32_t>(RunAct::kCount)] = {};
  uint64_t consistency = 0;

 private:
  ckbase::Rng rng_;
};

// One machine with one kernel, one space and one native thread (blocked, so
// the scheduler never runs it: the test makes its loads).
struct RunWorld {
  explicit RunWorld(uint64_t seed) : machine(Config()), ck(machine, {}), pager(seed) {
    machine.EnableTracing(1u << 12);
    kid = ck.BootFirstKernel(&pager, 0);
    for (uint32_t f = 0; f < kRunFrames; ++f) {
      for (uint32_t w = 0; w < cksim::kPageSize / 4; ++w) {
        machine.memory().WriteWord(kRunFrameBase + f * cksim::kPageSize + w * 4, f << 16 | w);
      }
    }
    Reload();
  }
  static cksim::MachineConfig Config() {
    cksim::MachineConfig mc;
    mc.memory_bytes = 8u << 20;
    mc.cpu_count = 2;  // unloads flush the other CPU's TLB too
    return mc;
  }
  CkApi Api() { return CkApi(ck, kid, machine.cpu(0)); }
  // A fresh space when the last was unloaded, and a fresh thread when the
  // last was unloaded or ended.
  void Reload() {
    if (!ck.IsSpaceLoaded(pager.space)) {
      pager.space = Api().LoadSpace(0, false).value();
    }
    ckbase::Result<ck::ThreadState> state = ck.GetThreadState(thread);
    if (state.ok() && state.value() == ck::ThreadState::kHalted) {
      ASSERT_EQ(Api().UnloadThread(thread), CkStatus::kOk);
    }
    if (!ck.IsThreadLoaded(thread)) {
      ck::ThreadSpec spec;
      spec.space = pager.space;
      spec.start_blocked = true;
      spec.cpu_hint = 0;
      thread = Api().LoadThread(spec).value();
    }
  }

  cksim::Machine machine;
  CacheKernel ck;
  ScriptedPager pager;
  ck::KernelId kid;
  ck::ThreadId thread;
};

void ExpectSameWorlds(RunWorld& a, RunWorld& b, int op) {
  ASSERT_EQ(a.machine.cpu(0).clock(), b.machine.cpu(0).clock()) << "op " << op;
  ASSERT_EQ(std::memcmp(&a.ck.stats(), &b.ck.stats(), sizeof(ck::CkStats)), 0) << "op " << op;
  for (uint32_t c = 0; c < a.machine.cpu_count(); ++c) {
    const cksim::Tlb& got = a.machine.cpu(c).mmu().tlb();
    const cksim::Tlb& want = b.machine.cpu(c).mmu().tlb();
    ASSERT_EQ(got.tick(), want.tick()) << "cpu " << c << " op " << op;
    ASSERT_EQ(got.hits(), want.hits()) << "cpu " << c << " op " << op;
    ASSERT_EQ(got.misses(), want.misses()) << "cpu " << c << " op " << op;
    for (uint32_t i = 0; i < 64; ++i) {  // the default TLB's entries
      const cksim::TlbEntry& g = got.EntryAt(i);
      const cksim::TlbEntry& w = want.EntryAt(i);
      ASSERT_EQ(g.valid, w.valid) << "entry " << i << " op " << op;
      if (w.valid) {
        ASSERT_EQ(g.asid, w.asid) << "entry " << i << " op " << op;
        ASSERT_EQ(g.vpage, w.vpage) << "entry " << i << " op " << op;
        ASSERT_EQ(g.pframe, w.pframe) << "entry " << i << " op " << op;
        ASSERT_EQ(g.flags, w.flags) << "entry " << i << " op " << op;
        ASSERT_EQ(g.lru, w.lru) << "entry " << i << " op " << op;
      }
    }
    const obs::TraceRing& got_ring = a.machine.tracer()->ring(c);
    const obs::TraceRing& want_ring = b.machine.tracer()->ring(c);
    ASSERT_EQ(got_ring.pushed(), want_ring.pushed()) << "cpu " << c << " op " << op;
    for (size_t i = 0; i < got_ring.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got_ring.at(i), &want_ring.at(i), sizeof(obs::TraceEvent)), 0)
          << "trace event " << i << " op " << op;
    }
  }
}

TEST(NativeLoadRunTest, LoadWordsMatchesALoopOfLoadWordAndCharge) {
  constexpr cksim::VirtAddr kBase = 0x00400000;
  constexpr uint32_t kPages = 40;  // more than a TLB set holds: runs meet evictions
  const uint32_t kStrides[] = {0, 4, 64, 64, 256, 4092, 4096, 4100, 0xfffffffcu, 0xffffffc0u};
  uint64_t acts[static_cast<uint32_t>(RunAct::kCount)] = {};
  uint64_t consistency = 0, first_word_faults = 0, runs = 0, crossing_runs = 0, busy = 0,
           stale = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunWorld batch(seed);  // LoadWords
    RunWorld loop(seed);   // LoadWord and Charge, one word at a time
    ckbase::Rng rng(seed * 7919);
    for (int op = 0; op < 300; ++op) {
      // The same set-up step in both worlds: map or unload a page, or mark
      // a frame remote.
      uint32_t page = static_cast<uint32_t>(rng.Below(kPages));
      cksim::VirtAddr vpage = kBase + page * cksim::kPageSize;
      uint64_t step = rng.Below(8);
      for (RunWorld* w : {&batch, &loop}) {
        if (step < 3) {
          MappingSpec spec;
          spec.space = w->pager.space;
          spec.vaddr = vpage;
          spec.paddr = RunFrameOf(vpage);
          spec.flags.writable = step == 0;
          ASSERT_EQ(w->Api().LoadMapping(spec), CkStatus::kOk);
        } else if (step == 3) {
          w->Api().UnloadMapping(w->pager.space, vpage);
        } else if (step == 4) {
          w->ck.MarkFrameRemote(cksim::PageFrame(RunFrameOf(vpage)), true);
        }
      }
      cksim::VirtAddr first = vpage + static_cast<uint32_t>(rng.Below(cksim::kPageSize));
      first &= rng.Chance(7, 8) ? ~3u : ~0u;
      uint32_t stride = kStrides[rng.Below(std::size(kStrides))];
      uint32_t count = static_cast<uint32_t>(rng.Below(80));
      cksim::Cycles charge = rng.Below(8);

      std::vector<ckbase::Result<uint32_t>> got(count), want(count);
      ck::NativeCtx batch_ctx(batch.Api(), batch.thread, 0);
      batch_ctx.LoadWords(first, stride, count, charge, got.data());
      ck::NativeCtx loop_ctx(loop.Api(), loop.thread, 0);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t faults = loop.ck.stats().faults_forwarded;
        want[i] = loop_ctx.LoadWord(first + i * stride);
        loop_ctx.Charge(charge);
        first_word_faults += i == 0 && loop.ck.stats().faults_forwarded > faults ? 1 : 0;
      }
      auto page_of = [&](uint32_t i) { return (first + i * stride) >> cksim::kPageShift; };
      for (uint32_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i].status(), want[i].status()) << "seed " << seed << " op " << op << " word "
                                                     << i;
        ASSERT_EQ(got[i].value(), want[i].value()) << "seed " << seed << " op " << op << " word "
                                                   << i;
        busy += want[i].status() == CkStatus::kBusy ? 1 : 0;
        stale += want[i].status() == CkStatus::kStale ? 1 : 0;
        if (i > 0 && want[i - 1].ok() && want[i].ok() && page_of(i - 1) == page_of(i)) {
          ++runs;
          crossing_runs += page_of(i) != page_of(0) ? 1 : 0;
        }
      }
      ExpectSameWorlds(batch, loop, op);
      if (HasFatalFailure()) {
        return;
      }
      batch.Reload();
      loop.Reload();
    }
    for (uint32_t a = 0; a < static_cast<uint32_t>(RunAct::kCount); ++a) {
      EXPECT_EQ(batch.pager.acts[a], loop.pager.acts[a]);
      acts[a] += loop.pager.acts[a];
    }
    consistency += loop.pager.consistency;
  }
  // Not vacuous: every handler act, consistency faults, faults on a call's
  // first word, words that ran on a page, runs past a page boundary, and the
  // failed statuses all occurred.
  for (uint32_t a = 0; a < static_cast<uint32_t>(RunAct::kCount); ++a) {
    EXPECT_GT(acts[a], 0u) << "act " << a;
  }
  EXPECT_GT(consistency, 0u);
  EXPECT_GT(first_word_faults, 0u);
  EXPECT_GT(runs, 0u);
  EXPECT_GT(crossing_runs, 0u);
  EXPECT_GT(busy, 0u);
  EXPECT_GT(stale, 0u);
}

}  // namespace

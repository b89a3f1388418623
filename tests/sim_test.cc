// Unit tests for the simulated hardware: physical memory, page-table walks,
// TLB, reverse-TLB, machine stepping, devices.

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/cost.h"
#include "src/sim/devices.h"
#include "src/sim/machine.h"
#include "src/sim/mmu.h"
#include "src/sim/pagetable.h"
#include "src/sim/physmem.h"
#include "src/sim/reverse_tlb.h"
#include "src/sim/tlb.h"

namespace {

using namespace cksim;  // NOLINT: test file, single-domain

TEST(PhysMemTest, RoundsUpToPageGroups) {
  PhysicalMemory mem(1);
  EXPECT_EQ(mem.size(), kPageGroupBytes);
  EXPECT_EQ(mem.page_group_count(), 1u);
  EXPECT_EQ(mem.page_count(), kPagesPerGroup);
}

TEST(PhysMemTest, WordAndByteAccess) {
  PhysicalMemory mem(1 << 20);
  mem.WriteWord(0x100, 0xabcd1234);
  EXPECT_EQ(mem.ReadWord(0x100), 0xabcd1234u);
  mem.WriteByte(0x104, 0x7e);
  EXPECT_EQ(mem.ReadByte(0x104), 0x7e);
  uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  mem.Write(0x200, buf, 8);
  uint8_t out[8] = {0};
  mem.Read(0x200, out, 8);
  EXPECT_EQ(0, memcmp(buf, out, 8));
  mem.Zero(0x200, 8);
  mem.Read(0x200, out, 8);
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(PhysMemTest, SlowFrameIndexFindsNextAcrossWords) {
  PhysicalMemory mem(1);  // one page group: 128 frames, two index words
  const uint32_t last = mem.page_count() - 1;
  EXPECT_EQ(mem.NextSlowFrame(0), mem.page_count()) << "empty index";
  EXPECT_EQ(mem.NextSlowFrame(last), mem.page_count());
  for (uint32_t f : {0u, 63u, 64u, last}) {
    mem.SetFrameTier(f, MemTier::kSlow);
  }
  mem.SetFrameTier(5, MemTier::kDram);  // other tiers stay out of the index
  EXPECT_EQ(mem.NextSlowFrame(0), 0u);
  EXPECT_EQ(mem.NextSlowFrame(1), 63u);
  EXPECT_EQ(mem.NextSlowFrame(63), 63u);
  EXPECT_EQ(mem.NextSlowFrame(64), 64u);
  EXPECT_EQ(mem.NextSlowFrame(65), last);
  EXPECT_EQ(mem.NextSlowFrame(last), last);
  EXPECT_EQ(mem.NextSlowFrame(mem.page_count()), mem.page_count());
  // Leaving the slow tier clears the bit, whatever the new tier.
  mem.SetFrameTier(63, MemTier::kDram);
  mem.SetFrameTier(64, MemTier::kNone);
  EXPECT_EQ(mem.NextSlowFrame(1), last);
  mem.SetFrameTier(0, MemTier::kNone);
  mem.SetFrameTier(last, MemTier::kDram);
  EXPECT_EQ(mem.NextSlowFrame(0), mem.page_count());
  EXPECT_EQ(mem.tier_count(MemTier::kSlow), 0u);
}

// A destroyed memory's RAM goes to the next memory of its size, which
// zeroes only the frames whose store generation says they were written; every
// store path must bump it, or the next machine starts on stale bytes.
TEST(PhysicalMemoryTest, ReusedRamIsZeroed) {
  constexpr uint32_t kSize = 3 * kPageGroupBytes;  // a size no other test here uses
  auto mem = std::make_unique<PhysicalMemory>(kSize);
  const uint32_t last = mem->page_count() - 1;
  const uint8_t* ram = mem->raw();
  const uint8_t bytes[5] = {1, 2, 3, 4, 5};
  mem->WriteWord(FrameBase(3) + 8, 0xdeadbeef);
  mem->WriteByte(FrameBase(64) + 4095, 0x5a);
  mem->Write(FrameBase(200) - 2, bytes, sizeof(bytes));  // spans two frames
  mem->Zero(FrameBase(300) + 16, 4);                     // a store of zeros still counts
  mem->raw()[FrameBase(last) + 4000] = 0x77;             // the interpreter's raw store
  mem->BumpFrameGeneration(FrameBase(last) + 4000);
  for (uint32_t f : {3u, 64u, 199u, 200u, 300u, last}) {
    ASSERT_NE(mem->frame_generation(f), 0u) << "a store left frame " << f << " unmarked";
  }
  mem->SetFrameTier(5, MemTier::kSlow);
  mem->SetFrameTier(last, MemTier::kDram);
  mem.reset();

  PhysicalMemory reused(kSize);
  ASSERT_EQ(reused.raw(), ram) << "the new memory must take the destroyed one's RAM";
  for (uint32_t addr = 0; addr < reused.size(); ++addr) {
    ASSERT_EQ(reused.raw()[addr], 0) << "stale byte at " << addr;
  }
  for (uint32_t f = 0; f <= last; ++f) {
    ASSERT_EQ(reused.frame_generation(f), 0u) << "frame " << f;
    ASSERT_EQ(reused.tier_of(f), MemTier::kNone) << "frame " << f;
  }
  EXPECT_EQ(reused.tier_count(MemTier::kNone), reused.page_count());
  EXPECT_EQ(reused.tier_count(MemTier::kDram), 0u);
  EXPECT_EQ(reused.tier_count(MemTier::kSlow), 0u);
  EXPECT_EQ(reused.NextSlowFrame(0), reused.page_count());
}

// Spare RAM is poisoned while it waits, so a stale pointer into a destroyed
// memory is an AddressSanitizer report, not a silent read.
TEST(PhysicalMemoryTest, StaleRawPointerIsAnAsanReport) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(
      {
        auto* mem = new PhysicalMemory(kPageGroupBytes);
        const volatile uint8_t* stale = mem->raw();
        delete mem;
        (void)stale[kPageSize];
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

TEST(PageTableTest, IndexDecomposition) {
  // 7 + 7 + 6 + 12 bits.
  VirtAddr v = (3u << 25) | (5u << 18) | (9u << 12) | 0x123;
  EXPECT_EQ(L1Index(v), 3u);
  EXPECT_EQ(L2Index(v), 5u);
  EXPECT_EQ(L3Index(v), 9u);
  EXPECT_EQ(kL1Entries * kL2Entries * kL3Entries * kPageSize, 0u)
      << "geometry covers exactly 4 GiB (wraps uint32)";
  EXPECT_EQ(kL1TableBytes, 512u);
  EXPECT_EQ(kL2TableBytes, 512u);
  EXPECT_EQ(kL3TableBytes, 256u);
}

TEST(PageTableTest, PteRoundTrip) {
  uint32_t pte = MakePte(0x12345000, kPteValid | kPteWritable | kPteMessage);
  EXPECT_TRUE(PteValid(pte));
  EXPECT_EQ(PteAddress(pte), 0x12345000u);
  MapFlags flags = MapFlags::FromPteBits(pte);
  EXPECT_TRUE(flags.writable);
  EXPECT_TRUE(flags.message);
  EXPECT_FALSE(flags.copy_on_write);
}

TEST(TlbTest, HitMissAndFlush) {
  Tlb tlb(64, 4);
  EXPECT_FALSE(tlb.Lookup(1, 100).hit);
  tlb.Insert(1, 100, 555, kPteWritable);
  Tlb::LookupResult r = tlb.Lookup(1, 100);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.pframe, 555u);
  EXPECT_EQ(r.flags, kPteWritable);
  // Different asid, same page: miss.
  EXPECT_FALSE(tlb.Lookup(2, 100).hit);
  tlb.FlushPage(1, 100);
  EXPECT_FALSE(tlb.Lookup(1, 100).hit);
}

TEST(TlbTest, FlushAsidAndFrame) {
  Tlb tlb(64, 4);
  tlb.Insert(1, 10, 100, 0);
  tlb.Insert(1, 11, 101, 0);
  tlb.Insert(2, 12, 100, 0);
  tlb.FlushAsid(1);
  EXPECT_FALSE(tlb.Lookup(1, 10).hit);
  EXPECT_FALSE(tlb.Lookup(1, 11).hit);
  EXPECT_TRUE(tlb.Lookup(2, 12).hit);
  tlb.FlushFrame(100);
  EXPECT_FALSE(tlb.Lookup(2, 12).hit);
}

// The set index is a mask, so a geometry whose set count is not a power of
// two is refused at construction rather than indexing the wrong sets.
TEST(TlbTest, RejectsASetCountThatIsNotAPowerOfTwo) {
  EXPECT_DEATH(Tlb(48, 4), "power-of-two");  // 12 sets
  EXPECT_DEATH(Tlb(2, 4), "power-of-two");   // no set at all
  Tlb one_set(4, 4);
  Tlb many_sets(64, 4);
  EXPECT_FALSE(one_set.Lookup(1, 1).hit);
  EXPECT_FALSE(many_sets.Lookup(1, 1).hit);
}

TEST(TlbTest, LruReplacementWithinSet) {
  Tlb tlb(8, 2);  // 4 sets x 2 ways
  // Two pages mapping to the same set: fill both ways, then a third evicts
  // the least recently used.
  tlb.Insert(1, 0, 1, 0);
  tlb.Insert(1, 4, 2, 0);  // same set (sets=4, hash spreads; may differ) --
  // Touch page 0 so it is MRU if they share a set.
  tlb.Lookup(1, 0);
  tlb.Insert(1, 8, 3, 0);
  // Whatever the set layout, page 0 must still be present after its recent
  // touch unless its set has capacity pressure from both others.
  int present = tlb.Lookup(1, 0).hit ? 1 : 0;
  present += tlb.Lookup(1, 8).hit ? 1 : 0;
  EXPECT_GE(present, 1);
}

TEST(TlbTest, LruTickSurvives32BitWrap) {
  Tlb tlb(4, 4);  // one set, four ways: every page competes on LRU alone
  // Park the LRU clock just below 2^32 so the inserts straddle it. With a
  // 32-bit tick, page 10's stamp (2^32 - 1) would be the LARGEST value in
  // the set while the post-wrap stamps restart near zero -- so the oldest
  // entry would look newest and a recently-inserted page would be evicted.
  tlb.SetTickForTesting((1ull << 32) - 2);
  tlb.Insert(1, 10, 100, 0);  // tick 2^32 - 1: the true LRU from here on
  tlb.Insert(1, 11, 101, 0);  // tick 2^32     (a 32-bit clock wraps to 0)
  tlb.Insert(1, 12, 102, 0);  // tick 2^32 + 1
  tlb.Insert(1, 13, 103, 0);  // tick 2^32 + 2
  tlb.Lookup(1, 11);          // touching across the wrap must also work
  EXPECT_GT(tlb.tick(), 1ull << 32);
  // Set full; the insert must evict page 10, the genuinely oldest entry.
  // The wrapped clock would have evicted page 12 (smallest wrapped stamp
  // once 11 was re-touched) and kept 10 forever.
  tlb.Insert(1, 14, 104, 0);
  EXPECT_FALSE(tlb.Lookup(1, 10).hit) << "true LRU entry survived the wrap";
  EXPECT_TRUE(tlb.Lookup(1, 11).hit);
  EXPECT_TRUE(tlb.Lookup(1, 12).hit) << "post-wrap entry evicted as false LRU";
  EXPECT_TRUE(tlb.Lookup(1, 13).hit);
  EXPECT_TRUE(tlb.Lookup(1, 14).hit);
}

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : mem_(4 << 20), mmu_(mem_, cost_) {}

  // Hand-build tables: root at 0x1000, L2 at 0x2000, L3 at 0x3000.
  void BuildMapping(VirtAddr vaddr, PhysAddr paddr, uint32_t flags) {
    mem_.WriteWord(0x1000 + L1Index(vaddr) * 4, MakePte(0x2000, kPteValid));
    mem_.WriteWord(0x2000 + L2Index(vaddr) * 4, MakePte(0x3000, kPteValid));
    mem_.WriteWord(0x3000 + L3Index(vaddr) * 4, MakePte(paddr, kPteValid | flags));
  }

  uint32_t LeafPte(VirtAddr vaddr) { return mem_.ReadWord(0x3000 + L3Index(vaddr) * 4); }

  CostModel cost_;
  PhysicalMemory mem_;
  Mmu mmu_;
};

TEST_F(MmuTest, WalkTranslatesAndSetsReferenced) {
  BuildMapping(0x00400000, 0x00080000, kPteWritable);
  Mmu::TranslateResult r = mmu_.Translate(0x1000, 1, 0x00400123, Access::kRead);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.paddr, 0x00080123u);
  EXPECT_TRUE((LeafPte(0x00400000) & kPteReferenced) != 0) << "hardware sets R bit";
  EXPECT_GT(r.cycles, 0u);
}

TEST_F(MmuTest, TlbHitIsCheaperThanWalk) {
  BuildMapping(0x00400000, 0x00080000, kPteWritable);
  Mmu::TranslateResult miss = mmu_.Translate(0x1000, 1, 0x00400000, Access::kRead);
  Mmu::TranslateResult hit = mmu_.Translate(0x1000, 1, 0x00400004, Access::kRead);
  EXPECT_LT(hit.cycles, miss.cycles);
  EXPECT_EQ(mmu_.tlb().hits(), 1u);
  EXPECT_EQ(mmu_.tlb().misses(), 1u);
}

TEST_F(MmuTest, NoMappingFaults) {
  Mmu::TranslateResult r = mmu_.Translate(0x1000, 1, 0x00400000, Access::kRead);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, FaultType::kNoMapping);
  EXPECT_EQ(r.fault.address, 0x00400000u);
  // Null root: also a mapping fault.
  r = mmu_.Translate(0, 1, 0x1234, Access::kRead);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, FaultType::kNoMapping);
}

TEST_F(MmuTest, WriteProtectionAndModifiedBit) {
  BuildMapping(0x00400000, 0x00080000, 0);  // read-only
  Mmu::TranslateResult r = mmu_.Translate(0x1000, 1, 0x00400000, Access::kWrite);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.type, FaultType::kProtection);

  BuildMapping(0x00500000, 0x00081000, kPteWritable);
  r = mmu_.Translate(0x1000, 1, 0x00500000, Access::kWrite);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((LeafPte(0x00500000) & kPteModified) != 0) << "hardware sets M bit on write";
}

TEST_F(MmuTest, CopyOnWriteFaultsOnWriteOnly) {
  BuildMapping(0x00400000, 0x00080000, kPteWritable | kPteCopyOnWrite);
  EXPECT_TRUE(mmu_.Translate(0x1000, 1, 0x00400000, Access::kRead).ok);
  Mmu::TranslateResult w = mmu_.Translate(0x1000, 1, 0x00400000, Access::kWrite);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.fault.type, FaultType::kProtection);
}

TEST_F(MmuTest, MessageModeWriteFlagged) {
  BuildMapping(0x00400000, 0x00080000, kPteWritable | kPteMessage);
  Mmu::TranslateResult w = mmu_.Translate(0x1000, 1, 0x00400000, Access::kWrite);
  ASSERT_TRUE(w.ok);
  EXPECT_TRUE(w.message_write);
  Mmu::TranslateResult r = mmu_.Translate(0x1000, 1, 0x00400000, Access::kRead);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.message_write);
}

TEST(ReverseTlbTest, InsertLookupInvalidate) {
  ReverseTlb rtlb(16);
  EXPECT_EQ(rtlb.Lookup(7), nullptr);
  ReverseTlb::Entry e;
  e.valid = true;
  e.pframe = 7;
  e.thread_id = 99;
  rtlb.Insert(e);
  const ReverseTlb::Entry* hit = rtlb.Lookup(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->thread_id, 99u);
  rtlb.InvalidateFrame(7);
  EXPECT_EQ(rtlb.Lookup(7), nullptr);
  rtlb.Insert(e);
  rtlb.InvalidateThread(99);
  EXPECT_EQ(rtlb.Lookup(7), nullptr);
}

// A trivial kernel that counts turns and idles.
class CountingClient : public MachineClient {
 public:
  void OnCpuTurn(Cpu& cpu) override {
    ++turns;
    cpu.Advance(100);
  }
  uint64_t turns = 0;
};

TEST(MachineTest, MinClockScheduling) {
  MachineConfig config;
  config.cpu_count = 2;
  config.memory_bytes = 1 << 20;
  Machine machine(config);
  CountingClient client;
  machine.AttachKernel(&client);

  machine.cpu(1).Advance(1000);  // cpu1 ahead
  machine.Step();
  machine.Step();
  // Both turns must have gone to cpu0 (the laggard).
  EXPECT_EQ(machine.cpu(0).clock(), 200u);
  EXPECT_EQ(machine.cpu(1).clock(), 1000u);
  EXPECT_EQ(client.turns, 2u);
}

TEST(MachineTest, RunUntilAdvancesAllCpus) {
  MachineConfig config;
  config.cpu_count = 4;
  Machine machine(config);
  CountingClient client;
  machine.AttachKernel(&client);
  machine.RunUntil(5000);
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_GE(machine.cpu(c).clock(), 5000u);
  }
}

TEST(MachineTest, HaltStopsTurns) {
  MachineConfig config;
  Machine machine(config);
  CountingClient client;
  machine.AttachKernel(&client);
  machine.Step();
  machine.Halt();
  EXPECT_FALSE(machine.Step());
}

class RecordingSink : public SignalSink {
 public:
  void SignalPhysical(PhysAddr addr, Cycles when) override {
    addrs.push_back(addr);
    times.push_back(when);
  }
  std::vector<PhysAddr> addrs;
  std::vector<Cycles> times;
};

TEST(DeviceTest, ClockTicksPeriodically) {
  MachineConfig config;
  Machine machine(config);
  CountingClient client;
  machine.AttachKernel(&client);
  RecordingSink sink;
  ClockDevice clock(0x10000, &sink);
  machine.AttachDevice(&clock);
  clock.Start(1000, 500);
  machine.RunUntil(2600);
  ASSERT_GE(sink.addrs.size(), 3u);
  EXPECT_EQ(sink.addrs[0], 0x10000u);
  EXPECT_EQ(sink.times[0], 1000u);
  EXPECT_EQ(sink.times[1], 1500u);
  EXPECT_EQ(sink.times[2], 2000u);
}

TEST(DeviceTest, FiberChannelDeliversToPeer) {
  MachineConfig config;
  Machine a(config), b(config);
  CountingClient ca, cb;
  a.AttachKernel(&ca);
  b.AttachKernel(&cb);
  RecordingSink sink_a, sink_b;
  FiberChannelDevice fca(a.memory(), &sink_a, 0x20000, 2, 2, 2500);
  FiberChannelDevice fcb(b.memory(), &sink_b, 0x20000, 2, 2, 2500);
  FiberChannelDevice::Connect(fca, fcb);
  a.AttachDevice(&fca);
  b.AttachDevice(&fcb);

  // Write a packet into A's tx slot 0 and ring the doorbell.
  const char payload[] = "hello";
  uint32_t len = sizeof(payload);
  a.memory().WriteWord(fca.tx_slot(0), len);
  a.memory().Write(fca.tx_slot(0) + 4, payload, len);
  fca.OnDoorbell(fca.tx_slot(0), 100);

  // Run B until its device delivers.
  b.RunUntil(10000);
  ASSERT_EQ(sink_b.addrs.size(), 1u);
  EXPECT_EQ(sink_b.addrs[0], fcb.rx_slot(0));
  EXPECT_GE(sink_b.times[0], 100u + 2500u);
  EXPECT_EQ(b.memory().ReadWord(fcb.rx_slot(0)), len);
  char out[16] = {0};
  b.memory().Read(fcb.rx_slot(0) + 4, out, len);
  EXPECT_STREQ(out, "hello");
  EXPECT_EQ(fca.packets_sent(), 1u);
  EXPECT_EQ(fcb.packets_received(), 1u);
}

TEST(DeviceTest, FiberChannelBulkZeroLengthAndTiming) {
  MachineConfig config;
  Machine a(config), b(config);
  RecordingSink sink_a, sink_b;
  FiberChannelDevice fca(a.memory(), &sink_a, 0x20000, 2, 2, 2500);
  FiberChannelDevice fcb(b.memory(), &sink_b, 0x20000, 2, 2, 2500);
  FiberChannelDevice::Connect(fca, fcb);

  // A zero-length payload is legal: it occupies the wire for zero cycles and
  // arrives after exactly the base latency.
  fca.SendBulk({}, 100);
  std::vector<uint8_t> out{0xee};  // poison: PollBulk must replace it
  EXPECT_FALSE(fcb.PollBulk(&out, 2599));
  ASSERT_TRUE(fcb.PollBulk(&out, 2600));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fca.bulk_sent(), 1u);
  EXPECT_EQ(fcb.bulk_received(), 1u);
  EXPECT_EQ(fcb.bulk_bytes_received(), 0u);
}

TEST(DeviceTest, FiberChannelBulkFifoNoOvertake) {
  MachineConfig config;
  Machine a(config), b(config);
  RecordingSink sink_a, sink_b;
  FiberChannelDevice fca(a.memory(), &sink_a, 0x20000, 2, 2, 2500);
  FiberChannelDevice fcb(b.memory(), &sink_b, 0x20000, 2, 2, 2500);
  FiberChannelDevice::Connect(fca, fcb);

  // A big payload followed immediately by a tiny one: the tiny one must not
  // overtake on the wire -- it starts serializing only when the link frees.
  fca.SendBulk(std::vector<uint8_t>(8192, 0xaa), 100);
  fca.SendBulk(std::vector<uint8_t>(4, 0xbb), 101);

  // Big: starts at 100, serializes 8192*3/4 = 6144 cycles, due 100+6144+2500.
  const Cycles big_due = 100 + FiberChannelDevice::BulkWireCycles(8192) + 2500;
  // Small: the wire is busy until 6244, so due = 6244 + 3 + 2500.
  const Cycles small_due = 100 + FiberChannelDevice::BulkWireCycles(8192) +
                           FiberChannelDevice::BulkWireCycles(4) + 2500;
  ASSERT_LT(big_due, small_due);

  std::vector<uint8_t> out;
  EXPECT_FALSE(fcb.PollBulk(&out, big_due - 1));
  ASSERT_TRUE(fcb.PollBulk(&out, big_due));
  EXPECT_EQ(out.size(), 8192u) << "small payload overtook the big one";
  EXPECT_FALSE(fcb.PollBulk(&out, small_due - 1));
  ASSERT_TRUE(fcb.PollBulk(&out, small_due));
  EXPECT_EQ(out.size(), 4u);
}

// One window's worth of interleaved regular packets and bulk payloads must be
// observed identically by the peer whether the link delivers immediately
// (Connect) or stages in the deferred outbox and flushes at a barrier
// (cluster mode): same signal times, same bulk arrival times, same order.
TEST(DeviceTest, FiberChannelDeferredBulkMatchesImmediate) {
  struct Observed {
    std::vector<Cycles> signal_times;
    std::vector<std::pair<Cycles, size_t>> bulks;  // (arrival, size)
    bool operator==(const Observed& o) const {
      return signal_times == o.signal_times && bulks == o.bulks;
    }
  };
  auto run = [](bool deferred) {
    MachineConfig config;
    Machine a(config), b(config);
    CountingClient ca, cb;
    a.AttachKernel(&ca);
    b.AttachKernel(&cb);
    RecordingSink sink_a, sink_b;
    FiberChannelDevice fca(a.memory(), &sink_a, 0x20000, 2, 2, 2500);
    FiberChannelDevice fcb(b.memory(), &sink_b, 0x20000, 2, 2, 2500);
    FiberChannelDevice::Connect(fca, fcb);
    a.AttachDevice(&fca);
    b.AttachDevice(&fcb);
    fca.set_deferred_delivery(deferred);
    fcb.set_deferred_delivery(deferred);

    // The interleaving under test: packet, big bulk, packet, empty bulk,
    // small bulk -- all sent within one window.
    a.memory().WriteWord(fca.tx_slot(0), 4);
    a.memory().WriteWord(fca.tx_slot(0) + 4, 0x11111111);
    fca.OnDoorbell(fca.tx_slot(0), 100);
    fca.SendBulk(std::vector<uint8_t>(6000, 0xaa), 110);
    a.memory().WriteWord(fca.tx_slot(1), 4);
    a.memory().WriteWord(fca.tx_slot(1) + 4, 0x22222222);
    fca.OnDoorbell(fca.tx_slot(1), 120);
    fca.SendBulk({}, 130);
    fca.SendBulk(std::vector<uint8_t>(8, 0xbb), 140);

    if (deferred) {
      fca.FlushOutbox();  // the barrier
      fcb.FlushOutbox();
    }

    Observed observed;
    std::vector<uint8_t> blob;
    for (Cycles now = 0; now <= 30000; now += 10) {
      b.RunUntil(now);
      while (fcb.PollBulk(&blob, now)) {
        observed.bulks.emplace_back(now, blob.size());
      }
    }
    observed.signal_times = sink_b.times;
    return observed;
  };

  Observed immediate = run(false);
  Observed deferred = run(true);
  EXPECT_TRUE(immediate == deferred);
  ASSERT_EQ(immediate.bulks.size(), 3u);
  EXPECT_EQ(immediate.bulks[0].second, 6000u);
  EXPECT_EQ(immediate.bulks[1].second, 0u);
  EXPECT_EQ(immediate.bulks[2].second, 8u);
  ASSERT_EQ(immediate.signal_times.size(), 2u);
}

TEST(DeviceTest, EthernetHubRoutesByStation) {
  MachineConfig config;
  Machine m(config);
  CountingClient client;
  m.AttachKernel(&client);
  RecordingSink s1, s2, s3;
  EthernetDevice e1(m.memory(), &s1, 0x30000, 2, 2, 1000, 1);
  EthernetDevice e2(m.memory(), &s2, 0x40000, 2, 2, 1000, 2);
  EthernetDevice e3(m.memory(), &s3, 0x50000, 2, 2, 1000, 3);
  EthernetHub hub;
  hub.Attach(&e1);
  hub.Attach(&e2);
  hub.Attach(&e3);
  m.AttachDevice(&e1);
  m.AttachDevice(&e2);
  m.AttachDevice(&e3);

  // Unicast to station 2.
  uint8_t packet[4] = {2, 0xaa, 0xbb, 0xcc};
  uint32_t len = sizeof(packet);
  m.memory().WriteWord(e1.tx_slot(0), len);
  m.memory().Write(e1.tx_slot(0) + 4, packet, len);
  e1.OnDoorbell(e1.tx_slot(0), 0);
  m.RunUntil(5000);
  EXPECT_EQ(s2.addrs.size(), 1u);
  EXPECT_EQ(s3.addrs.size(), 0u);

  // Broadcast.
  packet[0] = 0xff;
  m.memory().WriteWord(e1.tx_slot(1), len);
  m.memory().Write(e1.tx_slot(1) + 4, packet, len);
  e1.OnDoorbell(e1.tx_slot(1), 6000);
  m.RunUntil(12000);
  EXPECT_EQ(s2.addrs.size(), 2u);
  EXPECT_EQ(s3.addrs.size(), 1u);
  EXPECT_EQ(s1.addrs.size(), 0u) << "sender does not hear its own broadcast";
}

// Minimal device that just records the doorbells routed to it.
class RecordingDoorbellDevice : public Device {
 public:
  RecordingDoorbellDevice(PhysAddr base, uint32_t size) : base_(base), size_(size) {}
  PhysAddr region_base() const override { return base_; }
  uint32_t region_size() const override { return size_; }
  Cycles NextEventAt() const override { return kNoEvent; }
  void Run(Cycles) override {}
  void OnDoorbell(PhysAddr addr, Cycles when) override {
    addrs.push_back(addr);
    times.push_back(when);
  }
  std::vector<PhysAddr> addrs;
  std::vector<Cycles> times;

 private:
  PhysAddr base_;
  uint32_t size_;
};

TEST(MachineTest, DeliverDoorbellRoutesAmongMultipleDevices) {
  MachineConfig config;
  Machine m(config);
  RecordingDoorbellDevice d1(0x10000, 0x1000);
  RecordingDoorbellDevice d2(0x20000, 0x2000);
  RecordingDoorbellDevice d3(0x22000, 0x1000);  // adjacent to d2's end
  m.AttachDevice(&d1);
  m.AttachDevice(&d2);
  m.AttachDevice(&d3);

  // Interior of the second device's region.
  EXPECT_TRUE(m.DeliverDoorbell(0x20800, 100));
  // Both ends of a region are inclusive of the first byte, exclusive of the
  // limit: the last byte of d2 belongs to d2, the next byte to d3.
  EXPECT_TRUE(m.DeliverDoorbell(0x20000, 200));
  EXPECT_TRUE(m.DeliverDoorbell(0x21fff, 300));
  EXPECT_TRUE(m.DeliverDoorbell(0x22000, 400));

  ASSERT_EQ(d2.addrs.size(), 3u);
  EXPECT_EQ(d2.addrs[0], 0x20800u);
  EXPECT_EQ(d2.times[0], 100u);
  EXPECT_EQ(d2.addrs[1], 0x20000u);
  EXPECT_EQ(d2.addrs[2], 0x21fffu);
  ASSERT_EQ(d3.addrs.size(), 1u);
  EXPECT_EQ(d3.addrs[0], 0x22000u);
  EXPECT_TRUE(d1.addrs.empty()) << "doorbell leaked to an unrelated device";
}

TEST(MachineTest, DeliverDoorbellMissesOutsideEveryRegion) {
  MachineConfig config;
  Machine m(config);
  RecordingDoorbellDevice d1(0x10000, 0x1000);
  RecordingDoorbellDevice d2(0x20000, 0x1000);
  m.AttachDevice(&d1);
  m.AttachDevice(&d2);

  EXPECT_FALSE(m.DeliverDoorbell(0xf000, 10));   // below every region
  EXPECT_FALSE(m.DeliverDoorbell(0x11000, 20));  // gap between regions
  EXPECT_FALSE(m.DeliverDoorbell(0x30000, 30));  // above every region
  EXPECT_TRUE(d1.addrs.empty());
  EXPECT_TRUE(d2.addrs.empty());

  // And with no devices attached at all, nothing claims anything.
  Machine bare(config);
  EXPECT_FALSE(bare.DeliverDoorbell(0x10000, 40));
}

}  // namespace

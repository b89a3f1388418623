// Distributed shared memory over consistency faults: two machines, one
// shared region, migratory ownership (section 2.1 footnote 1, section 3).

#include <gtest/gtest.h>

#include "src/dsm/dsm_kernel.h"
#include "src/sim/devices.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cktest::TestWorld;

// A worker of the DSM kernel: on demand, reads a counter word in the shared
// region, increments it `rounds` times, then stops.
class IncrementWorker : public ck::NativeProgram {
 public:
  IncrementWorker(cksim::VirtAddr addr, uint32_t rounds) : addr_(addr), rounds_(rounds) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ck::NativeOutcome outcome;
    if (done_ || paused_) {
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    ckbase::Result<uint32_t> value = ctx.LoadWord(addr_);
    if (!value.ok()) {
      // Consistency fault in flight: the DSM kernel blocked us; retry when
      // resumed.
      outcome.action = ck::NativeOutcome::Action::kYield;
      return outcome;
    }
    if (ctx.StoreWord(addr_, value.value() + 1) == CkStatus::kOk) {
      last_seen = value.value() + 1;
      if (--rounds_ == 0) {
        done_ = true;
      }
    }
    outcome.action = ck::NativeOutcome::Action::kYield;
    return outcome;
  }

  bool done() const { return done_; }
  void Pause() { paused_ = true; }
  void Resume(uint32_t rounds) {
    rounds_ = rounds;
    done_ = false;
    paused_ = false;
  }

  uint32_t last_seen = 0;

 private:
  cksim::VirtAddr addr_;
  uint32_t rounds_;
  bool done_ = false;
  bool paused_ = false;
};

// Two machines with a fiber channel and a DSM kernel on each side.
class DsmWorld {
 public:
  explicit DsmWorld(uint32_t pages = 2)
      : dsm_a_config_{pages, /*initially_owner=*/true},
        dsm_b_config_{pages, /*initially_owner=*/false},
        dsm_a_(a_.ck(), dsm_a_config_),
        dsm_b_(b_.ck(), dsm_b_config_) {
    uint32_t group_a = a_.srm().ReserveGroups(1).value();
    uint32_t group_b = b_.srm().ReserveGroups(1).value();
    fc_a_ = std::make_unique<cksim::FiberChannelDevice>(a_.machine().memory(), &a_.ck(),
                                                        group_a * cksim::kPageGroupBytes, 4, 4,
                                                        2500);
    fc_b_ = std::make_unique<cksim::FiberChannelDevice>(b_.machine().memory(), &b_.ck(),
                                                        group_b * cksim::kPageGroupBytes, 4, 4,
                                                        2500);
    cksim::FiberChannelDevice::Connect(*fc_a_, *fc_b_);
    a_.machine().AttachDevice(fc_a_.get());
    b_.machine().AttachDevice(fc_b_.get());

    a_.Launch(dsm_a_, 2);
    b_.Launch(dsm_b_, 2);
    a_.srm().GrantSharedGroups(dsm_a_, group_a, 1, ck::GroupAccess::kReadWrite);
    b_.srm().GrantSharedGroups(dsm_b_, group_b, 1, ck::GroupAccess::kReadWrite);

    ck::CkApi api_a(a_.ck(), dsm_a_.self(), a_.machine().cpu(0));
    ck::CkApi api_b(b_.ck(), dsm_b_.self(), b_.machine().cpu(0));
    dsm_a_.Setup(api_a, out_a_, in_a_);
    dsm_b_.Setup(api_b, out_b_, in_b_);

    // Wire each node's out channel over its transmit slots and its in
    // channel over its reception ring, signaled to the endpoint thread.
    out_a_.ConfigureSender(dsm_a_, dsm_a_.space_index(), 0x00800000, fc_a_->tx_slot(0), 4);
    in_a_.ConfigureReceiver(dsm_a_, dsm_a_.space_index(), 0x00900000, fc_a_->rx_slot(0), 4,
                            dsm_a_.endpoint_thread());
    out_b_.ConfigureSender(dsm_b_, dsm_b_.space_index(), 0x00800000, fc_b_->tx_slot(0), 4);
    in_b_.ConfigureReceiver(dsm_b_, dsm_b_.space_index(), 0x00900000, fc_b_->rx_slot(0), 4,
                            dsm_b_.endpoint_thread());
    in_a_.PrimeReceiver(api_a);
    in_b_.PrimeReceiver(api_b);
  }

  bool RunUntil(const std::function<bool()>& done, uint64_t max_turns = 3000000) {
    for (uint64_t i = 0; i < max_turns; ++i) {
      if (done()) {
        return true;
      }
      a_.machine().Step();
      b_.machine().Step();
    }
    return done();
  }

  TestWorld a_, b_;
  ckdsm::DsmConfig dsm_a_config_, dsm_b_config_;
  ckdsm::DsmKernel dsm_a_, dsm_b_;
  std::unique_ptr<cksim::FiberChannelDevice> fc_a_, fc_b_;
  ckapp::MessageChannel out_a_, in_a_, out_b_, in_b_;
};

TEST(DsmTest, OwnershipMigratesOnAccess) {
  DsmWorld world;
  EXPECT_TRUE(world.dsm_a_.OwnsPage(0));
  EXPECT_FALSE(world.dsm_b_.OwnsPage(0));

  // Node A writes a marker into page 0 (it owns it: no fault).
  ck::CkApi api_a(world.a_.ck(), world.dsm_a_.self(), world.a_.machine().cpu(0));
  IncrementWorker writer_a(world.dsm_a_.PageVaddr(0), 5);
  world.dsm_a_.CreateNativeThread(api_a, world.dsm_a_.space_index(), &writer_a, 12);
  ASSERT_TRUE(world.RunUntil([&] { return writer_a.done(); }));
  EXPECT_EQ(writer_a.last_seen, 5u);
  EXPECT_EQ(world.dsm_a_.dsm_stats().consistency_faults, 0u) << "owner faults never";

  // Node B touches the page: consistency fault -> fetch -> ownership moves,
  // and B sees A's writes (the counter continues from 5).
  ck::CkApi api_b(world.b_.ck(), world.dsm_b_.self(), world.b_.machine().cpu(0));
  IncrementWorker writer_b(world.dsm_b_.PageVaddr(0), 3);
  world.dsm_b_.CreateNativeThread(api_b, world.dsm_b_.space_index(), &writer_b, 12);
  ASSERT_TRUE(world.RunUntil([&] { return writer_b.done(); }));
  EXPECT_EQ(writer_b.last_seen, 8u) << "data migrated with ownership";
  EXPECT_TRUE(world.dsm_b_.OwnsPage(0));
  EXPECT_FALSE(world.dsm_a_.OwnsPage(0));
  EXPECT_GE(world.dsm_b_.dsm_stats().consistency_faults, 1u);
  EXPECT_EQ(world.dsm_b_.dsm_stats().fetches_sent, 1u);
  EXPECT_EQ(world.dsm_a_.dsm_stats().invalidations, 1u);
}

TEST(DsmTest, PingPongCounterIsCoherent) {
  DsmWorld world;
  ck::CkApi api_a(world.a_.ck(), world.dsm_a_.self(), world.a_.machine().cpu(0));
  ck::CkApi api_b(world.b_.ck(), world.dsm_b_.self(), world.b_.machine().cpu(0));

  IncrementWorker worker_a(world.dsm_a_.PageVaddr(1), 4);
  IncrementWorker worker_b(world.dsm_b_.PageVaddr(1), 4);
  worker_b.Pause();
  uint32_t a_thread =
      world.dsm_a_.CreateNativeThread(api_a, world.dsm_a_.space_index(), &worker_a, 12);
  uint32_t b_thread =
      world.dsm_b_.CreateNativeThread(api_b, world.dsm_b_.space_index(), &worker_b, 12);

  // Alternate: A increments 4, then B, then A again, ... 3 rounds each side.
  uint32_t expected = 0;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(world.RunUntil([&] { return worker_a.done(); })) << "round " << round;
    expected += 4;
    EXPECT_EQ(worker_a.last_seen, expected);
    worker_a.Pause();
    worker_b.Resume(4);
    world.dsm_b_.EnsureThreadLoaded(api_b, b_thread);
    api_b.ResumeThread(world.dsm_b_.thread(b_thread).ck_id);
    ASSERT_TRUE(world.RunUntil([&] { return worker_b.done(); })) << "round " << round;
    expected += 4;
    EXPECT_EQ(worker_b.last_seen, expected);
    worker_b.Pause();
    worker_a.Resume(4);
    world.dsm_a_.EnsureThreadLoaded(api_a, a_thread);
    api_a.ResumeThread(world.dsm_a_.thread(a_thread).ck_id);
  }
  // Ownership ping-ponged: both sides fetched multiple times.
  EXPECT_GE(world.dsm_a_.dsm_stats().fetches_sent, 2u);
  EXPECT_GE(world.dsm_b_.dsm_stats().fetches_sent, 3u);
  EXPECT_GE(world.dsm_a_.dsm_stats().invalidations, 3u);
}

TEST(DsmTest, IndependentPagesDoNotInterfere) {
  DsmWorld world(/*pages=*/2);
  ck::CkApi api_b(world.b_.ck(), world.dsm_b_.self(), world.b_.machine().cpu(0));
  IncrementWorker writer_b(world.dsm_b_.PageVaddr(1), 2);
  world.dsm_b_.CreateNativeThread(api_b, world.dsm_b_.space_index(), &writer_b, 12);
  ASSERT_TRUE(world.RunUntil([&] { return writer_b.done(); }));
  // Page 1 moved; page 0 stayed with A.
  EXPECT_TRUE(world.dsm_b_.OwnsPage(1));
  EXPECT_TRUE(world.dsm_a_.OwnsPage(0));
  EXPECT_FALSE(world.dsm_a_.OwnsPage(1));
}

TEST(DsmTest, NonRegionConsistencyFaultStillFatal) {
  // A consistency fault OUTSIDE the DSM region (a genuinely failed memory
  // module) must not be absorbed by the protocol.
  DsmWorld world;
  ck::CkApi api_a(world.a_.ck(), world.dsm_a_.self(), world.a_.machine().cpu(0));
  uint32_t space = world.dsm_a_.space_index();
  world.dsm_a_.DefineZeroRegion(space, 0x60000000, 1, /*writable=*/true);

  IncrementWorker victim(0x60000000, 3);
  uint32_t thread =
      world.dsm_a_.CreateNativeThread(api_a, space, &victim, 12);
  // Materialize the page, then mark its frame as a failed module.
  ASSERT_TRUE(world.RunUntil([&] { return victim.last_seen >= 1; }));
  ckapp::PageRecord* page = world.dsm_a_.space(space).FindPage(0x60000000);
  ASSERT_NE(page, nullptr);
  world.a_.ck().MarkFrameRemote(page->frame >> cksim::kPageShift, true);
  ASSERT_TRUE(world.RunUntil([&] { return world.dsm_a_.thread(thread).finished; }));
  EXPECT_GE(world.dsm_a_.paging_stats().illegal_accesses, 1u);
}

}  // namespace

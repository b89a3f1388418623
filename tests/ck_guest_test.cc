// End-to-end guest execution: CKVM programs running on the Cache Kernel with
// an AppKernelBase demand pager -- the full Figure 2 page-fault path, trap
// forwarding, scheduling, copy-on-write and swap.

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cktest::TestWorld;

// App kernel whose traps record arguments (number 16 returns 123).
class TestAppKernel : public ckapp::AppKernelBase {
 public:
  TestAppKernel() : ckapp::AppKernelBase("test-app", 512) {}

  ck::TrapAction HandleTrap(const ck::TrapForward& trap, ck::CkApi& api) override {
    (void)api;
    traps.push_back(trap.number);
    ck::TrapAction action;
    if (trap.number == 16) {
      action.has_return_value = true;
      action.return_value = 123;
    } else if (trap.number == 17) {
      action.has_return_value = true;
      action.return_value = trap.args[0] + trap.args[1];
    } else {
      action.action = ck::HandlerAction::kTerminate;
    }
    return action;
  }

  std::vector<uint16_t> traps;
};

ckisa::Program MustAssemble(const char* source, uint32_t base) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

class GuestTest : public ::testing::Test {
 protected:
  GuestTest() {
    world_ = std::make_unique<TestWorld>();
    world_->Launch(app_);
  }

  // Launch a guest program with stack, run until its thread halts.
  uint32_t RunProgram(const char* source, uint32_t base = 0x10000,
                      uint64_t max_turns = 500000) {
    ck::CkApi app_api(world_->ck(), app_.self(), world_->machine().cpu(0));
    uint32_t space = app_.CreateSpace(app_api);
    ckisa::Program program = MustAssemble(source, base);
    app_.LoadProgramImage(space, program, /*writable=*/true);
    app_.DefineZeroRegion(space, 0x00f00000, 8, /*writable=*/true);  // stack

    ckapp::GuestThreadParams params;
    params.space_index = space;
    params.entry = base;
    params.stack_top = 0x00f08000 - 16;
    uint32_t thread = app_.CreateGuestThread(app_api, params);
    EXPECT_TRUE(world_->RunUntil([&] { return app_.thread(thread).finished; }, max_turns))
        << "guest did not halt";
    return thread;
  }

  std::unique_ptr<TestWorld> world_;
  TestAppKernel app_;
};

TEST_F(GuestTest, DemandPagedProgramRunsToCompletion) {
  uint32_t thread = RunProgram(R"(
      ; compute 6*7 into s0 and park it in memory
      addi t0, r0, 6
      addi t1, r0, 7
      mul  s0, t0, t1
      li   t2, 0x00f00000
      sw   s0, 0(t2)
      lw   s1, 0(t2)
      halt
  )");
  ckapp::ThreadRec& rec = app_.thread(thread);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], 42u);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0 + 1], 42u);
  // The program text page and the stack page both demand-faulted.
  EXPECT_GE(app_.paging_stats().faults, 2u);
  EXPECT_GE(world_->ck().stats().faults_forwarded, 2u);
}

TEST_F(GuestTest, TrapForwardingReturnsValues) {
  uint32_t thread = RunProgram(R"(
      trap 16           ; getpid-style: returns 123 in a0
      mv   s0, a0
      addi a0, r0, 30
      addi a1, r0, 12
      trap 17           ; add syscall
      mv   s1, a0
      halt
  )");
  ckapp::ThreadRec& rec = app_.thread(thread);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], 123u);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0 + 1], 42u);
  ASSERT_EQ(app_.traps.size(), 2u);
  EXPECT_EQ(app_.traps[0], 16u);
  EXPECT_EQ(app_.traps[1], 17u);
  EXPECT_EQ(world_->ck().stats().traps_forwarded, 2u);
}

TEST_F(GuestTest, IllegalAccessTerminatesThread) {
  uint32_t thread = RunProgram(R"(
      li   t0, 0x0dead000   ; no region defined here
      lw   t1, 0(t0)
      halt
  )");
  EXPECT_TRUE(app_.thread(thread).finished);
  EXPECT_GE(app_.paging_stats().illegal_accesses, 1u);
}

TEST_F(GuestTest, WriteToReadOnlyRegionTerminates) {
  ck::CkApi app_api(world_->ck(), app_.self(), world_->machine().cpu(0));
  uint32_t space = app_.CreateSpace(app_api);
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00200000
      sw   t0, 0(t0)
      halt
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/true);
  app_.DefineZeroRegion(space, 0x00200000, 1, /*writable=*/false);  // read-only

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app_.CreateGuestThread(app_api, params);
  ASSERT_TRUE(world_->RunUntil([&] { return app_.thread(thread).finished; }));
  EXPECT_GE(app_.paging_stats().illegal_accesses, 1u);
}

TEST_F(GuestTest, ManyThreadsTimeshareOneProgram) {
  ck::CkApi app_api(world_->ck(), app_.self(), world_->machine().cpu(0));
  uint32_t space = app_.CreateSpace(app_api);
  // Each thread sums 1..100 then halts.
  ckisa::Program program = MustAssemble(R"(
      addi t0, r0, 0
      addi t1, r0, 1
      addi t2, r0, 100
    loop:
      add  t0, t0, t1
      addi t1, t1, 1
      bge  t2, t1, loop
      mv   s0, t0
      halt
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/false);

  std::vector<uint32_t> threads;
  for (int i = 0; i < 12; ++i) {
    ckapp::GuestThreadParams params;
    params.space_index = space;
    params.entry = 0x10000;
    params.priority = 8;
    threads.push_back(app_.CreateGuestThread(app_api, params));
  }
  ASSERT_TRUE(world_->RunUntil([&] { return app_.AllThreadsFinished(); }));
  for (uint32_t thread : threads) {
    EXPECT_EQ(app_.thread(thread).saved.regs[ckisa::kRegS0], 5050u);
  }
}

TEST_F(GuestTest, YieldTrapRotatesEqualPriorityThreads) {
  // trap 4 surrenders the rest of the time slice (handled by the Cache
  // Kernel directly, no forwarding). A polite yielder and a plain spinner at
  // equal priority must interleave far more tightly than two spinners.
  ck::CkApi app_api(world_->ck(), app_.self(), world_->machine().cpu(0));
  uint32_t space = app_.CreateSpace(app_api);
  ckisa::Program program = MustAssemble(R"(
      li   t2, 400
    loop:
      trap 4              ; yield
      addi t2, t2, -1
      bne  t2, r0, loop
      halt
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/false);

  uint64_t traps_before = world_->ck().stats().traps_forwarded;
  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.priority = 8;
  params.cpu_hint = 1;
  uint32_t a = app_.CreateGuestThread(app_api, params);
  uint32_t b = app_.CreateGuestThread(app_api, params);
  ASSERT_TRUE(world_->RunUntil(
      [&] { return app_.thread(a).finished && app_.thread(b).finished; }, 2000000));
  // Yield is a Cache Kernel trap: nothing was forwarded to the app kernel.
  EXPECT_EQ(world_->ck().stats().traps_forwarded, traps_before);
  // Both made progress by swapping the processor back and forth.
  EXPECT_GE(world_->ck().stats().preemptions, 100u);
}

TEST_F(GuestTest, FrameShortageEvictsAndPagesOut) {
  // Fresh world with a tiny grant: 1 page group = 128 frames, but the guest
  // dirties 200 pages, forcing evictions with page-out.
  TestWorld world;
  TestAppKernel app;
  cksrm::LaunchParams params;
  params.page_groups = 1;
  ASSERT_TRUE(world.srm().Launch(app, params).ok());

  ck::CkApi app_api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(app_api);
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00400000    ; region base
      addi t1, r0, 200       ; pages to dirty
      li   t3, 4096
    loop:
      sw   t1, 0(t0)
      add  t0, t0, t3
      addi t1, t1, -1
      bne  t1, r0, loop
      halt
  )", 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00400000, 256, /*writable=*/true);

  ckapp::GuestThreadParams gparams;
  gparams.space_index = space;
  gparams.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(app_api, gparams);
  ASSERT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 3000000));
  EXPECT_GE(app.paging_stats().evictions, 50u);
  EXPECT_GE(app.paging_stats().pages_out, 50u) << "dirty pages must be written to backing";
  // Evicted-then-retouched pages page back in from backing store with their
  // contents intact -- verified by re-reading the first page.
}

TEST_F(GuestTest, EvictedDirtyPageContentsSurviveRoundTrip) {
  TestWorld world;
  TestAppKernel app;
  cksrm::LaunchParams params;
  params.page_groups = 1;  // 128 frames
  ASSERT_TRUE(world.srm().Launch(app, params).ok());

  ck::CkApi app_api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(app_api);
  // Write a marker to page 0, dirty 150 more pages (evicting page 0), then
  // read the marker back.
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00400000
      li   t1, 0xfeedface
      sw   t1, 0(t0)
      ; dirty pages 1..150
      li   t2, 0x00401000
      addi t3, r0, 150
      li   t4, 4096
    loop:
      sw   t3, 0(t2)
      add  t2, t2, t4
      addi t3, t3, -1
      bne  t3, r0, loop
      ; read the marker back (faults page 0 back in from backing store)
      li   t0, 0x00400000
      lw   s0, 0(t0)
      halt
  )", 0x10000);
  app.LoadProgramImage(space, program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00400000, 256, /*writable=*/true);

  ckapp::GuestThreadParams gparams;
  gparams.space_index = space;
  gparams.entry = 0x10000;
  uint32_t thread = app.CreateGuestThread(app_api, gparams);
  ASSERT_TRUE(world.RunUntil([&] { return app.thread(thread).finished; }, 3000000));
  EXPECT_EQ(app.thread(thread).saved.regs[ckisa::kRegS0], 0xfeedfaceu);
}

TEST_F(GuestTest, CopyOnWriteSharesUntilWrite) {
  ck::CkApi app_api(world_->ck(), app_.self(), world_->machine().cpu(0));
  uint32_t space = app_.CreateSpace(app_api);

  // Source frame with known contents, owned by the app kernel.
  cksim::PhysAddr source = app_.frames().Allocate();
  ASSERT_NE(source, 0u);
  uint32_t magic = 0xabcd0123;
  ASSERT_EQ(app_api.WritePhys(source, &magic, 4), CkStatus::kOk);

  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00600000
      lw   s0, 0(t0)      ; read through the cow mapping: sees the source
      li   t1, 0x11111111
      sw   t1, 0(t0)      ; write: triggers the deferred copy
      lw   s1, 0(t0)      ; sees the private copy
      halt
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/false);
  app_.DefineCowRegion(space, 0x00600000, 1, source);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app_.CreateGuestThread(app_api, params);
  ASSERT_TRUE(world_->RunUntil([&] { return app_.thread(thread).finished; }));

  ckapp::ThreadRec& rec = app_.thread(thread);
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0], magic) << "read shares the source page";
  EXPECT_EQ(rec.saved.regs[ckisa::kRegS0 + 1], 0x11111111u) << "write got a private copy";
  EXPECT_GE(app_.paging_stats().cow_copies, 1u);

  // The source frame itself is untouched.
  uint32_t still = 0;
  ASSERT_EQ(app_api.ReadPhys(source, &still, 4), CkStatus::kOk);
  EXPECT_EQ(still, magic);
}

// The library paths treat an untouched deferred copy as the fault path does:
// it shares its source frame read-only until a write breaks the share.
class CowLibraryTest : public GuestTest {
 protected:
  static constexpr cksim::VirtAddr kCowPage = 0x00600000;
  static constexpr uint32_t kWords = cksim::kPageSize / 4;

  // A source frame holding word i = 0xc0de0000 + i, and one deferred-copy
  // page over it.
  CowLibraryTest() : api_(world_->ck(), app_.self(), world_->machine().cpu(0)) {
    space_ = app_.CreateSpace(api_);
    source_ = app_.frames().Allocate();
    for (uint32_t i = 0; i < kWords; ++i) {
      pattern_.push_back(0xc0de0000u + i);
    }
    EXPECT_EQ(api_.WritePhys(source_, pattern_.data(), cksim::kPageSize), CkStatus::kOk);
    app_.DefineCowRegion(space_, kCowPage, 1, source_);
  }

  std::vector<uint32_t> FrameWords(cksim::PhysAddr frame) {
    std::vector<uint32_t> words(kWords);
    EXPECT_EQ(api_.ReadPhys(frame, words.data(), cksim::kPageSize), CkStatus::kOk);
    return words;
  }

  ckapp::PageRecord& page() { return *app_.space(space_).FindPage(kCowPage); }

  ck::CkApi api_;
  uint32_t space_ = 0;
  cksim::PhysAddr source_ = 0;
  std::vector<uint32_t> pattern_;
};

TEST_F(CowLibraryTest, ReadGuestReadsTheSource) {
  uint32_t word = 0;
  ASSERT_TRUE(app_.ReadGuest(api_, space_, kCowPage + 8, &word, 4));
  EXPECT_EQ(word, pattern_[2]);
  EXPECT_EQ(page().frame, source_) << "still sharing the source frame";
  EXPECT_EQ(page().cow_source, source_);
  EXPECT_EQ(app_.paging_stats().cow_copies, 0u);
  EXPECT_EQ(app_.paging_stats().zero_fills, 0u);
}

TEST_F(CowLibraryTest, EnsureMappingLoadedMapsTheSourceReadOnly) {
  ASSERT_EQ(app_.EnsureMappingLoaded(api_, space_, kCowPage), CkStatus::kOk);
  ckbase::Result<ck::MappingInfo> info =
      api_.QueryMapping(app_.space(space_).ck_id, kCowPage);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().paddr, source_);
  EXPECT_FALSE(info.value().writable);

  // A later write breaks the share: the read-only mapping goes, and the next
  // load maps the private copy writable.
  uint32_t value = 0x5a5a5a5a;
  ASSERT_TRUE(app_.WriteGuest(api_, space_, kCowPage, &value, 4));
  EXPECT_FALSE(page().mapping_loaded);
  ASSERT_EQ(app_.EnsureMappingLoaded(api_, space_, kCowPage), CkStatus::kOk);
  info = api_.QueryMapping(app_.space(space_).ck_id, kCowPage);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().paddr, page().frame);
  EXPECT_NE(info.value().paddr, source_);
  EXPECT_TRUE(info.value().writable);
}

TEST_F(CowLibraryTest, WriteGuestCopiesTheSourceFirst) {
  uint32_t value = 0x5a5a5a5a;
  ASSERT_TRUE(app_.WriteGuest(api_, space_, kCowPage + 64, &value, 4));
  EXPECT_NE(page().frame, 0u);
  EXPECT_NE(page().frame, source_);
  EXPECT_TRUE(page().frame_owned);
  EXPECT_TRUE(page().dirty);
  EXPECT_EQ(page().cow_source, 0u);
  EXPECT_EQ(app_.paging_stats().cow_copies, 1u);

  std::vector<uint32_t> expected = pattern_;
  expected[16] = value;
  EXPECT_EQ(FrameWords(page().frame), expected) << "the source's bytes plus the write";
  EXPECT_EQ(FrameWords(source_), pattern_) << "the source is unchanged";
}

TEST_F(GuestTest, ConsistencyFaultForwarded) {
  ck::CkApi app_api(world_->ck(), app_.self(), world_->machine().cpu(0));
  uint32_t space = app_.CreateSpace(app_api);
  ckisa::Program program = MustAssemble(R"(
      li   t0, 0x00700000
      lw   t1, 0(t0)
      halt
  )", 0x10000);
  app_.LoadProgramImage(space, program, /*writable=*/false);
  app_.DefineZeroRegion(space, 0x00700000, 1, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t thread = app_.CreateGuestThread(app_api, params);

  // Run until the page is resident, then mark its frame remote: the next
  // access raises a consistency fault, which the base kernel treats as an
  // illegal access (terminate).
  ASSERT_TRUE(world_->RunUntil(
      [&] {
        ckapp::PageRecord* page = app_.space(space).FindPage(0x00700000);
        if (page != nullptr && page->where == ckapp::PageRecord::Where::kResident) {
          world_->ck().MarkFrameRemote(page->frame >> cksim::kPageShift, true);
          return true;
        }
        return app_.thread(thread).finished;
      },
      500000));
  ASSERT_TRUE(world_->RunUntil([&] { return app_.thread(thread).finished; }));
  EXPECT_GE(world_->ck().stats().consistency_faults, 0u);
}

// The asynchronous pager: a fault on a backed page blocks the thread and
// completes the page-in after the backing-store latency.
class AsyncPagingKernel : public TestAppKernel {
 protected:
  bool UseAsyncPaging() const override { return true; }
};

// Two threads of one space start on CPUs 0 and 1 in the same backed code
// page. The second faults while the first one's page-in is in flight: it
// must wait for that page-in, not start another into a second frame (which
// left the first waiter blocked forever and its frame out of the pool).
TEST(AsyncPagingTest, SecondFaultOnAPageInFlightWaitsForIt) {
  TestWorld world;
  AsyncPagingKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(api);
  app.LoadProgramImage(space, MustAssemble("addi a0, r0, 1\nhalt\n", 0x10000),
                       /*writable=*/false);
  const uint32_t free_before = app.frames().free_count();
  uint32_t threads[2];
  for (uint8_t cpu = 0; cpu < 2; ++cpu) {
    ckapp::GuestThreadParams params;
    params.space_index = space;
    params.entry = 0x10000;
    params.cpu_hint = cpu;
    threads[cpu] = app.CreateGuestThread(api, params);
  }
  EXPECT_TRUE(world.RunUntil(
      [&] { return app.thread(threads[0]).finished && app.thread(threads[1]).finished; }))
      << "a thread that faulted on the page never resumed";
  EXPECT_EQ(app.paging_stats().pages_in, 1u);
  EXPECT_EQ(app.frames().free_count(), free_before - 1);
}

}  // namespace

// Failure injection: hostile/buggy application kernels, reentrant handlers,
// resource exhaustion. The Cache Kernel must degrade to error returns --
// never corrupt its invariants -- because application kernels are untrusted
// ("the Cache Kernel is protected from user programming by hardware",
// section 6).

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cktest::TestWorld;

ckisa::Program MustAssemble(const char* source, uint32_t base = 0x10000) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

TEST(FailureTest, GarbageIdentifiersAreRejectedEverywhere) {
  TestWorld world;
  ckapp::AppKernelBase app("hostile", 32);
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  ck::SpaceId bogus_space{ckbase::PoolId{5, 12345}};
  ck::ThreadId bogus_thread{ckbase::PoolId{7, 999}};
  ck::KernelId bogus_kernel{ckbase::PoolId{3, 42}};

  EXPECT_EQ(api.UnloadSpace(bogus_space), CkStatus::kStale);
  EXPECT_EQ(api.UnloadThread(bogus_thread), CkStatus::kStale);
  EXPECT_EQ(api.SetThreadPriority(bogus_thread, 5), CkStatus::kStale);
  EXPECT_EQ(api.BlockThread(bogus_thread), CkStatus::kStale);
  EXPECT_EQ(api.ResumeThread(bogus_thread), CkStatus::kStale);
  EXPECT_EQ(api.RedirectThread(bogus_thread, 0x1000, 0), CkStatus::kStale);
  ck::MappingSpec spec;
  spec.space = bogus_space;
  spec.vaddr = 0x4000;
  spec.paddr = 0x100000;
  EXPECT_EQ(api.LoadMapping(spec), CkStatus::kStale);
  EXPECT_EQ(api.UnloadMapping(bogus_space, 0x4000), CkStatus::kStale);
  EXPECT_EQ(api.Signal(bogus_space, 0x4000), CkStatus::kStale);
  EXPECT_EQ(api.UnloadKernel(bogus_kernel), CkStatus::kDenied) << "and not even the SRM's call";
  ck::ThreadSpec tspec;
  tspec.space = bogus_space;
  EXPECT_EQ(api.LoadThread(tspec).status(), CkStatus::kStale);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

TEST(FailureTest, CrossKernelObjectAccessDenied) {
  TestWorld world;
  ckapp::AppKernelBase alice("alice", 32), mallory("mallory", 32);
  world.Launch(alice);
  world.Launch(mallory);
  ck::CkApi alice_api(world.ck(), alice.self(), world.machine().cpu(0));
  ck::CkApi mallory_api(world.ck(), mallory.self(), world.machine().cpu(0));

  uint32_t space = alice.CreateSpace(alice_api);
  ck::SpaceId alice_space = alice.space(space).ck_id;
  ck::ThreadSpec tspec;
  tspec.space = alice_space;
  tspec.start_blocked = true;
  ck::ThreadId alice_thread = alice_api.LoadThread(tspec).value();

  // Mallory holds valid identifiers for Alice's objects but owns neither.
  EXPECT_EQ(mallory_api.UnloadSpace(alice_space), CkStatus::kDenied);
  EXPECT_EQ(mallory_api.UnloadThread(alice_thread), CkStatus::kDenied);
  EXPECT_EQ(mallory_api.SetThreadPriority(alice_thread, 1), CkStatus::kDenied);
  EXPECT_EQ(mallory_api.ResumeThread(alice_thread), CkStatus::kDenied);
  ck::MappingSpec spec;
  spec.space = alice_space;
  spec.vaddr = 0x4000;
  spec.paddr = 0x100000;
  EXPECT_EQ(mallory_api.LoadMapping(spec), CkStatus::kDenied);
  ck::ThreadSpec steal;
  steal.space = alice_space;
  EXPECT_EQ(mallory_api.LoadThread(steal).status(), CkStatus::kDenied)
      << "threads cannot be planted in another kernel's space";
  EXPECT_TRUE(world.ck().IsThreadLoaded(alice_thread));
}

// A kernel whose fault handler unloads the faulting thread (legal: the
// handler has full control of the faulting thread, section 2.1).
class ThreadKillerKernel : public ckapp::AppKernelBase {
 public:
  ThreadKillerKernel() : ckapp::AppKernelBase("killer", 64) {}

  ck::HandlerAction HandleFault(const ck::FaultForward& fault, ck::CkApi& api) override {
    if (kill_next) {
      kill_next = false;
      api.UnloadThread(fault.thread);  // the thread vanishes mid-handler
      kills++;
      return ck::HandlerAction::kBlock;  // stale by now; CK must cope
    }
    return AppKernelBase::HandleFault(fault, api);
  }

  bool kill_next = false;
  int kills = 0;
};

TEST(FailureTest, HandlerUnloadsFaultingThread) {
  TestWorld world;
  ThreadKillerKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(api);
  app.LoadProgramImage(space, MustAssemble(R"(
      li t0, 0x00400000
      lw t1, 0(t0)
      halt
  )"), false);
  app.DefineZeroRegion(space, 0x00400000, 1, true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  uint32_t guest = app.CreateGuestThread(api, params);
  // First fault (text page) resolves normally; kill on the data fault.
  world.RunUntil([&] { return world.ck().stats().faults_forwarded >= 1; });
  app.kill_next = true;
  world.machine().RunFor(500000);
  EXPECT_EQ(app.kills, 1);
  EXPECT_FALSE(app.thread(guest).loaded) << "thread written back by its own handler";
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

// A kernel whose writeback handler performs loads (reentering the Cache
// Kernel from the writeback channel). This happens in practice: handling a
// thread writeback may require reloading the space it names.
class ReentrantKernel : public ckapp::AppKernelBase {
 public:
  ReentrantKernel() : ckapp::AppKernelBase("reentrant", 64) {}

  void OnThreadWriteback(const ck::ThreadWriteback& record, ck::CkApi& api) override {
    AppKernelBase::OnThreadWriteback(record, api);
    if (reload_spaces_on_writeback) {
      api.LoadSpace(/*cookie=*/77, false);  // nested load during writeback
      nested_loads++;
    }
  }

  bool reload_spaces_on_writeback = false;
  int nested_loads = 0;
};

TEST(FailureTest, ReentrantLoadsDuringWritebackSurviveReclamation) {
  cktest::WorldOptions options;
  options.ck.thread_slots = 4;
  options.ck.space_slots = 16;
  TestWorld world(options);
  ReentrantKernel app;
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(api);
  app.reload_spaces_on_writeback = true;

  // Overflow the thread pool: every reclamation writeback re-enters the
  // kernel with a space load.
  for (int i = 0; i < 12; ++i) {
    ck::ThreadSpec spec;
    spec.space = app.space(space).ck_id;
    spec.cookie = 1000;  // outside the record table: exercise the guard too
    spec.start_blocked = true;
    api.LoadThread(spec);
  }
  EXPECT_GE(app.nested_loads, 8);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

TEST(FailureTest, PageTableArenaExhaustionFailsCleanly) {
  cktest::WorldOptions options;
  options.ck.page_table_arena_bytes = 16384;  // tiny arena: ~21 spaces worth
  TestWorld world(options);
  ckapp::AppKernelBase app("greedy", 32);
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  // Sparse mappings force L2+L3 allocations until the arena runs dry. The
  // load must fail with kNoResources, not corrupt anything.
  ckbase::Result<ck::SpaceId> space = api.LoadSpace(0, false);
  ASSERT_TRUE(space.ok());
  CkStatus last = CkStatus::kOk;
  for (uint32_t i = 0; i < 64 && last == CkStatus::kOk; ++i) {
    ck::MappingSpec spec;
    spec.space = space.value();
    spec.vaddr = i * (32u << 20);  // one L2+L3 pair per mapping
    spec.paddr = 0x100000;
    last = api.LoadMapping(spec);
  }
  EXPECT_EQ(last, CkStatus::kNoResources);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
  // Unloading the space releases the tables; loading works again.
  ASSERT_EQ(api.UnloadSpace(space.value()), CkStatus::kOk);
  ckbase::Result<ck::SpaceId> space2 = api.LoadSpace(1, false);
  ASSERT_TRUE(space2.ok());
  ck::MappingSpec spec;
  spec.space = space2.value();
  spec.vaddr = 0x4000;
  spec.paddr = 0x100000;
  EXPECT_EQ(api.LoadMapping(spec), CkStatus::kOk);
}

// A locked LoadSpace refused because the page-table arena is full must not
// keep the lock-budget unit it was about to charge: once a root table frees
// up, the next locked load succeeds.
TEST(FailureTest, LockedSpaceRefusedOnArenaKeepsLockBudget) {
  cktest::WorldOptions options;
  options.ck.page_table_arena_bytes = 16384;  // 32 root tables, one the SRM's
  TestWorld world(options);
  ckapp::AppKernelBase app("locker", 32);
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  std::vector<ck::SpaceId> spaces;
  for (;;) {
    ckbase::Result<ck::SpaceId> space = api.LoadSpace(0, false);
    if (!space.ok()) {
      ASSERT_EQ(space.status(), CkStatus::kNoResources);
      break;
    }
    spaces.push_back(space.value());
  }
  EXPECT_EQ(spaces.size(), 31u);

  // As many refused locked loads as the kernel may hold locked spaces.
  const uint32_t limit = cksrm::LaunchParams().lock_limits[1];
  for (uint32_t i = 0; i < limit; ++i) {
    EXPECT_EQ(api.LoadSpace(1, true).status(), CkStatus::kNoResources);
  }
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());

  ASSERT_EQ(api.UnloadSpace(spaces.back()), CkStatus::kOk);
  ckbase::Result<ck::SpaceId> locked = api.LoadSpace(2, true);
  EXPECT_EQ(locked.status(), CkStatus::kOk) << "the refused loads used up the lock budget";
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

TEST(FailureTest, SignalToHaltedThreadIsDropped) {
  TestWorld world;
  ckapp::AppKernelBase app("sig", 32);
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(api);
  cksim::PhysAddr frame = app.frames().Allocate();

  // Guest halts immediately but stays registered as a signal thread.
  app.LoadProgramImage(space, MustAssemble("halt"), false);
  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.signal_handler = 0x10000;
  uint32_t guest = app.CreateGuestThread(api, params);

  app.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, guest);
  ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
  ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);

  world.RunUntil([&] { return app.thread(guest).finished; });
  // The halt unloaded the thread; its signal registration was removed with
  // it, so the signal simply has no receivers.
  EXPECT_EQ(api.Signal(app.space(space).ck_id, 0x00800000), CkStatus::kOk);
  world.machine().RunFor(100000);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

TEST(FailureTest, MisalignedAndBadInstructionFaultsTerminate) {
  TestWorld world;
  ckapp::AppKernelBase app("bad", 64);
  world.Launch(app);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));

  // Misaligned word access.
  uint32_t space1 = app.CreateSpace(api);
  app.LoadProgramImage(space1, MustAssemble(R"(
      li t0, 0x00400001
      lw t1, 0(t0)
      halt
  )"), false);
  app.DefineZeroRegion(space1, 0x00400000, 1, true);
  ckapp::GuestThreadParams p1;
  p1.space_index = space1;
  p1.entry = 0x10000;
  uint32_t guest1 = app.CreateGuestThread(api, p1);
  ASSERT_TRUE(world.RunUntil([&] { return app.thread(guest1).finished; }));

  // Undecodable instruction.
  uint32_t space2 = app.CreateSpace(api);
  ckisa::Program garbage;
  garbage.base = 0x10000;
  garbage.words = {0xffffffffu};
  app.LoadProgramImage(space2, garbage, false);
  ckapp::GuestThreadParams p2;
  p2.space_index = space2;
  p2.entry = 0x10000;
  uint32_t guest2 = app.CreateGuestThread(api, p2);
  ASSERT_TRUE(world.RunUntil([&] { return app.thread(guest2).finished; }));

  EXPECT_GE(app.paging_stats().illegal_accesses, 2u);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

TEST(FailureTest, SrmSurvivesAppKernelChaos) {
  // Launch, churn, swap out, swap in, unload -- repeatedly -- and verify the
  // SRM's accounting and the kernel invariants at every stage.
  TestWorld world;
  for (int round = 0; round < 3; ++round) {
    ckapp::AppKernelBase app("victim" + std::to_string(round), 32);
    cksrm::LaunchParams params;
    params.page_groups = 2;
    ASSERT_TRUE(world.srm().Launch(app, params).ok());
    ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
    uint32_t space = app.CreateSpace(api);
    app.DefineZeroRegion(space, 0x00400000, 8, true);
    for (int i = 0; i < 8; ++i) {
      app.EnsureMappingLoaded(api, space, 0x00400000 + i * cksim::kPageSize);
    }
    ASSERT_EQ(world.srm().SwapOut(app), CkStatus::kOk);
    ASSERT_TRUE(world.ck().ValidateInvariants().empty()) << "after swap-out " << round;
    ASSERT_EQ(world.srm().SwapIn(app), CkStatus::kOk);
    ck::CkApi api2(world.ck(), app.self(), world.machine().cpu(0));
    EXPECT_EQ(app.EnsureMappingLoaded(api2, space, 0x00400000), CkStatus::kOk);
    ASSERT_EQ(world.srm().SwapOut(app), CkStatus::kOk);
    ASSERT_TRUE(world.ck().ValidateInvariants().empty()) << "end of round " << round;
  }
}

}  // namespace

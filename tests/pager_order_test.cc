// Victim-order differential for the application-kernel pager.
//
// The pager's replacement orders are intrusive lists threaded through the
// page records (src/appkernel/vspace.h): each space's resident list (the
// base FIFO) and the database kernel's recency list (resident touched pages
// by last-touch number). This file keeps the std::deque algorithms those
// lists replaced as the reference -- the base FIFO, and the database LRU and
// MRU -- and requires every victim choice to equal the reference's, over
// seeded operation sequences on a frame pool smaller than the working set:
// touches of resident and non-resident pages, page-ins through every entry
// point (including a page touched before the latest touch and paged in
// without a touch), locked and message pages, fixed-frame pages, explicit
// evictions, regions redefined over resident pages, a whole-process swap-out
// and a checkpoint/restore in mid-sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/rng.h"
#include "src/ckpt/image.h"
#include "src/db/db_kernel.h"
#include "src/isa/assembler.h"
#include "src/unixemu/unix_emulator.h"
#include "tests/test_harness.h"

namespace {

using ckapp::AppKernelBase;
using ckapp::PageRecord;
using ckapp::VSpace;
using ckbase::CkStatus;
using cksim::kPageSize;
using cksim::VirtAddr;
using cktest::TestWorld;

// ---------------------------------------------------------------------------
// The reference: the replaced deque algorithms.
// ---------------------------------------------------------------------------

VirtAddr ReferenceFifo(VSpace& sp, const std::deque<VirtAddr>& fifo) {
  for (VirtAddr vaddr : fifo) {
    PageRecord* page = sp.FindPage(vaddr);
    if (page != nullptr && page->frame_owned && !page->locked && !page->message) {
      return vaddr;
    }
  }
  return 0;
}

VirtAddr ReferenceDb(ckdb::Replacement policy, VSpace& sp, const std::deque<VirtAddr>& recency,
                     const std::deque<VirtAddr>& fifo) {
  auto evictable = [&](VirtAddr vaddr) {
    PageRecord* page = sp.FindPage(vaddr);
    return page != nullptr && page->where == PageRecord::Where::kResident &&
           page->frame_owned && !page->locked && !page->message;
  };
  switch (policy) {
    case ckdb::Replacement::kLru:
      for (VirtAddr vaddr : recency) {
        if (evictable(vaddr)) {
          return vaddr;
        }
      }
      break;
    case ckdb::Replacement::kMru:
      for (auto it = recency.rbegin(); it != recency.rend(); ++it) {
        if (it != recency.rbegin() && evictable(*it)) {
          return *it;
        }
      }
      break;
    case ckdb::Replacement::kFifo:
      break;
  }
  return ReferenceFifo(sp, fifo);
}

// The reference orders, kept where the deques were kept: a page joins its
// space's FIFO when it becomes resident in a frame of its own and leaves it
// when it stops being resident; a touch moves a page to the back of the
// recency deque. Residency changes are found by diffing the page records
// around each operation, which makes at most one page resident.
class ReferenceOrder {
 public:
  using Key = std::pair<uint32_t, VirtAddr>;

  std::map<Key, bool> Snapshot(AppKernelBase& app) const {
    std::map<Key, bool> resident;
    for (uint32_t s = 0; s < app.space_count(); ++s) {
      for (const auto& [vaddr, page] : app.space(s).pages) {
        resident[{s, vaddr}] = page.where == PageRecord::Where::kResident;
      }
    }
    return resident;
  }

  // A region redefined over a resident page leaves the FIFO here too. (The
  // deque kept a stale entry there, and a FIFO choice that reached it named
  // a page that was no longer resident, which failed the allocation.)
  void Update(AppKernelBase& app, const std::map<Key, bool>& before) {
    int joined = 0;
    for (const auto& [key, now_resident] : Snapshot(app)) {
      auto it = before.find(key);
      bool was_resident = it != before.end() && it->second;
      std::deque<VirtAddr>& order = fifo[key.first];
      auto listed = std::find(order.begin(), order.end(), key.second);
      if (was_resident && !now_resident && listed != order.end()) {
        order.erase(listed);
      } else if (!was_resident && now_resident &&
                 app.space(key.first).FindPage(key.second)->frame_owned) {
        order.push_back(key.second);
        ++joined;
      }
    }
    EXPECT_LE(joined, 1) << "an operation made more than one page resident";
  }

  void Touch(VirtAddr vaddr) {
    auto it = std::find(recency.begin(), recency.end(), vaddr);
    if (it != recency.end()) {
      recency.erase(it);
    }
    recency.push_back(vaddr);
  }

  std::map<uint32_t, std::deque<VirtAddr>> fifo;
  std::deque<VirtAddr> recency;
};

// A kernel whose every victim choice is compared with the reference's before
// the pager acts on it.
template <typename Base>
class Checked : public Base {
 public:
  using Base::Base;

  std::function<VirtAddr(VSpace&)> reference;
  uint64_t choices = 0;
  uint64_t refusals = 0;

  // Instantiated for the database kernel only.
  void TouchPage(uint32_t table_page) { Base::Touch(table_page); }

 protected:
  VirtAddr ChooseVictim(VSpace& sp) override {
    VirtAddr chosen = Base::ChooseVictim(sp);
    if (reference) {
      EXPECT_EQ(chosen, reference(sp)) << "victim choice " << choices << " in space " << sp.cookie;
    }
    ++choices;
    refusals += chosen == 0 ? 1 : 0;
    return chosen;
  }
};

using CheckedPager = Checked<AppKernelBase>;
using CheckedDb = Checked<ckdb::DbKernel>;

void TrimPool(AppKernelBase& app, uint32_t free_frames) {
  while (app.frames().free_count() > free_frames) {
    app.frames().Allocate();
  }
}

// One seeded operation on page `vaddr` of space `s`. `touch` records an
// access in the kernel's recency order (and the reference's); `redefine`
// defines a one-page region over the page.
void RandomPagerOp(ckbase::Rng& rng, AppKernelBase& app, ck::CkApi& api, uint32_t s,
                   VirtAddr vaddr, const std::function<void(VirtAddr)>& touch,
                   const std::function<void(VirtAddr)>& redefine) {
  VSpace& sp = app.space(s);
  PageRecord* page = sp.FindPage(vaddr);
  uint32_t word = 0;
  switch (rng.Below(24)) {
    case 0: case 1: case 2: case 3: case 4:  // touch, then load: the engine's order
      touch(vaddr);
      app.MaterializePage(api, sp, *page);
      break;
    case 5: case 6:  // page-ins without a touch
      app.EnsureMappingLoaded(api, s, vaddr);
      break;
    case 7: case 8:
      app.ReadGuest(api, s, vaddr + 8, &word, 4);
      break;
    case 9: case 10:
      word = static_cast<uint32_t>(rng.Next());
      app.WriteGuest(api, s, vaddr + 4, &word, 4);  // dirty: eviction writes it back
      break;
    case 11: case 12: case 13:  // a touch alone, resident or not
      touch(vaddr);
      break;
    case 14: case 15:
      app.EvictPage(api, s, vaddr);
      break;
    case 16: case 17:
      page->locked = !page->locked;
      break;
    case 18:
      page->message = !page->message;
      break;
    case 19: {
      // Redefine the page, resident or not. The pager forgets a redefined
      // page's frame and mapping; give both back so the pool keeps its size.
      cksim::PhysAddr frame =
          page->where == PageRecord::Where::kResident && page->frame_owned ? page->frame : 0;
      if (page->mapping_loaded && sp.loaded) {
        api.UnloadMapping(sp.ck_id, vaddr);
      }
      redefine(vaddr);
      if (frame != 0) {
        app.frames().Release(frame);
      }
      break;
    }
    default:
      touch(vaddr);
      app.ReadGuest(api, s, vaddr, &word, 4);
      break;
  }
}

ckisa::Program MustAssemble(const char* source) {
  ckisa::AssembleResult result = ckisa::Assemble(source, 0x10000);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

// ---------------------------------------------------------------------------
// Base FIFO: two spaces, so a dry space takes its victim from the other.
// ---------------------------------------------------------------------------

// Odd seeds add a message page and a locked page on fixed frames (resident,
// never listed); even seeds checkpoint in mid-sequence and carry on from the
// restored kernel on another machine.
class PagerOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagerOrderTest, FifoVictimsMatchTheDeque) {
  constexpr uint32_t kPages = 20;
  constexpr uint32_t kPool = 9;
  constexpr uint32_t kBackingPages = 256;
  constexpr VirtAddr kBase = 0x40000000;
  const bool checkpoint = GetParam() % 2 == 0;
  ReferenceOrder ref;
  ckbase::Rng rng(GetParam());

  auto world = std::make_unique<TestWorld>();
  auto app = std::make_unique<CheckedPager>("pager", kBackingPages);
  world->Launch(*app);
  ck::CkApi setup_api(world->ck(), app->self(), world->machine().cpu(0));
  for (uint32_t s = 0; s < 2; ++s) {
    app->CreateSpace(setup_api);
    app->DefineZeroRegion(s, kBase, kPages / 2, /*writable=*/true);
    app->DefineBackedRegion(s, kBase + (kPages / 2) * kPageSize, kPages / 2, 10 * s,
                            /*writable=*/true);
  }
  if (!checkpoint) {
    cksim::PhysAddr fixed = app->frames().Allocate();
    app->DefineFrameRegion(0, 0x50000000, 1, fixed, true, /*message=*/true);
    app->DefineFrameRegion(1, 0x50000000, 1, fixed, false, /*message=*/false, ckapp::kNoThread,
                           /*locked=*/true);
  }
  TrimPool(*app, kPool);
  auto attach = [&](CheckedPager& kernel) {
    kernel.reference = [&](VSpace& sp) { return ReferenceFifo(sp, ref.fifo[sp.cookie]); };
  };
  attach(*app);

  std::unique_ptr<TestWorld> old_world;
  std::unique_ptr<CheckedPager> old_app;
  uint64_t choices = 0;
  constexpr int kSteps = 1500;
  for (int step = 0; step < kSteps; ++step) {
    if (checkpoint && step == kSteps / 2) {
      // Checkpoint, restore onto another machine, and carry on there.
      ckckpt::CkptImage image;
      ASSERT_EQ(world->srm().Checkpoint(*app, &image), CkStatus::kOk);
      uint32_t free_frames = app->frames().free_count();
      choices += app->choices;
      old_world = std::move(world);
      old_app = std::move(app);
      world = std::make_unique<TestWorld>();
      app = std::make_unique<CheckedPager>("pager", kBackingPages);
      std::string error;
      ASSERT_EQ(world->srm().Restore(*app, image, ckckpt::RestoreOptions{}, &error),
                CkStatus::kOk)
          << error;
      TrimPool(*app, free_frames);
      attach(*app);
    }
    ck::CkApi api(world->ck(), app->self(), world->machine().cpu(0));
    uint32_t s = static_cast<uint32_t>(rng.Below(2));
    VirtAddr vaddr = kBase + static_cast<VirtAddr>(rng.Below(kPages)) * kPageSize;
    auto before = ref.Snapshot(*app);
    RandomPagerOp(
        rng, *app, api, s, vaddr, [](VirtAddr) {},
        [&](VirtAddr v) {
          if (rng.Below(2) == 0) {
            app->DefineZeroRegion(s, v, 1, /*writable=*/true);
          } else {
            app->DefineBackedRegion(s, v, 1, 20 + s, /*writable=*/true);
          }
        });
    ref.Update(*app, before);
    ASSERT_FALSE(HasFailure()) << "diverged at step " << step;
  }
  choices += app->choices;
  EXPECT_GT(choices, 200u);
  EXPECT_GT(app->paging_stats().pages_out, 0u);
  EXPECT_TRUE(world->ck().ValidateInvariants().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagerOrderTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Database LRU / MRU / FIFO, checkpointed in mid-sequence.
// ---------------------------------------------------------------------------

struct DbCase {
  ckdb::Replacement policy;
  uint64_t seed;
};

class DbOrderTest : public ::testing::TestWithParam<DbCase> {};

TEST_P(DbOrderTest, VictimsMatchTheDeque) {
  const DbCase c = GetParam();
  ckdb::DbConfig config;
  config.table_pages = 24;
  config.policy = c.policy;
  constexpr uint32_t kPool = 8;
  ReferenceOrder ref;
  ckbase::Rng rng(c.seed);

  auto world = std::make_unique<TestWorld>();
  auto db = std::make_unique<CheckedDb>(world->ck(), config);
  world->Launch(*db, /*page_groups=*/2);
  ck::CkApi setup_api(world->ck(), db->self(), world->machine().cpu(0));
  db->Setup(setup_api);
  TrimPool(*db, kPool);
  auto attach = [&](CheckedDb& kernel) {
    kernel.reference = [&, policy = c.policy](VSpace& sp) {
      return ReferenceDb(policy, sp, ref.recency, ref.fifo[sp.cookie]);
    };
  };
  attach(*db);

  std::unique_ptr<TestWorld> old_world;
  std::unique_ptr<CheckedDb> old_db;
  uint64_t choices = 0;
  constexpr int kSteps = 1500;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) {
      ckckpt::CkptImage image;
      ASSERT_EQ(world->srm().Checkpoint(*db, &image), CkStatus::kOk);
      uint32_t free_frames = db->frames().free_count();
      choices += db->choices;
      old_world = std::move(world);
      old_db = std::move(db);
      world = std::make_unique<TestWorld>();
      db = std::make_unique<CheckedDb>(world->ck(), config);
      std::string error;
      ASSERT_EQ(world->srm().Restore(*db, image, ckckpt::RestoreOptions{}, &error),
                CkStatus::kOk)
          << error;
      TrimPool(*db, free_frames);
      attach(*db);
    }
    ck::CkApi api(world->ck(), db->self(), world->machine().cpu(0));
    uint32_t table_page = static_cast<uint32_t>(rng.Below(config.table_pages));
    VirtAddr vaddr = config.table_base + table_page * kPageSize;
    auto before = ref.Snapshot(*db);
    RandomPagerOp(
        rng, *db, api, 0, vaddr,
        [&](VirtAddr v) {
          db->TouchPage((v - config.table_base) / kPageSize);
          ref.Touch(v);
        },
        [&](VirtAddr v) { db->DefineBackedRegion(0, v, 1, table_page, /*writable=*/false); });
    ref.Update(*db, before);
    ASSERT_FALSE(HasFailure()) << "diverged at step " << step;
  }
  choices += db->choices;
  EXPECT_GT(choices, 200u);
  EXPECT_TRUE(world->ck().ValidateInvariants().empty());
}

std::string DbCaseName(const ::testing::TestParamInfo<DbCase>& info) {
  static const char* const kNames[] = {"Lru", "Mru", "Fifo"};
  return std::string(kNames[static_cast<int>(info.param.policy)]) + "Seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DbOrderTest,
    ::testing::Values(DbCase{ckdb::Replacement::kLru, 1}, DbCase{ckdb::Replacement::kLru, 2},
                      DbCase{ckdb::Replacement::kLru, 3}, DbCase{ckdb::Replacement::kMru, 1},
                      DbCase{ckdb::Replacement::kMru, 2}, DbCase{ckdb::Replacement::kMru, 3},
                      DbCase{ckdb::Replacement::kFifo, 1}, DbCase{ckdb::Replacement::kFifo, 2}),
    DbCaseName);

// A restored database kernel captures its kAppExtra record (query state and
// the recency list in touch order) to the bytes it was restored from.
TEST(DbOrder, RecaptureAfterRestoreIsByteIdentical) {
  for (ckdb::Replacement policy : {ckdb::Replacement::kLru, ckdb::Replacement::kMru}) {
    ckdb::DbConfig config;
    config.table_pages = 24;
    config.policy = policy;
    TestWorld a;
    ckdb::DbKernel db(a.ck(), config);
    a.Launch(db, /*page_groups=*/2);
    ck::CkApi api(a.ck(), db.self(), a.machine().cpu(0));
    db.Setup(api);
    TrimPool(db, 8);
    uint64_t sum = db.RunScan();
    db.RunPointLookups(40);
    EXPECT_EQ(db.RunScan(), sum);

    ckckpt::CkptImage first;
    ASSERT_EQ(a.srm().Checkpoint(db, &first), CkStatus::kOk);
    TestWorld b;
    ckdb::DbKernel restored(b.ck(), config);
    std::string error;
    ASSERT_EQ(b.srm().Restore(restored, first, ckckpt::RestoreOptions{}, &error), CkStatus::kOk)
        << error;
    ckckpt::CkptImage second;
    ASSERT_EQ(b.srm().Checkpoint(restored, &second), CkStatus::kOk);
    const ckckpt::CkptRecord* x = first.Find(ckckpt::RecordType::kAppExtra);
    const ckckpt::CkptRecord* y = second.Find(ckckpt::RecordType::kAppExtra);
    ASSERT_NE(x, nullptr);
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(x->payload, y->payload) << "db kAppExtra bytes changed across restore";
    EXPECT_EQ(restored.RunScan(), sum);
  }
}

// ---------------------------------------------------------------------------
// UNIX emulator: a whole-process swap-out evicts while it drains the
// resident list, and the order afterwards still matches.
// ---------------------------------------------------------------------------

TEST(UnixOrder, SwapOutProcessDrainsTheResidentList) {
  using CheckedUnix = Checked<ckunix::UnixEmulator>;
  TestWorld world;
  CheckedUnix emu(world.ck());
  cksrm::LaunchParams params;
  params.page_groups = 4;
  params.max_priority = 31;
  params.locked_kernel_object = true;
  ASSERT_TRUE(world.srm().Launch(emu, params).ok());
  ck::CkApi api(world.ck(), emu.self(), world.machine().cpu(0));
  emu.Start(api);
  int pid = emu.Exec(api, MustAssemble(R"(
      li   a0, 500000
      trap 20         ; sleep
      addi a0, r0, 0
      trap 17
  )"));
  world.RunUntil([] { return false; }, 20000);
  const uint32_t s = emu.process(pid).space_index;
  constexpr VirtAddr kHeap = 0x20000000;
  constexpr uint32_t kPages = 16;
  emu.DefineZeroRegion(s, kHeap, kPages, /*writable=*/true);
  emu.SwapOutProcess(api, pid);  // start from an empty resident list
  ASSERT_TRUE(emu.space(s).resident.empty());
  emu.WakeProcess(api, pid);
  TrimPool(emu, 6);
  ReferenceOrder ref;
  emu.reference = [&](VSpace& sp) { return ReferenceFifo(sp, ref.fifo[sp.cookie]); };

  ckbase::Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    for (int step = 0; step < 300; ++step) {
      VirtAddr vaddr = kHeap + static_cast<VirtAddr>(rng.Below(kPages)) * kPageSize;
      auto before = ref.Snapshot(emu);
      RandomPagerOp(
          rng, emu, api, s, vaddr, [](VirtAddr) {},
          [&](VirtAddr v) { emu.DefineZeroRegion(s, v, 1, /*writable=*/true); });
      ref.Update(emu, before);
      ASSERT_FALSE(HasFailure()) << "diverged at round " << round << " step " << step;
    }
    auto before = ref.Snapshot(emu);
    uint64_t evictions = emu.paging_stats().evictions;
    size_t listed = emu.space(s).resident.Size();
    emu.SwapOutProcess(api, pid);
    ref.Update(emu, before);
    EXPECT_TRUE(emu.space(s).resident.empty());
    EXPECT_TRUE(ref.fifo[s].empty());
    EXPECT_EQ(emu.paging_stats().evictions - evictions, listed);
    emu.WakeProcess(api, pid);
  }
  EXPECT_GT(emu.choices, 100u);
  EXPECT_TRUE(world.ck().ValidateInvariants().empty());
}

}  // namespace

// The tier scans (docs/TIERING.md) on a small one-CPU tiered machine.
//
// The hot-page promotion sweep, driven one maintenance pass at a time.
// A visit is observed through the soft referenced bit it consumes: every
// slow frame set up here is touched, so the frames a sweep visits are exactly
// the frames it promotes (the DRAM budget leaves room for all of them unless
// a case says otherwise). Pinned here:
//   * fewer slow frames than the budget: every one is visited and the hand
//     returns to where the sweep began;
//   * more: the sweep stops at the budget'th and the hand lands one past it;
//   * the wrap from the last frame to frame 0, and the index's word edges;
//   * a promotion whose reclaim demotes a frame ahead of the hand: the same
//     sweep visits that frame.
//
// The demotion scan, driven by mapping loads that admit frames over the DRAM
// budget: every frame it demotes, and the steps it takes, must equal a
// test-local reference clock's.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/ck/cache_kernel.h"
#include "src/sim/machine.h"

namespace {

using ck::CacheKernel;
using ck::CacheKernelConfig;
using cksim::MemTier;

class NullKernel : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, ck::CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, ck::CkApi&) override {
    ck::TrapAction action;
    action.action = ck::HandlerAction::kTerminate;
    return action;
  }
  void OnThreadWriteback(const ck::ThreadWriteback&, ck::CkApi&) override {}
  void OnMappingWriteback(const ck::MappingWriteback&, ck::CkApi&) override {}
  void OnSpaceWriteback(const ck::SpaceWriteback&, ck::CkApi&) override {}
};

class TierSweepTest : public ::testing::Test {
 protected:
  static constexpr cksim::Cycles kPeriod = 10000;

  void Init(uint32_t scan_frames, uint32_t dram_frames = 1000) {
    cksim::MachineConfig mc;
    mc.cpu_count = 1;
    mc.memory_bytes = 1u << 20;  // 256 frames: four words of the slow index
    machine_ = std::make_unique<cksim::Machine>(mc);
    CacheKernelConfig config;
    config.tier_dram_frames = dram_frames;
    config.tier_scan_frames = scan_frames;
    config.tier_promote_period = kPeriod;
    ck_ = std::make_unique<CacheKernel>(*machine_, config);
    ck_->BootFirstKernel(&kernel_, 0);
    ASSERT_EQ(Sweep(), 0u) << "a fresh machine has no slow frames";
  }

  uint32_t pages() const { return machine_->memory().page_count(); }
  MemTier TierOf(uint32_t frame) const { return machine_->memory().tier_of(frame); }

  // Put `frame` in the slow tier with its soft referenced bit set.
  void SlowTouched(uint32_t frame) {
    ck_->RestoreFrameTier(cksim::FrameBase(frame), static_cast<uint8_t>(MemTier::kSlow));
    ck_->TierTouch(cksim::FrameBase(frame));
  }

  // Run one maintenance pass (the head of the next dispatch turn) and return
  // the frames it promoted, in frame order.
  std::vector<uint32_t> SweepPromoted() {
    std::vector<uint32_t> slow_before;
    for (uint32_t f = 0; f < pages(); ++f) {
      if (TierOf(f) == MemTier::kSlow) {
        slow_before.push_back(f);
      }
    }
    machine_->cpu(0).Advance(kPeriod);
    machine_->Step();
    std::vector<uint32_t> promoted;
    for (uint32_t f : slow_before) {
      if (TierOf(f) == MemTier::kDram) {
        promoted.push_back(f);
      }
    }
    std::vector<std::string> violations = ck_->ValidateInvariants();
    EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: "
                                    << (violations.empty() ? "" : violations[0]);
    return promoted;
  }

  // One pass; returns how far tier_scan_steps grew (it counts promotion
  // visits and demotion-scan steps alike).
  uint64_t Sweep() {
    uint64_t before = ck_->stats().tier_scan_steps;
    SweepPromoted();
    return ck_->stats().tier_scan_steps - before;
  }

  static std::vector<uint32_t> Range(uint32_t first, uint32_t end) {
    std::vector<uint32_t> out;
    for (uint32_t f = first; f < end; ++f) {
      out.push_back(f);
    }
    return out;
  }

  std::unique_ptr<cksim::Machine> machine_;
  std::unique_ptr<CacheKernel> ck_;
  NullKernel kernel_;
};

TEST_F(TierSweepTest, BudgetStopsTheSweepOnePastItsLastVisit) {
  Init(/*scan_frames=*/64);
  for (uint32_t f = 10; f < 80; ++f) {
    SlowTouched(f);
  }
  uint64_t steps = ck_->stats().tier_scan_steps;
  EXPECT_EQ(SweepPromoted(), Range(10, 74)) << "the first 64 slow frames from the hand";
  EXPECT_EQ(ck_->stats().tier_scan_steps - steps, 64u);
  EXPECT_EQ(ck_->tier_promote_hand(), 74u) << "one past the 64th visit";
  EXPECT_EQ(TierOf(74), MemTier::kSlow);
}

TEST_F(TierSweepTest, FullRevolutionVisitsEverySlowFrameAndReturnsTheHand) {
  Init(/*scan_frames=*/64);
  for (uint32_t f = 10; f < 80; ++f) {
    SlowTouched(f);
  }
  SweepPromoted();
  ASSERT_EQ(ck_->tier_promote_hand(), 74u);
  // Six frames left ahead of the hand plus two more, one behind it: eight
  // visits, under budget, so the sweep covers the whole revolution.
  SlowTouched(200);
  SlowTouched(3);
  uint64_t steps = ck_->stats().tier_scan_steps;
  std::vector<uint32_t> expect = {3, 74, 75, 76, 77, 78, 79, 200};
  EXPECT_EQ(SweepPromoted(), expect);
  EXPECT_EQ(ck_->stats().tier_scan_steps - steps, 8u);
  EXPECT_EQ(ck_->tier_promote_hand(), 74u) << "a full revolution ends where it began";
  EXPECT_EQ(ck_->stats().tier_promotions, 72u);
  // An empty index: nothing visited, the hand stays.
  EXPECT_EQ(Sweep(), 0u);
  EXPECT_EQ(ck_->tier_promote_hand(), 74u);
}

TEST_F(TierSweepTest, WrapsFromTheLastFrameToFrameZero) {
  Init(/*scan_frames=*/1);
  SlowTouched(100);
  EXPECT_EQ(SweepPromoted(), std::vector<uint32_t>{100});
  ASSERT_EQ(ck_->tier_promote_hand(), 101u);
  const uint32_t last = pages() - 1;
  SlowTouched(0);
  SlowTouched(last);
  EXPECT_EQ(SweepPromoted(), std::vector<uint32_t>{last}) << "frame 0 is behind the wrap";
  EXPECT_EQ(ck_->tier_promote_hand(), 0u) << "one past the last frame is frame 0";
  EXPECT_EQ(TierOf(0), MemTier::kSlow);
  EXPECT_EQ(SweepPromoted(), std::vector<uint32_t>{0});
  EXPECT_EQ(ck_->tier_promote_hand(), 1u);
  // A slow frame just behind the hand is the revolution's last position.
  SlowTouched(0);
  EXPECT_EQ(SweepPromoted(), std::vector<uint32_t>{0});
  EXPECT_EQ(ck_->tier_promote_hand(), 1u);
}

TEST_F(TierSweepTest, VisitsSlowFramesAcrossIndexWordEdges) {
  Init(/*scan_frames=*/3);
  for (uint32_t f : {63u, 64u, 127u, 128u, 191u, 192u, 255u}) {
    SlowTouched(f);
  }
  EXPECT_EQ(SweepPromoted(), (std::vector<uint32_t>{63, 64, 127}));
  EXPECT_EQ(ck_->tier_promote_hand(), 128u);
  EXPECT_EQ(SweepPromoted(), (std::vector<uint32_t>{128, 191, 192}));
  EXPECT_EQ(ck_->tier_promote_hand(), 193u);
  EXPECT_EQ(SweepPromoted(), std::vector<uint32_t>{255});
  EXPECT_EQ(ck_->tier_promote_hand(), 193u) << "one visit under budget: full revolution";
}

TEST_F(TierSweepTest, VisitsAFrameDemotedAheadOfTheHandInTheSameSweep) {
  // One DRAM frame of budget: promoting frame 100 must first demote the only
  // DRAM resident, frame 200, which lies ahead of the hand. The sweep then
  // reaches 200 as a slow frame and visits it (its referenced bit did not
  // survive the demotion, so it stays slow).
  Init(/*scan_frames=*/2, /*dram_frames=*/1);
  ck_->RestoreFrameTier(cksim::FrameBase(200), static_cast<uint8_t>(MemTier::kDram));
  SlowTouched(100);
  uint64_t demotions = ck_->stats().tier_demotions;
  // Visits: 100, then the reclaim scan's one DRAM step, then 200.
  EXPECT_EQ(Sweep(), 3u);
  EXPECT_EQ(TierOf(100), MemTier::kDram);
  EXPECT_EQ(TierOf(200), MemTier::kSlow);
  EXPECT_EQ(ck_->stats().tier_demotions - demotions, 1u);
  EXPECT_EQ(ck_->tier_promote_hand(), 201u) << "the budget of two ran out at frame 200";
}

// The demotion scan as a reference: a hand over frame indices that visits
// DRAM frames only, skips pinned frames, gives each referenced frame one
// second chance (the visit consumes the bit) and, when a budget of one visit
// per frame finds no unreferenced frame, falls back to the first unpinned
// frame it visited. A tier transition clears a frame's referenced bit.
struct ReferenceClock {
  static constexpr uint32_t kNone = 0xffffffffu;

  explicit ReferenceClock(uint32_t pages) : dram(pages), referenced(pages), pinned(pages) {}

  uint32_t DramCount() const {
    return static_cast<uint32_t>(std::count(dram.begin(), dram.end(), true));
  }
  void Admit(uint32_t frame) {
    dram[frame] = true;
    referenced[frame] = false;
  }
  // The frame the scan demotes, or kNone; `steps` counts the DRAM visits.
  uint32_t Demote(uint64_t& steps) {
    const uint32_t pages = static_cast<uint32_t>(dram.size());
    uint32_t forced = kNone;
    uint32_t victim = kNone;
    for (uint32_t step = 0; step < pages && victim == kNone; ++step) {
      uint32_t frame = kNone;
      for (uint32_t i = 0; i < pages && frame == kNone; ++i) {
        frame = dram[hand] ? hand : kNone;
        hand = (hand + 1) % pages;
      }
      if (frame == kNone) {
        break;
      }
      ++steps;
      if (pinned[frame]) {
        continue;
      }
      forced = forced == kNone ? frame : forced;
      if (referenced[frame]) {
        referenced[frame] = false;
        continue;
      }
      victim = frame;
    }
    victim = victim == kNone ? forced : victim;
    if (victim != kNone) {
      dram[victim] = false;
      referenced[victim] = false;
    }
    return victim;
  }

  uint32_t hand = 0;
  std::vector<bool> dram, referenced, pinned;
};

class TierDemotionTest : public TierSweepTest {
 protected:
  static constexpr uint32_t kPages = 256;

  void Init(uint32_t dram_frames) {
    cksim::MachineConfig mc;
    mc.cpu_count = 1;
    mc.memory_bytes = kPages * cksim::kPageSize;
    machine_ = std::make_unique<cksim::Machine>(mc);
    CacheKernelConfig config;
    config.tier_dram_frames = dram_frames;
    config.tier_promote_period = 0;  // no maintenance pass: loads alone demote
    config.page_table_arena_bytes = 64u << 10;
    ck_ = std::make_unique<CacheKernel>(*machine_, config);
    ck_->BootFirstKernel(&kernel_, 0);
    space_ = Api().LoadSpace(1, /*locked=*/true).value();
    ref_ = std::make_unique<ReferenceClock>(pages());
  }

  ck::CkApi Api() { return ck::CkApi(*ck_, ck_->first_kernel(), machine_->cpu(0)); }

  void Touch(uint32_t frame) {
    ck_->TierTouch(cksim::FrameBase(frame));
    ref_->referenced[frame] = true;
  }

  // Map `frame`, admitting it to DRAM, and check what the demotion scan did
  // against the reference: the frame it demoted, its steps, and every
  // frame's residency afterwards.
  void MapAndCheck(uint32_t frame, bool locked = false) {
    uint64_t steps = 0;
    std::vector<uint32_t> demoted;
    while (ref_->DramCount() >= ck_->config().tier_dram_frames) {
      uint32_t victim = ref_->Demote(steps);
      if (victim == ReferenceClock::kNone) {
        break;
      }
      demoted.push_back(victim);
    }
    ref_->Admit(frame);
    ref_->pinned[frame] = locked;
    const ck::CkStats before = ck_->stats();
    ck::MappingSpec spec;
    spec.space = space_;
    spec.vaddr = cksim::FrameBase(frame);
    spec.paddr = cksim::FrameBase(frame);
    spec.flags.writable = true;
    spec.locked = locked;
    ASSERT_EQ(Api().LoadMapping(spec), ckbase::CkStatus::kOk);
    EXPECT_EQ(ck_->stats().tier_scan_steps - before.tier_scan_steps, steps) << "frame " << frame;
    EXPECT_EQ(ck_->stats().tier_demotions - before.tier_demotions, demoted.size());
    for (uint32_t victim : demoted) {
      EXPECT_EQ(TierOf(victim), MemTier::kSlow) << "mapping frame " << frame;
    }
    for (uint32_t f = 0; f < pages(); ++f) {
      ASSERT_EQ(TierOf(f) == MemTier::kDram, ref_->dram[f]) << "frame " << f;
    }
  }

  ck::SpaceId space_;
  std::unique_ptr<ReferenceClock> ref_;
};

TEST_F(TierDemotionTest, DemotesTheFramesAReferenceClockPicks) {
  // 48 mapped frames through 8 frames of DRAM, about half of the DRAM frames
  // touched before each load; the third mapping is locked (its space and the
  // first kernel are too), so its frame is never demoted.
  Init(/*dram_frames=*/8);
  ckbase::Rng rng(7);
  constexpr uint32_t kFirstFrame = 16;
  for (uint32_t i = 0; i < 48; ++i) {
    for (uint32_t f = 0; f < pages(); ++f) {
      if (ref_->dram[f] && rng.Chance(1, 2)) {
        Touch(f);
      }
    }
    MapAndCheck(kFirstFrame + i, /*locked=*/i == 2);
  }
  EXPECT_EQ(TierOf(kFirstFrame + 2), MemTier::kDram);
  EXPECT_EQ(ck_->stats().tier_demotions, 40u);
  std::vector<std::string> violations = ck_->ValidateInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_F(TierDemotionTest, AllReferencedFallsBackToTheFirstUnpinnedFrame) {
  // Every frame but one is DRAM and referenced, and the hand's first frame is
  // pinned: the budget of one visit per frame runs out on the pinned frame's
  // second visit, before the hand comes back to an unreferenced frame.
  Init(/*dram_frames=*/kPages);
  MapAndCheck(0, /*locked=*/true);
  constexpr uint32_t kTarget = 100;
  for (uint32_t f = 1; f < kPages; ++f) {
    if (f != kTarget) {
      ck_->RestoreFrameTier(cksim::FrameBase(f), static_cast<uint8_t>(MemTier::kDram));
      ref_->Admit(f);
    }
  }
  for (uint32_t f = 0; f < kPages; ++f) {
    Touch(f);
  }
  ck_->set_tiers(kPages - 1, /*demote=*/true);
  uint64_t steps = ck_->stats().tier_scan_steps;
  MapAndCheck(kTarget);
  EXPECT_EQ(ck_->stats().tier_scan_steps - steps, kPages);
  EXPECT_EQ(TierOf(1), MemTier::kSlow) << "frame 1 was the first unpinned visit";
}

}  // namespace

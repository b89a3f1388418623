#include "src/mp3d/mp3d_kernel.h"

#include <algorithm>
#include <array>

namespace ckmp3d {

using ck::CkApi;
using ckbase::CkStatus;
using cksim::VirtAddr;

namespace {
// Fixed-point space: each cell is 4096 position units wide.
constexpr uint32_t kCellWidth = 4096;
constexpr int32_t kMaxSpeed = 700;
constexpr uint32_t kFreeSlot = ~0u;
}  // namespace

// Worker: sweeps its share of the cell grid, one cell per Step (a bounded
// chunk, so scheduling and preemption stay live during the simulation).
class Mp3dKernel::WorkerProgram : public ck::NativeProgram {
 public:
  WorkerProgram(Mp3dKernel& kernel, uint32_t first_cell, uint32_t last_cell)
      : kernel_(kernel), first_(first_cell), last_(last_cell), cursor_(last_cell) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ck::NativeOutcome outcome;
    Mp3dKernel& k = kernel_;
    if (k.steps_completed_ >= k.step_target_) {
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    if (my_step_ != k.steps_completed_) {
      // Barrier: finished this step already; wait for the others.
      ctx.Charge(4);
      outcome.action = ck::NativeOutcome::Action::kYield;
      return outcome;
    }
    if (cursor_ >= last_) {
      cursor_ = first_;  // starting a new step
    }
    k.stats_.particle_updates += k.SweepCells(ctx, cursor_, cursor_ + 1);
    ++cursor_;
    if (cursor_ == last_) {
      ++my_step_;
      if (++k.workers_done_this_step_ == k.workers_.size()) {
        k.workers_done_this_step_ = 0;
        k.steps_completed_++;
      }
    }
    outcome.action = ck::NativeOutcome::Action::kYield;
    return outcome;
  }

 private:
  Mp3dKernel& kernel_;
  uint32_t first_;
  uint32_t last_;
  uint32_t cursor_;
  uint32_t my_step_ = 0;
};

Mp3dKernel::Mp3dKernel(ck::CacheKernel& ck, const Mp3dConfig& config)
    : ckapp::AppKernelBase("mp3d", /*backing_pages=*/64),
      ck_(ck),
      config_(config),
      rng_(config.seed) {}

Mp3dKernel::~Mp3dKernel() = default;

void Mp3dKernel::Setup(CkApi& api) {
  space_index_ = CreateSpace(api, /*locked=*/true);
  uint32_t region_pages =
      (slot_capacity() * kParticleBytes + cksim::kPageSize - 1) / cksim::kPageSize;
  DefineZeroRegion(space_index_, kMp3dRegionBase, region_pages, /*writable=*/true);

  slot_cell_.assign(slot_capacity(), kFreeSlot);
  slot_stamp_.assign(slot_capacity(), ~0u);
  cell_slots_.assign(config_.cells, {});
  cell_free_.assign(config_.cells, {});

  // Initialize particles: random position (hence random cell) and velocity.
  // Scattered: slot = particle index, so cell membership is dispersed over
  // the whole region. Locality-aware: slots grouped per cell with slack.
  std::vector<uint32_t> next_in_cell(config_.cells, 0);
  for (uint32_t p = 0; p < config_.particles; ++p) {
    uint32_t x = static_cast<uint32_t>(rng_.Below(config_.cells * kCellWidth));
    int32_t v = static_cast<int32_t>(rng_.Range(0, 2 * kMaxSpeed)) - kMaxSpeed;
    uint32_t cell = x / kCellWidth;

    uint32_t slot;
    if (config_.placement == Placement::kLocalityAware) {
      slot = cell * cell_region_slots() + next_in_cell[cell]++;
    } else {
      slot = p;
    }
    uint32_t record[kParticleWords] = {x, static_cast<uint32_t>(v), cell, 0, 0, 0, 0, 0};
    WriteGuest(api, space_index_, ParticleAddr(slot), record, sizeof(record));
    slot_cell_[slot] = cell;
    cell_slots_[cell].push_back(slot);
  }
  if (config_.placement == Placement::kLocalityAware) {
    for (uint32_t cell = 0; cell < config_.cells; ++cell) {
      for (uint32_t i = next_in_cell[cell]; i < cell_region_slots(); ++i) {
        cell_free_[cell].push_back(cell * cell_region_slots() + i);
      }
    }
  }

  // One worker per requested processor, splitting the grid evenly.
  uint32_t per_worker = config_.cells / config_.workers;
  for (uint32_t w = 0; w < config_.workers; ++w) {
    uint32_t first = w * per_worker;
    uint32_t last = (w + 1 == config_.workers) ? config_.cells : first + per_worker;
    auto program = std::make_unique<WorkerProgram>(*this, first, last);
    uint32_t index = CreateNativeThread(api, space_index_, program.get(), /*priority=*/10,
                                        /*locked=*/false,
                                        static_cast<uint8_t>(w % ck_.machine().cpu_count()));
    workers_.push_back(std::move(program));
    worker_threads_.push_back(index);
  }
}

uint32_t Mp3dKernel::CopyToCellRegion(ck::NativeCtx& ctx, uint32_t slot, uint32_t new_cell) {
  if (cell_free_[new_cell].empty()) {
    // Region overflow: a full rebalance re-sorts everything. Rare with
    // reasonable slack; counted so benches can see it.
    stats_.rebalances++;
    Rebalance(ctx.api());
    if (cell_free_[new_cell].empty()) {
      return slot;  // cell genuinely over capacity; leave the record in place
    }
  }
  uint32_t dest = cell_free_[new_cell].back();
  cell_free_[new_cell].pop_back();

  // Copy the record through translated accesses -- this is the "copying
  // particles as they moved" cost the paper paid for locality.
  VirtAddr from = ParticleAddr(slot);
  VirtAddr to = ParticleAddr(dest);
  for (uint32_t w = 0; w < kParticleWords; ++w) {
    ckbase::Result<uint32_t> value = ctx.LoadWord(from + w * 4);
    if (value.ok()) {
      ctx.StoreWord(to + w * 4, value.value());
    }
  }
  stats_.locality_copies++;

  // Free the old slot back to ITS cell's region.
  uint32_t old_region_cell = slot / cell_region_slots();
  cell_free_[old_region_cell].push_back(slot);
  slot_cell_[slot] = kFreeSlot;
  slot_cell_[dest] = new_cell;
  slot_stamp_[dest] = slot_stamp_[slot];
  return dest;
}

uint64_t Mp3dKernel::SweepCells(ck::NativeCtx& ctx, uint32_t first_cell, uint32_t last_cell) {
  uint64_t updates = 0;
  for (uint32_t cell = first_cell; cell < last_cell; ++cell) {
    // Cell list is copied because particle motion edits it in place.
    std::vector<uint32_t> slots = cell_slots_[cell];
    for (uint32_t slot : slots) {
      // A particle that migrated into a later cell this step is not
      // re-updated (one move per particle per step).
      if (slot_cell_[slot] == kFreeSlot || slot_stamp_[slot] == steps_completed_) {
        continue;
      }
      slot_stamp_[slot] = steps_completed_;
      VirtAddr addr = ParticleAddr(slot);
      ckbase::Result<uint32_t> x = ctx.LoadWord(addr);
      ckbase::Result<uint32_t> v = ctx.LoadWord(addr + 4);
      if (!x.ok() || !v.ok()) {
        continue;
      }
      // Move, bounce at the tunnel ends, count a "collision" per update.
      int64_t nx = static_cast<int64_t>(x.value()) + static_cast<int32_t>(v.value());
      uint32_t limit = config_.cells * kCellWidth;
      uint32_t vel = v.value();
      if (nx < 0 || nx >= limit) {
        vel = static_cast<uint32_t>(-static_cast<int32_t>(v.value()));
        nx = nx < 0 ? -nx : 2 * static_cast<int64_t>(limit) - nx - 1;
      }
      uint32_t new_x = static_cast<uint32_t>(nx);
      uint32_t new_cell = new_x / kCellWidth;
      ctx.StoreWord(addr, new_x);
      ctx.StoreWord(addr + 4, vel);
      ctx.StoreWord(addr + 8, new_cell);
      ctx.Charge(12);  // collision physics arithmetic
      ++updates;

      if (new_cell != cell) {
        ++stats_.moves;
        uint32_t final_slot = slot;
        if (config_.placement == Placement::kLocalityAware) {
          final_slot = CopyToCellRegion(ctx, slot, new_cell);
          if (final_slot != slot) {
            slot_stamp_[final_slot] = steps_completed_;
          }
        } else {
          slot_cell_[slot] = new_cell;
        }
        auto& from = cell_slots_[cell];
        from.erase(std::find(from.begin(), from.end(), slot));
        cell_slots_[new_cell].push_back(final_slot);
      }
    }
  }
  return updates;
}

void Mp3dKernel::Rebalance(CkApi& api) {
  // Read every live record, re-sort into fresh per-cell regions, write back.
  std::vector<std::pair<uint32_t, std::array<uint32_t, kParticleWords>>> live;
  live.reserve(config_.particles);
  for (uint32_t slot = 0; slot < slot_capacity(); ++slot) {
    if (slot_cell_[slot] == kFreeSlot) {
      continue;
    }
    std::array<uint32_t, kParticleWords> record;
    ReadGuest(api, space_index_, ParticleAddr(slot), record.data(), kParticleBytes);
    live.emplace_back(slot_cell_[slot], record);
  }
  std::stable_sort(live.begin(), live.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  slot_cell_.assign(slot_capacity(), kFreeSlot);
  cell_slots_.assign(config_.cells, {});
  cell_free_.assign(config_.cells, {});
  std::vector<uint32_t> next_in_cell(config_.cells, 0);
  for (auto& [cell, record] : live) {
    uint32_t within = next_in_cell[cell]++;
    uint32_t slot = cell * cell_region_slots() + std::min(within, cell_region_slots() - 1);
    WriteGuest(api, space_index_, ParticleAddr(slot), record.data(), kParticleBytes);
    slot_cell_[slot] = cell;
    cell_slots_[cell].push_back(slot);
  }
  for (uint32_t cell = 0; cell < config_.cells; ++cell) {
    for (uint32_t i = next_in_cell[cell]; i < cell_region_slots(); ++i) {
      cell_free_[cell].push_back(cell * cell_region_slots() + i);
    }
  }
}

cksim::Cycles Mp3dKernel::RunSteps(uint32_t steps) {
  step_target_ = steps_completed_ + steps;
  CkApi api(ck_, self(), ck_.machine().cpu(0));
  for (uint32_t index : worker_threads_) {
    ckapp::ThreadRec& rec = thread(index);
    EnsureThreadLoaded(api, index);
    api.ResumeThread(rec.ck_id);  // kBusy if already runnable; harmless
  }
  cksim::Cycles start = ck_.machine().Now();
  // Generous safety bound: each step is finite work.
  uint64_t turn_limit = static_cast<uint64_t>(steps + 1) *
                        (static_cast<uint64_t>(config_.particles) * 64 + 100000);
  uint64_t turns = 0;
  while (steps_completed_ < step_target_ && turns < turn_limit) {
    ck_.machine().Step();
    ++turns;
  }
  return ck_.machine().Now() - start;
}

}  // namespace ckmp3d

// Mini-MP3D: a particle-in-cell wind-tunnel simulation as an application
// kernel (sections 3 and 5.2).
//
// The paper used MP3D to show why sophisticated applications want their own
// kernel: application-specific physical memory management and page locality.
// "We measured up to a 25 percent degradation in performance in the MP3D
// program ... from processors accessing particles scattered across too many
// pages. The solution ... was to enforce page locality as well as cache line
// locality by copying particles in some cases as they moved between
// processors during the computation."
//
// This reproduction keeps the particle-in-cell skeleton: particles move
// through a 1-D cell ring; each step, worker threads sweep the grid
// cell-by-cell and update every particle in the cell through *translated*
// memory accesses (NativeCtx::LoadWord/StoreWord), so TLB and Cache Kernel
// mapping behavior is real. Two placement policies:
//   * kScattered -- particles stay at their allocation slots forever; cell
//     membership disperses across the whole particle region, so a cell sweep
//     touches many pages (the paper's slow case);
//   * kLocalityAware -- storage is partitioned into per-cell regions (with
//     slack); when a particle migrates, the kernel copies its record into
//     the destination cell's region, exactly the paper's fix. A full
//     rebalance runs only if a region overflows.

#ifndef SRC_MP3D_MP3D_KERNEL_H_
#define SRC_MP3D_MP3D_KERNEL_H_

#include <memory>
#include <vector>

#include "src/appkernel/app_kernel_base.h"
#include "src/base/rng.h"

namespace ckmp3d {

enum class Placement : uint8_t { kScattered, kLocalityAware };

struct Mp3dConfig {
  uint32_t particles = 4096;
  uint32_t cells = 64;   // 1-D ring of cells (flow direction)
  uint32_t workers = 2;  // worker threads (one per processor ideally)
  Placement placement = Placement::kScattered;
  uint32_t slack_factor = 2;  // per-cell region capacity multiplier
  uint32_t seed = 42;
};

// Particle record layout in guest memory: 8 words (32 bytes).
//   [0] x position (fixed point)   [1] velocity
//   [2] cell index                 [3] collision counter
//   [4..7] padding / scratch
inline constexpr uint32_t kParticleWords = 8;
inline constexpr uint32_t kParticleBytes = kParticleWords * 4;
inline constexpr cksim::VirtAddr kMp3dRegionBase = 0x40000000;  // where records start

struct Mp3dStats {
  uint64_t particle_updates = 0;
  uint64_t moves = 0;           // cell migrations
  uint64_t locality_copies = 0; // records copied to preserve locality
  uint64_t rebalances = 0;      // full re-sorts after region overflow
};

class Mp3dKernel : public ckapp::AppKernelBase {
 public:
  Mp3dKernel(ck::CacheKernel& ck, const Mp3dConfig& config);
  ~Mp3dKernel() override;

  // Create the simulation space, initialize particles, start workers.
  void Setup(ck::CkApi& api);

  // Run `steps` simulation steps to completion; returns simulated cycles
  // consumed (wall time of the machine).
  cksim::Cycles RunSteps(uint32_t steps);

  uint32_t steps_completed() const { return steps_completed_; }
  uint64_t particle_updates() const { return stats_.particle_updates; }
  uint64_t moves() const { return stats_.moves; }
  const Mp3dStats& sim_stats() const { return stats_; }

 private:
  class WorkerProgram;
  friend class WorkerProgram;

  uint32_t slot_capacity() const {
    return config_.placement == Placement::kLocalityAware
               ? config_.particles * config_.slack_factor
               : config_.particles;
  }
  uint32_t cell_region_slots() const { return slot_capacity() / config_.cells; }

  cksim::VirtAddr ParticleAddr(uint32_t slot) const {
    return kMp3dRegionBase + slot * kParticleBytes;
  }

  // One worker processes cells [first, last) for the current step.
  uint64_t SweepCells(ck::NativeCtx& ctx, uint32_t first_cell, uint32_t last_cell);

  // Locality maintenance: copy a migrating particle's record into the
  // destination cell's storage region (charged through translated accesses).
  // Returns the new slot, or the old one if the destination is full.
  uint32_t CopyToCellRegion(ck::NativeCtx& ctx, uint32_t slot, uint32_t new_cell);

  // Full re-sort into cell order (runs at setup and on region overflow).
  void Rebalance(ck::CkApi& api);

  ck::CacheKernel& ck_;
  Mp3dConfig config_;
  ckbase::Rng rng_;
  uint32_t space_index_ = 0;

  // App-kernel metadata (not guest data).
  std::vector<std::vector<uint32_t>> cell_slots_;   // [cell] -> occupied slots
  std::vector<uint32_t> slot_cell_;                 // [slot] -> cell (~0u = free)
  std::vector<std::vector<uint32_t>> cell_free_;    // [cell] -> free slots (locality)
  std::vector<uint32_t> slot_stamp_;                // last step a slot was updated

  std::vector<std::unique_ptr<WorkerProgram>> workers_;
  std::vector<uint32_t> worker_threads_;

  uint32_t steps_completed_ = 0;
  uint32_t step_target_ = 0;
  uint32_t workers_done_this_step_ = 0;
  Mp3dStats stats_;
};

}  // namespace ckmp3d

#endif  // SRC_MP3D_MP3D_KERNEL_H_

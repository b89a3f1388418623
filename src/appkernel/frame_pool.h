// Application-kernel physical frame pool.
//
// The SRM grants each application kernel page groups of physical memory
// (section 4.3); the kernel then suballocates frames internally. Because the
// application kernel selects the physical page frame for every mapping it
// loads, "it fully controls physical page selection, the page replacement
// policy and paging I/O" (section 1) -- this pool is where that control
// lives.

#ifndef SRC_APPKERNEL_FRAME_POOL_H_
#define SRC_APPKERNEL_FRAME_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace ckapp {

class FramePool {
 public:
  // Observer for allocation/release, bound by the SRM at Launch so the Cache
  // Kernel's tiered-memory layer (docs/TIERING.md) can track pool-held frames
  // -- file-cache pages and paging backing frames then participate in
  // demotion instead of pinning DRAM. Unbound (the default) costs one
  // null test per event.
  using TierHook = std::function<void(cksim::PhysAddr frame, bool allocated)>;
  void BindTierHook(TierHook hook) { tier_hook_ = std::move(hook); }
  // Add every frame of a granted page group.
  void AddPageGroup(uint32_t group_index) {
    cksim::PhysAddr base = group_index * cksim::kPageGroupBytes;
    for (uint32_t i = 0; i < cksim::kPagesPerGroup; ++i) {
      free_.push_back(base + i * cksim::kPageSize);
      ++total_;
    }
  }

  // 0 when empty (the caller evicts a resident page and retries).
  cksim::PhysAddr Allocate() {
    if (free_.empty()) {
      return 0;
    }
    cksim::PhysAddr frame = free_.front();
    free_.pop_front();
    if (tier_hook_) {
      tier_hook_(frame, /*allocated=*/true);
    }
    return frame;
  }

  void Release(cksim::PhysAddr frame) {
    free_.push_back(frame);
    if (tier_hook_) {
      tier_hook_(frame, /*allocated=*/false);
    }
  }

  uint32_t free_count() const { return static_cast<uint32_t>(free_.size()); }
  uint32_t total_count() const { return total_; }

 private:
  std::deque<cksim::PhysAddr> free_;
  uint32_t total_ = 0;
  TierHook tier_hook_;
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_FRAME_POOL_H_

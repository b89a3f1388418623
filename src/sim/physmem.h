// Simulated physical memory.
//
// One contiguous physical address range per machine (the MPM's view of
// memory: local RAM plus the bus-attached memory modules). The Cache Kernel
// allocates its page tables here, application kernels map page frames from
// here, and memory-based messaging moves bytes through here. Byte-addressable
// with typed word helpers; all addresses are machine-checked.
//
// A new memory reads as all zeros, but set-up pays only for what runs touch.
// Fresh RAM comes from calloc, so frames no run writes never become resident.
// A destroyed memory's RAM waits on the process-wide spare list
// (src/base/spare_list.h: keyed by size, ASan-poisoned while it waits); the
// next memory of that size takes it and zeroes only the frames whose store
// generation is nonzero -- every store path bumps it, so those are exactly
// the frames the previous owner wrote.

#ifndef SRC_SIM_PHYSMEM_H_
#define SRC_SIM_PHYSMEM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/sim/types.h"

namespace cksim {

// Physical-memory tier of a page frame (docs/TIERING.md). The frame's
// physical address never changes with its tier -- a tier is a residency
// attribute (which medium backs the frame), not a location. kNone means the
// frame is not tracked by the tiering machinery (tiering disabled, or the
// frame was released back untracked); untracked frames behave like DRAM.
// StableStore remains the conceptual coldest tier below kSlow.
enum class MemTier : uint8_t {
  kNone = 0,
  kDram = 1,
  kSlow = 2,  // CXL/NVM-like: cheap capacity, expensive fills
};
inline constexpr uint32_t kMemTierCount = 3;

class PhysicalMemory {
 public:
  // size must be page-group aligned so that the protection arithmetic of
  // section 4.3 is exact.
  explicit PhysicalMemory(uint32_t size_bytes);
  ~PhysicalMemory();  // hands the RAM to the spare list
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint32_t size() const { return size_; }
  uint32_t page_count() const { return size() / kPageSize; }
  uint32_t page_group_count() const { return size() / kPageGroupBytes; }

  bool Contains(PhysAddr addr, uint32_t len = 1) const {
    return addr < size() && size() - addr >= len;
  }

  // 32-bit word access. Addr must be word-aligned and in range; violations
  // indicate a kernel bug and abort the simulation (a real 68040 would raise
  // a bus error inside the supervisor, which the paper's kernel treats as
  // fatal to the MPM). Inline: every PTE read of the MMU walk and of the
  // reclaim scan comes through here.
  uint32_t ReadWord(PhysAddr addr) const {
    Check(addr, 4);
    uint32_t value;
    std::memcpy(&value, bytes_ + addr, 4);
    return value;
  }
  void WriteWord(PhysAddr addr, uint32_t value) {
    Check(addr, 4);
    std::memcpy(bytes_ + addr, &value, 4);
    BumpFrameGeneration(addr);
  }

  uint8_t ReadByte(PhysAddr addr) const;
  void WriteByte(PhysAddr addr, uint8_t value);

  // Bulk copies for devices, loaders and page zero/copy operations.
  void Read(PhysAddr addr, void* out, uint32_t len) const;
  void Write(PhysAddr addr, const void* data, uint32_t len);
  void Zero(PhysAddr addr, uint32_t len);

  // Raw view for the interpreter's fast path (bounds already translated).
  // Writers through this pointer must call BumpFrameGeneration themselves.
  const uint8_t* raw() const { return bytes_; }
  uint8_t* raw() { return bytes_; }

  // Per-frame store generation, bumped by every write path (word, byte,
  // bulk, zero). Trace validity keys on this, so self-modifying code, page
  // copies/zeroing and device writes all force a rebuild of the affected
  // frame's traces; reuse of the RAM keys on it too (frames still at 0 were
  // never written).
  uint64_t frame_generation(uint32_t frame) const { return frame_gen_[frame]; }
  void BumpFrameGeneration(PhysAddr addr) { ++frame_gen_[addr >> kPageShift]; }

  // Per-frame memory tier. Ground truth lives here (the hardware knows which
  // medium backs a frame); policy -- budgets, demotion, promotion -- lives in
  // the Cache Kernel. SetFrameTier is the only writer of the tier bytes, the
  // per-tier counts and the slow-frame index.
  MemTier tier_of(uint32_t frame) const { return static_cast<MemTier>(frame_tier_[frame]); }
  void SetFrameTier(uint32_t frame, MemTier tier) {
    --tier_count_[frame_tier_[frame]];
    frame_tier_[frame] = static_cast<uint8_t>(tier);
    ++tier_count_[frame_tier_[frame]];
    uint64_t bit = uint64_t{1} << (frame & 63u);
    slow_bits_[frame >> 6] = tier == MemTier::kSlow ? slow_bits_[frame >> 6] | bit
                                                    : slow_bits_[frame >> 6] & ~bit;
  }
  uint32_t tier_count(MemTier tier) const { return tier_count_[static_cast<uint8_t>(tier)]; }
  // The first slow-tier frame at or after `frame`, or page_count() when there
  // is none: the promotion sweep jumps between slow frames with this instead
  // of stepping over every frame.
  uint32_t NextSlowFrame(uint32_t frame) const;

 private:
  void Check(PhysAddr addr, uint32_t len) const {
    if (!Contains(addr, len)) {
      OutOfRange(addr, len);
    }
  }
  [[noreturn]] void OutOfRange(PhysAddr addr, uint32_t len) const;
  void BumpFrameGenerationRange(PhysAddr addr, uint32_t len) {
    if (len == 0) {
      return;
    }
    for (uint32_t f = addr >> kPageShift; f <= (addr + len - 1) >> kPageShift; ++f) {
      ++frame_gen_[f];
    }
  }

  uint8_t* bytes_ = nullptr;
  uint32_t size_ = 0;
  std::vector<uint64_t> frame_gen_;
  std::vector<uint8_t> frame_tier_;        // MemTier per frame
  std::vector<uint64_t> slow_bits_;        // bit f set iff frame f is kSlow
  uint32_t tier_count_[kMemTierCount] = {};  // frames per tier; kNone counted too
};

}  // namespace cksim

#endif  // SRC_SIM_PHYSMEM_H_

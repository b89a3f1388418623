#include "src/sim/physmem.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/base/spare_list.h"

namespace cksim {

PhysicalMemory::PhysicalMemory(uint32_t size_bytes) {
  // Round up to a whole number of page groups.
  size_ = ((size_bytes + kPageGroupBytes - 1) / kPageGroupBytes) * kPageGroupBytes;
  const uint32_t frames = size_ / kPageSize;
  // A destroyed memory's RAM waits with its store generations, which are
  // nonzero exactly on the frames it wrote.
  bytes_ = static_cast<uint8_t*>(ckbase::TakeZeroedPages(kPageSize, frames, frame_gen_));
  if (bytes_ == nullptr) {
    bytes_ = static_cast<uint8_t*>(std::calloc(size_, 1));
    if (bytes_ == nullptr) {
      std::fprintf(stderr, "physmem: cannot allocate %#x bytes\n", size_);
      std::abort();
    }
    frame_gen_.assign(frames, 0);
  }
  frame_tier_.assign(frames, static_cast<uint8_t>(MemTier::kNone));
  slow_bits_.assign((frames + 63) / 64, 0);
  tier_count_[static_cast<uint8_t>(MemTier::kNone)] = frames;
}

PhysicalMemory::~PhysicalMemory() { ckbase::ParkPages(bytes_, size_, std::move(frame_gen_)); }

uint32_t PhysicalMemory::NextSlowFrame(uint32_t frame) const {
  uint32_t word = frame >> 6;
  if (word >= slow_bits_.size()) {
    return page_count();
  }
  uint64_t bits = slow_bits_[word] & (~uint64_t{0} << (frame & 63u));
  while (bits == 0) {
    if (++word == slow_bits_.size()) {
      return page_count();
    }
    bits = slow_bits_[word];
  }
  return word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
}

void PhysicalMemory::OutOfRange(PhysAddr addr, uint32_t len) const {
  std::fprintf(stderr, "physmem: access [%#x, +%u) outside %#x bytes\n", addr, len, size());
  std::abort();
}

uint8_t PhysicalMemory::ReadByte(PhysAddr addr) const {
  Check(addr, 1);
  return bytes_[addr];
}

void PhysicalMemory::WriteByte(PhysAddr addr, uint8_t value) {
  Check(addr, 1);
  bytes_[addr] = value;
  BumpFrameGeneration(addr);
}

void PhysicalMemory::Read(PhysAddr addr, void* out, uint32_t len) const {
  Check(addr, len);
  std::memcpy(out, bytes_ + addr, len);
}

void PhysicalMemory::Write(PhysAddr addr, const void* data, uint32_t len) {
  Check(addr, len);
  std::memcpy(bytes_ + addr, data, len);
  BumpFrameGenerationRange(addr, len);
}

void PhysicalMemory::Zero(PhysAddr addr, uint32_t len) {
  Check(addr, len);
  std::memset(bytes_ + addr, 0, len);
  BumpFrameGenerationRange(addr, len);
}

}  // namespace cksim

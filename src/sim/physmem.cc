#include "src/sim/physmem.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace cksim {

PhysicalMemory::PhysicalMemory(uint32_t size_bytes) {
  // Round up to a whole number of page groups.
  uint32_t rounded = ((size_bytes + kPageGroupBytes - 1) / kPageGroupBytes) * kPageGroupBytes;
  bytes_.assign(rounded, 0);
  frame_gen_.assign(rounded / kPageSize, 0);
  frame_tier_.assign(rounded / kPageSize, static_cast<uint8_t>(MemTier::kNone));
  slow_bits_.assign((rounded / kPageSize + 63) / 64, 0);
  tier_count_[static_cast<uint8_t>(MemTier::kNone)] = rounded / kPageSize;
}

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

void PhysicalMemory::Check(PhysAddr addr, uint32_t len) const {
  if (!Contains(addr, len)) {
    std::fprintf(stderr, "physmem: access [%#x, +%u) outside %#x bytes\n", addr, len, size());
    std::abort();
  }
}

uint32_t PhysicalMemory::ReadWord(PhysAddr addr) const {
  Check(addr, 4);
  uint32_t value;
  std::memcpy(&value, bytes_.data() + addr, 4);
  return value;
}

void PhysicalMemory::WriteWord(PhysAddr addr, uint32_t value) {
  Check(addr, 4);
  std::memcpy(bytes_.data() + addr, &value, 4);
  BumpFrameGeneration(addr);
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
  std::memcpy(out, bytes_.data() + addr, len);
}

void PhysicalMemory::Write(PhysAddr addr, const void* data, uint32_t len) {
  Check(addr, len);
  std::memcpy(bytes_.data() + addr, data, len);
  BumpFrameGenerationRange(addr, len);
}

void PhysicalMemory::Zero(PhysAddr addr, uint32_t len) {
  Check(addr, len);
  std::memset(bytes_.data() + addr, 0, len);
  BumpFrameGenerationRange(addr, len);
}

}  // namespace cksim

#include "src/sim/tlb.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace cksim {

Tlb::Tlb(uint32_t entries, uint32_t ways) : entries_(entries), sets_(entries / ways), ways_(ways) {
  if (!std::has_single_bit(sets_)) {
    std::fprintf(stderr, "tlb: %u entries in %u ways is not a power-of-two set count\n", entries,
                 ways);
    std::abort();
  }
}

void Tlb::Insert(uint16_t asid, uint32_t vpage, uint32_t pframe, uint8_t flags) {
  uint32_t base = SetOf(asid, vpage);
  // Reuse an existing entry for this page if present, else the LRU way.
  TlbEntry* victim = &entries_[base];
  for (uint32_t w = 0; w < ways_; ++w) {
    TlbEntry& e = entries_[base + w];
    if (e.valid && e.asid == asid && e.vpage == vpage) {
      victim = &e;
      break;
    }
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru < victim->lru) {
      victim = &e;
    }
  }
  *victim = TlbEntry{true, asid, vpage, pframe, flags, ++tick_};
}

void Tlb::FlushPage(uint16_t asid, uint32_t vpage) {
  uint32_t base = SetOf(asid, vpage);
  for (uint32_t w = 0; w < ways_; ++w) {
    TlbEntry& e = entries_[base + w];
    if (e.valid && e.asid == asid && e.vpage == vpage) {
      e.valid = false;
    }
  }
}

void Tlb::FlushAsid(uint16_t asid) {
  for (TlbEntry& e : entries_) {
    if (e.valid && e.asid == asid) {
      e.valid = false;
    }
  }
}

void Tlb::FlushFrame(uint32_t pframe) {
  for (TlbEntry& e : entries_) {
    if (e.valid && e.pframe == pframe) {
      e.valid = false;
    }
  }
}

void Tlb::FlushAll() {
  for (TlbEntry& e : entries_) {
    e.valid = false;
  }
}

}  // namespace cksim

// Per-CPU translation lookaside buffer.
//
// Small set-associative TLB keyed by (address-space id, virtual page). The
// Cache Kernel must flush entries when it unloads mappings or address spaces
// ("when unloading an address space, the mappings associated with that
// address space must be removed from the hardware TLB and/or page tables",
// section 4.2) -- the flush interfaces here are what that code calls.
//
// Lookup, Probe and the set index are inline: every translation makes one
// Lookup, and a hit should cost what it costs on the hardware, one set probe
// with its LRU and hit bookkeeping and no call. The set count must be a power
// of two (the constructor aborts otherwise), so the index is a mask.

#ifndef SRC_SIM_TLB_H_
#define SRC_SIM_TLB_H_

#include <cstdint>
#include <vector>

#include "src/sim/pagetable.h"
#include "src/sim/types.h"

namespace cksim {

struct TlbEntry {
  bool valid = false;
  uint16_t asid = 0;
  uint32_t vpage = 0;   // virtual page number
  uint32_t pframe = 0;  // physical page frame number
  uint8_t flags = 0;    // PTE flag bits (writable/message/cow/cache-inhibit)
  // Replacement timestamp. 64-bit: a 32-bit tick wraps after ~4B lookups,
  // which silently corrupts victim selection on long runs (freshly touched
  // entries look ancient and get evicted first).
  uint64_t lru = 0;
};

class Tlb {
 public:
  // 64 entries, 4-way set associative by default (roughly 68040-class: the
  // real part had a 64-entry ATC). entries / ways must be a power of two.
  explicit Tlb(uint32_t entries = 64, uint32_t ways = 4);

  struct LookupResult {
    bool hit = false;
    uint32_t pframe = 0;
    uint8_t flags = 0;
  };

  LookupResult Lookup(uint16_t asid, uint32_t vpage) {
    TlbEntry* set = &entries_[SetOf(asid, vpage)];
    for (uint32_t w = 0; w < ways_; ++w) {
      TlbEntry& e = set[w];
      if (e.valid && e.asid == asid && e.vpage == vpage) {
        e.lru = ++tick_;
        ++hits_;
        return LookupResult{true, e.pframe, e.flags};
      }
    }
    ++misses_;
    return LookupResult{};
  }
  void Insert(uint16_t asid, uint32_t vpage, uint32_t pframe, uint8_t flags);

  // Invalidate a single page of a space, every entry of a space, entries
  // mapping a physical frame (for frame reclamation and multi-mapping
  // consistency), or everything.
  void FlushPage(uint16_t asid, uint32_t vpage);
  void FlushAsid(uint16_t asid);
  void FlushFrame(uint32_t pframe);
  void FlushAll();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetStats() { hits_ = misses_ = 0; }

  // ---- micro-TLB and trace (host fast path) support ----
  // A micro-TLB entry is a verified hint naming a resident TlbEntry by index
  // (entries_ never reallocates). The trace executor re-validates the entry
  // on every use, so TLB flushes and LRU evictions invalidate micro-TLB state
  // implicitly; see docs/PERFORMANCE.md.
  //
  // Index of the resident entry for (asid, vpage), or -1. Unlike Lookup this
  // has no side effects on the LRU clock or the hit/miss counters.
  int32_t Probe(uint16_t asid, uint32_t vpage) const {
    uint32_t base = SetOf(asid, vpage);
    for (uint32_t w = 0; w < ways_; ++w) {
      const TlbEntry& e = entries_[base + w];
      if (e.valid && e.asid == asid && e.vpage == vpage) {
        return static_cast<int32_t>(base + w);
      }
    }
    return -1;
  }
  const TlbEntry& EntryAt(uint32_t index) const { return entries_[index]; }

  // Batched hit bookkeeping for the superblock trace executor: a trace
  // defers the Lookup hits its steps would make and commits them in one shot
  // before any point that could observe TLB state (a virtual bus call, an
  // eviction, the run-loop exit). The commit must reproduce EXACTLY the
  // state a touch-by-touch run would leave: `touches` total tick/hit
  // increments, and each touched entry's lru set to the tick value of its
  // LAST touch (callers ensure per-entry writes land in ascending ordinal
  // order; writes to different entries may land in any order).
  void CommitFastHits(uint64_t touches) {
    tick_ += touches;
    hits_ += touches;
  }
  void SetLruAt(uint32_t index, uint64_t lru) { entries_[index].lru = lru; }

  // Test hook: place the LRU clock near a chosen value (e.g. just below
  // 2^32) to exercise wraparound behavior without 4B warm-up lookups.
  void SetTickForTesting(uint64_t tick) { tick_ = tick; }
  uint64_t tick() const { return tick_; }

 private:
  // Index of the first way of the (asid, vpage) set.
  uint32_t SetOf(uint16_t asid, uint32_t vpage) const {
    // Mix asid and page so different spaces do not collide on the same sets.
    uint32_t h = vpage ^ (static_cast<uint32_t>(asid) * 0x9e3779b1u);
    return (h & (sets_ - 1)) * ways_;
  }

  std::vector<TlbEntry> entries_;
  uint32_t sets_;
  uint32_t ways_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace cksim

#endif  // SRC_SIM_TLB_H_

// The generic descriptor-cache layer.
//
// The paper's claim is that the Cache Kernel manages kernels, address
// spaces, threads and page mappings "exactly the way a hardware cache caches
// memory lines". This header is that claim as one piece of code: ObjectCache
// wraps a fixed-capacity store (ckbase::FixedPool for the three object
// pools, PhysicalMemoryMap for mappings) and adds the cache half of the
// model -- load/release accounting, the replacement hand, and victim
// selection -- so the per-type reclamation scans that used to be written four
// times in cache_kernel.cc are one engine parameterized by a small per-type
// Ops struct.
//
// The store is inherited publicly: every existing Lookup/SlotAt/record call
// site keeps working, while Allocate/Release (pools) and Insert/Remove (the
// map) are shadowed so the cache's accounting can never drift from the
// store's occupancy (ValidateInvariants cross-checks slot-by-slot).
//
// Victim selection is generic over Ops -- the per-type glue defined by
// CacheKernel: occupancy, the effective-lock pin chain of section 4.2, pass
// eligibility (threads prefer blocked victims), the hardware referenced bit
// (mappings), and eviction itself (stats + trace + the Figure 6
// dependency-ordered writeback cascade). ClockScan, the paper's clock scan,
// is the one built-in policy (ReclaimClock runs it with the cache's hand);
// ReclaimScored runs an application kernel's guest policy program
// (CacheKernel::ReclaimWithPolicy).
//
// The clock scan has two shapes, chosen by Ops::kScanOccupiedSteps:
//   * false (pools): the hand walks slots, one budget unit per slot per
//     pass; the hand only commits when a victim is evicted. Only this shape
//     reads Ops::kPasses and Ops::Eligible.
//   * true (mappings, tier frames): the hand walks occupied records -- the
//     budget counts occupied visits, so a sparsely occupied map can revisit
//     a record and evict it after its second chance is spent; the first
//     unpinned record seen is remembered as a forced fallback. This
//     reproduces the historic ReclaimMapping/ClockNextPv semantics
//     bit-exactly.

#ifndef SRC_CK_OBJECT_CACHE_H_
#define SRC_CK_OBJECT_CACHE_H_

#include <algorithm>
#include <cstdint>

#include "src/base/zeroed_array.h"

namespace ck {

inline constexpr uint32_t kNoVictim = 0xffffffffu;

// Outcome of a scored victim scan (ReclaimScored).
enum class ScoredScan : uint8_t {
  kEvicted = 0,      // a victim was scored, chosen and evicted
  kNoCandidate = 1,  // nothing admitted/unpinned -- caller picks a fallback
  kAborted = 2,      // the scoring function gave up (guest fault/budget)
};

// The clock scan, the one built-in victim choice, over `capacity` slots from
// `hand`. Returns true after ops.Evict() ran on the chosen victim; false when
// every candidate is pinned (the caller fails the load cleanly with
// kNoResources). `scan_steps` accumulates candidates examined, for the
// per-type scan-length counters in CkStats. A candidate whose referenced bit
// is set survives exactly one trip of the hand (the bit is consumed). The
// descriptor caches run it with their own hand (ObjectCache::ReclaimClock),
// the frame-tier demotion scan with the Cache Kernel's tier hand.
template <typename Ops>
bool ClockScan(uint32_t& hand, uint32_t capacity, Ops& ops, uint64_t& scan_steps) {
  uint32_t forced = kNoVictim;
  if constexpr (Ops::kScanOccupiedSteps) {
    // Mapping-shaped scan: budget in occupied visits, mutating hand. Each
    // step advances the hand past the next occupied slot (wrapping); a full
    // revolution that finds nothing occupied ends the scan.
    auto next_occupied = [&]() -> uint32_t {
      for (uint32_t i = 0; i < capacity; ++i) {
        uint32_t slot = hand;
        hand = (hand + 1) % capacity;
        if (ops.Occupied(slot)) {
          return slot;
        }
      }
      return kNoVictim;
    };
    for (uint32_t step = 0; step < capacity; ++step) {
      uint32_t slot = next_occupied();
      if (slot == kNoVictim) {
        break;
      }
      ++scan_steps;
      if (ops.Pinned(slot)) {
        continue;
      }
      if (forced == kNoVictim) {
        forced = slot;  // fallback if everything stays referenced
      }
      if (ops.TestAndClearReferenced(slot)) {
        continue;  // second chance
      }
      ops.Evict(slot);
      return true;
    }
  } else {
    // Pool-shaped scan: budget in slots per pass, hand commits on evict.
    for (int pass = 0; pass < Ops::kPasses; ++pass) {
      for (uint32_t step = 0; step < capacity; ++step) {
        uint32_t slot = (hand + step) % capacity;
        ++scan_steps;
        if (!ops.Occupied(slot) || !ops.Eligible(slot, pass)) {
          continue;
        }
        if (ops.Pinned(slot)) {
          continue;
        }
        if (forced == kNoVictim) {
          forced = slot;
        }
        if (ops.TestAndClearReferenced(slot)) {
          continue;
        }
        hand = (slot + 1) % capacity;
        ops.Evict(slot);
        return true;
      }
    }
  }
  if (forced != kNoVictim && ops.Occupied(forced)) {
    if constexpr (!Ops::kScanOccupiedSteps) {
      hand = (forced + 1) % capacity;
    }
    ops.Evict(forced);
    return true;
  }
  return false;
}

template <typename Store>
class ObjectCache : public Store {
 public:
  explicit ObjectCache(uint32_t capacity)
      : Store(capacity), load_seq_(capacity) {}
  ~ObjectCache() { load_seq_.set_used(load_extent_); }

  // ---- loaded/free accounting ----
  // Every load stamps the slot with a monotonic sequence number (load age);
  // release clears it. The shadowing wrappers below keep this automatic for
  // every allocation path.
  void OnLoad(uint32_t slot) {
    if (load_seq_[slot] == 0) {
      ++loaded_;
    }
    load_seq_[slot] = ++load_clock_;
    load_extent_ = std::max(load_extent_, slot + 1);
  }
  void OnRelease(uint32_t slot) {
    if (load_seq_[slot] != 0) {
      --loaded_;
    }
    load_seq_[slot] = 0;
  }
  // Cached objects currently loaded. For the pool instantiations this equals
  // in_use(); for the mapping instance it counts only PhysToVirt records --
  // signal/cow annotations occupy slots but are not cached objects.
  uint32_t loaded() const { return loaded_; }

  uint64_t load_seq(uint32_t slot) const { return load_seq_[slot]; }
  uint64_t load_clock() const { return load_clock_; }
  uint32_t hand() const { return hand_; }

  // ---- store shadows (only instantiated for stores that have them) ----
  auto* Allocate() {
    auto* item = Store::Allocate();
    if (item != nullptr) {
      OnLoad(Store::SlotOf(item));
    }
    return item;
  }
  template <typename T>
  void Release(T* item) {
    uint32_t slot = Store::SlotOf(item);
    Store::Release(item);
    OnRelease(slot);
  }
  template <typename RecordTypeT>
  uint32_t Insert(uint32_t key, uint32_t dependent, uint32_t context_low, RecordTypeT type) {
    uint32_t index = Store::Insert(key, dependent, context_low, type);
    if (index != kNoVictim && type == RecordTypeT::kPhysToVirt) {
      OnLoad(index);
    }
    return index;
  }
  void Remove(uint32_t index) {
    Store::Remove(index);
    OnRelease(index);
  }

  // ---- victim selection ----
  // The clock scan (ClockScan above) with this cache's own hand.
  template <typename Ops>
  bool ReclaimClock(Ops& ops, uint64_t& scan_steps) {
    return ClockScan(hand_, Store::capacity(), ops, scan_steps);
  }

  // The score-based engine: one full sweep over occupied slots, evicting the
  // admitted unpinned candidate with the minimum score (first-wins ties, so
  // a constant scoring function picks the lowest slot index). `admit(slot)`
  // filters candidates (guest policies only see the requesting kernel's
  // descriptors). Candidates are scored in chunks of up to kChunk:
  // gather(slot, lane) collects a candidate into a lane with no side effect,
  // and score(n, scores) scores lanes [0, n), replays their side effects in
  // lane order and returns n -- or the lane that aborted the whole scan
  // (sandbox fault / budget exhaustion -- the caller falls back), whose
  // lanes after it must have no effect. The hand is untouched: scored
  // policies are scan-order independent by construction.
  template <uint32_t kChunk, typename Ops, typename Admit, typename Gather, typename Score>
  ScoredScan ReclaimScored(Ops& ops, uint64_t& scan_steps, Admit&& admit, Gather&& gather,
                           Score&& score) {
    uint32_t cap = Store::capacity();
    uint32_t best = kNoVictim;
    int64_t best_score = 0;
    uint64_t swept = 0;  // occupied slots visited
    uint32_t slots[kChunk];
    uint64_t swept_at[kChunk];  // through each lane's candidate
    int64_t scores[kChunk];
    for (uint32_t slot = 0; slot < cap;) {
      uint32_t n = 0;
      for (; slot < cap && n < kChunk; ++slot) {
        if (!ops.Occupied(slot)) {
          continue;
        }
        ++swept;
        if (ops.Pinned(slot) || !admit(slot)) {
          continue;
        }
        slots[n] = slot;
        swept_at[n] = swept;
        gather(slot, n++);
      }
      uint32_t scored = n != 0 ? score(n, scores) : 0;
      if (scored < n) {
        scan_steps += swept_at[scored];
        return ScoredScan::kAborted;
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (best == kNoVictim || scores[i] < best_score) {
          best = slots[i];
          best_score = scores[i];
        }
      }
    }
    scan_steps += swept;
    if (best == kNoVictim) {
      return ScoredScan::kNoCandidate;
    }
    ops.Evict(best);
    return ScoredScan::kEvicted;
  }

 private:
  uint32_t hand_ = 0;                       // replacement hand (per-cache, was per-type)
  uint32_t loaded_ = 0;                     // slots with a nonzero load stamp
  uint64_t load_clock_ = 0;                 // monotonic load counter
  uint32_t load_extent_ = 0;                // slots from here on were never loaded
  ckbase::ZeroedArray<uint64_t> load_seq_;  // [slot] -> load stamp, 0 when free
};

}  // namespace ck

#endif  // SRC_CK_OBJECT_CACHE_H_

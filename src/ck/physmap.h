// The physical memory map: 16-byte dependency records (section 4.1).
//
// "The physical-to-virtual mapping is stored in a physical memory map, using
// 16-byte descriptors per page, specifying the physical address, the virtual
// address, the address space and a hash link pointer. ... This data structure
// is viewed as recording dependencies between objects ... the descriptor is
// viewed as specifying a key, the dependent object and the context."
//
// Three record kinds share the one structure and hash table:
//   * PhysToVirt: key = physical frame, dependent = virtual page + flag bits,
//     context = address space slot. The dominant case.
//   * Signal:     key = index of the PhysToVirt record it annotates,
//     dependent = signal thread (slot + generation), context = signal tag.
//   * CopyOnWrite: key = index of the PhysToVirt record, dependent = source
//     physical frame, context = cow tag.
//
// Locating the threads to signal for a physical page is the paper's two-stage
// lookup: chase the PhysToVirt records for the frame (VisitPv), then the
// Signal records keyed by each of those records.
//
// sizeof(MemMapEntry) == 16 is asserted; the free list reuses the hash link,
// so the pool carries no per-record overhead. Never-used records come from a
// bump index, freed ones from the free list first (last freed first): the
// order of a pool chained whole at construction. The records start as zeros
// (kFree) that no set-up writes, so a map pays only for the records a run
// uses, and the next map to reuse them zeroes only [0, bump). Beside each
// record sits its leaf PTE address, which a PhysToVirt record's load sets
// (leaf_pte). Replacement over pv records lives in the ObjectCache wrapper
// (src/ck/object_cache.h), not here.

#ifndef SRC_CK_PHYSMAP_H_
#define SRC_CK_PHYSMAP_H_

#include <cstdint>
#include <vector>

#include "src/base/zeroed_array.h"
#include "src/sim/types.h"

namespace ck {

inline constexpr uint32_t kNilRecord = 0xffffffffu;

// Tail sentinel for the per-thread signal-registration chain, which lives in
// the 28 spare context bits of signal records (so it bounds the map capacity
// a chain can index, far above any configured arena).
inline constexpr uint32_t kNilSignalChain = 0x0fffffffu;

// Record type tags (context bits 31..28).
enum class RecordType : uint8_t { kFree = 0, kPhysToVirt = 1, kSignal = 2, kCopyOnWrite = 3 };

// Flag bits kept in the low 12 bits of `dependent` for PhysToVirt records
// (the virtual address is page aligned, so they are free).
inline constexpr uint32_t kPvLocked = 1u << 0;   // pinned by the app kernel
inline constexpr uint32_t kPvMessage = 1u << 1;  // message-mode page
inline constexpr uint32_t kPvWritable = 1u << 2;

struct MemMapEntry {
  uint32_t key = 0;        // physical frame (pv) or pv-record index (others)
  uint32_t dependent = 0;  // vpage<<12|flags (pv), thread ref (signal), frame (cow)
  uint32_t context = 0;    // type tag | space slot (pv)
  uint32_t hash_link = kNilRecord;  // hash chain / free list

  RecordType type() const { return static_cast<RecordType>(context >> 28); }
  void set_type(RecordType t) {
    context = (context & 0x0fffffffu) | (static_cast<uint32_t>(t) << 28);
  }

  // PhysToVirt accessors.
  uint32_t pv_frame() const { return key; }
  cksim::VirtAddr pv_vaddr() const { return dependent & ~0xfffu; }
  uint32_t pv_flags() const { return dependent & 0xfffu; }
  uint32_t pv_space_slot() const { return context & 0xffffu; }
  bool pv_locked() const { return (dependent & kPvLocked) != 0; }
  bool pv_message() const { return (dependent & kPvMessage) != 0; }

  // Signal accessors: thread reference packs slot (low 8 bits, up to 256
  // thread descriptors) and the low 24 bits of the thread generation for
  // staleness checking.
  uint32_t signal_thread_slot() const { return dependent & 0xffu; }
  uint32_t signal_thread_gen24() const { return dependent >> 8; }

  // Signal records additionally thread a per-thread registration chain
  // through their spare context bits (low 28): the index of the next signal
  // record naming the same thread, kNilSignalChain at the tail. Thread
  // teardown walks this chain instead of scanning the arena.
  uint32_t signal_next() const { return context & 0x0fffffffu; }
  void set_signal_next(uint32_t next) {
    context = (context & 0xf0000000u) | (next & 0x0fffffffu);
  }

  // CopyOnWrite accessor.
  uint32_t cow_source_frame() const { return dependent; }
};

static_assert(sizeof(MemMapEntry) == 16, "Table 1: MemMapEntry must be 16 bytes");

// Fixed-capacity store + hash index for the records.
class PhysicalMemoryMap {
 public:
  explicit PhysicalMemoryMap(uint32_t capacity);
  ~PhysicalMemoryMap() {
    records_.set_used(bump_);
    leaf_ptes_.set_used(bump_);
  }

  uint32_t capacity() const { return records_.size(); }
  uint32_t in_use() const { return in_use_; }
  bool full() const { return in_use_ == capacity(); }
  uint32_t used_extent() const { return bump_; }  // records from here on were never used

  MemMapEntry& record(uint32_t index) { return records_[index]; }
  const MemMapEntry& record(uint32_t index) const { return records_[index]; }
  // The leaf PTE address of a loaded PhysToVirt record, as its load stored it.
  cksim::PhysAddr leaf_pte(uint32_t index) const { return leaf_ptes_[index]; }
  void set_leaf_pte(uint32_t index, cksim::PhysAddr leaf) { leaf_ptes_[index] = leaf; }

  // Allocate + insert into the hash chain for `key`. Returns kNilRecord when
  // the pool is exhausted (caller reclaims and retries).
  uint32_t Insert(uint32_t key, uint32_t dependent, uint32_t context_low, RecordType type);

  // Remove a record by index (unlinks from its hash chain, frees the slot).
  void Remove(uint32_t index);

  // First record with this key, or kNilRecord. Continue with NextWithKey.
  uint32_t FindFirst(uint32_t key) const;
  uint32_t NextWithKey(uint32_t index) const;

  // Visit the PhysToVirt records of `frame` in hash-chain order, calling
  // fn(index, record) on each; fn returns true to stop. Returns the index the
  // walk stopped at, or kNilRecord when it ran to the end. fn must not change
  // the map: a walk that unloads records collects them first.
  template <typename Fn>
  uint32_t VisitPv(uint32_t frame, Fn&& fn) const {
    for (uint32_t cur = FindFirst(frame); cur != kNilRecord; cur = NextWithKey(cur)) {
      const MemMapEntry& rec = records_[cur];
      if (rec.type() == RecordType::kPhysToVirt && fn(cur, rec)) {
        return cur;
      }
    }
    return kNilRecord;
  }

  // Find the PhysToVirt record for (space slot, virtual page) among the
  // records of `frame`. kNilRecord if absent.
  uint32_t FindPv(uint32_t frame, uint32_t space_slot, cksim::VirtAddr vaddr) const;

 private:
  uint32_t BucketOf(uint32_t key) const;

  ckbase::ZeroedArray<MemMapEntry> records_;
  ckbase::ZeroedArray<cksim::PhysAddr> leaf_ptes_;  // [record], PhysToVirt only
  std::vector<uint32_t> buckets_;  // head record index per bucket
  uint32_t free_head_ = kNilRecord;  // freed records, last freed first
  uint32_t bump_ = 0;                // first never-used record
  uint32_t in_use_ = 0;
};

}  // namespace ck

#endif  // SRC_CK_PHYSMAP_H_

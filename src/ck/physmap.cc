#include "src/ck/physmap.h"

namespace ck {
namespace {

uint32_t NextPowerOfTwo(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

PhysicalMemoryMap::PhysicalMemoryMap(uint32_t capacity)
    : records_(capacity), leaf_ptes_(capacity), buckets_(NextPowerOfTwo(capacity), kNilRecord) {}

uint32_t PhysicalMemoryMap::BucketOf(uint32_t key) const {
  // Fibonacci hash; buckets_ is a power of two.
  uint32_t h = key * 2654435761u;
  return h & (static_cast<uint32_t>(buckets_.size()) - 1);
}

uint32_t PhysicalMemoryMap::Insert(uint32_t key, uint32_t dependent, uint32_t context_low,
                                   RecordType type) {
  uint32_t index = free_head_;
  if (index != kNilRecord) {
    free_head_ = records_[index].hash_link;
  } else if (bump_ < capacity()) {
    index = bump_++;
  } else {
    return kNilRecord;
  }
  MemMapEntry& rec = records_[index];

  rec.key = key;
  rec.dependent = dependent;
  rec.context = context_low & 0x0fffffffu;
  rec.set_type(type);

  uint32_t bucket = BucketOf(key);
  rec.hash_link = buckets_[bucket];
  buckets_[bucket] = index;
  ++in_use_;
  return index;
}

void PhysicalMemoryMap::Remove(uint32_t index) {
  MemMapEntry& rec = records_[index];
  uint32_t bucket = BucketOf(rec.key);

  // Unlink from the chain.
  uint32_t cur = buckets_[bucket];
  if (cur == index) {
    buckets_[bucket] = rec.hash_link;
  } else {
    while (cur != kNilRecord) {
      MemMapEntry& r = records_[cur];
      if (r.hash_link == index) {
        r.hash_link = rec.hash_link;
        break;
      }
      cur = r.hash_link;
    }
  }

  rec.set_type(RecordType::kFree);
  rec.hash_link = free_head_;
  free_head_ = index;
  --in_use_;
}

uint32_t PhysicalMemoryMap::FindFirst(uint32_t key) const {
  uint32_t cur = buckets_[BucketOf(key)];
  while (cur != kNilRecord && records_[cur].key != key) {
    cur = records_[cur].hash_link;
  }
  return cur;
}

uint32_t PhysicalMemoryMap::NextWithKey(uint32_t index) const {
  uint32_t key = records_[index].key;
  uint32_t cur = records_[index].hash_link;
  while (cur != kNilRecord && records_[cur].key != key) {
    cur = records_[cur].hash_link;
  }
  return cur;
}

uint32_t PhysicalMemoryMap::FindPv(uint32_t frame, uint32_t space_slot,
                                   cksim::VirtAddr vaddr) const {
  cksim::VirtAddr vpage_base = vaddr & ~0xfffu;
  return VisitPv(frame, [&](uint32_t, const MemMapEntry& rec) {
    return rec.pv_space_slot() == space_slot && rec.pv_vaddr() == vpage_base;
  });
}

}  // namespace ck

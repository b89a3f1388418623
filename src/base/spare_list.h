// Memory a destroyed owner hands to the next owner of the same size.
//
// Simulated RAM and the Cache Kernel's large descriptor arrays are made and
// destroyed with every machine. Fresh zeroed memory costs either a clear at
// set-up or, for an anonymous mapping, a page fault on each first touch
// inside the run. So an owner parks its block here when it dies, with a note
// of what it wrote (`Dirty`), and the next owner asking for a block of the
// same byte size takes the most recently parked one and zeroes only that.
// A block waits ASan-poisoned, so a stale pointer into it is a report, not a
// silent read. There is one process-wide list per Dirty type, guarded by a
// mutex; its blocks are never freed.
//
// Page-granular owners -- simulated RAM and application kernels' backing
// stores -- share one list: their note is one word per page, nonzero when
// the page was written (TakeZeroedPages, ParkPages).

#ifndef SRC_BASE_SPARE_LIST_H_
#define SRC_BASE_SPARE_LIST_H_

#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

namespace ckbase {

template <typename Dirty>
class SpareList {
 public:
  static SpareList& Get() {
    // Never destroyed: an owner in static storage may die after every
    // function-local static.
    static SpareList* const list = new SpareList;
    return *list;
  }

  // The most recently parked block of exactly `bytes` bytes, unpoisoned,
  // with the note its last owner parked it with; nullptr when there is none.
  void* Take(size_t bytes, Dirty& dirty) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = spares_.end(); it != spares_.begin();) {
      if ((--it)->bytes == bytes) {
        void* block = it->block;
        dirty = std::move(it->dirty);
        spares_.erase(it);
        ASAN_UNPOISON_MEMORY_REGION(block, bytes);
        return block;
      }
    }
    return nullptr;
  }

  // Parks `block` until a Take of its size.
  void Give(void* block, size_t bytes, Dirty dirty) {
    ASAN_POISON_MEMORY_REGION(block, bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    spares_.push_back({block, bytes, std::move(dirty)});
  }

 private:
  struct Spare {
    void* block;
    size_t bytes;
    Dirty dirty;
  };
  std::mutex mutex_;
  std::vector<Spare> spares_;
};

// The most recently parked page-granular block of `pages` pages of
// `page_bytes` bytes, reading as all zeros: the pages its last owner wrote
// are cleared, and `written` comes back as one 0 per page. nullptr, with
// `written` untouched, when there is none.
inline void* TakeZeroedPages(size_t page_bytes, uint32_t pages, std::vector<uint64_t>& written) {
  void* block = SpareList<std::vector<uint64_t>>::Get().Take(page_bytes * pages, written);
  if (block != nullptr) {
    for (uint32_t p = 0; p < pages; ++p) {
      if (written[p] != 0) {
        std::memset(static_cast<unsigned char*>(block) + p * page_bytes, 0, page_bytes);
        written[p] = 0;
      }
    }
  }
  return block;
}

// Parks a page-granular block with its notes: `written[p]` is nonzero when
// page p may hold something other than zeros.
inline void ParkPages(void* block, size_t bytes, std::vector<uint64_t> written) {
  SpareList<std::vector<uint64_t>>::Get().Give(block, bytes, std::move(written));
}

}  // namespace ckbase

#endif  // SRC_BASE_SPARE_LIST_H_

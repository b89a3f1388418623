// Per-application-kernel backing store ("disk").
//
// "The application kernel also provides backing store for the object state
// when it is unloaded from the Cache Kernel" (section 2) -- and for page
// contents under demand paging. This simulated store is page-granular with a
// configurable access latency; the default (5 ms at 25 MHz) makes page I/O
// dominate fault cost exactly as section 5.2 argues it should.
//
// A store costs the pages written to it, not its capacity. Its pages are one
// contiguous block that reads as all zeros without being cleared
// (ckbase::FreshZeroed), and each page has a written flag that the one write
// path, MutablePage, sets. A destroyed store parks its block with its flags
// on the process-wide spare list (src/base/spare_list.h, ASan-poisoned while
// it waits); the next store of the same byte size takes it and zeroes only
// the flagged pages. Checkpoint capture visits only flagged pages
// (ForEachWritten).

#ifndef SRC_APPKERNEL_BACKING_STORE_H_
#define SRC_APPKERNEL_BACKING_STORE_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/base/zeroed_array.h"
#include "src/ck/cache_kernel.h"
#include "src/sim/types.h"

namespace ckapp {

class BackingStore {
 public:
  explicit BackingStore(uint32_t pages, cksim::Cycles latency = 125000 /* 5 ms */)
      : latency_(latency) {
    data_ = static_cast<uint8_t*>(ckbase::TakeZeroedPages(cksim::kPageSize, pages, written_));
    if (data_ == nullptr) {
      data_ = static_cast<uint8_t*>(ckbase::FreshZeroed(size_t{pages} * cksim::kPageSize));
      written_.assign(pages, 0);
    }
  }
  ~BackingStore() {
    const size_t bytes = size_t{page_count()} * cksim::kPageSize;  // before written_ moves
    ckbase::ParkPages(data_, bytes, std::move(written_));
  }
  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  uint32_t page_count() const { return static_cast<uint32_t>(written_.size()); }
  cksim::Cycles latency() const { return latency_; }

  // Transfer one page store->frame. I/O latency is charged to the calling
  // CPU; callers modeling asynchronous I/O instead block the faulting thread
  // and schedule the resume after latency() (see the UNIX emulator pager).
  void ReadPage(ck::CkApi& api, uint32_t store_page, cksim::PhysAddr frame,
                bool charge_latency = true) {
    api.WritePhys(frame, PageData(store_page), cksim::kPageSize);
    if (charge_latency) {
      api.Charge(latency_);
    }
  }

  void WritePage(ck::CkApi& api, cksim::PhysAddr frame, uint32_t store_page,
                 bool charge_latency = true) {
    api.ReadPhys(frame, MutablePage(store_page), cksim::kPageSize);
    if (charge_latency) {
      api.Charge(latency_);
    }
  }

  // Direct host-side access for program loading, checkpoint restore and
  // test verification. Pages are contiguous: PageData(p) + kPageSize is
  // PageData(p + 1). Every write goes through MutablePage, which flags the
  // page as written.
  const uint8_t* PageData(uint32_t store_page) const {
    return data_ + static_cast<size_t>(store_page) * cksim::kPageSize;
  }
  uint8_t* MutablePage(uint32_t store_page) {
    written_[store_page] = 1;
    return data_ + static_cast<size_t>(store_page) * cksim::kPageSize;
  }

  void WriteBytes(uint32_t store_page, uint32_t offset, const void* src, uint32_t len) {
    std::memcpy(MutablePage(store_page) + offset, src, len);
  }

  // Calls fn(page, data) for every page ever written, in ascending page
  // order. Every other page reads as zeros. A page written with zeros is
  // visited too.
  template <typename Fn>
  void ForEachWritten(Fn&& fn) const {
    for (uint32_t p = 0; p < page_count(); ++p) {
      if (written_[p] != 0) {
        fn(p, PageData(p));
      }
    }
  }

 private:
  uint8_t* data_ = nullptr;
  std::vector<uint64_t> written_;  // per page: nonzero once written
  cksim::Cycles latency_;
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_BACKING_STORE_H_

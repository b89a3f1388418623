// Per-processor reverse TLB for memory-based-messaging signal delivery.
//
// Section 4.1: "a per-processor reverse-TLB is provided that maps physical
// addresses to the corresponding virtual address and signal handler function
// pairs. When the Cache Kernel receives a signal on a given physical address,
// each processor that receives the signal checks whether the physical address
// 'reverse translates' according to this reverse TLB. If so, the signal is
// delivered immediately to the active thread. Otherwise, it uses the
// two-stage lookup." The prototype implemented it in software inside the
// Cache Kernel; we model it as a small per-CPU direct-mapped table from a
// frame to the signal thread active for it, which the Cache Kernel fills and
// invalidates explicitly (every mapping unload and signal registration
// flushes the frame, every thread unload the thread). The delivered virtual
// address comes from the caller's lookup, so an entry does not repeat it.

#ifndef SRC_SIM_REVERSE_TLB_H_
#define SRC_SIM_REVERSE_TLB_H_

#include <cstdint>
#include <vector>

namespace cksim {

class ReverseTlb {
 public:
  explicit ReverseTlb(uint32_t entries = 32) : entries_(entries) {}

  struct Entry {
    bool valid = false;
    uint32_t pframe = 0;
    uint64_t thread_id = 0;  // packed id of the signal thread on this CPU
  };

  // Fast path lookup by physical frame.
  const Entry* Lookup(uint32_t pframe) const {
    const Entry& e = entries_[pframe % entries_.size()];
    return e.valid && e.pframe == pframe ? &e : nullptr;
  }

  void Insert(const Entry& entry) { entries_[entry.pframe % entries_.size()] = entry; }

  void InvalidateFrame(uint32_t pframe) {
    Entry& e = entries_[pframe % entries_.size()];
    if (e.valid && e.pframe == pframe) {
      e.valid = false;
    }
  }

  void InvalidateThread(uint64_t thread_id) {
    for (Entry& e : entries_) {
      if (e.valid && e.thread_id == thread_id) {
        e.valid = false;
      }
    }
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace cksim

#endif  // SRC_SIM_REVERSE_TLB_H_

// Application-kernel backing records for spaces, pages and threads.
//
// These are the "descriptors maintained by the application kernel" that back
// the Cache Kernel's cache: the full page state of every virtual page
// (where its contents live, whether they are dirty) and the saved context of
// every thread, loaded or not. Cache Kernel identifiers are transient --
// "application kernels do not use the Cache Kernel object identifiers except
// across this interface because a new identifier is assigned each time an
// object is loaded" -- so each record keeps its own stable index (the cookie
// passed at load time) and the current identifier separately.

#ifndef SRC_APPKERNEL_VSPACE_H_
#define SRC_APPKERNEL_VSPACE_H_

#include <cstdint>
#include <unordered_map>

#include "src/base/intrusive_list.h"
#include "src/ck/cache_kernel.h"
#include "src/isa/interpreter.h"
#include "src/sim/types.h"

namespace ckapp {

inline constexpr uint32_t kNoThread = 0xffffffffu;
inline constexpr uint32_t kNoBackingPage = 0xffffffffu;

struct PageRecord {
  enum class Where : uint8_t {
    kZeroFill,  // first touch gets a zeroed frame
    kBacking,   // contents live in the backing store
    kResident,  // contents live in a physical frame (mapping may be loaded)
  };

  Where where = Where::kZeroFill;
  bool writable = false;
  bool message = false;  // message-mode (memory-based messaging) page
  bool locked = false;   // lock the mapping in the Cache Kernel when loaded
  bool dirty = false;    // frame contents newer than backing store
  bool frame_owned = true;   // false for fixed/shared frames (devices, channels)
  bool mapping_loaded = false;
  uint32_t backing_page = kNoBackingPage;
  cksim::PhysAddr frame = 0;        // valid when kResident
  cksim::PhysAddr fixed_frame = 0;  // non-zero: always map this exact frame
  uint32_t signal_thread = kNoThread;  // app-kernel thread index for signals
  cksim::PhysAddr cow_source = 0;      // deferred-copy source frame (one-shot)

  // Replacement order (AppKernelBase::LinkResident is the only writer). The
  // record carries its key so a list walk needs no map lookup.
  cksim::VirtAddr vaddr = 0;
  uint64_t touched = 0;  // last-touch sequence number; 0 = never touched
  ckbase::ListNode resident_node;  // VSpace::resident
  ckbase::ListNode recency_node;   // VSpace::recency
};

struct VSpace {
  uint64_t cookie = 0;  // == index in the owning kernel's space table
  ck::SpaceId ck_id;    // current identifier; stale after writeback
  bool loaded = false;
  bool locked = false;

  // Keyed by page-aligned vaddr. Hashed: the pager looks a record up on
  // every fault, eviction and mapping writeback. Nodes never move, so the
  // lists below and a subclass may hold PageRecord pointers; a walk whose
  // order is observable (checkpoint images) sorts the keys first.
  std::unordered_map<cksim::VirtAddr, PageRecord> pages;
  // The default FIFO order: pages as the pager made them resident (never
  // fixed-frame pages or copy-on-write read mappings). Then the resident
  // pages a subclass touched, by `touched` (the database's LRU/MRU order).
  ckbase::IntrusiveList<PageRecord, &PageRecord::resident_node> resident;
  ckbase::IntrusiveList<PageRecord, &PageRecord::recency_node> recency;

  PageRecord* FindPage(cksim::VirtAddr vaddr) {
    auto it = pages.find(vaddr & ~static_cast<cksim::VirtAddr>(cksim::kPageOffsetMask));
    return it == pages.end() ? nullptr : &it->second;
  }
};

struct ThreadRec {
  uint64_t cookie = 0;  // == index in the owning kernel's thread table
  ck::ThreadId ck_id;
  bool loaded = false;
  bool finished = false;
  bool was_blocked = false;
  // Blocked on an in-flight asynchronous page-in. A checkpoint taken in this
  // window restores the thread runnable: its saved PC re-executes the
  // faulting instruction, which simply re-faults on the restored records.
  bool paging_blocked = false;
  // This record is backed by a NativeProgram (set at create time and by
  // restore). `native` itself is a host pointer and never serialized; the
  // subclass's RestoreExtra must rebind it before the thread reloads.
  bool native_record = false;

  uint32_t space_index = 0;
  uint8_t priority = 0;
  uint8_t cpu_hint = 0xff;
  bool locked = false;

  ckisa::VmContext saved;           // context while unloaded
  ck::NativeProgram* native = nullptr;
  cksim::VirtAddr signal_handler = 0;
  cksim::VirtAddr exception_stack = 0;
  cksim::Cycles total_consumed = 0;
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_VSPACE_H_

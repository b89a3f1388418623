// ApplicationKernelBase: the C++ class library application kernels extend.
//
// "A C++ class library has been developed for each of the resources, namely
// memory management, processing and communication. These libraries allow
// applications to start with a common base of functionality and then
// specialize" (section 3). This base provides:
//   * full backing records for spaces/pages/threads and the writeback
//     handlers that keep them current;
//   * a default demand pager (zero-fill and backing-store pages, FIFO
//     replacement, dirty write-back) that subclasses override to specialize
//     -- the database kernel overrides victim choice, MP3D overrides
//     placement, the UNIX emulator overrides fault-to-SEGV policy;
//   * thread create/reload/unload helpers implementing the retry-on-stale
//     protocol of section 2;
//   * program-image loading for CKVM guests.

#ifndef SRC_APPKERNEL_APP_KERNEL_BASE_H_
#define SRC_APPKERNEL_APP_KERNEL_BASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/appkernel/backing_store.h"
#include "src/appkernel/frame_pool.h"
#include "src/appkernel/vspace.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/policy.h"
#include "src/isa/assembler.h"

namespace ckckpt {
class AppKernelState;
class Writer;
class Reader;
}  // namespace ckckpt

namespace ckapp {

struct GuestThreadParams {
  uint32_t space_index = 0;
  cksim::VirtAddr entry = 0;
  cksim::VirtAddr stack_top = 0;
  uint8_t priority = 8;
  uint8_t cpu_hint = 0xff;
  bool locked = false;
  cksim::VirtAddr signal_handler = 0;
  cksim::VirtAddr exception_stack = 0;
};

struct PagingStats {
  uint64_t faults = 0;
  uint64_t zero_fills = 0;
  uint64_t pages_in = 0;   // backing store -> memory
  uint64_t pages_out = 0;  // dirty evictions written back
  uint64_t evictions = 0;
  uint64_t illegal_accesses = 0;
  uint64_t cow_copies = 0;
  uint64_t stale_retries = 0;
};

class AppKernelBase : public ck::AppKernel {
 public:
  AppKernelBase(std::string name, uint32_t backing_pages,
                cksim::Cycles backing_latency = 125000);
  ~AppKernelBase() override;

  // The SRM (or test harness) sets the identity after LoadKernel.
  void Attach(ck::KernelId self) { self_ = self; }
  ck::KernelId self() const { return self_; }
  const std::string& name() const { return name_; }

  FramePool& frames() { return frames_; }
  BackingStore& backing() { return backing_; }
  // Backing-store allocators: images grow up to image_next, swap down to
  // swap_next, and swap_next >= image_next always holds.
  uint32_t image_next() const { return image_next_; }
  uint32_t swap_next() const { return swap_next_; }
  const PagingStats& paging_stats() const { return paging_stats_; }

  // ---- space management ----
  uint32_t CreateSpace(ck::CkApi& api, bool locked = false);
  VSpace& space(uint32_t index) { return *spaces_[index]; }
  uint32_t space_count() const { return static_cast<uint32_t>(spaces_.size()); }
  // Reload the space descriptor if it was written back; returns the current
  // identifier (the retry protocol of section 2).
  ck::SpaceId EnsureSpaceLoaded(ck::CkApi& api, uint32_t index);

  // Region definition (page records only; mappings load on demand).
  void DefineZeroRegion(uint32_t space_index, cksim::VirtAddr vaddr, uint32_t pages,
                        bool writable);
  void DefineBackedRegion(uint32_t space_index, cksim::VirtAddr vaddr, uint32_t pages,
                          uint32_t first_backing_page, bool writable);
  // Fixed-frame regions: device registers, shared message pages. The frames
  // are not drawn from (or returned to) the frame pool.
  void DefineFrameRegion(uint32_t space_index, cksim::VirtAddr vaddr, uint32_t pages,
                         cksim::PhysAddr first_frame, bool writable, bool message,
                         uint32_t signal_thread = kNoThread, bool locked = false);
  // Deferred copy: pages initially map `source` read-only copy-on-write.
  void DefineCowRegion(uint32_t space_index, cksim::VirtAddr vaddr, uint32_t pages,
                       cksim::PhysAddr source_first_frame);

  // Load a CKVM program image into the backing store and define the region.
  // Returns the first backing page used, or kNoBackingPage (nothing defined)
  // when the image would reach into the pages swap has handed out.
  uint32_t LoadProgramImage(uint32_t space_index, const ckisa::Program& program, bool writable);

  // ---- thread management ----
  uint32_t CreateGuestThread(ck::CkApi& api, const GuestThreadParams& params);
  uint32_t CreateNativeThread(ck::CkApi& api, uint32_t space_index, ck::NativeProgram* program,
                              uint8_t priority, bool locked = false, uint8_t cpu_hint = 0xff);
  ThreadRec& thread(uint32_t index) { return *threads_[index]; }
  uint32_t thread_count() const { return static_cast<uint32_t>(threads_.size()); }
  // Load the thread descriptor (again) from the saved record.
  ckbase::CkStatus EnsureThreadLoaded(ck::CkApi& api, uint32_t index);
  void UnloadThreadByIndex(ck::CkApi& api, uint32_t index);
  bool AllThreadsFinished() const;

  // Force a resident page out (replacement experiments / explicit unload).
  // False when the page is not resident, or when it may be dirty and has no
  // backing page and swap is exhausted: it then stays resident and mapped.
  bool EvictPage(ck::CkApi& api, uint32_t space_index, cksim::VirtAddr vaddr);

  // Load the mapping for a page without a faulting thread (senders must map
  // message pages before signaling; "each application kernel is expected to
  // load all the mappings for a message page when it loads any", section 4.2).
  ckbase::CkStatus EnsureMappingLoaded(ck::CkApi& api, uint32_t space_index,
                                       cksim::VirtAddr vaddr);

  // Copy between a guest space and app-kernel memory (syscall argument
  // strings, console buffers). Pages are materialized as needed; a write
  // breaks a deferred copy first, as a write fault would.
  bool ReadGuest(ck::CkApi& api, uint32_t space_index, cksim::VirtAddr vaddr, void* out,
                 uint32_t len);
  bool WriteGuest(ck::CkApi& api, uint32_t space_index, cksim::VirtAddr vaddr, const void* data,
                  uint32_t len);

  // Ensure a page's contents are in a physical frame (no mapping load): a
  // zeroed frame, a synchronous backing-store read, or -- for an untouched
  // deferred copy -- the shared source frame itself.
  bool MaterializePage(ck::CkApi& api, VSpace& sp, PageRecord& page);

  // ---- AppKernel interface (Cache Kernel upcalls) ----
  ck::HandlerAction HandleFault(const ck::FaultForward& fault, ck::CkApi& api) override;
  ck::TrapAction HandleTrap(const ck::TrapForward& trap, ck::CkApi& api) override;
  void OnMappingWriteback(const ck::MappingWriteback& record, ck::CkApi& api) override;
  void OnThreadWriteback(const ck::ThreadWriteback& record, ck::CkApi& api) override;
  void OnSpaceWriteback(const ck::SpaceWriteback& record, ck::CkApi& api) override;
  void OnThreadHalt(ck::ThreadId thread, uint64_t cookie, ck::CkApi& api) override;

  // Replacement-policy state (src/ck/policy.h): every library-based kernel
  // keeps a PolicyTable, so the LoadPolicy operation works out of the box.
  // CaptureExtra/RestoreExtra carry its programs through checkpoint and
  // migration word for word.
  ck::PolicyTable* policy_table() override { return &policy_table_; }
  // Assemble + install a guest victim-scoring program for `type` (see
  // docs/POLICY_VM.md for the source contract). Empty string on success,
  // else the assembler or Cache Kernel error.
  std::string InstallPolicyProgram(ck::CkApi& api, ck::ObjectType type,
                                   const std::string& source);

  // ---- checkpoint/restore hooks (src/ckpt, docs/CHECKPOINT.md) ----
  // Serialize subclass state (process tables, query engine state, ...) into
  // a checkpoint's kAppExtra record. Runs on a quiesced (fully written-back)
  // kernel. Default: nothing.
  virtual void CaptureExtra(ckckpt::Writer& w, ck::CkApi& api);
  // Rebuild subclass state from the kAppExtra record. Runs after the base
  // records are restored and before any thread reloads; rebind native
  // programs here via RebindNativeProgram and re-arm pending timers. Call
  // `r.Fail(...)` on any semantic mismatch to abort the restore.
  virtual void RestoreExtra(ckckpt::Reader& r, ck::CkApi& api);
  // Whether ResumeRestored should reload this (unfinished) thread eagerly.
  // Default: yes. The UNIX emulator skips swapped-out processes.
  virtual bool ShouldReloadOnRestore(uint32_t thread_index) {
    (void)thread_index;
    return true;
  }
  // Reattach a native program to a restored native thread record.
  void RebindNativeProgram(uint32_t thread_index, ck::NativeProgram* program) {
    threads_[thread_index]->native = program;
  }
  // The SRM swapped this kernel back in (after a plain SwapOut or a
  // Checkpoint). Records are intact but every thread is unloaded and any
  // ThreadId captured before the swap is stale; subclasses reload what must
  // run eagerly. Default: nothing (threads reload on demand).
  virtual void OnSwappedIn(ck::CkApi& api) { (void)api; }

 protected:
  // ---- policy hooks ----
  // Replacement: which resident page of `sp` to evict when the frame pool is
  // dry. Default: FIFO. Return 0 to refuse (fault then fails the thread).
  virtual cksim::VirtAddr ChooseVictim(VSpace& sp);
  // An access with no page record or insufficient rights. Default: terminate
  // the thread. The UNIX emulator overrides this to post SEGV.
  virtual ck::HandlerAction OnIllegalAccess(const ck::FaultForward& fault, ck::CkApi& api);
  // A consistency fault: the line/page is held on a remote node or its
  // memory module failed (section 2.1 footnote). The DSM kernel overrides
  // this to run its consistency protocol; default treats it as illegal.
  virtual ck::HandlerAction OnConsistencyFault(const ck::FaultForward& fault, ck::CkApi& api) {
    return OnIllegalAccess(fault, api);
  }
  // Asynchronous paging: block the faulting thread and resume it after the
  // backing-store latency instead of stalling the CPU. Default off.
  virtual bool UseAsyncPaging() const { return false; }
  // Called when a guest thread halts, after bookkeeping, before unload.
  virtual void OnGuestFinished(uint32_t thread_index, ck::CkApi& api) {
    (void)thread_index;
    (void)api;
  }

  // The only writers of replacement order: a page made resident in `frame`
  // joins its space's resident list at the back and, if touched, the recency
  // list at its place in touch order. UnlinkResident takes it off both.
  void LinkResident(VSpace& sp, PageRecord& page, cksim::PhysAddr frame);
  static void UnlinkResident(PageRecord& page);

  // Allocate a frame, evicting if necessary. 0 on failure.
  cksim::PhysAddr AllocateFrame(ck::CkApi& api, VSpace& sp);
  // Allocate a backing-store page for a dirty zero-fill page being evicted;
  // kNoBackingPage once swap has come down to the program images.
  uint32_t AllocateSwapPage();

  // Resolve a fault on a known page record: fetch contents, load mapping,
  // resume. Shared by the default handler and subclass handlers.
  ck::HandlerAction ResolvePageFault(const ck::FaultForward& fault, VSpace& sp, PageRecord& page,
                                     cksim::VirtAddr page_vaddr, ck::CkApi& api);
  // Give a deferred-copy page a private frame holding the source's contents
  // (unloading its read-only mapping first). False when no frame is free.
  bool BreakCow(ck::CkApi& api, VSpace& sp, PageRecord& page);
  // The mapping descriptor of a materialized page in `space`; an unbroken
  // deferred copy maps its source read-only. False when the page's signal
  // thread cannot be loaded.
  bool MappingSpecFor(ck::CkApi& api, ck::SpaceId space, const PageRecord& page,
                      ck::MappingSpec* spec);

  ck::KernelId self_;
  std::string name_;
  FramePool frames_;
  BackingStore backing_;
  uint32_t image_next_ = 0;  // program images allocate upward from page 0
  uint32_t swap_next_;       // swap pages allocate downward from the top
  std::vector<std::unique_ptr<VSpace>> spaces_;
  std::vector<std::unique_ptr<ThreadRec>> threads_;
  PagingStats paging_stats_;
  uint32_t halted_threads_ = 0;
  ck::PolicyTable policy_table_;

 private:
  // The checkpoint subsystem serializes/rebuilds the protected record state
  // without widening the public API (src/ckpt/checkpoint.cc).
  friend class ckckpt::AppKernelState;

  // Threads blocked on an asynchronous page-in, by the frame reserved for
  // it, in fault order; the completion resumes them all.
  std::multimap<cksim::PhysAddr, uint32_t> page_in_waiters_;
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_APP_KERNEL_BASE_H_

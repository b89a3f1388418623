#include "src/appkernel/app_kernel_base.h"

#include <algorithm>

#include "src/ckpt/serializer.h"

namespace ckapp {

using ck::CkApi;
using ck::HandlerAction;
using ckbase::CkStatus;
using cksim::PhysAddr;
using cksim::VirtAddr;

AppKernelBase::AppKernelBase(std::string name, uint32_t backing_pages,
                             cksim::Cycles backing_latency)
    : name_(std::move(name)),
      backing_(backing_pages, backing_latency),
      swap_next_(backing_pages) {}

AppKernelBase::~AppKernelBase() = default;

// ---------------------------------------------------------------------------
// Spaces and regions
// ---------------------------------------------------------------------------

uint32_t AppKernelBase::CreateSpace(CkApi& api, bool locked) {
  auto sp = std::make_unique<VSpace>();
  sp->cookie = spaces_.size();
  sp->locked = locked;
  ckbase::Result<ck::SpaceId> result = api.LoadSpace(sp->cookie, locked);
  sp->loaded = result.ok();
  if (result.ok()) {
    sp->ck_id = result.value();
  }
  spaces_.push_back(std::move(sp));
  return static_cast<uint32_t>(spaces_.size() - 1);
}

ck::SpaceId AppKernelBase::EnsureSpaceLoaded(CkApi& api, uint32_t index) {
  VSpace& sp = *spaces_[index];
  if (sp.loaded) {
    return sp.ck_id;
  }
  ckbase::Result<ck::SpaceId> result = api.LoadSpace(sp.cookie, sp.locked);
  if (result.ok()) {
    sp.ck_id = result.value();
    sp.loaded = true;
    // All mappings were written back with the space; they fault back in.
    for (auto& [vaddr, page] : sp.pages) {
      page.mapping_loaded = false;
    }
  }
  return sp.ck_id;
}

namespace {

// A fresh record at `vaddr`. Assigning over an old one takes it off the
// replacement lists but keeps its touch history: recency is about addresses.
PageRecord& DefinePage(VSpace& sp, VirtAddr vaddr) {
  PageRecord& page = sp.pages[vaddr];
  uint64_t touched = page.touched;
  page = PageRecord{};
  page.vaddr = vaddr;
  page.touched = touched;
  return page;
}

}  // namespace

void AppKernelBase::DefineZeroRegion(uint32_t space_index, VirtAddr vaddr, uint32_t pages,
                                     bool writable) {
  VSpace& sp = *spaces_[space_index];
  for (uint32_t i = 0; i < pages; ++i) {
    PageRecord& page = DefinePage(sp, vaddr + i * cksim::kPageSize);
    page.where = PageRecord::Where::kZeroFill;
    page.writable = writable;
  }
}

void AppKernelBase::DefineBackedRegion(uint32_t space_index, VirtAddr vaddr, uint32_t pages,
                                       uint32_t first_backing_page, bool writable) {
  VSpace& sp = *spaces_[space_index];
  for (uint32_t i = 0; i < pages; ++i) {
    PageRecord& page = DefinePage(sp, vaddr + i * cksim::kPageSize);
    page.where = PageRecord::Where::kBacking;
    page.writable = writable;
    page.backing_page = first_backing_page + i;
  }
}

void AppKernelBase::DefineFrameRegion(uint32_t space_index, VirtAddr vaddr, uint32_t pages,
                                      PhysAddr first_frame, bool writable, bool message,
                                      uint32_t signal_thread, bool locked) {
  VSpace& sp = *spaces_[space_index];
  for (uint32_t i = 0; i < pages; ++i) {
    PageRecord& page = DefinePage(sp, vaddr + i * cksim::kPageSize);
    page.where = PageRecord::Where::kResident;
    page.writable = writable;
    page.message = message;
    page.locked = locked;
    page.frame_owned = false;
    page.fixed_frame = first_frame + i * cksim::kPageSize;
    page.frame = page.fixed_frame;
    page.signal_thread = signal_thread;
  }
}

void AppKernelBase::DefineCowRegion(uint32_t space_index, VirtAddr vaddr, uint32_t pages,
                                    PhysAddr source_first_frame) {
  VSpace& sp = *spaces_[space_index];
  for (uint32_t i = 0; i < pages; ++i) {
    PageRecord& page = DefinePage(sp, vaddr + i * cksim::kPageSize);
    page.where = PageRecord::Where::kZeroFill;  // shares the source until written
    page.writable = true;
    page.cow_source = source_first_frame + i * cksim::kPageSize;
  }
}

uint32_t AppKernelBase::LoadProgramImage(uint32_t space_index, const ckisa::Program& program,
                                         bool writable) {
  uint32_t bytes = program.SizeBytes();
  uint32_t pages = (bytes + cksim::kPageSize - 1) / cksim::kPageSize;
  // Image pages allocate upward from 0; swap pages downward from the top.
  if (pages > swap_next_ - image_next_) {
    return kNoBackingPage;
  }
  uint32_t first = image_next_;
  image_next_ += pages;
  for (uint32_t i = 0; i < pages; ++i) {
    uint32_t chunk = std::min<uint32_t>(cksim::kPageSize, bytes - i * cksim::kPageSize);
    backing_.WriteBytes(first + i, 0,
                        reinterpret_cast<const uint8_t*>(program.words.data()) +
                            static_cast<size_t>(i) * cksim::kPageSize,
                        chunk);
  }
  DefineBackedRegion(space_index, program.base, pages, first, writable);
  return first;
}

uint32_t AppKernelBase::AllocateSwapPage() {
  // Swap grows downward from the top of the backing store and stops at the
  // program images below it.
  if (swap_next_ <= image_next_) {
    return kNoBackingPage;
  }
  return --swap_next_;
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

uint32_t AppKernelBase::CreateGuestThread(CkApi& api, const GuestThreadParams& params) {
  auto rec = std::make_unique<ThreadRec>();
  rec->cookie = threads_.size();
  rec->space_index = params.space_index;
  rec->priority = params.priority;
  rec->cpu_hint = params.cpu_hint;
  rec->locked = params.locked;
  rec->signal_handler = params.signal_handler;
  rec->exception_stack = params.exception_stack;
  rec->saved.pc = params.entry;
  rec->saved.regs[ckisa::kRegSp] = params.stack_top;
  threads_.push_back(std::move(rec));
  uint32_t index = static_cast<uint32_t>(threads_.size() - 1);
  EnsureThreadLoaded(api, index);
  return index;
}

uint32_t AppKernelBase::CreateNativeThread(CkApi& api, uint32_t space_index,
                                           ck::NativeProgram* program, uint8_t priority,
                                           bool locked, uint8_t cpu_hint) {
  auto rec = std::make_unique<ThreadRec>();
  rec->cookie = threads_.size();
  rec->space_index = space_index;
  rec->priority = priority;
  rec->cpu_hint = cpu_hint;
  rec->locked = locked;
  rec->native = program;
  rec->native_record = true;
  threads_.push_back(std::move(rec));
  uint32_t index = static_cast<uint32_t>(threads_.size() - 1);
  EnsureThreadLoaded(api, index);
  return index;
}

CkStatus AppKernelBase::EnsureThreadLoaded(CkApi& api, uint32_t index) {
  ThreadRec& rec = *threads_[index];
  if (rec.loaded) {
    return CkStatus::kOk;
  }
  if (rec.finished) {
    return CkStatus::kInvalidArgument;
  }
  // Retry-on-stale: the space identifier may have gone stale since the
  // record was saved; reload the space and retry the thread load (section 2).
  for (int attempt = 0; attempt < 2; ++attempt) {
    ck::ThreadSpec spec;
    spec.space = EnsureSpaceLoaded(api, rec.space_index);
    spec.cookie = rec.cookie;
    spec.priority = rec.priority;
    spec.cpu_hint = rec.cpu_hint;
    spec.locked = rec.locked;
    spec.start_blocked = rec.was_blocked;
    spec.vm = rec.saved;
    spec.native = rec.native;
    spec.signal_handler = rec.signal_handler;
    spec.exception_stack = rec.exception_stack;
    ckbase::Result<ck::ThreadId> result = api.LoadThread(spec);
    if (result.ok()) {
      rec.ck_id = result.value();
      rec.loaded = true;
      return CkStatus::kOk;
    }
    if (result.status() != CkStatus::kStale) {
      return result.status();
    }
    paging_stats_.stale_retries++;
    spaces_[rec.space_index]->loaded = false;  // force reload next attempt
  }
  return CkStatus::kStale;
}

void AppKernelBase::UnloadThreadByIndex(CkApi& api, uint32_t index) {
  ThreadRec& rec = *threads_[index];
  if (rec.loaded) {
    api.UnloadThread(rec.ck_id);  // fires OnThreadWriteback -> loaded=false
  }
}

bool AppKernelBase::AllThreadsFinished() const {
  for (const auto& rec : threads_) {
    if (!rec->finished) {
      return false;
    }
  }
  return !threads_.empty();
}

// ---------------------------------------------------------------------------
// Frames, eviction, replacement
// ---------------------------------------------------------------------------

VirtAddr AppKernelBase::ChooseVictim(VSpace& sp) {
  // Default FIFO over this space's resident pages; skip unevictable ones.
  for (PageRecord* page : sp.resident) {
    if (page->frame_owned && !page->locked && !page->message) {
      return page->vaddr;
    }
  }
  return 0;
}

void AppKernelBase::LinkResident(VSpace& sp, PageRecord& page, PhysAddr frame) {
  page.frame = frame;
  page.where = PageRecord::Where::kResident;
  UnlinkResident(page);  // a record is on each list at most once
  sp.resident.PushBack(&page);
  if (page.touched == 0) {
    return;
  }
  // Usually the latest touch: the walk stops at once.
  PageRecord* next = nullptr;
  for (PageRecord* p = sp.recency.Back(); p != nullptr && p->touched > page.touched;
       p = sp.recency.Prev(p)) {
    next = p;
  }
  sp.recency.InsertBefore(next, &page);
}

void AppKernelBase::UnlinkResident(PageRecord& page) {
  page.resident_node.Unlink();
  page.recency_node.Unlink();
}

PhysAddr AppKernelBase::AllocateFrame(CkApi& api, VSpace& sp) {
  PhysAddr frame = frames_.Allocate();
  if (frame != 0) {
    return frame;
  }
  // Out of frames: evict. Try the faulting space first, then any space. A
  // refused eviction (swap exhausted) fails the allocation.
  VirtAddr victim = ChooseVictim(sp);
  if (victim == 0) {
    for (auto& other : spaces_) {
      victim = ChooseVictim(*other);
      if (victim != 0) {
        return EvictPage(api, static_cast<uint32_t>(other->cookie), victim) ? frames_.Allocate()
                                                                            : 0;
      }
    }
    return 0;
  }
  return EvictPage(api, static_cast<uint32_t>(sp.cookie), victim) ? frames_.Allocate() : 0;
}

bool AppKernelBase::EvictPage(CkApi& api, uint32_t space_index, VirtAddr vaddr) {
  VSpace& sp = *spaces_[space_index];
  PageRecord* page = sp.FindPage(vaddr);
  if (page == nullptr || page->where != PageRecord::Where::kResident) {
    return false;
  }
  // The unload below reports the modified bit, so check for somewhere to
  // write the page before committing to the eviction: a page that may be
  // dirty, with no backing page and no swap left, stays resident.
  bool may_be_dirty = page->dirty || (page->writable && page->mapping_loaded && sp.loaded);
  if (may_be_dirty && page->backing_page == kNoBackingPage && swap_next_ <= image_next_) {
    return false;
  }
  if (page->mapping_loaded && sp.loaded) {
    // The writeback reports the modified bit; OnMappingWriteback records it.
    api.UnloadMapping(sp.ck_id, vaddr);
  }
  paging_stats_.evictions++;
  if (page->dirty) {
    if (page->backing_page == kNoBackingPage) {
      page->backing_page = AllocateSwapPage();
    }
    backing_.WritePage(api, page->frame, page->backing_page);
    paging_stats_.pages_out++;
    page->dirty = false;
  }
  if (page->frame_owned) {
    frames_.Release(page->frame);
  }
  page->frame = 0;
  page->where = page->backing_page != kNoBackingPage ? PageRecord::Where::kBacking
                                                     : PageRecord::Where::kZeroFill;
  UnlinkResident(*page);
  return true;
}

bool AppKernelBase::MaterializePage(CkApi& api, VSpace& sp, PageRecord& page) {
  if (page.where == PageRecord::Where::kResident) {
    return true;
  }
  if (page.cow_source != 0) {
    // Untouched deferred copy: share the source until a write breaks it.
    page.frame = page.cow_source;
    page.frame_owned = false;
    page.where = PageRecord::Where::kResident;
    return true;
  }
  PhysAddr frame = AllocateFrame(api, sp);
  if (frame == 0) {
    return false;
  }
  if (page.where == PageRecord::Where::kZeroFill) {
    api.ZeroPage(frame);
    paging_stats_.zero_fills++;
  } else {
    backing_.ReadPage(api, page.backing_page, frame);
    paging_stats_.pages_in++;
  }
  LinkResident(sp, page, frame);
  return true;
}

bool AppKernelBase::BreakCow(CkApi& api, VSpace& sp, PageRecord& page) {
  PhysAddr private_frame = AllocateFrame(api, sp);
  if (private_frame == 0) {
    return false;
  }
  if (page.mapping_loaded && sp.loaded) {
    api.UnloadMapping(sp.ck_id, page.vaddr);  // the read-only mapping of the source
  }
  api.CopyPage(private_frame, page.cow_source);
  page.frame_owned = true;
  page.fixed_frame = 0;
  page.cow_source = 0;
  page.dirty = true;
  LinkResident(sp, page, private_frame);
  paging_stats_.cow_copies++;
  return true;
}

bool AppKernelBase::MappingSpecFor(CkApi& api, ck::SpaceId space, const PageRecord& page,
                                   ck::MappingSpec* spec) {
  spec->space = space;
  spec->vaddr = page.vaddr;
  spec->paddr = page.frame;
  spec->flags.writable = page.writable && page.cow_source == 0;
  spec->flags.message = page.message;
  spec->flags.copy_on_write = page.cow_source != 0;
  spec->cow_source = page.cow_source;
  spec->locked = page.locked;
  if (page.signal_thread != kNoThread) {
    if (EnsureThreadLoaded(api, page.signal_thread) != CkStatus::kOk) {
      return false;
    }
    spec->signal_thread = threads_[page.signal_thread]->ck_id;
  }
  return true;
}

bool AppKernelBase::ReadGuest(CkApi& api, uint32_t space_index, VirtAddr vaddr, void* out,
                              uint32_t len) {
  VSpace& sp = *spaces_[space_index];
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    VirtAddr page_vaddr = vaddr & ~static_cast<VirtAddr>(cksim::kPageOffsetMask);
    PageRecord* page = sp.FindPage(page_vaddr);
    if (page == nullptr || !MaterializePage(api, sp, *page)) {
      return false;
    }
    uint32_t offset = vaddr - page_vaddr;
    uint32_t chunk = std::min(len, cksim::kPageSize - offset);
    if (api.ReadPhys(page->frame + offset, dst, chunk) != CkStatus::kOk) {
      return false;
    }
    vaddr += chunk;
    dst += chunk;
    len -= chunk;
  }
  return true;
}

bool AppKernelBase::WriteGuest(CkApi& api, uint32_t space_index, VirtAddr vaddr, const void* data,
                               uint32_t len) {
  VSpace& sp = *spaces_[space_index];
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    VirtAddr page_vaddr = vaddr & ~static_cast<VirtAddr>(cksim::kPageOffsetMask);
    PageRecord* page = sp.FindPage(page_vaddr);
    if (page == nullptr ||
        !(page->cow_source != 0 ? BreakCow(api, sp, *page) : MaterializePage(api, sp, *page))) {
      return false;
    }
    uint32_t offset = vaddr - page_vaddr;
    uint32_t chunk = std::min(len, cksim::kPageSize - offset);
    if (api.WritePhys(page->frame + offset, src, chunk) != CkStatus::kOk) {
      return false;
    }
    page->dirty = true;
    vaddr += chunk;
    src += chunk;
    len -= chunk;
  }
  return true;
}

CkStatus AppKernelBase::EnsureMappingLoaded(CkApi& api, uint32_t space_index, VirtAddr vaddr) {
  VSpace& sp = *spaces_[space_index];
  PageRecord* page = sp.FindPage(vaddr);
  if (page == nullptr) {
    return CkStatus::kNotFound;
  }
  if (page->mapping_loaded && sp.loaded) {
    return CkStatus::kOk;
  }
  // Materialize contents if needed (synchronous path; callers are native
  // app-kernel threads and page-in completions, not faulting guests).
  if (!MaterializePage(api, sp, *page)) {
    return CkStatus::kNoResources;
  }
  ck::MappingSpec spec;
  if (!MappingSpecFor(api, EnsureSpaceLoaded(api, space_index), *page, &spec)) {
    return CkStatus::kStale;
  }
  CkStatus status = api.LoadMapping(spec);
  if (status == CkStatus::kStale) {
    paging_stats_.stale_retries++;
    sp.loaded = false;
    spec.space = EnsureSpaceLoaded(api, space_index);
    status = api.LoadMapping(spec);
  }
  if (status == CkStatus::kOk) {
    page->mapping_loaded = true;
  }
  return status;
}

// ---------------------------------------------------------------------------
// Fault handling (Figure 2 step 3: navigate records, pick a frame, load)
// ---------------------------------------------------------------------------

HandlerAction AppKernelBase::OnIllegalAccess(const ck::FaultForward& fault, CkApi& api) {
  (void)api;
  (void)fault;
  paging_stats_.illegal_accesses++;
  return HandlerAction::kTerminate;
}

HandlerAction AppKernelBase::HandleFault(const ck::FaultForward& fault, CkApi& api) {
  paging_stats_.faults++;
  const cksim::CostModel& cost = api.kernel().machine().cost();
  api.Charge(cost.app_policy_lookup);

  if (fault.fault.type == cksim::FaultType::kConsistency) {
    return OnConsistencyFault(fault, api);
  }
  if (fault.fault.type == cksim::FaultType::kBadAlignment ||
      fault.fault.type == cksim::FaultType::kBadInstruction ||
      fault.fault.type == cksim::FaultType::kPrivilege) {
    return OnIllegalAccess(fault, api);
  }

  if (fault.space_cookie >= spaces_.size()) {
    return OnIllegalAccess(fault, api);
  }
  VSpace& sp = *spaces_[fault.space_cookie];
  VirtAddr page_vaddr = fault.fault.address & ~static_cast<VirtAddr>(cksim::kPageOffsetMask);
  PageRecord* page = sp.FindPage(page_vaddr);
  if (page == nullptr) {
    return OnIllegalAccess(fault, api);
  }

  bool want_write = fault.fault.access == cksim::Access::kWrite;
  bool cow_fault = page->cow_source != 0 && want_write;
  if (want_write && !page->writable && !cow_fault) {
    return OnIllegalAccess(fault, api);
  }

  return ResolvePageFault(fault, sp, *page, page_vaddr, api);
}

HandlerAction AppKernelBase::ResolvePageFault(const ck::FaultForward& fault, VSpace& sp,
                                              PageRecord& page, VirtAddr page_vaddr, CkApi& api) {
  if (page.cow_source != 0 && fault.fault.access == cksim::Access::kWrite) {
    if (!BreakCow(api, sp, page)) {
      return OnIllegalAccess(fault, api);
    }
  } else if (page.where == PageRecord::Where::kBacking && UseAsyncPaging()) {
    // Block the thread; complete the page-in after the disk latency. A page
    // still in the backing store with a frame has its page-in in flight:
    // the thread waits for that one.
    PhysAddr frame = page.frame;
    if (frame == 0 && (frame = AllocateFrame(api, sp)) == 0) {
      return OnIllegalAccess(fault, api);
    }
    // The waiter is identified by its stable record index, NOT its Cache
    // Kernel identifier: the descriptor may be reclaimed and reloaded (new
    // identifier) while the I/O is in flight.
    uint32_t waiter_index = static_cast<uint32_t>(fault.thread_cookie);
    if (waiter_index < threads_.size()) {
      threads_[waiter_index]->paging_blocked = true;
    }
    page_in_waiters_.emplace(frame, waiter_index);
    if (page.frame != 0) {
      return HandlerAction::kBlock;
    }
    paging_stats_.pages_in++;
    uint32_t space_index = static_cast<uint32_t>(sp.cookie);
    uint32_t backing_page = page.backing_page;
    page.frame = frame;  // reserved; contents arrive with the event
    api.ScheduleAfter(backing_.latency(), [this, space_index, page_vaddr, backing_page,
                                           frame](CkApi& later) {
      auto waiting = page_in_waiters_.equal_range(frame);
      std::vector<uint32_t> waiters;
      for (auto it = waiting.first; it != waiting.second; ++it) {
        waiters.push_back(it->second);
      }
      page_in_waiters_.erase(waiting.first, waiting.second);
      VSpace& vs = *spaces_[space_index];
      PageRecord* p = vs.FindPage(page_vaddr);
      if (p == nullptr || p->frame != frame) {
        return;  // the page was repurposed while the I/O was in flight
      }
      backing_.ReadPage(later, backing_page, frame, /*charge_latency=*/false);
      LinkResident(vs, *p, frame);
      EnsureMappingLoaded(later, space_index, page_vaddr);
      for (uint32_t waiter : waiters) {
        if (waiter >= threads_.size()) {
          continue;
        }
        ThreadRec& rec = *threads_[waiter];
        rec.paging_blocked = false;
        if (!rec.loaded && !rec.finished) {
          rec.was_blocked = true;
          EnsureThreadLoaded(later, waiter);
        }
        if (rec.loaded) {
          later.ResumeThread(rec.ck_id);
        }
      }
    });
    return HandlerAction::kBlock;
  } else if (!MaterializePage(api, sp, page)) {
    return OnIllegalAccess(fault, api);
  }

  // Load the mapping descriptor and restart the thread in one call
  // (the optimized combined operation, section 2.1).
  ck::MappingSpec spec;
  if (!MappingSpecFor(api, sp.ck_id, page, &spec)) {
    return OnIllegalAccess(fault, api);
  }
  api.Charge(api.kernel().machine().cost().app_handler_base);
  CkStatus status = api.LoadMappingAndResume(spec, fault.thread);
  if (status == CkStatus::kStale) {
    // The space descriptor was written back while we worked; reload, retry.
    paging_stats_.stale_retries++;
    sp.loaded = false;
    spec.space = EnsureSpaceLoaded(api, static_cast<uint32_t>(sp.cookie));
    status = api.LoadMappingAndResume(spec, fault.thread);
  }
  if (status != CkStatus::kOk) {
    return OnIllegalAccess(fault, api);
  }
  page.mapping_loaded = true;
  return HandlerAction::kResumed;
}

ck::TrapAction AppKernelBase::HandleTrap(const ck::TrapForward& trap, CkApi& api) {
  (void)trap;
  (void)api;
  // No syscall interface by default; subclasses (the UNIX emulator) provide
  // one. Unknown traps terminate the thread.
  ck::TrapAction action;
  action.action = HandlerAction::kTerminate;
  return action;
}

// ---------------------------------------------------------------------------
// Writeback channel
// ---------------------------------------------------------------------------

void AppKernelBase::OnMappingWriteback(const ck::MappingWriteback& record, CkApi& api) {
  (void)api;
  if (record.space_cookie >= spaces_.size()) {
    return;
  }
  VSpace& sp = *spaces_[record.space_cookie];
  PageRecord* page = sp.FindPage(record.vaddr);
  if (page == nullptr) {
    return;
  }
  // The mapping descriptor left the Cache Kernel; the frame and its contents
  // remain ours. "The application kernel uses this writeback information to
  // update its records about the state of this page" -- in particular the
  // modified bit decides whether backing store must be refreshed before the
  // frame is reused (section 2.1).
  page->mapping_loaded = false;
  page->dirty = page->dirty || record.modified;
}

void AppKernelBase::OnThreadWriteback(const ck::ThreadWriteback& record, CkApi& api) {
  (void)api;
  if (record.cookie >= threads_.size()) {
    return;
  }
  ThreadRec& rec = *threads_[record.cookie];
  rec.loaded = false;
  rec.saved = record.context;
  rec.was_blocked = record.was_blocked;
  rec.total_consumed += record.cpu_consumed;
}

void AppKernelBase::OnSpaceWriteback(const ck::SpaceWriteback& record, CkApi& api) {
  (void)api;
  if (record.cookie >= spaces_.size()) {
    return;
  }
  VSpace& sp = *spaces_[record.cookie];
  sp.loaded = false;
  for (auto& [vaddr, page] : sp.pages) {
    page.mapping_loaded = false;
  }
}

// Replacement-policy state rides the kAppExtra record: per descriptor type,
// whether a guest policy program is loaded and its words, so a restored or
// migrated kernel resumes with an identical PolicyTable. Subclasses that add
// their own extra state must chain these base versions first, in the same
// order on both sides.
void AppKernelBase::CaptureExtra(ckckpt::Writer& w, CkApi& api) {
  (void)api;
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    const ck::GuestPolicy& g = policy_table_.guest[t];
    w.Bool(g.enabled);
    w.U32(static_cast<uint32_t>(g.words.size()));
    for (uint32_t word : g.words) {
      w.U32(word);
    }
  }
}

void AppKernelBase::RestoreExtra(ckckpt::Reader& r, CkApi& api) {
  (void)api;
  for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
    ck::GuestPolicy& g = policy_table_.guest[t];
    g.enabled = r.Bool();
    uint32_t words = r.U32();
    if (words > ck::kMaxPolicyProgramWords) {
      r.Fail("policy program exceeds kMaxPolicyProgramWords");
      return;
    }
    g.words.assign(words, 0);
    for (uint32_t i = 0; i < words; ++i) {
      g.words[i] = r.U32();
    }
    if (!r.ok()) {
      return;
    }
  }
}

std::string AppKernelBase::InstallPolicyProgram(CkApi& api, ck::ObjectType type,
                                                const std::string& source) {
  ckisa::AssembleResult assembled = ckisa::Assemble(source, ck::kPolicyCodeBase);
  if (!assembled.ok) {
    return "assemble: " + assembled.error;
  }
  CkStatus status = api.LoadPolicy(type, assembled.program.words.data(),
                                   static_cast<uint32_t>(assembled.program.words.size()));
  if (status != CkStatus::kOk) {
    return "LoadPolicy: " + std::string(ckbase::CkStatusName(status));
  }
  return std::string();
}

void AppKernelBase::OnThreadHalt(ck::ThreadId thread, uint64_t cookie, CkApi& api) {
  if (cookie >= threads_.size()) {
    return;
  }
  ThreadRec& rec = *threads_[cookie];
  rec.finished = true;
  ++halted_threads_;
  OnGuestFinished(static_cast<uint32_t>(cookie), api);
  if (rec.loaded) {
    api.UnloadThread(thread);
  }
}

}  // namespace ckapp

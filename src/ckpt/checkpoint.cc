#include "src/ckpt/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

namespace ckckpt {

using ckapp::AppKernelBase;
using ckapp::PageRecord;
using ckapp::ThreadRec;
using ckapp::VSpace;
using cksim::kPageSize;
using cksim::PhysAddr;
using cksim::VirtAddr;

namespace {

bool PageIsZero(const uint8_t* data) {
  static const uint8_t kZeroPage[kPageSize] = {};
  return std::memcmp(data, kZeroPage, kPageSize) == 0;
}

void WritePageRecord(Writer& w, VirtAddr vaddr, const PageRecord& page) {
  w.U32(vaddr);
  w.U8(static_cast<uint8_t>(page.where));
  w.Bool(page.writable);
  w.Bool(page.message);
  w.Bool(page.locked);
  w.Bool(page.dirty);
  w.Bool(page.frame_owned);
  w.Bool(page.mapping_loaded);
  w.U32(page.backing_page);
  w.U32(page.frame);
  w.U32(page.fixed_frame);
  w.U32(page.signal_thread);
  w.U32(page.cow_source);
}

using PageEntry = decltype(VSpace::pages)::value_type;

// A space's page records in ascending address order: images and state
// listings give them in this order, whatever order the hash map keeps.
std::vector<const PageEntry*> SortedPages(const VSpace& sp) {
  std::vector<const PageEntry*> sorted;
  sorted.reserve(sp.pages.size());
  for (const PageEntry& entry : sp.pages) {
    sorted.push_back(&entry);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const PageEntry* a, const PageEntry* b) { return a->first < b->first; });
  return sorted;
}

struct DecodedPage {
  VirtAddr vaddr = 0;
  PageRecord page;
};

struct DecodedSpace {
  bool locked = false;
  std::vector<DecodedPage> pages;
  std::vector<VirtAddr> resident;
};

void ReadPageRecord(Reader& r, DecodedPage* out) {
  out->vaddr = r.U32();
  out->page.vaddr = out->vaddr;
  uint8_t where = r.U8();
  if (where > static_cast<uint8_t>(PageRecord::Where::kResident)) {
    r.Fail("page record with invalid residency state");
    return;
  }
  out->page.where = static_cast<PageRecord::Where>(where);
  out->page.writable = r.Bool();
  out->page.message = r.Bool();
  out->page.locked = r.Bool();
  out->page.dirty = r.Bool();
  out->page.frame_owned = r.Bool();
  out->page.mapping_loaded = r.Bool();
  out->page.backing_page = r.U32();
  out->page.frame = r.U32();
  out->page.fixed_frame = r.U32();
  out->page.signal_thread = r.U32();
  out->page.cow_source = r.U32();
}

}  // namespace

void AppKernelState::Capture(AppKernelBase& app, ck::CkApi& api, CkptImage* image) {
  // Header: identity and capture time (informational; restore keys off the
  // typed records, not the header).
  {
    Writer w;
    w.Str(app.name_);
    w.U64(api.now());
    w.U32(static_cast<uint32_t>(app.spaces_.size()));
    w.U32(static_cast<uint32_t>(app.threads_.size()));
    image->Append(RecordType::kHeader, w.Take());
  }

  // Backing store: geometry, allocators, then every non-zero page (restore
  // starts from a zeroed store, so zero pages need no record). A page never
  // written reads as zeros, so only written pages are tested.
  {
    Writer w;
    w.U32(app.backing_.page_count());
    w.U64(app.backing_.latency());
    w.U32(app.image_next_);
    w.U32(app.swap_next_);
    image->Append(RecordType::kBackingMeta, w.Take());
  }
  app.backing_.ForEachWritten([image](uint32_t p, const uint8_t* data) {
    if (PageIsZero(data)) {
      return;
    }
    Writer w;
    w.U32(p);
    w.Bytes(data, kPageSize);
    image->Append(RecordType::kBackingPage, w.Take());
  });

  // Spaces: every page record plus the FIFO replacement order (part of the
  // observable state -- it decides future victim choice).
  std::set<PhysAddr> owned_frames;
  for (const auto& sp : app.spaces_) {
    Writer w;
    w.Bool(sp->locked);
    w.U32(static_cast<uint32_t>(sp->pages.size()));
    for (const PageEntry* entry : SortedPages(*sp)) {
      const auto& [vaddr, page] = *entry;
      WritePageRecord(w, vaddr, page);
      if (page.where == PageRecord::Where::kResident && page.frame_owned && page.frame != 0) {
        owned_frames.insert(page.frame);
      }
    }
    w.U32(static_cast<uint32_t>(sp->resident.Size()));
    for (const PageRecord* page : sp->resident) {
      w.U32(page->vaddr);
    }
    image->Append(RecordType::kSpace, w.Take());
  }

  // Contents of every resident frame: owned frames (the app's working set)
  // and fixed frames alike -- message-channel pages carry in-flight payloads
  // that must follow the kernel to the target machine.
  std::vector<uint8_t> buf(kPageSize);
  for (uint32_t s = 0; s < app.spaces_.size(); ++s) {
    for (const PageEntry* entry : SortedPages(*app.spaces_[s])) {
      const auto& [vaddr, page] = *entry;
      if (page.where != PageRecord::Where::kResident || page.frame == 0) {
        continue;
      }
      api.ReadPhys(page.frame, buf.data(), kPageSize);
      Writer w;
      w.U32(s);
      w.U32(vaddr);
      // Tier placement (docs/TIERING.md) is observable state: it decides the
      // frame's access cost and future victim choice, so it migrates with
      // the contents.
      w.U8(api.FrameTier(page.frame));
      w.Bytes(buf.data(), kPageSize);
      image->Append(RecordType::kPageContents, w.Take());
    }
  }

  // Deferred-copy source frames that are not owned by any page record (e.g.
  // a template frame the app mapped copy-on-write): capture their contents
  // keyed by the old frame address so restore can rebuild the sharing.
  std::set<PhysAddr> shared_done;
  for (const auto& sp : app.spaces_) {
    for (const PageEntry* entry : SortedPages(*sp)) {
      PhysAddr source = entry->second.cow_source;
      if (source == 0 || owned_frames.count(source) != 0 || shared_done.count(source) != 0) {
        continue;
      }
      shared_done.insert(source);
      api.ReadPhys(source, buf.data(), kPageSize);
      Writer w;
      w.U32(source);
      w.U8(api.FrameTier(source));
      w.Bytes(buf.data(), kPageSize);
      image->Append(RecordType::kSharedFrame, w.Take());
    }
  }

  // Threads: the saved contexts are exactly what the writeback protocol
  // deposited in the records.
  for (const auto& rec : app.threads_) {
    Writer w;
    w.U32(rec->space_index);
    w.U8(rec->priority);
    w.U8(rec->cpu_hint);
    w.Bool(rec->locked);
    w.Bool(rec->finished);
    w.Bool(rec->was_blocked);
    w.Bool(rec->paging_blocked);
    w.Bool(rec->native_record);
    w.U32(rec->signal_handler);
    w.U32(rec->exception_stack);
    w.U64(rec->total_consumed);
    for (uint32_t reg : rec->saved.regs) {
      w.U32(reg);
    }
    w.U32(rec->saved.pc);
    image->Append(RecordType::kThread, w.Take());
  }

  {
    Writer w;
    w.U64(app.paging_stats_.faults);
    w.U64(app.paging_stats_.zero_fills);
    w.U64(app.paging_stats_.pages_in);
    w.U64(app.paging_stats_.pages_out);
    w.U64(app.paging_stats_.evictions);
    w.U64(app.paging_stats_.illegal_accesses);
    w.U64(app.paging_stats_.cow_copies);
    w.U64(app.paging_stats_.stale_retries);
    image->Append(RecordType::kPagingStats, w.Take());
  }

  {
    Writer w;
    app.CaptureExtra(w, api);
    image->Append(RecordType::kAppExtra, w.Take());
  }

  image->Append(RecordType::kEnd, {});
}

bool AppKernelState::Restore(AppKernelBase& app, ck::CkApi& api, const CkptImage& image,
                             const RestoreOptions& options, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "restore: " + why;
    }
    return false;
  };
  if (!app.spaces_.empty() || !app.threads_.empty()) {
    return fail("target kernel is not a fresh instance");
  }

  // ---- decode everything before touching the target ----
  const CkptRecord* meta = image.Find(RecordType::kBackingMeta);
  if (meta == nullptr || image.Find(RecordType::kEnd) == nullptr) {
    return fail("image missing required records");
  }
  uint32_t backing_pages = 0;
  uint32_t image_next = 0;
  uint32_t swap_next = 0;
  {
    Reader r(meta->payload);
    backing_pages = r.U32();
    r.U64();  // latency: the target instance's own configuration governs
    image_next = r.U32();
    swap_next = r.U32();
    if (!r.ok()) {
      return fail("bad backing metadata: " + r.error());
    }
  }
  if (backing_pages != app.backing_.page_count()) {
    std::ostringstream os;
    os << "backing store geometry mismatch (image " << backing_pages << " pages, target "
       << app.backing_.page_count() << ")";
    return fail(os.str());
  }
  // Images allocate upward from 0 and swap downward from the top.
  if (image_next > swap_next || swap_next > backing_pages) {
    return fail("backing allocators outside the store or crossed");
  }

  std::vector<DecodedSpace> spaces;
  std::vector<ThreadRec> threads;
  // (space, vaddr) -> contents + captured tier of the captured owned frame.
  struct CapturedFrame {
    const uint8_t* data = nullptr;
    uint8_t tier = 0;
  };
  std::map<std::pair<uint32_t, VirtAddr>, CapturedFrame> contents;
  struct SharedFrame {
    PhysAddr old_frame = 0;
    CapturedFrame captured;
  };
  std::vector<SharedFrame> shared_frames;
  std::vector<std::pair<uint32_t, const uint8_t*>> backing_writes;

  for (const CkptRecord& rec : image.records()) {
    Reader r(rec.payload);
    switch (rec.type) {
      case RecordType::kSpace: {
        DecodedSpace sp;
        sp.locked = r.Bool();
        uint32_t pages = r.U32();
        for (uint32_t i = 0; i < pages && r.ok(); ++i) {
          DecodedPage dp;
          ReadPageRecord(r, &dp);
          sp.pages.push_back(dp);
        }
        uint32_t fifo = r.U32();
        for (uint32_t i = 0; i < fifo && r.ok(); ++i) {
          sp.resident.push_back(r.U32());
        }
        if (!r.Done()) {
          return fail("bad space record: " + r.error());
        }
        spaces.push_back(std::move(sp));
        break;
      }
      case RecordType::kThread: {
        ThreadRec t;
        t.space_index = r.U32();
        t.priority = r.U8();
        t.cpu_hint = r.U8();
        t.locked = r.Bool();
        t.finished = r.Bool();
        t.was_blocked = r.Bool();
        t.paging_blocked = r.Bool();
        t.native_record = r.Bool();
        t.signal_handler = r.U32();
        t.exception_stack = r.U32();
        t.total_consumed = r.U64();
        for (uint32_t& reg : t.saved.regs) {
          reg = r.U32();
        }
        t.saved.pc = r.U32();
        if (!r.Done()) {
          return fail("bad thread record: " + r.error());
        }
        threads.push_back(t);
        break;
      }
      case RecordType::kPageContents: {
        uint32_t space = r.U32();
        VirtAddr vaddr = r.U32();
        uint8_t tier = r.U8();
        if (!r.ok() || r.remaining() != kPageSize || tier >= cksim::kMemTierCount) {
          return fail("bad page-contents record");
        }
        contents[{space, vaddr}] = CapturedFrame{rec.payload.data() + 9, tier};
        break;
      }
      case RecordType::kSharedFrame: {
        PhysAddr old_frame = r.U32();
        uint8_t tier = r.U8();
        if (!r.ok() || r.remaining() != kPageSize || tier >= cksim::kMemTierCount) {
          return fail("bad shared-frame record");
        }
        shared_frames.push_back(SharedFrame{old_frame, {rec.payload.data() + 5, tier}});
        break;
      }
      case RecordType::kBackingPage: {
        uint32_t index = r.U32();
        if (!r.ok() || r.remaining() != kPageSize || index >= backing_pages) {
          return fail("bad backing-page record");
        }
        backing_writes.emplace_back(index, rec.payload.data() + 4);
        break;
      }
      default:
        break;  // header/meta/stats/extra handled elsewhere
    }
  }

  for (const DecodedSpace& sp : spaces) {
    std::map<VirtAddr, const PageRecord*> by_vaddr;
    for (const DecodedPage& dp : sp.pages) {
      if (dp.page.signal_thread != ckapp::kNoThread && dp.page.signal_thread >= threads.size()) {
        return fail("page record names a signal thread beyond the thread table");
      }
      if ((dp.vaddr & cksim::kPageOffsetMask) != 0) {
        return fail("page record at an unaligned address");
      }
      // A backing page must lie inside the store; only a kBacking page must
      // have one.
      if (dp.page.backing_page >= backing_pages &&
          (dp.page.where == PageRecord::Where::kBacking ||
           dp.page.backing_page != ckapp::kNoBackingPage)) {
        return fail("page record's backing page does not fit its residency");
      }
      by_vaddr[dp.vaddr] = &dp.page;
    }
    // The resident list links each resident record at most once.
    std::set<VirtAddr> listed;
    for (VirtAddr vaddr : sp.resident) {
      auto it = by_vaddr.find(vaddr);
      if (it == by_vaddr.end() || it->second->where != PageRecord::Where::kResident ||
          !listed.insert(vaddr).second) {
        return fail("resident-list entry names no resident page record, or repeats");
      }
    }
  }
  for (const ThreadRec& t : threads) {
    if (t.space_index >= spaces.size()) {
      return fail("thread record names a space beyond the space table");
    }
  }

  // Every owned resident page must come with its captured contents, and the
  // target pool must be able to materialize all of them (plus the shared
  // deferred-copy sources). Checked before any mutation.
  uint32_t owned_resident = 0;
  for (uint32_t s = 0; s < spaces.size(); ++s) {
    for (const DecodedPage& dp : spaces[s].pages) {
      if (dp.page.where != PageRecord::Where::kResident || !dp.page.frame_owned) {
        continue;
      }
      if (contents.find({s, dp.vaddr}) == contents.end()) {
        return fail("resident page without captured contents");
      }
      ++owned_resident;
    }
  }
  uint32_t frames_needed = owned_resident + static_cast<uint32_t>(shared_frames.size());
  if (app.frames_.free_count() < frames_needed) {
    std::ostringstream os;
    os << "target frame pool too small (" << app.frames_.free_count() << " free, need "
       << frames_needed << ")";
    return fail(os.str());
  }

  // ---- apply ----
  for (auto [index, data] : backing_writes) {
    std::memcpy(app.backing_.MutablePage(index), data, kPageSize);
  }
  app.image_next_ = image_next;
  app.swap_next_ = swap_next;

  // Frame translation: explicit remaps first (device/channel regions), then
  // freshly allocated frames for owned contents and shared sources.
  std::map<PhysAddr, PhysAddr> xlat;
  for (const FrameRemap& remap : options.frame_remaps) {
    for (uint32_t i = 0; i < remap.pages; ++i) {
      xlat[remap.old_base + i * kPageSize] = remap.new_base + i * kPageSize;
    }
  }
  auto translate = [&xlat](PhysAddr old_frame) {
    auto it = xlat.find(old_frame);
    return it == xlat.end() ? old_frame : it->second;
  };
  // Old owned frame (per space/vaddr) -> freshly allocated frame, filled
  // with the captured contents. Owned frames enter the translation map too:
  // a cow_source may point at another page's owned frame.
  std::map<std::pair<uint32_t, VirtAddr>, PhysAddr> new_frame_of;
  for (uint32_t s = 0; s < spaces.size(); ++s) {
    for (const DecodedPage& dp : spaces[s].pages) {
      if (dp.page.where != PageRecord::Where::kResident || !dp.page.frame_owned) {
        continue;
      }
      PhysAddr frame = app.frames_.Allocate();
      const CapturedFrame& captured = contents.at({s, dp.vaddr});
      api.WritePhys(frame, captured.data, kPageSize);
      api.SetFrameTier(frame, captured.tier);
      new_frame_of[{s, dp.vaddr}] = frame;
      if (dp.page.frame != 0) {
        xlat[dp.page.frame] = frame;
      }
    }
  }
  for (const SharedFrame& shared : shared_frames) {
    PhysAddr frame = app.frames_.Allocate();
    api.WritePhys(frame, shared.captured.data, kPageSize);
    api.SetFrameTier(frame, shared.captured.tier);
    xlat[shared.old_frame] = frame;
  }

  for (uint32_t s = 0; s < spaces.size(); ++s) {
    auto vs = std::make_unique<VSpace>();
    vs->cookie = s;
    vs->locked = spaces[s].locked;
    vs->loaded = false;
    for (const DecodedPage& dp : spaces[s].pages) {
      PageRecord page = dp.page;
      page.mapping_loaded = false;  // mappings fault back in on the target
      if (page.cow_source != 0) {
        page.cow_source = translate(page.cow_source);
      }
      if (page.fixed_frame != 0) {
        page.fixed_frame = translate(page.fixed_frame);
      }
      if (page.where == PageRecord::Where::kResident) {
        if (page.frame_owned) {
          page.frame = new_frame_of.at({s, dp.vaddr});
        } else {
          // Fixed frame (device region, message channel): translate through
          // the caller's remaps and carry the captured payload across.
          page.frame = translate(page.frame);
          auto it = contents.find({s, dp.vaddr});
          if (it != contents.end() && page.frame != 0) {
            if (api.WritePhys(page.frame, it->second.data, kPageSize) != ckbase::CkStatus::kOk) {
              *error = "no write access to restored fixed frame (missing remap or grant?)";
              return false;
            }
          }
        }
      } else {
        page.frame = 0;
      }
      vs->pages[dp.vaddr] = page;
    }
    for (VirtAddr vaddr : spaces[s].resident) {
      PageRecord& page = vs->pages.at(vaddr);
      app.LinkResident(*vs, page, page.frame);
    }
    app.spaces_.push_back(std::move(vs));
  }

  app.halted_threads_ = 0;
  for (uint32_t i = 0; i < threads.size(); ++i) {
    auto rec = std::make_unique<ThreadRec>(threads[i]);
    rec->cookie = i;
    rec->loaded = false;
    rec->native = nullptr;
    if (rec->finished) {
      ++app.halted_threads_;
    }
    app.threads_.push_back(std::move(rec));
  }

  if (const CkptRecord* stats = image.Find(RecordType::kPagingStats)) {
    Reader r(stats->payload);
    app.paging_stats_.faults = r.U64();
    app.paging_stats_.zero_fills = r.U64();
    app.paging_stats_.pages_in = r.U64();
    app.paging_stats_.pages_out = r.U64();
    app.paging_stats_.evictions = r.U64();
    app.paging_stats_.illegal_accesses = r.U64();
    app.paging_stats_.cow_copies = r.U64();
    app.paging_stats_.stale_retries = r.U64();
    if (!r.Done()) {
      return fail("bad paging-stats record: " + r.error());
    }
  }

  if (const CkptRecord* extra = image.Find(RecordType::kAppExtra)) {
    Reader r(extra->payload);
    app.RestoreExtra(r, api);
    if (!r.ok()) {
      return fail("subclass state: " + r.error());
    }
  }
  return true;
}

bool AppKernelState::Resume(AppKernelBase& app, ck::CkApi& api, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "resume: " + why;
    }
    return false;
  };
  for (uint32_t i = 0; i < app.threads_.size(); ++i) {
    ThreadRec& rec = *app.threads_[i];
    if (rec.finished || !app.ShouldReloadOnRestore(i)) {
      continue;
    }
    if (rec.native_record && rec.native == nullptr) {
      return fail("native thread " + std::to_string(i) + " was not rebound by RestoreExtra");
    }
    if (rec.paging_blocked) {
      // The page-in this thread was waiting for died with the source MPM;
      // run it again from the faulting instruction.
      rec.paging_blocked = false;
      rec.was_blocked = false;
    }
    ckbase::CkStatus status = app.EnsureThreadLoaded(api, i);
    if (status != ckbase::CkStatus::kOk) {
      return fail("thread " + std::to_string(i) + " failed to reload");
    }
  }
  return true;
}

std::vector<std::pair<std::string, uint64_t>> AppKernelState::Digest(AppKernelBase& app,
                                                                     ck::CkApi& api) {
  std::vector<std::pair<std::string, uint64_t>> out;
  auto add = [&out](const std::string& name, uint64_t value) { out.emplace_back(name, value); };

  add("space_count", app.spaces_.size());
  add("thread_count", app.threads_.size());
  add("image_next", app.image_next_);
  add("swap_next", app.swap_next_);
  add("halted_threads", app.halted_threads_);

  std::vector<uint8_t> buf(kPageSize);
  for (uint32_t s = 0; s < app.spaces_.size(); ++s) {
    VSpace& sp = *app.spaces_[s];
    std::ostringstream sb;
    sb << "space" << s << ".";
    std::string prefix = sb.str();
    add(prefix + "locked", sp.locked ? 1 : 0);
    add(prefix + "pages", sp.pages.size());
    // FIFO order matters for future replacement; fold it into one CRC.
    uint32_t fifo_crc = 0;
    for (const PageRecord* page : sp.resident) {
      fifo_crc = Crc32(&page->vaddr, sizeof(page->vaddr), fifo_crc);
    }
    add(prefix + "fifo_crc", fifo_crc);
    for (const PageEntry* entry : SortedPages(sp)) {
      const auto& [vaddr, page] = *entry;
      std::ostringstream pb;
      pb << prefix << "page" << std::hex << vaddr << ".";
      std::string pp = pb.str();
      add(pp + "where", static_cast<uint64_t>(page.where));
      add(pp + "flags", (page.writable ? 1u : 0u) | (page.message ? 2u : 0u) |
                            (page.locked ? 4u : 0u) | (page.dirty ? 8u : 0u) |
                            (page.frame_owned ? 16u : 0u) | (page.fixed_frame != 0 ? 32u : 0u) |
                            (page.cow_source != 0 ? 64u : 0u));
      add(pp + "backing_page", page.backing_page);
      add(pp + "signal_thread", page.signal_thread);
      if (page.where == PageRecord::Where::kResident && page.frame != 0) {
        api.ReadPhys(page.frame, buf.data(), kPageSize);
        add(pp + "contents_crc", Crc32(buf.data(), kPageSize));
        if (page.frame_owned) {
          // Tier placement is part of the observable state for frames the
          // restore rebuilds (fixed frames keep the target's placement).
          add(pp + "tier", api.FrameTier(page.frame));
        }
      }
      if (page.backing_page != ckapp::kNoBackingPage &&
          page.backing_page < app.backing_.page_count()) {
        add(pp + "backing_crc", Crc32(app.backing_.PageData(page.backing_page), kPageSize));
      }
    }
  }

  for (uint32_t i = 0; i < app.threads_.size(); ++i) {
    ThreadRec& rec = *app.threads_[i];
    std::ostringstream tb;
    tb << "thread" << i << ".";
    std::string tp = tb.str();
    add(tp + "space", rec.space_index);
    add(tp + "priority", rec.priority);
    add(tp + "cpu_hint", rec.cpu_hint);
    add(tp + "flags", (rec.locked ? 1u : 0u) | (rec.finished ? 2u : 0u) |
                          (rec.was_blocked ? 4u : 0u) | (rec.paging_blocked ? 8u : 0u) |
                          (rec.native_record ? 16u : 0u));
    add(tp + "signal_handler", rec.signal_handler);
    add(tp + "exception_stack", rec.exception_stack);
    add(tp + "total_consumed", rec.total_consumed);
    uint32_t ctx_crc = Crc32(rec.saved.regs, sizeof(rec.saved.regs));
    ctx_crc = Crc32(&rec.saved.pc, sizeof(rec.saved.pc), ctx_crc);
    add(tp + "context_crc", ctx_crc);
  }

  add("stats.faults", app.paging_stats_.faults);
  add("stats.zero_fills", app.paging_stats_.zero_fills);
  add("stats.pages_in", app.paging_stats_.pages_in);
  add("stats.pages_out", app.paging_stats_.pages_out);
  add("stats.evictions", app.paging_stats_.evictions);
  add("stats.illegal_accesses", app.paging_stats_.illegal_accesses);
  add("stats.cow_copies", app.paging_stats_.cow_copies);
  add("stats.stale_retries", app.paging_stats_.stale_retries);
  return out;
}

}  // namespace ckckpt

#include "src/fs/client_cache.h"

#include <bit>

namespace ckfs {

using ck::CkApi;
using cksim::kPageSize;

namespace {

// Virtual layout of the cache's channel windows inside its (dedicated) space.
constexpr cksim::VirtAddr kFsOutVBase = 0x30000000;
constexpr cksim::VirtAddr kFsInVBase = 0x30100000;

// Simulated CPU cost of copying one cached page to the caller.
constexpr cksim::Cycles kHitCopyCost = 150;

// Read-ahead shape: once kMinSeqRun consecutive pages have been read, each
// read prefetches up to kReadaheadWindow pages past it, with at most
// kMaxOutstanding read RPCs in flight (below the rx ring's slots).
constexpr uint32_t kReadaheadWindow = 4;
constexpr uint32_t kMinSeqRun = 2;
constexpr uint32_t kMaxOutstanding = 4;

}  // namespace

// The link's endpoint thread. RpcEndpoint handles the packet plane (our
// replies, the server's invalidation pushes); on top of that the pump polls
// the device's bulk queue, because bulk deliveries raise no signal: it
// spins (kYield) whenever read acks have announced payloads that have not
// been polled yet, and blocks otherwise. Acks travel the packet path
// (due = send + latency) while their payloads add serialization time on
// top, so the ack's signal always wakes the pump before the first payload
// is due -- the pump never blocks through a delivery. A poll that claims
// nothing promises quiet until the next payload is due
// (NativeOutcome::quiet_until), so the spin costs one turn per arrival.
class ClientFileCache::Pump : public ckapp::RpcEndpoint {
 public:
  explicit Pump(ClientFileCache& cache)
      : ckapp::RpcEndpoint(
            cache.out_, cache.in_,
            [&cache](uint32_t op, const std::vector<uint8_t>& request, CkApi& api) {
              return cache.ServePeer(op, request, api);
            }),
        cache_(cache) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    const bool claimed = cache_.DrainBulk(ctx.api());
    ck::NativeOutcome outcome;
    if (!cache_.TransfersPending()) {
      outcome.action = ck::NativeOutcome::Action::kBlock;
    } else if (!claimed) {
      outcome.quiet_until = cache_.device_->NextBulkDue();
    }
    return outcome;
  }

  void OnSignal(cksim::VirtAddr message_addr, ck::NativeCtx& ctx) override {
    ckapp::RpcEndpoint::OnSignal(message_addr, ctx);
    cache_.DrainBulk(ctx.api());
  }

 private:
  ClientFileCache& cache_;
};

ClientFileCache::ClientFileCache(ckapp::AppKernelBase& owner, ck::CacheKernel& /*ck*/,
                                 const Config& config)
    : owner_(owner), config_(config) {
  if (config_.max_file_pages > 64) {
    config_.max_file_pages = 64;  // bitmap width
  }
  entries_.resize(config_.entries);
  for (uint32_t i = 0; i < kHashBuckets; ++i) {
    hash_[i] = kNone;
  }
}

ClientFileCache::~ClientFileCache() {
  for (Entry& entry : entries_) {
    for (cksim::PhysAddr frame : entry.frames) {
      if (frame != 0) {
        owner_.frames().Release(frame);
      }
    }
  }
}

void ClientFileCache::Bind(CkApi& api, uint32_t space_index,
                           cksim::FiberChannelDevice* device) {
  device_ = device;
  pump_ = std::make_unique<Pump>(*this);
  pump_thread_ = owner_.CreateNativeThread(api, space_index, pump_.get(),
                                           /*priority=*/26, /*locked=*/true);
  out_.ConfigureSender(owner_, space_index, kFsOutVBase, device->tx_slot(0),
                       device->tx_slot_count());
  in_.ConfigureReceiver(owner_, space_index, kFsInVBase, device->rx_slot(0),
                        device->rx_slot_count(), pump_thread_);
  in_.PrimeReceiver(api);
  pump_->Call(api, kOpRegister, std::vector<uint8_t>(),
              [this](const std::vector<uint8_t>&, CkApi&) { registered_ = true; });
}

// ---- hashed-LRU entry table ----

ClientFileCache::Entry* ClientFileCache::Lookup(uint32_t fileid) {
  for (uint32_t i = hash_[fileid % kHashBuckets]; i != kNone; i = entries_[i].hash_next) {
    if (entries_[i].fileid == fileid) {
      return &entries_[i];
    }
  }
  return nullptr;
}

const ClientFileCache::Entry* ClientFileCache::Lookup(uint32_t fileid) const {
  for (uint32_t i = hash_[fileid % kHashBuckets]; i != kNone; i = entries_[i].hash_next) {
    if (entries_[i].fileid == fileid) {
      return &entries_[i];
    }
  }
  return nullptr;
}

void ClientFileCache::Touch(Entry& entry) {
  lru_.Remove(&entry);
  lru_.PushFront(&entry);
}

void ClientFileCache::HashRemove(Entry& entry) {
  uint32_t index = IndexOf(entry);
  uint32_t* link = &hash_[entry.fileid % kHashBuckets];
  while (*link != kNone) {
    if (*link == index) {
      *link = entry.hash_next;
      return;
    }
    link = &entries_[*link].hash_next;
  }
}

void ClientFileCache::DropEntry(Entry& entry) {
  for (cksim::PhysAddr& frame : entry.frames) {
    if (frame != 0) {
      owner_.frames().Release(frame);
      frame = 0;
    }
  }
  HashRemove(entry);
  entry = Entry{};  // also takes it off the LRU list
}

bool ClientFileCache::EvictOne(uint32_t keep_fileid) {
  // Walk from the LRU tail; entries with transfers in flight are pinned
  // (their bulk payloads would have nowhere to land their bookkeeping).
  for (Entry* victim = lru_.Back(); victim != nullptr; victim = lru_.Prev(victim)) {
    if (victim->fileid == 0 || victim->fileid == keep_fileid || victim->inflight != 0) {
      continue;
    }
    DropEntry(*victim);
    ++stats_.evictions;
    return true;
  }
  return false;
}

ClientFileCache::Entry* ClientFileCache::Insert(uint32_t fileid) {
  Entry* slot = nullptr;
  for (Entry& entry : entries_) {
    if (entry.fileid == 0) {
      slot = &entry;
      break;
    }
  }
  if (slot == nullptr) {
    if (!EvictOne(/*keep_fileid=*/0)) {
      return nullptr;  // every entry pinned by in-flight transfers
    }
    for (Entry& entry : entries_) {
      if (entry.fileid == 0) {
        slot = &entry;
        break;
      }
    }
  }
  *slot = Entry{};
  slot->fileid = fileid;
  slot->frames.assign(config_.max_file_pages, 0);
  uint32_t bucket = fileid % kHashBuckets;
  slot->hash_next = hash_[bucket];
  hash_[bucket] = IndexOf(*slot);
  lru_.PushFront(slot);
  return slot;
}

cksim::PhysAddr ClientFileCache::FrameFor(Entry& entry, uint32_t page) {
  if (entry.frames[page] != 0) {
    return entry.frames[page];
  }
  cksim::PhysAddr frame = owner_.frames().Allocate();
  while (frame == 0) {
    if (!EvictOne(entry.fileid)) {
      return 0;  // pool dry and nothing evictable; caller drops the page
    }
    frame = owner_.frames().Allocate();
  }
  entry.frames[page] = frame;
  return frame;
}

// ---- version plane ----

void ClientFileCache::Invalidate(Entry& entry, uint32_t new_version) {
  for (cksim::PhysAddr& frame : entry.frames) {
    if (frame != 0) {
      owner_.frames().Release(frame);
      frame = 0;
    }
  }
  entry.valid = 0;
  entry.prefetched = 0;
  entry.demand_fill = 0;
  entry.version = new_version;
  ++stats_.invalidations;
}

void ClientFileCache::ApplyAttrs(const AttrReply& attr) {
  Entry* entry = Lookup(attr.fileid);
  if (entry == nullptr) {
    entry = Insert(attr.fileid);
  }
  if (entry == nullptr) {
    return;  // table fully pinned; next open retries
  }
  if (entry->version != 0 && entry->version != attr.version) {
    Invalidate(*entry, attr.version);
  }
  entry->version = attr.version;
  entry->size = attr.size;
  Touch(*entry);
}

// ---- control plane ----

ClientFileCache::Status ClientFileCache::Open(CkApi& api, const std::string& name,
                                              uint32_t* fileid) {
  auto pending = open_pending_.find(name);
  if (pending != open_pending_.end()) {
    if (pending->second) {
      return Status::kPending;
    }
    open_pending_.erase(pending);
    auto it = name_to_fileid_.find(name);
    if (it == name_to_fileid_.end() || it->second == 0) {
      name_to_fileid_.erase(name);
      return Status::kError;
    }
    *fileid = it->second;
    return Status::kHit;
  }
  auto it = name_to_fileid_.find(name);
  if (it != name_to_fileid_.end() && it->second != 0 && Lookup(it->second) != nullptr) {
    *fileid = it->second;  // attrs cached: zero wire traffic
    return Status::kHit;
  }
  std::vector<uint8_t> wire(name.begin(), name.end());
  ++stats_.opens;
  open_pending_[name] = true;
  pump_->Call(api, kOpOpen, wire,
              [this, name](const std::vector<uint8_t>& reply, CkApi&) {
                open_pending_[name] = false;
                AttrReply attr;
                if (ReadPod(reply, 0, &attr) && attr.status == 0) {
                  name_to_fileid_[name] = attr.fileid;
                  ApplyAttrs(attr);
                } else {
                  name_to_fileid_[name] = 0;
                }
              });
  return Status::kPending;
}

ClientFileCache::Status ClientFileCache::Readdir(CkApi& api, DirListing* out) {
  if (readdir_ready_) {
    *out = readdir_result_;
    readdir_ready_ = false;
    return Status::kHit;
  }
  if (readdir_pending_) {
    return Status::kPending;
  }
  readdir_pending_ = true;
  std::vector<uint8_t> wire;
  AppendPod(wire, ReaddirRequest{0, 64});
  pump_->Call(api, kOpReaddir, wire,
              [this](const std::vector<uint8_t>& reply, CkApi&) {
                readdir_pending_ = false;
                readdir_result_ = DirListing{};
                ReaddirReplyHeader header;
                if (ReadPod(reply, 0, &header)) {
                  size_t offset = sizeof(header);
                  for (uint32_t i = 0; i < header.count; ++i) {
                    DirEntry entry;
                    if (!ReadPod(reply, offset, &entry)) {
                      break;
                    }
                    offset += sizeof(entry);
                    if (reply.size() < offset + entry.name_len) {
                      break;
                    }
                    readdir_result_.entries.push_back(entry);
                    readdir_result_.names.emplace_back(reply.begin() + offset,
                                                       reply.begin() + offset + entry.name_len);
                    offset += entry.name_len;
                  }
                }
                readdir_ready_ = true;
              });
  return Status::kPending;
}

// ---- data plane ----

ClientFileCache::Status ClientFileCache::Read(CkApi& api, uint32_t fileid, uint32_t page,
                                              void* out, uint32_t* len) {
  Entry* entry = Lookup(fileid);
  if (entry == nullptr) {
    return Status::kError;
  }
  if (page >= config_.max_file_pages) {
    // Beyond the bitmap width: EOF if the file really ends there, error if
    // the file outgrows what this cache can map.
    if (page * static_cast<uint64_t>(kPageSize) >= entry->size) {
      *len = 0;
      return Status::kHit;
    }
    return Status::kError;
  }
  uint64_t bit = 1ull << page;
  if ((entry->valid & bit) != 0) {
    NoteAccess(*entry, page);
    Touch(*entry);
    if ((entry->prefetched & bit) != 0) {
      entry->prefetched &= ~bit;
      ++stats_.readahead_useful;
    }
    uint32_t offset = page * kPageSize;
    uint32_t want = entry->size > offset ? entry->size - offset : 0;
    if (want > kPageSize) {
      want = kPageSize;
    }
    api.ReadPhys(entry->frames[page], out, kPageSize);
    // Pool-held cache pages carry no PTE referenced bit; this soft touch is
    // their equivalent recency evidence for tier promotion (docs/TIERING.md).
    api.TierTouch(entry->frames[page]);
    api.Charge(kHitCopyCost);
    *len = want;
    if ((entry->demand_fill & bit) != 0) {
      // The successful poll that completes a demand miss: the miss was
      // already counted, so this access is not a cache hit.
      entry->demand_fill &= ~bit;
    } else {
      ++stats_.hits;
    }
    MaybeReadahead(api, *entry, page);
    return Status::kHit;
  }
  if (page * kPageSize >= entry->size) {
    *len = 0;  // at/after EOF as far as the cached attrs know
    return Status::kHit;
  }
  if ((entry->inflight & bit) != 0) {
    ++stats_.demand_stalls;  // waiting on the wire
    return Status::kPending;
  }
  NoteAccess(*entry, page);
  Touch(*entry);
  ++stats_.misses;
  IssueRead(api, *entry, page, /*readahead=*/false);
  MaybeReadahead(api, *entry, page);
  return Status::kPending;
}

void ClientFileCache::NoteAccess(Entry& entry, uint32_t page) {
  entry.seq_run = (entry.last_page != ~0u && page == entry.last_page + 1)
                      ? entry.seq_run + 1
                      : 1;
  entry.last_page = page;
}

void ClientFileCache::IssueRead(CkApi& api, Entry& entry, uint32_t page, bool readahead) {
  uint64_t bit = 1ull << page;
  entry.inflight |= bit;
  if (readahead) {
    entry.ra_request |= bit;
    ++stats_.readahead_issued;
  }
  ++outstanding_rpcs_;
  std::vector<uint8_t> wire;
  AppendPod(wire, ReadRequest{entry.fileid, page, 1});
  uint32_t fileid = entry.fileid;
  pump_->Call(api, kOpRead, wire,
              [this, fileid, page](const std::vector<uint8_t>& reply, CkApi&) {
                --outstanding_rpcs_;
                ReadReply ack;
                if (!ReadPod(reply, 0, &ack)) {
                  return;
                }
                Entry* e = Lookup(fileid);
                if (e != nullptr) {
                  uint64_t b = 1ull << page;
                  if (ack.granted == 0) {
                    e->inflight &= ~b;
                    e->ra_request &= ~b;
                  }
                  if (ack.version != 0 && e->version != ack.version) {
                    // The server has moved on; drop what we hold and adopt
                    // the version the in-flight payloads will carry.
                    Invalidate(*e, ack.version);
                  }
                  if (ack.version != 0) {
                    e->size = ack.size;
                  }
                }
                // The ack announces payloads on the bulk path; the pump
                // spins until it has polled them all.
                bulk_expected_ += ack.granted;
              });
}

void ClientFileCache::MaybeReadahead(CkApi& api, Entry& entry, uint32_t page) {
  if (!config_.readahead || entry.seq_run < kMinSeqRun) {
    return;
  }
  uint32_t pages = PagesOf(entry);
  for (uint32_t p = page + 1; p <= page + kReadaheadWindow && p < pages; ++p) {
    uint64_t bit = 1ull << p;
    if ((entry.valid & bit) != 0 || (entry.inflight & bit) != 0) {
      continue;
    }
    if (outstanding_rpcs_ >= kMaxOutstanding) {
      break;  // stay below the reception ring's capacity
    }
    IssueRead(api, entry, p, /*readahead=*/true);
  }
}

bool ClientFileCache::DrainBulk(CkApi& api) {
  if (device_ == nullptr) {
    return false;
  }
  bool claimed = false;
  std::vector<uint8_t> blob;
  while (device_->PollBulk(&blob, api.now())) {
    InstallBulk(api, blob);
    claimed = true;
  }
  return claimed;
}

void ClientFileCache::InstallBulk(CkApi& api, const std::vector<uint8_t>& blob) {
  BulkPageHeader header;
  if (!ReadPod(blob, 0, &header) || header.magic != kBulkMagic ||
      blob.size() < sizeof(header) + header.len) {
    return;  // not a file-service payload
  }
  if (bulk_expected_ > 0) {
    --bulk_expected_;
  }
  Entry* entry = Lookup(header.fileid);
  if (entry == nullptr || header.page >= config_.max_file_pages) {
    return;
  }
  uint64_t bit = 1ull << header.page;
  bool was_readahead = (entry->ra_request & bit) != 0;
  entry->inflight &= ~bit;
  entry->ra_request &= ~bit;
  if (header.version != entry->version) {
    // Stale payload (an invalidation or fresher ack moved the entry's
    // version while this page was on the wire). Never install it: this is
    // the guarantee that read-ahead cannot surface old data.
    ++stats_.stale_bulk_dropped;
    return;
  }
  cksim::PhysAddr frame = FrameFor(*entry, header.page);
  if (frame == 0) {
    return;  // no frame; the page stays absent and a later read re-misses
  }
  api.ZeroPage(frame);
  if (header.len > 0) {
    api.WritePhys(frame, blob.data() + sizeof(header), header.len);
  }
  entry->valid |= bit;
  if (was_readahead) {
    entry->prefetched |= bit;
  } else {
    entry->demand_fill |= bit;
  }
}

std::vector<uint8_t> ClientFileCache::ServePeer(uint32_t op,
                                                const std::vector<uint8_t>& request,
                                                CkApi& api) {
  (void)api;
  if (op == kOpInvalidate) {
    InvalidateMsg msg;
    if (ReadPod(request, 0, &msg)) {
      Entry* entry = Lookup(msg.fileid);
      if (entry != nullptr && entry->version != msg.version) {
        Invalidate(*entry, msg.version);
      }
    }
  }
  return {};
}

// ---- introspection ----

uint32_t ClientFileCache::CachedPages(uint32_t fileid) const {
  const Entry* entry = Lookup(fileid);
  return entry != nullptr ? static_cast<uint32_t>(std::popcount(entry->valid)) : 0;
}

uint32_t ClientFileCache::CachedVersion(uint32_t fileid) const {
  const Entry* entry = Lookup(fileid);
  return entry != nullptr ? entry->version : 0;
}

uint64_t ClientFileCache::frames_held() const {
  uint64_t held = 0;
  for (const Entry& entry : entries_) {
    for (cksim::PhysAddr frame : entry.frames) {
      if (frame != 0) {
        ++held;
      }
    }
  }
  return held;
}

}  // namespace ckfs

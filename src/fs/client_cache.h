// Client-side file page cache with pipelined read-ahead and version
// invalidation (docs/FILESERVICE.md).
//
// A library any application kernel can embed (the "C++ class library"
// specialization pattern of section 3): a 9front-style mount cache -- a
// hashed LRU of per-file entries, each carrying a valid-page bitmap over
// frames drawn from the owning kernel's FramePool -- in front of the
// file-server kernel on the other end of a fiber-channel link.
//
//   * A hit costs zero wire traffic: the page is copied straight out of a
//     local frame.
//   * A miss issues the demand read RPC and, when the access pattern looks
//     sequential, a pipelined read-ahead window of additional single-page
//     read RPCs (multiple outstanding on the wire, like devmnt's
//     mntrahread), capped below the reception ring's capacity.
//   * Every cached page is tagged with the file version it was read under
//     (qid.vers analogue). Server invalidation pushes and version
//     mismatches observed on open/read replies drop the stale bitmap;
//     a bulk arrival whose version does not match the entry's current
//     version is discarded, so read-ahead can never install stale data.
//
// The public API is poll-style for native app-kernel programs: kPending
// means "retry after yielding" (the DSM worker idiom); the reply and bulk
// arrivals are driven by the cache's pump thread.
//
// The cache keeps its own counts (FsClientStats, through stats()); the
// Cache Kernel records none of them.

#ifndef SRC_FS_CLIENT_CACHE_H_
#define SRC_FS_CLIENT_CACHE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/appkernel/channel.h"
#include "src/base/intrusive_list.h"
#include "src/fs/fs_protocol.h"
#include "src/sim/devices.h"

namespace ckfs {

struct FsClientStats {
  uint64_t hits = 0;
  uint64_t misses = 0;              // demand reads issued
  uint64_t readahead_issued = 0;    // prefetch reads issued
  uint64_t readahead_useful = 0;    // prefetched pages later hit
  uint64_t invalidations = 0;       // version-driven bitmap drops
  uint64_t evictions = 0;           // entries recycled (LRU / frame pressure)
  uint64_t stale_bulk_dropped = 0;  // bulk pages discarded by version check
  uint64_t demand_stalls = 0;       // polls that found the demand page absent
  uint64_t opens = 0;               // open RPCs issued
};

class ClientFileCache {
 public:
  struct Config {
    uint32_t entries = 16;          // cache entry slots (files cached at once)
    uint32_t max_file_pages = 64;   // bitmap width; files larger are truncated
    bool readahead = true;
  };

  enum class Status { kHit, kPending, kError };

  // The cache reaches the Cache Kernel only through the CkApi each call
  // passes; `ck` is unused.
  ClientFileCache(ckapp::AppKernelBase& owner, ck::CacheKernel& ck, const Config& config);
  ~ClientFileCache();

  // Wire the cache to its server link: creates the pump/endpoint thread in
  // `space_index`, configures the channels over the device's slots, and
  // registers with the server for invalidation pushes.
  void Bind(ck::CkApi& api, uint32_t space_index, cksim::FiberChannelDevice* device);

  // Open by name. kHit with *fileid set when the attrs are known (cached
  // opens cost no wire traffic); kPending while the open RPC is in flight.
  Status Open(ck::CkApi& api, const std::string& name, uint32_t* fileid);

  // Read one page. On kHit, copies the page into `out` (kPageSize capacity)
  // and sets *len to the valid byte count (0 at/after EOF). On kPending the
  // demand read (plus any read-ahead window) is on the wire; poll again
  // after yielding.
  Status Read(ck::CkApi& api, uint32_t fileid, uint32_t page, void* out, uint32_t* len);

  // One window of the server's namespace (up to 64 entries). Uncached:
  // every completed call re-fetched over the wire.
  struct DirListing {
    std::vector<DirEntry> entries;
    std::vector<std::string> names;  // parallel to entries
  };
  Status Readdir(ck::CkApi& api, DirListing* out);

  // --- introspection (tests, examples) ---
  const FsClientStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  uint32_t pump_thread() const { return pump_thread_; }
  uint32_t CachedPages(uint32_t fileid) const;  // popcount of the valid bitmap
  uint32_t CachedVersion(uint32_t fileid) const;  // 0 when not cached
  uint64_t frames_held() const;
  uint32_t outstanding_rpcs() const { return outstanding_rpcs_; }

 private:
  static constexpr uint32_t kNone = ~0u;
  static constexpr uint32_t kHashBuckets = 32;

  struct Entry {
    uint32_t fileid = 0;  // 0 = free slot
    uint32_t version = 0;
    uint32_t size = 0;
    uint64_t valid = 0;      // pages present in frames
    uint64_t inflight = 0;   // pages with a read RPC / bulk pending
    uint64_t prefetched = 0; // valid pages installed by read-ahead, not yet hit
    uint64_t ra_request = 0; // in-flight pages that were read-ahead requests
    uint64_t demand_fill = 0;  // valid pages whose demand miss was already counted
    std::vector<cksim::PhysAddr> frames;  // per page; 0 = none
    uint32_t last_page = ~0u;  // sequentiality tracker
    uint32_t seq_run = 0;
    uint32_t hash_next = kNone;
    ckbase::ListNode lru_node;  // lru_, front = most recently used
  };

  // The link's endpoint thread: serves invalidation pushes, completes our
  // calls, and polls the device's bulk queue. Runs kYield while bulk
  // transfers are expected (bulk deliveries raise no signal), quiet until
  // the next one is due, and kBlock when idle.
  class Pump;

  uint32_t IndexOf(const Entry& entry) const {
    return static_cast<uint32_t>(&entry - entries_.data());
  }
  Entry* Lookup(uint32_t fileid);
  const Entry* Lookup(uint32_t fileid) const;
  Entry* Insert(uint32_t fileid);  // takes a free slot or evicts the LRU tail
  void Touch(Entry& entry);        // move to MRU
  void HashRemove(Entry& entry);
  void DropEntry(Entry& entry);
  bool EvictOne(uint32_t keep_fileid);
  cksim::PhysAddr FrameFor(Entry& entry, uint32_t page);

  // Drop the entry's bitmap because its version moved to `new_version`.
  void Invalidate(Entry& entry, uint32_t new_version);
  void ApplyAttrs(const AttrReply& attr);

  void IssueRead(ck::CkApi& api, Entry& entry, uint32_t page, bool readahead);
  void MaybeReadahead(ck::CkApi& api, Entry& entry, uint32_t page);
  void NoteAccess(Entry& entry, uint32_t page);

  // Pump-side machinery. DrainBulk returns whether it claimed a payload.
  bool DrainBulk(ck::CkApi& api);
  void InstallBulk(ck::CkApi& api, const std::vector<uint8_t>& blob);
  bool TransfersPending() const { return bulk_expected_ > 0; }
  std::vector<uint8_t> ServePeer(uint32_t op, const std::vector<uint8_t>& request,
                                 ck::CkApi& api);

  uint32_t PagesOf(const Entry& entry) const {
    uint32_t pages = (entry.size + cksim::kPageSize - 1) / cksim::kPageSize;
    return pages < config_.max_file_pages ? pages : config_.max_file_pages;
  }

  ckapp::AppKernelBase& owner_;
  Config config_;

  cksim::FiberChannelDevice* device_ = nullptr;
  ckapp::MessageChannel out_;
  ckapp::MessageChannel in_;
  std::unique_ptr<Pump> pump_;
  uint32_t pump_thread_ = 0;
  bool registered_ = false;

  std::vector<Entry> entries_;  // sized once: the list links point into it
  uint32_t hash_[kHashBuckets];
  ckbase::IntrusiveList<Entry, &Entry::lru_node> lru_;

  std::map<std::string, uint32_t> name_to_fileid_;  // open-by-name cache
  std::map<std::string, bool> open_pending_;
  bool readdir_pending_ = false;
  bool readdir_ready_ = false;
  DirListing readdir_result_;

  uint32_t outstanding_rpcs_ = 0;  // read RPCs on the wire
  uint64_t bulk_expected_ = 0;     // bulk payloads acked but not yet polled

  FsClientStats stats_;
};

}  // namespace ckfs

#endif  // SRC_FS_CLIENT_CACHE_H_

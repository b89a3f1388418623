// Database server application kernel (section 3).
//
// "A database server can be implemented directly on top of the Cache Kernel
// to allow careful management of physical memory for caching, optimizing
// page replacement to minimize the query processing costs." The standard
// policies of UNIX-like systems "perform poorly for applications with random
// or sequential access" [Kearns & DeFazio] -- this kernel demonstrates the
// fix: the buffer-pool replacement policy is the application kernel's own
// code (a ChooseVictim override), selectable per workload:
//   * kLru  -- default OS-like policy; pathological for repeated sequential
//              scans larger than the pool (every page evicted right before
//              its next use);
//   * kMru  -- the classic scan-resistant choice; keeps a stable prefix of
//              the table resident across scans;
//   * kFifo -- the base library default, for reference.

#ifndef SRC_DB_DB_KERNEL_H_
#define SRC_DB_DB_KERNEL_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/appkernel/app_kernel_base.h"
#include "src/base/rng.h"

namespace ckdb {

enum class Replacement : uint8_t { kLru, kMru, kFifo };

struct DbConfig {
  uint32_t table_pages = 96;    // table size (rows packed 64 per page)
  uint32_t buffer_pages = 32;   // frames the SRM grants (pool smaller than table)
  Replacement policy = Replacement::kLru;
  uint32_t seed = 7;
  cksim::VirtAddr table_base = 0x50000000;
};

struct DbQueryStats {
  uint64_t rows_read = 0;
  uint64_t queries = 0;
  uint64_t buffer_hits = 0;    // page already resident
  uint64_t buffer_misses = 0;  // page-in required
};

class DbKernel : public ckapp::AppKernelBase {
 public:
  DbKernel(ck::CacheKernel& ck, const DbConfig& config);
  ~DbKernel() override;

  // Create the space, populate the table in backing store, start the query
  // engine thread.
  void Setup(ck::CkApi& api);

  // Synchronous query execution (driven by the bench/test harness; runs the
  // machine until the query engine finishes the batch).
  // A full table scan summing one column of every row.
  uint64_t RunScan();
  // `count` point lookups at uniformly random rows.
  uint64_t RunPointLookups(uint32_t count);

  const DbQueryStats& query_stats() const { return stats_; }
  uint32_t table_pages() const { return config_.table_pages; }

 protected:
  // The application-controlled replacement policy.
  cksim::VirtAddr ChooseVictim(ckapp::VSpace& sp) override;

  // ---- checkpoint hooks (docs/CHECKPOINT.md) ----
  // Query state, the access-recency list (the replacement policy's input)
  // and the engine's mid-job progress ride in the kAppExtra record. The rng
  // stream position is not captured: restored point lookups draw from a
  // fresh seed-determined stream.
  void CaptureExtra(ckckpt::Writer& w, ck::CkApi& api) override;
  void RestoreExtra(ckckpt::Reader& r, ck::CkApi& api) override;

  // Track an access to table page `table_page` for the LRU/MRU orderings.
  void Touch(uint32_t table_page);

 private:
  class EngineProgram;
  friend class EngineProgram;

  struct Job {
    enum class Kind : uint8_t { kScan, kPoint } kind = Kind::kScan;
    uint32_t count = 0;  // lookups for kPoint
  };

  cksim::VirtAddr PageAddr(uint32_t table_page) const {
    return config_.table_base + table_page * cksim::kPageSize;
  }
  uint64_t RunJob(const Job& job);
  void FinishJob(uint64_t result);

  ck::CacheKernel& ck_;
  DbConfig config_;
  ckbase::Rng rng_;
  uint32_t space_index_ = 0;
  uint32_t engine_thread_ = 0;
  std::unique_ptr<EngineProgram> engine_;

  std::deque<Job> jobs_;
  uint64_t job_result_ = 0;
  bool job_done_ = false;

  // The latest touch number; each touch stamps its page's `touched` with the
  // next one (VSpace::recency orders the resident pages by it).
  uint64_t touch_seq_ = 0;
  std::vector<ckapp::PageRecord*> table_;  // each table page's record
  DbQueryStats stats_;
};

}  // namespace ckdb

#endif  // SRC_DB_DB_KERNEL_H_

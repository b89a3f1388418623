#include "src/db/db_kernel.h"

#include <map>

#include "src/ckpt/serializer.h"

namespace ckdb {

using ck::CkApi;
using cksim::VirtAddr;

namespace {
constexpr uint32_t kRowsPerPage = 64;
constexpr uint32_t kRowBytes = cksim::kPageSize / kRowsPerPage;  // 64 bytes
}  // namespace

// Query engine: a native thread that drains the job queue. One page of rows
// per Step keeps chunks bounded.
class DbKernel::EngineProgram : public ck::NativeProgram {
 public:
  explicit EngineProgram(DbKernel& kernel) : kernel_(kernel) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ck::NativeOutcome outcome;
    DbKernel& db = kernel_;
    if (db.jobs_.empty()) {
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    Job& job = db.jobs_.front();

    if (job.kind == Job::Kind::kScan) {
      if (cursor_ >= db.config_.table_pages) {
        cursor_ = 0;
      }
      // Scan one page: read the first column of every row, each followed by
      // its predicate evaluation (3 cycles).
      db.Touch(cursor_);
      ckbase::Result<uint32_t> values[kRowsPerPage];
      ctx.LoadWords(db.PageAddr(cursor_), kRowBytes, kRowsPerPage, /*charge_each=*/3, values);
      for (const ckbase::Result<uint32_t>& value : values) {
        if (value.ok()) {
          sum_ += value.value();
          db.stats_.rows_read++;
        }
      }
      ++cursor_;
      if (cursor_ == db.config_.table_pages) {
        db.FinishJob(sum_);
        sum_ = 0;
        cursor_ = 0;
      }
    } else {
      // Point lookups: a handful per step.
      for (uint32_t i = 0; i < 8 && job.count > 0; ++i, --job.count) {
        uint32_t row = static_cast<uint32_t>(
            db.rng_.Below(static_cast<uint64_t>(db.config_.table_pages) * kRowsPerPage));
        VirtAddr addr = db.PageAddr(row / kRowsPerPage) + (row % kRowsPerPage) * kRowBytes;
        db.Touch(row / kRowsPerPage);
        ckbase::Result<uint32_t> value = ctx.LoadWord(addr);
        if (value.ok()) {
          sum_ += value.value();
          db.stats_.rows_read++;
        }
        ctx.Charge(20);  // index probe
      }
      if (job.count == 0) {
        db.FinishJob(sum_);
        sum_ = 0;
      }
    }
    outcome.action = ck::NativeOutcome::Action::kYield;
    return outcome;
  }

  // Mid-job progress, externalized for checkpointing.
  uint32_t cursor() const { return cursor_; }
  uint64_t sum() const { return sum_; }
  void RestoreProgress(uint32_t cursor, uint64_t sum) {
    cursor_ = cursor;
    sum_ = sum;
  }

 private:
  DbKernel& kernel_;
  uint32_t cursor_ = 0;
  uint64_t sum_ = 0;
};

DbKernel::DbKernel(ck::CacheKernel& ck, const DbConfig& config)
    : ckapp::AppKernelBase("database", config.table_pages + 64),
      ck_(ck),
      config_(config),
      rng_(config.seed) {}

DbKernel::~DbKernel() = default;

void DbKernel::Setup(CkApi& api) {
  space_index_ = CreateSpace(api, /*locked=*/true);

  // Populate the table in the backing store: row r's first column = r.
  for (uint32_t page = 0; page < config_.table_pages; ++page) {
    for (uint32_t row = 0; row < kRowsPerPage; ++row) {
      uint32_t value = page * kRowsPerPage + row;
      backing_.WriteBytes(page, row * kRowBytes, &value, 4);
    }
  }
  DefineBackedRegion(space_index_, config_.table_base, config_.table_pages,
                     /*first_backing_page=*/0, /*writable=*/false);
  for (uint32_t p = 0; p < config_.table_pages; ++p) {
    table_.push_back(space(space_index_).FindPage(PageAddr(p)));
  }
  image_next_ = config_.table_pages;  // table occupies the low backing pages

  engine_ = std::make_unique<EngineProgram>(*this);
  engine_thread_ = CreateNativeThread(api, space_index_, engine_.get(), /*priority=*/10);
}

void DbKernel::Touch(uint32_t table_page) {
  ckapp::PageRecord* page = table_[table_page];
  if (page != nullptr && page->where == ckapp::PageRecord::Where::kResident) {
    stats_.buffer_hits++;
  } else {
    stats_.buffer_misses++;
  }
  ++touch_seq_;
  if (page != nullptr) {
    page->touched = touch_seq_;
    if (page->resident_node.linked()) {  // to the back: most recently used
      space(space_index_).recency.Remove(page);
      space(space_index_).recency.PushBack(page);
    }
  }
}

// The recency list is the touch order restricted to resident pages: its first
// evictable page is the LRU one. Other spaces' lists are empty (FIFO).
VirtAddr DbKernel::ChooseVictim(ckapp::VSpace& sp) {
  auto evictable = [](const ckapp::PageRecord* page) {
    return page->frame_owned && !page->locked && !page->message;
  };
  if (config_.policy == Replacement::kLru) {
    for (ckapp::PageRecord* page : sp.recency) {
      if (evictable(page)) {
        return page->vaddr;
      }
    }
  } else if (config_.policy == Replacement::kMru) {
    for (ckapp::PageRecord* page = sp.recency.Back(); page != nullptr;
         page = sp.recency.Prev(page)) {
      // Skip the latest touch (the page being read; resident or not): evicting
      // it would livelock.
      if (page->touched != touch_seq_ && evictable(page)) {
        return page->vaddr;
      }
    }
  }
  return AppKernelBase::ChooseVictim(sp);  // FIFO fallback
}

void DbKernel::CaptureExtra(ckckpt::Writer& w, CkApi& api) {
  AppKernelBase::CaptureExtra(w, api);
  (void)api;
  w.U32(config_.table_pages);
  w.U32(config_.buffer_pages);
  w.U8(static_cast<uint8_t>(config_.policy));
  w.U32(config_.seed);
  w.U32(config_.table_base);
  w.U32(space_index_);
  w.U32(engine_thread_);
  w.U32(engine_ != nullptr ? engine_->cursor() : 0);
  w.U64(engine_ != nullptr ? engine_->sum() : 0);
  w.U32(static_cast<uint32_t>(jobs_.size()));
  for (const Job& job : jobs_) {
    w.U8(static_cast<uint8_t>(job.kind));
    w.U32(job.count);
  }
  w.U64(job_result_);
  w.Bool(job_done_);
  std::map<uint64_t, VirtAddr> touched;  // every touched page, in touch order
  for (const ckapp::PageRecord* page : table_) {
    if (page != nullptr && page->touched != 0) {
      touched[page->touched] = page->vaddr;
    }
  }
  w.U32(static_cast<uint32_t>(touched.size()));
  for (const auto& [seq, vaddr] : touched) {
    w.U32(vaddr);
  }
  w.U64(stats_.rows_read);
  w.U64(stats_.queries);
  w.U64(stats_.buffer_hits);
  w.U64(stats_.buffer_misses);
}

void DbKernel::RestoreExtra(ckckpt::Reader& r, CkApi& api) {
  AppKernelBase::RestoreExtra(r, api);
  if (!r.ok()) {
    return;
  }
  (void)api;
  if (r.U32() != config_.table_pages || r.U32() != config_.buffer_pages ||
      r.U8() != static_cast<uint8_t>(config_.policy) || r.U32() != config_.seed ||
      r.U32() != config_.table_base) {
    r.Fail("db config mismatch between image and target instance");
    return;
  }
  if (engine_ != nullptr) {
    r.Fail("db target is not a fresh instance");
    return;
  }
  space_index_ = r.U32();
  engine_thread_ = r.U32();
  uint32_t cursor = r.U32();
  uint64_t sum = r.U64();
  jobs_.clear();
  uint32_t job_count = r.U32();
  for (uint32_t i = 0; i < job_count && r.ok(); ++i) {
    Job job;
    job.kind = static_cast<Job::Kind>(r.U8());
    job.count = r.U32();
    jobs_.push_back(job);
  }
  job_result_ = r.U64();
  job_done_ = r.Bool();
  // The touched table pages in touch order: number them 1..n and link the
  // resident ones in that order.
  uint32_t recency_count = r.U32();
  for (uint32_t i = 0; i < recency_count && r.ok(); ++i) {
    VirtAddr vaddr = r.U32();
    ckapp::PageRecord* page =
        space_index_ < space_count() ? space(space_index_).FindPage(vaddr) : nullptr;
    if (page == nullptr || page->vaddr != vaddr || page->touched != 0) {
      r.Fail("db recency entry names no table page, or repeats");
      return;
    }
    page->touched = ++touch_seq_;
    if (page->resident_node.linked()) {
      space(space_index_).recency.PushBack(page);
    }
  }
  stats_.rows_read = r.U64();
  stats_.queries = r.U64();
  stats_.buffer_hits = r.U64();
  stats_.buffer_misses = r.U64();
  if (!r.ok()) {
    return;
  }
  if (engine_thread_ >= thread_count() || space_index_ >= space_count()) {
    r.Fail("db engine thread or space not in the image");
    return;
  }
  for (uint32_t p = 0; p < config_.table_pages; ++p) {
    table_.push_back(space(space_index_).FindPage(PageAddr(p)));
  }
  engine_ = std::make_unique<EngineProgram>(*this);
  engine_->RestoreProgress(cursor, sum);
  RebindNativeProgram(engine_thread_, engine_.get());
}

void DbKernel::FinishJob(uint64_t result) {
  jobs_.pop_front();
  job_result_ = result;
  job_done_ = true;
  stats_.queries++;
}

uint64_t DbKernel::RunJob(const Job& job) {
  jobs_.push_back(job);
  job_done_ = false;
  CkApi api(ck_, self(), ck_.machine().cpu(0));
  ckapp::ThreadRec& rec = thread(engine_thread_);
  EnsureThreadLoaded(api, engine_thread_);
  api.ResumeThread(rec.ck_id);
  uint64_t turns = 0;
  const uint64_t kTurnLimit = 50u * 1000 * 1000;
  while (!job_done_ && turns < kTurnLimit) {
    ck_.machine().Step();
    ++turns;
  }
  return job_result_;
}

uint64_t DbKernel::RunScan() { return RunJob(Job{Job::Kind::kScan, 0}); }

uint64_t DbKernel::RunPointLookups(uint32_t count) {
  return RunJob(Job{Job::Kind::kPoint, count});
}

}  // namespace ckdb

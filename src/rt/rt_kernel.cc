#include "src/rt/rt_kernel.h"

#include <algorithm>

namespace ckrt {

using ck::CkApi;
using cksim::Cycles;
using cksim::VirtAddr;

constexpr VirtAddr kRegionBase = 0x60000000;  // task working sets, one after another

// A periodic task: blocked until activated, then sweeps its working set and
// reports completion latency.
class RtKernel::TaskProgram : public ck::NativeProgram {
 public:
  TaskProgram(RtKernel& kernel, uint32_t index) : kernel_(kernel), index_(index) {}

  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ck::NativeOutcome outcome;
    RtKernel& rt = kernel_;
    const RtTaskConfig& cfg = rt.tasks_[index_];
    if (!pending_) {
      outcome.action = ck::NativeOutcome::Action::kBlock;
      return outcome;
    }
    pending_ = false;

    // The control-loop body: touch every page of the working set.
    VirtAddr base = kRegionBase + index_ * (cfg.working_set_pages + 4) * cksim::kPageSize;
    for (uint32_t page = 0; page < cfg.working_set_pages; ++page) {
      VirtAddr addr = base + page * cksim::kPageSize;
      ckbase::Result<uint32_t> value = ctx.LoadWord(addr);
      if (value.ok()) {
        ctx.StoreWord(addr, value.value() + 1);
      }
      ctx.Charge(25);  // control computation per page
    }

    Cycles latency = ctx.api().now() - rt.activation_time_[index_];
    RtTaskStats& stats = rt.stats_[index_];
    stats.activations++;
    stats.total_latency += latency;
    if (latency > stats.worst_latency) {
      stats.worst_latency = latency;
    }
    if (latency > cfg.deadline) {
      stats.deadline_misses++;
    }

    outcome.action = ck::NativeOutcome::Action::kBlock;
    return outcome;
  }

  void Arm() { pending_ = true; }

 private:
  RtKernel& kernel_;
  uint32_t index_;
  bool pending_ = false;
};

RtKernel::RtKernel(ck::CacheKernel& ck, const RtConfig& config)
    : ckapp::AppKernelBase("realtime", /*backing_pages=*/32), ck_(ck), config_(config) {}

RtKernel::~RtKernel() = default;

void RtKernel::Setup(CkApi& api, const std::vector<RtTaskConfig>& tasks) {
  tasks_ = tasks;
  stats_.assign(tasks.size(), RtTaskStats{});
  activation_time_.assign(tasks.size(), 0);
  space_index_ = CreateSpace(api, config_.lock_resources);

  for (uint32_t i = 0; i < tasks_.size(); ++i) {
    const RtTaskConfig& cfg = tasks_[i];
    VirtAddr base = kRegionBase + i * (cfg.working_set_pages + 4) * cksim::kPageSize;
    DefineZeroRegion(space_index_, base, cfg.working_set_pages, /*writable=*/true);

    auto program = std::make_unique<TaskProgram>(*this, i);
    uint32_t thread_index = CreateNativeThread(api, space_index_, program.get(), cfg.priority,
                                               config_.lock_resources, cfg.cpu);
    programs_.push_back(std::move(program));
    task_threads_.push_back(thread_index);

    if (config_.lock_resources) {
      // Pre-fault and lock the working-set mappings so activation never
      // takes a mapping reload (section 2.3: "lock a small number of
      // real-time threads in the Cache Kernel"; mappings likewise).
      for (uint32_t page = 0; page < cfg.working_set_pages; ++page) {
        VirtAddr addr = base + page * cksim::kPageSize;
        ckapp::PageRecord* rec = space(space_index_).FindPage(addr);
        if (rec != nullptr) {
          rec->locked = true;
        }
        EnsureMappingLoaded(api, space_index_, addr);
      }
    }
    Activate(api, i);  // schedule the first period
  }
}

void RtKernel::Activate(CkApi& api, uint32_t task_index) {
  const RtTaskConfig& cfg = tasks_[task_index];
  api.ScheduleAfter(cfg.period, [this, task_index](CkApi& later) {
    // The event may fire on a lagging CPU; the task could not have started
    // before its own processor's current time, so stamp against that.
    const RtTaskConfig& task_cfg = tasks_[task_index];
    cksim::Cycles task_cpu_now = ck_.machine().cpu(task_cfg.cpu).clock();
    activation_time_[task_index] = std::max(later.now(), task_cpu_now);
    programs_[task_index]->Arm();
    ckapp::ThreadRec& rec = thread(task_threads_[task_index]);
    if (!rec.loaded) {
      EnsureThreadLoaded(later, task_threads_[task_index]);
    }
    later.ResumeThread(rec.ck_id);
    Activate(later, task_index);  // arm the next period
  });
}

}  // namespace ckrt

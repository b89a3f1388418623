// Real-time embedded application kernel (sections 2, 3, 4.3).
//
// "A real-time embedded system can be realized as an application kernel,
// controlling the locking of threads, address spaces and mappings into the
// Cache Kernel, and managing resources to meet response requirements."
//
// This kernel runs periodic tasks: each period the task is activated, walks
// its working set (translated accesses) and records its activation latency
// against a deadline. With `lock_resources` set, the task thread, its space
// and its working-set mappings are locked in the Cache Kernel, so a batch
// kernel thrashing the mapping cache cannot add reload latency -- the A3
// ablation measures exactly that protection.

#ifndef SRC_RT_RT_KERNEL_H_
#define SRC_RT_RT_KERNEL_H_

#include <memory>
#include <vector>

#include "src/appkernel/app_kernel_base.h"

namespace ckrt {

struct RtTaskConfig {
  cksim::Cycles period = 50000;        // 2 ms
  cksim::Cycles deadline = 12500;      // 500 us from activation to completion
  uint32_t working_set_pages = 8;
  uint8_t priority = 28;
  uint8_t cpu = 0;
};

struct RtTaskStats {
  uint64_t activations = 0;
  uint64_t deadline_misses = 0;
  cksim::Cycles worst_latency = 0;
  cksim::Cycles total_latency = 0;
};

struct RtConfig {
  bool lock_resources = true;  // lock thread/space/mappings in the Cache Kernel
};

class RtKernel : public ckapp::AppKernelBase {
 public:
  RtKernel(ck::CacheKernel& ck, const RtConfig& config);
  ~RtKernel() override;

  // Create the space and the periodic tasks; arms the first activations.
  void Setup(ck::CkApi& api, const std::vector<RtTaskConfig>& tasks);

  const RtTaskStats& task_stats(uint32_t task) const { return stats_[task]; }
  uint32_t task_count() const { return static_cast<uint32_t>(tasks_.size()); }

 private:
  class TaskProgram;
  friend class TaskProgram;

  void Activate(ck::CkApi& api, uint32_t task_index);

  ck::CacheKernel& ck_;
  RtConfig config_;
  uint32_t space_index_ = 0;
  std::vector<RtTaskConfig> tasks_;
  std::vector<std::unique_ptr<TaskProgram>> programs_;
  std::vector<uint32_t> task_threads_;
  std::vector<RtTaskStats> stats_;
  std::vector<cksim::Cycles> activation_time_;
};

}  // namespace ckrt

#endif  // SRC_RT_RT_KERNEL_H_

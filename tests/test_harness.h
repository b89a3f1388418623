// Shared test fixture: a booted machine with a Cache Kernel and an SRM.

#ifndef TESTS_TEST_HARNESS_H_
#define TESTS_TEST_HARNESS_H_

#include <functional>
#include <memory>

#include "src/appkernel/app_kernel_base.h"
#include "src/ck/cache_kernel.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"

namespace cktest {

struct WorldOptions {
  uint32_t cpus = 4;
  uint32_t memory_bytes = 16u << 20;
  ck::CacheKernelConfig ck;
  cksim::CostModel cost;
};

// One MPM: machine + Cache Kernel + booted SRM.
class TestWorld {
 public:
  explicit TestWorld(const WorldOptions& options = WorldOptions())
      : machine_(MakeMachineConfig(options)),
        kernel_(machine_, options.ck),
        srm_(kernel_) {
    srm_.Boot();
  }

  cksim::Machine& machine() { return machine_; }
  ck::CacheKernel& ck() { return kernel_; }
  cksrm::Srm& srm() { return srm_; }
  ck::CkApi Api() { return srm_.Api(); }

  // Launch an app kernel with a default grant.
  ck::KernelId Launch(ckapp::AppKernelBase& app, uint32_t page_groups = 4,
                      uint8_t max_priority = 30) {
    cksrm::LaunchParams params;
    params.page_groups = page_groups;
    params.max_priority = max_priority;
    ckbase::Result<ck::KernelId> result = srm_.Launch(app, params);
    return result.ok() ? result.value() : ck::KernelId{};
  }

  // Run machine turns until `done` or the turn limit.
  bool RunUntil(const std::function<bool()>& done, uint64_t max_turns = 2000000) {
    for (uint64_t i = 0; i < max_turns; ++i) {
      if (done()) {
        return true;
      }
      machine_.Step();
    }
    return done();
  }

 private:
  static cksim::MachineConfig MakeMachineConfig(const WorldOptions& options) {
    cksim::MachineConfig config;
    config.cpu_count = options.cpus;
    config.memory_bytes = options.memory_bytes;
    config.cost = options.cost;
    return config;
  }

  cksim::Machine machine_;
  ck::CacheKernel kernel_;
  cksrm::Srm srm_;
};

}  // namespace cktest

#endif  // TESTS_TEST_HARNESS_H_

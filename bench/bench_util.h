// Shared benchmark harness utilities.
//
// Every bench prints a paper-style table with three kinds of columns:
//   * paper:    the value reported in the OSDI '94 paper (where given)
//   * simulated: our measurement in simulated microseconds (25 MHz cycle
//                clock driven by the cost model in src/sim/cost.h)
//   * host:     wall-clock nanoseconds of the implementation itself, for
//                reference (not comparable to the paper)
// The claim being reproduced is the SHAPE of each result -- orderings,
// ratios, crossovers -- not absolute microseconds; see EXPERIMENTS.md.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "src/appkernel/app_kernel_base.h"
#include "src/base/histogram.h"
#include "src/ck/cache_kernel.h"
#include "src/ck/observability.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"

namespace ckbench {

// Process-wide observability session. main() parses flags into an ObsSession
// and parks a pointer here; the first World constructed attaches to it (even
// when worlds are built inside helper functions) and flushes it on
// destruction, so --trace / --metrics work in every bench without plumbing.
inline ck::ObsSession*& ObsSlot() {
  static ck::ObsSession* slot = nullptr;
  return slot;
}

// One MPM world (machine + Cache Kernel + SRM), same shape as the tests use.
class World {
 public:
  explicit World(const ck::CacheKernelConfig& ck_config = ck::CacheKernelConfig(),
                 uint32_t memory_bytes = 16u << 20, uint32_t cpus = 4) {
    cksim::MachineConfig machine_config;
    machine_config.cpu_count = cpus;
    machine_config.memory_bytes = memory_bytes;
    machine_ = std::make_unique<cksim::Machine>(machine_config);
    ck_ = std::make_unique<ck::CacheKernel>(*machine_, ck_config);
    srm_ = std::make_unique<cksrm::Srm>(*ck_);
    srm_->Boot();
    if (ck::ObsSession* obs = ObsSlot()) {
      obs->Attach(*machine_, ck_.get());
    }
  }

  ~World() {
    ck::ObsSession* obs = ObsSlot();
    if (obs != nullptr && obs->attached(*machine_)) {
      obs->Finish();
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  cksim::Machine& machine() { return *machine_; }
  ck::CacheKernel& ck() { return *ck_; }
  cksrm::Srm& srm() { return *srm_; }

  ck::KernelId Launch(ckapp::AppKernelBase& app, uint32_t page_groups = 4,
                      uint8_t max_priority = 30) {
    cksrm::LaunchParams params;
    params.page_groups = page_groups;
    params.max_priority = max_priority;
    auto result = srm_->Launch(app, params);
    return result.ok() ? result.value() : ck::KernelId{};
  }

  ck::CkApi ApiFor(ckapp::AppKernelBase& app, uint32_t cpu = 0) {
    return ck::CkApi(*ck_, app.self(), machine_->cpu(cpu));
  }

  bool RunUntil(const std::function<bool()>& done, uint64_t max_turns = 5000000) {
    for (uint64_t i = 0; i < max_turns; ++i) {
      if (done()) {
        return true;
      }
      machine_->Step();
    }
    return done();
  }

 private:
  std::unique_ptr<cksim::Machine> machine_;
  std::unique_ptr<ck::CacheKernel> ck_;
  std::unique_ptr<cksrm::Srm> srm_;
};

// Measure the simulated cycles one operation takes on `cpu`.
template <typename Fn>
cksim::Cycles MeasureCycles(cksim::Cpu& cpu, Fn&& fn) {
  cksim::Cycles before = cpu.clock();
  fn();
  return cpu.clock() - before;
}

// Measure host nanoseconds.
template <typename Fn>
double MeasureHostNs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count();
}

inline double ToUs(cksim::Cycles cycles) { return cksim::CostModel::ToMicroseconds(cycles); }

// --- table printing ---

inline void Title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void Note(const std::string& text) { std::printf("%s\n", text.c_str()); }

inline void Rule() {
  std::printf("------------------------------------------------------------------------------\n");
}

// Print one distribution as a table row: count, mean, percentiles, spread.
// Units are whatever the caller put into the Stats (usually simulated us).
inline void StatsRow(const std::string& label, const ckbase::Stats& s) {
  if (s.count() == 0) {
    std::printf("  %-26s (no samples)\n", label.c_str());
    return;
  }
  std::printf("  %-26s n=%-7llu mean=%9.2f p50=%9.2f p95=%9.2f sd=%8.2f max=%9.2f\n",
              label.c_str(), static_cast<unsigned long long>(s.count()), s.Mean(),
              s.Percentile(50.0), s.Percentile(95.0), s.StdDev(), s.Max());
}

// --- shape gates ---

// `--self-check` runs: each bench asserts its EXPERIMENTS.md shape claims as
// gates, one PASS/FAIL line each, and exits nonzero if any failed. Benches
// that take ObsSession flags list "--self-check" as a binary-specific flag.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return true;
    }
  }
  return false;
}

class Gates {
 public:
  void Check(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures_ += ok ? 0 : 1;
  }

  // Prints the summary line; returns the process exit code.
  int Finish() const {
    std::printf("%s: %d gate(s) failed\n", failures_ == 0 ? "SELF-CHECK PASS" : "SELF-CHECK FAIL",
                failures_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

}  // namespace ckbench

#endif  // BENCH_BENCH_UTIL_H_

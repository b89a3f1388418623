// Ablation A3: locking real-time objects in the Cache Kernel (sections 2.3,
// 4.3). A periodic control task shares the machine with a batch kernel that
// thrashes a deliberately small mapping cache. With the task's thread,
// space and working-set mappings locked, activation latency is flat; with
// locking off, reclaimed mappings add fault-path latency and deadlines slip.

#include "bench/bench_util.h"
#include "src/rt/rt_kernel.h"

namespace {

class Thrasher : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    for (int i = 0; i < 16; ++i) {
      ctx.LoadWord(0x70000000 + (cursor_ % 400) * cksim::kPageSize);
      ++cursor_;
    }
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kYield;
    return outcome;
  }
  uint32_t cursor_ = 0;
};

// Task periods each configuration runs for.
constexpr uint64_t kPeriods = 100;

struct Row {
  uint64_t activations;
  uint64_t misses;
  double mean_us, worst_us;
  uint64_t reclamations;
};

Row Run(bool lock_resources) {
  ck::CacheKernelConfig config;
  config.mapping_slots = 64;  // tiny cache: heavy replacement interference
  ckbench::World world(config);

  ckrt::RtConfig rt_config;
  rt_config.lock_resources = lock_resources;
  ckrt::RtKernel rt(world.ck(), rt_config);
  {
    cksrm::LaunchParams params;
    params.page_groups = 2;
    params.max_priority = 30;
    params.locked_kernel_object = lock_resources;
    params.lock_limits[static_cast<int>(ck::ObjectType::kMapping)] = 32;
    params.lock_limits[static_cast<int>(ck::ObjectType::kThread)] = 8;
    params.lock_limits[static_cast<int>(ck::ObjectType::kSpace)] = 2;
    world.srm().Launch(rt, params);
  }
  ck::CkApi rt_api = world.ApiFor(rt);
  ckrt::RtTaskConfig task;
  task.period = 50000;      // 2 ms
  task.deadline = 12500;    // 500 us
  task.working_set_pages = 8;
  task.cpu = 0;
  rt.Setup(rt_api, {task});

  ckapp::AppKernelBase batch("batch", 64);
  cksrm::LaunchParams batch_params;
  batch_params.page_groups = 4;
  world.srm().Launch(batch, batch_params);
  ck::CkApi batch_api = world.ApiFor(batch);
  uint32_t batch_space = batch.CreateSpace(batch_api);
  batch.DefineZeroRegion(batch_space, 0x70000000, 400, /*writable=*/true);
  Thrasher thrasher;
  batch.CreateNativeThread(batch_api, batch_space, &thrasher, 10, false, /*cpu=*/1);

  world.machine().RunFor(kPeriods * task.period);

  const ckrt::RtTaskStats& stats = rt.task_stats(0);
  Row row;
  row.activations = stats.activations;
  row.misses = stats.deadline_misses;
  row.mean_us = stats.activations > 0 ? ckbench::ToUs(stats.total_latency) /
                                            static_cast<double>(stats.activations)
                                      : 0;
  row.worst_us = ckbench::ToUs(stats.worst_latency);
  row.reclamations =
      world.ck().stats().reclamations[static_cast<int>(ck::ObjectType::kMapping)];
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv, {"--self-check"});
  ckbench::ObsSlot() = &obs;
  const bool self_check = ckbench::HasFlag(argc, argv, "--self-check");
  ckbench::Title("Ablation A3: locked real-time objects vs. mapping-cache thrash");
  std::printf("%-18s %12s %10s %12s %12s %14s\n", "configuration", "activations", "misses",
              "mean us", "worst us", "map reclaims");
  ckbench::Rule();
  Row locked = Run(true);
  Row unlocked = Run(false);
  std::printf("%-18s %12llu %10llu %12.1f %12.1f %14llu\n", "locked",
              static_cast<unsigned long long>(locked.activations),
              static_cast<unsigned long long>(locked.misses), locked.mean_us, locked.worst_us,
              static_cast<unsigned long long>(locked.reclamations));
  std::printf("%-18s %12llu %10llu %12.1f %12.1f %14llu\n", "unlocked",
              static_cast<unsigned long long>(unlocked.activations),
              static_cast<unsigned long long>(unlocked.misses), unlocked.mean_us,
              unlocked.worst_us, static_cast<unsigned long long>(unlocked.reclamations));
  ckbench::Rule();
  ckbench::Note("shape checks: both configurations suffer the same mapping-cache churn from");
  ckbench::Note("the batch kernel, but the locked task's working set is exempt from");
  ckbench::Note("reclamation, so its worst-case activation latency stays at the no-load level");
  ckbench::Note("-- the basis for 'real-time processing co-existing with batch application");
  ckbench::Note("kernels' (sections 2.3, 4.3).");
  obs.Finish();
  if (!self_check) {
    return 0;
  }
  // A3 (EXPERIMENTS.md). Every gate also fails on an empty or zero
  // measurement.
  ckbench::Gates gates;
  char what[160];
  std::snprintf(what, sizeof(what), "locked misses %llu == 0, unlocked misses %llu >= 1",
                static_cast<unsigned long long>(locked.misses),
                static_cast<unsigned long long>(unlocked.misses));
  gates.Check(locked.activations > 0 && locked.misses == 0 && unlocked.misses >= 1, what);
  std::snprintf(what, sizeof(what), "locked worst latency %.1f us < unlocked %.1f us",
                locked.worst_us, unlocked.worst_us);
  gates.Check(locked.worst_us > 0 && locked.worst_us < unlocked.worst_us, what);
  // The periodic task must fire in (nearly) every period it ran for; a
  // timer that fires late loses activations even when no deadline is missed.
  std::snprintf(what, sizeof(what),
                "activations (%llu, %llu) >= 95%% of %llu periods and mapping reclaims "
                "(%llu, %llu) > 0 in both",
                static_cast<unsigned long long>(locked.activations),
                static_cast<unsigned long long>(unlocked.activations),
                static_cast<unsigned long long>(kPeriods),
                static_cast<unsigned long long>(locked.reclamations),
                static_cast<unsigned long long>(unlocked.reclamations));
  gates.Check(locked.activations * 100 >= kPeriods * 95 &&
                  unlocked.activations * 100 >= kPeriods * 95 && locked.reclamations > 0 &&
                  unlocked.reclamations > 0,
              what);
  return gates.Finish();
}

// Ablation A2: processor quota enforcement (section 4.3).
//
// A rogue compute-bound kernel shares a processor with an interactive
// kernel. With enforcement on, the rogue is degraded once it exceeds its
// percentage and the interactive kernel's wakeup latency stays flat; with
// enforcement off, equal priorities split the processor and interactive
// latency balloons. This is the "prevents a rogue application kernel running
// a large simulation from disrupting ... timesharing services" claim.

#include "bench/bench_util.h"

namespace {

class Spinner : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ctx.Charge(2000);  // a long compute chunk (hogs its slice)
    ++steps;
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kYield;
    return outcome;
  }
  uint64_t steps = 0;
};

// Interactive worker: sleeps, wakes, does a tiny unit of work, records the
// latency from its scheduled wake time to actually running.
class Interactive : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    if (armed_at != 0) {
      cksim::Cycles latency = ctx.api().now() - armed_at;
      stats.Add(ckbench::ToUs(latency));
      armed_at = 0;
    }
    ctx.Charge(200);  // the interactive work unit
    // Sleep 2 ms, then wake.
    ck::ThreadId self = ctx.self_thread();
    Interactive* me = this;
    ctx.api().ScheduleAfter(50000, [self, me](ck::CkApi& later) {
      me->armed_at = later.now();
      later.ResumeThread(self);
    });
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kBlock;
    return outcome;
  }
  cksim::Cycles armed_at = 0;
  ckbase::Stats stats;
};

struct Row {
  double rogue_share;
  double interactive_mean_us;
  double interactive_p95_us;
  uint64_t degradations;
  uint64_t interactive_samples;
};

Row Run(bool enforce, uint8_t rogue_percent) {
  ck::CacheKernelConfig config;
  config.enforce_quotas = enforce;
  ckbench::World world(config);

  ckapp::AppKernelBase rogue("rogue", 32), interactive("interactive", 32);
  {
    cksrm::LaunchParams params;
    params.page_groups = 1;
    params.cpu_percent[1] = rogue_percent;
    world.srm().Launch(rogue, params);
  }
  {
    cksrm::LaunchParams params;
    params.page_groups = 1;
    world.srm().Launch(interactive, params);
  }
  ck::CkApi rogue_api = world.ApiFor(rogue);
  ck::CkApi inter_api = world.ApiFor(interactive);

  Spinner spinner;
  Spinner victim_batch;  // the well-behaved kernel's own background work
  Interactive worker;
  // Same priority, same processor: only the quota can separate them.
  uint32_t rogue_space = rogue.CreateSpace(rogue_api);
  uint32_t inter_space = interactive.CreateSpace(inter_api);
  rogue.CreateNativeThread(rogue_api, rogue_space, &spinner, 10, false, 1);
  interactive.CreateNativeThread(inter_api, inter_space, &victim_batch, 10, false, 1);
  interactive.CreateNativeThread(inter_api, inter_space, &worker, 10, false, 1);

  world.machine().RunFor(12 * world.ck().config().quota_window);

  Row row;
  // Share of the contended compute time (both spinners want 100%).
  row.rogue_share = static_cast<double>(spinner.steps) /
                    static_cast<double>(spinner.steps + victim_batch.steps);
  row.interactive_mean_us = worker.stats.Mean();
  row.interactive_p95_us = worker.stats.Percentile(95);
  row.degradations = world.ck().stats().quota_degradations;
  row.interactive_samples = worker.stats.count();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv, {"--self-check"});
  ckbench::ObsSlot() = &obs;
  const bool self_check = ckbench::HasFlag(argc, argv, "--self-check");
  ckbench::Title("Ablation A2: processor quota enforcement (rogue 20% grant on cpu 1)");
  std::printf("%-22s %12s %18s %14s %14s\n", "configuration", "rogue share",
              "interactive mean us", "p95 us", "degradations");
  ckbench::Rule();
  Row off = Run(false, 20);
  Row on = Run(true, 20);
  std::printf("%-22s %11.0f%% %18.1f %14.1f %14llu\n", "quotas OFF", 100 * off.rogue_share,
              off.interactive_mean_us, off.interactive_p95_us,
              static_cast<unsigned long long>(off.degradations));
  std::printf("%-22s %11.0f%% %18.1f %14.1f %14llu\n", "quotas ON", 100 * on.rogue_share,
              on.interactive_mean_us, on.interactive_p95_us,
              static_cast<unsigned long long>(on.degradations));
  ckbench::Rule();
  ckbench::Note("shape checks: with enforcement the rogue's share of the contended processor");
  ckbench::Note("falls toward its 20% grant and the other kernel's interactive wakeup latency");
  ckbench::Note("improves; without it, equal priorities split the processor 50/50 regardless");
  ckbench::Note("of the grant (section 4.3).");
  obs.Finish();
  if (!self_check) {
    return 0;
  }
  // A2 (EXPERIMENTS.md). Every gate also fails on an empty or zero
  // measurement.
  ckbench::Gates gates;
  char what[160];
  std::snprintf(what, sizeof(what), "rogue share with quotas %.1f%% <= 25%% and < %.1f%% without",
                100 * on.rogue_share, 100 * off.rogue_share);
  gates.Check(on.rogue_share > 0 && on.rogue_share <= 0.25 && on.rogue_share < off.rogue_share,
              what);
  std::snprintf(what, sizeof(what),
                "interactive mean latency with quotas %.1f us < %.1f us without (%llu/%llu "
                "samples)",
                on.interactive_mean_us, off.interactive_mean_us,
                static_cast<unsigned long long>(on.interactive_samples),
                static_cast<unsigned long long>(off.interactive_samples));
  gates.Check(on.interactive_samples > 0 && off.interactive_samples > 0 &&
                  on.interactive_mean_us > 0 && on.interactive_mean_us < off.interactive_mean_us,
              what);
  std::snprintf(what, sizeof(what), "degradations %llu > 0 with quotas, %llu == 0 without",
                static_cast<unsigned long long>(on.degradations),
                static_cast<unsigned long long>(off.degradations));
  gates.Check(on.degradations > 0 && off.degradations == 0, what);
  return gates.Finish();
}

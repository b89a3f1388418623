// Host-side scaling of the parallel cluster driver (src/sim/cluster.h).
//
// N MPMs, linked in a chain by fiber channel (lookahead 2500 cycles), each
// running compute-bound native threads, with light cross-machine packet
// traffic injected at barriers. Each measurement runs the identical window
// schedule twice -- single-threaded reference driver, then the host worker
// pool of min(machines, hardware threads) -- and reports:
//
//   serial_ms / parallel_ms   host wall-clock per run
//   speedup                   serial_ms / parallel_ms
//   machines                  N
//
// The run also re-checks determinism: final machine clocks must be identical
// across the two modes (the full bit-exactness proof is tests/cluster_test.cc).
//
// HONEST-NUMBERS NOTE: speedup > 1 requires host cores to run workers on.
// The recorded BENCH_cluster_scaling.json carries the google-benchmark
// context (num_cpus); on a single-core host the parallel driver's pool has
// no helper threads and runs every machine on the calling thread, so
// speedup ~= 1 there, and
// >= 2x at 4 MPMs is reachable only with >= 4 host cores (docs/PERFORMANCE.md,
// "Cluster parallelism").

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "src/appkernel/app_kernel_base.h"
#include "src/ck/observability.h"
#include "src/sim/cluster.h"
#include "src/sim/devices.h"
#include "src/sim/machine.h"
#include "src/srm/srm.h"

namespace {

constexpr cksim::Cycles kSimCycles = 2000000;  // 80 ms of simulated time
constexpr cksim::Cycles kWireLatency = 2500;

// Compute-bound guest work: burns host cycles (the thing worker threads can
// overlap) while advancing the simulated clock deterministically.
class ComputeProgram : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    uint32_t h = 0x811c9dc5u + seed_;
    for (uint32_t i = 0; i < 2000; ++i) {
      h = (h ^ i) * 16777619u;
    }
    benchmark::DoNotOptimize(h);
    seed_ = h;
    ctx.Charge(500);
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kYield;
    return outcome;
  }

 private:
  uint32_t seed_ = 0;
};

struct Mpm {
  Mpm() : machine(cksim::MachineConfig()), ck(machine, ck::CacheKernelConfig()), srm(ck) {
    srm.Boot();
  }
  cksim::Machine machine;
  ck::CacheKernel ck;
  cksrm::Srm srm;
  std::unique_ptr<cksim::FiberChannelDevice> fc;  // link to the next machine
  std::unique_ptr<cksim::FiberChannelDevice> fc_prev;
  ckapp::AppKernelBase app{"compute", 64};
  ComputeProgram programs[2];
};

struct Run {
  double host_ms = 0;
  std::vector<cksim::Cycles> final_clocks;
};

Run RunOnce(uint32_t machines, bool parallel) {
  std::vector<std::unique_ptr<Mpm>> mpms;
  for (uint32_t i = 0; i < machines; ++i) {
    mpms.push_back(std::make_unique<Mpm>());
  }

  cksim::Cluster cluster;
  for (auto& mpm : mpms) {
    cluster.AddMachine(&mpm->machine);
  }
  // Chain topology: i <-> i+1. Each endpoint's region sits in an SRM-reserved
  // page group of its own machine.
  for (uint32_t i = 0; i + 1 < machines; ++i) {
    Mpm& lo = *mpms[i];
    Mpm& hi = *mpms[i + 1];
    uint32_t group_lo = lo.srm.ReserveGroups(1).value();
    uint32_t group_hi = hi.srm.ReserveGroups(1).value();
    lo.fc = std::make_unique<cksim::FiberChannelDevice>(
        lo.machine.memory(), &lo.ck, group_lo * cksim::kPageGroupBytes, 4, 4, kWireLatency);
    hi.fc_prev = std::make_unique<cksim::FiberChannelDevice>(
        hi.machine.memory(), &hi.ck, group_hi * cksim::kPageGroupBytes, 4, 4, kWireLatency);
    cluster.Link(*lo.fc, *hi.fc_prev);
    lo.machine.AttachDevice(lo.fc.get());
    hi.machine.AttachDevice(hi.fc_prev.get());
  }
  cluster.set_parallel(parallel);

  // Two compute threads per machine.
  for (auto& mpm : mpms) {
    cksrm::LaunchParams params;
    params.page_groups = 2;
    mpm->srm.Launch(mpm->app, params);
    ck::CkApi api(mpm->ck, mpm->app.self(), mpm->machine.cpu(0));
    uint32_t space = mpm->app.CreateSpace(api);
    mpm->app.CreateNativeThread(api, space, &mpm->programs[0], 16);
    mpm->app.CreateNativeThread(api, space, &mpm->programs[1], 16);
  }

  // Light deterministic cross-machine traffic: at each done-predicate check
  // (a barrier), machine 0 rings a packet down its link.
  const cksim::Cycles deadline = cluster.Now() + kSimCycles;
  uint32_t pings = 0;
  auto inject_and_check = [&] {
    if (machines > 1 && mpms[0]->fc != nullptr) {
      cksim::FiberChannelDevice& fc = *mpms[0]->fc;
      uint32_t payload = ++pings;
      mpms[0]->machine.memory().WriteWord(fc.tx_slot(0), 4);
      mpms[0]->machine.memory().WriteWord(fc.tx_slot(0) + 4, payload);
      fc.OnDoorbell(fc.tx_slot(0), mpms[0]->machine.Now());
    }
    return cluster.Now() >= deadline;
  };

  Run run;
  auto start = std::chrono::steady_clock::now();
  cluster.RunUntilDone(inject_and_check, kSimCycles + 10 * kWireLatency);
  auto stop = std::chrono::steady_clock::now();
  run.host_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  for (auto& mpm : mpms) {
    run.final_clocks.push_back(mpm->machine.Now());
  }
  return run;
}

void BM_ClusterScaling(benchmark::State& state) {
  uint32_t machines = static_cast<uint32_t>(state.range(0));
  double serial_ms = 0;
  double parallel_ms = 0;
  for (auto _ : state) {
    Run serial = RunOnce(machines, /*parallel=*/false);
    Run parallel = RunOnce(machines, /*parallel=*/true);
    serial_ms += serial.host_ms;
    parallel_ms += parallel.host_ms;
    if (serial.final_clocks != parallel.final_clocks) {
      state.SkipWithError("parallel diverged from serial reference");
      return;
    }
  }
  double n = static_cast<double>(state.iterations());
  state.counters["machines"] = static_cast<double>(machines);
  state.counters["serial_ms"] = serial_ms / n;
  state.counters["parallel_ms"] = parallel_ms / n;
  state.counters["speedup"] = parallel_ms > 0 ? serial_ms / parallel_ms : 0;
}
BENCHMARK(BM_ClusterScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
#ifdef NDEBUG
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

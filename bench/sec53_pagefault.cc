// Section 5.3 + Figure 2 reproduction: page fault handling cost and the
// per-step breakdown of the fault path.
//
// Paper: "The basic cost of page fault handling is 99 microseconds, which
// includes 32 microseconds for transfer to the application kernel and 67
// microseconds for the optimized mapping load operation."
//
// A guest touches pages whose frames are already resident in the application
// kernel (no page I/O), so the measurement isolates the fault-path mechanism
// exactly as the paper's number does. The FaultTrace instrumentation gives
// the Figure 2 step timestamps.

#include "bench/bench_util.h"
#include "src/isa/assembler.h"

namespace {

class BenchKernel : public ckapp::AppKernelBase {
 public:
  BenchKernel() : ckapp::AppKernelBase("faultbench", 512) {}
};

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  ckbench::World world;
  BenchKernel app;
  world.Launch(app);
  ck::CkApi api = world.ApiFor(app);
  uint32_t space = app.CreateSpace(api);

  // Touch 200 pages, one load each. Pages are zero-fill; to isolate the
  // fault path from ZeroPage costs, pre-materialize all frames (so the fault
  // handler finds the page kResident and only loads the mapping).
  constexpr uint32_t kPages = 200;
  app.DefineZeroRegion(space, 0x00400000, kPages, /*writable=*/true);
  for (uint32_t i = 0; i < kPages; ++i) {
    cksim::VirtAddr vaddr = 0x00400000 + i * cksim::kPageSize;
    ckapp::PageRecord* page = app.space(space).FindPage(vaddr);
    app.MaterializePage(api, app.space(space), *page);
  }

  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      li   t0, 0x00400000
      li   t1, 200
      li   t3, 4096
    loop:
      lw   t2, 0(t0)      ; one mapping fault per page
      add  t0, t0, t3
      addi t1, t1, -1
      bne  t1, r0, loop
      halt
  )", 0x10000);
  app.LoadProgramImage(space, assembled.program, /*writable=*/false);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.cpu_hint = 0;
  uint32_t guest = app.CreateGuestThread(api, params);

  // Warm up text/stack faults, then measure across the loop.
  world.RunUntil([&] { return world.ck().stats().faults_forwarded >= 1; });
  uint64_t faults_before = world.ck().stats().faults_forwarded;
  cksim::Cycles start = world.machine().cpu(0).clock();
  world.RunUntil([&] { return app.thread(guest).finished; });
  cksim::Cycles elapsed = world.machine().cpu(0).clock() - start;
  uint64_t faults = world.ck().stats().faults_forwarded - faults_before;

  // Loop overhead: 4 guest instructions + 1 memory access per iteration.
  const cksim::CostModel& cost = world.machine().cost();
  double loop_us = ckbench::ToUs(4 * cost.instruction + cost.mem_word + cost.tlb_hit);
  double per_fault_us =
      ckbench::ToUs(elapsed) / static_cast<double>(faults) - loop_us;

  // Figure 2 step breakdown from the last fault's trace.
  const ck::FaultTrace& trace = world.ck().last_fault_trace();
  double transfer_us = ckbench::ToUs(trace.handler_start - trace.trap_entry);
  double load_resume_us = ckbench::ToUs(trace.resumed - trace.handler_start);

  ckbench::Title("Section 5.3: page fault handling (no page I/O)");
  std::printf("%-56s %10s\n", "", "us");
  ckbench::Rule();
  std::printf("%-56s %10.0f\n", "paper: basic page fault cost", 99.0);
  std::printf("%-56s %10.0f\n", "paper:   transfer to application kernel", 32.0);
  std::printf("%-56s %10.0f\n", "paper:   optimized mapping load + resume", 67.0);
  std::printf("%-56s %10.1f\n", "simulated: end-to-end per fault (steady state)", per_fault_us);
  std::printf("%-56s %10.1f\n", "simulated:   transfer to app kernel (Fig.2 steps 1-2)",
              transfer_us);
  std::printf("%-56s %10.1f\n", "simulated:   handler + combined load/resume (steps 3-6)",
              load_resume_us);
  ckbench::Rule();
  std::printf("faults measured: %llu\n", static_cast<unsigned long long>(faults));
  ckbench::Note("shape checks: total is ~100 us-order; the mapping-load half costs about twice");
  ckbench::Note("the transfer half; both are trivial against a fault that needs page zeroing,");
  ckbench::Note("copying or backing-store I/O (section 5.3).");

  // Demonstrate that claim: faults WITH zero-fill cost much more.
  {
    ckbench::World world2;
    BenchKernel app2;
    world2.Launch(app2);
    ck::CkApi api2 = world2.ApiFor(app2);
    uint32_t space2 = app2.CreateSpace(api2);
    app2.DefineZeroRegion(space2, 0x00400000, kPages, true);
    app2.LoadProgramImage(space2, assembled.program, false);
    ckapp::GuestThreadParams p2;
    p2.space_index = space2;
    p2.entry = 0x10000;
    p2.cpu_hint = 0;
    uint32_t guest2 = app2.CreateGuestThread(api2, p2);
    world2.RunUntil([&] { return world2.ck().stats().faults_forwarded >= 1; });
    cksim::Cycles start2 = world2.machine().cpu(0).clock();
    uint64_t fb2 = world2.ck().stats().faults_forwarded;
    world2.RunUntil([&] { return app2.thread(guest2).finished; });
    double with_zero = ckbench::ToUs(world2.machine().cpu(0).clock() - start2) /
                       static_cast<double>(world2.ck().stats().faults_forwarded - fb2);
    std::printf("\nper-fault cost when the handler must also zero the page: %.1f us "
                "(mechanism share: %.0f%%)\n",
                with_zero, 100.0 * per_fault_us / with_zero);
  }
  obs.Finish();
  return 0;
}

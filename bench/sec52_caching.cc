// Section 5.2 reproduction: caching performance of the mapping descriptors.
//
// The paper argues the Cache Kernel performs well for reasonably structured
// programs and is not the bottleneck for the rest: software actively
// accessing more pages than there are mapping descriptors thrashes the
// second-level data cache anyway, and page-I/O dominates when locality is
// worse still. We sweep a guest's active working set across a fixed mapping
// cache and report hit rate, writebacks per access, and where the cost goes.

#include "bench/bench_util.h"
#include "src/isa/assembler.h"

namespace {

class BenchKernel : public ckapp::AppKernelBase {
 public:
  BenchKernel() : ckapp::AppKernelBase("sec52", 2048) {}
};

struct Point {
  uint32_t working_set;
  uint64_t faults;
  uint64_t reclamations;
  double faults_per_access;
  double us_per_access;
};

Point RunWorkingSet(uint32_t pages, uint32_t mapping_slots) {
  ck::CacheKernelConfig config;
  config.mapping_slots = mapping_slots;
  ckbench::World world(config);
  BenchKernel app;
  world.Launch(app, /*page_groups=*/8);
  ck::CkApi api = world.ApiFor(app);
  uint32_t space = app.CreateSpace(api);

  app.DefineZeroRegion(space, 0x00400000, pages, /*writable=*/true);
  // Pre-materialize frames: the sweep measures mapping-cache behavior, not
  // zero-fill costs.
  for (uint32_t i = 0; i < pages; ++i) {
    cksim::VirtAddr vaddr = 0x00400000 + i * cksim::kPageSize;
    app.MaterializePage(api, app.space(space), *app.space(space).FindPage(vaddr));
  }

  // Guest loops over its working set, one access per page, 4 rounds.
  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      addi t4, r0, 4      ; rounds
    round:
      li   t0, 0x00400000
      la   t5, pages
      lw   t1, 0(t5)      ; page count (patched data word)
      li   t3, 4096
    loop:
      lw   t2, 0(t0)
      add  t0, t0, t3
      addi t1, t1, -1
      bne  t1, r0, loop
      addi t4, t4, -1
      bne  t4, r0, round
      halt
    pages:
      .word 0
  )", 0x10000);
  assembled.program.words[assembled.program.words.size() - 1] = pages;
  app.LoadProgramImage(space, assembled.program, /*writable=*/false);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.cpu_hint = 0;
  uint32_t guest = app.CreateGuestThread(api, params);

  cksim::Cycles start = world.machine().cpu(0).clock();
  world.RunUntil([&] { return app.thread(guest).finished; }, 30000000);
  cksim::Cycles elapsed = world.machine().cpu(0).clock() - start;

  Point point;
  point.working_set = pages;
  point.faults = world.ck().stats().faults_forwarded;
  point.reclamations =
      world.ck().stats().reclamations[static_cast<int>(ck::ObjectType::kMapping)];
  uint64_t accesses = static_cast<uint64_t>(pages) * 4;
  point.faults_per_access = static_cast<double>(point.faults) / static_cast<double>(accesses);
  point.us_per_access = ckbench::ToUs(elapsed) / static_cast<double>(accesses);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  constexpr uint32_t kMappingSlots = 128;  // scaled-down cache: sweepable
  ckbench::Title("Section 5.2: working-set sweep across a 128-entry mapping cache");
  std::printf("%12s %10s %14s %16s %14s\n", "working set", "faults", "reclamations",
              "faults/access", "us/access");
  ckbench::Rule();
  for (uint32_t pages : {16u, 32u, 64u, 96u, 120u, 160u, 256u, 512u}) {
    Point point = RunWorkingSet(pages, kMappingSlots);
    std::printf("%12u %10llu %14llu %16.3f %14.2f\n", point.working_set,
                static_cast<unsigned long long>(point.faults),
                static_cast<unsigned long long>(point.reclamations), point.faults_per_access,
                point.us_per_access);
  }
  ckbench::Rule();
  ckbench::Note("shape checks: working sets under the descriptor capacity fault once per page");
  ckbench::Note("(cold) and never again; past capacity, every access round re-faults (the");
  ckbench::Note("mapping cache thrashes) and cost per access jumps by the fault-path cost --");
  ckbench::Note("the same software would also be thrashing a physically-indexed data cache,");
  ckbench::Note("which is the paper's argument that the Cache Kernel is not the limiting");
  ckbench::Note("factor for badly-structured programs (section 5.2).");
  obs.Finish();
  return 0;
}

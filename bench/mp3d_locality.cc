// S3: the MP3D page-locality experiment (section 5.2).
//
// "We measured up to a 25 percent degradation in performance in the MP3D
// program ... from processors accessing particles scattered across too many
// pages. The solution with MP3D was to enforce page locality as well as
// cache line locality by copying particles in some cases as they moved
// between processors during the computation."
//
// We run the mini-MP3D in both placements across problem sizes and report
// step time, TLB misses, and the locality-copy overhead the fix pays.
//
// `mp3d_locality --self-check` gates the S3 shape (EXPERIMENTS.md): past the
// TLB reach scattered placement is at least 25% slower and locality removes
// at least 95% of the TLB misses; below it locality is slower.

#include "bench/bench_util.h"
#include "src/mp3d/mp3d_kernel.h"

namespace {

struct Row {
  uint32_t particles;
  double scattered_ms;
  double local_ms;
  double degradation_pct;
  uint64_t scattered_misses;
  uint64_t local_misses;
  uint64_t copies;
};

double RunMode(uint32_t particles, ckmp3d::Placement placement, uint32_t steps,
               uint64_t* misses_out, uint64_t* copies_out) {
  ckbench::World world;
  ckmp3d::Mp3dConfig config;
  config.particles = particles;
  config.cells = 64;
  config.workers = 4;
  config.placement = placement;
  ckmp3d::Mp3dKernel mp3d(world.ck(), config);
  world.Launch(mp3d, /*page_groups=*/8);
  ck::CkApi api = world.ApiFor(mp3d);
  mp3d.Setup(api);

  mp3d.RunSteps(2);  // warm up: fault pages in, mix particles
  for (uint32_t c = 0; c < world.machine().cpu_count(); ++c) {
    world.machine().cpu(c).mmu().tlb().ResetStats();
  }
  cksim::Cycles elapsed = mp3d.RunSteps(steps);

  uint64_t misses = 0;
  for (uint32_t c = 0; c < world.machine().cpu_count(); ++c) {
    misses += world.machine().cpu(c).mmu().tlb().misses();
  }
  *misses_out = misses;
  *copies_out = mp3d.sim_stats().locality_copies;
  return ckbench::ToUs(elapsed) / 1000.0 / steps;  // ms per step
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv, {"--self-check"});
  ckbench::ObsSlot() = &obs;
  const bool self_check = ckbench::HasFlag(argc, argv, "--self-check");
  constexpr uint32_t kSteps = 5;
  ckbench::Title("S3: MP3D page locality (ms per step; 64 cells, 4 workers)");
  std::printf("%10s | %12s %12s %12s | %11s %11s %9s\n", "particles", "scattered",
              "locality", "degradation", "scat misses", "loc misses", "copies");
  ckbench::Rule();
  Row rows[4];
  const uint32_t sizes[4] = {4096u, 8192u, 16384u, 32768u};
  for (uint32_t i = 0; i < 4; ++i) {
    Row& row = rows[i];
    row.particles = sizes[i];
    row.scattered_ms =
        RunMode(row.particles, ckmp3d::Placement::kScattered, kSteps, &row.scattered_misses,
                &row.copies);
    uint64_t dummy_copies;
    row.local_ms = RunMode(row.particles, ckmp3d::Placement::kLocalityAware, kSteps,
                           &row.local_misses, &dummy_copies);
    row.copies = dummy_copies;
    row.degradation_pct = 100.0 * (row.scattered_ms - row.local_ms) / row.local_ms;
    std::printf("%10u | %10.2fms %10.2fms %11.1f%% | %11llu %11llu %9llu\n", row.particles,
                row.scattered_ms, row.local_ms, row.degradation_pct,
                static_cast<unsigned long long>(row.scattered_misses),
                static_cast<unsigned long long>(row.local_misses),
                static_cast<unsigned long long>(row.copies));
  }
  ckbench::Rule();
  ckbench::Note("shape checks: once the particle array exceeds the TLB reach (64 entries x");
  ckbench::Note("4 KiB), scattered placement degrades step time by tens of percent (the paper");
  ckbench::Note("reported up to 25%); enforcing locality by copying on migration removes");
  ckbench::Note("nearly all TLB misses at the price of the copy work, which the application");
  ckbench::Note("kernel can decide to pay because the memory is its own (sections 3, 5.2).");
  obs.Finish();
  if (!self_check) {
    return 0;
  }
  // S3 (EXPERIMENTS.md). Every ratio's terms must be measured and non-zero.
  ckbench::Gates gates;
  char what[160];
  for (const Row& row : rows) {
    std::snprintf(what, sizeof(what), "%u particles: both step times non-zero, %llu copies > 0",
                  row.particles, static_cast<unsigned long long>(row.copies));
    gates.Check(row.scattered_ms > 0 && row.local_ms > 0 && row.copies > 0, what);
  }
  for (const Row& row : rows) {
    if (row.particles <= 8192) {
      std::snprintf(what, sizeof(what),
                    "%u particles: locality slower below the TLB reach (%.2f > %.2f ms)",
                    row.particles, row.local_ms, row.scattered_ms);
      gates.Check(row.local_ms > row.scattered_ms, what);
      continue;
    }
    std::snprintf(what, sizeof(what), "%u particles: scattered %.1f%% slower per step (>= 25%%)",
                  row.particles, row.degradation_pct);
    gates.Check(row.local_ms > 0 && row.scattered_ms >= 1.25 * row.local_ms, what);
    double removed = row.scattered_misses > 0
                         ? 1.0 - static_cast<double>(row.local_misses) /
                                     static_cast<double>(row.scattered_misses)
                         : 0.0;
    std::snprintf(what, sizeof(what),
                  "%u particles: locality removes %.1f%% of %llu TLB misses (>= 95%%), "
                  "%llu left (> 0)",
                  row.particles, 100.0 * removed,
                  static_cast<unsigned long long>(row.scattered_misses),
                  static_cast<unsigned long long>(row.local_misses));
    gates.Check(row.scattered_misses > 0 && row.local_misses > 0 && removed >= 0.95, what);
  }
  return gates.Finish();
}
